"""Dataset partitioning, snooping injection, splits, and manifests."""

from __future__ import annotations

import pytest

from snoopbench.errors import (
    EmptyClassifierSetError,
    InsufficientPoolError,
    ManifestInvalidError,
    SplitTooSmallError,
)
from snoopbench.ir_corpus import Corpus
from snoopbench.partitioner import (
    MODE_NONE,
    MODE_SNOOP,
    DatasetManifest,
    DeclaredSteps,
    apply_manifest,
    build_partition,
    inject_embedding_snooping,
    manifest_from_json,
    manifest_to_json,
    read_manifest,
    split_by_cwe,
    train_val_split,
    write_manifest,
)
from snoopbench.seeding import make_rng

from conftest import make_fn, tiny_labeled_corpus


def corpus_of(n: int, tag: str, label: str = "unlabeled", cwe=None) -> Corpus:
    fns = tuple(make_fn(f"body {tag} {i}", f"{tag}{i}", label=label, cwe=cwe) for i in range(n))
    return Corpus(functions=fns, provenance=tag)


def mixed_corpus(n_tagged: int = 3, n_rest: int = 7) -> Corpus:
    tagged = [
        make_fn(f"tagged body {i}", f"CWE121_t_{i}_bad" if i % 2 else f"CWE121_t_{i}_good",
                label="vulnerable" if i % 2 else "clean", cwe="CWE-121")
        for i in range(n_tagged)
    ]
    rest = [make_fn(f"rest body {i}", f"helper{i}") for i in range(n_rest)]
    return Corpus(functions=tuple(tagged + rest), provenance="mixed")


class TestSplitByCwe:
    def test_membership_matches_bruteforce_oracle(self):
        corpus = mixed_corpus(3, 7)
        classifier, pool = split_by_cwe(corpus, "CWE-121")
        # brute-force oracle: per-sample membership check
        want_classifier = {
            f.id for f in corpus
            if f.cwe == "CWE-121" and f.label in ("vulnerable", "clean")
        }
        assert classifier.ids() == want_classifier
        assert pool.ids() == corpus.ids() - want_classifier
        assert len(classifier) == 3 and len(pool) == 7
        assert classifier.ids() & pool.ids() == set()

    def test_no_matching_samples_errors(self):
        with pytest.raises(EmptyClassifierSetError):
            split_by_cwe(corpus_of(5, "x"), "CWE-121")

    def test_unlabeled_with_cwe_tag_excluded(self):
        odd = make_fn("odd body", "CWE121_support", label="unlabeled", cwe="CWE-121")
        corpus = Corpus(functions=mixed_corpus().functions + (odd,))
        classifier, pool = split_by_cwe(corpus, "CWE-121")
        assert odd.id in pool.ids()


class TestInjection:
    def test_set_algebra_small_case(self):
        pool = corpus_of(10, "p")
        classifier = corpus_of(3, "c", label="clean", cwe="CWE-121")
        out, dropped = inject_embedding_snooping(pool, classifier, seed=99)
        # enumerate all ids and check set algebra
        assert len(out) == 10
        assert classifier.ids() <= out.ids()
        survivors = out.ids() - classifier.ids()
        assert len(survivors) == 7
        assert survivors == pool.ids() - dropped
        assert len(dropped) == 3 and dropped <= pool.ids()

    def test_empty_classifier_is_zero_drop(self):
        pool = corpus_of(5, "p")
        empty = Corpus(functions=())
        out, dropped = inject_embedding_snooping(pool, empty, seed=1)
        assert out.ids() == pool.ids()
        assert dropped == frozenset()

    def test_pool_smaller_than_classifier_errors(self):
        with pytest.raises(InsufficientPoolError):
            inject_embedding_snooping(
                corpus_of(2, "p"), corpus_of(3, "c", label="clean", cwe="CWE-121"), seed=0
            )

    def test_size_conservation(self):
        for seed in range(5):
            pool = corpus_of(23, "p")
            classifier = corpus_of(9, "c", label="clean", cwe="CWE-121")
            out, _ = inject_embedding_snooping(pool, classifier, seed=seed)
            assert len(out) == len(pool)


class TestTrainValSplit:
    def test_ten_gives_eight_two(self):
        train, val = train_val_split(corpus_of(10, "s", label="clean", cwe="CWE-121"), seed=4)
        assert (len(train), len(val)) == (8, 2)

    def test_paper_scale_floor_rounding(self):
        corpus = corpus_of(3802, "s", label="clean", cwe="CWE-121")
        train, val = train_val_split(corpus, seed=4)
        assert (len(train), len(val)) == (3041, 761)

    def test_exact_fraction_not_lost_to_float(self):
        train, val = train_val_split(corpus_of(10, "s"), train_fraction=0.7, seed=0)
        assert (len(train), len(val)) == (7, 3)

    def test_same_seed_identical_membership(self):
        corpus = corpus_of(37, "s")
        t1, v1 = train_val_split(corpus, seed=11)
        t2, v2 = train_val_split(corpus, seed=11)
        assert t1.ids() == t2.ids() and v1.ids() == v2.ids()

    def test_disjoint_union(self):
        corpus = corpus_of(25, "s")
        train, val = train_val_split(corpus, seed=2)
        assert train.ids() & val.ids() == set()
        assert train.ids() | val.ids() == corpus.ids()

    def test_too_small_errors(self):
        with pytest.raises(SplitTooSmallError):
            train_val_split(corpus_of(1, "s"), seed=0)
        with pytest.raises(SplitTooSmallError):
            train_val_split(corpus_of(4, "s"), train_fraction=1.0, seed=0)
        with pytest.raises(SplitTooSmallError):
            train_val_split(corpus_of(4, "s"), train_fraction=0.01, seed=0)


def _manifest(mode=MODE_NONE, emb=("e1", "e2"), tr=("t1",), va=("v1",), **kw) -> DatasetManifest:
    return DatasetManifest(
        embedding_train_ids=frozenset(emb),
        classifier_train_ids=frozenset(tr),
        classifier_val_ids=frozenset(va),
        seed=7,
        snooping_mode=mode,
        **kw,
    )


class TestManifest:
    def test_round_trip(self):
        m = _manifest(counts={"classifier_total": 2})
        back = manifest_from_json(manifest_to_json(m))
        assert back == m
        assert manifest_to_json(back) == manifest_to_json(m)

    def test_file_round_trip(self, tmp_path):
        m = _manifest()
        path = tmp_path / "m.json"
        write_manifest(m, path)
        assert read_manifest(path) == m

    def test_train_val_overlap_rejected(self):
        m = _manifest(tr=("s1", "s2"), va=("s2",))
        with pytest.raises(ManifestInvalidError, match="disjointness"):
            m.validate()

    def test_mode_none_overlap_rejected(self):
        m = _manifest(emb=("t1", "pool"), tr=("t1",))
        with pytest.raises(ManifestInvalidError, match="segmentation"):
            m.validate()

    def test_snoop_mode_requires_inclusion(self):
        m = _manifest(mode=MODE_SNOOP, emb=("t1", "x"), tr=("t1",), va=("v1",))
        with pytest.raises(ManifestInvalidError, match="inclusion"):
            m.validate()

    def test_hand_edited_file_fails_validation(self, tmp_path):
        m = _manifest()
        path = tmp_path / "m.json"
        write_manifest(m, path)
        text = path.read_text().replace('"t1"', '"v1"')
        path.write_text(text)
        with pytest.raises(ManifestInvalidError):
            read_manifest(path)

    def test_generative_round_trip_50(self):
        rng = make_rng(123, "manifests")
        for case in range(50):
            universe = [f"id{case}_{i}" for i in range(30)]
            order = rng.permutation(30).tolist()
            tr = frozenset(universe[i] for i in order[:8])
            va = frozenset(universe[i] for i in order[8:12])
            pool = frozenset(universe[i] for i in order[12:])
            snoop = bool(rng.integers(0, 2))
            m = DatasetManifest(
                embedding_train_ids=pool | tr | va if snoop else pool,
                classifier_train_ids=tr,
                classifier_val_ids=va,
                seed=int(rng.integers(0, 2**63)),
                snooping_mode=MODE_SNOOP if snoop else MODE_NONE,
                declared_steps=DeclaredSteps(
                    used_kfold_for_tuning=bool(rng.integers(0, 2)),
                    filter_rules=tuple(f"rule{i}" for i in range(int(rng.integers(0, 3)))),
                    dataset_age_years=float(rng.integers(0, 12)) if rng.integers(0, 2) else None,
                ),
                counts={"classifier_total": 12},
            )
            j = manifest_to_json(m)
            assert manifest_from_json(j) == m
            assert manifest_to_json(manifest_from_json(j)) == j


class TestBuildPartition:
    def test_dichotomy_and_pairing(self, small_corpus):
        p_none = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_NONE)
        p_snoop = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_SNOOP)
        n_classifier = p_none.manifest.counts["classifier_total"]
        overlap_none = p_none.manifest.embedding_train_ids & p_none.manifest.classifier_ids()
        overlap_snoop = p_snoop.manifest.embedding_train_ids & p_snoop.manifest.classifier_ids()
        assert len(overlap_none) == 0
        assert len(overlap_snoop) == n_classifier
        # paired runs share the split exactly
        assert p_none.manifest.classifier_train_ids == p_snoop.manifest.classifier_train_ids
        assert p_none.manifest.classifier_val_ids == p_snoop.manifest.classifier_val_ids

    def test_manifests_byte_identical_for_same_inputs(self, small_corpus):
        a = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_SNOOP).manifest
        b = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_SNOOP).manifest
        assert manifest_to_json(a) == manifest_to_json(b)

    def test_counts_are_recorded(self, small_corpus):
        p = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_SNOOP)
        c = p.manifest.counts
        assert c["embedding_train_final"] == c["embedding_pool_initial"]
        assert c["embedding_post_drop"] == c["embedding_pool_initial"] - c["classifier_total"]
        assert c["classifier_train"] + c["classifier_val"] == c["classifier_total"]

    def test_filter_rule_declared_from_corpus(self, small_corpus):
        p = build_partition(small_corpus, "CWE-121", seed=5)
        assert p.manifest.declared_steps.filter_rules == ("token_length<=2048",)


class TestApplyManifest:
    def test_split_order_pool_then_classifier_each_in_corpus_order(self, small_corpus):
        part = build_partition(small_corpus, "CWE-121", seed=5, mode=MODE_SNOOP)
        m = part.manifest
        in_corpus_order = lambda ids: [f.id for f in small_corpus if f.id in ids]
        clf_ids = m.classifier_ids()
        want = in_corpus_order(m.embedding_train_ids - clf_ids) + in_corpus_order(clf_ids)
        assert [f.id for f in part.embedding_train] == want
        # classifier samples lead the corpus, so corpus order would differ
        assert want != in_corpus_order(m.embedding_train_ids)
        assert [f.id for f in part.classifier_train] == in_corpus_order(m.classifier_train_ids)
        assert [f.id for f in part.classifier_val] == in_corpus_order(m.classifier_val_ids)

    def test_manifest_file_rebuilds_the_same_splits(self, small_corpus, tmp_path):
        for mode in (MODE_NONE, MODE_SNOOP):
            part = build_partition(small_corpus, "CWE-121", seed=5, mode=mode)
            write_manifest(part.manifest, tmp_path / "m.json")
            again = apply_manifest(small_corpus, read_manifest(tmp_path / "m.json"))
            assert again == part

    def test_ids_missing_from_the_corpus_rejected(self, small_corpus):
        part = build_partition(small_corpus, "CWE-121", seed=5)
        fewer = Corpus(functions=small_corpus.functions[1:], provenance="fewer")
        with pytest.raises(ManifestInvalidError, match="1 ids that are not in corpus fewer"):
            apply_manifest(fewer, part.manifest)
