"""Dataset partitioning, controlled snooping injection, and manifests.

The manifest is the unit of auditing: it records which content hashes were
used in which pipeline phase, the seed, and the declared pipeline steps.
Mode `embedding_test_snooping` rebuilds the embedding-training set the way a
leaky pipeline would: an equal number of random pool samples is dropped and
every classifier sample is mixed in, keeping the set size constant so any
downstream effect is attributable to composition, not size.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import (
    EmptyClassifierSetError,
    InsufficientPoolError,
    ManifestInvalidError,
    SplitTooSmallError,
)
from .ir_corpus import LABEL_CLEAN, LABEL_VULNERABLE, Corpus
from .seeding import RNG_ALGORITHM, derive_seed, make_rng

MODE_NONE = "none"
MODE_SNOOP = "embedding_test_snooping"
MODES = (MODE_NONE, MODE_SNOOP)

MANIFEST_SCHEMA_VERSION = 1

FEATURE_SCOPE_OK = "preprocessing_only"
FEATURE_SCOPE_ALL = "all_samples"
NORMALIZATION_NONE = "none"
NORMALIZATION_PER_SPLIT = "per_split"
NORMALIZATION_GLOBAL = "pre_split_global"


@dataclass(frozen=True)
class DeclaredSteps:
    """Self-declared pipeline metadata audited by the snooping rule table.

    Defaults mirror a clean pipeline: feature handling restricted to
    preprocessing, no k-fold tuning, no dataset-wide normalization.
    """

    feature_selection_scope: str = FEATURE_SCOPE_OK
    used_kfold_for_tuning: bool = False
    normalization_scope: str = NORMALIZATION_NONE
    filter_rules: tuple[str, ...] = ()
    dataset_age_years: float | None = None
    time_dependency_note: str | None = None
    cherry_picking_note: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    embedding_train_ids: frozenset[str]
    classifier_train_ids: frozenset[str]
    classifier_val_ids: frozenset[str]
    seed: int
    snooping_mode: str
    declared_steps: DeclaredSteps = DeclaredSteps()
    counts: dict[str, int] = field(default_factory=dict)
    dropped_embedding_ids: frozenset[str] = frozenset()
    rng_algorithm: str = RNG_ALGORITHM

    def classifier_ids(self) -> frozenset[str]:
        return self.classifier_train_ids | self.classifier_val_ids

    def validate(self) -> None:
        """Raise ManifestInvalidError naming the violated invariant."""
        if self.snooping_mode not in MODES:
            raise ManifestInvalidError(
                f"snooping_mode must be one of {MODES}, got {self.snooping_mode!r}"
            )
        shared = self.classifier_train_ids & self.classifier_val_ids
        if shared:
            raise ManifestInvalidError(
                "classifier train/val disjointness violated: "
                f"{len(shared)} ids appear in both sets"
            )
        overlap = self.embedding_train_ids & self.classifier_ids()
        if self.snooping_mode == MODE_NONE and overlap:
            raise ManifestInvalidError(
                "segmentation violated for snooping_mode=none: "
                f"{len(overlap)} classifier ids appear in embedding_train_ids"
            )
        if self.snooping_mode == MODE_SNOOP:
            missing = self.classifier_ids() - self.embedding_train_ids
            if missing:
                raise ManifestInvalidError(
                    "inclusion violated for snooping_mode=embedding_test_snooping: "
                    f"{len(missing)} classifier ids missing from embedding_train_ids"
                )


# ---------------------------------------------------------------------------
# Partition operations
# ---------------------------------------------------------------------------

def split_by_cwe(corpus: Corpus, cwe: str) -> tuple[Corpus, Corpus]:
    """Separate the labeled samples of one CWE from everything else.

    Returns (classifier_set, embedding_pool); disjoint by id.
    """
    matched = tuple(
        f for f in corpus
        if f.cwe == cwe and f.label in (LABEL_VULNERABLE, LABEL_CLEAN)
    )
    if not matched:
        raise EmptyClassifierSetError(f"no labeled samples for {cwe} in corpus")
    matched_ids = {f.id for f in matched}
    rest = tuple(f for f in corpus if f.id not in matched_ids)
    classifier = replace(corpus, functions=matched, provenance=f"{corpus.provenance}#cwe={cwe}")
    pool = replace(corpus, functions=rest, provenance=f"{corpus.provenance}#pool")
    return classifier, pool


def inject_embedding_snooping(
    embedding_pool: Corpus, classifier_set: Corpus, seed: int
) -> tuple[Corpus, frozenset[str]]:
    """Swap |classifier_set| random pool samples for the classifier samples.

    Size is conserved: the result has exactly len(embedding_pool) functions.
    Returns the new embedding-training corpus and the dropped ids.
    """
    k = len(classifier_set)
    if k > len(embedding_pool):
        raise InsufficientPoolError(
            f"pool of {len(embedding_pool)} cannot absorb {k} classifier samples"
        )
    if k == 0:
        return embedding_pool, frozenset()
    rng = make_rng(seed)
    drop_idx = set(rng.choice(len(embedding_pool), size=k, replace=False).tolist())
    survivors = tuple(
        f for i, f in enumerate(embedding_pool.functions) if i not in drop_idx
    )
    dropped = frozenset(
        embedding_pool.functions[i].id for i in drop_idx
    )
    merged = survivors + classifier_set.functions
    out = replace(
        embedding_pool,
        functions=merged,
        provenance=f"{embedding_pool.provenance}#snooped",
    )
    return out, dropped


def train_val_split(
    classifier_set: Corpus, train_fraction: float = 0.80, seed: int = 0
) -> tuple[Corpus, Corpus]:
    """Seeded uniform shuffle, floor(train_fraction * n) to train, rest to val.

    Not stratified; class balance is reported downstream instead.
    """
    n = len(classifier_set)
    if n < 2:
        raise SplitTooSmallError(f"need at least 2 samples to split, got {n}")
    # epsilon compensates for fractions like 0.7 that are stored slightly low
    n_train = math.floor(train_fraction * n + 1e-9)
    if n_train < 1 or n - n_train < 1:
        raise SplitTooSmallError(
            f"split {n_train}/{n - n_train} of {n} leaves one side empty"
        )
    rng = make_rng(seed)
    order = rng.permutation(n)
    fns = classifier_set.functions
    train = tuple(fns[i] for i in sorted(order[:n_train].tolist()))
    val = tuple(fns[i] for i in sorted(order[n_train:].tolist()))
    return (
        replace(classifier_set, functions=train, provenance=f"{classifier_set.provenance}#train"),
        replace(classifier_set, functions=val, provenance=f"{classifier_set.provenance}#val"),
    )


@dataclass(frozen=True)
class Partition:
    """All concrete splits of one partitioning run plus the manifest."""

    manifest: DatasetManifest
    embedding_train: Corpus
    classifier_train: Corpus
    classifier_val: Corpus


def build_partition(
    corpus: Corpus,
    cwe: str,
    seed: int,
    mode: str = MODE_NONE,
    declared_steps: DeclaredSteps | None = None,
    train_fraction: float = 0.80,
) -> Partition:
    """Run the full partitioning pipeline and record it in a manifest.

    The train/val split seed is derived from `seed` independently of `mode`,
    so paired runs share classifier membership exactly.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    classifier_set, pool = split_by_cwe(corpus, cwe)
    pool_initial = len(pool)

    dropped: frozenset[str] = frozenset()
    if mode == MODE_SNOOP:
        embedding_train, dropped = inject_embedding_snooping(
            pool, classifier_set, seed=derive_seed(seed, "embedding-drop")
        )
    else:
        embedding_train = pool

    train, val = train_val_split(
        classifier_set, train_fraction=train_fraction, seed=derive_seed(seed, "train-val-split")
    )

    if declared_steps is None:
        filter_rules = ()
        if corpus.max_tokens is not None:
            filter_rules = (f"token_length<={corpus.max_tokens}",)
        declared_steps = DeclaredSteps(filter_rules=filter_rules)

    n_vuln = sum(1 for f in classifier_set if f.label == LABEL_VULNERABLE)
    manifest = DatasetManifest(
        embedding_train_ids=frozenset(embedding_train.ids()),
        classifier_train_ids=frozenset(train.ids()),
        classifier_val_ids=frozenset(val.ids()),
        seed=seed,
        snooping_mode=mode,
        declared_steps=declared_steps,
        counts={
            "embedding_pool_initial": pool_initial,
            "embedding_post_drop": pool_initial - len(dropped),
            "embedding_train_final": len(embedding_train),
            "classifier_total": len(classifier_set),
            "classifier_vulnerable": n_vuln,
            "classifier_clean": len(classifier_set) - n_vuln,
            "classifier_train": len(train),
            "classifier_val": len(val),
        },
        dropped_embedding_ids=dropped,
    )
    return apply_manifest(corpus, manifest)


def apply_manifest(corpus: Corpus, manifest: DatasetManifest) -> Partition:
    """Rebuild a manifest's splits from the corpus, each in corpus order.

    The embedding split lists pool functions before classifier functions, as
    `inject_embedding_snooping` does: word2vec trains in input order, so every
    entry point must list it the same way. Ids missing from the corpus raise
    ManifestInvalidError.
    """
    manifest.validate()
    emb_ids, clf_ids = manifest.embedding_train_ids, manifest.classifier_ids()
    missing = (emb_ids | clf_ids) - corpus.ids()
    if missing:
        raise ManifestInvalidError(
            f"manifest references {len(missing)} ids that are not in corpus {corpus.provenance}"
        )

    def pick(*id_sets: frozenset[str]) -> Corpus:
        return replace(corpus, functions=tuple(f for ids in id_sets for f in corpus if f.id in ids))

    return Partition(
        manifest,
        pick(emb_ids - clf_ids, emb_ids & clf_ids),
        pick(manifest.classifier_train_ids),
        pick(manifest.classifier_val_ids),
    )


# ---------------------------------------------------------------------------
# Manifest I/O (canonical JSON: sorted id arrays, sorted keys)
# ---------------------------------------------------------------------------

def manifest_to_json(manifest: DatasetManifest) -> str:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "rng_algorithm": manifest.rng_algorithm,
        "seed": manifest.seed,
        "snooping_mode": manifest.snooping_mode,
        "embedding_train_ids": sorted(manifest.embedding_train_ids),
        "classifier_train_ids": sorted(manifest.classifier_train_ids),
        "classifier_val_ids": sorted(manifest.classifier_val_ids),
        "dropped_embedding_ids": sorted(manifest.dropped_embedding_ids),
        "declared_steps": {
            **asdict(manifest.declared_steps),
            "filter_rules": list(manifest.declared_steps.filter_rules),
        },
        "counts": dict(sorted(manifest.counts.items())),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def manifest_from_json(text: str) -> DatasetManifest:
    doc = json.loads(text)
    steps_doc = dict(doc["declared_steps"])
    steps_doc["filter_rules"] = tuple(steps_doc.get("filter_rules", ()))
    manifest = DatasetManifest(
        embedding_train_ids=frozenset(doc["embedding_train_ids"]),
        classifier_train_ids=frozenset(doc["classifier_train_ids"]),
        classifier_val_ids=frozenset(doc["classifier_val_ids"]),
        seed=doc["seed"],
        snooping_mode=doc["snooping_mode"],
        declared_steps=DeclaredSteps(**steps_doc),
        counts=dict(doc["counts"]),
        dropped_embedding_ids=frozenset(doc.get("dropped_embedding_ids", ())),
        rng_algorithm=doc.get("rng_algorithm", RNG_ALGORITHM),
    )
    manifest.validate()
    return manifest


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    manifest.validate()
    Path(path).write_text(manifest_to_json(manifest), encoding="utf-8")


def read_manifest(path: str | Path) -> DatasetManifest:
    return manifest_from_json(Path(path).read_text(encoding="utf-8"))
