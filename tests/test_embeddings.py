"""word2vec training, gradients, queries, and external import/export."""

from __future__ import annotations

import re

import numpy as np
import pytest

from snoopbench import embeddings as emb
from snoopbench.embeddings import (
    EmbeddingModel,
    Word2VecConfig,
    _examples,
    _NegativeTable,
    _windows,
    batch_loss_and_grad,
    export_external,
    gradient_check,
    import_external,
    nearest,
    pair_loss_and_grad,
    sigmoid,
    train_word2vec,
)
from snoopbench.errors import (
    EmbeddingConfigError,
    EmbeddingFormatError,
    VocabLookupError,
)
from snoopbench.seeding import make_rng
from snoopbench.tokenizer import RESERVED_IDS, build_vocab, encode


def _cos(model: EmbeddingModel, a: str, b: str) -> float:
    va, vb = model.vector(a), model.vector(b)
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb) + 1e-12))


class TestGradients:
    def test_cbow_matches_finite_differences(self):
        assert gradient_check("cbow", vocab_size=50) < 1e-4

    def test_skipgram_matches_finite_differences(self):
        assert gradient_check("skipgram", vocab_size=50) < 1e-4

    @pytest.mark.parametrize("kind", ["skipgram", "cbow"])
    def test_gradient_check_catches_a_wrong_input_gradient(self, kind, monkeypatch):
        """gradient_check runs the trainer's objective: an input-side gradient
        off by 1% there is caught."""
        real = emb.batch_loss_and_grad

        def off_by_one_percent(*args):
            terms, g_in, out_rows, g_out = real(*args)
            return terms, 1.01 * g_in, out_rows, g_out

        monkeypatch.setattr(emb, "batch_loss_and_grad", off_by_one_percent)
        assert gradient_check(kind, vocab_size=50) > 1e-4

    @pytest.mark.parametrize("kind", ["skipgram", "cbow"])
    def test_batch_equals_sum_of_per_pair_reference(self, kind):
        """One sentence's examples, built with pad and UNK inside the windows,
        score and differentiate like the per-pair reference summed over them."""
        rng = make_rng(4, "batch-ref")
        V, dim, k, window = 10, 5, 3, 2
        W_in = rng.normal(0.0, 0.5, size=(V, dim))
        W_out = rng.normal(0.0, 0.5, size=(V, dim))
        seq = np.array([2, 0, 3, 4, 1, 5, 6, 3, 7, 1, 1, 1, 8])
        ex = _examples(kind == "cbow", *_windows(seq, np.ones(seq.size, dtype=bool), window))
        reference = _reference_examples(kind, list(seq), window)
        sizes = np.ones(ex.targets.size, dtype=int) if ex.counts is None else ex.counts
        groups = np.split(ex.inputs, np.cumsum(sizes)[:-1])
        assert [(list(g), t) for g, t in zip(groups, ex.targets)] == reference

        negs = rng.integers(RESERVED_IDS, V, size=(ex.targets.size, k))
        (pos, neg), g_in, out_rows, g_out = batch_loss_and_grad(W_in, W_out, ex, negs)
        got_in, got_out = np.zeros_like(W_in), np.zeros_like(W_out)
        np.add.at(got_in, ex.inputs, g_in)
        np.add.at(got_out, out_rows, g_out)
        ref_loss, ref_in, ref_out = [], np.zeros_like(W_in), np.zeros_like(W_out)
        for (group, target), neg_row in zip(reference, negs):
            rows = np.concatenate([[target], neg_row])
            labels = np.zeros(rows.size)
            labels[0] = 1.0
            l, g_v, g_U = pair_loss_and_grad(W_in[group].mean(axis=0), W_out[rows], labels)
            ref_loss.append(l)
            np.add.at(ref_in, group, g_v / len(group))
            np.add.at(ref_out, rows, g_U)
        np.testing.assert_allclose(pos + neg.sum(axis=1), ref_loss, rtol=1e-12)
        np.testing.assert_allclose(got_in, ref_in, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got_out, ref_out, rtol=1e-10, atol=1e-12)

    def test_pair_loss_matches_manual_formula(self):
        rng = make_rng(0, "pl")
        v = rng.normal(size=6)
        U = rng.normal(size=(3, 6))
        labels = np.array([1.0, 0.0, 0.0])
        loss, g_v, g_U = pair_loss_and_grad(v, U, labels)
        s = U @ v
        manual = -np.log(sigmoid(s[0])) - np.log(sigmoid(-s[1])) - np.log(sigmoid(-s[2]))
        assert loss == pytest.approx(manual, rel=1e-12)


class TestConfigErrors:
    def test_bad_dimensions(self):
        for bad in (
            dict(dim=0),
            dict(window=0),
            dict(negatives=0),
            dict(epochs=0),
            dict(initial_rate=0.0),
        ):
            with pytest.raises(EmbeddingConfigError):
                Word2VecConfig(kind="cbow", **bad).validate()

    def test_empty_corpus(self):
        vocab = build_vocab([["a", "b"]])
        with pytest.raises(EmbeddingConfigError, match="empty"):
            train_word2vec([], vocab, Word2VecConfig(kind="skipgram"))

    def test_single_token_corpus_has_no_pairs(self):
        vocab = build_vocab([["only", "only"], ["pad", "pad"]])
        # each sentence holds one lone in-vocab token: no center/context pairs
        with pytest.raises(EmbeddingConfigError, match="pairs"):
            train_word2vec([[2], [3]], vocab, Word2VecConfig(kind="skipgram", window=5))


def _reference_examples(kind, seq, window):
    """(group rows, positive row) per example, by a plain loop over positions."""
    out = []
    for pos, center in enumerate(seq):
        if center < RESERVED_IDS:
            continue
        lo = max(0, pos - window)
        ctx = [c for c in seq[lo:pos] + seq[pos + 1 : pos + 1 + window] if c >= RESERVED_IDS]
        if kind == "cbow":
            out += [(ctx, center)] if ctx else []
        else:
            out += [([center], c) for c in ctx]
    return out


def reference_sgns(encoded, vocab, dim, window, k, epochs, lr, seed):
    """Small reference implementation of the same objective.

    Plain per-pair loop, its own rng stream; used to confirm the
    co-occurrence behavior rather than bit equality.
    """
    rng = make_rng(seed, "reference-sgns")
    V = vocab.size_with_reserved
    W_in = (rng.random((V, dim)) - 0.5) / dim
    W_out = np.zeros((V, dim))
    counts = np.array([vocab.counts[t] for t in vocab.tokens], dtype=np.float64) ** 0.75
    cum = np.cumsum(counts)
    cum /= cum[-1]
    for _ in range(epochs):
        for seq in encoded:
            for pos, center in enumerate(seq):
                if center < RESERVED_IDS:
                    continue
                lo = max(0, pos - window)
                for ctx in list(seq[lo:pos]) + list(seq[pos + 1 : pos + 1 + window]):
                    if ctx < RESERVED_IDS:
                        continue
                    rows = [ctx]
                    while len(rows) < k + 1:
                        neg = int(np.searchsorted(cum, rng.random(), side="right")) + RESERVED_IDS
                        if neg != ctx:
                            rows.append(neg)
                    labels = np.zeros(k + 1)
                    labels[0] = 1.0
                    _, g_v, g_U = pair_loss_and_grad(W_in[center], W_out[rows], labels)
                    W_in[center] -= lr * g_v
                    for r, row in enumerate(rows):
                        W_out[row] -= lr * g_U[r]
    return W_in


class TestTrainingBehavior:
    def test_exclusive_cooccurrence_high_cosine(self):
        # tokens that only ever co-occur with each other, alternating corpus
        sents = [["A", "B"] * 30 for _ in range(40)]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        cfg = Word2VecConfig(kind="skipgram", dim=32, window=2, epochs=20, seed=7)
        model = train_word2vec(encoded, vocab, cfg)
        assert _cos(model, "A", "B") > 0.9
        # the reference implementation of the same objective agrees
        W_ref = reference_sgns(encoded[:6], vocab, dim=32, window=2, k=5,
                               epochs=20, lr=0.025, seed=3)
        ids = vocab.index
        ra, rb = W_ref[ids["A"]], W_ref[ids["B"]]
        cos_ref = float(ra @ rb / (np.linalg.norm(ra) * np.linalg.norm(rb)))
        assert cos_ref > 0.9

    @pytest.mark.parametrize("kind", ["skipgram", "cbow"])
    def test_identical_context_distribution_property(self, kind):
        rng = make_rng(0, "t2")
        fillers = [f"w{i}" for i in range(20)]
        sents = [["C", "A" if i % 2 == 0 else "B", "D"] for i in range(200)]
        sents += [
            [fillers[int(rng.integers(0, 20))] for _ in range(10)] for _ in range(200)
        ]
        order = rng.permutation(len(sents))
        sents = [sents[i] for i in order]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        model = train_word2vec(
            encoded, vocab, Word2VecConfig(kind=kind, dim=24, window=2, epochs=8, seed=7)
        )
        cos_ab = _cos(model, "A", "B")
        others = [t for t in vocab.tokens if t not in ("A", "B", "C", "D")]
        median_other = float(np.median([_cos(model, "A", t) for t in others]))
        assert cos_ab >= 0.7
        assert cos_ab > median_other

    def test_determinism_bit_for_bit(self):
        sents = [["x", "y", "z", "x"] for _ in range(30)]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        cfg = Word2VecConfig(kind="cbow", dim=12, epochs=3, seed=5)
        m1 = train_word2vec(encoded, vocab, cfg)
        m2 = train_word2vec(encoded, vocab, cfg)
        assert np.array_equal(m1.input_vectors, m2.input_vectors)
        assert np.array_equal(m1.output_vectors, m2.output_vectors)
        assert m1.training_log == m2.training_log

    def test_heldout_loss_declines_first_to_last_quarter(self):
        rng = make_rng(2, "decl")
        toks = [f"t{i}" for i in range(30)]
        sents = [
            [toks[int(rng.integers(0, 30))] for _ in range(25)] for _ in range(300)
        ]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        cfg = Word2VecConfig(kind="skipgram", dim=24, epochs=4, seed=1, log_every=60)
        model = train_word2vec(encoded, vocab, cfg)
        losses = [e["heldout_loss"] for e in model.training_log]
        assert len(losses) >= 8
        q = len(losses) // 4
        assert np.mean(losses[-q:]) < np.mean(losses[:q])

    def test_log_has_train_and_heldout_columns(self):
        sents = [["x", "y"] * 6 for _ in range(20)]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        model = train_word2vec(
            encoded, vocab, Word2VecConfig(kind="skipgram", dim=8, epochs=1, seed=0, log_every=5)
        )
        assert model.training_log
        for entry in model.training_log:
            assert set(entry) == {"step", "train_loss", "heldout_loss"}
            assert np.isfinite(entry["train_loss"])

    @pytest.mark.parametrize("kind", ["skipgram", "cbow"])
    def test_heldout_batch_without_positions_is_skipped(self, kind):
        """The held-out loss is scored per batch of PROBE_SENTENCES sentences;
        a last batch of one single-token sentence holds no held-out example."""
        rng = make_rng(3, "probe-batches")
        sents = [[f"t{int(rng.integers(0, 12))}" for _ in range(8)] for _ in range(emb.PROBE_SENTENCES)]
        sents.append(["t0"])
        vocab = build_vocab(sents)
        cfg = Word2VecConfig(kind=kind, dim=8, epochs=1, seed=0, log_every=100)
        model = train_word2vec([encode(s, vocab) for s in sents], vocab, cfg)
        assert all(np.isfinite(e["heldout_loss"]) for e in model.training_log)

    def test_rows_finite_one_per_token(self):
        sents = [["a", "b", "c"] for _ in range(10)]
        vocab = build_vocab(sents)
        model = train_word2vec(
            [encode(s, vocab) for s in sents], vocab, Word2VecConfig(kind="cbow", dim=8, seed=0)
        )
        assert model.input_vectors.shape == (len(vocab) + RESERVED_IDS, 8)
        assert np.isfinite(model.input_vectors).all()
        assert np.isfinite(model.output_vectors).all()

    @pytest.mark.parametrize("kind", ["skipgram", "cbow"])
    def test_first_step_equals_sum_of_per_pair_gradients(self, kind):
        """The sentence-batched update must be the sum of per-pair
        gradients at the initial weights (clip inactive)."""
        sents = [["a", "b", "c", "d"]]
        vocab = build_vocab(sents)
        encoded = [encode(s, vocab) for s in sents]
        cfg = Word2VecConfig(
            kind=kind, dim=6, window=1, negatives=2, epochs=1,
            heldout_fraction=0.0, seed=13,
        )
        model = train_word2vec(encoded, vocab, cfg)

        # replay initialization and negative draws with the same streams
        V = vocab.size_with_reserved
        init_rng = make_rng(cfg.seed, "w2v-init")
        W_in = ((init_rng.random((V, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
        W_in[:RESERVED_IDS] = 0.0  # pad and UNK rows start at zero
        W_out = np.zeros((V, cfg.dim), dtype=np.float32)
        table = _NegativeTable(vocab)
        train_rng = make_rng(cfg.seed, "w2v-train")
        examples = _reference_examples(kind, encoded[0], cfg.window)
        negs = table.draw(train_rng, np.array([t for _, t in examples]), cfg.negatives)
        dW_in = np.zeros_like(W_in, dtype=np.float64)
        dW_out = np.zeros_like(W_out, dtype=np.float64)
        for (group, target), neg_row in zip(examples, negs):
            rows = np.concatenate([[target], neg_row])
            labels = np.zeros(rows.size)
            labels[0] = 1.0
            _, g_v, g_U = pair_loss_and_grad(
                W_in[group].astype(np.float64).mean(axis=0),
                W_out[rows].astype(np.float64), labels,
            )
            np.add.at(dW_in, group, g_v / len(group))
            np.add.at(dW_out, rows, g_U)
        lr = cfg.initial_rate  # first sentence trains at the initial rate
        expect_in = W_in - (lr * dW_in).astype(np.float32)
        expect_out = W_out - (lr * dW_out).astype(np.float32)
        np.testing.assert_allclose(model.input_vectors, expect_in, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(model.output_vectors, expect_out, rtol=1e-5, atol=1e-7)


class TestNearest:
    def _hand_model(self):
        vecs = np.zeros((5, 2))
        vecs[2] = [1.0, 0.0]   # q
        vecs[3] = [0.8, 0.6]   # near (cos 0.8)
        vecs[4] = [0.0, 1.0]   # far (cos 0.0)
        return EmbeddingModel(
            kind="skipgram", dim=2, vocab_ref="h", tokens=("q", "near", "far"),
            input_vectors=vecs,
        )

    def test_k_zero_empty(self):
        assert nearest(self._hand_model(), "q", 0) == []

    def test_order_matches_manual_cosines(self):
        # manual: cos(q,near)=0.8, cos(q,far)=0.0
        assert nearest(self._hand_model(), "q", 2) == ["near", "far"]

    def test_duplicate_of_query_not_self_excluded(self):
        vecs = np.zeros((5, 2))
        vecs[2] = [1.0, 0.0]
        vecs[3] = [1.0, 0.0]  # duplicate row of the query token
        vecs[4] = [0.0, 1.0]
        model = EmbeddingModel(
            kind="skipgram", dim=2, vocab_ref="h", tokens=("q", "twin", "far"),
            input_vectors=vecs,
        )
        got = nearest(model, "q", 3)
        assert got[0] == "twin"
        assert "q" not in got

    def test_unknown_token_errors(self):
        with pytest.raises(VocabLookupError):
            nearest(self._hand_model(), "nope", 1)

    def test_tie_broken_by_token_id(self):
        vecs = np.zeros((6, 2))
        vecs[2] = [1.0, 0.0]
        vecs[3] = [2.0, 0.0]  # same direction as row 4
        vecs[4] = [3.0, 0.0]
        vecs[5] = [0.0, 1.0]
        model = EmbeddingModel(
            kind="skipgram", dim=2, vocab_ref="h", tokens=("q", "b1", "b2", "other"),
            input_vectors=vecs,
        )
        assert nearest(model, "q", 3) == ["b1", "b2", "other"]


class TestExternalStatic:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "v.vec"
        lines = ["5 8"]
        for i in range(5):
            lines.append(f"tok{i} " + " ".join(repr(float(j + i)) for j in range(8)))
        path.write_text("\n".join(lines) + "\n")
        model = import_external(path, "static")
        assert model.kind == "external_static"
        assert len(model.tokens) == 5 and model.dim == 8
        assert model.input_vectors.shape == (7, 8)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 1.0 2.0\n")
        with pytest.raises(EmbeddingFormatError, match="row 1"):
            import_external(path, "static")

    def test_reexport_byte_identical(self, tmp_path):
        sents = [["a", "b", "c"] for _ in range(10)]
        vocab = build_vocab(sents)
        native = train_word2vec(
            [encode(s, vocab) for s in sents], vocab, Word2VecConfig(kind="skipgram", dim=5, seed=2)
        )
        p1 = tmp_path / "m.vec"
        export_external(native, p1)
        imported = import_external(p1, "static")
        p2 = tmp_path / "m2.vec"
        export_external(imported, p2)
        assert p2.read_bytes() == p1.read_bytes()


class TestExternalContextual:
    def _write(self, tmp_path, records):
        import json

        path = tmp_path / "ctx.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_three_samples_retrievable(self, tmp_path):
        recs = [
            {"sample_id": f"s{i}", "rows": [[float(i), 1.0], [2.0, 3.0]]} for i in range(3)
        ]
        model = import_external(self._write(tmp_path, recs), "contextual")
        assert model.kind == "external_contextual"
        assert model.input_vectors is None
        for i in range(3):
            assert model.sequence(f"s{i}").shape == (2, 2)

    def test_unknown_sample_id_errors_at_use(self, tmp_path):
        model = import_external(
            self._write(tmp_path, [{"sample_id": "s0", "rows": [[1.0]]}]), "contextual"
        )
        with pytest.raises(VocabLookupError, match="missing"):
            model.sequence("missing")

    def test_duplicate_sample_id_rejected(self, tmp_path):
        recs = [{"sample_id": "s0", "rows": [[1.0]]}] * 2
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            import_external(self._write(tmp_path, recs), "contextual")

    def test_dim_mismatch_rejected(self, tmp_path):
        recs = [
            {"sample_id": "s0", "rows": [[1.0, 2.0]]},
            {"sample_id": "s1", "rows": [[1.0]]},
        ]
        with pytest.raises(EmbeddingFormatError, match="dim"):
            import_external(self._write(tmp_path, recs), "contextual")

    def test_reexport_byte_identical(self, tmp_path):
        recs = [
            {"sample_id": "s0", "rows": [[0.25, -1.5], [3.125, 0.1]]},
            {"sample_id": "s1", "rows": [[1.0, 2.0]]},
        ]
        p1 = self._write(tmp_path, recs)
        model = import_external(p1, "contextual")
        p2 = tmp_path / "out.jsonl"
        export_external(model, p2)
        assert p2.read_bytes() == p1.read_bytes()


def test_static_file_ending_in_blank_lines_loads(tmp_path):
    path = tmp_path / "ok.vec"
    path.write_text("1 2\nx 1.0 2.0\n\n\n")
    assert import_external(path, "static").tokens == ("x",)


@pytest.mark.parametrize("kind, text, where", [
    ("static", "a 2\nx 1.0 2.0\n", ":1: header must be"),
    ("static", "1 2\nx 1.0 two\n", ":2: row 0 has a non-numeric value"),
    ("static", "2 2\nx 1.0 2.0\nx 3.0 4.0\n", ":3: row 1 repeats token 'x'"),
    ("static", "1 2\nx 1.0 2.0\ny 3.0 4.0\n", ":1: header promises 1 rows, found 2"),
    ("static", "2 2\nx 1.0 2.0\n\ny 3.0 4.0\n", ":3: blank line among the rows"),
    ("contextual", '{"sample_id": "s0", "rows": [[1.0]]}\n{"sample_id": "x"\n', ":2: want"),
    ("contextual", '{"sample_id": "s0"}\n', ":1: want"),
])
def test_malformed_external_file_names_file_and_line(tmp_path, kind, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(EmbeddingFormatError, match=re.escape("bad.txt" + where)):
        import_external(path, kind)
