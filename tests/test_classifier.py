"""LSTM classifier: architecture, gradients, training contracts, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from snoopbench.classifier import (
    ClassifierConfig,
    EncodedDataset,
    LstmClassifier,
    MetricsRecord,
    OptimizerSpec,
    bce_loss,
    compute_metrics,
    evaluate,
    gradient_check,
    load_model,
    save_model,
    select_best_epoch,
    train,
)
from snoopbench.embeddings import EmbeddingModel
from snoopbench.errors import (
    BatchAssemblyError,
    DivergenceError,
    EmptyDatasetError,
    ModelConstructionError,
    PairingError,
    VocabLookupError,
)
from snoopbench.seeding import make_rng
from snoopbench.tokenizer import Vocabulary


def tiny_embedding(n_tokens=8, dim=4, seed=0, dtype=np.float64):
    rng = make_rng(seed, "emb")
    tokens = tuple(f"t{i}" for i in range(n_tokens))
    vocab = Vocabulary.from_counts({t: n_tokens - i for i, t in enumerate(tokens)})
    vecs = rng.normal(0, 0.3, (n_tokens + 2, dim)).astype(dtype)
    vecs[0] = 0.0
    model = EmbeddingModel(
        kind="skipgram", dim=dim, vocab_ref=vocab.identity_hash(),
        tokens=vocab.tokens, input_vectors=vecs,
    )
    return model, vocab


def tiny_dataset(n=6, length=7, n_tokens=8, seed=1) -> EncodedDataset:
    rng = make_rng(seed, "data")
    seqs = [
        rng.integers(2, n_tokens + 2, size=length).astype(np.int64) for _ in range(n)
    ]
    labels = np.array([float(i % 2) for i in range(n)])
    return EncodedDataset(
        ids=tuple(f"s{seed}_{i}" for i in range(n)), sequences=seqs, labels=labels
    )


def small_config(**kw) -> ClassifierConfig:
    defaults = dict(
        optimizer=OptimizerSpec("adam", 0.01),
        hidden_size=3,
        dropout_rate=0.0,
        epochs=2,
        batch_size=4,
        seed=3,
        dtype="float64",
    )
    defaults.update(kw)
    return ClassifierConfig(**defaults)


def ragged_dataset() -> EncodedDataset:
    """Real lengths 3, 1, 5, 4, 3 in unsorted order (4 distinct, with a tie);
    rows 2 and 4 carry interior pad ids."""
    seqs = [
        [4, 2, 7],
        [5],
        [3, 0, 8, 0, 0, 2, 6, 9],
        [9, 3, 3, 2],
        [6, 0, 2, 5],
    ]
    return EncodedDataset(
        ids=tuple(f"r{i}" for i in range(len(seqs))),
        sequences=[np.asarray(s, dtype=np.int64) for s in seqs],
        labels=np.array([1.0, 0.0, 1.0, 0.0, 1.0]),
    )


def reference_logits(params: dict, ids: np.ndarray) -> np.ndarray:
    """Float64 masked LSTM, one timestep of the padded batch at a time.

    Gates are laid out [input, forget, output, candidate]; a step whose id is
    the pad id 0 carries the state through, so the last column holds each
    row's state at its own last real token.
    """
    B, T = ids.shape
    live = (ids != 0)[:, :, None]
    inputs = params["emb"].astype(np.float64)[ids]
    H = params["w_head"].shape[0]
    layer = 0
    while f"W{layer}" in params:
        W, b = params[f"W{layer}"].astype(np.float64), params[f"b{layer}"].astype(np.float64)
        d_in = inputs.shape[2]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        outputs = np.empty((B, T, H))
        for t in range(T):
            z = inputs[:, t] @ W[:d_in] + h @ W[d_in:] + b
            gate = 1.0 / (1.0 + np.exp(-z[:, : 3 * H]))
            c_new = gate[:, H : 2 * H] * c + gate[:, :H] * np.tanh(z[:, 3 * H :])
            h_new = gate[:, 2 * H :] * np.tanh(c_new)
            c = np.where(live[:, t], c_new, c)
            h = np.where(live[:, t], h_new, h)
            outputs[:, t] = h
        inputs = outputs
        layer += 1
    return h @ params["w_head"].astype(np.float64) + params["b_head"][0]


class TestConstruction:
    def test_parameter_count_closed_form(self):
        emb, vocab = tiny_embedding(n_tokens=10, dim=8)
        cfg = ClassifierConfig(optimizer=OptimizerSpec("adam", 0.001), seed=0)
        model = LstmClassifier(emb, cfg, vocab=vocab)
        expected = (
            (10 + 2) * 8                      # embedding rows incl. reserved ids
            + 4 * (8 + 128 + 1) * 128         # layer 1
            + 4 * (128 + 128 + 1) * 128       # layer 2
            + 129                             # head
        )
        assert model.num_params() == expected

    def test_contextual_with_trainable_embedding_rejected(self):
        ctx = EmbeddingModel(
            kind="external_contextual", dim=4, vocab_ref="x",
            sample_map={"s0": np.zeros((3, 4))},
        )
        cfg = small_config(embedding_trainable=True)
        with pytest.raises(ModelConstructionError, match="nothing to train"):
            LstmClassifier(ctx, cfg)

    def test_vocab_mismatch_rejected(self):
        emb, _ = tiny_embedding(n_tokens=4)
        other_vocab = Vocabulary.from_counts({"different": 1})
        with pytest.raises(ModelConstructionError, match="vocabulary"):
            LstmClassifier(emb, small_config(), vocab=other_vocab)

    def test_forget_gate_bias_opens_at_one(self):
        emb, vocab = tiny_embedding()
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        H = 3
        b = model.params["b0"]
        assert np.all(b[H : 2 * H] == 1.0)
        assert np.all(b[:H] == 0.0) and np.all(b[2 * H :] == 0.0)

    def test_zero_length_sample_rejected_at_assembly(self):
        emb, vocab = tiny_embedding()
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = EncodedDataset(
            ids=("a",), sequences=[np.array([], dtype=np.int64)], labels=np.array([1.0])
        )
        with pytest.raises(BatchAssemblyError, match="zero-length"):
            model.assemble(ds, [0])

    def test_over_cap_sample_rejected(self):
        emb, vocab = tiny_embedding()
        model = LstmClassifier(emb, small_config(max_seq_len=5), vocab=vocab)
        ds = EncodedDataset(
            ids=("a",), sequences=[np.full(6, 2, dtype=np.int64)], labels=np.array([1.0])
        )
        with pytest.raises(BatchAssemblyError, match="cap"):
            model.assemble(ds, [0])


class TestGradientCheck:
    def test_max_relative_error_below_tolerance(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = tiny_dataset(n=2, length=5)
        assert gradient_check(model, ds) < 1e-4

    def test_sign_flip_self_test_exceeds_threshold(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = tiny_dataset(n=2, length=5)
        assert gradient_check(model, ds, sign_flip=True) > 1e-1

    def test_ragged_batch_with_interior_padding(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = ragged_dataset()
        assert gradient_check(model, ds) < 1e-4
        assert gradient_check(model, ds, sign_flip=True) > 1e-1

    def test_requires_float64(self):
        emb, vocab = tiny_embedding(dtype=np.float32)
        model = LstmClassifier(emb, small_config(dtype="float32"), vocab=vocab)
        with pytest.raises(ModelConstructionError, match="float64"):
            gradient_check(model, tiny_dataset(n=2, length=4))

    def test_zero_weights_gate_symmetry(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        for name in list(model.params):
            if name != "emb":
                model.params[name] = np.zeros_like(model.params[name])
        ds = tiny_dataset(n=2, length=4)
        x, mask, _ = model.assemble(ds, [0, 1])
        labels = np.array([1.0, 1.0])  # unbalanced so the head-bias grad is nonzero
        logits, cache = model.forward(x, mask, train=False)
        from snoopbench.classifier import _loss_and_dlogits

        _, dlogits = _loss_and_dlogits(logits, labels)
        grads = model.backward(cache, dlogits)
        H = 3
        for l in range(2):
            gW = grads[f"W{l}"]
            # with all-zero weights the three logistic gate blocks carry
            # identically zero gradients
            assert np.allclose(gW[:, :H], 0.0)
            assert np.allclose(gW[:, H : 2 * H], 0.0)
            assert np.allclose(gW[:, 2 * H : 3 * H], 0.0)
        assert grads["b_head"][0] != 0.0


class TestMaskingAndDropout:
    def test_padding_invariance_bit_exact(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        seq = np.array([2, 3, 4, 5], dtype=np.int64)
        padded = np.concatenate([seq, np.zeros(5, dtype=np.int64)])
        ds = EncodedDataset(
            ids=("a", "b"), sequences=[seq, padded], labels=np.array([1.0, 1.0])
        )
        xa, ma, _ = model.assemble(ds, [0])
        xb, mb, _ = model.assemble(ds, [1])
        la, _ = model.forward(xa, ma, train=False)
        lb, _ = model.forward(xb, mb, train=False)
        assert la[0] == lb[0]

    def test_interior_padding_carries_state(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        plain = np.array([2, 3], dtype=np.int64)
        gapped = np.array([2, 0, 0, 3], dtype=np.int64)
        ds = EncodedDataset(
            ids=("a", "b"), sequences=[plain, gapped], labels=np.array([1.0, 1.0])
        )
        xa, ma, _ = model.assemble(ds, [0])
        xb, mb, _ = model.assemble(ds, [1])
        la, _ = model.forward(xa, ma, train=False)
        lb, _ = model.forward(xb, mb, train=False)
        assert la[0] == lb[0]

    def test_eval_logits_match_float64_reference(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(hidden_size=5), vocab=vocab)
        x, mask, _ = model.assemble(ragged_dataset(), range(5))
        logits, _ = model.forward(x, mask, train=False)
        want = reference_logits(model.params, x)
        assert np.max(np.abs(logits - want)) < 1e-12

    def test_dropout_draws_keep_assembled_shape_and_order(self):
        emb, vocab = tiny_embedding(dim=4)
        cfg = small_config(dropout_rate=0.3)
        model = LstmClassifier(emb, cfg, vocab=vocab)
        x, mask, _ = model.assemble(ragged_dataset(), range(5))
        model.forward(x, mask, train=True)
        fresh = make_rng(cfg.seed, "clf-dropout")
        B, T = mask.shape
        fresh.random((B, T, cfg.hidden_size))
        fresh.random((B, cfg.hidden_size))
        assert model._dropout_rng.bit_generator.state == fresh.bit_generator.state

    def test_dropout_contract(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(dropout_rate=0.5), vocab=vocab)
        ds = tiny_dataset(n=4, length=6)
        x, mask, _ = model.assemble(ds, range(4))
        t1, _ = model.forward(x, mask, train=True)
        t2, _ = model.forward(x, mask, train=True)
        assert not np.array_equal(t1, t2)
        e1, _ = model.forward(x, mask, train=False)
        e2, _ = model.forward(x, mask, train=False)
        assert np.array_equal(e1, e2)


class TestTraining:
    def test_lr_zero_leaves_weights_unchanged(self):
        emb, vocab = tiny_embedding(dim=4)
        for opt in (OptimizerSpec("sgd", 0.0, 0.9), OptimizerSpec("adam", 0.0)):
            model = LstmClassifier(emb, small_config(optimizer=opt, epochs=3), vocab=vocab)
            before = {k: v.copy() for k, v in model.params.items()}
            train(model, tiny_dataset(n=4), tiny_dataset(n=2, seed=9))
            for k in before:
                assert np.array_equal(before[k], model.params[k]), k

    def test_divergence_error_names_epoch_and_batch(self):
        # a step beyond float32 range turns weights infinite and the next
        # forward pass mixes inf signs into NaN logits
        emb, vocab = tiny_embedding(dim=4, dtype=np.float32)
        cfg = small_config(optimizer=OptimizerSpec("adam", 1e39), epochs=4, dtype="float32")
        model = LstmClassifier(emb, cfg, vocab=vocab)
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            with np.errstate(all="ignore"):
                train(model, tiny_dataset(n=8), tiny_dataset(n=2, seed=9))

    def test_train_val_overlap_rejected(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = tiny_dataset(n=4)
        with pytest.raises(PairingError, match="share"):
            train(model, ds, ds)

    def test_manifest_membership_checked(self, small_corpus):
        from snoopbench.partitioner import build_partition

        part = build_partition(small_corpus, "CWE-121", seed=1)
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        with pytest.raises(PairingError, match="manifest"):
            train(model, tiny_dataset(n=4), tiny_dataset(n=2, seed=9), manifest=part.manifest)

    def test_one_record_per_epoch(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(epochs=4), vocab=vocab)
        records = train(model, tiny_dataset(n=4), tiny_dataset(n=2, seed=9))
        assert [r.epoch for r in records] == [1, 2, 3, 4]

    def test_contextual_model_trains(self):
        rng = make_rng(4, "ctx")
        sample_map = {f"s{i}": rng.normal(size=(5, 4)) for i in range(6)}
        ctx = EmbeddingModel(
            kind="external_contextual", dim=4, vocab_ref="x", sample_map=sample_map
        )
        cfg = small_config(embedding_trainable=False, epochs=2)
        model = LstmClassifier(ctx, cfg)
        ds = EncodedDataset(
            ids=tuple(f"s{i}" for i in range(4)),
            sequences=[np.zeros(1, dtype=np.int64)] * 4,
            labels=np.array([0.0, 1.0, 0.0, 1.0]),
        )
        val = EncodedDataset(
            ids=("s4", "s5"),
            sequences=[np.zeros(1, dtype=np.int64)] * 2,
            labels=np.array([0.0, 1.0]),
        )
        records = train(model, ds, val)
        assert len(records) == 2

    def test_contextual_unknown_sample_resolution_error(self):
        ctx = EmbeddingModel(
            kind="external_contextual", dim=4, vocab_ref="x",
            sample_map={"s0": np.zeros((2, 4))},
        )
        model = LstmClassifier(ctx, small_config(embedding_trainable=False))
        ds = EncodedDataset(
            ids=("ghost",), sequences=[np.zeros(1, dtype=np.int64)], labels=np.array([1.0])
        )
        with pytest.raises(VocabLookupError, match="ghost"):
            model.assemble(ds, [0])


class TestMetrics:
    def test_perfect_predictor(self):
        labels = np.array([1.0] * 5 + [0.0] * 5)
        probs = np.where(labels > 0.5, 0.9, 0.1)
        r = compute_metrics(probs, labels)
        assert r.accuracy == 1.0 and r.f1 == 1.0

    def test_fixed_confusion_arithmetic(self):
        # (TP,FP,FN,TN)=(3,1,2,4): acc 0.7, prec 0.75, rec 0.6, f1 2/3
        probs = np.array([0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        labels = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0.0])
        r = compute_metrics(probs, labels)
        assert r.confusion == (3, 1, 2, 4)
        assert r.accuracy == pytest.approx(0.7)
        assert r.precision == pytest.approx(0.75)
        assert r.recall == pytest.approx(0.6)
        assert r.f1 == pytest.approx(2 / 3)

    def test_200_random_sets_match_counting_oracle(self):
        rng = make_rng(77, "metrics")
        for _ in range(200):
            n = int(rng.integers(1, 40))
            probs = rng.random(n)
            labels = (rng.random(n) < 0.5).astype(np.float64)
            threshold = float(rng.random())
            r = compute_metrics(probs, labels, threshold=threshold)
            tp = fp = fn = tn = 0
            for p, y in zip(probs, labels):
                pred = p >= threshold
                if pred and y == 1.0:
                    tp += 1
                elif pred and y == 0.0:
                    fp += 1
                elif not pred and y == 1.0:
                    fn += 1
                else:
                    tn += 1
            assert r.confusion == (tp, fp, fn, tn)
            assert r.accuracy == (tp + tn) / n
            assert r.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert r.recall == (tp / (tp + fn) if tp + fn else 0.0)
            pr = r.precision + r.recall
            assert r.f1 == (2 * r.precision * r.recall / pr if pr else 0.0)

    def test_zero_denominator_conventions(self):
        r = compute_metrics(np.array([0.1, 0.2]), np.array([0.0, 0.0]))
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        r2 = compute_metrics(np.array([0.1]), np.array([1.0]))
        assert r2.recall == 0.0 and r2.precision == 0.0 and r2.f1 == 0.0

    def test_loss_finite_on_clamped_domain(self):
        assert np.isfinite(bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])))


class TestEvaluate:
    def test_deterministic_pure_function(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(dropout_rate=0.3), vocab=vocab)
        ds = tiny_dataset(n=5)
        r1 = evaluate(model, ds)
        r2 = evaluate(model, ds)
        assert r1 == r2

    def test_empty_dataset_errors(self):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        empty = EncodedDataset(ids=(), sequences=[], labels=np.array([]))
        with pytest.raises(EmptyDatasetError):
            evaluate(model, empty)


def _rec(epoch, f1, loss=0.5) -> MetricsRecord:
    return MetricsRecord(epoch=epoch, loss=loss, accuracy=f1, precision=f1,
                         recall=f1, f1=f1, confusion=(1, 0, 0, 1))


class TestBestEpoch:
    def test_max_f1_then_loss_then_epoch(self):
        records = [_rec(1, 0.8), _rec(2, 0.9, loss=0.4), _rec(3, 0.9, loss=0.3), _rec(4, 0.9, loss=0.3)]
        assert select_best_epoch(records).epoch == 3

    def test_invariant_under_appending_strictly_worse(self):
        records = [_rec(1, 0.7), _rec(2, 0.95, loss=0.2)]
        best = select_best_epoch(records)
        extended = records + [_rec(3, 0.6), _rec(4, 0.5, loss=0.9)]
        assert select_best_epoch(extended) == best


class TestPersistence:
    def test_save_load_round_trip_predictions(self, tmp_path):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds = tiny_dataset(n=5)
        train(model, ds, tiny_dataset(n=2, seed=9))
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.predict_proba(ds), model.predict_proba(ds))
        assert back.vocab_ref == model.vocab_ref

    def test_loaded_model_keeps_training_like_the_original(self, tmp_path):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        ds, val = tiny_dataset(n=5), tiny_dataset(n=2, seed=9)
        train(model, ds, val)
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        # no dropout, and train() starts a fresh optimizer and shuffle stream
        assert train(back, ds, val) == train(model, ds, val)
        for name, value in model.params.items():
            assert np.array_equal(back.params[name], value), name

    def test_shape_validation_on_load(self, tmp_path):
        emb, vocab = tiny_embedding(dim=4)
        model = LstmClassifier(emb, small_config(), vocab=vocab)
        path = tmp_path / "model.npz"
        save_model(model, path)
        import json

        import numpy as np_

        data = dict(np_.load(path, allow_pickle=False))
        meta = json.loads(str(data["__meta__"]))
        meta["config"]["hidden_size"] = 64  # contradicts stored tensors
        data["__meta__"] = np_.array(json.dumps(meta))
        np_.savez(path, **data)
        with pytest.raises(ModelConstructionError, match="shape"):
            load_model(path)
