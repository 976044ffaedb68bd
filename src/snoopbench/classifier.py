"""Two-layer LSTM binary classifier over embedded token sequences.

Forward, backward, and the optimizers are written out explicitly so the
gradient path is checkable against central finite differences. The cell is
the standard LSTM with logistic input/forget/output gates and tanh
candidate.

Batches are assembled right-padded in sample order, and a mask marks the
real tokens. The LSTM then runs packed and time-major: inside `forward`
the batch's rows are sorted by real length, longest first, so step t works
on one contiguous block of the rows still running and no padded slot is
ever computed. A pad id inside a stored sequence is a skipped step, the
same as trailing padding, so the final state sits at each sample's last
real token and adding pad ids cannot change a logit. Logits come back in
batch order.

Dropout is inverted (scale 1/keep) and active only in training: one mask
per element on every timestep of a layer's output feeding the next layer,
and one on the final state feeding the head. The masks are drawn in the
assembled (batch, time) shape, so packing does not change the draws.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import (
    KIND_EXTERNAL_CONTEXTUAL,
    KIND_EXTERNAL_STATIC,
    EmbeddingModel,
    sigmoid,
)
from .errors import (
    BatchAssemblyError,
    DivergenceError,
    EmptyDatasetError,
    ModelConstructionError,
    PairingError,
    VocabLookupError,
)
from .ir_corpus import LABEL_CLEAN, LABEL_VULNERABLE, Corpus
from .seeding import make_rng
from .tokenizer import Vocabulary, encode, tokenize

MODEL_FORMAT_VERSION = 1

_P_CLAMP = 1e-7


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str  # "sgd" or "adam"
    lr: float
    momentum: float = 0.0

    def label(self) -> str:
        if self.kind == "sgd":
            return f"sgd_lr{self.lr:g}_mom{self.momentum:g}"
        return f"adam_lr{self.lr:g}"

    def validate(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be sgd or adam, got {self.kind!r}")
        # lr = 0 is allowed: it must be a null update, not an error
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if self.momentum < 0:
            raise ValueError("momentum must be non-negative")


@dataclass(frozen=True)
class ClassifierConfig:
    optimizer: OptimizerSpec
    hidden_size: int = 128
    num_lstm_layers: int = 2
    dropout_rate: float = 0.20
    epochs: int = 50
    batch_size: int = 32
    max_seq_len: int = 2048
    embedding_trainable: bool = True
    threshold: float = 0.5
    seed: int = 0
    dtype: str = "float32"

    def validate(self) -> None:
        self.optimizer.validate()
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.hidden_size < 1 or self.num_lstm_layers < 1:
            raise ValueError("hidden_size and num_lstm_layers must be positive")
        if self.batch_size < 1 or self.epochs < 1 or self.max_seq_len < 1:
            raise ValueError("batch_size, epochs, max_seq_len must be positive")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: tuple[int, int, int, int]  # (TP, FP, FN, TN)

    def to_dict(self) -> dict:
        tp, fp, fn, tn = self.confusion
        return {
            "epoch": self.epoch,
            "loss": self.loss,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsRecord":
        c = d["confusion"]
        return cls(
            epoch=d["epoch"],
            loss=d["loss"],
            accuracy=d["accuracy"],
            precision=d["precision"],
            recall=d["recall"],
            f1=d["f1"],
            confusion=(c["tp"], c["fp"], c["fn"], c["tn"]),
        )


def compute_metrics(
    probs: np.ndarray, labels: np.ndarray, threshold: float = 0.5, epoch: int = 0, loss: float = 0.0
) -> MetricsRecord:
    """Confusion counts from predicted = (p >= threshold), zero-safe ratios."""
    pred = probs >= threshold
    actual = labels >= 0.5
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsRecord(
        epoch=epoch,
        loss=loss,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=(tp, fp, fn, tn),
    )


def select_best_epoch(records: Sequence[MetricsRecord]) -> MetricsRecord:
    """Max validation F1, ties by lower loss, then lower epoch index."""
    if not records:
        raise EmptyDatasetError("no epoch records to select from")
    return min(records, key=lambda r: (-r.f1, r.loss, r.epoch))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class EncodedDataset:
    ids: tuple[str, ...]
    sequences: list[np.ndarray]
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_corpus(cls, corpus: Corpus, vocab: Vocabulary) -> "EncodedDataset":
        ids: list[str] = []
        seqs: list[np.ndarray] = []
        labels: list[float] = []
        for f in corpus:
            if f.label == LABEL_VULNERABLE:
                y = 1.0
            elif f.label == LABEL_CLEAN:
                y = 0.0
            else:
                raise ValueError(f"unlabeled sample in classifier dataset: {f.id}")
            ids.append(f.id)
            seqs.append(np.asarray(encode(tokenize(f.normalized_text), vocab), dtype=np.int64))
            labels.append(y)
        return cls(ids=tuple(ids), sequences=seqs, labels=np.asarray(labels, dtype=np.float64))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Packing:
    """Time-major layout of one batch's real tokens.

    Rows are sorted longest first, so step t runs the first n_t sorted rows
    and packed rows a_t : a_t + n_t hold them; `rows` lists (a_t, n_t).
    """

    rows: list[tuple[int, int]]
    gather: np.ndarray  # (N,) flat B*T slot of each packed token
    prev: np.ndarray  # packed row one step earlier, for the rows after step 0
    live: np.ndarray  # (B,) samples with at least one real token
    final: np.ndarray  # packed row of each live sample's last step, batch order

    @property
    def n_live(self) -> int:
        """Rows of step 0, i.e. every live sample."""
        return len(self.final)


def _pack(mask: np.ndarray) -> _Packing:
    real = mask != 0
    B, T = real.shape
    lengths = real.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(B, dtype=np.intp)
    rank[order] = np.arange(B)
    n = np.count_nonzero(lengths[:, None] > np.arange(lengths.max()), axis=0)
    off = np.zeros(len(n) + 1, dtype=np.intp)
    np.cumsum(n, out=off[1:])
    r, j = np.nonzero(real)
    step = np.cumsum(real, axis=1)[r, j] - 1
    gather = np.empty(off[-1], dtype=np.intp)
    gather[off[step] + rank[r]] = r * T + j
    live = lengths > 0
    prev = np.arange(np.count_nonzero(live), off[-1]) - np.repeat(n[:-1], n[1:])
    final = off[lengths[live] - 1] + rank[live]
    return _Packing(
        rows=list(zip(off[:-1].tolist(), n.tolist())),
        gather=gather,
        prev=prev,
        live=live,
        final=final,
    )


class LstmClassifier:
    """Embedding lookup -> stacked LSTM -> dropout -> single logistic unit."""

    def __init__(
        self,
        embedding: EmbeddingModel,
        config: ClassifierConfig,
        vocab: Vocabulary | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        """`params` replaces the seeded initialisation (a loaded model); its
        shapes are checked against the config. A given `vocab` is recorded
        by its identity hash, so a model names the same vocabulary whether
        its vectors were trained in-process or imported from a file."""
        config.validate()
        self.config = config
        self.contextual = embedding.kind == KIND_EXTERNAL_CONTEXTUAL
        self.vocab_ref = vocab.identity_hash() if vocab is not None else embedding.vocab_ref
        self.dim = embedding.dim
        self.sample_map = embedding.sample_map
        self.dtype = np.dtype(config.dtype)

        if self.contextual:
            if config.embedding_trainable:
                raise ModelConstructionError(
                    "contextual embeddings are frozen per-sample sequences; "
                    "embedding_trainable=True has nothing to train"
                )
        else:
            if embedding.input_vectors is None:
                raise ModelConstructionError(f"{embedding.kind} model carries no vectors")
            if vocab is not None and embedding.tokens != vocab.tokens:
                raise ModelConstructionError(
                    "embedding vocabulary does not match the corpus vocabulary "
                    f"({len(embedding.tokens)} vs {len(vocab.tokens)} tokens)"
                )

        self.params = self._init_params(embedding) if params is None else params
        _validate_shapes(self)
        self._dropout_rng = make_rng(config.seed, "clf-dropout")

    def _init_params(self, embedding: EmbeddingModel) -> dict[str, np.ndarray]:
        H = self.config.hidden_size
        bound = 1.0 / np.sqrt(H)
        rng = make_rng(self.config.seed, "clf-init")
        params: dict[str, np.ndarray] = {}
        if not self.contextual:
            params["emb"] = embedding.input_vectors.astype(self.dtype).copy()
        d_in = self.dim
        for l in range(self.config.num_lstm_layers):
            W = rng.uniform(-bound, bound, size=(d_in + H, 4 * H)).astype(self.dtype)
            b = np.zeros(4 * H, dtype=self.dtype)
            b[H : 2 * H] = 1.0  # forget gate opens at init
            params[f"W{l}"] = W
            params[f"b{l}"] = b
            d_in = H
        params["w_head"] = rng.uniform(-bound, bound, size=H).astype(self.dtype)
        params["b_head"] = np.zeros(1, dtype=self.dtype)
        return params

    # -- plumbing ----------------------------------------------------------

    def num_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def trainable_names(self) -> list[str]:
        names = [n for n in self.params if n != "emb"]
        if not self.contextual and self.config.embedding_trainable:
            names.insert(0, "emb")
        return names

    def assemble(self, dataset: EncodedDataset, indices: Sequence[int]):
        """Right-pad one batch; returns (x, mask, labels).

        x is an int id matrix for lookup models or a float tensor for the
        contextual kind. Zero-length and over-cap samples are rejected here.
        """
        idx = list(indices)
        if not idx:
            raise BatchAssemblyError("empty batch")
        if self.contextual:
            seqs = []
            for i in idx:
                sid = dataset.ids[i]
                if self.sample_map is None or sid not in self.sample_map:
                    raise VocabLookupError(f"sample id not in contextual model: {sid}")
                seqs.append(self.sample_map[sid])
            lengths = [s.shape[0] for s in seqs]
        else:
            seqs = [dataset.sequences[i] for i in idx]
            lengths = [len(s) for s in seqs]
        for i, n in zip(idx, lengths):
            if n == 0:
                raise BatchAssemblyError(f"zero-length sample: {dataset.ids[i]}")
            if n > self.config.max_seq_len:
                raise BatchAssemblyError(
                    f"sample {dataset.ids[i]} has {n} tokens, cap is {self.config.max_seq_len}"
                )
        B, T = len(idx), max(lengths)
        if self.contextual:
            mask = np.zeros((B, T), dtype=self.dtype)
            x = np.zeros((B, T, self.dim), dtype=self.dtype)
            for r, s in enumerate(seqs):
                x[r, : s.shape[0]] = s.astype(self.dtype)
                mask[r, : s.shape[0]] = 1.0
        else:
            x = np.zeros((B, T), dtype=np.int64)
            for r, s in enumerate(seqs):
                x[r, : len(s)] = s
            # pad ids inside a stored sequence are masked too, so appending
            # padding tokens to a sample cannot change its logit
            mask = (x != 0).astype(self.dtype)
        labels = dataset.labels[idx]
        return x, mask, labels

    # -- forward / backward -------------------------------------------------

    def forward(self, x, mask, train: bool = False):
        """Returns (logits, cache), logits in batch order.

        Dropout masks are drawn only when train, in the assembled (B, T)
        shape, so the draws do not depend on the packing.
        """
        cfg = self.config
        H = cfg.hidden_size
        B, T = mask.shape
        pk = _pack(mask)
        if self.contextual:
            ids = None
            X = x.reshape(B * T, self.dim)[pk.gather]
        else:
            ids = x.reshape(B * T)[pk.gather]
            X = self.params["emb"][ids]
        dropout = train and cfg.dropout_rate > 0.0
        layer_caches = []
        drop_masks = []
        inp = X
        for l in range(cfg.num_lstm_layers):
            Hs, cache = self._lstm_forward(l, inp, pk)
            layer_caches.append(cache)
            if l < cfg.num_lstm_layers - 1:
                dm = self._dropout_mask((B, T, H), pk.gather) if dropout else None
                drop_masks.append(dm)
                inp = Hs if dm is None else Hs * dm
        final_h = np.zeros((B, H), dtype=self.dtype)
        final_h[pk.live] = Hs[pk.final]
        head_dm = self._dropout_mask((B, H)) if dropout else None
        final_dropped = final_h if head_dm is None else final_h * head_dm
        logits = final_dropped @ self.params["w_head"] + self.params["b_head"][0]
        cache = {
            "pack": pk,
            "ids": ids,
            "layers": layer_caches,
            "drop_masks": drop_masks,
            "head_dm": head_dm,
            "final_dropped": final_dropped,
        }
        return logits, cache

    def _dropout_mask(self, shape, rows=None):
        """Inverted-dropout mask from one draw of `shape`; `rows` picks rows
        of the draw with its leading axes flattened."""
        keep = 1.0 - self.config.dropout_rate
        draw = self._dropout_rng.random(shape)
        if rows is not None:
            draw = draw.reshape(-1, shape[-1])[rows]
        return (draw < keep).astype(self.dtype) / self.dtype.type(keep)

    def _lstm_forward(self, l: int, X, pk: _Packing):
        # gate layout: [input, forget, output, candidate]. sigmoid(z) =
        # (1 + tanh(z/2)) / 2, so halving the logistic gates' columns (exact)
        # lets one tanh cover all four gates.
        H = self.config.hidden_size
        N, Din = X.shape
        W = self.params[f"W{l}"]
        Wh = W[Din:]
        gates = X @ W[:Din]
        gates += self.params[f"b{l}"]
        Tc = np.empty((N, H), dtype=self.dtype)  # tanh of the cell
        Hs = np.empty((N, H), dtype=self.dtype)
        Cs = np.empty((N, H), dtype=self.dtype)
        rec = np.empty((pk.n_live, 4 * H), dtype=self.dtype)
        half = self.dtype.type(0.5)
        prev = 0
        for t, (a, n) in enumerate(pk.rows):
            z = gates[a : a + n]
            if t:
                np.matmul(Hs[prev : prev + n], Wh, out=rec[:n])
                z += rec[:n]
            z[:, : 3 * H] *= half
            np.tanh(z, out=z)
            sig = z[:, : 3 * H]
            sig *= half
            sig += half
            i = z[:, :H]
            f = z[:, H : 2 * H]
            o = z[:, 2 * H : 3 * H]
            g = z[:, 3 * H :]
            c = Cs[a : a + n]
            np.multiply(i, g, out=c)
            if t:
                c += f * Cs[prev : prev + n]
            tc = Tc[a : a + n]
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=Hs[a : a + n])
            prev = a
        return Hs, (X, gates, Tc, Hs, Cs)

    def _lstm_backward(self, l: int, cache, dHs, pk: _Packing, grads):
        """dHs is consumed in place; returns the gradient of the layer input."""
        H = self.config.hidden_size
        W = self.params[f"W{l}"]
        X, gates, Tc, Hs, Cs = cache
        N, Din = X.shape
        Wx, Wh = W[:Din], W[Din:]
        WhT = np.ascontiguousarray(Wh.T)
        dZ = np.empty((N, 4 * H), dtype=self.dtype)
        one = self.dtype.type(1.0)
        dh_next = dc_next = np.zeros((0, H), dtype=self.dtype)
        for t in range(len(pk.rows) - 1, -1, -1):
            a, n = pk.rows[t]
            rows = slice(a, a + n)
            gt = gates[rows]
            i = gt[:, :H]
            f = gt[:, H : 2 * H]
            o = gt[:, 2 * H : 3 * H]
            g = gt[:, 3 * H :]
            tc = Tc[rows]
            # rows past the next step's block end at t and get nothing back
            m = len(dh_next)
            dh = dHs[rows]
            dh[:m] += dh_next
            dcc = dh * o * (one - tc * tc)
            dcc[:m] += dc_next
            dz = dZ[rows]
            dz[:, :H] = dcc * g * i * (one - i)
            if t:
                p = pk.rows[t - 1][0]
                dz[:, H : 2 * H] = dcc * Cs[p : p + n] * f * (one - f)
            else:
                dz[:, H : 2 * H] = 0.0
            dz[:, 2 * H : 3 * H] = dh * tc * o * (one - o)
            dz[:, 3 * H :] = dcc * i * (one - g * g)
            if t:
                dh_next = dz @ WhT
                dc_next = dcc * f
        # recurrent-weight gradient in one GEMM against the previous states
        dWh = Hs[pk.prev].T @ dZ[pk.n_live :]
        dWx = X.T @ dZ
        grads[f"W{l}"] = np.concatenate([dWx, dWh], axis=0)
        grads[f"b{l}"] = dZ.sum(axis=0)
        return dZ @ Wx.T

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        cfg = self.config
        pk = cache["pack"]
        grads: dict[str, np.ndarray] = {}
        grads["w_head"] = cache["final_dropped"].T @ dlogits
        grads["b_head"] = np.array([dlogits.sum()], dtype=self.dtype)
        dfinal = np.outer(dlogits, self.params["w_head"]).astype(self.dtype)
        if cache["head_dm"] is not None:
            dfinal = dfinal * cache["head_dm"]
        dHs = np.zeros((pk.gather.shape[0], cfg.hidden_size), dtype=self.dtype)
        dHs[pk.final] = dfinal[pk.live]
        for l in range(cfg.num_lstm_layers - 1, -1, -1):
            dX = self._lstm_backward(l, cache["layers"][l], dHs, pk, grads)
            if l > 0:
                dm = cache["drop_masks"][l - 1]
                dHs = dX if dm is None else dX * dm
        if not self.contextual and cfg.embedding_trainable:
            demb = np.zeros_like(self.params["emb"])
            np.add.at(demb, cache["ids"], dX)
            grads["emb"] = demb
        return grads

    def predict_proba(self, dataset: EncodedDataset, batch_size: int | None = None) -> np.ndarray:
        if len(dataset) == 0:
            raise EmptyDatasetError("cannot evaluate an empty dataset")
        bs = batch_size or self.config.batch_size
        probs = []
        for start in range(0, len(dataset), bs):
            x, mask, _ = self.assemble(dataset, range(start, min(start + bs, len(dataset))))
            logits, _ = self.forward(x, mask, train=False)
            probs.append(sigmoid(logits.astype(np.float64)))
        return np.concatenate(probs)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with p clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(probs.astype(np.float64), _P_CLAMP, 1.0 - _P_CLAMP)
    y = labels.astype(np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def _loss_and_dlogits(logits: np.ndarray, labels: np.ndarray):
    p = sigmoid(logits.astype(np.float64))
    loss = bce_loss(p, labels)
    dlogits = ((p - labels) / len(labels)).astype(logits.dtype)
    return loss, dlogits


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class SgdMomentum:
    """Classical momentum: v <- mu*v + g; w <- w - lr*v."""

    def __init__(self, lr: float, momentum: float):
        self.lr = lr
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(g)
            v = self.momentum * v + g
            self.velocity[name] = v
            params[name] -= g.dtype.type(self.lr) * v


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            step = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            params[name] -= step.astype(g.dtype)


def make_optimizer(spec: OptimizerSpec):
    if spec.kind == "sgd":
        return SgdMomentum(spec.lr, spec.momentum)
    return Adam(spec.lr)


# ---------------------------------------------------------------------------
# Training / evaluation
# ---------------------------------------------------------------------------

def train(
    model: LstmClassifier,
    train_set: EncodedDataset,
    val_set: EncodedDataset,
    manifest=None,
) -> list[MetricsRecord]:
    """Train for config.epochs, returning one validation record per epoch.

    Raises PairingError when train/val overlap or disagree with the
    manifest's recorded membership; DivergenceError on non-finite loss.
    """
    cfg = model.config
    overlap = set(train_set.ids) & set(val_set.ids)
    if overlap:
        raise PairingError(f"train/val sets share {len(overlap)} sample ids")
    if manifest is not None:
        if set(train_set.ids) != set(manifest.classifier_train_ids):
            raise PairingError("train set does not match manifest classifier_train_ids")
        if set(val_set.ids) != set(manifest.classifier_val_ids):
            raise PairingError("val set does not match manifest classifier_val_ids")

    shuffle_rng = make_rng(cfg.seed, "clf-shuffle")
    opt = make_optimizer(cfg.optimizer)
    trainable = model.trainable_names()
    records: list[MetricsRecord] = []
    n = len(train_set)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size].tolist()
            x, mask, labels = model.assemble(train_set, idx)
            logits, cache = model.forward(x, mask, train=True)
            loss, dlogits = _loss_and_dlogits(logits, labels)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            grads = model.backward(cache, dlogits)
            opt.update(model.params, {k: grads[k] for k in trainable if k in grads})
        records.append(evaluate(model, val_set, threshold=cfg.threshold, epoch=epoch))
    return records


def evaluate(
    model: LstmClassifier,
    dataset: EncodedDataset,
    threshold: float = 0.5,
    epoch: int = 0,
) -> MetricsRecord:
    """Deterministic eval-mode metrics; pure in (weights, dataset, threshold)."""
    probs = model.predict_proba(dataset)
    loss = bce_loss(probs, dataset.labels)
    return compute_metrics(probs, dataset.labels, threshold=threshold, epoch=epoch, loss=loss)


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def gradient_check(
    model: LstmClassifier,
    batch_set: EncodedDataset,
    h: float = 1e-5,
    sign_flip: bool = False,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Dropout must be off (eval-mode forward is used) and the model must be
    float64. sign_flip negates the analytic gradients first; it is the
    harness self-test proving the check can fail.
    """
    if model.dtype != np.float64:
        raise ModelConstructionError("gradient_check requires a float64 model")
    idx = list(range(len(batch_set)))
    x, mask, labels = model.assemble(batch_set, idx)

    def loss_now() -> float:
        logits, _ = model.forward(x, mask, train=False)
        return _loss_and_dlogits(logits, labels)[0]

    logits, cache = model.forward(x, mask, train=False)
    _, dlogits = _loss_and_dlogits(logits, labels)
    grads = model.backward(cache, dlogits)
    if sign_flip:
        grads = {k: -g for k, g in grads.items()}

    max_err = 0.0
    for name in model.trainable_names():
        if name not in grads:
            continue
        p = model.params[name]
        g = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            hi = loss_now()
            p[ix] = orig - h
            lo = loss_now()
            p[ix] = orig
            numeric = (hi - lo) / (2.0 * h)
            analytic = float(g[ix])
            err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
            if err > max_err:
                max_err = err
            it.iternext()
    return max_err


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def save_model(model: LstmClassifier, path: str | Path) -> None:
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab_ref": model.vocab_ref,
        "contextual": model.contextual,
        "dim": model.dim,
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **model.params)


def load_model(path: str | Path, embedding: EmbeddingModel | None = None) -> LstmClassifier:
    """Load weights; shapes are validated against the stored config.

    `embedding` supplies the sample map of a contextual model.
    """
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["__meta__"]))
    if meta["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelConstructionError(
            f"unsupported model format version {meta['format_version']}"
        )
    config = _config_from_dict(meta["config"])
    params = {k: data[k] for k in data.files if k != "__meta__"}
    stored = EmbeddingModel(
        kind=KIND_EXTERNAL_CONTEXTUAL if meta["contextual"] else KIND_EXTERNAL_STATIC,
        dim=meta["dim"],
        vocab_ref=meta["vocab_ref"],
        input_vectors=params.get("emb"),
        sample_map=embedding.sample_map if embedding is not None else None,
    )
    return LstmClassifier(stored, config, params=params)


def _validate_shapes(model: LstmClassifier) -> None:
    cfg = model.config
    H = cfg.hidden_size
    d_in = model.dim
    for l in range(cfg.num_lstm_layers):
        want_w, want_b = (d_in + H, 4 * H), (4 * H,)
        for name, want in ((f"W{l}", want_w), (f"b{l}", want_b)):
            got = model.params.get(name)
            if got is None or got.shape != want:
                raise ModelConstructionError(
                    f"{name} has shape {None if got is None else got.shape}, expected {want}"
                )
        d_in = H
    if model.params["w_head"].shape != (H,) or model.params["b_head"].shape != (1,):
        raise ModelConstructionError("head tensor shapes do not match config")


def _config_from_dict(d: dict) -> ClassifierConfig:
    opt = OptimizerSpec(**d.pop("optimizer"))
    return ClassifierConfig(optimizer=opt, **d)
