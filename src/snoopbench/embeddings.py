"""Static token embeddings: CBOW and Skip-Gram with negative sampling.

Both variants minimize the usual negative-sampling objective per positive
(center, context) pair with k negatives drawn from the unigram distribution
raised to 0.75:

    loss = -log s(u_pos . v) - sum_k log s(-u_neg_k . v)

where v is the center's input vector for Skip-Gram and the mean of the
context input vectors for CBOW. Gradients for all pairs of one sentence
are applied in a single vectorized scatter step; negatives colliding with
their positive target are redrawn. A seeded 2% sample of positions is held
out of training and re-evaluated with fixed negatives every `log_every`
updates, giving the training log a step-indexed validation-loss column.

Externally computed embeddings (static token vectors or frozen per-sample
contextual sequences) are importable through the text formats documented on
`import_external`, and behave downstream exactly like native models.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmbeddingConfigError, EmbeddingFormatError, VocabLookupError
from .seeding import make_rng
from .tokenizer import RESERVED_IDS, Vocabulary

KIND_CBOW = "cbow"
KIND_SKIPGRAM = "skipgram"
KIND_EXTERNAL_STATIC = "external_static"
KIND_EXTERNAL_CONTEXTUAL = "external_contextual"

NATIVE_KINDS = (KIND_CBOW, KIND_SKIPGRAM)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass(frozen=True)
class Word2VecConfig:
    kind: str
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_rate: float = 0.025
    final_rate_fraction: float = 1e-4
    heldout_fraction: float = 0.02
    log_every: int = 1000
    grad_clip: float = 5.0  # cap on each row's aggregated gradient norm
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in NATIVE_KINDS:
            raise EmbeddingConfigError(f"kind must be one of {NATIVE_KINDS}")
        if self.dim <= 0:
            raise EmbeddingConfigError("dim must be positive")
        if self.window <= 0:
            raise EmbeddingConfigError("window must be positive")
        if self.negatives < 1:
            raise EmbeddingConfigError("negatives must be at least 1")
        if self.epochs < 1:
            raise EmbeddingConfigError("epochs must be at least 1")
        if self.initial_rate <= 0:
            raise EmbeddingConfigError("initial_rate must be positive")
        if self.grad_clip <= 0:
            raise EmbeddingConfigError("grad_clip must be positive")


@dataclass
class EmbeddingModel:
    """Token vectors (native / external static) or per-sample sequences.

    input_vectors has one row per vocabulary id including the two reserved
    ids, so row i serves token id i directly. The contextual kind carries no
    token matrix at all; it resolves sample ids to T x dim matrices.
    """

    kind: str
    dim: int
    vocab_ref: str
    tokens: tuple[str, ...] = ()
    input_vectors: np.ndarray | None = None
    output_vectors: np.ndarray | None = None
    training_log: tuple[dict, ...] = ()
    sample_map: dict[str, np.ndarray] | None = None
    _token_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._token_index and self.tokens:
            self._token_index = {t: i + RESERVED_IDS for i, t in enumerate(self.tokens)}

    def token_id(self, token: str) -> int:
        tid = self._token_index.get(token)
        if tid is None:
            raise VocabLookupError(f"token not in embedding vocabulary: {token!r}")
        return tid

    def vector(self, token: str) -> np.ndarray:
        if self.input_vectors is None:
            raise VocabLookupError(f"{self.kind} model has no token vectors")
        return self.input_vectors[self.token_id(token)]

    def sequence(self, sample_id: str) -> np.ndarray:
        if self.sample_map is None:
            raise VocabLookupError(f"{self.kind} model has no per-sample sequences")
        seq = self.sample_map.get(sample_id)
        if seq is None:
            raise VocabLookupError(f"sample id not in contextual model: {sample_id}")
        return seq


# ---------------------------------------------------------------------------
# Shared objective
# ---------------------------------------------------------------------------

def pair_loss_and_grad(
    v: np.ndarray, U: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-sampling loss and gradients for one input-side vector.

    v: (dim,) input-side vector; U: (rows, dim) output-side vectors;
    labels: (rows,) 1.0 for positives and 0.0 for negatives. Returns
    (loss, dloss/dv, dloss/dU). This is the exact function the training
    loop applies, which is what the finite-difference check exercises.
    """
    s = U @ v
    loss = float(np.logaddexp(0.0, np.where(labels > 0.5, -s, s)).sum())
    e = sigmoid(s) - labels
    return loss, e @ U, np.outer(e, v)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _NegativeTable:
    """Cumulative unigram^0.75 sampler over real token ids."""

    def __init__(self, vocab: Vocabulary):
        counts = np.array([vocab.counts[t] for t in vocab.tokens], dtype=np.float64)
        if counts.size < 2:
            raise EmbeddingConfigError(
                "need at least 2 vocabulary tokens for negative sampling"
            )
        weights = counts ** 0.75
        self.cum = np.cumsum(weights)
        self.cum /= self.cum[-1]

    def draw(self, rng: np.random.Generator, shape, forbidden: np.ndarray | None = None) -> np.ndarray:
        negs = np.searchsorted(self.cum, rng.random(shape), side="right") + RESERVED_IDS
        if forbidden is not None:
            # redraw collisions with the positive target, bounded attempts
            for _ in range(16):
                bad = negs == forbidden
                n_bad = int(bad.sum())
                if n_bad == 0:
                    break
                negs[bad] = (
                    np.searchsorted(self.cum, rng.random(n_bad), side="right")
                    + RESERVED_IDS
                )
        return negs


def _context_window(seq: np.ndarray, pos: int, window: int) -> np.ndarray:
    lo = max(0, pos - window)
    ctx = np.concatenate([seq[lo:pos], seq[pos + 1 : pos + 1 + window]])
    return ctx[ctx >= RESERVED_IDS]


def _apply_gradients(
    W: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float, clip: float
) -> None:
    """W[rows] -= lr * grads with duplicate rows aggregated.

    Equivalent to descending via np.add.at but an order of magnitude
    faster: sort rows, sum duplicate runs with reduceat, then one
    fancy-index update on unique rows. Each aggregated row gradient is
    norm-clipped at `clip`, which bounds the step on degenerate corpora
    where one step concentrates hundreds of pairs onto a single token.
    Deterministic (stable sort fixes the summation order).
    """
    order = np.argsort(rows, kind="stable")
    r = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    agg = np.add.reduceat(grads[order], starts, axis=0)
    norms = np.sqrt((agg * agg).sum(axis=1))
    np.multiply(agg, np.minimum(1.0, clip / np.maximum(norms, 1e-30))[:, None], out=agg)
    W[r[starts]] -= W.dtype.type(lr) * agg


def _has_any_pair(sequences: list[np.ndarray], window: int) -> bool:
    for seq in sequences:
        eligible = np.flatnonzero(seq >= RESERVED_IDS)
        if eligible.size >= 2 and int(np.diff(eligible).min()) <= window:
            return True
    return False


def train_word2vec(
    encoded_sequences: Sequence[Sequence[int]],
    vocab: Vocabulary,
    config: Word2VecConfig,
) -> EmbeddingModel:
    """Train token vectors on encoded sequences. Deterministic per seed."""
    config.validate()
    sequences = [np.asarray(s, dtype=np.int64) for s in encoded_sequences if len(s) > 0]
    if not sequences:
        raise EmbeddingConfigError("empty corpus: nothing to train on")
    if not _has_any_pair(sequences, config.window):
        raise EmbeddingConfigError(
            "no valid (center, context) pairs in corpus; need at least two "
            "in-vocabulary tokens within one window"
        )
    table = _NegativeTable(vocab)

    V = vocab.size_with_reserved
    init_rng = make_rng(config.seed, "w2v-init")
    train_rng = make_rng(config.seed, "w2v-train")
    probe_rng = make_rng(config.seed, "w2v-probe")

    W_in = ((init_rng.random((V, config.dim)) - 0.5) / config.dim).astype(np.float32)
    W_in[:RESERVED_IDS] = 0.0  # pad and UNK are never trained; a .vec file carries neither
    W_out = np.zeros((V, config.dim), dtype=np.float32)

    probe_masks = [probe_rng.random(len(s)) < config.heldout_fraction for s in sequences]
    probes = _ProbeSet(sequences, probe_masks, table, probe_rng, config)

    # pair structure is identical every epoch; build it once
    structures: list[tuple[np.ndarray, np.ndarray, np.ndarray, int] | None] = []
    for seq, mask in zip(sequences, probe_masks):
        centers_list: list[int] = []
        ctx_parts: list[np.ndarray] = []
        for pos in range(len(seq)):
            center = int(seq[pos])
            if center < RESERVED_IDS or mask[pos]:
                continue
            ctx = _context_window(seq, pos, config.window)
            if ctx.size == 0:
                continue
            centers_list.append(center)
            ctx_parts.append(ctx)
        if not centers_list:
            structures.append(None)
            continue
        counts = np.array([c.size for c in ctx_parts])
        structures.append(
            (np.asarray(centers_list), np.concatenate(ctx_parts), counts, len(seq))
        )

    total_positions = sum(len(s) for s in sequences) * config.epochs
    lr0 = config.initial_rate
    lr_floor = config.final_rate_fraction
    clip = config.grad_clip
    k = config.negatives
    dim = config.dim
    is_cbow = config.kind == KIND_CBOW

    log: list[dict] = []
    processed = 0
    updates = 0
    loss_acc = 0.0
    pairs_acc = 0
    next_log = config.log_every

    # Gradients for all positions of one sentence are applied in a single
    # scatter step; the per-pair objective is unchanged (a sentence step
    # equals the sum of per-pair gradients at the same weights).
    for _epoch in range(config.epochs):
        for seq, struct in zip(sequences, structures):
            lr = lr0 * max(lr_floor, 1.0 - (processed / total_positions) * (1.0 - lr_floor))
            processed += len(seq)
            if struct is None:
                continue
            centers, ctx_flat, counts, _n = struct

            if is_cbow:
                # one positive (context mean, center) per position
                offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
                vbar = (
                    np.add.reduceat(W_in[ctx_flat], offsets, axis=0)
                    / counts[:, None].astype(np.float32)
                )
                negs = table.draw(
                    train_rng,
                    (centers.size, k),
                    forbidden=np.repeat(centers, k).reshape(-1, k),
                )
                u_pos = W_out[centers]
                u_neg = W_out[negs]
                s_pos = (vbar * u_pos).sum(axis=1)
                s_neg = np.einsum("pd,pkd->pk", vbar, u_neg)
                e_pos = sigmoid(s_pos) - np.float32(1.0)
                e_neg = sigmoid(s_neg)
                g_vbar = e_pos[:, None] * u_pos + np.einsum("pk,pkd->pd", e_neg, u_neg)
                g_ctx = np.repeat(g_vbar / counts[:, None].astype(np.float32), counts, axis=0)
                _apply_gradients(W_in, ctx_flat, g_ctx, lr, clip)
                out_rows = np.concatenate([centers, negs.ravel()])
                g_out = np.concatenate(
                    [
                        e_pos[:, None] * vbar,
                        (e_neg[:, :, None] * vbar[:, None, :]).reshape(-1, dim),
                    ]
                )
                _apply_gradients(W_out, out_rows, g_out, lr, clip)
                pairs_new = centers.size
            else:
                # one positive per (center, context) pair
                pair_center = np.repeat(centers, counts)
                negs = table.draw(
                    train_rng,
                    (ctx_flat.size, k),
                    forbidden=np.repeat(ctx_flat, k).reshape(-1, k),
                )
                v = W_in[pair_center]
                u_pos = W_out[ctx_flat]
                u_neg = W_out[negs]
                s_pos = (v * u_pos).sum(axis=1)
                s_neg = np.einsum("qd,qkd->qk", v, u_neg)
                e_pos = sigmoid(s_pos) - np.float32(1.0)
                e_neg = sigmoid(s_neg)
                g_center = e_pos[:, None] * u_pos + np.einsum("qk,qkd->qd", e_neg, u_neg)
                _apply_gradients(W_in, pair_center, g_center, lr, clip)
                out_rows = np.concatenate([ctx_flat, negs.ravel()])
                g_out = np.concatenate(
                    [
                        e_pos[:, None] * v,
                        (e_neg[:, :, None] * v[:, None, :]).reshape(-1, dim),
                    ]
                )
                _apply_gradients(W_out, out_rows, g_out, lr, clip)
                pairs_new = ctx_flat.size

            loss_acc += float(
                np.logaddexp(0.0, -s_pos.astype(np.float64)).sum()
                + np.logaddexp(0.0, s_neg.astype(np.float64)).sum()
            )
            pairs_acc += pairs_new
            updates += 1
            if updates >= next_log:
                log.append(_log_entry(updates, loss_acc, pairs_acc, probes, W_in, W_out))
                loss_acc = 0.0
                pairs_acc = 0
                next_log += config.log_every

    if updates == 0:
        raise EmbeddingConfigError("no valid (center, context) pairs in corpus")
    if pairs_acc:
        log.append(_log_entry(updates, loss_acc, pairs_acc, probes, W_in, W_out))

    if not (np.isfinite(W_in).all() and np.isfinite(W_out).all()):
        raise EmbeddingConfigError(
            "training diverged to non-finite vectors; lower initial_rate"
        )
    return EmbeddingModel(
        kind=config.kind,
        dim=config.dim,
        vocab_ref=vocab.identity_hash(),
        tokens=vocab.tokens,
        input_vectors=W_in,
        output_vectors=W_out,
        training_log=tuple(log),
    )


class _ProbeSet:
    """Held-out positions with fixed negatives, evaluated vectorized."""

    def __init__(self, sequences, probe_masks, table, probe_rng, config):
        self.is_cbow = config.kind == KIND_CBOW
        k = config.negatives
        centers: list[int] = []
        ctx_parts: list[np.ndarray] = []
        for seq, mask in zip(sequences, probe_masks):
            for pos in np.flatnonzero(mask):
                center = int(seq[pos])
                if center < RESERVED_IDS:
                    continue
                ctx = _context_window(seq, int(pos), config.window)
                if ctx.size == 0:
                    continue
                centers.append(center)
                ctx_parts.append(ctx)
        self.n_positions = len(centers)
        if not centers:
            return
        if self.is_cbow:
            self.centers = np.asarray(centers)
            self.ctx_flat = np.concatenate(ctx_parts)
            counts = np.array([c.size for c in ctx_parts])
            self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
            self.counts = counts.astype(np.float64)
            self.negs = table.draw(
                probe_rng,
                (self.n_positions, k),
                forbidden=np.repeat(self.centers, k).reshape(-1, k),
            )
            self.n_pairs = self.n_positions
        else:
            # one row per positive (center, context) pair
            self.pair_center = np.concatenate(
                [np.full(c.size, ctr) for ctr, c in zip(centers, ctx_parts)]
            )
            self.pair_ctx = np.concatenate(ctx_parts)
            q = self.pair_center.size
            self.negs = table.draw(
                probe_rng, (q, k), forbidden=np.repeat(self.pair_ctx, k).reshape(-1, k)
            )
            self.n_pairs = q

    def loss(self, W_in: np.ndarray, W_out: np.ndarray) -> float | None:
        """Mean per-positive-pair loss; None when no probes were drawn."""
        if self.n_positions == 0:
            return None
        if self.is_cbow:
            sums = np.add.reduceat(W_in[self.ctx_flat], self.offsets, axis=0)
            vbar = sums / self.counts[:, None]
            s_pos = (vbar * W_out[self.centers]).sum(axis=1)
            s_neg = np.einsum("pd,pkd->pk", vbar, W_out[self.negs])
        else:
            v = W_in[self.pair_center]
            s_pos = (v * W_out[self.pair_ctx]).sum(axis=1)
            s_neg = np.einsum("pd,pkd->pk", v, W_out[self.negs])
        total = (
            np.logaddexp(0.0, -s_pos.astype(np.float64)).sum()
            + np.logaddexp(0.0, s_neg.astype(np.float64)).sum()
        )
        return float(total) / self.n_pairs


def _log_entry(step, loss_acc, pairs_acc, probes: _ProbeSet, W_in, W_out) -> dict:
    return {
        "step": step,
        "train_loss": loss_acc / max(pairs_acc, 1),
        "heldout_loss": probes.loss(W_in, W_out),
    }


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def nearest(model: EmbeddingModel, token: str, k: int) -> list[str]:
    """k tokens by descending cosine to `token`, ties by id, query excluded."""
    if model.input_vectors is None:
        raise VocabLookupError(f"{model.kind} model has no token vectors")
    if k <= 0:
        return []
    qid = model.token_id(token)
    rows = model.input_vectors[RESERVED_IDS:]
    q = model.input_vectors[qid]
    qn = np.linalg.norm(q)
    norms = np.linalg.norm(rows, axis=1)
    denom = np.where(norms * qn == 0.0, 1.0, norms * qn)
    cos = (rows @ q) / denom
    order = sorted(range(len(model.tokens)), key=lambda i: (-cos[i], i))
    out = [model.tokens[i] for i in order if i + RESERVED_IDS != qid]
    return out[:k]


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def gradient_check(
    kind: str,
    vocab_size: int = 50,
    dim: int = 16,
    n_context: int = 4,
    negatives: int = 5,
    seed: int = 0,
    h: float = 1e-6,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks both vector sides of the exact objective the trainer applies,
    in double precision. For CBOW the input side is every context vector
    (each receiving grad_vbar / m); for Skip-Gram it is the center vector.
    """
    if kind not in NATIVE_KINDS:
        raise EmbeddingConfigError(f"kind must be one of {NATIVE_KINDS}")
    rng = make_rng(seed, "w2v-gradcheck")
    W_in = rng.normal(0.0, 0.5, size=(vocab_size, dim))
    W_out = rng.normal(0.0, 0.5, size=(vocab_size, dim))
    ids = rng.choice(vocab_size, size=1 + n_context + negatives, replace=False)
    center, ctx, negs = int(ids[0]), ids[1 : 1 + n_context], ids[1 + n_context :]

    if kind == KIND_CBOW:
        rows = np.concatenate([[center], negs])
        labels = np.zeros(rows.size)
        labels[0] = 1.0
        in_rows = ctx

        def loss_fn() -> float:
            v = W_in[in_rows].mean(axis=0)
            return pair_loss_and_grad(v, W_out[rows], labels)[0]

        v0 = W_in[in_rows].mean(axis=0)
        _, g_v, g_U = pair_loss_and_grad(v0, W_out[rows], labels)
        analytic_in = np.tile(g_v / len(in_rows), (len(in_rows), 1))
    else:
        rows = np.concatenate([ctx, negs])
        labels = np.zeros(rows.size)
        labels[: ctx.size] = 1.0
        in_rows = np.array([center])

        def loss_fn() -> float:
            return pair_loss_and_grad(W_in[center], W_out[rows], labels)[0]

        _, g_v, g_U = pair_loss_and_grad(W_in[center], W_out[rows], labels)
        analytic_in = g_v[None, :]

    max_err = 0.0
    for r, row in enumerate(in_rows):
        for j in range(dim):
            max_err = max(
                max_err,
                _rel_err(analytic_in[r, j], _central_diff(W_in, (row, j), loss_fn, h)),
            )
    for r, row in enumerate(rows):
        for j in range(dim):
            max_err = max(
                max_err,
                _rel_err(g_U[r, j], _central_diff(W_out, (row, j), loss_fn, h)),
            )
    return max_err


def _central_diff(arr: np.ndarray, idx, loss_fn, h: float) -> float:
    orig = arr[idx]
    arr[idx] = orig + h
    hi = loss_fn()
    arr[idx] = orig - h
    lo = loss_fn()
    arr[idx] = orig
    return (hi - lo) / (2 * h)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a) + abs(n), 1e-6)


# ---------------------------------------------------------------------------
# External import/export
# ---------------------------------------------------------------------------

def import_external(path: str | Path, kind: str) -> EmbeddingModel:
    """Load externally computed embeddings.

    Static format: line 1 `|V| dim`, then `token v1 ... vdim` per line.
    Contextual format: one JSON object per line, {"sample_id": ..., "rows":
    [[...], ...]}. Dimension mismatches raise EmbeddingFormatError.
    """
    if kind in ("static", KIND_EXTERNAL_STATIC):
        return _import_static(Path(path))
    if kind in ("contextual", KIND_EXTERNAL_CONTEXTUAL):
        return _import_contextual(Path(path))
    raise EmbeddingFormatError(f"unknown external kind: {kind!r}")


def _import_static(path: Path) -> EmbeddingModel:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError(f"{path}: header must be '|V| dim', got {lines[0]!r}")
    n, dim = int(header[0]), int(header[1])
    if len(lines) - 1 < n:
        raise EmbeddingFormatError(f"{path}: header promises {n} rows, found {len(lines) - 1}")
    tokens: list[str] = []
    vectors = np.zeros((n + RESERVED_IDS, dim))
    for i, line in enumerate(lines[1 : n + 1]):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(
                f"{path}: row {i} has {len(parts) - 1} values, expected dim={dim}"
            )
        tokens.append(parts[0])
        vectors[i + RESERVED_IDS] = [float(x) for x in parts[1:]]
    vocab_ref = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    return EmbeddingModel(
        kind=KIND_EXTERNAL_STATIC,
        dim=dim,
        vocab_ref=vocab_ref,
        tokens=tuple(tokens),
        input_vectors=vectors,
    )


def _import_contextual(path: Path) -> EmbeddingModel:
    sample_map: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            sid = rec["sample_id"]
            if sid in sample_map:
                raise EmbeddingFormatError(f"{path}:{lineno}: duplicate sample_id {sid}")
            rows = np.asarray(rec["rows"], dtype=np.float64)
            if rows.ndim != 2:
                raise EmbeddingFormatError(f"{path}:{lineno}: rows must be a T x dim matrix")
            if dim is None:
                dim = rows.shape[1]
            elif rows.shape[1] != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: dim {rows.shape[1]} != {dim} of earlier rows"
                )
            sample_map[sid] = rows
    if dim is None:
        raise EmbeddingFormatError(f"{path}: no records")
    vocab_ref = hashlib.sha256(
        "\n".join(sorted(sample_map)).encode("utf-8")
    ).hexdigest()
    return EmbeddingModel(
        kind=KIND_EXTERNAL_CONTEXTUAL,
        dim=dim,
        vocab_ref=vocab_ref,
        sample_map=sample_map,
    )


def export_external(model: EmbeddingModel, path: str | Path) -> None:
    """Write a model back out in its import format (byte-stable round trip)."""
    path = Path(path)
    if model.kind == KIND_EXTERNAL_CONTEXTUAL:
        with path.open("w", encoding="utf-8") as fh:
            for sid, rows in model.sample_map.items():
                fh.write(
                    json.dumps({"sample_id": sid, "rows": rows.tolist()}) + "\n"
                )
        return
    if model.input_vectors is None:
        raise EmbeddingFormatError(f"{model.kind} model has no token vectors to export")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(model.tokens)} {model.dim}\n")
        for i, token in enumerate(model.tokens):
            row = model.input_vectors[i + RESERVED_IDS]
            fh.write(token + " " + " ".join(repr(float(x)) for x in row) + "\n")
