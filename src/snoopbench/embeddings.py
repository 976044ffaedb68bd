"""Static token embeddings: CBOW and Skip-Gram with negative sampling.

Both kinds train one objective on one kind of example: a group of input
(W_in) rows, averaged into v, scored against one positive output (W_out)
row and k negatives drawn from the unigram distribution raised to 0.75:

    loss = -log s(u_pos . v) - sum_k log s(-u_neg_k . v)

For Skip-Gram the group is a center token and the positive one of its
context tokens; for CBOW the group is the context window and the positive
its center. One vectorized builder finds a sentence's context windows
(`_windows`); the kind matters only where its examples are made from them
(`_examples`); and `batch_loss_and_grad` scores them for the training step,
the held-out loss and `gradient_check` alike. Each sentence is one update,
its gradients applied in a single vectorized scatter step; negatives
colliding with their positive target are redrawn. A seeded 2% sample of positions is
held out of training and re-evaluated with fixed negatives every
`log_every` updates, giving the training log a step-indexed
validation-loss column.

Externally computed embeddings (static token vectors or frozen per-sample
contextual sequences) are importable through the text formats documented on
`import_external`, and behave downstream exactly like native models.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmbeddingConfigError, EmbeddingFormatError, VocabLookupError
from .seeding import make_rng
from .tokenizer import RESERVED_IDS, Vocabulary

KIND_CBOW = "cbow"
KIND_SKIPGRAM = "skipgram"
KIND_EXTERNAL_STATIC = "external_static"
KIND_EXTERNAL_CONTEXTUAL = "external_contextual"

NATIVE_KINDS = (KIND_CBOW, KIND_SKIPGRAM)

PROBE_SENTENCES = 256  # sentences per batch of the held-out loss


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
# Objective
# ---------------------------------------------------------------------------

class Examples(NamedTuple):
    """Training examples: groups of W_in rows, each averaged into one input
    vector and scored against one positive W_out row.

    inputs: the W_in rows of every group, flat, group after group.
    counts: rows per group, or None when every group is a single row.
    targets: the positive W_out row of each group.
    """

    inputs: np.ndarray
    counts: np.ndarray | None
    targets: np.ndarray


def batch_loss_and_grad(
    W_in: np.ndarray, W_out: np.ndarray, ex: Examples, negs: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Negative-sampling loss terms and gradients of a batch of examples.

    negs: (examples, k) negative W_out rows. Returns (the float64 loss terms
    of the positives (examples,) and of the negatives (examples, k), one
    input-side gradient per entry of ex.inputs, the W_out rows scored
    (targets, then negs row-major), one gradient per such row). Training,
    the held-out loss and `gradient_check` all evaluate the objective
    through this function.
    """
    if ex.counts is None:
        v = W_in[ex.inputs]
    else:
        offsets = np.concatenate([[0], np.cumsum(ex.counts)[:-1]])
        scale = ex.counts[:, None].astype(W_in.dtype)
        v = np.add.reduceat(W_in[ex.inputs], offsets, axis=0) / scale
    n, k = negs.shape
    out_rows = np.concatenate([ex.targets, negs.ravel()])
    U = W_out[out_rows]
    u_pos, u_neg = U[:n], U[n:].reshape(n, k, -1)
    s_pos = (v * u_pos).sum(axis=1)
    s_neg = np.einsum("pd,pkd->pk", v, u_neg)
    terms = (
        np.logaddexp(0.0, -s_pos.astype(np.float64)),
        np.logaddexp(0.0, s_neg.astype(np.float64)),
    )
    e_pos = sigmoid(s_pos) - 1.0
    e_neg = sigmoid(s_neg)
    g_v = e_pos[:, None] * u_pos + np.einsum("pk,pkd->pd", e_neg, u_neg)
    g_in = g_v if ex.counts is None else np.repeat(g_v / scale, ex.counts, axis=0)
    # U's rows are overwritten by their own gradients: a second array of
    # U's size, allocated and faulted in on every step, cost more than the
    # arithmetic (2.2 vs 0.85 ms for 740 examples at dim 100)
    np.multiply(e_pos[:, None], v, out=u_pos)
    np.multiply(e_neg[:, :, None], v[:, None, :], out=u_neg)
    return terms, g_in, out_rows, U


def _total(terms: tuple[np.ndarray, np.ndarray]) -> float:
    """The loss of a batch: its positive terms, then its negative terms, summed."""
    return float(terms[0].sum() + terms[1].sum())


def pair_loss_and_grad(
    v: np.ndarray, U: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-pair reference: the loss and gradients of one input-side vector.

    v: (dim,) input-side vector; U: (rows, dim) output-side vectors;
    labels: (rows,) 1.0 for positives and 0.0 for negatives. Returns
    (loss, dloss/dv, dloss/dU). The trainer runs `batch_loss_and_grad`;
    tests hold it to the sum of this function over each example's pairs.
    """
    s = U @ v
    loss = float(np.logaddexp(0.0, np.where(labels > 0.5, -s, s)).sum())
    e = sigmoid(s) - labels
    return loss, e @ U, np.outer(e, v)


def _concat(parts: Sequence[Examples]) -> Examples:
    """The examples of `parts`, in order, as one batch."""
    return Examples(*(None if col[0] is None else np.concatenate(col) for col in zip(*parts)))


def _windows(
    seq: np.ndarray, centers_ok: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, their contexts flat, context count per center) of `seq`.

    Centers are the real tokens at the positions `centers_ok` allows. A
    center's context is the up to `window` tokens on its left, then those
    on its right, pad and UNK skipped; a center without one is left out.
    """
    pos = np.flatnonzero(centers_ok & (seq >= RESERVED_IDS))
    idx = pos[:, None] + np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    inside = (idx >= 0) & (idx < seq.size)
    ctx = seq[np.where(inside, idx, 0)]
    is_ctx = inside & (ctx >= RESERVED_IDS)
    counts = is_ctx.sum(axis=1)
    return seq[pos[counts > 0]], ctx[is_ctx], counts[counts > 0]


def _examples(is_cbow: bool, centers: np.ndarray, ctx: np.ndarray, counts: np.ndarray) -> Examples:
    """The examples of one set of windows. Skip-Gram makes one per (center,
    context) pair, with the center as its group; CBOW one per center, with
    its context as the group."""
    if is_cbow:
        return Examples(ctx, counts, centers)
    return Examples(np.repeat(centers, counts), None, ctx)


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

    def draw(self, rng: np.random.Generator, targets: np.ndarray, k: int) -> np.ndarray:
        """(targets, k) negatives; one equal to its target is redrawn, in
        bounded attempts."""
        negs = np.searchsorted(self.cum, rng.random((targets.size, k)), side="right")
        negs += RESERVED_IDS
        for _ in range(16):
            bad = negs == targets[:, None]
            n_bad = int(bad.sum())
            if n_bad == 0:
                break
            negs[bad] = (
                np.searchsorted(self.cum, rng.random(n_bad), side="right") + RESERVED_IDS
            )
        return negs


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
    is_cbow = config.kind == KIND_CBOW
    probe_rng = make_rng(config.seed, "w2v-probe")
    probe_masks = [probe_rng.random(len(s)) < config.heldout_fraction for s in sequences]
    # one update per sentence; its windows are the same every epoch
    windows = [_windows(seq, ~mask, config.window) for seq, mask in zip(sequences, probe_masks)]
    total_updates = sum(centers.size > 0 for centers, _, _ in windows) * config.epochs
    if total_updates == 0:
        raise EmbeddingConfigError(
            "no (center, context) pairs to train on; need at least two "
            "in-vocabulary tokens within one window"
        )
    table = _NegativeTable(vocab)
    # The held-out positions are scored in batches of sentences: one batch of
    # them all would hold examples x (k+1) x dim floats at once, ~70 MB for
    # the desk corpus at dim 100. Their loss terms are summed as one array.
    held = [
        _examples(is_cbow, *_windows(seq, mask, config.window))
        for seq, mask in zip(sequences, probe_masks)
    ]
    # A batch without a held-out position is dropped: it has nothing to score.
    probe = [_concat(held[i : i + PROBE_SENTENCES]) for i in range(0, len(held), PROBE_SENTENCES)]
    probe = [ex for ex in probe if ex.targets.size]
    probe_sizes = [ex.targets.size for ex in probe]
    probe_negs = np.split(
        table.draw(probe_rng, _concat(probe).targets, config.negatives),
        np.cumsum(probe_sizes)[:-1],
    ) if probe else []

    V = vocab.size_with_reserved
    init_rng = make_rng(config.seed, "w2v-init")
    train_rng = make_rng(config.seed, "w2v-train")
    W_in = ((init_rng.random((V, config.dim)) - 0.5) / config.dim).astype(np.float32)
    W_in[:RESERVED_IDS] = 0.0  # pad and UNK are never trained; a .vec file carries neither
    W_out = np.zeros((V, config.dim), dtype=np.float32)

    total_positions = sum(len(s) for s in sequences) * config.epochs
    lr0 = config.initial_rate
    lr_floor = config.final_rate_fraction
    log: list[dict] = []
    processed = 0
    updates = 0
    loss_acc = 0.0
    pairs_acc = 0
    for _epoch in range(config.epochs):
        for seq, window in zip(sequences, windows):
            lr = lr0 * max(lr_floor, 1.0 - (processed / total_positions) * (1.0 - lr_floor))
            processed += len(seq)
            if window[0].size == 0:
                continue
            ex = _examples(is_cbow, *window)
            negs = table.draw(train_rng, ex.targets, config.negatives)
            terms, g_in, out_rows, g_out = batch_loss_and_grad(W_in, W_out, ex, negs)
            _apply_gradients(W_in, ex.inputs, g_in, lr, config.grad_clip)
            _apply_gradients(W_out, out_rows, g_out, lr, config.grad_clip)
            loss_acc += _total(terms)
            pairs_acc += ex.targets.size
            updates += 1
            if updates % config.log_every == 0 or updates == total_updates:
                heldout = None
                if probe:
                    terms = zip(*(
                        batch_loss_and_grad(W_in, W_out, ex, negs)[0]
                        for ex, negs in zip(probe, probe_negs)
                    ))
                    heldout = _total([np.concatenate(t) for t in terms]) / sum(probe_sizes)
                log.append(
                    {"step": updates, "train_loss": loss_acc / pairs_acc, "heldout_loss": heldout}
                )
                loss_acc = 0.0
                pairs_acc = 0

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

    Builds the examples of one center among `n_context` context tokens as
    the trainer does, and checks `batch_loss_and_grad` on them in double
    precision at every W_in and W_out entry they touch. Gradients of rows
    that occur more than once are summed, as the trainer's step sums them.
    """
    if kind not in NATIVE_KINDS:
        raise EmbeddingConfigError(f"kind must be one of {NATIVE_KINDS}")
    rng = make_rng(seed, "w2v-gradcheck")
    W_in = rng.normal(0.0, 0.5, size=(vocab_size, dim))
    W_out = rng.normal(0.0, 0.5, size=(vocab_size, dim))
    ids = RESERVED_IDS + rng.choice(
        vocab_size - RESERVED_IDS, size=1 + n_context + negatives, replace=False
    )
    # the center sits among its contexts, half of them on its left
    seq = np.insert(ids[1 : 1 + n_context], n_context // 2, ids[0])
    ex = _examples(kind == KIND_CBOW, *_windows(seq, seq == ids[0], n_context))
    negs = np.tile(ids[1 + n_context :], (ex.targets.size, 1))

    def loss_fn() -> float:
        return _total(batch_loss_and_grad(W_in, W_out, ex, negs)[0])

    _, g_in, out_rows, g_out = batch_loss_and_grad(W_in, W_out, ex, negs)
    max_err = 0.0
    for W, rows, grads in ((W_in, ex.inputs, g_in), (W_out, out_rows, g_out)):
        analytic = np.zeros_like(W)
        np.add.at(analytic, rows, grads)
        for row in np.unique(rows):
            for j in range(dim):
                max_err = max(
                    max_err,
                    _rel_err(analytic[row, j], _central_diff(W, (row, j), loss_fn, h)),
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

    Static format: line 1 `|V| dim`, then exactly |V| lines `token v1 ... vdim`
    with distinct tokens (trailing blank lines ignored). Contextual format: one JSON object per line,
    {"sample_id": ..., "rows": [[...], ...]}, with distinct sample ids and one
    dim. A malformed file raises EmbeddingFormatError naming the file and line.
    """
    if kind in ("static", KIND_EXTERNAL_STATIC):
        return _import_static(Path(path))
    if kind in ("contextual", KIND_EXTERNAL_CONTEXTUAL):
        return _import_contextual(Path(path))
    raise EmbeddingFormatError(f"unknown external kind: {kind!r}")


def _import_static(path: Path) -> EmbeddingModel:
    lines = path.read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()  # trailing blank lines hold no row
    header = lines[0].split() if lines else []
    if len(header) != 2 or not all(h.isdecimal() for h in header):
        raise EmbeddingFormatError(
            f"{path}:1: header must be '|V| dim', got {lines[0] if lines else ''!r}"
        )
    n, dim = int(header[0]), int(header[1])
    blank = next((i for i, line in enumerate(lines) if not line.strip()), None)
    if blank is not None:
        raise EmbeddingFormatError(f"{path}:{blank + 1}: blank line among the rows")
    if len(lines) - 1 != n:
        raise EmbeddingFormatError(f"{path}:1: header promises {n} rows, found {len(lines) - 1}")
    index: dict[str, int] = {}
    vectors = np.zeros((n + RESERVED_IDS, dim))
    for i, line in enumerate(lines[1:]):
        token, *values = line.split(" ")
        where = f"{path}:{i + 2}: row {i}"
        if len(values) != dim:
            raise EmbeddingFormatError(f"{where} has {len(values)} values, expected dim={dim}")
        if token in index:
            raise EmbeddingFormatError(f"{where} repeats token {token!r} of row {index[token]}")
        index[token] = i
        try:
            vectors[i + RESERVED_IDS] = [float(x) for x in values]
        except ValueError as exc:
            raise EmbeddingFormatError(f"{where} has a non-numeric value: {exc}") from None
    tokens = tuple(index)
    vocab_ref = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    return EmbeddingModel(
        kind=KIND_EXTERNAL_STATIC,
        dim=dim,
        vocab_ref=vocab_ref,
        tokens=tokens,
        input_vectors=vectors,
    )


def _import_contextual(path: Path) -> EmbeddingModel:
    sample_map: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sid = rec["sample_id"]
                rows = np.asarray(rec["rows"], dtype=np.float64)
            except (ValueError, KeyError, TypeError) as exc:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: want a JSON object with sample_id and rows: {exc!r}"
                ) from None
            if sid in sample_map:
                raise EmbeddingFormatError(f"{path}:{lineno}: duplicate sample_id {sid}")
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
