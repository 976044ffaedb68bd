"""Independent correctness checks on the files each workload writes.

The checks read the CLI's outputs with plain `json`/`numpy` and recompute
what they must hold without the snoopbench readers: ids are re-hashed from
the text, tokens re-counted, and every trained classifier is re-run by a
float64 LSTM written here. Each `check_*` raises CheckFailed. Each
workload's check also runs a self-test that feeds every check a corrupted
copy of the real outputs and requires it to fail, so a check that can no
longer fail shows up as an incorrect run.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

# The tokenizer's documented surface form: whitespace split, with these
# punctuation characters split off as single-character tokens.
TOKEN_RE = re.compile(r"[()\[\]{},=*<>!]|[^()\[\]{},=*<>!\s]+")
RESERVED_IDS = 2  # ids 0 (pad) and 1 (unknown) precede the vocabulary
CWE = "CWE-121"
LABELED = ("vulnerable", "clean")
MODES = ("none", "embedding_test_snooping")
METRIC_FIELDS = ("loss", "accuracy", "precision", "recall", "f1")
PAPER7_LABELS = (
    "sgd_lr0.01_mom0.01", "sgd_lr0.0001_mom0.01", "sgd_lr0.0001_mom0.001",
    "sgd_lr0.0001_mom0.0001", "adam_lr0.01", "adam_lr0.001", "adam_lr0.0001",
)
# Validation samples whose reference probability lies this close to the 0.5
# threshold may land on either side in the float32 program.
THRESHOLD_TOL = 1e-3
MIN_SIGNAL_AUC = 0.9


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def must_fail(name: str, check, *args) -> None:
    """Self-test: `check` must reject the corrupted arguments."""
    try:
        check(*args)
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: {name} accepted a corrupted output")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_vec(path: Path) -> tuple[list[str], np.ndarray, int, int]:
    """(tokens, vectors, header count, header dim) of a static vector file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n, dim = (int(x) for x in lines[0].split())
    rows = [line.split(" ") for line in lines[1:]]
    vectors = np.array([[float(x) for x in r[1:]] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], vectors, n, dim


def command_output(path: Path) -> str:
    """What a CLI invocation printed after its one-line environment echo."""
    return path.read_text(encoding="utf-8").split("\n", 1)[1]


def text_by_id(records: list[dict]) -> dict[str, str]:
    return {sha256(r["normalized_text"]): r["normalized_text"] for r in records}


def classifier_ids(records: list[dict]) -> set[str]:
    return {sha256(r["normalized_text"]) for r in records
            if r["cwe"] == CWE and r["label"] in LABELED}


# ---------------------------------------------------------------------------
# grid-desk
# ---------------------------------------------------------------------------

def load_grid(corpus: Path, run: Path) -> dict:
    out = {
        "records": read_jsonl(corpus),
        "manifests": {m: read_json(run / "manifests" / f"{m}.json") for m in MODES},
        "report": read_json(run / "report.json"),
        "metrics": {}, "models": {},
        "vocab": {m: read_vec(run / "embeddings" / f"skipgram_{m}.vec")[0] for m in MODES},
    }
    for mode in MODES:
        for label in PAPER7_LABELS:
            stem = f"skipgram_{mode}_{label}"
            out["metrics"][mode, label] = read_jsonl(run / "metrics" / f"{stem}.jsonl")
            with np.load(run / "models" / f"{stem}.npz", allow_pickle=False) as npz:
                out["models"][mode, label] = {
                    k: npz[k].astype(np.float64) for k in npz.files if k != "__meta__"}
    return out


def check_ids(records: list[dict], manifests: dict) -> None:
    """Every id is sha256 of its text; every manifest id names a record."""
    for r in records:
        require(sha256(r["normalized_text"]) == r["id"],
                f"corpus record {r['source_name']} has an id that is not its content hash")
    known = set(text_by_id(records))
    for mode, doc in manifests.items():
        for key in ("embedding_train_ids", "classifier_train_ids",
                    "classifier_val_ids", "dropped_embedding_ids"):
            stray = set(doc[key]) - known
            require(not stray, f"{mode} manifest {key}: {len(stray)} ids hash no corpus text")


def check_pairing(records: list[dict], manifests: dict) -> None:
    """Segmentation, inclusion, equal sizes, shared split, floor(0.8 n) train."""
    clf = classifier_ids(records)
    pool = set(text_by_id(records)) - clf
    none, snoop = (manifests[m] for m in MODES)
    for mode, doc in manifests.items():
        split = set(doc["classifier_train_ids"]) | set(doc["classifier_val_ids"])
        require(split == clf, f"{mode}: train+val is not the {CWE} sample set")
        require(len(doc["classifier_train_ids"]) == 8 * len(clf) // 10,
                f"{mode}: |train| = {len(doc['classifier_train_ids'])}, "
                f"want floor(0.8*{len(clf)})")
    require(set(none["embedding_train_ids"]) == pool, "none: embedding set is not the pool")
    require(not set(none["embedding_train_ids"]) & clf, "none: embedding ids overlap classifier ids")
    require(clf <= set(snoop["embedding_train_ids"]), "snoop: a classifier id is missing from embedding ids")
    require(len(none["embedding_train_ids"]) == len(snoop["embedding_train_ids"]),
            "modes differ in embedding set size")
    for key in ("classifier_train_ids", "classifier_val_ids"):
        require(none[key] == snoop[key], f"modes differ in {key}")


def best_epoch(records: list[dict]) -> dict:
    return min(records, key=lambda r: (-r["f1"], r["loss"], r["epoch"]))


def check_selection(metrics: dict, report: dict, epochs: int) -> None:
    """Best-epoch rows, deltas and best models follow from the metrics files."""
    rows = report["rows"]
    require(tuple(r["config_label"] for r in rows) == PAPER7_LABELS,
            "report rows are not the paper7 configs in order")
    for row in rows:
        for mode, side in zip(MODES, ("baseline", "snooped")):
            recs = metrics[mode, row["config_label"]]
            require([r["epoch"] for r in recs] == list(range(1, epochs + 1)),
                    f"{mode} {row['config_label']}: metrics file does not hold epochs 1..{epochs}")
            require(row[side] == best_epoch(recs),
                    f"{row['config_label']}: {side} is not the best epoch of its metrics file")
        for m in METRIC_FIELDS + ("epoch",):
            require(row["deltas"][m] == row["snooped"][m] - row["baseline"][m],
                    f"{row['config_label']}: delta of {m} is not snooped - baseline")
    for side, key in (("baseline", "baseline_row"), ("snooped", "snooped_row")):
        best = min(range(len(rows)),
                   key=lambda i: (-rows[i][side]["f1"], rows[i][side]["loss"], i))
        require(report["best_models"]["skipgram"][key] == best,
                f"best {side} row is {best}, report says {report['best_models']['skipgram'][key]}")


def reference_probs(params: dict, sequences: list[list[int]]) -> np.ndarray:
    """Eval-mode float64 forward of the stored classifier, one batch.

    Gates are laid out [input, forget, output, candidate]; a padded step
    carries the state through, so the last column holds each sample's state
    at its own last token.
    """
    B, T = len(sequences), max(len(s) for s in sequences)
    ids = np.zeros((B, T), dtype=np.int64)
    live = np.zeros((B, T, 1), dtype=bool)
    for r, s in enumerate(sequences):
        ids[r, : len(s)] = s
        live[r, : len(s)] = True
    inputs = params["emb"][ids]
    H = params["w_head"].shape[0]
    layer = 0
    while f"W{layer}" in params:
        W, b = params[f"W{layer}"], params[f"b{layer}"]
        d_in = inputs.shape[2]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        outputs = np.empty((B, T, H))
        for t in range(T):
            z = inputs[:, t] @ W[:d_in] + h @ W[d_in:] + b
            gate = 1.0 / (1.0 + np.exp(-np.clip(z[:, : 3 * H], -500, 500)))
            c_new = gate[:, H : 2 * H] * c + gate[:, :H] * np.tanh(z[:, 3 * H :])
            h_new = gate[:, 2 * H :] * np.tanh(c_new)
            c = np.where(live[:, t], c_new, c)
            h = np.where(live[:, t], h_new, h)
            outputs[:, t] = h
        inputs = outputs
        layer += 1
    logits = h @ params["w_head"] + params["b_head"][0]
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))


def validation_set(records: list[dict], manifest: dict, vocab: list[str]):
    """(encoded sequences, is-vulnerable flags, texts) of the val split."""
    texts = text_by_id(records)
    label = {sha256(r["normalized_text"]): r["label"] for r in records}
    index = {t: i + RESERVED_IDS for i, t in enumerate(vocab)}
    ids = sorted(manifest["classifier_val_ids"])
    seqs = [[index.get(tok, 1) for tok in TOKEN_RE.findall(texts[i])] for i in ids]
    return seqs, np.array([label[i] == "vulnerable" for i in ids]), [texts[i] for i in ids]


def check_models(out: dict, keys) -> dict:
    """Re-run each stored model on the val split; confusion must match its
    last metrics record up to samples within THRESHOLD_TOL of 0.5."""
    probs = {}
    for mode, label in keys:
        seqs, actual, _ = validation_set(out["records"], out["manifests"][mode], out["vocab"][mode])
        p = reference_probs(out["models"][mode, label], seqs)
        pred = p >= 0.5
        mine = np.array([np.sum(pred & actual), np.sum(pred & ~actual),
                         np.sum(~pred & actual), np.sum(~pred & ~actual)])
        c = out["metrics"][mode, label][-1]["confusion"]
        theirs = np.array([c["tp"], c["fp"], c["fn"], c["tn"]])
        near = int(np.sum(np.abs(p - 0.5) < THRESHOLD_TOL))
        require(int(np.abs(mine - theirs).sum()) <= 2 * near,
                f"{mode} {label}: reference confusion {mine.tolist()} != recorded "
                f"{theirs.tolist()} ({near} samples near the threshold)")
        probs[mode, label] = p
    return probs


def check_vocab_coverage(records: list[dict], manifest: dict, vocab: list[str]) -> None:
    texts = text_by_id(records)
    clf = set(manifest["classifier_train_ids"]) | set(manifest["classifier_val_ids"])
    missing = {tok for i in clf for tok in TOKEN_RE.findall(texts[i])} - set(vocab)
    require(not missing, f"{len(missing)} classifier tokens missing from the snooped vocabulary")


def signal_auc(p: np.ndarray, texts: list[str]) -> float:
    """P(score of an @strcpy sample > score of an @strncpy sample)."""
    pos = p[np.array(["@strcpy(" in t for t in texts])]
    neg = p[np.array(["@strncpy(" in t for t in texts])]
    diff = pos[:, None] - neg[None, :]
    return float(np.mean((diff > 0) + 0.5 * (diff == 0)))


def check_signal(out: dict, probs: dict) -> None:
    """The best row of each mode ranks the planted pattern above its fix."""
    rows = out["report"]["rows"]
    best = out["report"]["best_models"]["skipgram"]
    for mode, key in zip(MODES, ("baseline_row", "snooped_row")):
        label = rows[best[key]]["config_label"]
        _, _, texts = validation_set(out["records"], out["manifests"][mode], out["vocab"][mode])
        auc = signal_auc(probs[mode, label], texts)
        require(auc >= MIN_SIGNAL_AUC, f"{mode} best row {label}: signal AUC {auc:.3f}")


def check_grid(corpus: Path, run: Path, epochs: int) -> None:
    out = load_grid(corpus, run)
    check_ids(out["records"], out["manifests"])
    check_pairing(out["records"], out["manifests"])
    check_selection(out["metrics"], out["report"], epochs)
    probs = check_models(out, list(out["models"]))
    check_vocab_coverage(out["records"], out["manifests"][MODES[1]], out["vocab"][MODES[1]])
    check_signal(out, probs)

    # self-tests, one corrupted copy per check
    records = copy.deepcopy(out["records"])
    val_id = sorted(out["manifests"]["none"]["classifier_val_ids"])[0]
    tampered = next(r for r in records if r["id"] == val_id)
    tampered["normalized_text"] += "\n"
    must_fail("check_ids", check_ids, records, out["manifests"])

    manifests = copy.deepcopy(out["manifests"])
    manifests["none"]["embedding_train_ids"].append(val_id)
    must_fail("check_pairing", check_pairing, out["records"], manifests)

    report = copy.deepcopy(out["report"])
    report["rows"][0]["snooped"]["f1"] += 1e-3
    must_fail("check_selection", check_selection, out["metrics"], report, epochs)

    label = out["report"]["rows"][out["report"]["best_models"]["skipgram"]["baseline_row"]]["config_label"]
    flipped = dict(out, models=dict(out["models"]))
    params = dict(flipped["models"]["none", label])
    params["w_head"], params["b_head"] = -params["w_head"], -params["b_head"]
    flipped["models"]["none", label] = params
    must_fail("check_models", check_models, flipped, [("none", label)])
    must_fail("check_signal", check_signal, out,
              {**probs, ("none", label): 1.0 - probs["none", label]})

    texts = text_by_id(out["records"])
    token = TOKEN_RE.findall(texts[val_id])[0]
    vocab = [t for t in out["vocab"][MODES[1]] if t != token]
    must_fail("check_vocab_coverage", check_vocab_coverage,
              out["records"], out["manifests"][MODES[1]], vocab)


# ---------------------------------------------------------------------------
# embed-kinds
# ---------------------------------------------------------------------------

EMBED_KINDS = ("skipgram", "cbow")
EMBED_MODES = ("none", "snoop")
EMBED_DIM = 100
NEGATIVES = 5
HELDOUT_RE = re.compile(r"final heldout loss ([0-9.]+)")


def load_embed(corpus: Path, rnd: Path) -> dict:
    out = {"records": read_jsonl(corpus),
           "manifests": {m: read_json(rnd / f"{m}.json") for m in EMBED_MODES},
           "vocab": {}, "vec": {}, "heldout": {},
           "train_metrics": read_jsonl(rnd / "metrics.jsonl")}
    for kind in EMBED_KINDS:
        for mode in EMBED_MODES:
            key = kind, mode
            out["vocab"][key] = (rnd / f"vocab_{kind}_{mode}.tsv").read_text(encoding="utf-8").splitlines()
            out["vec"][key] = read_vec(rnd / f"{kind}_{mode}.vec")
            m = HELDOUT_RE.search(command_output(rnd / f"embed-{kind}-{mode}.out"))
            require(m is not None, f"embed {kind} {mode} printed no held-out loss")
            out["heldout"][key] = float(m.group(1))
    return out


def expected_vocab(records: list[dict], manifest: dict) -> list[tuple[str, int]]:
    texts = text_by_id(records)
    counts = Counter(tok for i in manifest["embedding_train_ids"]
                     for tok in TOKEN_RE.findall(texts[i]))
    return sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))


def check_vocab_files(records: list[dict], manifests: dict, vocab: dict, vec: dict) -> None:
    """Vocabulary and .vec header follow from token counts of the embedding split."""
    for (kind, mode), lines in vocab.items():
        want = expected_vocab(records, manifests[mode])
        require(lines == [f"{len(want)} {RESERVED_IDS}"] + [f"{t}\t{c}" for t, c in want],
                f"{kind} {mode}: vocabulary file disagrees with recounted tokens")
        tokens, vectors, n, dim = vec[kind, mode]
        require((n, dim) == (len(want), EMBED_DIM) and vectors.shape == (n, dim),
                f"{kind} {mode}: .vec header {n} {dim}, want {len(want)} {EMBED_DIM}")
        require(tokens == [t for t, _ in want], f"{kind} {mode}: .vec tokens out of vocabulary order")


def check_vectors_finite(vec: dict) -> None:
    for key, (_, vectors, _, _) in vec.items():
        require(bool(np.isfinite(vectors).all()), f"{key}: non-finite vector entries")


def check_heldout(heldout: dict) -> None:
    """W_out starts at zero, so the loss at initialisation is (k+1) ln 2."""
    bound = (NEGATIVES + 1) * math.log(2.0)
    for key, loss in heldout.items():
        require(loss < bound, f"{key}: held-out loss {loss} not below {bound:.4f}")


def check_train(train_metrics: list[dict], manifest: dict) -> None:
    require(len(train_metrics) == 1 and train_metrics[0]["epoch"] == 1,
            "train: want one epoch record")
    total = sum(train_metrics[0]["confusion"].values())
    require(total == len(manifest["classifier_val_ids"]),
            f"train: confusion covers {total} samples, val has {len(manifest['classifier_val_ids'])}")


def check_embed(corpus: Path, rnd: Path) -> None:
    out = load_embed(corpus, rnd)
    check_ids(out["records"], out["manifests"])
    check_vocab_files(out["records"], out["manifests"], out["vocab"], out["vec"])
    check_vectors_finite(out["vec"])
    check_heldout(out["heldout"])
    check_train(out["train_metrics"], out["manifests"]["snoop"])

    key = ("cbow", "snoop")
    vocab = dict(out["vocab"])
    token, count = vocab[key][1].split("\t")
    vocab[key] = [vocab[key][0], f"{token}\t{int(count) + 1}", *vocab[key][2:]]
    must_fail("check_vocab_files", check_vocab_files, out["records"], out["manifests"], vocab, out["vec"])

    tokens, vectors, n, dim = out["vec"][key]
    vectors = vectors.copy()
    vectors[0, 0] = np.nan
    must_fail("check_vectors_finite", check_vectors_finite, {key: (tokens, vectors, n, dim)})
    must_fail("check_heldout", check_heldout, {key: (NEGATIVES + 1) * math.log(2.0)})

    train_metrics = copy.deepcopy(out["train_metrics"])
    train_metrics[0]["confusion"]["tp"] += 1
    must_fail("check_train", check_train, train_metrics, out["manifests"]["snoop"])


# ---------------------------------------------------------------------------
# ingest-paper
# ---------------------------------------------------------------------------

def paper_counts(n_pool: int, n_pairs: int, n_extra_clean: int) -> dict:
    """Manifest counts the paper's arithmetic predicts for the synth spec."""
    n_clf = 2 * n_pairs + n_extra_clean
    train = 8 * n_clf // 10
    base = {"embedding_pool_initial": n_pool, "embedding_train_final": n_pool,
            "classifier_total": n_clf, "classifier_vulnerable": n_pairs,
            "classifier_clean": n_pairs + n_extra_clean,
            "classifier_train": train, "classifier_val": n_clf - train}
    return {"none": {**base, "embedding_post_drop": n_pool},
            "snoop": {**base, "embedding_post_drop": n_pool - n_clf}}


def check_ingest(synth_records: list[dict], ingested: list[dict]) -> None:
    """Two independent paths to the normalised text agree record for record."""
    require(len(ingested) == len(synth_records),
            f"ingest gave {len(ingested)} records, synth wrote {len(synth_records)}")
    for a, b in zip(synth_records, ingested):
        require(a == b, f"ingested record {b.get('source_name')} differs from synth's")


def check_partition_counts(manifests: dict, want: dict) -> None:
    for mode, doc in manifests.items():
        require(doc["counts"] == want[mode], f"{mode}: counts {doc['counts']} != {want[mode]}")
        c = doc["counts"]
        sizes = (len(doc["embedding_train_ids"]), len(doc["classifier_train_ids"]),
                 len(doc["classifier_val_ids"]), len(doc["dropped_embedding_ids"]))
        require(sizes == (c["embedding_train_final"], c["classifier_train"], c["classifier_val"],
                          c["embedding_pool_initial"] - c["embedding_post_drop"]),
                f"{mode}: id array sizes {sizes} disagree with counts")


def check_audit(findings: dict, n_clf: int) -> None:
    """Snooped: exactly one embeddings violation over every classifier id.
    Clean: no violation."""
    snoop = [f for f in findings["snoop"]["findings"] if f["severity"] == "violation"]
    require(len(snoop) == 1 and snoop[0]["subcategory"] == "embeddings"
            and snoop[0]["evidence"]["overlap_count"] == n_clf,
            f"snooped audit violations: {snoop}")
    clean = [f for f in findings["none"]["findings"] if f["severity"] == "violation"]
    require(not clean, f"clean audit violations: {clean}")


def check_ingest_paper(synth_corpus: Path, rnd: Path, spec: tuple[int, int, int]) -> None:
    synth_records = read_jsonl(synth_corpus)
    ingested = read_jsonl(rnd / "corpus.jsonl")
    manifests = {m: read_json(rnd / f"{m}.json") for m in EMBED_MODES}
    findings = {m: json.loads(command_output(rnd / f"audit-{m}.out")) for m in EMBED_MODES}
    want = paper_counts(*spec)
    check_ingest(synth_records, ingested)
    check_partition_counts(manifests, want)
    check_audit(findings, want["snoop"]["classifier_total"])

    must_fail("check_ingest", check_ingest, synth_records, ingested[:-1])
    bumped = copy.deepcopy(want)
    bumped["snoop"]["embedding_post_drop"] += 1
    must_fail("check_partition_counts", check_partition_counts, manifests, bumped)
    short = copy.deepcopy(findings)
    for f in short["snoop"]["findings"]:
        if f["subcategory"] == "embeddings":
            f["evidence"]["overlap_count"] -= 1
    must_fail("check_audit", check_audit, short, want["snoop"]["classifier_total"])
