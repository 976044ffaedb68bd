"""Paired experiment grid and comparison reports.

For each optimizer configuration and embedding kind, two otherwise
identical runs are executed, differing only in whether the embedding
training set was contaminated with the classifier's train/validation
samples. Classifier train/val membership, weight init, batch order and
dropout draws are all shared across the pair, so per-metric deltas isolate
the snooping condition. Reports mirror the value-plus-parenthesized-delta
table convention, with a best-model summary per embedding kind.
"""

from __future__ import annotations

import json
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .classifier import (
    ClassifierConfig,
    EncodedDataset,
    LstmClassifier,
    MetricsRecord,
    OptimizerSpec,
    save_model,
    select_best_epoch,
    train,
)
from .embeddings import (
    KIND_SKIPGRAM,
    NATIVE_KINDS,
    EmbeddingModel,
    Word2VecConfig,
    export_external,
    import_external,
    train_word2vec,
)
from .errors import GridError, PairingError
from .ir_corpus import Corpus
from .partitioner import (
    MODE_NONE,
    MODE_SNOOP,
    DatasetManifest,
    Partition,
    build_partition,
    write_manifest,
)
from .seeding import RNG_ALGORITHM, derive_seed
from .tokenizer import Vocabulary, build_vocab, encode, tokenize

REPORT_SCHEMA_VERSION = 1

METRIC_FIELDS = ("loss", "accuracy", "precision", "recall", "f1")

# The seven hyperparameter settings of the reference study: one SGD run at
# lr 0.01, three SGD runs at lr 1e-4 sweeping momentum, and three Adam runs
# sweeping the learning rate.
PAPER_GRID: tuple[OptimizerSpec, ...] = (
    OptimizerSpec("sgd", 0.01, 0.01),
    OptimizerSpec("sgd", 0.0001, 0.01),
    OptimizerSpec("sgd", 0.0001, 0.001),
    OptimizerSpec("sgd", 0.0001, 0.0001),
    OptimizerSpec("adam", 0.01),
    OptimizerSpec("adam", 0.001),
    OptimizerSpec("adam", 0.0001),
)


@dataclass(frozen=True)
class ReportRow:
    embedding_kind: str
    config_label: str
    optimizer: OptimizerSpec
    baseline: MetricsRecord
    snooped: MetricsRecord

    def deltas(self) -> dict[str, float]:
        d: dict[str, float] = {"epoch": self.snooped.epoch - self.baseline.epoch}
        for m in METRIC_FIELDS:
            d[m] = getattr(self.snooped, m) - getattr(self.baseline, m)
        return d


@dataclass
class ComparisonReport:
    rows: list[ReportRow]
    best_models: dict[str, dict]
    environment: dict
    tool_version: str = __version__


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "tool_version", "environment", "rows", "best_models"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "environment": {"type": "object"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "embedding_kind",
                    "config_label",
                    "optimizer",
                    "baseline",
                    "snooped",
                    "deltas",
                ],
                "additionalProperties": False,
                "properties": {
                    "embedding_kind": {"type": "string"},
                    "config_label": {"type": "string"},
                    "optimizer": {
                        "type": "object",
                        "required": ["kind", "lr", "momentum"],
                        "properties": {
                            "kind": {"enum": ["sgd", "adam"]},
                            "lr": {"type": "number"},
                            "momentum": {"type": "number"},
                        },
                    },
                    "baseline": {"$ref": "#/$defs/metrics"},
                    "snooped": {"$ref": "#/$defs/metrics"},
                    "deltas": {
                        "type": "object",
                        "required": ["epoch", *METRIC_FIELDS],
                    },
                },
            },
        },
        "best_models": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["baseline_row", "snooped_row", "baseline", "snooped"],
                "properties": {
                    "baseline_row": {"type": "integer"},
                    "snooped_row": {"type": "integer"},
                    "baseline": {"type": "object"},
                    "snooped": {"type": "object"},
                },
            },
        },
    },
    "$defs": {
        "metrics": {
            "type": "object",
            "required": ["epoch", "loss", "accuracy", "precision", "recall", "f1", "confusion"],
            "properties": {
                "epoch": {"type": "integer"},
                "loss": {"type": "number"},
                "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
                "precision": {"type": "number", "minimum": 0, "maximum": 1},
                "recall": {"type": "number", "minimum": 0, "maximum": 1},
                "f1": {"type": "number", "minimum": 0, "maximum": 1},
                "confusion": {
                    "type": "object",
                    "required": ["tp", "fp", "fn", "tn"],
                },
            },
        }
    },
}


def validate_report(doc: dict) -> None:
    jsonschema.validate(doc, REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------

def _runtime() -> dict:
    """The software and threads a run's float results can depend on.

    Metrics files are byte-identical only under the same BLAS thread count.
    This block goes to env.json only, not into the report's environment, so
    report.json stays comparable across machines.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
    }


def run_grid(
    corpus: Corpus,
    embedding_kinds: tuple[str, ...] = (KIND_SKIPGRAM,),
    configs: tuple[OptimizerSpec, ...] = PAPER_GRID,
    master_seed: int = 0,
    cwe: str = "CWE-121",
    out_dir: str | Path | None = None,
    jobs: int = 1,
    word2vec: dict | None = None,
    classifier: dict | None = None,
    external_paths: dict[str, str | Path] | None = None,
) -> ComparisonReport:
    """Run the paired grid over both snooping modes and assemble a comparison report.

    `word2vec` and `classifier` override fields of the respective config
    dataclasses (epochs, dim, ...). For external embedding kinds,
    `external_paths` maps mode name to the file to import for that mode.
    """
    out = Path(out_dir) if out_dir is not None else None
    env = {
        "master_seed": master_seed,
        "corpus_digest": corpus.digest(),
        "corpus_size": len(corpus),
        "cwe": cwe,
        "embedding_kinds": list(embedding_kinds),
        "config_labels": [c.label() for c in configs],
        "modes": [MODE_NONE, MODE_SNOOP],
        "rng_algorithm": RNG_ALGORITHM,
        "word2vec_overrides": dict(word2vec or {}),
        "classifier_overrides": dict(classifier or {}),
    }
    if out is not None:
        for sub in ("manifests", "embeddings", "models", "metrics"):
            (out / sub).mkdir(parents=True, exist_ok=True)
        # environment echo goes to disk before any computation output
        doc = {"tool_version": __version__, **env, "runtime": _runtime()}
        (out / "env.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    prepared = {
        mode: _prepare_mode(
            corpus, cwe, master_seed, mode, embedding_kinds, out, word2vec, external_paths
        )
        for mode in (MODE_NONE, MODE_SNOOP)
    }
    m_none, m_snoop = (prepared[mode][0].manifest for mode in (MODE_NONE, MODE_SNOOP))
    if (m_none.classifier_train_ids, m_none.classifier_val_ids) != (
        m_snoop.classifier_train_ids, m_snoop.classifier_val_ids
    ):
        raise PairingError("paired modes disagree on classifier train/val membership")

    cells = [
        (kind, spec)
        for kind in embedding_kinds
        for spec in configs
    ]

    def run_cell(cell) -> ReportRow:
        kind, spec = cell
        seed = derive_seed(master_seed, f"clf:{kind}:{spec.label()}")
        best: dict[str, MetricsRecord] = {}
        for mode, (data, embeddings) in prepared.items():
            stem = f"{kind}_{mode}_{spec.label()}"
            paths = () if out is None else (
                out / "models" / f"{stem}.npz", out / "metrics" / f"{stem}.jsonl")
            try:
                config = ClassifierConfig(optimizer=spec, seed=seed, **(classifier or {}))
                records = fit_classifier(data, embeddings[kind], config, *paths)
            except Exception as exc:
                raise GridError(
                    f"grid cell (kind={kind}, config={spec.label()}, mode={mode}) failed: {exc}"
                ) from exc
            best[mode] = select_best_epoch(records)
        return ReportRow(
            embedding_kind=kind,
            config_label=spec.label(),
            optimizer=spec,
            baseline=best[MODE_NONE],
            snooped=best[MODE_SNOOP],
        )

    if jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(c) for c in cells]

    best_models: dict[str, dict] = {}
    for kind in embedding_kinds:
        kind_rows = [(i, r) for i, r in enumerate(rows) if r.embedding_kind == kind]
        if not kind_rows:
            continue
        bi, base_best = min(kind_rows, key=lambda ir: (-ir[1].baseline.f1, ir[1].baseline.loss, ir[0]))
        si, snoop_best = min(kind_rows, key=lambda ir: (-ir[1].snooped.f1, ir[1].snooped.loss, ir[0]))
        best_models[kind] = {
            "baseline_row": bi,
            "snooped_row": si,
            "baseline": {"accuracy": base_best.baseline.accuracy, "f1": base_best.baseline.f1},
            "snooped": {"accuracy": snoop_best.snooped.accuracy, "f1": snoop_best.snooped.f1},
        }

    report = ComparisonReport(rows=rows, best_models=best_models, environment=env)
    if out is not None:
        (out / "report.json").write_text(render(report, "json"), encoding="utf-8")
        (out / "report.md").write_text(render(report, "markdown"), encoding="utf-8")
    return report


def _prepare_mode(
    corpus, cwe, master_seed, mode, embedding_kinds, out, word2vec, external_paths
) -> tuple[ClassifierData, dict[str, EmbeddingModel]]:
    part = build_partition(corpus, cwe, seed=derive_seed(master_seed, "partition"), mode=mode)
    if out is not None:
        write_manifest(part.manifest, out / "manifests" / f"{mode}.json")
    vocab, encoded = encode_embedding_split(part)
    embeddings: dict[str, EmbeddingModel] = {}
    for kind in embedding_kinds:
        if kind in NATIVE_KINDS:
            overrides = dict(word2vec or {})
            # the seed is mode-independent so composition is the only change
            cfg = Word2VecConfig(
                kind=kind, seed=derive_seed(master_seed, f"w2v:{kind}"), **overrides
            )
            model = train_word2vec(encoded, vocab, cfg)
            if out is not None:
                export_external(model, out / "embeddings" / f"{kind}_{mode}.vec")
        else:
            paths = external_paths or {}
            if mode not in paths:
                raise GridError(f"external embedding kind {kind} needs a path for mode {mode}")
            model = import_external(paths[mode], kind)
        embeddings[kind] = model
    return ClassifierData.from_partition(part, vocab), embeddings


# ---------------------------------------------------------------------------
# Pipeline steps shared by the grid and the `embed` and `train` subcommands
# ---------------------------------------------------------------------------

def encode_embedding_split(part: Partition) -> tuple[Vocabulary, list[list[int]]]:
    """Tokenize the embedding split, build its vocabulary and encode it for word2vec."""
    sentences = [tokenize(f.normalized_text) for f in part.embedding_train]
    vocab = build_vocab(sentences)
    return vocab, [encode(s, vocab) for s in sentences]


@dataclass(frozen=True)
class ClassifierData:
    """A partition's classifier splits, encoded with one vocabulary."""

    manifest: DatasetManifest
    vocab: Vocabulary
    train_set: EncodedDataset
    val_set: EncodedDataset

    @classmethod
    def from_partition(cls, part: Partition, vocab: Vocabulary) -> "ClassifierData":
        splits = (part.classifier_train, part.classifier_val)
        return cls(part.manifest, vocab, *(EncodedDataset.from_corpus(c, vocab) for c in splits))


def fit_classifier(
    data: ClassifierData,
    embedding: EmbeddingModel,
    config: ClassifierConfig,
    model_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> list[MetricsRecord]:
    """Build and train one classifier, then write its per-epoch metrics and weights."""
    model = LstmClassifier(embedding, config, vocab=data.vocab)
    records = train(model, data.train_set, data.val_set, manifest=data.manifest)
    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    if model_path is not None:
        save_model(model, model_path)
    return records


# ---------------------------------------------------------------------------
# Serialization / rendering
# ---------------------------------------------------------------------------

def report_to_doc(report: ComparisonReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "environment": report.environment,
        "rows": [
            {
                "embedding_kind": r.embedding_kind,
                "config_label": r.config_label,
                "optimizer": {
                    "kind": r.optimizer.kind,
                    "lr": r.optimizer.lr,
                    "momentum": r.optimizer.momentum,
                },
                "baseline": r.baseline.to_dict(),
                "snooped": r.snooped.to_dict(),
                "deltas": r.deltas(),
            }
            for r in report.rows
        ],
        "best_models": report.best_models,
    }


def report_from_doc(doc: dict) -> ComparisonReport:
    validate_report(doc)
    rows = [
        ReportRow(
            embedding_kind=rd["embedding_kind"],
            config_label=rd["config_label"],
            optimizer=OptimizerSpec(
                rd["optimizer"]["kind"], rd["optimizer"]["lr"], rd["optimizer"]["momentum"]
            ),
            baseline=MetricsRecord.from_dict(rd["baseline"]),
            snooped=MetricsRecord.from_dict(rd["snooped"]),
        )
        for rd in doc["rows"]
    ]
    return ComparisonReport(
        rows=rows,
        best_models=doc["best_models"],
        environment=doc["environment"],
        tool_version=doc["tool_version"],
    )


def fmt_percent(value: float, delta: float | None = None) -> str:
    """Percent to one decimal; delta in parens, signed; exact tie as ±0%."""
    s = f"{value * 100:.1f}%"
    if delta is None:
        return s
    if delta == 0:
        return f"{s} (±0%)"
    return f"{s} ({delta * 100:+.1f}%)"


def fmt_loss(value: float, delta: float | None = None) -> str:
    s = f"{value:.4f}"
    if delta is None:
        return s
    if delta == 0:
        return f"{s} (±0)"
    return f"{s} ({delta:+.4f})"


def fmt_epoch(epoch: int, delta: int | None = None) -> str:
    if delta is None:
        return str(epoch)
    if delta == 0:
        return f"{epoch}(±0)"
    return f"{epoch}({delta:+d})"


def render(report: ComparisonReport, fmt: str = "json") -> str:
    """Render as canonical JSON or a markdown document.

    Markdown cells show the snooped value followed by the parenthesized
    signed delta against the baseline: losses to four decimals,
    percentages to one.
    """
    if fmt == "json":
        return json.dumps(report_to_doc(report), sort_keys=True, indent=2) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown format: {fmt!r}")
    lines = [
        "# Snooping comparison report",
        "",
        f"tool {report.tool_version}, master seed {report.environment.get('master_seed')}, "
        f"corpus {str(report.environment.get('corpus_digest'))[:12]}",
        "",
    ]
    for kind in dict.fromkeys(r.embedding_kind for r in report.rows):
        lines.append(f"## {kind}: metrics with snooping (delta vs without)")
        lines.append("")
        lines.append("| Hyperparameters | Epoch | Loss | Accuracy | Precision | Recall | F1-Score |")
        lines.append("|---|---|---|---|---|---|---|")
        for r in report.rows:
            if r.embedding_kind != kind:
                continue
            d = r.deltas()
            lines.append(
                "| {cfg} | {ep} | {loss} | {acc} | {prec} | {rec} | {f1} |".format(
                    cfg=r.config_label,
                    ep=fmt_epoch(r.snooped.epoch, int(d["epoch"])),
                    loss=fmt_loss(r.snooped.loss, d["loss"]),
                    acc=fmt_percent(r.snooped.accuracy, d["accuracy"]),
                    prec=fmt_percent(r.snooped.precision, d["precision"]),
                    rec=fmt_percent(r.snooped.recall, d["recall"]),
                    f1=fmt_percent(r.snooped.f1, d["f1"]),
                )
            )
        lines.append("")
    if report.best_models:
        lines.append("## Best performing models")
        lines.append("")
        lines.append("| Model | Accuracy (without) | F1 (without) | Accuracy (with) | F1 (with) |")
        lines.append("|---|---|---|---|---|")
        for kind, entry in report.best_models.items():
            lines.append(
                "| {kind} | {ab} | {fb} | {as_} | {fs} |".format(
                    kind=kind,
                    ab=fmt_percent(entry["baseline"]["accuracy"]),
                    fb=fmt_percent(entry["baseline"]["f1"]),
                    as_=fmt_percent(entry["snooped"]["accuracy"]),
                    fs=fmt_percent(entry["snooped"]["f1"]),
                )
            )
        lines.append("")
    return "\n".join(lines)
