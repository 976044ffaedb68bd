"""Command-line entry point.

One subcommand per pipeline stage: ingest, synth, partition, audit, embed,
train, experiment, report. Every run prints an environment echo (version,
seeds, input hashes) before any computation output. Exit codes: 0 success,
1 domain error, 2 usage error, 3 audit found violations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import classifier as clf
from . import embeddings as emb
from . import experiment as xp
from . import ir_corpus, partitioner, snoop_audit, synth_corpus
from .errors import SnoopbenchError
from .tokenizer import Vocabulary, build_vocab, encode, tokenize  # noqa: F401 (perfbench traces them)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
EXIT_AUDIT_VIOLATION = 3


def _hash_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _echo_environment(subcommand: str, args: argparse.Namespace, inputs: list[str | Path]) -> None:
    echo = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed": getattr(args, "seed", None),
        "input_hashes": {str(p): _hash_file(p) for p in inputs if Path(p).is_file()},
    }
    print(json.dumps(echo, sort_keys=True), flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snoopbench",
        description="Leakage-controlled snooping experiments over lifted IR corpora",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="build a corpus file from a directory of .ll modules")
    p.add_argument("--input", required=True, help="directory containing .ll files")
    p.add_argument("--out", required=True, help="corpus file to write (one JSON record per line)")
    p.add_argument("--max-tokens", type=int, default=ir_corpus.DEFAULT_MAX_TOKENS,
                   help="drop functions longer than this many tokens")

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output directory (.ll files plus corpus.jsonl)")
    p.add_argument("--pool", type=int, required=True, help="unlabeled filler functions")
    p.add_argument("--pairs", type=int, required=True, help="vulnerable/clean pairs")
    p.add_argument("--extra-clean", type=int, default=0, help="unpaired clean variants")
    p.add_argument("--signal", type=float, default=1.0, help="signal strength in [0,1]")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("partition", help="split a corpus and write the dataset manifest")
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--out", required=True, help="manifest file to write")
    p.add_argument("--cwe", default="CWE-121")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["none", "snoop"], default="none")
    p.add_argument("--filter-rule", action="append", dest="filter_rules",
                   help="declared sample filter (repeatable); default declares "
                        "the corpus's token-length cut, as `experiment` does")

    p = sub.add_parser("audit", help="audit a manifest for snooping conditions")
    p.add_argument("--input", required=True, help="manifest file")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--max-age-years", type=float,
                   default=snoop_audit.DEFAULT_MAX_DATASET_AGE_YEARS)

    p = sub.add_parser("embed", help="train token embeddings on the manifest's embedding split")
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embedding", choices=["cbow", "skipgram"], required=True)
    p.add_argument("--out", required=True, help="vector file to write")
    p.add_argument("--vocab-out", required=True, help="vocabulary file to write")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("train", help="train one classifier from an embedding file")
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embedding-file", required=True, help="static vector file")
    p.add_argument("--vocab", required=True, help="vocabulary file from `embed`")
    p.add_argument("--optimizer", choices=["sgd", "adam"], required=True)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--metrics", required=True, help="per-epoch metrics file to write")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("experiment", help="run the paired grid and render reports")
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--cwe", default="CWE-121")
    p.add_argument("--embedding", choices=["cbow", "skipgram", "external"], default="skipgram")
    p.add_argument("--configs", default="paper7",
                   help="paper7 or a JSON file with [{kind, lr, momentum}, ...]")
    p.add_argument("--jobs", type=int, default=1,
                   help="grid cells run on this many threads; every output file "
                        "is byte-identical to a --jobs 1 run")
    p.add_argument("--epochs", type=int, default=None, help="classifier epochs override")
    p.add_argument("--w2v-epochs", type=int, default=None)
    p.add_argument("--w2v-dim", type=int, default=None)
    p.add_argument("--external-none", help="static vectors for the clean mode")
    p.add_argument("--external-snoop", help="static vectors for the snooped mode")

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("--input", required=True, help="report.json")
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.add_argument("--out", help="write here instead of stdout")

    return parser


def _cmd_ingest(args) -> int:
    corpus = ir_corpus.ingest_dir(args.input, max_tokens=args.max_tokens)
    ir_corpus.write_corpus(corpus, args.out)
    print(
        f"ingested {len(corpus)} functions "
        f"({corpus.dropped_overlength} dropped over {args.max_tokens} tokens) -> {args.out}"
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = synth_corpus.SynthSpec(
        n_pool=args.pool,
        n_pairs=args.pairs,
        n_extra_clean=args.extra_clean,
        signal_strength=args.signal,
        seed=args.seed,
    )
    corpus = synth_corpus.generate(spec)
    out = Path(args.out)
    synth_corpus.write_ll_files(corpus, out)
    ir_corpus.write_corpus(corpus, out / "corpus.jsonl")
    print(f"generated {len(corpus)} functions -> {out}")
    return EXIT_OK


def _cmd_partition(args) -> int:
    corpus = ir_corpus.read_corpus(args.input)
    mode = partitioner.MODE_SNOOP if args.mode == "snoop" else partitioner.MODE_NONE
    declared = None
    if args.filter_rules is not None:
        declared = partitioner.DeclaredSteps(filter_rules=tuple(args.filter_rules))
    part = partitioner.build_partition(
        corpus, args.cwe, seed=args.seed, mode=mode, declared_steps=declared
    )
    partitioner.write_manifest(part.manifest, args.out)
    print(json.dumps(part.manifest.counts, sort_keys=True))
    return EXIT_OK


def _cmd_audit(args) -> int:
    manifest = partitioner.read_manifest(args.input)
    findings = snoop_audit.audit_manifest(manifest, max_dataset_age_years=args.max_age_years)
    if args.format == "json":
        sys.stdout.write(snoop_audit.findings_to_json(findings))
    else:
        sys.stdout.write(snoop_audit.render_findings(findings))
    return EXIT_AUDIT_VIOLATION if snoop_audit.has_violation(findings) else EXIT_OK


def _read_partition(args) -> partitioner.Partition:
    return partitioner.apply_manifest(
        ir_corpus.read_corpus(args.input), partitioner.read_manifest(args.manifest)
    )


def _cmd_embed(args) -> int:
    part = _read_partition(args)
    vocab, encoded = xp.encode_embedding_split(part)
    config = emb.Word2VecConfig(
        kind=args.embedding,
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        seed=args.seed,
    )
    model = emb.train_word2vec(encoded, vocab, config)
    emb.export_external(model, args.out)
    vocab.save(args.vocab_out)
    last = model.training_log[-1] if model.training_log else {}
    heldout = last.get("heldout_loss")
    heldout_txt = f"{heldout:.4f}" if heldout is not None else "n/a"
    print(
        f"trained {args.embedding} dim={args.dim} on {len(part.embedding_train)} functions; "
        f"final heldout loss {heldout_txt} -> {args.out}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    data = xp.ClassifierData.from_partition(_read_partition(args), Vocabulary.load(args.vocab))
    config = clf.ClassifierConfig(
        optimizer=clf.OptimizerSpec(args.optimizer, args.lr, args.momentum),
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model_emb = emb.import_external(args.embedding_file, "static")
    records = xp.fit_classifier(data, model_emb, config, args.out, args.metrics)
    best = clf.select_best_epoch(records)
    print(
        f"best epoch {best.epoch}: loss {best.loss:.4f} acc {best.accuracy:.3f} "
        f"f1 {best.f1:.3f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    corpus = ir_corpus.read_corpus(args.input)
    if args.configs == "paper7":
        configs = xp.PAPER_GRID
    else:
        raw = json.loads(Path(args.configs).read_text(encoding="utf-8"))
        configs = tuple(
            clf.OptimizerSpec(c["kind"], c["lr"], c.get("momentum", 0.0)) for c in raw
        )
    kind = {"cbow": emb.KIND_CBOW, "skipgram": emb.KIND_SKIPGRAM,
            "external": emb.KIND_EXTERNAL_STATIC}[args.embedding]
    external_paths = None
    if args.embedding == "external":
        if not args.external_none or not args.external_snoop:
            raise SnoopbenchError(
                "external embeddings need --external-none and --external-snoop files"
            )
        external_paths = {
            partitioner.MODE_NONE: args.external_none,
            partitioner.MODE_SNOOP: args.external_snoop,
        }
    classifier_overrides = {}
    if args.epochs is not None:
        classifier_overrides["epochs"] = args.epochs
    w2v_overrides = {}
    if args.w2v_epochs is not None:
        w2v_overrides["epochs"] = args.w2v_epochs
    if args.w2v_dim is not None:
        w2v_overrides["dim"] = args.w2v_dim
    report = xp.run_grid(
        corpus,
        embedding_kinds=(kind,),
        configs=configs,
        master_seed=args.seed,
        cwe=args.cwe,
        out_dir=args.out,
        jobs=args.jobs,
        word2vec=w2v_overrides or None,
        classifier=classifier_overrides or None,
        external_paths=external_paths,
    )
    print(f"{len(report.rows)} grid rows -> {args.out}/report.json, {args.out}/report.md")
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    report = xp.report_from_doc(doc)
    fmt = "markdown" if args.format == "md" else "json"
    rendered = xp.render(report, fmt)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


_HANDLERS = {
    "ingest": (_cmd_ingest, ["input"]),
    "synth": (_cmd_synth, []),
    "partition": (_cmd_partition, ["input"]),
    "audit": (_cmd_audit, ["input"]),
    "embed": (_cmd_embed, ["input", "manifest"]),
    "train": (_cmd_train, ["input", "manifest", "embedding_file", "vocab"]),
    "experiment": (_cmd_experiment, ["input"]),
    "report": (_cmd_report, ["input"]),
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, input_attrs = _HANDLERS[args.subcommand]
    try:
        _echo_environment(
            args.subcommand, args, [getattr(args, a) for a in input_attrs]
        )
        return handler(args)
    except SnoopbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
