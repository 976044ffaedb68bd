"""The benchmark's workloads: inputs, command sequence and checks.

A workload generates its inputs once with `snoopbench synth` (the set-up),
then repeats whole rounds of the same CLI invocations. Every path passed
to the CLI is absolute, so a round can run as child processes or
in-process through `snoopbench.cli.dispatch` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit code it must return."""

    name: str
    args: tuple[str, ...]
    expect: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]  # `snoopbench synth` arguments besides --out/--seed
    ops: Callable[[Path, Path, int], list[Op]]  # (data dir, round dir, seed)
    check: Callable[[Path, Path], None]  # (data dir, round dir); raises on failure


# acceptance test 08's corpus shape, except signal 0.7 for 0.9: at 0.9 the
# number of long (distractor-bearing) samples a seed draws swings the LSTM's
# padded work by several percent from seed to seed
DESK_CORPUS = ("--pool", "2000", "--pairs", "200", "--signal", "0.7")
# 48,157 pool functions; 1,416 vulnerable + 2,386 clean = 3,802 CWE-121 samples
PAPER_SPEC = (48157, 1416, 2386 - 1416)
PAPER_CORPUS = ("--pool", str(PAPER_SPEC[0]), "--pairs", str(PAPER_SPEC[1]),
                "--extra-clean", str(PAPER_SPEC[2]))
GRID_EPOCHS = 2


def _grid_ops(data: Path, rnd: Path, seed: int) -> list[Op]:
    return [Op("experiment", (
        "experiment", "--input", str(data / "corpus.jsonl"), "--out", str(rnd / "run"),
        "--seed", str(seed), "--configs", "paper7", "--jobs", "1",
        "--epochs", str(GRID_EPOCHS), "--w2v-epochs", "1", "--w2v-dim", "32"))]


def _partition_ops(corpus: Path, rnd: Path, seed: int) -> list[Op]:
    return [Op(f"partition-{mode}", (
        "partition", "--input", str(corpus), "--out", str(rnd / f"{mode}.json"),
        "--seed", str(seed), "--mode", mode)) for mode in ("none", "snoop")]


def _embed_ops(data: Path, rnd: Path, seed: int) -> list[Op]:
    corpus = data / "corpus.jsonl"
    ops = _partition_ops(corpus, rnd, seed)
    for kind in ("skipgram", "cbow"):
        for mode in ("none", "snoop"):
            ops.append(Op(f"embed-{kind}-{mode}", (
                "embed", "--input", str(corpus), "--manifest", str(rnd / f"{mode}.json"),
                "--embedding", kind, "--out", str(rnd / f"{kind}_{mode}.vec"),
                "--vocab-out", str(rnd / f"vocab_{kind}_{mode}.tsv"), "--seed", str(seed))))
    ops.append(Op("train", (
        "train", "--input", str(corpus), "--manifest", str(rnd / "snoop.json"),
        "--embedding-file", str(rnd / "skipgram_snoop.vec"),
        "--vocab", str(rnd / "vocab_skipgram_snoop.tsv"),
        "--optimizer", "adam", "--lr", "0.001", "--epochs", "1",
        "--out", str(rnd / "model.npz"), "--metrics", str(rnd / "metrics.jsonl"),
        "--seed", str(seed))))
    return ops


def _ingest_ops(data: Path, rnd: Path, seed: int) -> list[Op]:
    corpus = rnd / "corpus.jsonl"
    ops = [Op("ingest", ("ingest", "--input", str(data), "--out", str(corpus)))]
    ops += _partition_ops(corpus, rnd, seed)
    ops += [Op(f"audit-{mode}", ("audit", "--input", str(rnd / f"{mode}.json"),
                                 "--format", "json"), expect=3 if mode == "snoop" else 0)
            for mode in ("none", "snoop")]
    return ops


# checks imports numpy; importing it only here keeps that out of setup_s
def _check_grid(data: Path, rnd: Path) -> None:
    import checks
    checks.check_grid(data / "corpus.jsonl", rnd / "run", GRID_EPOCHS)


def _check_embed(data: Path, rnd: Path) -> None:
    import checks
    checks.check_embed(data / "corpus.jsonl", rnd)


def _check_ingest(data: Path, rnd: Path) -> None:
    import checks
    checks.check_ingest_paper(data / "corpus.jsonl", rnd, PAPER_SPEC)


WORKLOADS = {w.name: w for w in (
    Workload("grid-desk", DESK_CORPUS, _grid_ops, _check_grid),
    Workload("embed-kinds", DESK_CORPUS, _embed_ops, _check_embed),
    Workload("ingest-paper", PAPER_CORPUS, _ingest_ops, _check_ingest),
)}
