"""Deterministic generator of IR-like corpora with planted vulnerable pairs.

Stands in for a lifted C test-suite corpus: call-heavy, alloca-then-copy
function bodies with the surface statistics of lifted code, not its
semantics. Each vulnerable/clean pair shares everything except the copy
region, where the vulnerable variant performs an unchecked bulk copy
(`@strcpy`) and the clean variant a bounded one (`@strncpy`).

Bodies are emitted directly in normalized form (canonical `%loc_N` /
`lbl_N` names allocated in first-use order), so raw and normalized text
differ only in the defined symbol's name. That keeps generation cheap at
scale while the pipeline-survival property (extract + normalize reproduces
the stored text) stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ir_corpus
from .ir_corpus import Corpus, IrFunction
from .seeding import make_rng

CWE_ID = "CWE-121"

_FILLER_PREFIXES = ("helper_block", "io_shim", "buf_util", "list_node", "fmt_work")


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic corpus.

    n_pool unlabeled filler functions, n_pairs vulnerable/clean pairs, plus
    n_extra_clean unpaired remediated variants (real test suites ship more
    good variants than bad ones). signal_strength in [0, 1] controls how
    unambiguous the planted pattern is: below 1.0, a (1 - signal_strength)
    fraction of samples receives label-independent distractor lines.
    """

    n_pool: int
    n_pairs: int
    n_extra_clean: int = 0
    vuln_pattern: str = "stack_copy_overflow"
    signal_strength: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pool < 0:
            raise ValueError("n_pool must be non-negative")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be at least 1")
        if self.n_extra_clean < 0:
            raise ValueError("n_extra_clean must be non-negative")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError("signal_strength must lie in [0, 1]")
        if self.vuln_pattern != "stack_copy_overflow":
            raise ValueError(f"unknown vuln_pattern: {self.vuln_pattern!r}")


class _FnBuilder:
    """Emits one function, allocating canonical names in first-use order."""

    def __init__(self) -> None:
        self.n_loc = 0
        self.n_lbl = 0
        self.lines: list[str] = []

    def loc(self) -> str:
        self.n_loc += 1
        return f"%loc_{self.n_loc}"

    def lbl(self) -> str:
        self.n_lbl += 1
        return f"lbl_{self.n_lbl}"

    def op(self, text: str) -> None:
        self.lines.append("  " + text)

    def label_line(self, name: str) -> None:
        self.lines.append(name + ":")

    def render(self, ret_ty: str, name: str, params: str) -> str:
        head = f"define {ret_ty} @{name}({params}) {{"
        return "\n".join([head, *self.lines, "}"])


def _emit(
    source_name: str,
    ret_ty: str,
    params_ty: list[str],
    build_body,
    label: str = ir_corpus.LABEL_UNLABELED,
    cwe: str | None = None,
) -> IrFunction:
    b = _FnBuilder()
    param_names = [b.loc() for _ in params_ty]
    params = ", ".join(f"{t} {n}" for t, n in zip(params_ty, param_names))
    build_body(b, param_names)
    normalized = b.render(ret_ty, "func_1", params)
    raw = b.render(ret_ty, source_name, params)
    return IrFunction.from_normalized(
        source_name, normalized, raw_text=raw, label=label, cwe=cwe
    )


def _distractor(b: _FnBuilder, dst: str, src: str, rng: np.random.Generator) -> None:
    """Label-independent filler lines: guards, IO, arithmetic."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        g = int(rng.integers(8, 128))
        n = b.loc()
        b.op(f"{n} = call i64 @strlen(i8* {src})")
        cmp = b.loc()
        b.op(f"{cmp} = icmp ult i64 {n}, {g}")
        then_l, join_l = b.lbl(), b.lbl()
        b.op(f"br i1 {cmp}, label %{then_l}, label %{join_l}")
        b.label_line(then_l)
        b.op(f"call void @memset(i8* {dst}, i32 0, i64 {g})")
        b.op(f"br label %{join_l}")
        b.label_line(join_l)
    elif kind == 1:
        r = b.loc()
        b.op(f"{r} = call i32 @puts(i8* {src})")
    else:
        c1, c2 = int(rng.integers(1, 512)), int(rng.integers(1, 512))
        a = b.loc()
        b.op(f"{a} = xor i64 {c1}, {c2}")
        d = b.loc()
        b.op(f"{d} = add i64 {a}, {c1}")


def _copy_pair_body(uniq: int, buf: int, distract: bool, guarded: bool, pair_rng):
    """Body builder for one classifier sample; `guarded` picks the variant."""

    def build(b: _FnBuilder, params: list[str]) -> None:
        src = params[0]
        buf_ptr = b.loc()
        b.op(f"{buf_ptr} = alloca [{buf} x i8], align 1")
        dst = b.loc()
        b.op(f"{dst} = bitcast [{buf} x i8]* {buf_ptr} to i8*")
        n = b.loc()
        b.op(f"{n} = call i64 @strlen(i8* {src})")
        mark = b.loc()
        b.op(f"{mark} = add i64 {n}, {uniq}")
        if distract:
            _distractor(b, dst, src, pair_rng)
        r = b.loc()
        if guarded:
            b.op(f"{r} = call i8* @strncpy(i8* {dst}, i8* {src}, i64 {buf - 1})")
        else:
            b.op(f"{r} = call i8* @strcpy(i8* {dst}, i8* {src})")
        b.op("ret i32 0")

    return build


def _filler_body(uniq: int, rng: np.random.Generator):
    def build(b: _FnBuilder, params: list[str]) -> None:
        src, length = params[0], params[1]
        buf = int(rng.integers(8, 256))
        buf_ptr = b.loc()
        b.op(f"{buf_ptr} = alloca [{buf} x i8], align 1")
        dst = b.loc()
        b.op(f"{dst} = bitcast [{buf} x i8]* {buf_ptr} to i8*")
        mark = b.loc()
        b.op(f"{mark} = add i64 {length}, {uniq}")
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 6))
            if kind == 0:
                b.op(f"call void @memset(i8* {dst}, i32 0, i64 {buf})")
            elif kind == 1:
                r = b.loc()
                b.op(f"{r} = call i8* @strncpy(i8* {dst}, i8* {src}, i64 {buf - 1})")
            elif kind == 2:
                r = b.loc()
                b.op(f"{r} = call i8* @strcpy(i8* {dst}, i8* {src})")
            elif kind == 3:
                r = b.loc()
                b.op(f"{r} = call i32 @strcmp(i8* {dst}, i8* {src})")
            elif kind == 4:
                _distractor(b, dst, src, rng)
            else:
                r = b.loc()
                b.op(f"{r} = call i64 @strlen(i8* {src})")
        b.op("ret void")

    return build


def generate(spec: SynthSpec) -> Corpus:
    """Generate a labeled corpus, deterministic per spec (including seed)."""
    rng = make_rng(spec.seed, "synth")
    functions: list[IrFunction] = []
    uniq = 1000

    for i in range(spec.n_pairs):
        buf = int(rng.integers(16, 256))
        distract = bool(rng.random() > spec.signal_strength)
        pair_rng_seed = int(rng.integers(0, 2**63))
        base = f"CWE121_bulk_copy_{i:05d}"
        for suffix, guarded, label in (
            ("_bad", False, ir_corpus.LABEL_VULNERABLE),
            ("_goodG2B", True, ir_corpus.LABEL_CLEAN),
        ):
            # a fresh rng from the pair's seed keeps both variants' distractors byte-identical
            pair_rng = make_rng(pair_rng_seed, "pair-distractor")
            body = _copy_pair_body(uniq, buf, distract, guarded, pair_rng)
            functions.append(
                _emit(base + suffix, "i32", ["i8*"], body, label=label, cwe=CWE_ID)
            )
        uniq += 1

    for j in range(spec.n_extra_clean):
        buf = int(rng.integers(16, 256))
        distract = bool(rng.random() > spec.signal_strength)
        seed_j = int(rng.integers(0, 2**63))
        body = _copy_pair_body(uniq, buf, distract, True, make_rng(seed_j, "pair-distractor"))
        name = f"CWE121_bulk_copy_{spec.n_pairs + j:05d}_goodG2B"
        functions.append(
            _emit(name, "i32", ["i8*"], body, label=ir_corpus.LABEL_CLEAN, cwe=CWE_ID)
        )
        uniq += 1

    for k in range(spec.n_pool):
        prefix = _FILLER_PREFIXES[int(rng.integers(0, len(_FILLER_PREFIXES)))]
        name = f"{prefix}_{k:06d}"
        functions.append(
            _emit(name, "void", ["i8*", "i64"], _filler_body(uniq, rng))
        )
        uniq += 1

    corpus = Corpus(
        functions=tuple(functions),
        provenance=(
            f"synthetic(seed={spec.seed}, pool={spec.n_pool}, pairs={spec.n_pairs}, "
            f"extra_clean={spec.n_extra_clean}, signal={spec.signal_strength})"
        ),
    )
    return ir_corpus.filter_overlength(corpus)


def write_ll_files(corpus: Corpus, out_dir: str | Path) -> list[Path]:
    """Emit the corpus as `.ll` text consumable by the ingestion pipeline.

    Labeled functions go to cwe_samples.ll, the rest to pool.ll; file order
    matches corpus order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labeled = [f.raw_text for f in corpus if f.label != ir_corpus.LABEL_UNLABELED]
    filler = [f.raw_text for f in corpus if f.label == ir_corpus.LABEL_UNLABELED]
    paths = []
    for name, chunks in (("cwe_samples.ll", labeled), ("pool.ll", filler)):
        p = out / name
        p.write_text("\n\n".join(chunks) + "\n", encoding="utf-8")
        paths.append(p)
    return paths
