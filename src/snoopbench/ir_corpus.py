"""Lifted LLVM IR ingestion: isolate functions, normalize names, label, filter.

Normalization removes sample-unique identifiers so that functions differing
only in naming collapse to one canonical text (and therefore one content
hash). Four rename classes are used, each numbered by 1-based order of first
occurrence within the function being processed:

    @name  -> @func_N   when the name is defined or called here
    @name  -> @glob_N   otherwise
    %name  -> %lbl_N    when the name is a basic-block label
    %name  -> %loc_N    otherwise

Numeric literals, types (including `%struct.*`-style named types), opcodes,
`@llvm.*` intrinsics and a configurable allowlist of standard-library callees
are preserved, so vulnerability-relevant call patterns survive. Comments and
attribute-group references are stripped first; they are lifting artifacts.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusFormatError, MalformedModuleError
from .tokenizer import tokenize

LABEL_VULNERABLE = "vulnerable"
LABEL_CLEAN = "clean"
LABEL_UNLABELED = "unlabeled"

DEFAULT_MAX_TOKENS = 2048

# Callee names that must survive normalization. Lifters keep calls to the C
# runtime symbolic, and those calls carry the signal the classifier needs.
STDLIB_CALLEES = frozenset({
    "memcpy", "memmove", "memset", "memcmp", "bcopy", "bzero",
    "strcpy", "strncpy", "strcat", "strncat", "strcmp", "strncmp",
    "strlen", "strnlen", "strdup", "strchr", "strrchr", "strstr", "strtok",
    "sprintf", "snprintf", "vsprintf", "vsnprintf",
    "printf", "fprintf", "puts", "putchar", "getchar", "gets",
    "scanf", "fscanf", "sscanf", "fgets", "fputs", "fputc", "fgetc",
    "fopen", "fclose", "fread", "fwrite", "fflush", "fseek", "ftell",
    "malloc", "calloc", "realloc", "free", "alloca",
    "exit", "abort", "atexit", "atoi", "atol", "atof", "strtol", "strtoul",
    "rand", "srand", "time", "clock", "getenv", "system",
    "wcscpy", "wcsncpy", "wcslen", "wcscat", "memchr",
})

# clang and RetDec name aggregate types with these prefixes; such `%` names
# are types, not SSA values.
TYPE_NAME_PREFIXES = ("struct.", "union.", "class.")

_IDENT = r'"[^"]*"|[-A-Za-z$._0-9]+'
_DEFINE_RE = re.compile(r"^[ \t]*define\b", re.MULTILINE)
_DEFINED_NAME_RE = re.compile(r"define[^@\n]*@(" + _IDENT + r")")
_LABEL_USE_RE = re.compile(r"label\s+%(" + _IDENT + r")")
_LABEL_DEF_RE = re.compile(r"^(" + _IDENT + r"):", re.MULTILINE)
_AT_SYMBOL_RE = re.compile(r"@(" + _IDENT + r")")
_ATTR_REF_RE = re.compile(r" ?#\d+(?=[\s),]|$)")
# The bare-string alternative consumes literals not preceded by a sigil so
# their contents are never rewritten.
_RENAME_RE = re.compile(
    r'(?P<sym>[@%])(?P<name>"[^"]*"|[-A-Za-z$._0-9]+)'
    r'|^(?P<lbl>"[^"]*"|[-A-Za-z$._0-9]+):'
    r'|(?P<str>"[^"]*")',
    re.MULTILINE,
)


@dataclass(frozen=True)
class IrFunction:
    """One isolated, normalized, labeled IR function.

    `id` is the sha256 hex digest of `normalized_text`, so identity follows
    content, not file paths.
    """

    id: str
    source_name: str
    raw_text: str
    normalized_text: str
    token_count: int
    label: str = LABEL_UNLABELED
    cwe: str | None = None

    @classmethod
    def from_raw(
        cls,
        source_name: str,
        raw_text: str,
        label: str = LABEL_UNLABELED,
        cwe: str | None = None,
    ) -> "IrFunction":
        normalized = normalize_function(raw_text)
        return cls(
            id=content_hash(normalized),
            source_name=source_name,
            raw_text=raw_text,
            normalized_text=normalized,
            token_count=len(tokenize(normalized)),
            label=label,
            cwe=cwe,
        )

    @classmethod
    def from_normalized(
        cls,
        source_name: str,
        normalized_text: str,
        raw_text: str = "",
        label: str = LABEL_UNLABELED,
        cwe: str | None = None,
    ) -> "IrFunction":
        """Build from text that is already in normalized form (trusted caller)."""
        return cls(
            id=content_hash(normalized_text),
            source_name=source_name,
            raw_text=raw_text or normalized_text,
            normalized_text=normalized_text,
            token_count=len(tokenize(normalized_text)),
            label=label,
            cwe=cwe,
        )


@dataclass(frozen=True)
class Corpus:
    """Ordered, deduplicated collection of IrFunction records."""

    functions: tuple[IrFunction, ...]
    provenance: str = ""
    dropped_overlength: int = 0
    max_tokens: int | None = None

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self) -> Iterator[IrFunction]:
        return iter(self.functions)

    def ids(self) -> set[str]:
        return {f.id for f in self.functions}

    def by_id(self) -> dict[str, IrFunction]:
        return {f.id: f for f in self.functions}

    def digest(self) -> str:
        """Content hash over function ids in corpus order."""
        h = hashlib.sha256()
        for f in self.functions:
            h.update(f.id.encode("ascii"))
        return h.hexdigest()


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Function extraction
# ---------------------------------------------------------------------------

def extract_functions(module_text: str) -> list[tuple[str, str]]:
    """Isolate every `define` block from textual IR.

    Returns (source_name, raw_text) pairs in file order, raw_text verbatim
    including the closing brace. Declarations and module-level metadata are
    skipped. Braces inside double-quoted strings do not count toward balance
    (LLVM escapes quotes as \\22, so a quote always toggles string state),
    and `;` comments are ignored up to end of line.

    Raises MalformedModuleError naming the byte offset of the opening brace
    of a function that is never closed.
    """
    out: list[tuple[str, str]] = []
    pos = 0
    while True:
        m = _DEFINE_RE.search(module_text, pos)
        if m is None:
            break
        start = m.end() - len("define")
        brace = _scan(module_text, m.end(), stop_at_open=True)
        if brace is None:
            raise MalformedModuleError(
                f"define at byte offset {start} has no opening brace"
            )
        end = _scan(module_text, brace, stop_at_open=False)
        if end is None:
            raise MalformedModuleError(
                "unbalanced braces at end of input: opening brace at byte "
                f"offset {brace} is never closed"
            )
        raw = module_text[start : end + 1]
        name_m = _DEFINED_NAME_RE.search(raw)
        name = _unquote(name_m.group(1)) if name_m else ""
        out.append((name, raw))
        pos = end + 1
    return out


def _scan(text: str, start: int, stop_at_open: bool) -> int | None:
    """Quote- and comment-aware brace scan.

    With stop_at_open, returns the index of the first top-level '{'.
    Otherwise `start` must point at an opening brace; returns the index of
    the matching '}'.
    """
    depth = 0
    in_string = False
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            in_string = not in_string
        elif not in_string:
            if ch == ";":
                nl = text.find("\n", i)
                if nl == -1:
                    return None
                i = nl
            elif ch == "{":
                if stop_at_open:
                    return i
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0 and not stop_at_open:
                    return i
        i += 1
    return None


def _unquote(name: str) -> str:
    if name.startswith('"') and name.endswith('"') and len(name) >= 2:
        return name[1:-1]
    return name


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_function(raw_text: str, stdlib_callees: frozenset[str] = STDLIB_CALLEES) -> str:
    """Rewrite one extracted function into canonical normalized form.

    Idempotent: already-normalized text maps to itself. Unrecognized
    constructs pass through unchanged.
    """
    text = _strip_comments_and_attrs(raw_text)

    # Classify every @-name up front so renaming stays consistent per name:
    # a name is a function if it is ever directly called or is the symbol
    # being defined, otherwise a global.
    func_names: set[str] = set()
    for m in _AT_SYMBOL_RE.finditer(text):
        if re.match(r"[ \t]*\(", text[m.end():]):
            func_names.add(_unquote(m.group(1)))
    dm = _DEFINED_NAME_RE.search(text)
    if dm:
        func_names.add(_unquote(dm.group(1)))

    label_names = {_unquote(m.group(1)) for m in _LABEL_USE_RE.finditer(text)}
    label_names.update(_unquote(m.group(1)) for m in _LABEL_DEF_RE.finditer(text))

    rename: dict[tuple[str, str], str] = {}
    counters = {"func": 0, "glob": 0, "loc": 0, "lbl": 0}

    def assign(kind: str, name: str) -> str:
        key = (kind, name)
        new = rename.get(key)
        if new is None:
            counters[kind] += 1
            new = f"{kind}_{counters[kind]}"
            rename[key] = new
        return new

    def substitute(m: re.Match[str]) -> str:
        if m.group("str") is not None:
            return m.group(0)
        lbl = m.group("lbl")
        if lbl is not None:
            return assign("lbl", _unquote(lbl)) + ":"
        sigil = m.group("sym")
        name = _unquote(m.group("name"))
        if sigil == "@":
            if name in stdlib_callees or name.startswith("llvm."):
                return m.group(0)
            kind = "func" if name in func_names else "glob"
            return "@" + assign(kind, name)
        if name.startswith(TYPE_NAME_PREFIXES):
            return m.group(0)
        if name in label_names:
            return "%" + assign("lbl", name)
        return "%" + assign("loc", name)

    # A single pass keeps first-occurrence numbering in strict text order
    # across sigiled uses and bare label-definition lines.
    return _RENAME_RE.sub(substitute, text)


def _strip_comments_and_attrs(text: str) -> str:
    out_lines: list[str] = []
    for line in text.splitlines():
        kept: list[str] = []
        in_string = False
        for ch in line:
            if ch == '"':
                in_string = not in_string
            if ch == ";" and not in_string:
                break
            kept.append(ch)
        cleaned = _strip_attr_refs("".join(kept)).rstrip()
        if cleaned:
            out_lines.append(cleaned)
    return "\n".join(out_lines)


def _strip_attr_refs(line: str) -> str:
    if "#" not in line:
        return line
    parts: list[str] = []
    in_string = False
    start = 0
    for i, ch in enumerate(line):
        if ch != '"':
            continue
        if in_string:
            parts.append(line[start : i + 1])
        else:
            parts.append(_ATTR_REF_RE.sub("", line[start:i]) + '"')
        start = i + 1
        in_string = not in_string
    tail = line[start:]
    parts.append(tail if in_string else _ATTR_REF_RE.sub("", tail))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelingRules:
    """Name-pattern labeling in the Juliet convention.

    A function is labeled only when its name carries a CWE tag; `bad` marks
    the vulnerable variant and `good` the remediated one. Everything else is
    unlabeled (library helpers, support code).
    """

    vulnerable_substring: str = "bad"
    clean_substring: str = "good"
    cwe_prefix: str = r"CWE(\d+)"

    def apply(self, source_name: str) -> tuple[str, str | None]:
        m = re.match(self.cwe_prefix, source_name)
        cwe = f"CWE-{m.group(1)}" if m else None
        if cwe is not None:
            if self.vulnerable_substring in source_name:
                return LABEL_VULNERABLE, cwe
            if self.clean_substring in source_name:
                return LABEL_CLEAN, cwe
        return LABEL_UNLABELED, cwe


DEFAULT_LABELING = LabelingRules()


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

def build_corpus(
    named_modules: Iterable[tuple[str, str]],
    provenance: str = "",
    rules: LabelingRules = DEFAULT_LABELING,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> Corpus:
    """Extract, normalize, label and filter functions from (name, text) modules.

    Modules are processed in the given order; records are ordered by
    (module name, position). Duplicate normalized content keeps the first
    occurrence.
    """
    functions: list[IrFunction] = []
    seen: set[str] = set()
    for _module_name, module_text in named_modules:
        for source_name, raw in extract_functions(module_text):
            label, cwe = rules.apply(source_name)
            fn = IrFunction.from_raw(source_name, raw, label=label, cwe=cwe)
            if fn.id in seen:
                continue
            seen.add(fn.id)
            functions.append(fn)
    corpus = Corpus(functions=tuple(functions), provenance=provenance)
    return filter_overlength(corpus, max_tokens=max_tokens)


def ingest_dir(
    path: str | Path,
    provenance: str | None = None,
    rules: LabelingRules = DEFAULT_LABELING,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> Corpus:
    """Build a corpus from every `.ll` file in a directory (sorted by name)."""
    root = Path(path)
    files = sorted(p for p in root.iterdir() if p.suffix == ".ll")
    modules = ((p.name, p.read_text(encoding="utf-8")) for p in files)
    return build_corpus(
        modules,
        provenance=provenance if provenance is not None else str(root),
        rules=rules,
        max_tokens=max_tokens,
    )


def filter_overlength(corpus: Corpus, max_tokens: int = DEFAULT_MAX_TOKENS) -> Corpus:
    """Drop functions whose token_count exceeds max_tokens.

    The exclusion count accumulates onto dropped_overlength; retained plus
    dropped partition the input.
    """
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    kept = tuple(f for f in corpus.functions if f.token_count <= max_tokens)
    dropped = len(corpus.functions) - len(kept)
    return replace(
        corpus,
        functions=kept,
        dropped_overlength=corpus.dropped_overlength + dropped,
        max_tokens=max_tokens,
    )


# ---------------------------------------------------------------------------
# Corpus file I/O (one JSON record per line)
# ---------------------------------------------------------------------------

def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one record per function.

    A cut other than DEFAULT_MAX_TOKENS is stored on every record as
    `max_tokens`, so `read_corpus` restores it; files with the standard cut
    keep the plain record format.
    """
    cut = corpus.max_tokens if corpus.max_tokens != DEFAULT_MAX_TOKENS else None
    with Path(path).open("w", encoding="utf-8") as fh:
        for f in corpus.functions:
            record = {
                "id": f.id,
                "source_name": f.source_name,
                "normalized_text": f.normalized_text,
                "token_count": f.token_count,
                "label": f.label,
                "cwe": f.cwe,
            }
            if cut is not None:
                record["max_tokens"] = cut
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_corpus(path: str | Path, provenance: str | None = None) -> Corpus:
    """Read a corpus file and the token-length cut it was made with.

    The cut is the records' `max_tokens`, or DEFAULT_MAX_TOKENS where they
    carry none. It is recorded on the corpus, so every partition built from
    the file declares it, whichever entry point reads the file. A record over
    the cut is a CorpusFormatError, never a silent drop.

    Each record's `id` is recomputed from its `normalized_text`, since
    manifests and audits identify samples by it; a stale or a duplicate id is
    a CorpusFormatError naming the record, as is a malformed line or field.
    `token_count` must be an integer, but its value is trusted: on a
    paper-scale file (52k records, 2-core VM) re-hashing costs about 0.05 s
    of a 0.42 s read, while re-tokenizing would add about 0.57 s.
    """
    functions: list[IrFunction] = []
    seen: set[str] = set()
    cuts: set[int] = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                fn = IrFunction(
                    id=rec["id"],
                    source_name=rec["source_name"],
                    raw_text="",
                    normalized_text=rec["normalized_text"],
                    token_count=rec["token_count"],
                    label=rec["label"],
                    cwe=rec.get("cwe"),
                )
                cuts.add(rec.get("max_tokens", DEFAULT_MAX_TOKENS))
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: not a corpus record: {exc!r}") from None
            if not isinstance(fn.normalized_text, str) or type(fn.token_count) is not int:
                raise CorpusFormatError(
                    f"{path}:{lineno}: normalized_text must be a string and token_count an integer"
                )
            if content_hash(fn.normalized_text) != fn.id:
                raise CorpusFormatError(
                    f"{path}:{lineno}: the id of {fn.source_name} is not the sha256 "
                    "of its normalized_text"
                )
            if fn.id in seen:
                raise CorpusFormatError(
                    f"{path}:{lineno}: {fn.source_name} has a duplicate id {fn.id}"
                )
            seen.add(fn.id)
            functions.append(fn)
    if len(cuts) > 1:
        raise CorpusFormatError(f"{path}: records declare different length cuts {sorted(cuts)}")
    max_tokens = cuts.pop() if cuts else DEFAULT_MAX_TOKENS
    for f in functions:
        if f.token_count > max_tokens:
            raise CorpusFormatError(
                f"{path}: {f.source_name} has {f.token_count} tokens, over the file's "
                f"{max_tokens}-token cut; re-ingest to record the cut it was made with"
            )
    return Corpus(
        functions=tuple(functions),
        provenance=provenance if provenance is not None else str(path),
        max_tokens=max_tokens,
    )
