"""Tokenization, vocabulary construction, and integer encoding for normalized IR.

Normalized IR has a closed, regular surface form, so the tokenizer is a plain
whitespace split with a fixed set of punctuation characters broken out as
single-character tokens. Ids 0 and 1 are reserved for padding and unknown.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyInputError, VocabFormatError

PAD_ID = 0
UNK_ID = 1
RESERVED_IDS = 2

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Characters split off as single-character tokens; everything else glues into
# maximal non-whitespace runs, so sigil-prefixed identifiers, opcodes, types
# and numeric literals survive whole.
PUNCT_CHARS = "()[]{},=*<>!"

_TOKEN_RE = re.compile(r"[()\[\]{},=*<>!]|[^()\[\]{},=*<>!\s]+")


def tokenize(text: str) -> list[str]:
    """Split text into IR tokens. Total and deterministic."""
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Vocabulary:
    """Token table with reserved ids 0 (pad) and 1 (unknown).

    Real tokens occupy ids 2..len(tokens)+1 in descending-count order, ties
    broken lexicographically, so identical corpora build identical tables.
    """

    tokens: tuple[str, ...]
    counts: dict[str, int]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_counts(cls, counts: dict[str, int], min_count: int = 1) -> "Vocabulary":
        kept = {t: c for t, c in counts.items() if c >= min_count}
        ordered = tuple(sorted(kept, key=lambda t: (-kept[t], t)))
        index = {t: i + RESERVED_IDS for i, t in enumerate(ordered)}
        return cls(tokens=ordered, counts={t: kept[t] for t in ordered}, index=index)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def size_with_reserved(self) -> int:
        return len(self.tokens) + RESERVED_IDS

    def token_of(self, token_id: int) -> str:
        if token_id == PAD_ID:
            return PAD_TOKEN
        if token_id == UNK_ID:
            return UNK_TOKEN
        return self.tokens[token_id - RESERVED_IDS]

    def identity_hash(self) -> str:
        payload = "\n".join(f"{t}\t{self.counts[t]}" for t in self.tokens)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        lines = [f"{len(self.tokens)} {RESERVED_IDS}"]
        lines.extend(f"{t}\t{self.counts[t]}" for t in self.tokens)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by `save`; any deviation is a VocabFormatError."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split() if lines else []
        if len(header) != 2 or not header[0].isdecimal() or header[1] != str(RESERVED_IDS):
            raise VocabFormatError(
                f"{path}:1: header must be '<n_tokens> {RESERVED_IDS}', "
                f"got {lines[0] if lines else ''!r}"
            )
        n = int(header[0])
        if len(lines) - 1 != n:
            raise VocabFormatError(f"{path}:1: header promises {n} tokens, found {len(lines) - 1}")
        counts: dict[str, int] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            token, tab, count = line.partition("\t")
            if not tab or not token or not count.isdecimal() or token in counts:
                raise VocabFormatError(
                    f"{path}:{lineno}: want a new 'token<TAB>count', got {line!r}"
                )
            counts[token] = int(count)
        tokens = tuple(counts)
        index = {t: i + RESERVED_IDS for i, t in enumerate(tokens)}
        return cls(tokens=tokens, counts=counts, index=index)


def build_vocab(token_sequences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens over all sequences and build a vocabulary.

    Raises EmptyInputError when no sequences (or only empty ones) are given.
    """
    if min_count < 1:
        raise ValueError("min_count must be positive")
    counts: Counter[str] = Counter()
    saw_any = False
    for seq in token_sequences:
        saw_any = True
        counts.update(seq)
    if not saw_any or not counts:
        raise EmptyInputError("cannot build a vocabulary from an empty corpus")
    return Vocabulary.from_counts(dict(counts), min_count=min_count)


def encode(tokens: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids; out-of-vocabulary tokens become UNK_ID."""
    index = vocab.index
    return [index.get(t, UNK_ID) for t in tokens]


def decode(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    return [vocab.token_of(i) for i in ids]
