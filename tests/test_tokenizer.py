"""Tokenization, vocabulary and encoding."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoopbench.errors import EmptyInputError, VocabFormatError
from snoopbench.seeding import make_rng
from snoopbench.tokenizer import (
    PAD_ID,
    PUNCT_CHARS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    tokenize,
)


def oracle_tokenize(text: str) -> list[str]:
    """Second independent splitter: explicit character scan."""
    out: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch.isspace():
            if current:
                out.append("".join(current))
                current = []
        elif ch in PUNCT_CHARS:
            if current:
                out.append("".join(current))
                current = []
            out.append(ch)
        else:
            current.append(ch)
    if current:
        out.append("".join(current))
    return out


class TestTokenize:
    def test_store_line(self):
        assert tokenize("store i32 0, i32* %loc_1") == [
            "store", "i32", "0", ",", "i32", "*", "%loc_1",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_call_line_matches_independent_splitter(self):
        # hand-tokenized and cross-checked with oracle_tokenize: 8 tokens
        line = "call void @func_2(i8* %loc_3)"
        expected = ["call", "void", "@func_2", "(", "i8", "*", "%loc_3", ")"]
        assert oracle_tokenize(line) == expected
        got = tokenize(line)
        assert got == expected
        assert len(got) == 8
        assert got[-1] == ")"

    def test_agreement_with_oracle_on_ir_lines(self):
        lines = [
            "%loc_1 = alloca [48 x i8], align 1",
            "br i1 %loc_5, label %lbl_2, label %lbl_3",
            "%loc_2 = icmp ult i64 %loc_1, 48",
            "switch i32 %v, label %d [ i32 0, label %a ]",
            "!dbg !7",
        ]
        for line in lines:
            assert tokenize(line) == oracle_tokenize(line)

    @given(st.text(alphabet=" abc%@_.0123()[]{},=*<>!\n\t", max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_total_and_matches_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.text(alphabet=" abc%@_.0123()[]{},=*<>!\n", max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_space_join_round_trip(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestVocabulary:
    def test_five_distinct_tokens(self):
        vocab = build_vocab([["a", "b", "c", "d", "e"]])
        assert len(vocab) == 5

    def test_min_count_excludes_singleton(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.tokens == ("a",)

    def test_empty_corpus_errors(self):
        with pytest.raises(EmptyInputError):
            build_vocab([])
        with pytest.raises(EmptyInputError):
            build_vocab([[], []])

    def test_counts_match_bruteforce_oracle(self):
        rng = make_rng(3, "vocab")
        alphabet = [f"tok{i}" for i in range(40)]
        corpus = [
            [alphabet[int(rng.integers(0, 40))] for _ in range(20)]
            for _ in range(1000)
        ]
        vocab = build_vocab(corpus)
        oracle = Counter()
        for seq in corpus:
            oracle.update(seq)
        assert vocab.counts == dict(oracle)
        assert set(vocab.tokens) == set(oracle)

    def test_order_descending_count_then_lexicographic(self):
        vocab = build_vocab([["b", "b", "a", "a", "c"]])
        assert vocab.tokens == ("a", "b", "c")
        assert vocab.index == {"a": 2, "b": 3, "c": 4}

    def test_order_independence_under_permutation(self):
        rng = make_rng(9, "perm")
        corpus = [[f"t{int(rng.integers(0, 12))}" for _ in range(8)] for _ in range(50)]
        v1 = build_vocab(corpus)
        order = rng.permutation(len(corpus))
        v2 = build_vocab([corpus[i] for i in order])
        assert v1.tokens == v2.tokens
        assert v1.counts == v2.counts
        assert v1.identity_hash() == v2.identity_hash()

    def test_reserved_ids(self):
        vocab = build_vocab([["x"]])
        assert PAD_ID == 0 and UNK_ID == 1
        assert vocab.index["x"] == 2

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab([["b", "b", "a"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1] == "b\t2"
        back = Vocabulary.load(path)
        assert back.tokens == vocab.tokens
        assert back.counts == vocab.counts
        assert back.identity_hash() == vocab.identity_hash()

    @pytest.mark.parametrize("text, where", [
        ("", r"vocab.tsv:1: header"),
        ("x 2\nb\t2\na\t1\n", r"vocab.tsv:1: header"),
        ("2 3\nb\t2\na\t1\n", r"vocab.tsv:1: header"),
        ("2 2\nb 2\na\t1\n", r"vocab.tsv:2: .*'b 2'"),
        ("2 2\nb\t2\na\tone\n", r"vocab.tsv:3: .*'a\\tone'"),
        ("2 2\nb\t2\nb\t1\n", r"vocab.tsv:3: "),
        ("3 2\nb\t2\na\t1\n", r"vocab.tsv:1: header promises 3 tokens, found 2"),
        ("1 2\nb\t2\na\t1\n", r"vocab.tsv:1: header promises 1 tokens, found 2"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "vocab.tsv"
        path.write_text(text)
        with pytest.raises(VocabFormatError, match=where):
            Vocabulary.load(path)


class TestEncode:
    def test_known_round_trip(self):
        vocab = build_vocab([["a", "b", "c"]])
        ids = encode(["c", "a", "b"], vocab)
        assert decode(ids, vocab) == ["c", "a", "b"]

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab([["a"]])
        assert encode(["a", "mystery"], vocab) == [2, UNK_ID]

    def test_length_preserved_on_long_mixed_sequence(self):
        vocab = build_vocab([["a", "b"]])
        rng = make_rng(1, "enc")
        seq = [["a", "b", "zzz"][int(rng.integers(0, 3))] for _ in range(2048)]
        ids = encode(seq, vocab)
        assert len(ids) == 2048

    @given(st.lists(st.sampled_from(["a", "b", "c", "qq"]), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_length_preservation_property(self, seq):
        vocab = build_vocab([["a", "b", "c"]])
        assert len(encode(seq, vocab)) == len(seq)
