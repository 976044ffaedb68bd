"""Extraction, normalization, labeling and length filtering."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoopbench.errors import CorpusFormatError, MalformedModuleError
from snoopbench.ir_corpus import (
    DEFAULT_LABELING,
    DEFAULT_MAX_TOKENS,
    Corpus,
    IrFunction,
    build_corpus,
    content_hash,
    extract_functions,
    filter_overlength,
    ingest_dir,
    normalize_function,
    read_corpus,
    write_corpus,
)
from snoopbench.tokenizer import tokenize

from conftest import make_fn

TWO_FUNCTION_MODULE = """\
; ModuleID = 'two.c'
target triple = "x86_64-unknown-linux-gnu"

declare i32 @printf(i8*)

define i32 @first(i32 %x) {
entry:
  %y = add i32 %x, 1
  ret i32 %y
}

@gvar = global i32 0

define void @second() {
  ret void
}
"""

STRING_BRACE_MODULE = """\
define void @with_string() {
entry:
  %p = getelementptr [12 x i8], [12 x i8]* @msg, i64 0, i64 0
  call i32 @printf(i8* %p)
  ret void
}
"""


def oracle_brace_balance(text: str) -> int:
    """Independent stack-based brace matcher (quote-aware)."""
    depth = 0
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        elif not in_string:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
    return depth


class TestExtraction:
    def test_two_defines_in_file_order(self):
        fns = extract_functions(TWO_FUNCTION_MODULE)
        assert [name for name, _ in fns] == ["first", "second"]
        assert fns[0][1].startswith("define i32 @first")
        assert fns[0][1].endswith("}")

    def test_empty_module(self):
        assert extract_functions("") == []

    def test_declarations_not_returned(self):
        fns = extract_functions("declare i32 @printf(i8*)\n")
        assert fns == []

    def test_nested_brace_inside_string_literal(self):
        # expected values derived with the independent brace matcher
        literal = 'c"brace { inside \\22 }x"'
        mod = (
            "define void @s() {\n"
            f"  %v = call i32 @use(i8* getelementptr inbounds ({literal}))\n"
            "  ret void\n"
            "}\n"
        )
        assert oracle_brace_balance(mod) == 0
        fns = extract_functions(mod)
        assert len(fns) == 1
        assert literal in fns[0][1]

    def test_unbalanced_braces_error_names_offset(self):
        mod = "define void @broken() {\n  ret void\n"
        offset = mod.index("{")
        with pytest.raises(MalformedModuleError) as exc:
            extract_functions(mod)
        assert str(offset) in str(exc.value)

    def test_comment_braces_ignored(self):
        mod = "define void @c() {\n  ; a comment with { brace\n  ret void\n}\n"
        fns = extract_functions(mod)
        assert len(fns) == 1


HEADER_BODY = """\
define i32 @Unique_Function_Name(i32 %count) {
entry:
  %b = call i32 @helper(i32 %count)
  %c = call i32 @helper(i32 %b)
  ret i32 %c
}"""


def oracle_two_pass_rename(text: str) -> str:
    """Independent rename oracle: collect first-occurrence order of plain
    %-locals, then substitute in a second pass."""
    order: list[str] = []
    for m in re.finditer(r"%([A-Za-z_][A-Za-z0-9_]*)", text):
        if m.group(1) not in order:
            order.append(m.group(1))
    out = text
    for n, name in enumerate(order, start=1):
        out = re.sub(rf"%{re.escape(name)}\b", f"%loc_{n}", out)
    return out


class TestNormalization:
    def test_header_and_callee_renamed_in_order(self):
        norm = normalize_function(HEADER_BODY)
        assert "@func_1(" in norm.splitlines()[0]
        assert norm.count("@func_2") == 2
        assert "Unique_Function_Name" not in norm
        assert "helper" not in norm

    def test_idempotence_on_fixtures(self):
        fixtures = [HEADER_BODY] + [raw for _, raw in extract_functions(TWO_FUNCTION_MODULE)]
        for raw in fixtures:
            once = normalize_function(raw)
            assert normalize_function(once) == once

    def test_locals_first_occurrence_numbering(self):
        raw = "define void @f(i32 %a, i32 %b) {\n  store i32 %a, i32* %b\n  ret void\n}"
        norm = normalize_function(raw)
        # derived with the independent two-pass oracle on the body
        assert "(i32 %loc_1, i32 %loc_2)" in norm
        assert "store i32 %loc_1, i32* %loc_2" in norm
        body = "%a %b %a"
        assert oracle_two_pass_rename(body) == "%loc_1 %loc_2 %loc_1"

    def test_rename_consistency_token_positions(self):
        # multiset of positions of each original name equals its replacement's
        raw = "define void @f(i32 %a, i32 %b) {\n  %c = add i32 %a, %b\n  %d = add i32 %c, %a\n  ret void\n}"
        norm = normalize_function(raw)
        raw_toks = tokenize(raw)
        norm_toks = tokenize(norm)
        assert len(raw_toks) == len(norm_toks)
        positions_raw = [i for i, t in enumerate(raw_toks) if t == "%a"]
        replacement = norm_toks[positions_raw[0]]
        positions_norm = [i for i, t in enumerate(norm_toks) if t == replacement]
        assert positions_raw == positions_norm

    def test_alpha_equivalence_collapse(self):
        a = "define i32 @alpha(i32 %x) {\n  %y = add i32 %x, 7\n  ret i32 %y\n}"
        b = "define i32 @omega(i32 %q) {\n  %r = add i32 %q, 7\n  ret i32 %r\n}"
        na, nb = normalize_function(a), normalize_function(b)
        assert na == nb
        assert content_hash(na) == content_hash(nb)

    def test_stdlib_and_intrinsics_preserved(self):
        raw = (
            "define void @f(i8* %p) {\n"
            "  %r = call i8* @strcpy(i8* %p, i8* %p)\n"
            "  call void @llvm.memset.p0i8.i64(i8* %p, i8 0, i64 4, i1 false)\n"
            "  ret void\n}"
        )
        norm = normalize_function(raw)
        assert "@strcpy" in norm
        assert "@llvm.memset.p0i8.i64" in norm

    def test_struct_type_names_preserved(self):
        raw = "define void @f() {\n  %p = alloca %struct.pair, align 8\n  ret void\n}"
        norm = normalize_function(raw)
        assert "%struct.pair" in norm
        assert "%loc_1 = alloca" in norm

    def test_labels_renamed_uses_and_defs(self):
        raw = (
            "define void @f(i1 %c) {\n"
            "entry:\n"
            "  br i1 %c, label %then, label %done\n"
            "then:\n"
            "  br label %done\n"
            "done:\n"
            "  ret void\n}"
        )
        norm = normalize_function(raw)
        assert "lbl_1:" in norm and "lbl_2:" in norm and "lbl_3:" in norm
        assert "label %lbl_2, label %lbl_3" in norm
        assert "then" not in norm

    def test_globals_renamed(self):
        raw = "define void @f() {\n  %v = load i32, i32* @counter\n  ret void\n}"
        assert "@glob_1" in normalize_function(raw)

    def test_comments_and_attr_groups_stripped(self):
        raw = "define void @f() #0 {\n  ; full comment line\n  ret void  ; trailing\n}"
        norm = normalize_function(raw)
        assert ";" not in norm
        assert "#0" not in norm
        assert "ret void" in norm

    def test_string_literal_contents_untouched(self):
        raw = 'define void @f() {\n  %p = call i8* @use(i8* c"keep %name @sym")\n  ret void\n}'
        norm = normalize_function(raw)
        assert 'c"keep %name @sym"' in norm

    def test_unrecognized_constructs_pass_through(self):
        raw = "define void @f() {\n  unknownop i99 flag7\n  ret void\n}"
        assert "unknownop i99 flag7" in normalize_function(raw)

    @given(
        names=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=1, max_size=5, unique=True
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, names):
        body = "\n".join(f"  %{n} = add i32 %{names[0]}, 1" for n in names)
        raw = f"define void @fn_{'_'.join(names)}() {{\n{body}\n  ret void\n}}"
        once = normalize_function(raw)
        assert normalize_function(once) == once


class TestLabeling:
    def test_bad_variant(self):
        assert DEFAULT_LABELING.apply("CWE121_memcpy_01_bad") == ("vulnerable", "CWE-121")

    def test_good_variant(self):
        assert DEFAULT_LABELING.apply("CWE121_memcpy_01_goodG2B") == ("clean", "CWE-121")

    def test_helper_unlabeled(self):
        assert DEFAULT_LABELING.apply("printLine") == ("unlabeled", None)

    def test_cwe_tag_without_variant(self):
        label, cwe = DEFAULT_LABELING.apply("CWE121_support")
        assert label == "unlabeled"
        assert cwe == "CWE-121"


def _fn_with_tokens(n: int, tag: str) -> IrFunction:
    # one token per word; the tag keeps contents distinct
    return make_fn(" ".join([tag] + ["nop"] * (n - 1)))


class TestFilterOverlength:
    def test_paper_scale_exclusion_counts(self):
        fns = [_fn_with_tokens(10, f"s{i}") for i in range(3802)]
        fns += [_fn_with_tokens(2049, f"l{i}") for i in range(99)]
        corpus = Corpus(functions=tuple(fns), provenance="t")
        out = filter_overlength(corpus, max_tokens=2048)
        assert len(out) == 3802
        assert out.dropped_overlength == 99

    def test_all_under_limit_unchanged(self):
        corpus = Corpus(functions=tuple(_fn_with_tokens(5, f"x{i}") for i in range(4)))
        out = filter_overlength(corpus)
        assert out.functions == corpus.functions
        assert out.dropped_overlength == 0

    def test_exactly_one_over_limit(self):
        # independent splitter confirms the crafted function's length
        text = " ".join(["tok"] * 2049)
        assert len(text.split()) == 2049
        over = make_fn(text)
        under = _fn_with_tokens(2048, "ok")
        corpus = Corpus(functions=(over, under))
        out = filter_overlength(corpus, max_tokens=2048)
        assert [f.id for f in out] == [under.id]
        assert out.dropped_overlength == 1

    def test_partition_property(self):
        fns = [_fn_with_tokens(n, f"p{n}") for n in (1, 5, 9, 13)]
        corpus = Corpus(functions=tuple(fns))
        out = filter_overlength(corpus, max_tokens=8)
        retained = {f.id for f in out}
        dropped = {f.id for f in fns} - retained
        assert len(retained) + len(dropped) == len(fns)
        assert all(f.token_count <= 8 for f in out)
        assert out.dropped_overlength == len(dropped)


class TestCorpusAssembly:
    def test_duplicates_removed_first_kept(self):
        mod = (
            "define i32 @one(i32 %x) {\n  ret i32 %x\n}\n"
            "define i32 @two(i32 %y) {\n  ret i32 %y\n}\n"
        )
        corpus = build_corpus([("m.ll", mod)])
        assert len(corpus) == 1
        assert corpus.functions[0].source_name == "one"

    def test_id_is_pure_function_of_normalized_text(self):
        corpus = build_corpus([("m.ll", TWO_FUNCTION_MODULE)])
        for f in corpus:
            assert f.id == content_hash(f.normalized_text)
            assert f.token_count == len(tokenize(f.normalized_text))

    def test_ingest_dir_ordering(self, tmp_path):
        (tmp_path / "b.ll").write_text("define void @bb() {\n  ret void\n}\n")
        (tmp_path / "a.ll").write_text("define void @aa(i32 %z) {\n  ret void\n}\n")
        corpus = ingest_dir(tmp_path)
        assert [f.source_name for f in corpus] == ["aa", "bb"]

    def test_corpus_file_round_trip(self, tmp_path):
        corpus = build_corpus([("m.ll", TWO_FUNCTION_MODULE)], provenance="two")
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert [f.id for f in back] == [f.id for f in corpus]
        assert [f.normalized_text for f in back] == [f.normalized_text for f in corpus]

    def test_corpus_file_records_the_standard_cut_in_the_plain_format(self, tmp_path):
        corpus = build_corpus([("m.ll", TWO_FUNCTION_MODULE)])
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert all("max_tokens" not in json.loads(line) for line in path.read_text().splitlines())
        assert read_corpus(path).max_tokens == DEFAULT_MAX_TOKENS

    def test_corpus_file_keeps_a_larger_cut(self, tmp_path):
        body = "".join(f"  %v{i} = add i32 %x, {i}\n" for i in range(DEFAULT_MAX_TOKENS // 6))
        module = "define i32 @long(i32 %x) {\n" + body + "  ret i32 %x\n}\n"
        (tmp_path / "m.ll").write_text(TWO_FUNCTION_MODULE + module)
        assert [f.source_name for f in ingest_dir(tmp_path)] == ["first", "second"]
        corpus = ingest_dir(tmp_path, max_tokens=2 * DEFAULT_MAX_TOKENS)
        assert corpus.functions[-1].token_count > DEFAULT_MAX_TOKENS
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert [f.id for f in back] == [f.id for f in corpus]
        assert back.max_tokens == 2 * DEFAULT_MAX_TOKENS

    def test_corpus_file_with_a_record_over_its_cut_is_rejected(self, tmp_path):
        short = make_fn("define void @f() {\n  ret void\n}")
        long = make_fn("define void @g() {\n" + "  ret void\n" * DEFAULT_MAX_TOKENS + "}")
        assert short.token_count <= DEFAULT_MAX_TOKENS < long.token_count
        path = tmp_path / "corpus.jsonl"
        # an uncut corpus declares no cut, so the file is read at the standard one
        write_corpus(Corpus(functions=(short, long)), path)
        with pytest.raises(CorpusFormatError, match="over the file's 2048-token cut"):
            read_corpus(path)

    def test_corpus_file_with_mixed_cuts_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(build_corpus([("m.ll", TWO_FUNCTION_MODULE)], max_tokens=4096), path)
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["max_tokens"] = 1024
        path.write_text("\n".join([json.dumps(first, sort_keys=True)] + lines[1:]) + "\n")
        with pytest.raises(CorpusFormatError, match="different length cuts"):
            read_corpus(path)

    def test_corpus_file_rejects_duplicate_ids(self, tmp_path):
        corpus = build_corpus([("m.ll", TWO_FUNCTION_MODULE)])
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        line = path.read_text().splitlines()[0]
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(CorpusFormatError, match=r"corpus.jsonl:2: first has a duplicate id"):
            read_corpus(path)

    @pytest.mark.parametrize("field, value", [("normalized_text", 5), ("token_count", "5")])
    def test_corpus_file_with_a_wrong_typed_field_is_rejected(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        write_corpus(build_corpus([("m.ll", TWO_FUNCTION_MODULE)]), path)
        lines = path.read_text().splitlines()
        second = json.loads(lines[1])
        second[field] = value
        path.write_text("\n".join([lines[0], json.dumps(second, sort_keys=True)]) + "\n")
        with pytest.raises(CorpusFormatError, match="corpus.jsonl:2: normalized_text must be"):
            read_corpus(path)

    def test_corpus_file_with_a_stale_id_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(build_corpus([("m.ll", TWO_FUNCTION_MODULE)]), path)
        lines = path.read_text().splitlines()
        second = json.loads(lines[1])
        second["normalized_text"] += "\n  ret void"
        path.write_text("\n".join([lines[0], json.dumps(second, sort_keys=True)]) + "\n")
        with pytest.raises(CorpusFormatError, match="corpus.jsonl:2: the id of second is not"):
            read_corpus(path)
