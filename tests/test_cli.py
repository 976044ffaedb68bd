"""CLI dispatch: exit codes, determinism, end-to-end subcommand wiring."""

from __future__ import annotations

import json

import pytest

from snoopbench.cli import (
    EXIT_AUDIT_VIOLATION,
    EXIT_OK,
    build_parser,
    dispatch,
)
from snoopbench.seeding import derive_seed
from snoopbench.tokenizer import Vocabulary


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus both manifests, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert dispatch([
        "synth", "--out", str(synth), "--pool", "60", "--pairs", "12",
        "--signal", "0.9", "--seed", "5",
    ]) == EXIT_OK
    corpus = synth / "corpus.jsonl"
    m_none = root / "m_none.json"
    m_snoop = root / "m_snoop.json"
    assert dispatch([
        "partition", "--input", str(corpus), "--out", str(m_none),
        "--seed", "42", "--mode", "none",
    ]) == EXIT_OK
    assert dispatch([
        "partition", "--input", str(corpus), "--out", str(m_snoop),
        "--seed", "42", "--mode", "snoop",
    ]) == EXIT_OK
    return root, corpus, m_none, m_snoop


class TestExitCodes:
    def test_audit_clean_exits_zero(self, workspace):
        _, _, m_none, _ = workspace
        assert dispatch(["audit", "--input", str(m_none)]) == EXIT_OK

    def test_audit_snooped_exits_three_with_findings(self, workspace, capsys):
        _, _, _, m_snoop = workspace
        code = dispatch(["audit", "--input", str(m_snoop), "--format", "json"])
        out = capsys.readouterr().out
        assert code == EXIT_AUDIT_VIOLATION
        # findings land on stdout after the environment echo
        body = out.split("\n", 1)[1]
        doc = json.loads(body)
        assert any(f["subcategory"] == "embeddings" for f in doc["findings"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["audit", "--input", "x", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad_line, why", [
        ('{"id": "x"', "JSONDecodeError"),
        ('{"id": "x", "source_name": "f"}', "KeyError('normalized_text')"),
    ])
    def test_malformed_corpus_line_exits_one(self, workspace, tmp_path, capsys, bad_line, why):
        _, corpus, _, _ = workspace
        lines = corpus.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:1] + [bad_line] + lines[1:]) + "\n")
        code = dispatch([
            "partition", "--input", str(bad), "--out", str(tmp_path / "m.json"), "--seed", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:2: not a corpus record" in err and why in err

    def test_malformed_embedding_file_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, m_none, _ = workspace
        vocab = tmp_path / "vocab.tsv"
        Vocabulary.from_counts({"a": 2, "b": 1}).save(vocab)
        vec = tmp_path / "bad.vec"
        vec.write_text("2 2\na 1.0 2.0\na 3.0 4.0\n")
        code = dispatch([
            "train", "--input", str(corpus), "--manifest", str(m_none),
            "--embedding-file", str(vec), "--vocab", str(vocab),
            "--optimizer", "adam", "--lr", "0.01", "--epochs", "1",
            "--out", str(tmp_path / "m.npz"), "--metrics", str(tmp_path / "m.jsonl"),
            "--seed", "1",
        ])
        assert code == 1
        assert "bad.vec:3: row 1 repeats token 'a'" in capsys.readouterr().err

    def test_tampered_corpus_text_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, _, _ = workspace
        lines = corpus.read_text().splitlines()
        rec = json.loads(lines[2])
        assert rec["label"] == "vulnerable" and "@strcpy(" in rec["normalized_text"]
        rec["normalized_text"] = rec["normalized_text"].replace("@strcpy(", "@strncpy(")
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
        code = dispatch([
            "partition", "--input", str(tampered), "--out", str(tmp_path / "m.json"),
            "--seed", "1",
        ])
        assert code == 1
        assert "tampered.jsonl:3: the id of" in capsys.readouterr().err

    def test_domain_error_exits_one(self, workspace, tmp_path):
        root, corpus, _, _ = workspace
        missing = tmp_path / "nope.jsonl"
        missing.write_text("")
        code = dispatch([
            "partition", "--input", str(missing), "--out", str(tmp_path / "m.json"),
            "--seed", "1",
        ])
        assert code == 1


class TestEnvironmentEcho:
    def test_echo_precedes_output_and_hashes_inputs(self, workspace, capsys):
        _, _, m_none, _ = workspace
        dispatch(["audit", "--input", str(m_none)])
        first_line = capsys.readouterr().out.splitlines()[0]
        echo = json.loads(first_line)
        assert echo["subcommand"] == "audit"
        assert echo["tool_version"]
        assert str(m_none) in echo["input_hashes"]


class TestDeterminism:
    def test_partition_twice_byte_identical(self, workspace, tmp_path):
        _, corpus, _, _ = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert dispatch([
                "partition", "--input", str(corpus), "--out", str(out),
                "--seed", "42", "--mode", "snoop",
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestManifestsAcrossEntryPoints:
    def test_experiment_and_partition_write_the_same_manifest(self, workspace, tmp_path):
        _, corpus, _, _ = workspace
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([{"kind": "adam", "lr": 0.01}]))
        run_dir = tmp_path / "run"
        assert dispatch([
            "experiment", "--input", str(corpus), "--out", str(run_dir), "--seed", "9",
            "--configs", str(configs), "--epochs", "1", "--w2v-epochs", "1", "--w2v-dim", "8",
        ]) == EXIT_OK
        # the grid partitions with a seed derived from its master seed
        seed = derive_seed(9, "partition")
        for mode, name in (("none", "none"), ("snoop", "embedding_test_snooping")):
            out = tmp_path / f"{mode}.json"
            assert dispatch([
                "partition", "--input", str(corpus), "--out", str(out),
                "--seed", str(seed), "--mode", mode,
            ]) == EXIT_OK
            grid_manifest = run_dir / "manifests" / f"{name}.json"
            assert out.read_bytes() == grid_manifest.read_bytes()
            rules = json.loads(out.read_text())["declared_steps"]["filter_rules"]
            assert rules == ["token_length<=2048"]

    def test_partition_keeps_and_declares_a_larger_ingest_cut(self, workspace, tmp_path):
        root, _, _, _ = workspace
        lifted = tmp_path / "lifted"
        lifted.mkdir()
        for ll in (root / "synth").glob("*.ll"):
            (lifted / ll.name).write_text(ll.read_text())
        body = "".join(f"  %v{i} = add i32 %x, {i}\n" for i in range(400))
        (lifted / "long.ll").write_text("define i32 @long(i32 %x) {\n" + body + "  ret i32 %x\n}\n")
        corpus = tmp_path / "corpus.jsonl"
        assert dispatch([
            "ingest", "--input", str(lifted), "--out", str(corpus), "--max-tokens", "4096",
        ]) == EXIT_OK
        long_id = next(json.loads(line)["id"] for line in corpus.read_text().splitlines()
                       if json.loads(line)["source_name"] == "long")
        out = tmp_path / "manifest.json"
        assert dispatch([
            "partition", "--input", str(corpus), "--out", str(out), "--seed", "1",
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["declared_steps"]["filter_rules"] == ["token_length<=4096"]
        assert long_id in doc["embedding_train_ids"]


class TestPipelineSubcommands:
    def test_embed_train_report_chain(self, workspace, tmp_path):
        """`embed` + `train` on a grid's manifest, with the grid's derived seeds,
        reproduce that grid cell's vectors, vocabulary, model and metrics byte
        for byte."""
        _, corpus, _, _ = workspace
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([{"kind": "adam", "lr": 0.01}]))
        run_dir = tmp_path / "run"
        assert dispatch([
            "experiment", "--input", str(corpus), "--out", str(run_dir), "--seed", "9",
            "--configs", str(configs), "--epochs", "1", "--w2v-epochs", "1", "--w2v-dim", "12",
        ]) == EXIT_OK
        for mode in ("none", "embedding_test_snooping"):
            manifest = run_dir / "manifests" / f"{mode}.json"
            vec = tmp_path / f"{mode}.vec"
            vocab = tmp_path / f"{mode}.tsv"
            assert dispatch([
                "embed", "--input", str(corpus), "--manifest", str(manifest),
                "--embedding", "skipgram", "--out", str(vec), "--vocab-out", str(vocab),
                "--dim", "12", "--epochs", "1", "--seed", str(derive_seed(9, "w2v:skipgram")),
            ]) == EXIT_OK
            grid_vec = run_dir / "embeddings" / f"skipgram_{mode}.vec"
            assert vec.read_bytes() == grid_vec.read_bytes()
            grid_tokens = [line.split(" ")[0] for line in grid_vec.read_text().splitlines()[1:]]
            assert list(Vocabulary.load(vocab).tokens) == grid_tokens

            model = tmp_path / f"{mode}.npz"
            metrics = tmp_path / f"{mode}.jsonl"
            assert dispatch([
                "train", "--input", str(corpus), "--manifest", str(manifest),
                "--embedding-file", str(vec), "--vocab", str(vocab),
                "--optimizer", "adam", "--lr", "0.01", "--epochs", "1",
                "--out", str(model), "--metrics", str(metrics),
                "--seed", str(derive_seed(9, "clf:skipgram:adam_lr0.01")),
            ]) == EXIT_OK
            grid_model = run_dir / "models" / f"skipgram_{mode}_adam_lr0.01.npz"
            assert model.read_bytes() == grid_model.read_bytes()
            grid_metrics = run_dir / "metrics" / f"skipgram_{mode}_adam_lr0.01.jsonl"
            assert metrics.read_bytes() == grid_metrics.read_bytes()

        (tmp_path / "cut.tsv").write_text("\n".join(vocab.read_text().splitlines()[:-1]) + "\n")
        assert dispatch([
            "train", "--input", str(corpus), "--manifest", str(manifest),
            "--embedding-file", str(vec), "--vocab", str(tmp_path / "cut.tsv"),
            "--optimizer", "adam", "--lr", "0.01", "--epochs", "1",
            "--out", str(model), "--metrics", str(metrics), "--seed", "1",
        ]) == 1

    def test_experiment_and_report_rerender(self, workspace, tmp_path):
        _, corpus, _, _ = workspace
        run_dir = tmp_path / "run"
        assert dispatch([
            "experiment", "--input", str(corpus), "--out", str(run_dir),
            "--seed", "9", "--embedding", "skipgram", "--epochs", "2",
            "--w2v-epochs", "1", "--w2v-dim", "12",
        ]) == EXIT_OK
        report = run_dir / "report.json"
        assert report.exists()
        md_out = tmp_path / "again.md"
        assert dispatch([
            "report", "--input", str(report), "--format", "md", "--out", str(md_out),
        ]) == EXIT_OK
        assert md_out.read_text() == (run_dir / "report.md").read_text()

    def test_ingest_subcommand(self, workspace, tmp_path):
        root, _, _, _ = workspace
        out = tmp_path / "corpus2.jsonl"
        assert dispatch([
            "ingest", "--input", str(root / "synth"), "--out", str(out),
        ]) == EXIT_OK
        assert out.exists()
        lines = out.read_text().splitlines()
        assert len(lines) == 84  # 60 pool + 2*12 pairs
