"""Paired grid execution, report schema, delta arithmetic, rendering."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from snoopbench.classifier import MetricsRecord, OptimizerSpec
from snoopbench.experiment import (
    PAPER_GRID,
    ComparisonReport,
    ReportRow,
    fmt_epoch,
    fmt_loss,
    fmt_percent,
    render,
    report_from_doc,
    report_to_doc,
    run_grid,
    validate_report,
)
from snoopbench.partitioner import read_manifest
from snoopbench.synth_corpus import SynthSpec, generate


def _record(epoch=1, loss=0.5, acc=0.8, prec=0.7, rec=0.9, f1=0.787) -> MetricsRecord:
    return MetricsRecord(
        epoch=epoch, loss=loss, accuracy=acc, precision=prec, recall=rec, f1=f1,
        confusion=(7, 3, 1, 9),
    )


QUICK = dict(
    configs=(OptimizerSpec("adam", 0.01), OptimizerSpec("sgd", 0.01, 0.01)),
    word2vec=dict(dim=16, epochs=1),
    classifier=dict(epochs=2, hidden_size=16),
)


@pytest.fixture(scope="module")
def quick_report(mini_experiment_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    report = run_grid(
        mini_experiment_corpus, master_seed=11, out_dir=out, **QUICK
    )
    return report, out


class TestPaperGrid:
    def test_seven_configurations(self):
        assert len(PAPER_GRID) == 7
        kinds = [c.kind for c in PAPER_GRID]
        assert kinds.count("sgd") == 4 and kinds.count("adam") == 3
        assert PAPER_GRID[0] == OptimizerSpec("sgd", 0.01, 0.01)
        assert {c.lr for c in PAPER_GRID if c.kind == "adam"} == {0.01, 0.001, 0.0001}
        assert {c.momentum for c in PAPER_GRID if c.kind == "sgd"} == {0.01, 0.001, 0.0001}


class TestRunGrid:
    def test_row_per_config_with_two_records(self, quick_report):
        report, _ = quick_report
        assert len(report.rows) == 2
        for row in report.rows:
            assert isinstance(row.baseline, MetricsRecord)
            assert isinstance(row.snooped, MetricsRecord)
            assert row.embedding_kind == "skipgram"

    def test_pairing_integrity_via_manifests(self, quick_report):
        _, out = quick_report
        m_none = read_manifest(out / "manifests" / "none.json")
        m_snoop = read_manifest(out / "manifests" / "embedding_test_snooping.json")
        assert m_none.classifier_train_ids == m_snoop.classifier_train_ids
        assert m_none.classifier_val_ids == m_snoop.classifier_val_ids
        assert m_none.snooping_mode == "none"
        assert m_snoop.snooping_mode == "embedding_test_snooping"

    def test_run_directory_layout(self, quick_report):
        _, out = quick_report
        assert (out / "env.json").exists()
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert len(list((out / "metrics").glob("*.jsonl"))) == 4
        assert len(list((out / "models").glob("*.npz"))) == 4
        assert len(list((out / "embeddings").glob("*.vec"))) == 2

    def test_env_json_records_runtime_outside_the_report(self, quick_report):
        _, out = quick_report
        env = json.loads((out / "env.json").read_text())
        runtime = env.pop("runtime")
        assert set(runtime) == {"python", "numpy", "blas", "threads", "cpu_count"}
        assert runtime["numpy"] == np.__version__
        assert runtime["cpu_count"] == os.cpu_count()
        assert runtime["threads"] == {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        assert runtime["blas"]["name"]
        doc = json.loads((out / "report.json").read_text())
        assert doc["tool_version"] == env.pop("tool_version")
        assert doc["environment"] == env

    def test_metrics_files_have_one_line_per_epoch(self, quick_report):
        _, out = quick_report
        for path in (out / "metrics").glob("*.jsonl"):
            lines = path.read_text().splitlines()
            assert len(lines) == QUICK["classifier"]["epochs"]
            for line in lines:
                rec = json.loads(line)
                assert set(rec) >= {"epoch", "loss", "accuracy", "f1", "confusion"}

    def test_deltas_recompute_from_stored_records(self, quick_report):
        _, out = quick_report
        doc = json.loads((out / "report.json").read_text())
        for row in doc["rows"]:
            for metric in ("loss", "accuracy", "precision", "recall", "f1"):
                expect = row["snooped"][metric] - row["baseline"][metric]
                assert row["deltas"][metric] == expect
            assert row["deltas"]["epoch"] == row["snooped"]["epoch"] - row["baseline"]["epoch"]

    def test_report_json_validates_against_schema(self, quick_report):
        _, out = quick_report
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)

    def test_best_models_reference_reachable_rows(self, quick_report):
        report, _ = quick_report
        entry = report.best_models["skipgram"]
        assert 0 <= entry["baseline_row"] < len(report.rows)
        assert 0 <= entry["snooped_row"] < len(report.rows)
        best_base = report.rows[entry["baseline_row"]]
        assert entry["baseline"]["f1"] == best_base.baseline.f1
        assert entry["baseline"]["f1"] == max(r.baseline.f1 for r in report.rows)

    def test_reproducible_byte_identical_json(self, mini_experiment_corpus):
        r1 = run_grid(mini_experiment_corpus, master_seed=4, **QUICK)
        r2 = run_grid(mini_experiment_corpus, master_seed=4, **QUICK)
        assert render(r1, "json") == render(r2, "json")

    def test_jobs_two_writes_the_same_bytes_as_jobs_one(self, tmp_path):
        corpus = generate(SynthSpec(n_pool=200, n_pairs=40, signal_strength=0.9, seed=12))
        runs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_grid(corpus, configs=PAPER_GRID[3:6], master_seed=21, out_dir=out, jobs=jobs,
                     word2vec=dict(dim=16, epochs=1), classifier=dict(epochs=2))
            runs[jobs] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        # env, 2 manifests, 2 embeddings, 6 models, 6 metrics, report json + md
        assert len(runs[1]) == 19
        assert runs[2] == runs[1]

    def test_empty_config_list_valid_report(self, mini_experiment_corpus, tmp_path):
        report = run_grid(
            mini_experiment_corpus,
            configs=(),
            word2vec=QUICK["word2vec"],
            out_dir=tmp_path,
        )
        assert report.rows == []
        doc = json.loads((tmp_path / "report.json").read_text())
        validate_report(doc)


class TestRoundTrip:
    def test_report_doc_round_trips(self, quick_report):
        report, _ = quick_report
        doc = report_to_doc(report)
        back = report_from_doc(doc)
        assert report_to_doc(back) == doc

    def test_delta_antisymmetry(self, quick_report):
        report, _ = quick_report
        for row in report.rows:
            swapped = ReportRow(
                embedding_kind=row.embedding_kind,
                config_label=row.config_label,
                optimizer=row.optimizer,
                baseline=row.snooped,
                snooped=row.baseline,
            )
            d, ds = row.deltas(), swapped.deltas()
            for key in d:
                assert ds[key] == -d[key] or (d[key] == 0 and ds[key] == 0)


class TestRendering:
    def test_exact_tie_renders_plus_minus_zero(self):
        assert fmt_percent(0.809, 0.0) == "80.9% (±0%)"

    def test_percent_delta_one_decimal(self):
        assert fmt_percent(0.905, 0.905 - 0.920) == "90.5% (-1.5%)"
        assert fmt_percent(0.890, 0.079) == "89.0% (+7.9%)"

    def test_loss_four_decimals(self):
        assert fmt_loss(0.3037, -0.1090) == "0.3037 (-0.1090)"
        assert fmt_loss(0.25, 0.0) == "0.2500 (±0)"

    def test_epoch_delta(self):
        assert fmt_epoch(36, -9) == "36(-9)"
        assert fmt_epoch(46, 11) == "46(+11)"
        assert fmt_epoch(50, 0) == "50(±0)"

    def test_markdown_contains_tables(self, quick_report):
        report, _ = quick_report
        md = render(report, "markdown")
        assert "| Hyperparameters | Epoch | Loss | Accuracy | Precision | Recall | F1-Score |" in md
        assert "## Best performing models" in md

    def test_markdown_rerenders_identically_from_parsed_json(self, quick_report):
        report, out = quick_report
        doc = json.loads((out / "report.json").read_text())
        again = render(report_from_doc(doc), "markdown")
        assert again == (out / "report.md").read_text()

    def test_unknown_format_rejected(self, quick_report):
        report, _ = quick_report
        with pytest.raises(ValueError):
            render(report, "xml")
