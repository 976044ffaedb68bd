"""Outside-in tracer for the snoopbench modules.

Spans (name, start, end, parent) are recorded around calls into each
module by rebinding the public functions where their callers look them up:
on the module object for callers that go through it (`cli` uses
`ir_corpus.read_corpus`), on the calling module for names bound at import
(`experiment` does `from .classifier import train`), and on the class for
methods. Nothing under `src/` is edited; `uninstall` puts every original
binding back. Spans stay in memory until `dump` writes them once.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # one entry per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- binding ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind owner.attr to a traced version of itself.

        `name` is the span name, or a callable (args, kwargs) -> name.
        `after(tracer, args, kwargs, result)` records counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- derived figures ------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by its child spans."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), secs in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + secs
        return out

    def dump(self, path: Path, extra: dict) -> None:
        doc = {**extra, "counts": self.counts,
               "spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


MODULES = ("cli", "synth_corpus", "ir_corpus", "tokenizer", "partitioner",
           "snoop_audit", "embeddings", "classifier", "experiment")


@contextmanager
def tracing(tracer: Tracer):
    """Trace every snoopbench module into `tracer` for the duration."""
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every snoopbench module at each binding."""
    from snoopbench import classifier, cli, embeddings, experiment, ir_corpus
    from snoopbench import partitioner, snoop_audit, synth_corpus, tokenizer

    def count_tokens(t, args, kwargs, result):
        t.count("tokenizer.tokens", len(result))

    def count_functions(t, args, kwargs, result):
        t.count("ir_corpus.functions", len(result))

    def w2v_name(args, kwargs):
        return "embeddings.train_word2vec." + args[2].kind

    def count_positions(t, args, kwargs, result):
        config = args[2]
        t.count("embeddings.positions." + config.kind,
                sum(len(s) for s in args[0]) * config.epochs)

    def forward_name(args, kwargs):
        train = kwargs.get("train", args[3] if len(args) > 3 else False)
        return "classifier.forward_train" if train else "classifier.forward_eval"

    def count_batch(t, args, kwargs, result):
        if forward_name(args, kwargs) != "classifier.forward_train":
            return
        mask = args[2]
        B, T = mask.shape
        t.count("classifier.batches", 1)
        t.count("classifier.samples", B)
        t.count("classifier.timesteps", T)
        t.count("classifier.padded_timesteps", B * T)
        t.count("classifier.real_timesteps", int(mask.sum()))

    for owner in (tokenizer, cli, experiment, classifier, ir_corpus):
        tracer.wrap(owner, "tokenize", "tokenizer.tokenize", after=count_tokens)
    for owner in (tokenizer, cli, experiment, classifier):
        tracer.wrap(owner, "encode", "tokenizer.encode")
    for owner in (tokenizer, cli, experiment):
        tracer.wrap(owner, "build_vocab", "tokenizer.build_vocab")

    tracer.wrap(synth_corpus, "generate", "synth_corpus.generate")
    tracer.wrap(synth_corpus, "write_ll_files", "synth_corpus.write_ll_files")
    tracer.wrap(ir_corpus, "ingest_dir", "ir_corpus.ingest_dir", after=count_functions)
    tracer.wrap(ir_corpus, "read_corpus", "ir_corpus.read_corpus")
    tracer.wrap(ir_corpus, "write_corpus", "ir_corpus.write_corpus")

    for owner in (partitioner, experiment):
        tracer.wrap(owner, "build_partition", "partitioner.build_partition")
        tracer.wrap(owner, "write_manifest", "partitioner.write_manifest")
    tracer.wrap(partitioner, "read_manifest", "partitioner.read_manifest")
    tracer.wrap(snoop_audit, "audit_manifest", "snoop_audit.audit_manifest")

    for owner in (embeddings, experiment):
        tracer.wrap(owner, "train_word2vec", w2v_name, after=count_positions)
        tracer.wrap(owner, "export_external", "embeddings.export_external")
        tracer.wrap(owner, "import_external", "embeddings.import_external")

    for owner in (classifier, experiment):
        tracer.wrap(owner, "train", "classifier.train")
        tracer.wrap(owner, "save_model", "classifier.save_model")
    tracer.wrap(classifier, "evaluate", "classifier.evaluate")
    tracer.wrap(classifier.EncodedDataset, "from_corpus", "classifier.from_corpus")
    tracer.wrap(classifier.LstmClassifier, "forward", forward_name, after=count_batch)
    tracer.wrap(classifier.LstmClassifier, "backward", "classifier.backward")
    tracer.wrap(classifier.LstmClassifier, "assemble", "classifier.assemble")
    tracer.wrap(classifier.SgdMomentum, "update", "classifier.optimizer_update")
    tracer.wrap(classifier.Adam, "update", "classifier.optimizer_update")

    tracer.wrap(experiment, "run_grid", "experiment.run_grid")
    tracer.wrap(experiment, "render", "experiment.render")


def layer_metrics(tracer: Tracer, wall: float, startup: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round, as {name: (value, unit)}.

    `wall` is the round's wall time; `startup` is the interpreter start-up
    its invocations would have paid as child processes. It counts towards
    `cli` in the `share.*` figures.
    """
    tot = tracer.totals()
    own = tracer.self_times()
    cnt = tracer.counts

    def t(name: str) -> float:
        return tot.get(name, 0.0)

    def rate(amount: float, secs: float) -> float:
        return amount / secs if secs > 0 else 0.0

    m: dict[str, tuple[float, str]] = {
        "ir_corpus.ingest_dir_s": (t("ir_corpus.ingest_dir"), "s"),
        "ir_corpus.functions_per_s": (
            rate(cnt.get("ir_corpus.functions", 0), t("ir_corpus.ingest_dir")), "1/s"),
        "ir_corpus.read_corpus_s": (t("ir_corpus.read_corpus"), "s"),
        "ir_corpus.write_corpus_s": (t("ir_corpus.write_corpus"), "s"),
        "tokenizer.tokenize_s": (t("tokenizer.tokenize"), "s"),
        "tokenizer.tokens": (cnt.get("tokenizer.tokens", 0), "count"),
        "tokenizer.build_vocab_s": (t("tokenizer.build_vocab"), "s"),
        "tokenizer.encode_s": (t("tokenizer.encode"), "s"),
        "partitioner.build_partition_s": (t("partitioner.build_partition"), "s"),
        "partitioner.manifest_io_s": (
            t("partitioner.write_manifest") + t("partitioner.read_manifest"), "s"),
        "snoop_audit.audit_manifest_s": (t("snoop_audit.audit_manifest"), "s"),
    }
    for kind in ("skipgram", "cbow"):
        secs = t("embeddings.train_word2vec." + kind)
        m["embeddings.train_word2vec_s." + kind] = (secs, "s")
        m["embeddings.positions_per_s." + kind] = (
            rate(cnt.get("embeddings.positions." + kind, 0), secs), "1/s")
    m["embeddings.export_external_s"] = (t("embeddings.export_external"), "s")
    m["embeddings.import_external_s"] = (t("embeddings.import_external"), "s")

    fwd = t("classifier.forward_train")
    padded = cnt.get("classifier.padded_timesteps", 0)
    m.update({
        "classifier.train_s": (t("classifier.train"), "s"),
        "classifier.forward_train_s": (fwd, "s"),
        "classifier.backward_s": (t("classifier.backward"), "s"),
        "classifier.optimizer_update_s": (t("classifier.optimizer_update"), "s"),
        "classifier.assemble_s": (t("classifier.assemble"), "s"),
        "classifier.evaluate_s": (t("classifier.evaluate"), "s"),
        "classifier.save_model_s": (t("classifier.save_model"), "s"),
        "classifier.forward_us_per_timestep": (
            rate(fwd * 1e6, cnt.get("classifier.timesteps", 0)), "us"),
        "classifier.train_samples_per_s": (
            rate(cnt.get("classifier.samples", 0), t("classifier.train")), "1/s"),
        "classifier.batches": (cnt.get("classifier.batches", 0), "count"),
        "classifier.padded_timesteps": (padded, "count"),
        "classifier.pad_efficiency": (
            rate(cnt.get("classifier.real_timesteps", 0), padded), "ratio"),
        "experiment.run_grid_self_s": (own.get("experiment.run_grid", 0.0), "s"),
        "experiment.render_s": (t("experiment.render"), "s"),
    })

    modules = dict.fromkeys(MODULES, 0.0)
    for name, secs in own.items():
        modules[name.split(".", 1)[0]] += secs
    modules["cli"] += startup
    for module, secs in modules.items():
        m["share." + module] = (secs / (wall + startup), "ratio")
    return m
