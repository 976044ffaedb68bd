"""Benchmark for the snoopbench CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload grid-desk --seed 1 --seconds 15 --trace 0

With `--trace 0` it times the workload end to end: one cold set-up
(`snoopbench synth`), then whole rounds of the workload's CLI invocations,
each a child process, one at a time, until `--seconds` have passed. With
`--trace 1` it replays the same rounds in-process through
`snoopbench.cli.dispatch`, alternating an untraced and a traced round, and
reports per-layer figures from spans recorded around each module's public
functions. Either way the outputs of the last round are checked
independently (see checks.py). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


# set-up time counts from the start of the process
T_START = time.perf_counter() - _process_age()

# One BLAS thread per process and one process at a time keeps the benchmark
# within the 2 cores it was sized on; set before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, Op, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
STARTUP_PROBES = 5


@dataclass
class OpResult:
    code: int
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(op: Op, rnd: Path, env: dict[str, str]) -> OpResult:
    """Run one invocation as a child process and reap it with its rusage."""
    argv = [sys.executable, "-m", "snoopbench.cli", *op.args]
    with open(rnd / f"{op.name}.out", "w") as out, open(rnd / f"{op.name}.err", "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=rnd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    # wait4 reaped the child; tell Popen so that it does not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return OpResult(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_inprocess(op: Op, rnd: Path, dispatch, tracer=None) -> OpResult:
    """Run one invocation through cli.dispatch, inside a root span if traced."""
    with open(rnd / f"{op.name}.out", "w") as out, open(rnd / f"{op.name}.err", "w") as err, \
            redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = dispatch(list(op.args))
            else:
                with tracer.span("cli.dispatch"):
                    code = dispatch(list(op.args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = 1
    return OpResult(code)


class Ledger:
    """Operations attempted and failed; prints the cause of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op: Op, result: OpResult, rnd: Path) -> None:
        self.attempted += 1
        if result.code != op.expect:
            self.failed += 1
            tail = (rnd / f"{op.name}.err").read_text(errors="replace")[-2000:]
            print(f"[perfbench] {op.name} exited {result.code}, expected {op.expect}\n{tail}",
                  file=sys.stderr)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def synth_op(wl: Workload, data: Path, seed: int) -> Op:
    return Op("synth", ("synth", "--out", str(data), *wl.synth, "--seed", str(seed)))


def run_checks(wl: Workload, data: Path, rnd: Path, ledger: Ledger) -> bool:
    if ledger.failed:
        return False
    try:
        wl.check(data, rnd)
    except Exception:  # any error reading or checking outputs marks the run incorrect
        traceback.print_exc()
        return False
    return True


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    ledger = Ledger()
    data = fresh(work / "data")
    op = synth_op(wl, data, seed)
    ledger.record(op, run_child(op, work, env), work)
    setup_s = time.perf_counter() - T_START

    walls, cpus, rsss = [], [], []
    rnd = work / "round"
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        fresh(rnd)
        t0 = time.perf_counter()
        results = []
        for op in wl.ops(data, rnd, seed):
            results.append(run_child(op, rnd, env))
            ledger.record(op, results[-1], rnd)
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(r.cpu_s for r in results))
        rsss.append(max(r.rss_mb for r in results))
    print(f"[perfbench] {wl.name}: {len(walls)} rounds, wall {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    return {
        "correct": run_checks(wl, data, rnd, ledger),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(setup_s, "s"),
            "cpu_s": metric(statistics.median(cpus), "s"),
            "peak_rss_mb": metric(statistics.median(rsss), "MB"),
        },
    }


def cli_startup_s(env: dict[str, str]) -> float:
    """Median time to import snoopbench.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import snoopbench.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(STARTUP_PROBES)]
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "nproc": os.cpu_count()}


def replay(wl: Workload, data: Path, rnd: Path, seed: int, ledger: Ledger, dispatch,
           tracer=None) -> tuple[float, int]:
    """One in-process round; returns its wall time and its number of invocations."""
    fresh(rnd)
    ops = wl.ops(data, rnd, seed)
    t0 = time.perf_counter()
    for op in ops:
        ledger.record(op, run_inprocess(op, rnd, dispatch, tracer), rnd)
    return time.perf_counter() - t0, len(ops)


def run_traced(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    startup = cli_startup_s(child_env())
    sys.path.insert(0, str(SRC))
    from snoopbench.cli import dispatch

    import tracer as tr

    ledger = Ledger()
    data = fresh(work / "data")
    setup = tr.Tracer()
    with tr.tracing(setup):
        op = synth_op(wl, data, seed)
        ledger.record(op, run_inprocess(op, work, dispatch, setup), work)

    rnd = work / "round"
    plain_walls, traced_walls, per_round = [], [], []
    started = time.perf_counter()
    while not traced_walls or time.perf_counter() - started < seconds:
        plain_walls.append(replay(wl, data, rnd, seed, ledger, dispatch)[0])
        tracer = tr.Tracer()
        with tr.tracing(tracer):
            wall, n_ops = replay(wl, data, rnd, seed, ledger, dispatch, tracer)
        traced_walls.append(wall)
        # each invocation pays the start-up that the in-process replay skips
        per_round.append(tr.layer_metrics(tracer, wall, startup * n_ops))

    setup_totals = setup.totals()
    metrics = {
        "cli.startup_s": metric(startup, "s"),
        "synth_corpus.generate_s": metric(setup_totals["synth_corpus.generate"], "s"),
        "synth_corpus.write_ll_files_s": metric(setup_totals["synth_corpus.write_ll_files"], "s"),
    }
    for name, (_, unit) in per_round[0].items():
        metrics[name] = metric(statistics.median(f[name][0] for f in per_round), unit)
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")

    correct = run_checks(wl, data, rnd, ledger)
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(trace_file, {
        "workload": wl.name, "seed": seed, "environment": environment(),
        "untraced_walls_s": plain_walls, "traced_walls_s": traced_walls,
        "metrics": metrics, "setup_spans": setup.spans})
    print(f"[perfbench] spans of the last traced round -> {trace_file}", file=sys.stderr)
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snoopbench" / "cli.py").is_file():
        print(f"[perfbench] no snoopbench sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = fresh(OUT / f"{wl.name}-seed{args.seed}-{os.getpid()}")
    try:
        run = run_traced if args.trace else run_untraced
        result = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
