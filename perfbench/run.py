"""Benchmark of the fibanyon command line, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload flagship-chsh --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven through
its real entry point, ``fibanyon.cli.main(argv)``, in this process, one
command (op) at a time: a closed loop with a single client.  Inputs are
generated from ``--seed`` (see ``workloads.py``); every op's output is
checked.  After one untimed warm-up op, whole passes over the workload's
ops run for about ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time to run every op of the workload once, median over passes;
* ``op_p50_ms``: median op latency, the upper one for an even op count, so it
  is always some op's latency (each op's latency is its median over passes);
* ``op_tail_ms``: op latency at the highest percentile that has at least ten
  ops beyond it; with fewer than eleven ops, the slowest op;
* ``setup_s``: import plus parser construction in a fresh interpreter,
  median of several samples;
* ``peak_rss_mb``: peak resident memory of this process.

``fail_frac`` (failed over attempted ops) is printed with them and given as
``failed``/``attempted`` in the result line.  An op fails on an exception,
a nonzero exit code, a failed output check or a run past the hang budget.

``--trace 1`` runs one untraced pass and then one pass with every layer
traced (see ``tracing.py``), and reports calls, inclusive and self time per
traced function, counts taken at the calls, and the tracing overhead
(traced minus untraced pass time).  Spans are written to
``<out>/spans-<workload>-s<seed>.jsonl``.

Every run writes ``<out>/report-<workload>-s<seed>-trace<k>.json`` with the
environment (src line count, commit, Python, numpy, BLAS, CPUs, BLAS thread
settings), each op's latencies and a SHA-256 digest of its stdout, so two
reports can be diffed for byte-identical output.  A digest change is not a
failure.  The last line of stdout is the JSON result.

Also here: ``sweep.py``, the un-gated (n, L) scaling sweep of ``n_copy``,
and the benchmark's own tests, ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    # Before numpy loads.  On a small machine shared with other work,
    # multithreaded BLAS made single eigh calls up to ten times slower at
    # random, so the benchmark runs BLAS on one thread unless told otherwise.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

#: No op may run longer than this, and a run stops starting ops once
#: ``RUN_BUDGET_S`` has passed, so every run ends well within 180 s.
OP_BUDGET_S = 60.0
RUN_BUDGET_S = 150.0
SETUP_SAMPLES = {"full": 7, "tiny": 1}

#: The result line's metric names and units, as BENCHMARK.json defines them.
#: Per-layer metrics may read 0 on a workload that never calls the layer.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

_SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fibanyon.cli\n"
    "fibanyon.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)


class OpTimeout(BaseException):
    """Raised in the main thread when an op exceeds its hang budget.

    A BaseException, so that program code catching Exception cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """Runs ops through ``cli.main`` and keeps their results."""

    def __init__(self, cli):
        self.cli = cli
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.digests: dict[str, set[str]] = {}
        self.bytes_out = 0

    def run(self, op: workloads.Op) -> float:
        """Run one op and return its latency in seconds; failures are counted."""
        budget = min(OP_BUDGET_S, RUN_BUDGET_S - (time.perf_counter() - self.started))
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        self.attempted += 1
        start = time.perf_counter()
        try:
            with time_limit(budget), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.cli.main(list(op.argv))
            latency = time.perf_counter() - start
        except OpTimeout:
            latency, error = time.perf_counter() - start, f"over the hang budget of {budget:.0f} s"
        except Exception as exc:  # any program error is an op failure
            latency, error = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        text = stdout.getvalue()
        self.bytes_out += len(text.encode())
        self.digests.setdefault(op.name, set()).add(hashlib.sha256(text.encode()).hexdigest())
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
        if error is None:
            try:
                error = op.check(text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output ({type(exc).__name__}: {exc})"
        if error is not None:
            self.failed += 1
            self.errors.setdefault(op.name, error)
        return latency

    def run_pass(self, ops) -> dict[str, float]:
        return {op.name: self.run(op) for op in ops}

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S


def tail(values: list[float]) -> float:
    """Value at the highest percentile with at least ten values beyond it, else the max."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def measure_setup(samples: int) -> list[float]:
    """Import plus parser construction, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return times


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "src_lines": src_lines,
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def import_program():
    """Import fibanyon from this checkout's src/, never from anywhere else."""
    if not (SRC / "fibanyon" / "cli.py").is_file():
        raise SystemExit(f"error: no fibanyon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibanyon.cli

    if Path(fibanyon.cli.__file__).resolve().parent != SRC / "fibanyon":
        raise SystemExit(f"error: imported fibanyon from {fibanyon.cli.__file__}, not {SRC}")
    return fibanyon.cli


def _timed_passes(runner: Runner, ops, seconds: float) -> list[dict[str, float]]:
    """As many whole passes as fit ``seconds`` best, judged by the first (at least one).

    Rounding instead of stopping at the deadline gives every run of a
    workload the same number of passes on a machine whose speed drifts.
    """
    start = time.perf_counter()
    passes = [runner.run_pass(ops)]
    wanted = max(1, round(seconds / (time.perf_counter() - start)))
    while len(passes) < wanted and not runner.out_of_time():
        passes.append(runner.run_pass(ops))
    return passes


def _end_to_end(passes: list[dict[str, float]], setup: list[float]) -> dict[str, float]:
    per_op = [statistics.median(p[name] for p in passes) for name in passes[0]]
    return {
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "op_p50_ms": statistics.median_high(per_op) * 1e3,
        "op_tail_ms": tail(per_op) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer: Tracer, traced: dict, untraced: dict, runner: Runner, bytes_before: int):
    layer = tracer.metrics()
    layer["cli.bytes_out"] = runner.bytes_out - bytes_before
    compositions = layer["multicopy.compositions"]
    layer["multicopy.groups_per_composition"] = (
        layer["multicopy.groups_out"] / compositions if compositions else 0.0
    )
    ran = layer["bell.random_route.ran"]
    layer["bell.random_route_win_ratio"] = layer["bell.random_route.won"] / ran if ran else 0.0
    layer["trace.wall_s"] = sum(traced.values())
    layer["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
    layer["trace.spans"] = tracer.span_count
    layer["trace.spans_written"] = len(tracer.spans)
    return layer


def _unit(name: str) -> str:
    known = {**END_TO_END, **PER_LAYER, "fail_frac": "ratio"}
    if name in known:
        return known[name]
    if name.endswith("ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; tiny is for smoke tests")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="report directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    args.out.mkdir(parents=True, exist_ok=True)
    setup = measure_setup(SETUP_SAMPLES[args.size])
    with tempfile.TemporaryDirectory(dir=args.out) as state_dir:
        workload = workloads.build(args.workload, args.seed, args.size, state_dir)
        runner = Runner(cli)
        runner.run(workload.warmup)
        stem = f"{args.workload}-s{args.seed}"
        if args.trace:
            untraced = runner.run_pass(workload.ops)
            bytes_before = runner.bytes_out
            with Tracer() as tracer:
                traced = {}
                for op in workload.ops:
                    tracer.op = op.name
                    traced[op.name] = runner.run(op)
            tracer.write_spans(str(args.out / f"spans-{stem}.jsonl"))
            everything = _per_layer(tracer, traced, untraced, runner, bytes_before)
            selected = PER_LAYER
            passes = [untraced, traced]
        else:
            passes = _timed_passes(runner, workload.ops, args.seconds)
            everything = _end_to_end(passes, setup)
            selected = END_TO_END
        everything["fail_frac"] = runner.failed / runner.attempted

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "passes": len(passes),
        "warmup": workload.warmup.name,
        "setup_samples_s": setup,
        "metrics": everything,
        "ops": [
            {
                "name": op.name,
                "argv": [a.replace(state_dir, "<inputs>") for a in op.argv],
                "latencies_ms": [p[op.name] * 1e3 for p in passes],
                "digests": sorted(runner.digests[op.name]),
                "error": runner.errors.get(op.name),
            }
            for op in workload.ops
        ],
        "errors": runner.errors,
    }
    with open(args.out / f"report-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for name, error in runner.errors.items():
        print(f"FAILED {name}: {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops/pass={len(workload.ops)}")
    for name in sorted(everything):
        print(f"  {name:44s} {everything[name]:14.6g} {_unit(name)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": everything[name], "unit": unit} for name, unit in selected.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
