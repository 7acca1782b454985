"""loopshift benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is the ``src/loopshift`` next to this
directory.  The run times fresh-interpreter set-ups, then repeats the
workload's fixed list of operations ("passes") for ``--seconds``, then checks
every answer of the first pass against the independent oracles in
``oracles.py`` and every later pass against the first.  Reference-kernel runs
between the operations put the gated times on a reference speed
(``calibrate.py``).  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from the
traced ones.

The line before last is a report (metadata, verdict digest, failures by
input, workload-specific metrics); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 7
INTERPRETER_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import loopshift
t1 = time.perf_counter()
import pathlib, workloads
workloads.build({name!r}, {seed!r}, {tiny!r}, pathlib.Path({root!r}))
print(t1 - t0)
"""


class OpError:
    """An operation that raised instead of answering."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOOPSHIFT_THREADS", None)
    return env


def _spawn_seconds(cmd: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          cwd=str(ROOT), timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:2]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


class SetupTimer:
    """Times a fresh interpreter that imports loopshift and builds the
    workload's inputs, and the import inside it.  The samples are spread over
    the run, and each is rescaled to the reference speed by the
    fresh-interpreter kernel run just before and just after it
    (calibrate.py)."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, seed=seed,
                                       tiny=tiny, root=str(ROOT))
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.imports: list[float] = []

    def sample(self) -> None:
        kernel = calibrate.PROCESS
        before = calibrate.run_ns(kernel)
        wall, out = _spawn_seconds([sys.executable, "-c", self.code])
        after = calibrate.run_ns(kernel)
        self.walls.append(wall)
        self.scaled.append(wall * kernel.reference_s * 2e9 / (before + after))
        self.imports.append(float(out.split()[-1]))


def measure_interpreter(repeats: int) -> float:
    return statistics.median(_spawn_seconds([sys.executable, "-c", "pass"])[0]
                             for _ in range(repeats))


def run_pass(ops, kernel, previous=None) -> tuple[list[int], list, float]:
    """Runs every operation once, with reference-kernel runs between them.
    Returns each operation's time, the answers and the pass's reference
    scale (see calibrate.py).  Given the times of a previous pass, half of
    each operation's kernel share runs before it, so a long operation is
    bracketed by kernel samples rather than only followed by them."""
    times, results = [], []
    calibration = calibrate.PassCalibration(kernel)
    busy = 0
    for i, op in enumerate(ops):
        if previous is not None:
            calibration.top_up(busy + previous[i] // 2)
        t0 = time.perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:  # an erroring operation is a failed one
            result = OpError(exc)
        dt = time.perf_counter_ns() - t0
        times.append(dt)
        results.append(result)
        busy += dt
        calibration.top_up(busy)
    return times, results, calibration.scale()


def verdicts(ops, results) -> list:
    return [[op.id, ["error", r.text] if isinstance(r, OpError) else op.verdict(r)]
            for op, r in zip(ops, results)]


def digest(entries) -> str:
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def check_all(ops, results) -> list[dict]:
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, OpError):
            reason = result.text
        else:
            try:
                reason = op.check(result)
            except Exception as exc:  # a malformed answer fails its check
                reason = f"answer could not be checked: {type(exc).__name__}: {exc}"
        if reason:
            failures.append({"op": op.id, "reason": reason})
    return failures


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metadata(args, threads_env: str | None) -> dict:
    import numpy
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        git_sha = ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "loopshift").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest(),
        "loopshift_threads_removed": True,
        "loopshift_threads_was_set": threads_env is not None,
    }


class Runner:
    """Executes passes of one workload and keeps what the metrics need."""

    def __init__(self, wl, tmp: Path):
        self.wl = wl
        self.tmp = tmp
        self.count = 0
        self.first_results = None
        self.first_verdicts = None
        self.mismatches: list[str] = []
        self.walls: list[int] = []
        self.scales: list[float] = []
        # Compact, so the benchmark's own bookkeeping does not grow
        # peak_rss_mb with the number of passes.
        self.op_times: list[array] = []
        self.traced_walls: list[int] = []
        self.traced_scales: list[float] = []
        self.child_rss_kb = 0
        self.kernel = calibrate.IN_PROCESS if wl.runner is None else calibrate.PROCESS

    def execute(self, tracer=None):
        wl = self.wl
        if wl.runner is not None:
            wl.runner.workdir = self.tmp / f"pass-{self.count}"
            wl.runner.workdir.mkdir()
            wl.runner.trace_files = []
            wl.runner.launcher = None if tracer is None else [sys.executable, str(HERE / "launcher.py")]
        elif tracer is not None:
            tracer.install()
        try:
            times, results, scale = run_pass(wl.ops, self.kernel,
                                             self.op_times[-1] if self.op_times else None)
        finally:
            if tracer is not None and wl.runner is None:
                tracer.uninstall()
        self.count += 1
        entries = verdicts(wl.ops, results)
        if self.first_results is None:
            self.first_results, self.first_verdicts = results, entries
        else:
            for mine, first in zip(entries, self.first_verdicts):
                if mine != first and mine[0] not in self.mismatches:
                    self.mismatches.append(mine[0])
        if wl.runner is not None:
            self.child_rss_kb = max([self.child_rss_kb] + [r.maxrss_kb for r in results
                                                          if not isinstance(r, OpError)])
        exports = []
        if tracer is not None:
            if wl.runner is None:
                exports = [tracer.export()]
            else:
                exports = [json.loads(f.read_text()) for f in wl.runner.trace_files if f.is_file()]
        return sum(times), times, scale, exports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-sweep", "highorder-custom", "simulate-noise", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input list, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "loopshift" / "__init__.py").is_file():
        print(f"no loopshift sources at {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("LOOPSHIFT_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import loopshift
    if Path(loopshift.__file__).resolve().parent != (SRC / "loopshift").resolve():
        print(f"imported loopshift from {loopshift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tiny = args.size == "tiny"
    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        report, result = run(args, tiny, tmp, threads_env, workloads, tracing)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, tiny, tmp, threads_env, workloads, tracing):
    setups = SetupTimer(args.workload, args.seed, tiny)
    repeats = 2 if tiny else SETUP_REPEATS
    setups.sample()
    wl = workloads.build(args.workload, args.seed, tiny, ROOT)
    runner = Runner(wl, tmp)
    totals = tracing.PassTotals()
    traced = []
    start = time.perf_counter()
    while True:
        elapsed = (time.perf_counter() - start) / args.seconds
        if len(setups.walls) < min(repeats, 1 + int(elapsed * repeats)):
            setups.sample()
        wall, times, scale, _ = runner.execute()
        runner.walls.append(wall)
        runner.scales.append(scale)
        runner.op_times.append(array("q", times))
        if args.trace:
            tracer = tracing.Tracer()
            wall, _, scale, exports = runner.execute(tracer)
            runner.traced_walls.append(wall)
            runner.traced_scales.append(scale)
            totals.add_pass(exports)
            if not traced:
                # The first traced pass's spans are kept (in-process, in the
                # tracer's compact arrays) and written at exit; every traced
                # pass does the same work.
                traced.append((f"pass-{runner.count - 1}", tracer if wl.runner is None else exports))
        # No pass starts that would end past the deadline, so a run takes
        # about --seconds whatever the pass length.
        cycle = (1 + runner.kernel.share) * (runner.walls[-1] + (runner.traced_walls[-1] if args.trace else 0))
        done = time.perf_counter() - start + cycle / 1e9 > args.seconds
        if args.trace:
            done = done and len(runner.traced_walls) >= MIN_TRACED_PASSES
        else:
            done = done and len(runner.walls) >= MIN_PASSES
        if done:
            break
    while len(setups.walls) < repeats:
        setups.sample()
    setup_s, import_s = statistics.median(setups.scaled), statistics.median(setups.imports)
    peak_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops, first = wl.ops, runner.first_results
    failures = check_all(ops, first)
    # Every pass runs the same operations on the same inputs, each answer of
    # the first pass goes through its oracle and later passes must repeat it
    # (else ``correct`` is false), so an operation counts once however many
    # passes the run's length allowed.
    attempted = len(ops)
    failed = len(failures)
    work = [op.work(r) if not isinstance(r, OpError) else 0.0 for op, r in zip(ops, first)]

    def samples(kinds):
        return [t for times in runner.op_times for op, t in zip(ops, times) if op.kind in kinds]

    extra = {}
    for name, kinds in wl.latencies.items():
        vals = samples(kinds)
        extra[f"{name}_p50_ms"] = {"value": statistics.median(vals) / 1e6, "unit": "ms", "samples": len(vals)}
        if len(vals) >= 100:
            extra[f"{name}_p90_ms"] = {"value": percentile(vals, 90) / 1e6, "unit": "ms", "samples": len(vals)}
    for name, (kinds, unit) in wl.throughputs.items():
        busy = sum(samples(kinds)) / 1e9
        done_work = sum(w for op, w in zip(ops, work) if op.kind in kinds) * len(runner.op_times)
        extra[name] = {"value": done_work / busy, "unit": unit, "samples": len(samples(kinds))}
    extra["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}

    all_times = [t for times in runner.op_times for t in times]
    rss_kb = runner.child_rss_kb if wl.runner is not None else peak_self_kb
    # The gated times are rescaled to the reference speed pass by pass
    # (calibrate.py); the raw medians are reported alongside.  A geometric
    # mean over operations cannot jump between clusters of unlike operations
    # the way a median can.
    wall_ref_s = statistics.median(w * k for w, k in zip(runner.walls, runner.scales)) / 1e9
    op_gmean_ref_ms = math.exp(statistics.fmean(
        math.log(statistics.median(t * k for t, k in zip(per_op, runner.scales)))
        for per_op in zip(*runner.op_times))) / 1e6
    extra["reference_kernel_ms"] = {
        "value": runner.kernel.reference_s * 1e3 / statistics.median(runner.scales), "unit": "ms",
        "samples": len(runner.scales)}
    extra["setup_median_s"] = {"value": statistics.median(setups.walls), "unit": "s",
                               "samples": len(setups.walls)}
    extra["wall_median_s"] = {"value": statistics.median(runner.walls) / 1e9, "unit": "s",
                              "samples": len(runner.walls)}
    extra["op_p50_all_ms"] = {"value": statistics.median(all_times) / 1e6, "unit": "ms",
                              "samples": len(all_times)}
    if args.trace:
        per_pass_bytes = sum(w for op, w in zip(ops, work) if op.kind.startswith("cli:"))
        metrics = totals.metrics({
            "cli.interpreter_s": measure_interpreter(2 if tiny else INTERPRETER_REPEATS),
            "cli.import_s": import_s,
            "cli.artifact_bytes": per_pass_bytes,
            "trace.overhead_frac": (
                statistics.median(w * k for w, k in zip(runner.traced_walls, runner.traced_scales))
                / statistics.median(w * k for w, k in zip(runner.walls, runner.scales)) - 1.0),
        })
        tracing.write_spans(STATE / "trace" / f"{args.workload}-seed{args.seed}.jsonl", [
            (f"{tag}/{i}", export)
            for tag, source in traced
            for i, export in enumerate([source.export()] if isinstance(source, tracing.Tracer) else source)])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref_s": {"value": wall_ref_s, "unit": "s"},
            "op_gmean_ref_ms": {"value": op_gmean_ref_ms, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb * 1024 / 1e6, "unit": "MB"},
        }

    report = {
        "metadata": metadata(args, threads_env),
        "passes": runner.count,
        "pass_walls_s": [w / 1e9 for w in runner.walls],
        "ops_per_pass": len(ops),
        "op_samples": len(all_times),
        "workload_metrics": extra,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digest(runner.first_verdicts),
        "nondeterministic_ops": runner.mismatches,
    }
    result = {"correct": not runner.mismatches, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


if __name__ == "__main__":
    sys.exit(main())
