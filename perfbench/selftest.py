"""Self-test of the benchmark itself (the checker, not the program).

    python3 perfbench/selftest.py

1. The oracles refute deliberately wrong answers, such as a gradient rate
   below its closed form, and accept right ones; a workload's own check
   rejects an injected wrong answer.
2. Every workload runs at tiny size, traced and untraced, and prints each
   metric named in BENCHMARK.json with its unit.
3. In a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits non-zero without a result line.

Exits 0 when everything holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_oracles() -> None:
    m, L = 1.0, 10.0
    closed = oracles.gradient_rate(0.1, m, L)
    expect(oracles.refute_gradient_rate(0.1, m, L, closed - 1e-3) is not None,
           "gradient rho_star below the closed form is refuted")
    expect(oracles.refute_gradient_rate(0.1, m, L, closed + 5e-7) is None,
           "gradient rho_star within tolerance above the closed form stands")
    expect(oracles.refute_gradient_rate(0.1, m, L, None) is not None,
           "a missing gradient certificate below 2/L is refuted")
    expect(oracles.refute_gradient_rate(0.25, m, L, 0.5) is not None,
           "a gradient certificate at alpha >= 2/L is refuted")
    grad = oracles.catalog_controller("gradient", 0.1, None)
    expect(oracles.refute_certificate(*grad, m, L, 0.95) is None,
           "gradient alpha=1/L certified at rho=0.95 stands")
    expect(oracles.refute_certificate(*grad, m, L, 0.85) is not None,
           "gradient alpha=1/L certified at rho=0.85 < 0.9 is refuted")
    hb = oracles.catalog_controller("heavyball", 1e12, 0.5)
    expect(oracles.refute_certificate(*hb, m, L, 1e-6) is not None,
           "heavy ball alpha=1e12 certified at rho=1e-6 is refuted (pole outside)")
    import workloads
    resonance = workloads.NARROW_RESONANCE
    expect(oracles.refute_certificate(resonance["num"], resonance["den"], m, L, 0.99) is not None,
           "narrow-resonance controller certified at rho=0.99 is refuted (peak 4.97)")
    best = (L - m) / (L + m)
    expect(oracles.refute_stepsize_optimum(best - 0.01, m, L) is not None,
           "a stepsize-search rate below (L-m)/(L+m) is refuted")
    expect(oracles.refute_simulated_rate(0.95, 0.9) is not None,
           "a simulated rate above the certified one + 0.01 is refuted")
    expect(oracles.refute_robustness_order(2.0, 1.0) is not None,
           "a reversed robustness ordering is refuted")

    wl = workloads.build("catalog-sweep", 0, True, ROOT)
    curve = next(op for op in wl.ops if op.kind == "curve")
    alpha = 0.1
    injected = [(alpha, oracles.gradient_rate(alpha, m, L) - 0.05)]
    expect(curve.check(injected) is not None, "curve check rejects an injected rho_star below the closed form")
    bisect = next(op for op in wl.ops if op.kind == "bisect" and "gradient(alpha=0.1)" in op.id)
    fake = SimpleNamespace(rho_star=0.5)
    expect(bisect.check(fake) is not None, "rate check rejects an injected rho_star=0.5 for gradient alpha=1/L")
    good = SimpleNamespace(rho_star=0.9 + 5e-7)
    expect(bisect.check(good) is None, "rate check accepts the closed-form rho_star")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=str(cwd), capture_output=True, text=True, timeout=600)


def test_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{what}: correct and attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, f"{what}: prints every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: every value is a number")
            report = json.loads(proc.stdout.strip().splitlines()[-2])
            expect(len(report["digest"]) == 64 and "failed_frac" in report["workload_metrics"],
                   f"{what}: report carries the verdict digest and failed_frac")


def test_bare_directory() -> None:
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=state))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "catalog-sweep", 0)
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
               "without the program's sources the benchmark fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_oracles()
    test_bare_directory()
    test_workloads(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
