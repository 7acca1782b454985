"""The four seeded workloads.

``build(name, seed, tiny, root)`` turns a seed into a Workload: a list of operations,
each a zero-argument call into loopshift with the check that judges its answer
and the entry it adds to the verdict digest.  The program only ever sees the
generated inputs; the seed stays here.

Library calls go through the ``loopshift`` package attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

import loopshift as ls

TOL = 1e-6
CHILD_TIMEOUT_S = 150

# ROADMAP item-1 reproducers, kept as ordinary operations.
NARROW_RESONANCE = {
    "num": [0.16037083383833653, -0.21533252642457526, 0.13773884700201308, 0.018181818181818184],
    "den": [0.8820395861108509, -1.1843288953351638, -0.22251673958693807, 1.5248060488112511, -1.0],
}
TRIMMED_DEGREE = (("gradient", 2e11, None), ("heavyball", 1e12, 0.5), ("nesterov", 1e12, 0.5))

CERTIFY_RHOS = (0.2, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99, 0.999)
CUSTOM_RHOS = (0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995)


@dataclass
class Op:
    id: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    verdict: Callable[[Any], Any]
    work: Callable[[Any], float] = lambda result: 0.0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Report-line metrics: latency prefix -> op kinds timed, and throughput
    # name -> (op kinds whose work per second it is, unit).
    latencies: dict[str, tuple[str, ...]] = field(default_factory=dict)
    throughputs: dict[str, tuple[tuple[str, ...], str]] = field(default_factory=dict)
    runner: "CliRunner | None" = None


def _q(rho: float | None):
    """A rate rounded to the bisection tolerance, for the digest."""
    return None if rho is None else round(rho / TOL)


def _sig(x: float) -> float:
    return float(f"{x:.4g}")


def _seeded_sector(rng) -> tuple[float, float]:
    m = _sig(10 ** rng.uniform(-0.5, 0.3))
    return m, _sig(m * 10 ** rng.uniform(0.7, 1.7))


def _sector_tag(m: float, L: float) -> str:
    return f"S({m!r},{L!r})"


def _catalog_spec(family: str, alpha: float, beta: float | None):
    return ls.MethodSpec(ls.Family(family), alpha=alpha, beta=beta)


def _method_tag(family: str, alpha: float, beta: float | None) -> str:
    return f"{family}(alpha={alpha!r})" if beta is None else f"{family}(alpha={alpha!r},beta={beta!r})"


def _bisect(spec, sector):
    try:
        return ls.bisect_rate(spec, sector, TOL)
    except ls.NoCertificateError:
        return None


def _cert_verdict(cert) -> str:
    return "certified" if cert.certified else ("gain" if cert.stable else "unstable")


# --- certificate operations -------------------------------------------------

def _certify_op(tag, spec, coeffs, m, L, rho) -> Op:
    sector = ls.SectorClass(m, L)

    def check(cert):
        if cert.certified:
            return oracles.refute_certificate(*coeffs, m, L, rho)
        return None

    return Op(f"certify {tag} {_sector_tag(m, L)} rho={rho!r}", "certify",
              lambda: ls.certify_rate(spec, sector, rho), check, _cert_verdict)


def _bisect_op(tag, spec, coeffs, m, L, gradient_alpha=None) -> Op:
    sector = ls.SectorClass(m, L)

    def check(result):
        rho = None if result is None else result.rho_star
        if gradient_alpha is not None:
            reason = oracles.refute_gradient_rate(gradient_alpha, m, L, rho)
            if reason:
                return reason
        if result is not None:
            return oracles.refute_certificate(*coeffs, m, L, rho)
        return None

    return Op(f"rate {tag} {_sector_tag(m, L)}", "bisect", lambda: _bisect(spec, sector),
              check, lambda r: _q(None if r is None else r.rho_star), lambda r: 1.0)


def _catalog_ops(family, alpha, beta, m, L, rhos=()) -> list[Op]:
    spec = _catalog_spec(family, alpha, beta)
    coeffs = oracles.catalog_controller(family, alpha, beta)
    tag = _method_tag(family, alpha, beta)
    ops = [_certify_op(tag, spec, coeffs, m, L, rho) for rho in rhos]
    ops.append(_bisect_op(tag, spec, coeffs, m, L, alpha if family == "gradient" else None))
    return ops


# --- catalog-sweep ------------------------------------------------------------

def _curve_op(m, L, steps) -> Op:
    sector = ls.SectorClass(m, L)
    # Runs past 2/L so stepsizes with no certificate are part of the sweep.
    alphas = [float(a) for a in np.linspace(0.1 / L, 2.3 / L, steps)]

    def check(rows):
        for alpha, rho in rows:
            reason = oracles.refute_gradient_rate(alpha, m, L, rho)
            if reason:
                return reason
        return None

    return Op(f"curve gradient alpha=0.1/L..2.3/L x{steps} {_sector_tag(m, L)}", "curve",
              lambda: ls.certified_rate_curve(sector, alphas, tol=TOL), check,
              lambda rows: [_q(r) for _, r in rows], lambda rows: float(len(rows)))


def _stepsize_op(m, L) -> Op:
    sector = ls.SectorClass(m, L)

    def check(result):
        alpha, rho = result
        return (oracles.refute_gradient_rate(alpha, m, L, rho)
                or oracles.refute_stepsize_optimum(rho, m, L))

    return Op(f"search gradient stepsize {_sector_tag(m, L)}", "search_stepsize",
              lambda: ls.search_stepsize(sector, TOL), check, lambda r: _q(r[1]))


def _two_param_op(family, m, L, alphas, betas) -> Op:
    sector = ls.SectorClass(m, L)

    def check(result):
        if result is None:
            return None
        coeffs = oracles.catalog_controller(family, result.alpha, result.beta)
        return oracles.refute_certificate(*coeffs, m, L, result.rho_star)

    return Op(f"search {family} alphas={alphas!r} betas={betas!r} {_sector_tag(m, L)}",
              "search_two_param",
              lambda: ls.search_two_param(sector, alphas, betas, ls.Family(family), TOL,
                                          refine_rounds=1),
              check, lambda r: None if r is None else _q(r.rho_star),
              lambda r: float(r.evaluations) if r is not None else 0.0)


def catalog_sweep(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    sectors = [(1.0, 10.0), (0.01, 1.0), _seeded_sector(rng)]
    if tiny:
        sectors = sectors[:1]
    ops: list[Op] = []
    rhos = CERTIFY_RHOS[::3] if tiny else CERTIFY_RHOS
    for m, L in sectors:
        # Fixed catalog methods (relative to L) on the fixed rho grid; they
        # span unstable, gain-failed and certified verdicts.
        nesterov_beta = (math.sqrt(L) - math.sqrt(m)) / (math.sqrt(L) + math.sqrt(m))
        fixed = [("gradient", 1.0 / L, None), ("gradient", 2.0 / (L + m), None),
                 ("gradient", 1.9 / L, None), ("gradient", 2.2 / L, None),
                 ("heavyball", 1.0 / L, 0.1), ("nesterov", 1.0 / L, nesterov_beta),
                 ("pid", 1.0 / L, 0.2)]
        draws = [("gradient", rng.uniform(0.05, 2.2) / L, None),
                 ("heavyball", rng.uniform(0.05, 1.5) / L, rng.uniform(0.0, 0.8)),
                 ("nesterov", rng.uniform(0.05, 1.5) / L, rng.uniform(0.0, 0.8)),
                 ("pid", rng.uniform(0.05, 1.5) / L, rng.uniform(0.0, 0.8))]
        if tiny:
            fixed, draws = fixed[:2], draws[:1]
        for family, alpha, beta in fixed + draws:
            ops += _catalog_ops(family, float(alpha), None if beta is None else float(beta),
                                m, L, rhos)
        ops.append(_curve_op(m, L, 4 if tiny else 12))
        ops.append(_stepsize_op(m, L))
    for m, L in sectors[::2]:
        grid_a = [_sig(a / L) for a in (0.3, 0.9, 1.5)]
        grid_b = [0.0, 0.3, 0.6]
        for family in ("heavyball", "nesterov"):
            ops.append(_two_param_op(family, m, L, grid_a[: 2 if tiny else 3], grid_b[: 2 if tiny else 3]))
    for family, alpha, beta in TRIMMED_DEGREE:
        spec = _catalog_spec(family, alpha, beta)
        ops.append(_bisect_op(_method_tag(family, alpha, beta), spec,
                              oracles.catalog_controller(family, alpha, beta), 1.0, 10.0,
                              alpha if family == "gradient" else None))
    return Workload("catalog-sweep", ops,
                    latencies={"cert": ("certify",), "rate": ("bisect",)},
                    throughputs={"sweep_rates_per_s": (("curve", "search_two_param"), "1/s")})


# --- highorder-custom ------------------------------------------------------------

def _custom_controller(rng, order: int, m: float, L: float):
    """Integrator times mild lead/lag factors and, sometimes, a lightly damped
    resonant pole pair with zeros close by.  Unit DC gain per factor keeps the
    integrator gain at a certifiable gradient stepsize, so most controllers
    certify and each costs a full bisection, whatever the seed."""
    num = np.array([-rng.uniform(0.3, 0.7) * 2.0 / (L + m)])
    den = np.array([-1.0, 1.0])
    left = order - 1
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            theta = rng.uniform(0.2, 2.5)
            rp = rng.uniform(0.85, 0.97)
            rz = min(rp * rng.uniform(0.97, 1.03), 0.99)
            zeros = np.array([rz * rz, -2.0 * rz * math.cos(theta), 1.0])
            poles = np.array([rp * rp, -2.0 * rp * math.cos(theta), 1.0])
            num = np.convolve(num, zeros * poles.sum() / zeros.sum())
            den = np.convolve(den, poles)
            left -= 2
        else:
            a, b = rng.uniform(-0.3, 0.3, size=2)
            num = np.convolve(num, np.array([-a, 1.0]) * (1.0 - b) / (1.0 - a))
            den = np.convolve(den, np.array([-b, 1.0]))
            left -= 1
    return [float(c) for c in num], [float(c) for c in den]


def _custom_ops(tag, num, den, m, L, rhos) -> list[Op]:
    spec = ls.MethodSpec(ls.Family.CUSTOM, custom_tf=ls.RationalTF(tuple(num), tuple(den)))
    coeffs = (np.array(num), np.array(den))
    ops = [_certify_op(tag, spec, coeffs, m, L, rho) for rho in rhos]
    ops.append(_bisect_op(tag, spec, coeffs, m, L))
    return ops


def highorder_custom(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    m, L = 1.0, 10.0
    rhos = CUSTOM_RHOS[::3] if tiny else CUSTOM_RHOS
    ops = _custom_ops(f"custom num={NARROW_RESONANCE['num']} den={NARROW_RESONANCE['den']}",
                      NARROW_RESONANCE["num"], NARROW_RESONANCE["den"], m, L,
                      tuple(sorted(set(rhos) | {0.99})))
    # Orders cycle through 3..6 so every seed does the same mix of root work.
    for i in range(4 if tiny else 192):
        num, den = _custom_controller(rng, 3 + i % 4, m, L)
        ops += _custom_ops(f"custom num={num} den={den}", num, den, m, L, rhos)
    return Workload("highorder-custom", ops,
                    latencies={"cert": ("certify",), "rate": ("bisect",)})


# --- simulate-noise ---------------------------------------------------------------

def _pwl(rng, m, L, pieces=4):
    """Breakpoints from 0 with slopes in [m, L].  The slope at the origin is
    m, so no method reaches the minimizer exactly in a few steps (which would
    leave no residuals to fit a rate to)."""
    bps = [0.0] + sorted(float(b) for b in rng.uniform(0.2, 3.0, size=pieces - 1))
    slopes = [m] + [float(s) for s in rng.uniform(m, L, size=pieces - 1)]
    return {"kind": "pwl", "breakpoints": bps, "slopes": slopes}


def _simulate_op(family, alpha, beta, oracle_json, x0, iters, m, L) -> Op:
    spec = _catalog_spec(family, alpha, beta)
    oracle = ls.oracle_from_json(oracle_json)
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size

    def certified_rate():
        """The rate the run is held to, and any refutation of it: gradient
        descent's closed form, or the library's certificate for momentum
        methods, itself checked by the dense-grid oracle."""
        if family == "gradient":
            return oracles.gradient_rate(alpha, m, L), None
        result = _bisect(spec, ls.SectorClass(m, L))
        if result is None:
            return None, None
        coeffs = oracles.catalog_controller(family, alpha, beta)
        return result.rho_star, oracles.refute_certificate(*coeffs, m, L, result.rho_star)

    def run():
        traj = ls.simulate_run(spec, oracle, x0, iters)
        return ls.estimate_rate(traj)

    def check(est):
        if est.diverged:
            return "simulated run diverged"
        rho_star, cert_reason = certified_rate()
        if rho_star is None:
            return None
        return cert_reason or oracles.refute_simulated_rate(est.rho_hat, rho_star)

    kind = oracle_json["kind"] + ("-rotated" if "rotation_seed" in oracle_json else "")
    return Op(f"simulate {_method_tag(family, alpha, beta)} on {kind} dim={dim} "
              f"{json.dumps(oracle_json)} x0={list(x0)} iters={iters}", "simulate",
              run, check, lambda est: [_q(est.rho_hat), est.diverged],
              lambda est: float(iters * dim))


def _robustness_op(seeds, iters) -> Op:
    sector = ls.SectorClass(0.01, 1.0)
    oracle = ls.QuadraticOracle([0.01, 1.0])

    def check(report):
        return oracles.refute_robustness_order(report.median_standard, report.median_optimal_sector)

    return Op(f"robustness S(0.01,1) quadratic:0.01,1 sigma=1e-3 seeds={list(seeds)} iters={iters}",
              "robustness",
              lambda: ls.noise_robustness_experiment(sector, oracle, 1e-3, seeds, iters),
              check, lambda r: r.median_optimal_sector > r.median_standard,
              lambda r: float(2 * len(seeds) * iters * 2))


def simulate_noise(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    m, L = 1.0, 10.0
    iters = 300
    oracle_jsons = []
    for _ in range(1 if tiny else 2):
        dim = 32
        eigs = [m, L] + [float(e) for e in rng.uniform(m, L, size=dim - 2)]
        oracle_jsons.append({"kind": "quadratic", "eigenvalues": eigs,
                             "rotation_seed": int(rng.integers(0, 2**31))})
        oracle_jsons.append(_pwl(rng, m, L))
        oracle_jsons.append({"kind": "separable", "components": [_pwl(rng, m, L) for _ in range(16)]})
    methods = [("gradient", 1.0 / L, None), ("gradient", 2.0 / (L + m), None),
               ("heavyball", 1.0 / L, 0.1), ("nesterov", 1.0 / L, 0.2)]
    if tiny:
        methods = methods[1:3]
    ops = []
    for oj in oracle_jsons:
        dim = len(oj["eigenvalues"]) if oj["kind"] == "quadratic" else (
            len(oj["components"]) if oj["kind"] == "separable" else 1)
        x0 = [float(v) for v in 2.0 * rng.standard_normal(dim)]
        for family, alpha, beta in methods:
            ops.append(_simulate_op(family, alpha, beta, oj, x0, iters, m, L))
    base = int(rng.integers(0, 2**31 - 100))
    ops.append(_robustness_op(tuple(range(base, base + (3 if tiny else 20))), 600 if tiny else 3000))
    return Workload("simulate-noise", ops,
                    throughputs={"sim_steps_per_s": (("simulate", "robustness"), "1/s")})


# --- cli-cold ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stderr: str
    artifacts: dict[str, bytes]
    maxrss_kb: int


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliRunner:
    """Runs one CLI command in a fresh interpreter.  ``launcher`` is None for
    the plain ``python -m loopshift`` path, or the argv prefix of the traced
    launcher, which takes the file to write its spans to first."""

    def __init__(self, root: Path):
        self.workdir: Path | None = None
        self.launcher: list[str] | None = None
        self.trace_files: list[Path] = []
        self.env = dict(os.environ)
        self.env.pop("LOOPSHIFT_THREADS", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, name: str, args: list[str]) -> CliResult:
        """Artifacts are the files the command wrote whose names start with
        ``name``; every command in a pass writes under its own name."""
        workdir = self.workdir
        argv = [a.replace("{out}", str(workdir)) for a in args]
        if self.launcher is None:
            cmd = [sys.executable, "-m", "loopshift", *argv]
        else:
            trace_out = workdir / f"_trace-{len(self.trace_files)}.json"
            self.trace_files.append(trace_out)
            cmd = [*self.launcher, str(trace_out), *argv]
        err_path = workdir / f"_{name}.stderr"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env,
                                    cwd=str(workdir))
        # wait4 reaps the child and returns its own peak RSS; the timer ends
        # a child that hangs.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        artifacts = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
                     if p.name.startswith(name + ".") or p.name.startswith(name + "-")}
        return CliResult(proc.returncode, err_path.read_text(), artifacts, usage.ru_maxrss)


def _cli_op(runner: CliRunner, name: str, args: list[str], expected: Callable[[], Any],
            compare: Callable[[dict, Any], str | None]) -> Op:
    """``expected`` computes the in-process library answer when checking;
    ``compare`` judges the parsed JSON artifact against it."""

    def check(res: CliResult):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[-300:]}"
        try:
            payload = json.loads(res.artifacts[f"{name}.json"])
        except (KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            return f"JSON artifact does not parse: {exc}"
        return compare(payload, expected())

    def verdict(res: CliResult):
        return [res.code, {k: _sha(v) for k, v in sorted(res.artifacts.items())}]

    return Op(f"loopshift {' '.join(args)}", f"cli:{name}", lambda: runner.run(name, args),
              check, verdict, lambda res: float(sum(len(v) for v in res.artifacts.values())))


def _same(label, got, want) -> str | None:
    return None if got == want else f"{label}: CLI gave {got!r}, library gives {want!r}"


def cli_cold(seed: int, tiny: bool, root: Path) -> Workload:
    # A fixed sector keeps the command sequence's cost the same for every
    # seed; the seed varies the method parameters.
    rng = np.random.default_rng(seed)
    m, L = 1.0, 10.0
    sector = ls.SectorClass(m, L)
    fm, fL = repr(m), repr(L)
    runner = CliRunner(root)
    alpha = _sig(rng.uniform(0.3, 1.8) / L)
    hb_alpha, hb_beta = _sig(rng.uniform(0.3, 1.2) / L), _sig(rng.uniform(0.0, 0.5))
    rho = _sig(rng.uniform(0.8, 0.99))
    a_lo, a_hi, steps = _sig(0.1 / L), _sig(2.3 / L), 4 if tiny else 8
    s_lo, s_hi = _sig(0.3 / L), _sig(1.5 / L)
    sim_oracle = f"quadratic:{m!r},{_sig(rng.uniform(m, L))!r},{L!r}"
    sim_iters = 80
    seeds = 2 if tiny else 3

    def rate_compare(payload, want):
        reason = _same("rho_star", payload["rho_star"], want)
        return reason or oracles.refute_gradient_rate(alpha, m, L, payload["rho_star"])

    def certify_compare(payload, want):
        reason = _same("certified", payload["certified"], want)
        if reason or not payload["certified"]:
            return reason
        return oracles.refute_certificate(*oracles.catalog_controller("heavyball", hb_alpha, hb_beta),
                                          m, L, rho)

    def curve_rows():
        alphas = [float(a) for a in np.linspace(a_lo, a_hi, steps)]
        return [[a, r] for a, r in ls.certified_rate_curve(sector, alphas, tol=TOL)]

    def curve_compare(payload, want):
        reason = _same("curve", payload["curve"], want)
        for a, r in payload["curve"]:
            reason = reason or oracles.refute_gradient_rate(a, m, L, r)
        return reason

    def search_result():
        alphas = [float(a) for a in np.linspace(s_lo, s_hi, 3)]
        betas = [float(b) for b in np.linspace(0.0, 0.6, 3)]
        return ls.search_two_param(sector, alphas, betas, ls.Family.HEAVY_BALL, TOL)

    def search_compare(payload, want):
        reason = _same("rho_star", payload["rho_star"], None if want is None else want.rho_star)
        if reason or want is None:
            return reason
        return oracles.refute_certificate(*oracles.catalog_controller("heavyball", want.alpha, want.beta),
                                          m, L, want.rho_star)

    def simulate_expected():
        spec = ls.parse_method("nesterov:preset", m, L)
        traj = ls.simulate_run(spec, ls.parse_oracle(sim_oracle),
                               ls.parse_oracle(sim_oracle).xstar + 1.0, sim_iters)
        return traj, _bisect(spec, sector)

    def simulate_compare(payload, want):
        traj, cert = want
        reason = _same("final_residual", payload["final_residual"], float(traj.residuals[-1]))
        if reason or cert is None:
            return reason
        if payload.get("rho_hat") is None:
            return f"no rate fit: {payload.get('fit_note')}"
        return oracles.refute_simulated_rate(payload["rho_hat"], cert.rho_star)

    def robustness_expected():
        return ls.noise_robustness_experiment(ls.SectorClass(0.01, 1.0), ls.parse_oracle("quadratic:0.01,1"),
                                              1e-3, range(seeds), 1000)

    def robustness_compare(payload, want):
        return (_same("median_standard", payload["median_standard"], want.median_standard)
                or oracles.refute_robustness_order(payload["median_standard"],
                                                   payload["median_optimal_sector"]))

    bode_methods = ["gradient:preset", "nesterov:preset", f"heavyball:alpha={hb_alpha!r},beta={hb_beta!r}"]

    def bode_expected():
        return [ls.gain_metrics(ls.build_controller(ls.parse_method(t, m, L))).crossover_hz
                for t in bode_methods]

    def bode_compare(payload, want):
        return _same("crossovers", [info["crossover_hz"] for info in payload["methods"]], want)

    def report_expected():
        presets = []
        for family, variant in (("gradient", "standard"), ("gradient", "optimal_sector"),
                                ("nesterov", "standard")):
            r = _bisect(ls.preset(ls.Family(family), m, L, variant), sector)
            presets.append(None if r is None else r.rho_star)
        return presets, ls.search_stepsize(sector, TOL)[1]

    def report_compare(payload, want):
        presets, stepsize_rho = want
        got = [p["rho_star"] for p in payload["presets"] if p.get("available")]
        reason = (_same("preset rho_star", got, presets)
                  or _same("stepsize rho_star", payload["stepsize_search"]["rho_star"], stepsize_rho)
                  or oracles.refute_stepsize_optimum(stepsize_rho, m, L))
        for row in payload["soundness"]:
            if reason is None and row.get("rho_hat") is not None:
                reason = oracles.refute_simulated_rate(row["rho_hat"], row["rho_star"])
        return reason

    def rate_expected():
        result = _bisect(ls.MethodSpec(ls.Family.GRADIENT, alpha=alpha), sector)
        return None if result is None else result.rho_star

    def certify_expected():
        spec = ls.MethodSpec(ls.Family.HEAVY_BALL, alpha=hb_alpha, beta=hb_beta)
        return ls.certify_rate(spec, sector, rho).certified

    sec = ["--m", fm, "--L", fL]
    table = [
        ("rate", ["--method", f"gradient:alpha={alpha!r}", *sec], rate_expected, rate_compare),
        ("certify", ["--method", f"heavyball:alpha={hb_alpha!r},beta={hb_beta!r}", *sec,
                     "--rho", repr(rho)], certify_expected, certify_compare),
        ("curve", [*sec, "--alpha-min", repr(a_lo), "--alpha-max", repr(a_hi),
                   "--alpha-steps", str(steps), "--csv", "{out}/curve.csv"], curve_rows, curve_compare),
        ("search", ["--family", "heavyball", *sec, "--alpha-min", repr(s_lo), "--alpha-max", repr(s_hi),
                    "--alpha-steps", "3", "--beta-min", "0", "--beta-max", "0.6", "--beta-steps", "3"],
         search_result, search_compare),
        ("simulate", ["--method", "nesterov:preset", *sec, "--oracle", sim_oracle, "--iters", str(sim_iters),
                      "--csv", "{out}/simulate.csv"], simulate_expected, simulate_compare),
        ("robustness", ["--m", "0.01", "--L", "1", "--oracle", "quadratic:0.01,1", "--sigma", "1e-3",
                        "--seeds", str(seeds), "--iters", "1000"], robustness_expected, robustness_compare),
        ("bode", ["--methods", ",".join(bode_methods), *sec, "--n", "200", "--csv", "{out}/bode.csv",
                  "--svg", "{out}/bode.svg"], bode_expected, bode_compare),
        ("report", [*sec, "--alpha-steps", "5", "--iters", "200"], report_expected, report_compare),
    ]
    ops = [_cli_op(runner, name, [name, *args, "--json", f"{{out}}/{name}.json"], expected, compare)
           for name, args, expected, compare in table]
    if tiny:
        ops = [op for op in ops if op.kind in ("cli:rate", "cli:curve", "cli:bode")]
    return Workload("cli-cold", ops, latencies={"cli": tuple(op.kind for op in ops)}, runner=runner)


def build(name: str, seed: int, tiny: bool, root: Path) -> Workload:
    if name == "catalog-sweep":
        return catalog_sweep(seed, tiny)
    if name == "highorder-custom":
        return highorder_custom(seed, tiny)
    if name == "simulate-noise":
        return simulate_noise(seed, tiny)
    if name == "cli-cold":
        return cli_cold(seed, tiny, root)
    raise ValueError(f"unknown workload {name!r}")

