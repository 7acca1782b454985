"""Command-line front door.

Subcommands: bode, certify, rate, curve, search, simulate, robustness,
report.  Artifacts (JSON/CSV/SVG) are written atomically and byte-identical
for identical configs and seeds; "not certified" is a successful run that
reports data, not a failure.  Exit codes: 0 success, 1 computation error
(structured JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bode import bode_csv_text, bode_svg_text, bode_table, gain_metrics
from .certify import (
    bisect_rate,
    certified_rate_curve,
    certify_rate,
    search_stepsize,
    search_two_param,
)
from .errors import (
    InvalidParameterError,
    LoopShiftError,
    NoCertificateError,
    UnsupportedPresetError,
    json_number,
)
from .methods import Family, build_controller, method_from_json, parse_method, preset
from .sectors import (
    PiecewiseLinearOracle,
    QuadraticOracle,
    SectorClass,
    oracle_from_json,
    parse_oracle,
    random_rotation,
)
from .simulate import (
    estimate_rate,
    noise_robustness_experiment,
    simulate_run,
    trajectory_csv_text,
)

_SEARCH_FAMILIES = tuple(f.value for f in Family if f is not Family.CUSTOM)


@dataclass
class RunConfig:
    command: str
    method: str | None = None
    methods: tuple[str, ...] = ()
    m: float | None = None
    L: float | None = None
    rho: float | None = None
    oracle: str | None = None
    # JSON-object forms, settable through --config only; this is the channel
    # for custom controllers and composite oracles
    method_json: dict | None = None
    oracle_json: dict | None = None
    x0: tuple[float, ...] | None = None
    iters: int = 500
    noise_sigma: float = 0.0
    seed: int = 0
    n_seeds: int = 20
    tol: float = 1e-6
    family: str = "gradient"
    alpha_min: float | None = None
    alpha_max: float | None = None
    alpha_steps: int = 25
    beta_min: float = 0.0
    beta_max: float = 0.9
    beta_steps: int = 10
    f_min: float = 1e-4
    n_freq: int = 500
    include_iterates: bool = False
    json_out: str | None = None
    csv_out: str | None = None
    svg_out: str | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """Build a config, checking every field against its annotation:
        floats must be finite real numbers (not bools), ints must be ints,
        and sequences become tuples.  Raises InvalidParameterError."""
        hints = typing.get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise InvalidParameterError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{name: _typed(name, hints[name], value) for name, value in data.items()})


def _typed(name: str, hint, value):
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if hint is float:
        return json_number(value, name)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(name, typing.get_args(hint)[0], v) for v in value)
        expected = "a list"
    else:
        if isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
            return value
        expected = f"of type {hint.__name__}"
    raise InvalidParameterError(f"{name} must be {expected}, got {value!r}")


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def split_method_list(text: str) -> list[str]:
    """Split a comma-separated method list, re-attaching parameter tokens
    (no colon) to the method they belong to."""
    groups: list[str] = []
    family_names = {f.value for f in Family}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token or token in family_names or not groups:
            groups.append(token)
        else:
            groups[-1] += "," + token
    return groups


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopshift",
        description="Certify and explore worst-case convergence rates of "
        "first-order methods viewed as feedback controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sector(p, required=True):
        p.add_argument("--m", type=float, required=required, help="lower sector bound m > 0")
        p.add_argument("--L", type=float, required=required, help="upper sector bound L > m")

    def add_common(p):
        p.add_argument("--config", help="JSON config file; its fields override flags")
        p.add_argument("--json", dest="json_out", help="write the JSON artifact here")

    p = sub.add_parser("certify", help="small-gain rate test at a fixed rho")
    p.add_argument("--method")
    add_sector(p)
    p.add_argument("--rho", type=float, required=True)
    add_common(p)

    p = sub.add_parser("rate", help="bisect for the best certifiable rate")
    p.add_argument("--method")
    add_sector(p)
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p)

    p = sub.add_parser("curve", help="certified rate versus gradient stepsize")
    add_sector(p)
    p.add_argument("--alpha-min", type=float, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, dest="alpha_max")
    p.add_argument("--alpha-steps", type=int, dest="alpha_steps", default=25)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", dest="csv_out")
    add_common(p)

    p = sub.add_parser("search", help="best certifiable parameters")
    add_sector(p)
    p.add_argument("--family", default="gradient", choices=_SEARCH_FAMILIES)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--alpha-min", type=float, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, dest="alpha_max")
    p.add_argument("--alpha-steps", type=int, dest="alpha_steps", default=25)
    p.add_argument("--beta-min", type=float, dest="beta_min", default=0.0)
    p.add_argument("--beta-max", type=float, dest="beta_max", default=0.9)
    p.add_argument("--beta-steps", type=int, dest="beta_steps", default=10)
    add_common(p)

    p = sub.add_parser("simulate", help="run the feedback loop on an oracle")
    p.add_argument("--method")
    add_sector(p, required=False)
    p.add_argument("--oracle")
    p.add_argument("--x0", type=_csv_floats)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma", default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", dest="csv_out")
    p.add_argument("--include-iterates", action="store_true", dest="include_iterates")
    add_common(p)

    p = sub.add_parser("robustness", help="gradient-noise steady-state comparison")
    add_sector(p)
    p.add_argument("--oracle")
    p.add_argument("--sigma", type=float, dest="noise_sigma", required=True)
    p.add_argument("--seeds", type=int, dest="n_seeds", default=20)
    p.add_argument("--iters", type=int, default=3000)
    add_common(p)

    p = sub.add_parser("bode", help="frequency-response tables and plots")
    p.add_argument("--methods", required=True, help="comma-separated method strings")
    add_sector(p, required=False)
    p.add_argument("--f-min", type=float, dest="f_min", default=1e-4)
    p.add_argument("--n", type=int, dest="n_freq", default=500)
    p.add_argument("--csv", dest="csv_out", help="CSV path (per-method suffix added for multiple methods)")
    p.add_argument("--svg", dest="svg_out")
    add_common(p)

    p = sub.add_parser("report", help="preset rates, stepsize curve, soundness summary")
    add_sector(p)
    p.add_argument("--alpha-steps", type=int, dest="alpha_steps", default=21)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p)

    return parser


def parse_args(argv=None) -> RunConfig:
    """Strict argument parsing; every numeric flag is validated against the
    module preconditions before anything runs (usage errors exit 2)."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    data = {k: v for k, v in vars(ns).items()
            if k in RunConfig.__dataclass_fields__ and v is not None}
    if ns.command == "bode":
        data["methods"] = split_method_list(ns.methods)
    if ns.config:
        try:
            overrides = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(overrides, dict):
            parser.error(f"config file {ns.config} must hold a JSON object")
        if "command" in overrides:
            parser.error("a config file cannot set the command")
        data.update(overrides)
    try:
        config = RunConfig.from_json(data)
    except InvalidParameterError as exc:
        parser.error(str(exc))
    _validate(config, parser)
    return config


def _validate(config: RunConfig, parser: argparse.ArgumentParser) -> None:
    if (config.m is None) != (config.L is None):
        parser.error("--m and --L must be given together")
    if config.m is None and config.command not in ("simulate", "bode"):
        parser.error("--m and --L are required")
    if config.command in ("certify", "rate", "simulate") and \
            config.method is None and config.method_json is None:
        parser.error("--method (or a method_json config block) is required")
    if config.command in ("simulate", "robustness") and \
            config.oracle is None and config.oracle_json is None:
        parser.error("--oracle (or an oracle_json config block) is required")
    if config.command == "certify" and not (config.rho and 0.0 < config.rho < 1.0):
        parser.error(f"--rho must lie in (0, 1), got {config.rho}")
    if config.iters < 1:
        parser.error("--iters must be >= 1")
    if config.noise_sigma < 0.0:
        parser.error("--noise-sigma must be >= 0")
    if config.tol <= 0.0:
        parser.error("--tol must be positive")
    if config.n_seeds < 1:
        parser.error("--seeds must be >= 1")
    if config.alpha_steps < 1 or config.beta_steps < 1:
        parser.error("grid step counts must be >= 1")
    if not 0.0 < config.f_min < 0.5:
        parser.error("--f-min must lie in (0, 0.5)")
    if config.n_freq < 2:
        parser.error("--n must be >= 2")
    if config.family not in _SEARCH_FAMILIES:
        parser.error(f"--family must be one of {', '.join(_SEARCH_FAMILIES)}")
    try:
        if config.m is not None:
            sector = _sector(config)
            if config.command in ("curve", "search", "report"):
                _alpha_grid(config, sector)
            if config.command == "search":
                _beta_grid(config)
        if config.command == "bode":
            _resolve_methods(config)
        elif config.method is not None or config.method_json is not None:
            _resolve_method(config)
        if config.oracle is not None or config.oracle_json is not None:
            _resolve_oracle(config)
    except LoopShiftError as exc:
        parser.error(str(exc))


def _write_text(path: str, text: str) -> None:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_safe(obj):
    """Non-finite floats become null, so artifacts stay strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _emit(config: RunConfig, payload: dict, summary: str) -> None:
    print(summary)
    if config.json_out:
        payload = _json_safe(payload)
        _write_text(config.json_out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(json.dumps(payload, sort_keys=True))


def _sector(config: RunConfig) -> SectorClass:
    return SectorClass(config.m, config.L)


def _resolve_method(config: RunConfig):
    if config.method_json is not None:
        return method_from_json(config.method_json, config.m, config.L)
    return parse_method(config.method, config.m, config.L)


def _resolve_methods(config: RunConfig):
    return [parse_method(text, config.m, config.L) for text in config.methods]


def _resolve_oracle(config: RunConfig):
    if config.oracle_json is not None:
        return oracle_from_json(config.oracle_json)
    return parse_oracle(config.oracle)


def _alpha_grid(config: RunConfig, sector: SectorClass) -> list[float]:
    lo = config.alpha_min if config.alpha_min is not None else 0.1 / sector.L
    hi = config.alpha_max if config.alpha_max is not None else 1.9 / sector.L
    if not 0.0 < lo <= hi:
        raise InvalidParameterError("need 0 < alpha-min <= alpha-max")
    return list(np.linspace(lo, hi, config.alpha_steps))


def _beta_grid(config: RunConfig) -> list[float]:
    if not 0.0 <= config.beta_min <= config.beta_max < 1.0:
        raise InvalidParameterError("need 0 <= beta-min <= beta-max < 1")
    return list(np.linspace(config.beta_min, config.beta_max, config.beta_steps))


def _cmd_certify(config: RunConfig) -> int:
    sector = _sector(config)
    spec = _resolve_method(config)
    cert = certify_rate(spec, sector, config.rho)
    verdict = "certified" if cert.certified else "not certified"
    hinf = f"{cert.hinf:.6g}" if math.isfinite(cert.hinf) else "inf"
    summary = (
        f"{cert.method} on S({config.m:g},{config.L:g}) at rho={config.rho:g}: "
        f"{verdict} (stable={cert.stable}, hinf={hinf}, "
        f"threshold={cert.threshold:.6g})"
    )
    _emit(config, asdict(cert), summary)
    return 0


def _cmd_rate(config: RunConfig) -> int:
    sector = _sector(config)
    spec = _resolve_method(config)
    try:
        result = bisect_rate(spec, sector, config.tol)
    except NoCertificateError as exc:
        payload = {"method": spec.label, "m": config.m, "L": config.L,
                   "rho_star": None, "certified": False, "reason": str(exc)}
        _emit(config, payload, f"{spec.label}: no certificate (rates below 1 do not certify)")
        return 0
    payload = {
        "method": spec.label,
        "m": config.m,
        "L": config.L,
        "rho_star": result.rho_star,
        "iterations": result.iterations,
        "certificate": asdict(result.certificate),
        "bracket_history": [list(b) for b in result.bracket_history],
    }
    summary = (
        f"{spec.label}: rho_star={result.rho_star:.6g} "
        f"({result.iterations} certificates, hinf={result.certificate.hinf:.6g}, "
        f"threshold={result.certificate.threshold:.6g})"
    )
    _emit(config, payload, summary)
    return 0


def _cmd_curve(config: RunConfig) -> int:
    sector = _sector(config)
    alphas = _alpha_grid(config, sector)
    rows = certified_rate_curve(sector, alphas, tol=config.tol)
    if config.csv_out:
        lines = ["alpha,rho_star"]
        lines += [f"{a!r},{'' if r is None else repr(r)}" for a, r in rows]
        _write_text(config.csv_out, "\n".join(lines) + "\n")
    certified = [(a, r) for a, r in rows if r is not None]
    if certified:
        best = min(certified, key=lambda ar: ar[1])
        summary = (
            f"curve over {len(rows)} stepsizes: {len(certified)} certified, "
            f"best rho_star={best[1]:.6g} at alpha={best[0]:.6g}"
        )
    else:
        summary = f"curve over {len(rows)} stepsizes: none certified"
    payload = {"m": config.m, "L": config.L,
               "curve": [[a, r] for a, r in rows]}
    _emit(config, payload, summary)
    return 0


def _cmd_search(config: RunConfig) -> int:
    sector = _sector(config)
    if config.family == Family.GRADIENT.value:
        try:
            alpha, rho = search_stepsize(sector, config.tol)
        except NoCertificateError as exc:
            _emit(config, {"alpha_star": None, "rho_star": None, "reason": str(exc)},
                  "stepsize search: no certifiable stepsize")
            return 0
        payload = {"family": "gradient", "m": config.m, "L": config.L,
                   "alpha_star": alpha, "rho_star": rho}
        _emit(config, payload, f"stepsize search: alpha_star={alpha:.6g} rho_star={rho:.6g}")
        return 0
    alphas = _alpha_grid(config, sector)
    result = search_two_param(sector, alphas, _beta_grid(config), Family(config.family),
                              config.tol)
    if result is None:
        _emit(config, {"family": config.family, "alpha": None, "beta": None,
                       "rho_star": None},
              f"{config.family} search: nothing on the grid certifies")
        return 0
    payload = {"family": config.family, "m": config.m, "L": config.L, **asdict(result)}
    summary = (
        f"{config.family} search: alpha={result.alpha:.6g} beta={result.beta:.6g} "
        f"rho_star={result.rho_star:.6g}"
    )
    _emit(config, payload, summary)
    return 0


def _cmd_simulate(config: RunConfig) -> int:
    spec = _resolve_method(config)
    oracle = _resolve_oracle(config)
    x0 = np.asarray(config.x0, dtype=float) if config.x0 else oracle.xstar + 1.0
    traj = simulate_run(spec, oracle, x0, config.iters, config.noise_sigma, config.seed)
    if config.csv_out:
        _write_text(config.csv_out, trajectory_csv_text(traj, config.include_iterates))
    payload = {
        "method": spec.label,
        "oracle": traj.oracle_id,
        "iters": config.iters,
        "seed": config.seed,
        "noise_sigma": config.noise_sigma,
        "final_residual": float(traj.residuals[-1]),
    }
    bad_step = traj.first_nonfinite
    if bad_step is not None:
        payload.update({"diverged": True, "first_nonfinite_step": bad_step})
    try:
        est = estimate_rate(traj)
        payload.update(asdict(est))
        fitted = f"rho_hat={est.rho_hat:.6g} (r2={est.r_squared:.4g})"
    except LoopShiftError as exc:
        payload.update({"rho_hat": None, "fit_note": str(exc)})
        fitted = "no rate fit (too few usable residuals)"
    if bad_step is not None:
        fitted += f", diverged (non-finite from step {bad_step})"
    summary = (
        f"{spec.label} on {traj.oracle_id}: {config.iters} steps, "
        f"final residual={traj.residuals[-1]:.6g}, {fitted}"
    )
    _emit(config, payload, summary)
    return 0


def _cmd_robustness(config: RunConfig) -> int:
    sector = _sector(config)
    oracle = _resolve_oracle(config)
    report = noise_robustness_experiment(
        sector, oracle, config.noise_sigma, range(config.n_seeds), config.iters
    )
    summary = (
        f"noise sigma={config.noise_sigma:g} over {config.n_seeds} seeds: "
        f"median steady-state residual alpha=1/L -> {report.median_standard:.6g}, "
        f"alpha=2/(L+m) -> {report.median_optimal_sector:.6g}"
    )
    _emit(config, asdict(report), summary)
    return 0


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9.=_-]+", "_", label).strip("_")


def _cmd_bode(config: RunConfig) -> int:
    curves = []
    infos = []
    for spec in _resolve_methods(config):
        tf = build_controller(spec)
        curves.append((spec.label, bode_table(tf, config.f_min, config.n_freq)))
        infos.append({"method": spec.label, **asdict(gain_metrics(tf))})
    if config.csv_out:
        if len(curves) == 1:
            _write_text(config.csv_out, bode_csv_text(curves[0][1]))
        else:
            base = Path(config.csv_out)
            for label, rows in curves:
                path = base.with_name(f"{base.stem}-{_slug(label)}{base.suffix or '.csv'}")
                _write_text(str(path), bode_csv_text(rows))
    if config.svg_out:
        _write_text(config.svg_out, bode_svg_text(curves))
    payload = {"f_min": config.f_min, "n": config.n_freq, "methods": infos}
    crossings = ", ".join(
        f"{info['method']}@{info['crossover_hz']:.4g}" if info["crossover_hz"] else
        f"{info['method']}@none"
        for info in infos
    )
    _emit(config, payload, f"bode tables for {len(curves)} methods (crossovers: {crossings})")
    return 0


def _report_oracles(sector: SectorClass):
    mid = 0.5 * (sector.m + sector.L)
    return [
        QuadraticOracle([sector.m, sector.L]),
        QuadraticOracle([sector.m, mid, sector.L], rotation=random_rotation(3, 0)),
        PiecewiseLinearOracle([0.0, 1.0], [sector.m, sector.L]),
    ]


def _cmd_report(config: RunConfig) -> int:
    sector = _sector(config)
    presets = [
        ("gradient", "standard"),
        ("gradient", "optimal_sector"),
        ("nesterov", "standard"),
        ("heavyball", "standard"),
    ]
    entries = []
    certified_entries = []
    for family, variant in presets:
        entry = {"family": family, "preset": variant}
        try:
            spec = preset(Family(family), sector.m, sector.L, variant)
        except UnsupportedPresetError as exc:
            entry.update({"available": False, "note": str(exc)})
            entries.append(entry)
            continue
        entry.update({"available": True, "method": spec.label,
                      "alpha": spec.alpha, "beta": spec.beta})
        try:
            result = bisect_rate(spec, sector, config.tol)
            entry.update({"rho_star": result.rho_star,
                          "certificate": asdict(result.certificate)})
            certified_entries.append((spec, result.rho_star))
        except NoCertificateError:
            entry.update({"rho_star": None})
        entries.append(entry)
    alpha_star, rho_star = search_stepsize(sector, config.tol)
    curve = certified_rate_curve(sector, _alpha_grid(config, sector), tol=config.tol)
    soundness = []
    all_sound = True
    for spec, rho in certified_entries:
        for oracle in _report_oracles(sector):
            traj = simulate_run(spec, oracle, oracle.xstar + 1.0, config.iters)
            row = {"method": spec.label, "oracle": oracle.describe(), "rho_star": rho}
            try:
                est = estimate_rate(traj)
                row.update({"rho_hat": est.rho_hat,
                            "sound": bool(est.rho_hat <= rho + 0.01)})
                all_sound = all_sound and row["sound"]
            except LoopShiftError as exc:
                row.update({"rho_hat": None, "note": str(exc)})
            soundness.append(row)
    payload = {
        "sector": {"m": sector.m, "L": sector.L, "kappa": sector.kappa,
                   "threshold": sector.threshold},
        "presets": entries,
        "stepsize_search": {"alpha_star": alpha_star, "rho_star": rho_star},
        "curve": [[a, r] for a, r in curve],
        "soundness": soundness,
    }
    n_cert = len(certified_entries)
    summary = (
        f"report for S({sector.m:g},{sector.L:g}): {n_cert}/{len(entries)} presets "
        f"certified, best stepsize alpha={alpha_star:.6g} (rho={rho_star:.6g}), "
        f"soundness {'ok' if all_sound else 'VIOLATED'} over {len(soundness)} runs"
    )
    _emit(config, payload, summary)
    return 0


_DISPATCH = {
    "certify": _cmd_certify,
    "rate": _cmd_rate,
    "curve": _cmd_curve,
    "search": _cmd_search,
    "simulate": _cmd_simulate,
    "robustness": _cmd_robustness,
    "bode": _cmd_bode,
    "report": _cmd_report,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed config; every computation here is also reachable as
    a plain library call with identical results."""
    return _DISPATCH[config.command](config)


def main(argv=None) -> int:
    config = parse_args(argv)
    try:
        return run(config)
    except LoopShiftError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
