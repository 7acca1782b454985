"""Command-line front door.

Subcommands: bode, certify, rate, curve, search, simulate, robustness,
report.  Artifacts (JSON/CSV/SVG) are written atomically and byte-identical
for identical configs and seeds; "not certified" is a successful run that
reports data, not a failure.  Exit codes: 0 success, 1 computation error
or an artifact that cannot be written (structured JSON on stderr), 2 usage
error.

The commands that simulate or use an oracle import those layers, and with
them numpy, when they run; bode, and certify, rate, curve and search on
controllers of order up to 2, never import numpy.  bode loads its layer only
when it runs, since that module's body, two frozen dataclasses, takes a few
milliseconds to import.
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

from .certify import (
    bisect_rate,
    certified_rate_curve,
    certify_rate,
    linspace,
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
from .methods import (Family, MethodSpec, SectorClass, build_controller, method_from_json,
                      parse_method, preset)

if typing.TYPE_CHECKING:
    from .sectors import GradientOracle

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


# Each flag once, with its argparse keywords; a command lists the flags it
# takes and overrides the few keywords that differ for it.
_FLAGS = {
    "--method": {},
    "--methods": {"required": True, "help": "comma-separated method strings"},
    "--m": {"type": float, "required": True, "help": "lower sector bound m > 0"},
    "--L": {"type": float, "required": True, "help": "upper sector bound L > m"},
    "--rho": {"type": float, "required": True},
    "--family": {"choices": _SEARCH_FAMILIES},
    "--tol": {"type": float},
    "--alpha-min": {"type": float},
    "--alpha-max": {"type": float},
    "--alpha-steps": {"type": int},
    "--beta-min": {"type": float},
    "--beta-max": {"type": float},
    "--beta-steps": {"type": int},
    "--oracle": {},
    "--x0": {"type": _csv_floats},
    "--iters": {"type": int},
    "--noise-sigma": {"type": float},
    "--sigma": {"type": float, "dest": "noise_sigma", "required": True},
    "--seeds": {"type": int, "dest": "n_seeds"},
    "--seed": {"type": int},
    "--f-min": {"type": float},
    "--n": {"type": int, "dest": "n_freq"},
    "--csv": {"dest": "csv_out"},
    "--svg": {"dest": "svg_out"},
    "--include-iterates": {"action": "store_true"},
    "--config": {"help": "JSON config file; its fields override flags"},
    "--json": {"dest": "json_out", "help": "write the JSON artifact here"},
}
_SECTOR = ("--m", "--L")
_ALPHAS = ("--alpha-min", "--alpha-max", "--alpha-steps")
_NO_SECTOR = {"--m": {"required": False}, "--L": {"required": False}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopshift",
        description="Certify and explore worst-case convergence rates of "
        "first-order methods viewed as feedback controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags, changes) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag in flags + ("--config", "--json"):
            p.add_argument(flag, **{**_FLAGS[flag], **changes.get(flag, {})})
    return parser


@dataclass(frozen=True)
class Run:
    """A checked command line: its config and every input built from it.
    ``sector`` and ``alphas`` are None without --m/--L, ``method`` and
    ``oracle`` are None when not given."""

    config: RunConfig
    sector: SectorClass | None
    method: MethodSpec | None
    methods: tuple[MethodSpec, ...]
    oracle: GradientOracle | None
    alphas: list[float] | None
    betas: list[float]


def parse_args(argv=None) -> Run:
    """Strict argument parsing: the config is checked and every input is
    built before anything runs (usage errors exit 2)."""
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
        return _resolve(RunConfig.from_json(data))
    except LoopShiftError as exc:
        parser.error(str(exc))


def _resolve(config: RunConfig) -> Run:
    """Check every given input, whether or not the command uses it, so a
    config with a mistaken intent fails loudly, and build each one once."""
    command = config.command
    problems = [
        ((config.m is None) != (config.L is None), "--m and --L must be given together"),
        (config.m is None and command not in ("simulate", "bode"), "--m and --L are required"),
        (command in ("certify", "rate", "simulate") and config.method is None
         and config.method_json is None, "--method (or a method_json config block) is required"),
        (command in ("simulate", "robustness") and config.oracle is None
         and config.oracle_json is None, "--oracle (or an oracle_json config block) is required"),
        (command == "bode" and not config.methods, "--methods needs at least one method"),
        ((command == "certify" or config.rho is not None)
         and not (config.rho and 0.0 < config.rho < 1.0),
         f"--rho must lie in (0, 1), got {config.rho}"),
        (config.iters < 1, "--iters must be >= 1"),
        (config.noise_sigma < 0.0, "--noise-sigma must be >= 0"),
        (config.tol <= 0.0, "--tol must be positive"),
        (config.seed < 0, "--seed must be >= 0"),
        (config.n_seeds < 1, "--seeds must be >= 1"),
        (config.alpha_steps < 1 or config.beta_steps < 1, "grid step counts must be >= 1"),
        (not 0.0 < config.f_min < 0.5, "--f-min must lie in (0, 0.5)"),
        (config.n_freq < 2, "--n must be >= 2"),
        (config.family not in _SEARCH_FAMILIES,
         f"--family must be one of {', '.join(_SEARCH_FAMILIES)}"),
    ]
    for failed, message in problems:
        if failed:
            raise InvalidParameterError(message)
    sector = None if config.m is None else SectorClass(config.m, config.L)
    alphas = _alpha_grid(config, sector)
    betas = _beta_grid(config)
    method = None
    if config.method_json is not None:
        method = method_from_json(config.method_json, config.m, config.L)
    elif config.method is not None:
        method = parse_method(config.method, config.m, config.L)
    methods = tuple(parse_method(text, config.m, config.L) for text in config.methods)
    labels = [spec.label for spec in methods]
    if len(set(labels)) < len(labels):
        # each method's CSV file and JSON entry is named by its label
        raise InvalidParameterError(f"--methods needs one label per method, got {', '.join(labels)}")
    oracle = None
    if config.oracle_json is not None or config.oracle is not None:
        from .sectors import oracle_from_json, parse_oracle

        oracle = (parse_oracle(config.oracle) if config.oracle_json is None
                  else oracle_from_json(config.oracle_json))
        if config.x0 is not None and len(config.x0) != oracle.dim:
            raise InvalidParameterError(f"--x0 needs {oracle.dim} coordinates, got {len(config.x0)}")
    return Run(config, sector, method, methods, oracle, alphas, betas)


def _alpha_grid(config: RunConfig, sector: SectorClass | None) -> list[float] | None:
    """The stepsize grid; without a sector only the given bounds are checked."""
    lo, hi = config.alpha_min, config.alpha_max
    if sector is not None:
        lo = 0.1 / sector.L if lo is None else lo
        hi = 1.9 / sector.L if hi is None else hi
    given = [a for a in (lo, hi) if a is not None]
    if given and not 0.0 < given[0] <= given[-1]:
        raise InvalidParameterError("need 0 < alpha-min <= alpha-max")
    return None if sector is None else linspace(lo, hi, config.alpha_steps)


def _beta_grid(config: RunConfig) -> list[float]:
    if not 0.0 <= config.beta_min <= config.beta_max < 1.0:
        raise InvalidParameterError("need 0 <= beta-min <= beta-max < 1")
    return linspace(config.beta_min, config.beta_max, config.beta_steps)


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


def _emit(run: Run, payload: dict, summary: str) -> None:
    print(summary)
    if run.config.json_out:
        payload = _json_safe(payload)
        _write_text(run.config.json_out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(json.dumps(payload, sort_keys=True))


def _cmd_certify(run: Run) -> tuple[dict, str]:
    config = run.config
    cert = certify_rate(run.method, run.sector, config.rho)
    verdict = "certified" if cert.certified else "not certified"
    hinf = f"{cert.hinf:.6g}" if math.isfinite(cert.hinf) else "inf"
    summary = (
        f"{cert.method} on S({config.m:g},{config.L:g}) at rho={config.rho:g}: "
        f"{verdict} (stable={cert.stable}, hinf={hinf}, "
        f"threshold={cert.threshold:.6g})"
    )
    return asdict(cert), summary


def _cmd_rate(run: Run) -> tuple[dict, str]:
    config, spec = run.config, run.method
    try:
        result = bisect_rate(spec, run.sector, config.tol)
    except NoCertificateError as exc:
        payload = {"method": spec.label, "m": config.m, "L": config.L,
                   "rho_star": None, "certified": False, "reason": str(exc)}
        return payload, f"{spec.label}: no certificate (rates below 1 do not certify)"
    payload = {"method": spec.label, "m": config.m, "L": config.L, **asdict(result)}
    summary = (
        f"{spec.label}: rho_star={result.rho_star:.6g} "
        f"({result.iterations} tests, hinf={result.certificate.hinf:.6g}, "
        f"threshold={result.certificate.threshold:.6g})"
    )
    return payload, summary


def _cmd_curve(run: Run) -> tuple[dict, str]:
    config = run.config
    rows = certified_rate_curve(run.sector, run.alphas, tol=config.tol)
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
    return {"m": config.m, "L": config.L, "curve": [[a, r] for a, r in rows]}, summary


def _stepsize_search(run: Run) -> tuple[dict, str]:
    """The gradient stepsize search's fields and summary; no certifiable stepsize is data."""
    try:
        alpha, rho = search_stepsize(run.sector, run.config.tol)
    except NoCertificateError as exc:
        return {"alpha_star": None, "rho_star": None, "reason": str(exc)}, "no certifiable stepsize"
    return {"alpha_star": alpha, "rho_star": rho}, f"alpha_star={alpha:.6g} rho_star={rho:.6g}"


def _cmd_search(run: Run) -> tuple[dict, str]:
    config, sector = run.config, run.sector
    if config.family == Family.GRADIENT.value:
        found, summary = _stepsize_search(run)
        return ({"family": "gradient", "m": config.m, "L": config.L, **found},
                f"stepsize search: {summary}")
    result = search_two_param(sector, run.alphas, run.betas, Family(config.family), config.tol)
    if result is None:  # nothing certified: each grid point was tested once, none refined
        return ({"family": config.family, "m": config.m, "L": config.L, "alpha": None,
                 "beta": None, "rho_star": None,
                 "evaluations": len(run.alphas) * len(run.betas)},
                f"{config.family} search: nothing on the grid certifies")
    payload = {"family": config.family, "m": config.m, "L": config.L, **asdict(result)}
    summary = (
        f"{config.family} search: alpha={result.alpha:.6g} beta={result.beta:.6g} "
        f"rho_star={result.rho_star:.6g}"
    )
    return payload, summary


def _cmd_simulate(run: Run) -> tuple[dict, str]:
    from .simulate import estimate_rate, simulate_run, trajectory_csv_text

    config, spec, oracle = run.config, run.method, run.oracle
    x0 = oracle.xstar + 1.0 if config.x0 is None else config.x0
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
    return payload, summary


def _cmd_robustness(run: Run) -> tuple[dict, str]:
    from .simulate import noise_robustness_experiment

    config = run.config
    report = noise_robustness_experiment(
        run.sector, run.oracle, config.noise_sigma, range(config.n_seeds), config.iters
    )
    summary = (
        f"noise sigma={config.noise_sigma:g} over {config.n_seeds} seeds: "
        f"median steady-state residual alpha=1/L -> {report.median_standard:.6g}, "
        f"alpha=2/(L+m) -> {report.median_optimal_sector:.6g}"
    )
    return asdict(report), summary


def _cmd_bode(run: Run) -> tuple[dict, str]:
    from .bode import bode_csv_text, bode_svg_text, bode_table, gain_metrics

    config = run.config
    curves = []
    infos = []
    for spec in run.methods:
        tf = build_controller(spec)
        curves.append((spec.label, bode_table(tf, config.f_min, config.n_freq)))
        infos.append({"method": spec.label, **asdict(gain_metrics(tf))})
    if config.csv_out:
        if len(curves) == 1:
            _write_text(config.csv_out, bode_csv_text(curves[0][1]))
        else:
            base = Path(config.csv_out)
            for label, rows in curves:
                slug = re.sub(r"[^A-Za-z0-9.=_-]+", "_", label).strip("_")
                path = base.with_name(f"{base.stem}-{slug}{base.suffix or '.csv'}")
                _write_text(str(path), bode_csv_text(rows))
    if config.svg_out:
        _write_text(config.svg_out, bode_svg_text(curves))
    payload = {"f_min": config.f_min, "n": config.n_freq, "methods": infos}
    crossings = ", ".join(
        f"{info['method']}@{info['crossover_hz']:.4g}" if info["crossover_hz"] else
        f"{info['method']}@none"
        for info in infos
    )
    return payload, f"bode tables for {len(curves)} methods (crossovers: {crossings})"


def _cmd_report(run: Run) -> tuple[dict, str]:
    from .sectors import PiecewiseLinearOracle, QuadraticOracle, random_rotation
    from .simulate import estimate_rate, simulate_run

    config, sector = run.config, run.sector
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
    stepsize, stepsize_summary = _stepsize_search(run)
    curve = certified_rate_curve(sector, run.alphas, tol=config.tol)
    mid = 0.5 * (sector.m + sector.L)
    oracles = [
        QuadraticOracle([sector.m, sector.L]),
        QuadraticOracle([sector.m, mid, sector.L], rotation=random_rotation(3, 0)),
        PiecewiseLinearOracle([0.0, 1.0], [sector.m, sector.L]),
    ]
    soundness = []
    for spec, rho in certified_entries:
        for oracle in oracles:
            traj = simulate_run(spec, oracle, oracle.xstar + 1.0, config.iters)
            row = {"method": spec.label, "oracle": oracle.describe(), "rho_star": rho}
            try:
                est = estimate_rate(traj)
                row.update({"rho_hat": est.rho_hat,
                            "sound": bool(est.rho_hat <= rho + 0.01)})
            except LoopShiftError as exc:
                # a run without a rate fit checks nothing
                row.update({"rho_hat": None, "sound": None, "note": str(exc)})
            soundness.append(row)
    payload = {
        "sector": {"m": sector.m, "L": sector.L, "kappa": sector.kappa,
                   "threshold": sector.threshold},
        "presets": entries,
        "stepsize_search": stepsize,
        "curve": [[a, r] for a, r in curve],
        "soundness": soundness,
    }
    n_cert = len(certified_entries)
    checked = [row["sound"] for row in soundness if row["sound"] is not None]
    verdict = "VIOLATED" if not all(checked) else "ok" if checked else "unchecked"
    unfit = len(soundness) - len(checked)
    summary = (
        f"report for S({sector.m:g},{sector.L:g}): {n_cert}/{len(entries)} presets "
        f"certified; stepsize search: {stepsize_summary}; "
        f"soundness {verdict} over {len(checked)} of {len(soundness)} runs"
        + (f" ({unfit} without a rate fit)" if unfit else "")
    )
    return payload, summary


# command -> (function, help line, its flags before --config/--json, keyword
# changes per flag)
_COMMANDS = {
    "certify": (_cmd_certify, "small-gain rate test at a fixed rho",
                ("--method", *_SECTOR, "--rho"), {}),
    "rate": (_cmd_rate, "search for the best certifiable rate",
             ("--method", *_SECTOR, "--tol"), {}),
    "curve": (_cmd_curve, "certified rate versus gradient stepsize",
              (*_SECTOR, *_ALPHAS, "--tol", "--csv"), {}),
    "search": (_cmd_search, "best certifiable parameters",
               (*_SECTOR, "--family", "--tol", *_ALPHAS, "--beta-min", "--beta-max",
                "--beta-steps"), {}),
    "simulate": (_cmd_simulate, "run the feedback loop on an oracle",
                 ("--method", *_SECTOR, "--oracle", "--x0", "--iters", "--noise-sigma", "--seed",
                  "--csv", "--include-iterates"), _NO_SECTOR),
    "robustness": (_cmd_robustness, "gradient-noise steady-state comparison",
                   (*_SECTOR, "--oracle", "--sigma", "--seeds", "--iters"),
                   {"--iters": {"default": 3000}}),
    "bode": (_cmd_bode, "frequency-response tables and plots",
             ("--methods", *_SECTOR, "--f-min", "--n", "--csv", "--svg"),
             {**_NO_SECTOR, "--csv": {
                 "help": "CSV path (per-method suffix added for multiple methods)"}}),
    "report": (_cmd_report, "preset rates, stepsize curve, soundness summary",
               (*_SECTOR, "--alpha-steps", "--iters", "--tol"), {"--alpha-steps": {"default": 21}}),
}


def main(argv=None) -> int:
    """Run one command; every computation here is also reachable as a plain
    library call with identical results."""
    run = parse_args(argv)
    try:
        _emit(run, *_COMMANDS[run.config.command][0](run))
    except (LoopShiftError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
