import argparse
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from loopshift import Family, MethodSpec, SectorClass, bisect_rate, certify
from loopshift.cli import RunConfig, _build_parser, main, parse_args, split_method_list


def test_parse_certify():
    run = parse_args([
        "certify", "--method", "gradient:alpha=0.18182",
        "--m", "1", "--L", "10", "--rho", "0.9",
    ])
    config = run.config
    assert config.command == "certify"
    assert config.method == "gradient:alpha=0.18182"
    assert (config.m, config.L, config.rho) == (1.0, 10.0, 0.9)
    assert run.method.label == "gradient(alpha=0.18182)"
    assert (run.sector.m, run.sector.L) == (1.0, 10.0)


def test_parse_rate_with_json_path(tmp_path):
    out = tmp_path / "out.json"
    config = parse_args([
        "rate", "--method", "nesterov:alpha=1,beta=0.8182",
        "--m", "0.01", "--L", "1", "--json", str(out),
    ]).config
    assert config.command == "rate"
    assert config.json_out == str(out)


def test_usage_error_on_inverted_sector():
    with pytest.raises(SystemExit) as err:
        parse_args(["certify", "--method", "gradient:alpha=0.1",
                    "--m", "10", "--L", "1", "--rho", "0.9"])
    assert err.value.code == 2


def test_usage_error_on_unknown_flag():
    with pytest.raises(SystemExit) as err:
        parse_args(["rate", "--method", "gradient:alpha=0.1",
                    "--m", "1", "--L", "10", "--fast"])
    assert err.value.code == 2


def test_usage_error_on_bad_method_string():
    for argv in (["rate", "--method", "newton:alpha=1", "--m", "1", "--L", "10"],
                 ["certify", "--method", "gradient:alpha=0.1,alpha=0.2",
                  "--m", "1", "--L", "10", "--rho", "0.9"],
                 ["certify", "--method", "gradient:preset,alpha=0.5",
                  "--m", "1", "--L", "10", "--rho", "0.95"],
                 ["bode", "--methods", ","],
                 # both labelled gradient(alpha=0.1): the second CSV overwrote the first
                 ["bode", "--methods", "gradient:alpha=0.1,gradient:alpha=0.100000000001"]):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2


def test_usage_error_on_bad_rho():
    with pytest.raises(SystemExit) as err:
        parse_args(["certify", "--method", "gradient:alpha=0.1",
                    "--m", "1", "--L", "10", "--rho", "1.5"])
    assert err.value.code == 2


def test_run_config_round_trips_through_json():
    config = parse_args([
        "simulate", "--method", "gradient:alpha=0.1", "--oracle", "quadratic:1,10",
        "--x0", "1,2", "--iters", "50", "--seed", "3",
    ]).config
    assert RunConfig.from_json(json.loads(json.dumps(asdict(config)))) == config


def test_split_method_list_groups_parameter_tokens():
    text = "gradient:alpha=1,gradient:alpha=1.9802,nesterov:alpha=1,beta=0.8182,heavyball:alpha=0.5,beta=0.1"
    assert split_method_list(text) == [
        "gradient:alpha=1",
        "gradient:alpha=1.9802",
        "nesterov:alpha=1,beta=0.8182",
        "heavyball:alpha=0.5,beta=0.1",
    ]


def test_rate_command_prints_recovered_rate(capsys):
    code = main(["rate", "--method", "gradient:alpha=0.18182", "--m", "1", "--L", "10"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.split("rho_star=")[1].split()[0])
    assert value == pytest.approx(max(1 - 0.18182, 10 * 0.18182 - 1), abs=1e-4)
    # the count is of threshold tests; only the final rate gets a certificate
    result = bisect_rate(MethodSpec(Family.GRADIENT, alpha=0.18182), SectorClass(1.0, 10.0))
    assert f"({result.iterations} tests, hinf=" in out


def test_not_certified_is_a_successful_run(capsys):
    code = main(["certify", "--method", "gradient:alpha=0.18182",
                 "--m", "1", "--L", "10", "--rho", "0.8"])
    assert code == 0
    assert "not certified" in capsys.readouterr().out


def test_no_certificate_rate_is_data_not_failure(tmp_path, capsys):
    out = tmp_path / "rate.json"
    code = main(["rate", "--method", "heavyball:alpha=0.18182,beta=0.2",
                 "--m", "1", "--L", "10", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rho_star"] is None and data["certified"] is False


@pytest.mark.parametrize("argv, nulls", [
    (["search", "--m", "1e-10", "--L", "1"], {"alpha_star": None, "rho_star": None}),
    (["search", "--family", "heavyball", "--m", "1", "--L", "10", "--alpha-min", "5",
      "--alpha-max", "6", "--alpha-steps", "2", "--beta-steps", "2"],
     {"alpha": None, "beta": None, "rho_star": None}),
], ids=["gradient", "heavyball"])
def test_search_without_certificate_keeps_the_sector_keys(tmp_path, argv, nulls):
    out = tmp_path / "search.json"
    assert main(argv + ["--json", str(out)]) == 0
    data = json.loads(out.read_text())
    run = parse_args(argv)
    assert data["family"] == run.config.family
    assert (data["m"], data["L"]) == (run.config.m, run.config.L)
    assert nulls.items() <= data.items()


def test_search_without_certificate_counts_its_rate_tests(tmp_path, monkeypatch):
    calls = []
    bisect = certify._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)
    monkeypatch.setattr(certify, "_bisect", counted)
    out = tmp_path / "search.json"
    assert main(["search", "--family", "heavyball", "--m", "1", "--L", "10", "--alpha-min", "5",
                 "--alpha-max", "6", "--alpha-steps", "2", "--beta-steps", "2",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rho_star"] is None
    assert data["evaluations"] == len(calls) == 4


def test_certify_json_artifact_fields(tmp_path):
    out = tmp_path / "cert.json"
    main(["certify", "--method", "gradient:alpha=0.18182",
          "--m", "1", "--L", "10", "--rho", "0.9", "--json", str(out)])
    data = json.loads(out.read_text())
    assert set(data) == {"method", "m", "L", "rho", "stable", "hinf",
                         "threshold", "certified", "margin", "peak_frequency"}
    assert data["certified"] is True


def test_computation_error_exits_one(tmp_path, capsys):
    # a controller with direct feedthrough cannot close the simulated loop
    cfg = tmp_path / "biproper.json"
    cfg.write_text(json.dumps({"method_json": {"family": "custom", "num": [-0.5, 1.0],
                                               "den": [-1.0, 1.0]}}))
    code = main(["simulate", "--config", str(cfg), "--oracle", "quadratic:1,10"])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidParameterError"


# The noise of 10**15 steps needs 7.1 PiB (one coordinate) and 42.6 PiB (three
# seeds of two coordinates): the allocation fails at once, touching no memory.
# The same count without noise would loop, so it is never run here.
@pytest.mark.parametrize("argv", [
    ["simulate", "--method", "gradient:alpha=0.1", "--oracle", "pwl:0:1,1:10", "--x0", "1",
     "--noise-sigma", "0.1", "--seed", "0"],
    ["robustness", "--m", "0.01", "--L", "1", "--oracle", "quadratic:0.01,1", "--sigma", "1e-3",
     "--seeds", "3"],
], ids=["simulate", "robustness"])
def test_noise_too_large_to_allocate_exits_one(capsys, argv):
    assert main(argv + ["--iters", str(10**15)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameterError"
    assert f"gradient noise for {10**15} iterations cannot be allocated" in payload["message"]


@pytest.mark.parametrize("argv, directory", [
    (["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10", "--json", "{tmp}/adir"],
     "adir"),
    (["curve", "--m", "1", "--L", "10", "--alpha-steps", "3", "--csv", "{tmp}/adir"], "adir"),
    # the second of three per-method CSVs: the first CSV and the SVG are not written either
    (["bode", "--methods", "gradient:alpha=1,gradient:alpha=1.9802,nesterov:preset",
      "--m", "0.01", "--L", "1", "--csv", "{tmp}/t.csv", "--svg", "{tmp}/t.svg"],
     "t-gradient_alpha=1.9802.csv"),
], ids=["json", "csv", "bode"])
def test_artifact_path_that_is_a_directory_exits_one(tmp_path, capsys, argv, directory):
    (tmp_path / directory).mkdir()
    errors = []
    for _ in range(2):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    payload = json.loads(errors[0])
    assert payload["error"] == "IsADirectoryError"
    assert payload["message"] == f"[Errno 21] Is a directory: '{tmp_path / directory}'"
    # no artifact and no temp file is left beside it
    assert [p.name for p in tmp_path.iterdir()] == [directory]


@pytest.mark.parametrize("json_path, message", [
    # the OS names a temp file in the regular file: the target as given stands in
    ("afile/x.json", "[Errno 20] Not a directory: 'afile/x.json'"),
    # the OS names the directory it could not make
    ("afile/sub/x.json", "[Errno 20] Not a directory: 'afile/sub'"),
], ids=["temp", "parent"])
def test_artifact_parent_that_is_a_file_leaves_no_directory(tmp_path, capsys, monkeypatch,
                                                            json_path, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    argv = ["curve", "--m", "1", "--L", "10", "--alpha-steps", "3",
            "--csv", "newdir/a/c.csv", "--json", json_path]
    errors = []
    for _ in range(2):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert json.loads(errors[0]) == {"error": "NotADirectoryError", "message": message}
    # the directories made for the CSV are gone with it
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_bytes() == b""


def test_simulate_writes_trajectory_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--method", "gradient:alpha=0.18182",
                 "--oracle", "quadratic:1,10", "--x0", "1,1",
                 "--iters", "200", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,residual"
    assert len(lines) == 202
    assert "rho_hat" in capsys.readouterr().out


def test_artifacts_are_byte_identical_across_runs(tmp_path):
    cases = [
        (["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10"], "--json"),
        (["curve", "--m", "1", "--L", "10", "--alpha-min", "0.05",
          "--alpha-max", "0.21", "--alpha-steps", "6"], "--csv"),
    ]
    for args, flag in cases:
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        main(args + [flag, str(out1)])
        main(args + [flag, str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


SEPARABLE_ORACLE_JSON = {"kind": "separable", "components": [
    {"kind": "pwl", "breakpoints": [0, 0.5, 2], "slopes": [1, 4, 10]},
    {"kind": "pwl", "breakpoints": [0, 1], "slopes": [2, 5]},
    {"kind": "quadratic", "eigenvalues": [3]}]}


# Catalog-only certificate commands, none of which loads numpy, and the exact
# bytes they write.  A refactor that keeps every verdict and rate keeps these
# files.  peak_frequency comes from libm's acos, so the bytes are those of
# Linux/glibc.  The simulations pin every residual of a run on a scalar and a
# separable piecewise-linear oracle and of four integrator loops; a dict in
# argv is a config file's contents.
@pytest.mark.parametrize("name, argv", [
    ("certify-nesterov-0.97.json",
     ["certify", "--method", "nesterov:preset", "--m", "1", "--L", "10", "--rho", "0.97", "--json"]),
    ("certify-nesterov-0.5.json",
     ["certify", "--method", "nesterov:preset", "--m", "1", "--L", "10", "--rho", "0.5", "--json"]),
    ("rate-gradient.json",
     ["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10", "--json"]),
    ("curve.csv",
     ["curve", "--m", "1", "--L", "10", "--alpha-min", "0.02", "--alpha-max", "0.19",
      "--alpha-steps", "25", "--csv"]),
    ("search-heavyball.json",
     ["search", "--m", "1", "--L", "10", "--family", "heavyball", "--beta-steps", "8", "--json"]),
    # its peak_frequency moved under Python 3.12's compensated float sum()
    ("certify-heavyball-0.9.json",
     ["certify", "--method", "heavyball:alpha=0.06,beta=0.3", "--m", "1", "--L", "10",
      "--rho", "0.9", "--json"]),
    ("simulate-pwl.csv",
     ["simulate", "--method", "nesterov:preset", "--m", "1", "--L", "10",
      "--oracle", "pwl:0:1,0.5:4,2:10", "--x0", "3", "--iters", "300", "--csv"]),
    ("simulate-separable.csv",
     ["simulate", "--method", "heavyball:alpha=0.1,beta=0.3",
      "--config", {"oracle_json": SEPARABLE_ORACLE_JSON},
      "--x0", "1.5,-2,0.7", "--iters", "200", "--csv"]),
    # integrator loops: a gradient run whose x_1 is exactly 0 from step 1, and
    # the noise experiment's per-column batch
    ("simulate-gradient.csv",
     ["simulate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10",
      "--oracle", "quadratic:1,10", "--x0", "1,-2", "--iters", "200", "--include-iterates",
      "--csv"]),
    ("robustness.json",
     ["robustness", "--m", "0.01", "--L", "1", "--oracle", "quadratic:0.01,1", "--sigma", "1e-3",
      "--seeds", "3", "--iters", "1000", "--json"]),
    # gradient runs with noise on a scalar and a separable piecewise-linear
    # oracle, which step in Python floats
    ("simulate-gradient-pwl.csv",
     ["simulate", "--method", "gradient:preset", "--m", "1", "--L", "10",
      "--oracle", "pwl:0:1,0.5:4,2:10", "--x0", "3", "--noise-sigma", "1e-3", "--seed", "3",
      "--iters", "300", "--csv"]),
    ("simulate-gradient-separable.csv",
     ["simulate", "--method", "gradient:preset", "--m", "1", "--L", "10",
      "--config", {"oracle_json": SEPARABLE_ORACLE_JSON},
      "--x0", "1.5,-2,0.7", "--noise-sigma", "1e-3", "--seed", "5", "--iters", "200",
      "--include-iterates", "--csv"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_artifacts_match_golden_bytes(tmp_path, name, argv):
    config = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    out = tmp_path / name
    assert main(argv + [str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# Controllers of order 3 and up, whose level tests find their roots with the
# colleague eigenvalues and whose stability tests run Schur-Cohn to depth 3
# and more: the order-4 narrow-resonance controller and an order-6 one, each
# searched and then certified at its rho_star.
NARROW_RESONANCE_JSON = {
    "family": "custom",
    "num": [0.16037083383833653, -0.21533252642457526, 0.13773884700201308, 0.018181818181818184],
    "den": [0.8820395861108509, -1.1843288953351638, -0.22251673958693807, 1.5248060488112511,
            -1.0]}
ORDER_SIX_JSON = {
    "family": "custom",
    "num": [-0.0002459587584401639, 0.004517733255863938, -0.007977593366958788,
            -0.04681200063455363, 0.11334551567025808, -0.06876642653558249],
    "den": [0.004061978561166276, -0.0830626291064667, 0.6347488401577216, -2.2611790880741767,
            3.8778189416582802, -3.1723880431965252, 1.0]}


@pytest.mark.parametrize("name, method_json, argv", [
    ("rate-narrow-resonance.json", NARROW_RESONANCE_JSON, ["rate"]),
    ("certify-narrow-resonance.json", NARROW_RESONANCE_JSON,
     ["certify", "--rho", "0.9901617887440387"]),
    ("rate-custom-order6.json", ORDER_SIX_JSON, ["rate"]),
    ("certify-custom-order6.json", ORDER_SIX_JSON, ["certify", "--rho", "0.9367516218560307"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_high_order_artifacts_match_golden_bytes(tmp_path, name, method_json, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method_json": method_json}))
    out = tmp_path / name
    assert main(argv + ["--m", "1", "--L", "10", "--config", str(config), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _flag_description() -> dict:
    """Each subcommand's help line and, in order, every action it declares."""
    (commands,) = (a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in commands._choices_actions}
    return {
        name: {"help": helps[name], "actions": [
            {"options": a.option_strings, "dest": a.dest, "default": a.default,
             "required": a.required, "type": a.type and a.type.__name__,
             "choices": a.choices and list(a.choices), "help": a.help,
             "action": type(a).__name__}
            for a in sub._actions]}
        for name, sub in commands.choices.items()
    }


# Every command's flags as argparse holds them, which, unlike --help text,
# does not depend on the Python version.
def test_command_flags_match_golden():
    golden = json.loads((GOLDEN / "cli-flags.json").read_text())
    current = _flag_description()
    assert list(current) == list(golden)
    assert current == golden


def test_bode_writes_svg_and_per_method_csv(tmp_path):
    svg = tmp_path / "fig.svg"
    csv = tmp_path / "bode.csv"
    code = main(["bode", "--methods",
                 "gradient:alpha=1,gradient:alpha=1.9802,nesterov:preset",
                 "--m", "0.01", "--L", "1",
                 "--svg", str(svg), "--csv", str(csv)])
    assert code == 0
    assert svg.read_bytes() == (GOLDEN / "bode.svg").read_bytes()
    written = sorted(p.name for p in tmp_path.glob("bode-*.csv"))
    assert len(written) == 3


def test_bode_single_method_uses_given_csv_path(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    # 3/|z-1| is at least 1.5 on the whole circle, so it has no crossover
    for method, crossover in (("gradient:alpha=1", "gradient(alpha=1)@0.1667"),
                              ("gradient:alpha=3", "gradient(alpha=3)@none")):
        main(["bode", "--methods", method, "--csv", str(csv)])
        assert csv.read_text().startswith("f_hz,mag_db")
        assert f"(crossovers: {crossover})" in capsys.readouterr().out


def test_robustness_command(tmp_path, capsys):
    out = tmp_path / "rob.json"
    code = main(["robustness", "--m", "0.01", "--L", "1",
                 "--oracle", "quadratic:0.01,1", "--sigma", "1e-3",
                 "--seeds", "2", "--iters", "1200", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["median_optimal_sector"] > 0
    assert "median steady-state" in capsys.readouterr().out


def test_search_command(capsys):
    code = main(["search", "--m", "1", "--L", "10", "--tol", "1e-5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha_star=0.1818" in out


def test_curve_command_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    # from 2/L = 0.2 up no stepsize certifies
    for alphas, certified in ((("0.05", "0.19"), "5 certified"), (("0.2", "0.3"), "none certified")):
        code = main(["curve", "--m", "1", "--L", "10", "--alpha-min", alphas[0],
                     "--alpha-max", alphas[1], "--alpha-steps", "5", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,rho_star"
        assert len(lines) == 6
        assert f"curve over 5 stepsizes: {certified}" in capsys.readouterr().out


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.95}))
    config = parse_args(["certify", "--method", "gradient:alpha=0.1",
                         "--m", "1", "--L", "10", "--rho", "0.5",
                         "--config", str(cfg)]).config
    assert config.rho == 0.95


def test_custom_method_via_config_json_block(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # -0.1/(z - 1) expressed as a custom controller
    cfg.write_text(json.dumps({"method_json": {
        "family": "custom", "num": [-0.1], "den": [-1.0, 1.0],
    }}))
    code = main(["rate", "--m", "1", "--L", "10", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.split("rho_star=")[1].split()[0]) == pytest.approx(0.9, abs=1e-4)


def test_oracle_via_config_json_block(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle_json": {
        "kind": "separable",
        "components": [
            {"kind": "quadratic", "eigenvalues": [1.0]},
            {"kind": "pwl", "breakpoints": [0.0, 1.0], "slopes": [1.0, 10.0]},
        ],
    }}))
    code = main(["simulate", "--method", "gradient:alpha=0.18182",
                 "--x0", "1,1", "--iters", "120", "--config", str(cfg)])
    assert code == 0
    assert "sep(" in capsys.readouterr().out


def test_config_file_rejects_unknown_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"momentum": 0.5}))
    with pytest.raises(SystemExit) as err:
        parse_args(["certify", "--method", "gradient:alpha=0.1",
                    "--m", "1", "--L", "10", "--rho", "0.5",
                    "--config", str(cfg)])
    assert err.value.code == 2


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["report", "--m", "1", "--L", "10", "--alpha-steps", "5",
                 "--iters", "400", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert {"sector", "presets", "stepsize_search", "curve", "soundness"} <= set(data)
    families = [p["family"] for p in data["presets"]]
    assert "heavyball" in families  # present, marked unavailable
    hb = next(p for p in data["presets"] if p["family"] == "heavyball")
    assert hb["available"] is False
    # a run without a rate fit is not counted as a sound one
    for row in data["soundness"]:
        assert row["sound"] is (None if row["rho_hat"] is None else True)
    checked = sum(row["sound"] is not None for row in data["soundness"])
    out = capsys.readouterr().out
    assert "report for S(1,10)" in out
    assert f"over {checked} of {len(data['soundness'])} runs" in out


def test_report_nesterov_preset_without_certificate(tmp_path):
    # on S(1, 100) the sector-only test certifies no rate for the preset
    out = tmp_path / "report.json"
    assert main(["report", "--m", "1", "--L", "100", "--alpha-steps", "3",
                 "--iters", "400", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    nesterov = next(p for p in data["presets"] if p["family"] == "nesterov")
    assert nesterov["available"] is True and nesterov["rho_star"] is None
    assert "certificate" not in nesterov
    assert {row["method"] for row in data["soundness"]} == {
        p["method"] for p in data["presets"] if p["family"] == "gradient"}
    # on S(1e-10, 1) no preset and no stepsize certifies, and that is data too
    assert main(["report", "--m", "1e-10", "--L", "1", "--alpha-steps", "3",
                 "--iters", "50", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert all(p.get("rho_star") is None for p in data["presets"]) and data["soundness"] == []
    assert data["stepsize_search"]["alpha_star"] is None
    assert data["stepsize_search"]["rho_star"] is None


def test_report_on_a_sector_too_wide_for_the_nesterov_preset(tmp_path, capsys):
    # on S(1, 1e32) the threshold (L+m)/(L-m) rounds to 1: a usage error that
    # names the rounding, before any search runs or any file is written
    out = tmp_path / "wide.json"
    for argv in (["report", "--m", "1", "--L", "1e32", "--json", str(out)],
                 ["rate", "--method", "nesterov:preset", "--m", "1", "--L", "1e32"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "threshold (L+m)/(L-m) rounds to 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_certify_at_a_rate_whose_power_underflows_exits_one(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--method", "heavyball:alpha=0.05,beta=0", "--m", "1", "--L", "10",
                 "--rho", "1e-300", "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "InvalidParameterError",
        "message": "argument scale 1e-300 to the power 2 underflows to 0"}


def test_report_without_any_rate_fit_says_unchecked(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--m", "1", "--L", "10", "--alpha-steps", "3",
                 "--iters", "10", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["soundness"]) == 9
    assert all(row["rho_hat"] is None and row["sound"] is None for row in data["soundness"])
    assert "soundness unchecked over 0 of 9 runs (9 without a rate fit)" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    {"m": "abc"},
    {"iters": "many"},
    {"tol": None},
    {"x0": 5},
    {"m": True},
    {"command": "nope"},
    [1],
    {"oracle_json": {"kind": "quadratic"}},
    {"method_json": {"family": "custom", "num": ["a"], "den": [-1, 1]}},
    {"method_json": [1, 2]},
    {"method_json": {"family": "custom", "num": [float("nan")], "den": [-1, 1]}},
    {"tol": float("nan")},
    {"family": "custom"},
    {"method_json": {"family": "gradient", "alpha": True}},
    {"method_json": {"family": "heavyball", "alpha": 0.1, "beta": "0.5"}},
    {"method_json": {"family": "custom", "num": [True], "den": [-1, 1]}},
    {"method_json": {"family": "custom", "num": [-0.1], "den": ["-1", 1]}},
    {"method_json": {"family": "custom", "num": "0.1", "den": [-1, 1]}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, "10"]}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "rotation_seed": True}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "rotation_seed": "3"}},
    {"oracle_json": {"kind": "pwl", "breakpoints": [0, True], "slopes": [1, 10]}},
    {"oracle_json": {"kind": "pwl", "breakpoints": [0, 1], "slopes": [1, "10"]}},
    {"alpha_min": -1},
    {"beta_max": 1.5},
    {"rho": 5},
    {"method_json": {"family": "custom", "num": [-0.1], "den": [-1, 1], "alpha": 0.5}},
    {"method_json": {"family": "gradient", "alpha": 0.1, "alpah": 0.2}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "rotation_sed": 3}},
    {"seed": -5},
    {"oracle": "quadratic:1,10", "x0": []},
    # rate writes no CSV or SVG: the file was silently not written
    {"csv_out": "r.csv"},
    {"svg_out": "r.svg"},
    {"json_out": ""},
    # a minimizer that is not a finite JSON number once built an oracle
    {"oracle_json": {"kind": "pwl", "breakpoints": [0, 1], "slopes": [1, 10], "xstar": "3"}},
    {"oracle_json": {"kind": "pwl", "breakpoints": [0, 1], "slopes": [1, 10], "xstar": True}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "xstar": ["1", "2"]}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "xstar": [True, 0]}},
    {"oracle_json": {"kind": "quadratic", "eigenvalues": [1, 10], "xstar": [float("nan"), 0]}},
    {"oracle_json": {"kind": "separable", "components": [{"kind": "quadratic", "eigenvalues": [1]}],
                     "xstar": [float("inf")]}},
])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    with pytest.raises(SystemExit) as err:
        main(["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10",
              "--config", str(cfg)])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("loopshift: error: ")


def test_overflowing_gain_is_no_certificate(tmp_path):
    # finite coefficients whose gain modulus overflows a float on the circle
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"method_json": {
        "family": "custom", "num": [7.5e307, -7.5e307], "den": [1.5e308, -1.5e308, 1.0],
    }}))
    rate, cert = tmp_path / "rate.json", tmp_path / "cert.json"
    assert main(["rate", "--m", "1", "--L", "3", "--config", str(cfg), "--json", str(rate)]) == 0
    assert json.loads(rate.read_text())["rho_star"] is None
    assert main(["certify", "--m", "1", "--L", "3", "--rho", "0.99", "--config", str(cfg),
                 "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["certified"] is False and data["hinf"] is None


@pytest.mark.parametrize("argv, prefix", [
    (["simulate", "--method", "gradient:alpha=0.1", "--oracle", "quadratic:1,10", "--x0", "1,a"],
     "loopshift simulate: error: argument --x0: "),
    (["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10",
      "--config", "missing.json"], "loopshift: error: cannot read config file missing.json"),
    (["simulate", "--method", "gradient:alpha=0.1", "--oracle", "quadratic:1,10",
      "--noise-sigma", "0.1", "--seed", "-1"], "loopshift: error: --seed must be >= 0"),
    (["simulate", "--method", "gradient:alpha=0.1", "--oracle", "quadratic:1,10", "--x0", ","],
     "loopshift: error: --x0 needs 2 coordinates, got 0"),
    (["simulate", "--method", "gradient:alpha=0.1", "--oracle", "quadratic:1,10",
      "--x0", "1,2,3"], "loopshift: error: --x0 needs 2 coordinates, got 3"),
    # an empty artifact path was silently not written
    (["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10", "--json", ""],
     "loopshift: error: an artifact path cannot be empty"),
    (["curve", "--m", "1", "--L", "10", "--alpha-steps", "3", "--csv", ""],
     "loopshift: error: an artifact path cannot be empty"),
    (["bode", "--methods", "gradient:alpha=1", "--svg", ""],
     "loopshift: error: an artifact path cannot be empty"),
], ids=["x0-not-numbers", "config-missing", "negative-seed", "x0-empty", "x0-too-long",
        "empty-json", "empty-csv", "empty-svg"])
def test_unreadable_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, prefix):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(prefix)


def test_diverging_simulation_writes_strict_json(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--method", "gradient:alpha=5", "--oracle", "quadratic:1,10",
                 "--json", str(out)])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["diverged"] is True
    assert data["final_residual"] is None
    assert 0 < data["first_nonfinite_step"] <= 500
    json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=reject)
