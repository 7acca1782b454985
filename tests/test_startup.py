"""The package surface and fresh-interpreter checks: the certificate
commands and bode start without numpy, and searches with a tolerance below
the float spacing end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopshift
import loopshift.sectors

SRC = Path(__file__).resolve().parents[1] / "src"

# prints, as its last line, the numpy modules the code before it loaded
NUMPY_LOADED = ("\nprint(json.dumps(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'numpy')))")


def _fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=str(cwd), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def _numpy_modules(code: str, cwd: Path) -> list[str]:
    proc = _fresh("import json, sys\n" + code + NUMPY_LOADED, cwd)
    return json.loads(proc.stdout.splitlines()[-1])


NUMPY_FREE_COMMANDS = [
    ["certify", "--method", "heavyball:alpha=0.05,beta=0.5", "--m", "1", "--L", "10",
     "--rho", "0.95"],
    ["rate", "--method", "nesterov:preset", "--m", "1", "--L", "10"],
    ["curve", "--m", "1", "--L", "10", "--alpha-steps", "5"],
    ["search", "--m", "1", "--L", "10"],
    ["search", "--family", "heavyball", "--m", "1", "--L", "10", "--alpha-steps", "3",
     "--beta-steps", "3"],
    ["bode", "--methods", "gradient:alpha=1,gradient:alpha=1.9802,nesterov:preset", "--m", "0.01",
     "--L", "1", "--csv", "tables.csv", "--svg", "fig.svg"],
]


def test_every_public_name_resolves():
    for name in loopshift.__all__:
        assert getattr(loopshift, name) is not None, name
    assert loopshift.sectors.SectorClass is loopshift.SectorClass
    for gone in ("hinf_peak", "realize", "StateSpace"):
        with pytest.raises(AttributeError):
            getattr(loopshift, gone)


def test_public_surface_matches_golden():
    golden = json.loads((Path(__file__).resolve().parent / "golden/public-api.json").read_text())
    assert sorted(loopshift.__all__) == golden
    for gone in ("poly_add", "poly_sub", "poly_scale", "poly_mul", "tf_mul",
                 "freq_response_many", "nesterov_derivative_tf", "derivative_form_check",
                 "tf_allclose"):
        with pytest.raises(AttributeError):
            getattr(loopshift, gone)


def test_import_leaves_numpy_out(tmp_path):
    assert _numpy_modules("import loopshift", tmp_path) == []


@pytest.mark.parametrize("layer", ["bode", "sectors", "simulate"])
def test_numpy_layer_loads_as_a_package_attribute(tmp_path, layer):
    # this process has imported every layer, so only a fresh interpreter
    # reaches the package's attribute hook
    _fresh(f"import loopshift\nassert loopshift.{layer}.__name__ == 'loopshift.{layer}'",
           tmp_path)


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_certificate_commands_run_without_numpy(tmp_path, argv):
    code = (f"from loopshift.cli import main\n"
            f"assert main({argv + ['--json', 'out.json']!r}) == 0")
    assert _numpy_modules(code, tmp_path) == []
    assert json.loads((tmp_path / "out.json").read_text())


def test_bode_of_an_overflowing_gain_warns_nothing(tmp_path):
    # numpy's overflow warning from the table's division reached stderr
    proc = _fresh("from loopshift.cli import main\n"
                  "assert main(['bode', '--methods', 'gradient:alpha=1e308', '--n', '3']) == 0",
                  tmp_path)
    assert proc.stderr == ""


def test_simulate_from_an_overflowing_start_warns_nothing(tmp_path):
    # the start state x0 / c, and the centered start x0 - x*, overflowed
    # outside the loop's errstate: numpy's warning reached stderr, and under
    # -W error::RuntimeWarning the library raised instead of returning the
    # diverged run
    proc = _fresh("import warnings\n"
                  "from loopshift import PiecewiseLinearOracle, parse_method, parse_oracle, "
                  "simulate_run\n"
                  "from loopshift.cli import main\n"
                  "spec = parse_method('gradient:alpha=0.1')\n"
                  "with warnings.catch_warnings():\n"
                  "    warnings.simplefilter('error', RuntimeWarning)\n"
                  "    quad = parse_oracle('quadratic:1,10')\n"
                  "    traj = simulate_run(spec, quad, [1e308, 1e308], 50)\n"
                  "    assert traj.first_nonfinite == 0, traj.residuals\n"
                  "    moved = PiecewiseLinearOracle([0.0, 1.0], [1.0, 10.0], xstar=1e308)\n"
                  "    assert simulate_run(spec, moved, -1e308, 50).first_nonfinite == 0\n"
                  "assert main(['simulate', '--method', 'gradient:alpha=0.1', '--oracle', "
                  "'pwl:0:1,1:10', '--x0', '1e308', '--iters', '20']) == 0",
                  tmp_path)
    assert proc.stderr == ""
    assert "diverged (non-finite from step 0)" in proc.stdout


def test_overflowing_scaled_numerator_is_not_certified(tmp_path):
    # at rho = 0.5 the scaled shifted numerator is (inf, -inf, inf, -inf, 3.0):
    # the level test read gain -1.0, "does not reach", and the climb from
    # that level never ended
    a, b = 4.0866507834627503e+307, 8.173301566925501e+307
    config = {"method_json": {"family": "custom", "num": [a, -a, a, -a, 0.75],
                              "den": [b, -b, b, -b, 1.0]}}
    (tmp_path / "huge.json").write_text(json.dumps(config))
    argv = ["certify", "--m", "1", "--L", "3", "--rho", "0.5", "--config", "huge.json",
            "--json", "out.json"]
    _fresh("import math\n"
           "from loopshift import Family, MethodSpec, RationalTF, SectorClass, certify_rate\n"
           "from loopshift.cli import main\n"
           f"tf = RationalTF({config['method_json']['num']!r}, {config['method_json']['den']!r})\n"
           "cert = certify_rate(MethodSpec(Family.CUSTOM, custom_tf=tf), SectorClass(1, 3), 0.5)\n"
           "assert cert.stable and not cert.certified and cert.hinf == math.inf, cert\n"
           f"assert main({argv!r}) == 0", tmp_path)
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["certified"] is False and data["stable"] is True
    assert data["hinf"] is None and data["peak_frequency"] is None


def test_order_three_controller_loads_numpy_on_first_use(tmp_path):
    config = {"method_json": {"family": "custom", "num": [0.0, 0.03, -0.1],
                              "den": [-0.06, 0.46, -1.4, 1.0]}}
    (tmp_path / "custom.json").write_text(json.dumps(config))
    argv = ["rate", "--m", "1", "--L", "10", "--config", "custom.json", "--json", "out.json"]
    code = f"from loopshift.cli import main\nassert main({argv!r}) == 0"
    assert "numpy" in _numpy_modules(code, tmp_path)
    # the same rate as when numpy loaded at import
    assert json.loads((tmp_path / "out.json").read_text())["rho_star"] == 0.8941386635576845


@pytest.mark.parametrize("argv, want", [
    # gradient descent with alpha = 0.1 on S(1, 10): rho* = 0.9
    (["rate", "--method", "gradient:alpha=0.1", "--m", "1", "--L", "10", "--tol", "1e-20"], 0.9),
    # the best stepsize on S(0.01, 1) has rate (L - m)/(L + m)
    (["search", "--m", "0.01", "--L", "1", "--tol", "1e-16"], 0.99 / 1.01),
], ids=["rate", "search"])
def test_searches_below_float_spacing_end(tmp_path, argv, want):
    # both ran until killed when the loops only compared the width with tol
    _fresh(f"from loopshift.cli import main\n"
           f"assert main({argv + ['--json', 'out.json']!r}) == 0", tmp_path)
    got = json.loads((tmp_path / "out.json").read_text())["rho_star"]
    assert got == pytest.approx(want, abs=1e-13)
