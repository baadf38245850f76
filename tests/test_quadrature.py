import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctmcpert
from ctmcpert.quadrature import (_gauss_rule, adaptive_simpson,
                                 gauss_integral, peak_running_integral,
                                 simpson_on_grid)


def test_adaptive_simpson_closed_forms():
    assert adaptive_simpson(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert adaptive_simpson(lambda t: t ** 3, 0.0, 2.0) == pytest.approx(4.0)
    assert adaptive_simpson(lambda t: np.full_like(t, 3.0), 0.0, 5.0) == 15.0


def test_adaptive_simpson_step_function_hits_cap():
    # discontinuous integrand: doubling stops at the cap with a usable value
    f = lambda t: np.where(t < 0.5, 1.0, 3.0)
    val = adaptive_simpson(f, 0.0, 1.0, start=8, cap=1024)
    assert val == pytest.approx(2.0, abs=1e-2)


def test_adaptive_simpson_stops_at_a_nan_node():
    # a node where the profile is nan stays in every later estimate, so
    # doubling on to the cap would only return nan after 2^20 subintervals;
    # the pole at 0.5 + 2^-12 is a node of the first doubling of the 2048
    # subintervals of [0, 1]
    pole = 0.5 + 2.0 ** -12
    nodes = []

    def f(ts):
        nodes.append(len(ts))
        return np.where(ts == pole, np.nan, 1.0 + ts)

    assert math.isnan(adaptive_simpson(f, 0.0, 1.0))
    assert sum(nodes) == 2 ** 12 + 1


def test_gauss_integral_exact_for_polynomials():
    assert gauss_integral(lambda t: t ** 7 - t, 0.0, 1.0) == pytest.approx(
        1 / 8 - 1 / 2, abs=1e-14)


def test_gauss_rule_is_numpys_to_the_bit():
    nodes, weights = _gauss_rule()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(32)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()


def test_bounds_loads_no_numpy_polynomial(tmp_path):
    # the golden-section refinement integrates with the Gauss rule, which
    # is constants: a bounds command imports neither numpy.polynomial nor
    # the eigenvalue solver that leggauss calls
    package = Path(ctmcpert.__file__).resolve().parent
    scn = package / "scenarios" / "pair_arrivals.scn"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy\n"
            "eager = 'numpy.polynomial' in sys.modules\n"
            "from ctmcpert.cli import main\n"
            f"code = main(['--out', {str(tmp_path)!r}, 'bounds', {str(scn)!r}])\n"
            "print(code, eager, 'numpy.polynomial' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    code, eager, loaded = done.stdout.split()[-3:]
    assert code == "0"
    if eager == "True":
        pytest.skip("this numpy imports numpy.polynomial with numpy")
    assert loaded == "False"


def test_simpson_on_grid_agreement():
    xs = np.linspace(0.0, 1.0, 513)
    vals = np.sin(2 * np.pi * xs) + 1.0
    assert simpson_on_grid(vals, 1.0) == pytest.approx(1.0, abs=1e-12)
    rough = np.where(xs < 0.31, 0.0, 1.0)
    assert simpson_on_grid(rough, 1.0) is None


def test_peak_running_integral_closed_forms():
    sine = lambda ts: 1.0 + np.sin(2 * np.pi * np.asarray(ts))
    peak = peak_running_integral(sine, 1.0, 1.0, grid=1024)
    assert peak == pytest.approx(1 / math.pi, abs=1e-12)
    # deviation integral that never goes positive: supremum is 0 at u = 0
    dipping = lambda ts: 0.5 - 2.5 * np.sin(2 * np.pi * np.asarray(ts))
    assert peak_running_integral(dipping, 1.0, 0.5, grid=1024) == pytest.approx(
        0.0, abs=1e-12)
    const = lambda ts: np.full_like(np.asarray(ts, dtype=float), 4.2)
    assert peak_running_integral(const, 1.0, 4.2) == 0.0


def test_peak_running_integral_off_grid_maximum():
    # accuracy tracks the grid at fourth order: coarse grids are usable,
    # production grids reach near machine precision
    f = lambda ts: np.cos(2 * np.pi * np.asarray(ts))
    assert peak_running_integral(f, 1.0, 0.0, grid=64) == pytest.approx(
        1 / (2 * math.pi), abs=1e-8)
    assert peak_running_integral(f, 1.0, 0.0, grid=4096) == pytest.approx(
        1 / (2 * math.pi), abs=1e-13)
