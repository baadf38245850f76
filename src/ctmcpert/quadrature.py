"""Quadrature helpers shared by the rate and certificate machinery.

Everything here works on vectorized callables ``f(ts: ndarray) -> ndarray``
so that both parsed rate expressions and derived quantities (decay-rate
profiles, catastrophe floors) can be integrated with the same code.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

VecFn = Callable[[np.ndarray], np.ndarray]

#: starting subinterval count for the interval-doubling Simpson rule
SIMPSON_START = 2048
#: hard cap on subintervals; discontinuous integrands stop here
SIMPSON_CAP = 2**20
#: default number of samples per period for grid suprema and profiles
ANALYSIS_GRID = 4096
#: relative agreement of two Simpson estimates that accepts the finer
SIMPSON_TOL = 1e-10
#: golden-section iterations refining a running-integral peak
GOLDEN_ITERS = 80


def _simpson_sum(vals: np.ndarray, h: float) -> float:
    return (h / 3.0) * (
        vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
    )


def adaptive_simpson(f: VecFn, a: float, b: float, start: int = SIMPSON_START,
                     cap: int = SIMPSON_CAP) -> float:
    """Composite Simpson integral of ``f`` over [a, b] with interval doubling.

    The subinterval count doubles until two successive estimates agree to
    ``SIMPSON_TOL`` (relative to max(1, |I|)) or ``cap`` subintervals are
    reached; at the cap the last estimate is returned.  Previously
    evaluated nodes are reused across doublings, so a node where ``f`` is
    nan makes every later estimate nan: the first such estimate is
    returned.
    """
    if b <= a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    m = start
    xs = np.linspace(a, b, m + 1)
    vals = np.asarray(f(xs), dtype=float)
    est = _simpson_sum(vals, (b - a) / m)
    while m < cap:
        if math.isnan(est) and np.isnan(vals).any():
            return est
        mids = a + (b - a) * (np.arange(m) + 0.5) / m
        mid_vals = np.asarray(f(mids), dtype=float)
        merged = np.empty(2 * m + 1)
        merged[0::2] = vals
        merged[1::2] = mid_vals
        m *= 2
        vals = merged
        new_est = _simpson_sum(vals, (b - a) / m)
        if abs(new_est - est) <= SIMPSON_TOL * max(1.0, abs(new_est)):
            return new_est
        est = new_est
    return est


#: the 32-node Gauss-Legendre rule's positive nodes, ascending, and their
#: weights: ``numpy.polynomial.legendre.leggauss(32)`` to the last bit.
#: That rule is exactly symmetric, so the negative half is their mirror.
_GAUSS_NODES = (
    0.048307665687738324,
    0.1444719615827965,
    0.23928736225213706,
    0.33186860228212767,
    0.42135127613063533,
    0.5068999089322294,
    0.5877157572407623,
    0.6630442669302152,
    0.7321821187402897,
    0.7944837959679424,
    0.84936761373257,
    0.8963211557660521,
    0.9349060759377397,
    0.9647622555875064,
    0.9856115115452684,
    0.9972638618494816,
)
_GAUSS_WEIGHTS = (
    0.09654008851472766,
    0.09563872007927471,
    0.09384439908080451,
    0.09117387869576378,
    0.08765209300440378,
    0.08331192422694671,
    0.07819389578707023,
    0.07234579410884834,
    0.06582222277636168,
    0.058684093478535565,
    0.05099805926237609,
    0.042835898022226836,
    0.034273862913021765,
    0.025392065309262024,
    0.016274394730905743,
    0.007018610009470506,
)


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 32 Gauss-Legendre nodes, ascending, and weights, mirrored from
    the constants: no command loads numpy.polynomial or the eigenvalue
    solver that computes them."""
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def gauss_integral(f: VecFn, a: float, b: float) -> float:
    """Fixed 32-node Gauss-Legendre integral; exact enough for cell-sized
    smooth integrands."""
    if b == a:
        return 0.0
    nodes, weights = _gauss_rule()
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    return half * float(np.dot(weights, np.asarray(f(xs), dtype=float)))


def _golden_max(fn: Callable[[float], float], a: float, b: float) -> float:
    """Maximum of a unimodal scalar function on [a, b] by golden section.
    Each distinct point is evaluated once: once the bracket is narrower
    than an ulp, the points repeat."""
    fn = functools.cache(fn)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    return max(f1, f2)


def simpson_on_grid(vals: np.ndarray, width: float) -> float | None:
    """Simpson integral from values on a uniform grid (even subinterval
    count), cross-checked against the half-resolution estimate; ``None``
    when the two disagree beyond ``SIMPSON_TOL`` (relative to max(1, |I|))
    and the caller should fall back to adaptive quadrature.
    """
    m = len(vals) - 1
    if m % 4:
        raise ValueError("grid must have a subinterval count divisible by 4")
    fine = _simpson_sum(vals, width / m)
    coarse = _simpson_sum(vals[::2], 2.0 * width / m)
    if abs(fine - coarse) <= SIMPSON_TOL * max(1.0, abs(fine)):
        return fine
    return None


def peak_running_integral(f: VecFn, period: float, mean: float,
                          grid: int = ANALYSIS_GRID,
                          values: np.ndarray | None = None) -> float:
    """sup over u in [0, period] of the running integral of ``f - mean``.

    The running integral is accumulated by the trapezoid rule on a doubled
    grid and Richardson-extrapolated (O(h^4) at the coarse nodes); the
    winning cell is then refined by golden section with Gauss-Legendre
    integration inside the cell.  The supremum is at least 0 because the
    running integral vanishes at u = 0.  ``values``, when given, must be
    ``f`` evaluated on ``doubled_grid(period, grid)``.
    """
    m = grid
    xs = np.linspace(0.0, period, 2 * m + 1)
    if values is None:
        values = np.asarray(f(xs), dtype=float)
    elif len(values) != 2 * m + 1:
        raise ValueError("precomputed values do not match the doubled grid")
    g = values - mean
    h = period / (2 * m)
    cum_fine = np.concatenate(([0.0], np.cumsum(h * 0.5 * (g[1:] + g[:-1]))))
    g_coarse = g[0::2]
    cum_coarse = np.concatenate(
        ([0.0], np.cumsum(2.0 * h * 0.5 * (g_coarse[1:] + g_coarse[:-1])))
    )
    cum = (4.0 * cum_fine[0::2] - cum_coarse) / 3.0

    j = int(np.argmax(cum))
    lo = max(j - 1, 0)
    hi = min(j + 1, m)
    base = cum[lo]
    x_lo = xs[2 * lo]

    def running(u: float) -> float:
        return base + gauss_integral(lambda ts: np.asarray(f(ts)) - mean, x_lo, u)

    refined = _golden_max(running, x_lo, xs[2 * hi])
    return max(float(cum[j]), refined, 0.0)


def grid_sup(sup: float, values: np.ndarray) -> float:
    """``sup`` folded with the largest of ``values``, inf if one is not
    finite (Python's max would drop a nan)."""
    top = float(values.max())
    return max(sup, top) if math.isfinite(top) else math.inf


def doubled_grid(period: float, grid: int = ANALYSIS_GRID) -> np.ndarray:
    """Grid refined once; used for sup-type certificates so that every
    coarse node is also probed."""
    return np.linspace(0.0, period, 2 * grid + 1)
