"""Perturbation bounds from ergodicity certificates and perturbation gaps.

Two routes, matching the two certificate kinds:

* uniform: a chain with uniform certificate (c, b) and any perturbed
  generator within operator-norm distance eps keeps its state-probability
  vector within (1 + log(c/2)) eps / b of the original, asymptotically;
* weighted: a chain with weighted certificate (M, a) and perturbations
  measured in the weighted norms of the reduced system (matrix gap,
  forcing gap) admits a limsup bound in the weighted norm, convertible to
  total variation by the factor 4 / (smallest weight) and to limiting
  means by division by inf d_i / i.

Gap constants are computed grid suprema; the structural multipliers that
hold per chain kind (e.g. 5 eps for a birth-death matrix gap when every
rate moves by at most eps) are exposed only as cross-checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analysis import (ErgodicityCertificate, WeightSequence, column_stats,
                       reduced_block, reduced_rows)
from .model import (Chain, ChainSpec, RateTable, block_suprema, contract,
                    difference, time_blocks)
from .quadrature import ANALYSIS_GRID, doubled_grid


class InfeasibleBoundError(ValueError):
    """The weighted route cannot absorb a perturbation this large."""


# ---------------------------------------------------------------------------
# uniform route

def _require(cert: ErgodicityCertificate, approach: str):
    if cert.approach != approach:
        raise ValueError(f"expected a {approach} certificate, got {cert.approach}")
    if not cert.certified or cert.rate <= 0:
        raise ValueError("certificate does not certify a positive decay rate")


def uniform_limsup_bound(cert: ErgodicityCertificate, eps: float) -> float:
    """Asymptotic state-probability bound (1 + log(c/2)) eps / b for
    generator perturbations with sup-t operator norm at most eps."""
    _require(cert, "uniform")
    if eps < 0:
        raise ValueError("perturbation magnitude must be nonnegative")
    return (1.0 + math.log(cert.amplitude / 2.0)) * eps / cert.rate


def uniform_mean_limsup_bound(cert: ErgodicityCertificate, eps: float,
                              top_state: int) -> float:
    """Limiting-mean variant for a finite space 0..top_state."""
    return top_state * uniform_limsup_bound(cert, eps)


def uniform_bound_at(dist_start: float, dt: float,
                     cert: ErgodicityCertificate, eps: float) -> float:
    """Finite-horizon bound on the state-probability distance after dt,
    starting from a known distance.

    Below the crossover time log(c/2)/b the contraction has not engaged
    and the distance can grow linearly; past it the start distance decays
    and the accumulated perturbation saturates toward the limsup bound.
    """
    _require(cert, "uniform")
    if dt < 0:
        raise ValueError("elapsed time must be nonnegative")
    c, b = cert.amplitude, cert.rate
    crossover = math.log(c / 2.0) / b
    if dt <= crossover:
        return dist_start + dt * eps
    decay = math.exp(-b * dt)
    return (c / 2.0) * decay * dist_start + \
        (math.log(c / 2.0) + 1.0 - c * decay) * eps / b


# ---------------------------------------------------------------------------
# weighted route

def weighted_feasible(cert: ErgodicityCertificate, reduced_gap: float) -> bool:
    """The weighted bound exists iff the certified rate dominates the
    amplified matrix gap."""
    return cert.rate > cert.amplitude * reduced_gap


def critical_reduced_gap(cert: ErgodicityCertificate) -> float:
    """Largest matrix gap the weighted route can absorb: rate / amplitude."""
    _require(cert, "weighted")
    return cert.rate / cert.amplitude


def weighted_limsup_bound(cert: ErgodicityCertificate, reduced_gap: float,
                          forcing_gap: float,
                          forcing_sup: float | None = None) -> float:
    """Asymptotic bound on the weighted-norm distance of state vectors.

    ``forcing_sup`` defaults to the certificate's grid supremum of the
    weighted forcing norm; pass an analytic bound to reproduce closed
    forms stated in terms of the intensity bound.
    """
    _require(cert, "weighted")
    if reduced_gap < 0 or forcing_gap < 0:
        raise ValueError("gaps must be nonnegative")
    m, a = cert.amplitude, cert.rate
    f_sup = cert.forcing_norm_sup if forcing_sup is None else forcing_sup
    if f_sup is None:
        raise ValueError("a forcing-norm bound is required")
    denom = a * (a - m * reduced_gap)
    if denom <= 0:
        raise InfeasibleBoundError(
            f"perturbation too large for the weighted route: amplified matrix "
            f"gap {m * reduced_gap} >= certified rate {a}")
    return m * (m * reduced_gap * f_sup + a * forcing_gap) / denom


def weighted_mean_limsup_bound(cert: ErgodicityCertificate, reduced_gap: float,
                               forcing_gap: float,
                               forcing_sup: float | None = None) -> float:
    """Limiting-mean bound: the weighted bound divided by inf d_i / i."""
    ratio = cert.weight_state_ratio
    if ratio is None or ratio <= 0:
        raise ValueError("limiting means are not certified: inf d_i / i = 0")
    return weighted_limsup_bound(cert, reduced_gap, forcing_gap, forcing_sup) / ratio


def to_total_variation(bound_weighted: float, min_weight: float) -> float:
    """Convert a weighted-norm bound to total variation: factor 4 / d."""
    if min_weight <= 0:
        raise ValueError("minimum weight must be positive")
    return 4.0 * bound_weighted / min_weight


# ---------------------------------------------------------------------------
# computed gaps

class PerturbationGaps:
    """Grid suprema of the distances between an original and a perturbed
    chain: weighted reduced-matrix gap, weighted forcing gap, and the
    plain operator-norm gap of the full generators."""

    def __init__(self, reduced: float, forcing: float, generator: float,
                 grid: int):
        self.reduced = reduced
        self.forcing = forcing
        self.generator = generator
        self.grid = grid


def _generator_norms(diff: RateTable, v: np.ndarray) -> np.ndarray:
    """The l1 column norms of the generator difference V ⊙ (M' - M) with
    one rate row per offset, |v m| being |v| |m|: sum_r |v_r| |dm_r| +
    |sum_r v_r dm_r| with the mass arrivals."""
    s = contract(v, diff.m)
    norms = contract(np.abs(v), np.abs(diff.m))
    if diff.col0 is not None:
        s[:, 0] += diff.col0[1:].sum()
        norms[:, 0] += np.abs(diff.col0)[1:].sum()
    norms += np.abs(s)
    return norms


def _block_gaps(diff: RateTable, v: np.ndarray, w: WeightSequence,
                structural: bool) -> tuple[np.ndarray, ...]:
    """The gaps of one draw at rate values V: the generator's l1 column
    norms and, with ``structural``, before them the weighted reduced
    column norms and the weighted forcing norms."""
    if diff.at is None:
        gen = _generator_norms(diff, v)
    else:
        gen = column_stats(diff.block(v), rates=False)[1]
    if not structural:
        return (gen,)
    return (column_stats(reduced_block(diff, v, w), rates=False)[1],
            w.weighted_norm(diff.forcing_head(v)), gen)


def _row_norms(diff: RateTable, w: WeightSequence, structural: bool):
    """Each rate row's own norm, with a constant, for each gap of
    ``_block_gaps`` (``model.block_suprema``): twice its largest
    multiplier difference for the generator, whose constant is the mass
    arrivals' column, the largest column norm of its reduced table R, and
    the weighted norm of its forcing head."""
    col0 = 0.0 if diff.col0 is None else 2 * np.abs(diff.col0)[1:].sum()
    gen = (2 * np.abs(diff.m).max(axis=1, initial=0.0), col0)
    if not structural:
        return [gen]
    r = reduced_rows(diff, w)
    rows = np.eye(len(diff.m))[..., None]
    return [((np.abs(r.data).sum(axis=1) + np.abs(r.diag)).max(axis=1), 0.0),
            (w.weighted_norm(diff.forcing_head(rows)), 0.0), gen]


def perturbation_gaps(spec: ChainSpec, draws: Sequence[Chain],
                      w: WeightSequence,
                      grid: int = ANALYSIS_GRID) -> PerturbationGaps:
    """Grid suprema over one period of the distances between the original
    and each perturbed chain of ``draws``, maximised over the draws.

    Each distance is contracted from V, shared by the draws, and M' - M
    (``model.difference``), or read from V ⊙ (R' - R), never from the
    chains' own tables; rows summed on one offset are read from V ⊙ (M' -
    M).  The weighted gaps need the weighted reduction, which is defined
    for a generator without overlays: a chain with catastrophes (a
    ``row0``) or mass arrivals (a ``col0``) makes them nan.  The generator
    gap is defined for any perturbed chain on the same state space.

    The suprema are found by ``model.block_suprema``: every block of the
    doubled grid is bounded from the box of its rate values, by
    ``_block_gaps`` at the box's midpoint and the rows' own norms
    (``_row_norms``), and a block is evaluated exactly only where its
    bound reaches the running supremum, shared by the draws.  The values
    folded are those of the same blocks and products, so the gaps equal
    the full grid sweep's, bit for bit.
    """
    if any(chain.size != spec.size for chain in draws):
        raise ValueError("perturbed chain must share the state space")
    period = spec.period if spec.period is not None else 1.0
    structural = not any(chain.rate_table.row0
                         or chain.rate_table.col0 is not None
                         for chain in (spec, *draws))
    diffs = [difference(spec.rate_table, chain.rate_table) for chain in draws]
    tasks = [(diff, lambda v, diff=diff: _block_gaps(diff, v, w, structural),
              _row_norms(diff, w, structural)) for diff in diffs]
    sups = block_suprema(time_blocks(doubled_grid(period, grid)), tasks,
                         3 if structural else 1)
    red, forc, gen = sups if structural else (math.nan, math.nan, *sups)
    return PerturbationGaps(reduced=red, forcing=forc, generator=gen, grid=grid)


# ---------------------------------------------------------------------------
# report

class BoundReport:
    """Both routes evaluated for one perturbation size, with feasibility
    flags; nan marks a bound that does not apply."""

    def __init__(self, eps: float, gaps: PerturbationGaps | None,
                 uniform_limsup: float, uniform_mean_limsup: float,
                 weighted_limsup: float, weighted_tv_limsup: float,
                 weighted_mean_limsup: float, weighted_feasible: bool,
                 eps_critical: float, smaller_route: str | None):
        self.eps = eps
        self.gaps = gaps
        self.uniform_limsup = uniform_limsup
        self.uniform_mean_limsup = uniform_mean_limsup
        self.weighted_limsup = weighted_limsup
        self.weighted_tv_limsup = weighted_tv_limsup
        self.weighted_mean_limsup = weighted_mean_limsup
        self.weighted_feasible = weighted_feasible
        self.eps_critical = eps_critical
        self.smaller_route = smaller_route

    @property
    def best_tv_bound(self) -> float:
        candidates = [b for b in (self.uniform_limsup, self.weighted_tv_limsup)
                      if not math.isnan(b)]
        return min(candidates) if candidates else math.nan


def build_report(eps: float,
                 uniform_cert: ErgodicityCertificate | None,
                 weighted_cert: ErgodicityCertificate | None,
                 gaps: PerturbationGaps | None,
                 top_state: int | None) -> BoundReport:
    """Evaluate every applicable bound; infeasible or inapplicable routes
    come back as nan rather than raising.

    The uniform route is evaluated at the nominal smallness ``eps``.  The
    computed generator gap in ``gaps`` is only reported: nothing compares
    it with ``eps``, which it can exceed.  The weighted route always uses
    the computed gaps.
    """
    u = u_mean = math.nan
    if uniform_cert is not None and uniform_cert.certified:
        u = uniform_limsup_bound(uniform_cert, eps)
        if top_state is not None:
            u_mean = uniform_mean_limsup_bound(uniform_cert, eps, top_state)
    w1d = wtv = wmean = math.nan
    feasible = False
    eps_crit = math.nan
    if weighted_cert is not None and weighted_cert.certified and gaps is not None \
            and not math.isnan(gaps.reduced):
        feasible = weighted_feasible(weighted_cert, gaps.reduced)
        crit_gap = critical_reduced_gap(weighted_cert)
        eps_crit = eps * crit_gap / gaps.reduced if gaps.reduced > 0 else math.inf
        if feasible:
            w1d = weighted_limsup_bound(weighted_cert, gaps.reduced, gaps.forcing)
            wtv = to_total_variation(w1d, weighted_cert.min_weight)
            if weighted_cert.has_mean_bound:
                wmean = weighted_mean_limsup_bound(weighted_cert, gaps.reduced,
                                                   gaps.forcing)
    smaller = None
    if not math.isnan(u) and not math.isnan(wtv):
        smaller = "uniform" if u <= wtv else "weighted"
    elif not math.isnan(u):
        smaller = "uniform"
    elif not math.isnan(wtv):
        smaller = "weighted"
    return BoundReport(eps=eps, gaps=gaps, uniform_limsup=u,
                       uniform_mean_limsup=u_mean, weighted_limsup=w1d,
                       weighted_tv_limsup=wtv, weighted_mean_limsup=wmean,
                       weighted_feasible=feasible, eps_critical=eps_crit,
                       smaller_route=smaller)
