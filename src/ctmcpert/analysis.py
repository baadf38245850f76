"""Weighted-norm machinery and ergodicity certificates.

For a chain on 0..n, eliminating p_0 gives a reduced system for
z = (p_1, ..., p_n).  With a nondecreasing weight sequence d_1 <= ... <= d_n
and the cumulative upper-triangular weight matrix D = diag(d) U (U the
upper-triangular matrix of ones), the similarity transform of the reduced
matrix B by D follows from one identity for every chain without overlays:
(U B U^{-1})[i, j] = sum_{r >= i} (A[r, j] - A[r, j-1]).  Since every
column of A sums to zero, these tail sums come from the off-diagonal
bands alone and stay within the generator's own band range, so the
transform is banded and its column sums are cheap to evaluate on a time
grid.  It is linear in the table, so that of V ⊙ M is V times R, R built
once from the multiplier rows (``reduced_block``).  The per-column decay
rates and their infimum drive the certificates:

* weighted certificate (amplitude M, rate a): the D-weighted distance of
  any two solutions contracts at least like M * exp(-a (t-s));
* uniform certificate (amplitude c, rate b): twice the ergodicity
  coefficient is bounded by c * exp(-b (t-s)), so the total-variation
  distance of any two solutions is at most that same envelope (hence
  c >= 2).

Certificates are only issued for chains whose rates declare a common
period; sup-type constants are grid suprema over one period and are
flagged as such in reports.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import (Chain, ChainSpec, GeneratorBands, GeneratorBlock,
                    RateTable, TimeBlock, rate_runs, time_blocks)
from .quadrature import (ANALYSIS_GRID, adaptive_simpson, doubled_grid,
                         grid_sup, peak_running_integral, simpson_on_grid)


class CertificateError(ValueError):
    """Raised when a certificate is requested outside its domain."""


# ---------------------------------------------------------------------------
# weight sequences

class WeightSequence:
    """Nondecreasing positive weights d_1 <= d_2 <= ... <= d_n."""

    def __init__(self, values):
        vals = self.values = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError("weights must be positive and finite")
        if np.any(np.diff(vals) < 0):
            raise ValueError("weights must be nondecreasing")

    @staticmethod
    def unit(n: int) -> "WeightSequence":
        return WeightSequence(np.ones(n))

    @staticmethod
    def geometric(delta: float, n: int) -> "WeightSequence":
        if not (np.isfinite(delta) and delta >= 1.0):
            raise ValueError(f"geometric weights need a finite delta >= 1, "
                             f"got {delta}")
        return WeightSequence(delta ** np.arange(n))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def min_weight(self) -> float:
        """inf of the weights (their first element, by monotonicity)."""
        return float(self.values.min())

    @property
    def state_ratio_min(self) -> float:
        """inf over i of d_i / i; positive iff limiting-mean bounds exist."""
        return float((self.values / np.arange(1, len(self.values) + 1)).min())

    @property
    def column_norm(self) -> float:
        """l1 operator norm of the cumulative weight matrix."""
        return float(self.values.sum())

    def weighted_norm(self, z: np.ndarray):
        """l1 norm of D z, via tail sums of z; rows of a (T, m) block give
        T norms.  Entries past the m given (m <= n) are zero, so a vector
        whose tail is zero can be given by its head."""
        tails = np.cumsum(z[..., ::-1], axis=-1)[..., ::-1]
        norms = np.abs(tails * self.values[:z.shape[-1]]).sum(axis=-1)
        return float(norms) if z.ndim == 1 else norms

    def ratio(self, k: int) -> np.ndarray:
        """d_{i+k} / d_i over the states i of offset k in D B D^{-1}."""
        d, n = self.values, len(self.values)
        return d[max(k, 0):n + min(k, 0)] / d[max(-k, 0):n - max(k, 0)]


# ---------------------------------------------------------------------------
# the transformed reduced matrix

def reduced_bands_block(g: GeneratorBlock,
                        w: WeightSequence) -> GeneratorBlock:
    """The weighted reduced matrix D B D^{-1} for the generator slices of
    a block, as a table of ``GeneratorBlock`` on states 0..n-1 (reduced
    states 1..n) with its diagonal fixed.

    With T(i, j) = sum_{r >= i} A[r, j], entry (i, j), i, j = 1..n, is
    d_i / d_j * (T(i, j) - T(i, j-1)).  Because every column of A sums to
    zero, T needs no diagonal entry: for i > j it is a tail sum of the
    lower rows of the table, and for i <= j it is minus the sum of the
    upper rows' entries above row i.  Both are running sums over the table
    rows, and the result keeps the generator's own offset range, upper
    offsets -1, -2, ... first.  Off the diagonal the difference is taken
    as A[i, j] (or A[i-1, j-1] above the diagonal) plus the change of one
    tail sum between neighbouring columns, which is exactly zero wherever
    truncation does not cut a band.  A block with a catastrophe row or
    mass-arrival column overlay is refused.  Every step is linear in the
    table, so ``reduced_block`` reduces a chain's multipliers only once.
    """
    if g.row0 is not None or g.col0 is not None:
        raise CertificateError(
            "weighted reduction is not defined for a generator with a "
            "catastrophe row or a mass-arrival column")
    n = g.n
    if len(w) != n:
        raise CertificateError(f"need {n} weights, got {len(w)}")
    p = max((k for k in g.offsets if k > 0), default=0)
    q = max((-k for k in g.offsets if k < 0), default=0)
    # the table on every offset -q..p, zero where the chain has no row
    rows = np.zeros((g.times, q + p + 1, n + 1))
    rows[:, [k + q for k in g.offsets]] = g.data
    # running sums from the outermost offsets in, with a zero slot past
    # each end: tail[:, o + q + 1, c] = sum_{k >= o} A[c+k, c] for o > 0
    # and sum_{k <= o} A[c+k, c] for o < 0
    tail = np.zeros((g.times, q + p + 3, n + 1))
    np.cumsum(rows[:, :q], axis=1, out=tail[:, 1:q + 1])
    np.cumsum(rows[:, :q:-1], axis=1, out=tail[:, q + p + 1:q + 1:-1])
    diag = -(tail[:, q + 2, :n] + tail[:, q, 1:])
    offsets = (tuple(range(-1, -min(q + 1, n), -1))
               + tuple(range(1, min(p + 1, n))))
    data = np.zeros((g.times, len(offsets), n))
    for i, k in enumerate(offsets):
        # offset k of the reduced table reads the generator columns src:
        # row k of A plus the change of the tail beyond row k between
        # each column and its neighbour (src shifted by step), times the
        # weight ratio
        if k < 0:
            out, src, step = data[:, i, -k:], slice(-k, n), 1
        else:
            out, src, step = data[:, i, :n - k], slice(1, n + 1 - k), -1
        beyond = tail[:, k - step + q + 1]
        np.subtract(beyond[:, src],
                    beyond[:, src.start + step:src.stop + step], out=out)
        out += rows[:, k + q, src]
        out *= w.ratio(k)
    return GeneratorBlock(n - 1, offsets, data, fixed_diag=diag)


def reduced_rows(table: RateTable, w: WeightSequence) -> GeneratorBlock:
    """R, ``reduced_bands_block`` of each multiplier row of a table alone
    (``table.block`` of the identity), cached on the table by weight
    sequence."""
    if w not in table.reduced:
        table.reduced[w] = reduced_bands_block(
            table.block(np.eye(len(table.m))[..., None]), w)
    return table.reduced[w]


def reduced_block(table: RateTable, v: np.ndarray,
                  w: WeightSequence) -> GeneratorBlock:
    """``reduced_bands_block(table.block(v), w)`` for rate values V
    (``table.values``) as V times R, R reducing each multiplier row alone
    (``reduced_rows``).  The table and its diagonal are two BLAS products,
    (T, rows) by (rows, K'n) and by (rows, n), whose fused multiply-adds
    may round an entry in its last bits differently from a plain sum of
    products.  An inf rate times a zero of R is a nan without a warning,
    as the rate values themselves are.  A wide table, whose rate values
    vary along the states, does not factor."""
    if table.wide:
        return reduced_bands_block(table.block(v), w)
    r, v = reduced_rows(table, w), v[:, :, 0]
    with np.errstate(invalid="ignore", over="ignore"):
        data = v @ r.data.reshape(len(r.data), -1)
        diag = v @ r.diag
    return GeneratorBlock(r.n, r.offsets, data.reshape(len(v), *r.data.shape[1:]),
                          fixed_diag=diag)


def weighted_reduced_bands(chain: Chain, w: WeightSequence,
                           t: float) -> GeneratorBands:
    """``reduced_block`` at the single time t."""
    table = chain.rate_table
    return reduced_block(table, table.values(TimeBlock(t)), w).at(0)


def column_stats(table: GeneratorBlock, rates: bool = True,
                 sums: bool = True):
    """(smallest decay rate, l1 column sums) per time of a table, which is
    spent: its entries are overwritten by their absolute values, and with
    ``sums`` its diagonal too.  A column's decay rate is -(its diagonal
    entry plus the absolute values of its other entries); their minimum is
    taken as minus the largest of the negated rates, the same number.
    Without ``rates`` the rate is None, without ``sums`` the sums."""
    diag = table.diag  # read while the entries keep their signs
    for a in (table.data, table.row0):
        if a is not None:
            np.abs(a, out=a)
    if table.col0 is not None:  # the rate table's own array: not spent
        table.col0 = np.abs(table.col0)
    offabs = table.column_sums()
    alpha = -(diag + offabs).max(axis=1) if rates else None
    if not sums:
        return alpha, None
    offabs += np.abs(diag, out=diag)
    return alpha, offabs


def _block_profile(per_block: Callable[[TimeBlock], np.ndarray]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t -> ``per_block`` of a block of times holding t, one
    value per time, evaluated block by block: a certificate's rate profile."""

    def fn(ts: np.ndarray) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.concatenate([per_block(tb) for tb in time_blocks(ts)])

    return fn


def decay_rate_fn(spec: ChainSpec, w: WeightSequence) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t -> overall decay rate, for quadrature."""
    table = spec.rate_table
    return _block_profile(lambda tb: column_stats(
        reduced_block(table, table.values(tb), w), sums=False)[0])


# ---------------------------------------------------------------------------
# certificates

class ErgodicityCertificate:
    """Constants witnessing exponential weak ergodicity.

    ``approach == "weighted"``: D-weighted distances contract like
    amplitude * exp(-rate (t-s)).  ``approach == "uniform"``: twice the
    ergodicity coefficient (hence the total-variation distance of any two
    solutions) is bounded by amplitude * exp(-rate (t-s)); amplitude >= 2.
    """

    def __init__(self, approach: str, certified: bool, amplitude: float,
                 rate: float, peak_dev: float, period: float, grid: int,
                 min_weight: float | None = None,
                 weight_state_ratio: float | None = None,
                 reduced_norm_sup: float | None = None,
                 forcing_norm_sup: float | None = None):
        self.approach = approach
        self.certified = certified
        self.amplitude = amplitude
        self.rate = rate
        self.peak_dev = peak_dev
        self.period = period
        self.grid = grid
        self.min_weight = min_weight
        self.weight_state_ratio = weight_state_ratio
        self.reduced_norm_sup = reduced_norm_sup
        self.forcing_norm_sup = forcing_norm_sup

    @property
    def has_mean_bound(self) -> bool:
        return self.weight_state_ratio is not None and self.weight_state_ratio > 0


def _require_period(spec: ChainSpec) -> float:
    if spec.period is None:
        raise CertificateError(
            "certificates are only issued for rates with a declared period")
    return spec.period


def _certificate(approach: str, scale: float,
                 profile: Callable[[np.ndarray], np.ndarray],
                 values: np.ndarray, period: float, grid: int,
                 **extra) -> ErgodicityCertificate:
    """Certificate from a rate profile with ``values`` on the doubled
    grid: the periodic mean is the rate (Simpson on the grid, or adaptive
    Simpson where the grid does not resolve the profile) and
    scale * exp(peak running deviation from the mean) the amplitude.  A
    nonpositive mean yields an uncertified result."""
    total = simpson_on_grid(values, period)
    if total is None:
        total = adaptive_simpson(profile, 0.0, period)
    mean = float(total / period)
    peak = float(peak_running_integral(profile, period, mean, grid,
                                       values=values))
    return ErgodicityCertificate(
        approach=approach, certified=mean > 0.0,
        amplitude=float(scale * np.exp(peak)), rate=mean,
        peak_dev=peak, period=period, grid=grid, **extra)


def weighted_certificate(spec: ChainSpec, w: WeightSequence,
                         grid: int = ANALYSIS_GRID) -> ErgodicityCertificate:
    """Certificate from the periodic mean of the overall decay rate.

    The mean decay rate over one period is the certified rate; the
    amplitude is exp of the peak running deviation of the decay rate from
    its mean.  The reduced-matrix and forcing norms are grid suprema over
    one period (the doubled grid), not analytic bounds.  The forcing
    norms are taken once per run of rate values, each block's V sliced
    from the run's.
    """
    period = _require_period(spec)
    if not isinstance(spec, ChainSpec) or spec.catastrophes is not None:
        raise CertificateError(f"no weighted certificate for kind {spec.kind!r}")
    alphas, b_sup, f_sup = [], 0.0, 0.0
    table = spec.rate_table
    for run in rate_runs(doubled_grid(period, grid)):
        v = table.values(run)
        f_sup = grid_sup(f_sup, w.weighted_norm(table.forcing_head(v)))
        for tb in run.blocks():
            alpha, colsums = column_stats(reduced_block(table, v[tb.at], w))
            alphas.append(alpha)
            b_sup = grid_sup(b_sup, colsums)
    return _certificate(
        "weighted", 1.0, decay_rate_fn(spec, w), np.concatenate(alphas),
        period, grid,
        min_weight=w.min_weight,
        weight_state_ratio=w.state_ratio_min,
        reduced_norm_sup=b_sup,
        forcing_norm_sup=f_sup,
    )


def uniform_from_weighted(cert: ErgodicityCertificate,
                          w: WeightSequence) -> ErgodicityCertificate:
    """Uniform certificate derived from a weighted one on a finite space:
    amplitude 4 * ||D||_1 * M / d, same rate."""
    if cert.approach != "weighted":
        raise CertificateError("expected a weighted certificate")
    if not cert.certified:
        raise CertificateError("cannot derive uniform constants: not certified")
    c = 4.0 * w.column_norm * cert.amplitude / w.min_weight
    return ErgodicityCertificate(
        "uniform", cert.certified, c, cert.rate, cert.peak_dev, cert.period,
        cert.grid, cert.min_weight, cert.weight_state_ratio,
        cert.reduced_norm_sup, cert.forcing_norm_sup)


def catastrophe_uniform_certificate(spec: ChainSpec,
                                    grid: int = ANALYSIS_GRID) -> ErgodicityCertificate:
    """Uniform certificate for a catastrophe chain from the floor of the
    direct-to-zero intensities: amplitude 2 e^{peak}, rate = periodic mean
    of the floor."""
    if not isinstance(spec, ChainSpec) or spec.catastrophes is None:
        raise CertificateError("uniform catastrophe certificate needs a "
                               "catastrophe chain")
    period = _require_period(spec)
    floor = _block_profile(
        lambda tb: spec.bands_block(tb).direct_to_zero().min(axis=1))
    return _certificate("uniform", 2.0, floor,
                        floor(doubled_grid(period, grid)), period, grid)
