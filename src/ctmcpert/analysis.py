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
grid.  The per-column decay rates and their infimum drive the
certificates:

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

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .model import (Chain, ChainSpec, GeneratorBands, GeneratorBlock,
                    TimeBlock, reduced_system_at, time_blocks)
from .quadrature import (ANALYSIS_GRID, adaptive_simpson, doubled_grid,
                         peak_running_integral, simpson_on_grid)
from .rates import RateFunction, periodic_mean


class CertificateError(ValueError):
    """Raised when a certificate is requested outside its domain."""


# ---------------------------------------------------------------------------
# weight sequences

@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Nondecreasing positive weights d_1 <= d_2 <= ... <= d_n."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
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

    @staticmethod
    def explicit(values) -> "WeightSequence":
        return WeightSequence(np.asarray(values, dtype=float))

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

    def matrix(self) -> np.ndarray:
        n = len(self.values)
        return np.triu(np.tile(self.values[:, None], (1, n)))

    def inverse_matrix(self) -> np.ndarray:
        n = len(self.values)
        inv = np.diag(1.0 / self.values)
        idx = np.arange(n - 1)
        inv[idx, idx + 1] = -1.0 / self.values[1:]
        return inv

    def weighted_norm(self, z: np.ndarray):
        """l1 norm of D z, via tail sums of z; rows of a (T, m) block give
        T norms.  Entries past the m given (m <= n) are zero, so a vector
        whose tail is zero can be given by its head."""
        tails = np.cumsum(z[..., ::-1], axis=-1)[..., ::-1]
        norms = np.abs(tails * self.values[:z.shape[-1]]).sum(axis=-1)
        return float(norms) if z.ndim == 1 else norms

    @cached_property
    def _ratios(self) -> dict[int, np.ndarray]:
        return {}

    def ratio(self, k: int) -> np.ndarray:
        """d_{i+k} / d_i over the states i of offset k in D B D^{-1},
        computed once per offset."""
        if k not in self._ratios:
            d, n = self.values, len(self.values)
            self._ratios[k] = (d[max(k, 0):n + min(k, 0)]
                               / d[max(-k, 0):n - max(k, 0)])
        return self._ratios[k]


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
    mass-arrival column overlay is refused.
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
    rows = {k: g.data[:, i] for i, k in enumerate(g.offsets)}
    # running sums over the table rows, from the outermost offsets in:
    # tail[o][:, c] = sum_{k >= o} A[c+k, c] and
    # tail[-e][:, c] = sum_{m >= e} A[c-m, c] (None: no row that far out)
    tail = {}
    for sign, top in ((1, p), (-1, q)):
        acc = None
        for o in range(sign * top, 0, -sign):
            if o in rows:
                acc = rows[o] if acc is None else acc + rows[o]
            tail[o] = acc
    zero = None if p and q else np.zeros((g.times, n + 1))
    diag = -(tail.get(1, zero)[:, :n] + tail.get(-1, zero)[:, 1:])
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
        beyond = tail.get(k - step)
        if beyond is None:  # the outermost offset on each side
            np.multiply(rows[k][:, src], w.ratio(k), out=out)
            continue
        np.subtract(beyond[:, src],
                    beyond[:, src.start + step:src.stop + step], out=out)
        if k in rows:
            out += rows[k][:, src]
        out *= w.ratio(k)
    return GeneratorBlock(n - 1, offsets, data, fixed_diag=diag)


def weighted_reduced_bands(chain: Chain, w: WeightSequence,
                           t: float) -> GeneratorBands:
    """``reduced_bands_block`` at the single time t."""
    return reduced_bands_block(chain.bands_block(TimeBlock(t)), w).at(0)


def weighted_reduced_matrix(spec: ChainSpec, w: WeightSequence,
                            t: float) -> np.ndarray:
    """Dense weighted reduced matrix assembled from the tail-sum table of
    ``reduced_bands_block``."""
    return weighted_reduced_bands(spec, w, t).dense()


def similarity_reduced_matrix(spec: ChainSpec, w: WeightSequence,
                              t: float) -> np.ndarray:
    """Cross-check path: the same matrix via the dense similarity
    transform D B D^{-1} of the reduced system."""
    red = reduced_system_at(spec, t)
    return w.matrix() @ red.matrix @ w.inverse_matrix()


def column_stats(table: GeneratorBlock, rates: bool = True):
    """(decay rates, l1 column sums) per time of a table, which is spent:
    its entries are overwritten by their absolute values.  Without
    ``rates`` the decay rates are None and the diagonal is spent too."""
    diag = table.diag  # read while the entries keep their signs
    for a in (table.data, table.row0, table.col0):
        if a is not None:
            np.abs(a, out=a)
    offabs = table.column_sums()
    if not rates:
        offabs += np.abs(diag, out=diag)
        return None, offabs
    return -(diag + offabs), np.abs(diag) + offabs


def _reduced_stats(spec: ChainSpec, w: WeightSequence, tb: TimeBlock):
    return column_stats(reduced_bands_block(spec.bands_block(tb), w))


def log_norm(m: np.ndarray) -> float:
    """Logarithmic norm induced by the l1 vector norm: the largest column
    sum of (diagonal entry) + (absolute off-diagonal entries)."""
    m = np.asarray(m, dtype=float)
    diag = np.diag(m)
    return float((np.abs(m).sum(axis=0) - np.abs(diag) + diag).max())


def decay_rates_at(spec: ChainSpec, w: WeightSequence, t: float) -> np.ndarray:
    """Per-column exponential decay rates of the weighted reduced matrix;
    their minimum is -log_norm of that matrix."""
    return _reduced_stats(spec, w, TimeBlock(t))[0][0]


def decay_rate_at(spec: ChainSpec, w: WeightSequence, t: float) -> float:
    return float(decay_rates_at(spec, w, t).min())


def _block_profile(spec: ChainSpec,
                   per_block: Callable[[GeneratorBlock], np.ndarray]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t -> ``per_block`` of the generator slices at t, one
    value per time, evaluated block by block: a certificate's rate profile."""

    def fn(ts: np.ndarray) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.concatenate([per_block(spec.bands_block(tb))
                               for tb in time_blocks(ts)])

    return fn


def decay_rate_fn(spec: ChainSpec, w: WeightSequence) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t -> overall decay rate, for quadrature."""
    return _block_profile(spec, lambda g: column_stats(
        reduced_bands_block(g, w))[0].min(axis=1))


def reduced_norm_at(spec: ChainSpec, w: WeightSequence, t: float) -> float:
    """l1 norm of the weighted reduced matrix at time t."""
    return float(_reduced_stats(spec, w, TimeBlock(t))[1].max())


def forcing_norm_at(spec: ChainSpec, w: WeightSequence, t: float) -> float:
    """Weighted l1 norm of the reduced-system forcing vector at time t."""
    return float(w.weighted_norm(spec.bands_block(TimeBlock(t)).forcing())[0])


# ---------------------------------------------------------------------------
# certificates

def peak_deviation(rate: RateFunction, mean: float | None = None,
                   grid: int = ANALYSIS_GRID) -> float:
    """Largest running integral of (rate - periodic mean) over one period.

    exp of this value converts the integral decay e^{-int rate} into the
    exponential-constant form amplitude * e^{-mean (t-s)}.
    """
    if rate.period is None:
        raise ValueError("peak deviation requires a declared period")
    if mean is None:
        mean = periodic_mean(rate)
    return peak_running_integral(rate.values, rate.period, mean, grid)


@dataclass(frozen=True)
class ErgodicityCertificate:
    """Constants witnessing exponential weak ergodicity.

    ``approach == "weighted"``: D-weighted distances contract like
    amplitude * exp(-rate (t-s)).  ``approach == "uniform"``: twice the
    ergodicity coefficient (hence the total-variation distance of any two
    solutions) is bounded by amplitude * exp(-rate (t-s)); amplitude >= 2.
    """

    approach: str
    certified: bool
    amplitude: float
    rate: float
    peak_dev: float
    period: float
    grid: int
    min_weight: float | None = None
    weight_state_ratio: float | None = None
    reduced_norm_sup: float | None = None
    forcing_norm_sup: float | None = None

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
    one period (the doubled grid), not analytic bounds.
    """
    period = _require_period(spec)
    if not isinstance(spec, ChainSpec) or spec.catastrophes is not None:
        raise CertificateError(f"no weighted certificate for kind {spec.kind!r}")
    alphas, b_sup, f_sup = [], 0.0, 0.0
    for tb in time_blocks(doubled_grid(period, grid)):
        g = spec.bands_block(tb)
        rates, colsums = column_stats(reduced_bands_block(g, w))
        alphas.append(rates.min(axis=1))
        b_sup = max(b_sup, float(colsums.max()))
        f_sup = max(f_sup, float(w.weighted_norm(g.forcing(head=True)).max()))
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
    return replace(cert, approach="uniform", amplitude=c)


def catastrophe_uniform_certificate(spec: ChainSpec,
                                    grid: int = ANALYSIS_GRID) -> ErgodicityCertificate:
    """Uniform certificate for a catastrophe chain from the floor of the
    direct-to-zero intensities: amplitude 2 e^{peak}, rate = periodic mean
    of the floor."""
    if not isinstance(spec, ChainSpec) or spec.catastrophes is None:
        raise CertificateError("uniform catastrophe certificate needs a "
                               "catastrophe chain")
    period = _require_period(spec)
    floor = _block_profile(spec, lambda g: g.direct_to_zero().min(axis=1))
    return _certificate("uniform", 2.0, floor,
                        floor(doubled_grid(period, grid)), period, grid)
