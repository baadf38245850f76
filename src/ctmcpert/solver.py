"""Fixed-step integration of the truncated forward equation dp/dt = A(t) p.

The stepper is the classical 4th-order one-step method on the banded
generator; the step guard keeps h <= 1 / (2 L), inside the stability
region of the method for a spectrum bounded by ||A||_1 = 2 L, with margin.
Probability mass is conserved by construction (columns of A sum to zero),
so conservation is asserted, never enforced; a violation indicates a
generator bug and raises.

Several initial conditions and several generators integrate together as
columns of one matrix.  Initial conditions of one chain share its
generator slices: that is how extreme-initial-state sweeps and the
ergodicity-coefficient measurements are run.  Perturbed chains
(``integrate(..., draws=[...])``) add one column each, with their own
slices stacked on a trailing generator axis and built on the same time
nodes, so the base chain and every draw advance in one march and the
base chain is integrated once.  Columns never mix, so with the same step
each is bit for bit what a run of its chain alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import (NODE_BLOCK, Chain, GeneratorBands, GeneratorBlock,
                    MassArrivalChain, Perturbation, TimeBlock,
                    birth_death_chain, perturb, stack_blocks)
from .rates import RateFunction

#: conservation tolerance asserted at every recorded sample
SUM_TOL = 1e-8
#: tolerated nonnegativity undershoot at recorded samples
NEG_TOL = -1e-10
#: largest chain whose ergodicity coefficient is measured (one integration
#: per state)
ERGODICITY_CAP = 512


class SolverError(RuntimeError):
    pass


def default_step(chain: Chain) -> float:
    """min(1e-3, 1/(4 L)); half the stability guard."""
    l_bound = max(chain.l_bound, 1e-12)
    return min(1e-3, 0.25 / l_bound)


def _checked_step(chain: Chain, step: float | None) -> float:
    if step is None:
        return default_step(chain)
    if step <= 0:
        raise SolverError(f"step must be positive, got {step}")
    if step > 0.5 / max(chain.l_bound, 1e-300):
        raise SolverError(
            f"step {step} violates the stability guard 1/(2L) = "
            f"{0.5 / chain.l_bound}")
    return step


class _Generators:
    """Chains that step together, ``chains[i]`` on ``widths[i]`` state
    columns, with the generator interface ``_advance`` uses: their slices
    share one ``TimeBlock`` and are stacked by ``model.stack_blocks``."""

    def __init__(self, chains, widths=(1,)):
        self.chains = tuple(chains)
        self.widths = tuple(widths)
        self.time_invariant = all(c.time_invariant for c in self.chains)

    def bands_block(self, tb: TimeBlock) -> GeneratorBlock:
        return stack_blocks([c.bands_block(tb) for c in self.chains],
                            self.widths)

    def bands_at(self, t: float) -> GeneratorBands:
        return self.bands_block(TimeBlock(t)).at(0)


def _step_slices(gens: _Generators, t0: float, h: float, n_steps: int):
    """The (mid, end) slices of every step, built for a block of steps at
    a time."""
    per_block = NODE_BLOCK // 2
    for first in range(0, n_steps, per_block):
        t = t0 + np.arange(first, min(first + per_block, n_steps)) * h
        block = gens.bands_block(TimeBlock(np.concatenate((t + 0.5 * h,
                                                           t + h))))
        for j in range(len(t)):
            yield block.at(j), block.at(len(t) + j)


def _advance(gens: _Generators, y: np.ndarray, t0: float, h: float,
             n_steps: int, bands_start=None):
    """March n_steps of size h from t0; returns (state, bands at the end).

    A time-invariant chain reuses the start slice for every stage."""
    a_t = gens.bands_at(t0) if bands_start is None else bands_start
    if gens.time_invariant:
        slices = repeat((a_t, a_t), n_steps)
    else:
        slices = _step_slices(gens, t0, h, n_steps)
    for a_mid, a_end in slices:
        k1 = a_t.matvec(y)
        k2 = a_mid.matvec(y + (0.5 * h) * k1)
        k3 = a_mid.matvec(y + (0.5 * h) * k2)
        k4 = a_end.matvec(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_t = a_end
    return y, a_t


def _check_columns(y: np.ndarray, t: float):
    cols = y if y.ndim == 2 else y[:, None]
    sums = cols.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > SUM_TOL):
        raise SolverError(
            f"probability mass not conserved at t={t}: sums {sums}")
    low = cols.min()
    if low < NEG_TOL:
        raise SolverError(
            f"negative probability {low} at t={t}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the forward system; one state per row.

    For ensembles (several initial conditions) ``states`` has shape
    (samples, dim, columns).
    """

    times: np.ndarray
    states: np.ndarray
    step: float

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def mean_curve(self, column: int | None = None) -> np.ndarray:
        states = self.states if self.states.ndim == 2 \
            else self.states[:, :, column if column is not None else 0]
        return states @ np.arange(states.shape[1])


def _as_columns(p0, size: int) -> np.ndarray:
    y = np.array(p0, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != size:
        raise ValueError(f"initial condition has {y.shape[0]} entries, "
                         f"chain has {size} states")
    if np.any(np.abs(y.sum(axis=0) - 1.0) > SUM_TOL) or y.min() < NEG_TOL:
        raise ValueError("initial conditions must be probability vectors")
    return y


def integrate(chain: Chain, p0, t0: float, t1: float, step: float | None = None,
              stride: float | None = None, draws=()) -> Trajectory:
    """Integrate from one or several initial probability vectors.

    Each chain of ``draws`` (perturbed chains on the same states) adds one
    column after those of ``p0``, started from the first initial vector
    and advanced by its own generator in the same march; the step is the
    smallest that every chain's guard allows.  ``stride`` is the output
    sampling interval (defaults to ~512 samples); samples always include
    both endpoints.  The step is shrunk so that an integer number of steps
    lands exactly on every sample time.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    draws = tuple(draws)
    if any(d.size != chain.size for d in draws):
        raise ValueError("chains must share the state space")
    h = min(_checked_step(c, step) for c in (chain,) + draws)
    single = np.ndim(p0) == 1 and not draws
    y = _as_columns(p0, chain.size)
    gens = _Generators((chain,) + draws, (y.shape[1],) + (1,) * len(draws))
    y = np.concatenate([y] + [y[:, :1]] * len(draws), axis=1)

    span = t1 - t0
    if stride is None:
        stride = span / min(512, max(1, round(span / h)))
    stride = min(stride, span)
    n_samples = max(1, round(span / stride))
    sample_dt = span / n_samples
    steps_per_sample = max(1, math.ceil(sample_dt / h))
    h = sample_dt / steps_per_sample

    times = np.empty(n_samples + 1)
    states = np.empty((n_samples + 1,) + y.shape)
    times[0] = t0
    states[0] = y
    bands = None
    for i in range(n_samples):
        t = t0 + i * sample_dt
        y, bands = _advance(gens, y, t, h, steps_per_sample, bands)
        times[i + 1] = t + sample_dt
        states[i + 1] = y
        _check_columns(y, times[i + 1])
    if single:
        states = states[:, :, 0]
    return Trajectory(times=times, states=states, step=h)


def delta_state(size: int, k: int) -> np.ndarray:
    p = np.zeros(size)
    p[k] = 1.0
    return p


def mean_state(p: np.ndarray) -> float:
    """Expected state index of one probability vector."""
    return float(p @ np.arange(len(p)))


# ---------------------------------------------------------------------------
# limiting regime

@dataclass(frozen=True)
class RegimeReport:
    """Transient horizon and the limiting periodic regime.

    The horizon is the first period boundary at which the trajectories
    from the two extreme initial states meet within tolerance; the limit
    interval [horizon, horizon + period] is then sampled densely, with
    the limiting-mean curve taken from the lower trajectory.
    """

    transient_horizon: float
    boundary_times: np.ndarray
    boundary_dists: np.ndarray
    limit: Trajectory
    phi_times: np.ndarray
    phi_values: np.ndarray


def limiting_regime(chain: Chain, tolerance: float, max_horizon: float,
                    step: float | None = None) -> RegimeReport:
    """Detect the limiting regime by comparing the extreme-initial-state
    trajectories at period boundaries; the limit period is sampled 200
    times."""
    period = chain.period if chain.period is not None else 1.0
    h = _checked_step(chain, step)
    steps = math.ceil(period / h)
    h = period / steps
    y = np.stack([delta_state(chain.size, 0),
                  delta_state(chain.size, chain.n)], axis=1)
    times = [0.0]
    dists = [float(np.abs(y[:, 0] - y[:, 1]).sum())]
    horizon = None
    gens = _Generators((chain,))
    bands = None
    k = 0
    while (k + 1) * period <= max_horizon * (1 + 1e-12):
        y, bands = _advance(gens, y, k * period, h, steps, bands)
        k += 1
        t = k * period
        _check_columns(y, t)
        dist = float(np.abs(y[:, 0] - y[:, 1]).sum())
        times.append(t)
        dists.append(dist)
        if dist < tolerance:
            horizon = t
            break
    if horizon is None:
        raise SolverError(
            f"horizon {max_horizon} exhausted: distance still {dists[-1]} "
            f"(tolerance {tolerance})")
    limit = integrate(chain, y, horizon, horizon + period, step=h,
                      stride=period / 200)
    phi = limit.states[:, :, 0] @ np.arange(chain.size)
    return RegimeReport(
        transient_horizon=horizon,
        boundary_times=np.array(times),
        boundary_dists=np.array(dists),
        limit=limit,
        phi_times=limit.times,
        phi_values=phi,
    )


# ---------------------------------------------------------------------------
# empirical measurements

def ergodicity_coefficient(chain: Chain, s: float, t: float,
                           step: float | None = None) -> float:
    """Half the largest l1 distance between rows of the transition matrix
    over [s, t], measured by integrating every basis vector."""
    if chain.size > ERGODICITY_CAP:
        raise SolverError(f"dimension {chain.size} above the cap "
                          f"{ERGODICITY_CAP} ({chain.size} integrations "
                          f"needed)")
    if t < s:
        raise ValueError("need t >= s")
    if t == s:
        return 1.0 if chain.size > 1 else 0.0
    y = np.eye(chain.size)
    h = _checked_step(chain, step)
    steps = math.ceil((t - s) / h)
    y, _ = _advance(_Generators((chain,)), y, s, (t - s) / steps, steps)
    worst = 0.0
    for i in range(chain.size - 1):
        diffs = np.abs(y[:, i + 1:] - y[:, i:i + 1]).sum(axis=0)
        worst = max(worst, float(diffs.max()))
    return 0.5 * worst


@dataclass(frozen=True)
class DistanceCurve:
    times: np.ndarray
    dists: np.ndarray
    final_sup: float


def distance_curve(traj: Trajectory, column: int, horizon: float,
                   period: float) -> DistanceCurve:
    """l1 distance between column 0 of a run over [0, horizon] and
    ``column`` (a draw's), and its supremum over the final period."""
    # the difference is a fresh contiguous array, so each row is summed in
    # the order of a single-column run
    diff = traj.states[:, :, 0] - traj.states[:, :, column]
    dists = np.abs(diff).sum(axis=1)
    tail = traj.times >= horizon - period - 1e-12
    return DistanceCurve(times=traj.times, dists=dists,
                         final_sup=float(dists[tail].max()))


def perturbation_distance(chain: Chain, perturbed: Chain, p0,
                          horizon: float, period: float | None = None,
                          step: float | None = None,
                          stride: float | None = None) -> DistanceCurve:
    """l1 distance of the two state-probability trajectories started from
    the same initial vector, and its supremum over the final period."""
    if period is None:
        period = chain.period if chain.period is not None else 1.0
    if stride is None:
        stride = period / 256
    traj = integrate(chain, p0, 0.0, horizon, step=step, stride=stride,
                     draws=[perturbed])
    return distance_curve(traj, traj.states.shape[2] - 1, horizon, period)


def stationary_distribution(chain: Chain, tol: float = 1e-12,
                            step: float | None = None) -> np.ndarray:
    """Stationary vector of a time-homogeneous chain by integrating to
    tolerance, for at most t = 500; the residual is ||A p||_inf."""
    if not chain.time_invariant:
        raise SolverError("stationary integration requires time-invariant "
                          "rates")
    h = _checked_step(chain, step)
    chunk = max(1.0, 20.0 * h)
    steps = math.ceil(chunk / h)
    h = chunk / steps
    y = delta_state(chain.size, 0)[:, None]
    t = 0.0
    gens = _Generators((chain,))
    bands = gens.bands_at(0.0)
    while t < 500.0:
        y, _ = _advance(gens, y, 0.0, h, steps, bands)
        t += chunk
        residual = float(np.abs(bands.matvec(y)).max())
        if residual < tol:
            _check_columns(y, t)
            return y[:, 0]
    raise SolverError(f"no stationary vector to residual {tol} within "
                      f"t = 500")


@dataclass(frozen=True)
class ProbeResult:
    levels: tuple[int, ...]
    p0_values: tuple[float, ...]
    recursion_residuals: tuple[float, ...]


def mass_arrival_probe(eps: float, levels, birth: float = 1.0,
                       death: float = 4.0, tol: float = 1e-12) -> ProbeResult:
    """Stationary head probabilities of the mass-arrival-perturbed walk
    across truncation levels.

    For each level the truncated stationary vector must satisfy the flow
    balance death * p[k+1] = birth * p[k] + p[0] * eps / (k+1) at interior
    states; a violation indicates a builder bug.  A strictly decreasing
    head probability across levels is the truncation signature of a chain
    with no stationary law on the countable space.
    """
    p0s = []
    residuals = []
    for n in levels:
        base = birth_death_chain(RateFunction.constant(birth),
                                 RateFunction.constant(death), size=n + 1,
                                 truncated=True, validation_grid=16)
        chain: MassArrivalChain = perturb(base, Perturbation("mass-arrival",
                                                             eps=eps))
        # stationary vectors are exact fixed points of the stepper, so the
        # step only has to respect the stability guard, not transient accuracy
        p = stationary_distribution(chain, tol=tol, step=0.25 / chain.l_bound)
        ks = np.arange(1, n - 1)
        resid = np.abs(death * p[ks + 1] - birth * p[ks]
                       - p[0] * eps / (ks + 1))
        p0s.append(float(p[0]))
        residuals.append(float(resid.max()))
    return ProbeResult(levels=tuple(int(n) for n in levels),
                       p0_values=tuple(p0s),
                       recursion_residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# CSV export

def _format(x: float) -> str:
    return format(float(x), ".17g")


def write_states_csv(traj: Trajectory, path, column: int | None = None):
    """One row per sample: t, p_0, ..., p_n."""
    states = traj.states if traj.states.ndim == 2 else traj.states[:, :, column or 0]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"p_{i}" for i in range(states.shape[1])) + "\n")
        for t, row in zip(traj.times, states):
            fh.write(_format(t) + "," + ",".join(_format(v) for v in row) + "\n")


def write_mean_csv(traj: Trajectory, path, column: int | None = None):
    """One row per sample: t, mean."""
    states = traj.states if traj.states.ndim == 2 else traj.states[:, :, column or 0]
    means = states @ np.arange(states.shape[1])
    with open(path, "w") as fh:
        fh.write("t,mean\n")
        for t, v in zip(traj.times, means):
            fh.write(_format(t) + "," + _format(v) + "\n")
