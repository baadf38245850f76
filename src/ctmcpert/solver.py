"""Fixed-step integration of the truncated forward equation dp/dt = A(t) p.

The stepper is the classical 4th-order one-step method on the banded
generator; the step guard keeps h <= 1 / (2 L), inside the stability
region of the method for a spectrum bounded by ||A||_1 = 2 L, with margin.
Probability mass is conserved by construction (columns of A sum to zero),
so conservation is asserted, never enforced; a violation indicates a
generator bug and raises.

One engine, ``march``, does all the stepping.  Its columns come in
lanes: a ``Lane`` is a set of chains, each on some state columns, with
its own clock (start, step, steps per segment and segment length) and a
callback at each segment end that records what the lane needs and says
whether it goes on.  Every lane advances one step per step of the loop,
on its own clock, so lanes with different steps share the loop without
sharing a step rule.  ``integrate`` (``RunLane``: samples at every
stride; perturbed chains add one column each), the limiting-regime search
(``RegimeLane``: the extreme states on the period clock, stopped at the
first period boundary where they meet), ``ergodicity_coefficient`` and
``stationary_distribution`` are single-lane uses of it; a run of the
command-line tool marches its run lane and its regime lane together.
Per block of steps each lane's chains are built on that lane's time
nodes and all are stacked on a trailing generator axis, one entry per
column; the step is a row over the columns.  Columns never mix, so each
is bit for bit what a run of its chain alone on its lane's clock gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .model import (NODE_BLOCK, Chain, GeneratorBands, MassArrivalChain,
                    Perturbation, TimeBlock, birth_death_chain, perturb,
                    stack_blocks)
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


# ---------------------------------------------------------------------------
# the stepping engine

class Lane:
    """State columns on one clock.

    ``chains[i]`` advances ``widths[i]`` of the columns of ``y`` (states
    by columns).  The clock starts at ``t0`` and runs in segments of
    length ``seg_dt``, each of ``steps`` steps of size ``h``; segment i
    starts at ``t0 + i*seg_dt`` and its nodes are that start plus
    multiples of ``h``.  ``segments`` bounds the number of segments (None:
    the callback alone stops the lane).  After each segment ``march``
    writes the lane's columns back to ``y`` and calls
    ``segment_end(i)``; a false return stops the lane.
    """

    def __init__(self, chains, widths, y: np.ndarray, t0: float, h: float,
                 steps: int, seg_dt: float, segments: int | None = None):
        self.chains = tuple(chains)
        self.widths = tuple(widths)
        self.y = y
        self.t0, self.h, self.steps, self.seg_dt = t0, h, steps, seg_dt
        self.segments = segments
        self.done = 0  # segments completed

    def segment_end(self, i: int) -> bool:
        return True

    def stage_times(self, first: int, count: int) -> np.ndarray:
        """The mid times, then the end times, of the lane's steps first,
        ..., first+count-1."""
        i, j = np.divmod(np.arange(first, first + count), self.steps)
        t = (self.t0 + i * self.seg_dt) + j * self.h
        return np.concatenate((t + 0.5 * self.h, t + self.h))


def _stacked(lanes, times):
    """Each lane's chains at that lane's ``times``, all stacked in one
    call (a stacked block cannot be stacked again)."""
    blocks, widths = [], []
    for lane, ts in zip(lanes, times):
        tb = TimeBlock(ts)
        blocks += [chain.bands_block(tb) for chain in lane.chains]
        widths += lane.widths
    return stack_blocks(blocks, widths)


def _step_slices(lanes, first: int, last):
    """The (mid, end) slices of steps first, first+1, ... (up to ``last``),
    built for a block of steps at a time."""
    per_block = NODE_BLOCK // 2
    while first < last:
        count = min(per_block, last - first)
        block = _stacked(lanes, [lane.stage_times(first, count)
                                 for lane in lanes])
        for j in range(count):
            yield block.at(j), block.at(count + j)
        first += count


def _columns(g: GeneratorBands, idx: np.ndarray) -> GeneratorBands:
    """The slice restricted to the state columns ``idx``."""
    def take(v):
        return None if v is None else v[..., idx]
    return GeneratorBands(g.n, g.offsets, take(g.data), take(g.diag),
                          take(g.row0), take(g.col0))


def march(*lanes: Lane):
    """Advance every lane's columns together, one RK4 step of each lane's
    own size per step of the loop, until every lane has stopped.

    The first k1 of a segment reuses the previous step's end slice.  When
    some lanes stop, the others go on with their columns of the current
    slice and slices rebuilt from the next step.  A time-invariant set of
    chains reuses its start slice for every stage.
    """
    lanes = [lane for lane in lanes if lane.segments != 0]
    if not lanes:
        return
    y = np.concatenate([lane.y for lane in lanes], axis=1)
    a_t = _stacked(lanes, [[lane.t0] for lane in lanes]).at(0)
    s = 0  # steps taken
    while lanes:
        # the step as a row over the columns; a lone lane keeps a scalar,
        # which is the same arithmetic without the cost of broadcasting
        h = lanes[0].h if len(lanes) == 1 else np.concatenate(
            [np.full(lane.y.shape[1], lane.h) for lane in lanes])
        half, sixth = 0.5 * h, h / 6.0
        if all(c.time_invariant for lane in lanes for c in lane.chains):
            slices = repeat((a_t, a_t))
        else:
            last = min((lane.segments * lane.steps for lane in lanes
                        if lane.segments is not None), default=math.inf)
            slices = _step_slices(lanes, s, last)
        stopped = []
        while not stopped:
            event = min((lane.done + 1) * lane.steps for lane in lanes)
            for a_mid, a_end in islice(slices, event - s):
                k1 = a_t.matvec(y)
                k2 = a_mid.matvec(y + half * k1)
                k3 = a_mid.matvec(y + half * k2)
                k4 = a_end.matvec(y + h * k3)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                a_t = a_end
            s = event
            col = 0
            for lane in lanes:
                width = lane.y.shape[1]
                if (lane.done + 1) * lane.steps == s:
                    lane.y = y[:, col:col + width]
                    lane.done += 1
                    if not lane.segment_end(lane.done - 1) \
                            or lane.done == lane.segments:
                        stopped.append(lane)
                col += width
        keep = np.concatenate([np.full(lane.y.shape[1], lane not in stopped)
                               for lane in lanes])
        lanes = [lane for lane in lanes if lane not in stopped]
        if lanes:
            idx = np.flatnonzero(keep)
            y = y[:, idx]
            a_t = _columns(a_t, idx)


# ---------------------------------------------------------------------------
# sampled runs

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


class RunLane(Lane):
    """The lane of ``integrate``: one segment per output sample, the step
    shrunk so that an integer number of steps lands on every sample time;
    ``trajectory()`` is the result once marched."""

    def __init__(self, chain: Chain, p0, t0: float, t1: float,
                 step: float | None = None, stride: float | None = None,
                 draws=()):
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        draws = tuple(draws)
        if any(d.size != chain.size for d in draws):
            raise ValueError("chains must share the state space")
        h = min(_checked_step(c, step) for c in (chain,) + draws)
        self.single = np.ndim(p0) == 1 and not draws
        y = _as_columns(p0, chain.size)
        widths = (y.shape[1],) + (1,) * len(draws)
        y = np.concatenate([y] + [y[:, :1]] * len(draws), axis=1)

        span = t1 - t0
        if stride is None:
            stride = span / min(512, max(1, round(span / h)))
        stride = min(stride, span)
        n_samples = max(1, round(span / stride))
        sample_dt = span / n_samples
        steps_per_sample = max(1, math.ceil(sample_dt / h))
        super().__init__((chain,) + draws, widths, y, t0,
                         sample_dt / steps_per_sample, steps_per_sample,
                         sample_dt, n_samples)
        self.times = np.empty(n_samples + 1)
        self.states = np.empty((n_samples + 1,) + y.shape)
        self.times[0] = t0
        self.states[0] = y

    def segment_end(self, i):
        t = (self.t0 + i * self.seg_dt) + self.seg_dt
        self.times[i + 1] = t
        self.states[i + 1] = self.y
        _check_columns(self.y, t)
        return True

    def trajectory(self) -> Trajectory:
        states = self.states[:, :, 0] if self.single else self.states
        return Trajectory(times=self.times, states=states, step=self.h)


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
    lane = RunLane(chain, p0, t0, t1, step, stride, draws)
    march(lane)
    return lane.trajectory()


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


class RegimeLane(Lane):
    """The lane of the limiting-regime search: the two extreme states on
    the period clock, one segment per period, stopped at the first period
    boundary where their l1 distance is below ``tolerance`` or when the
    next boundary lies beyond ``max_horizon``; ``report()`` is the result
    once marched."""

    def __init__(self, chain: Chain, tolerance: float, max_horizon: float,
                 step: float | None = None):
        period = chain.period if chain.period is not None else 1.0
        h = _checked_step(chain, step)
        steps = math.ceil(period / h)
        y = np.stack([delta_state(chain.size, 0),
                      delta_state(chain.size, chain.n)], axis=1)
        self.limit_t = max_horizon * (1 + 1e-12)
        super().__init__((chain,), (2,), y, 0.0, period / steps, steps,
                         period, None if period <= self.limit_t else 0)
        self.tolerance, self.max_horizon = tolerance, max_horizon
        self.times = [0.0]
        self.dists = [float(np.abs(y[:, 0] - y[:, 1]).sum())]
        self.horizon = None

    def segment_end(self, i):
        t = (i + 1) * self.seg_dt
        _check_columns(self.y, t)
        dist = float(np.abs(self.y[:, 0] - self.y[:, 1]).sum())
        self.times.append(t)
        self.dists.append(dist)
        if dist < self.tolerance:
            self.horizon = t
            return False
        return (i + 2) * self.seg_dt <= self.limit_t

    def report(self) -> RegimeReport:
        """The regime found, its limit period sampled 200 times by a
        second march; raises SolverError if none was found."""
        if self.horizon is None:
            raise SolverError(
                f"horizon {self.max_horizon} exhausted: distance still "
                f"{self.dists[-1]} (tolerance {self.tolerance})")
        chain, period = self.chains[0], self.seg_dt
        limit = integrate(chain, self.y, self.horizon, self.horizon + period,
                          step=self.h, stride=period / 200)
        phi = limit.states[:, :, 0] @ np.arange(chain.size)
        return RegimeReport(
            transient_horizon=self.horizon,
            boundary_times=np.array(self.times),
            boundary_dists=np.array(self.dists),
            limit=limit,
            phi_times=limit.times,
            phi_values=phi,
        )


def limiting_regime(chain: Chain, tolerance: float, max_horizon: float,
                    step: float | None = None) -> RegimeReport:
    """Detect the limiting regime by comparing the extreme-initial-state
    trajectories at period boundaries; the limit period is sampled 200
    times."""
    lane = RegimeLane(chain, tolerance, max_horizon, step)
    march(lane)
    return lane.report()


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
    h = _checked_step(chain, step)
    steps = math.ceil((t - s) / h)
    lane = Lane((chain,), (chain.size,), np.eye(chain.size), s,
                (t - s) / steps, steps, t - s, segments=1)
    march(lane)
    y = lane.y
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


class _StationaryLane(Lane):
    """Chunks of at least unit length from state 0, until the residual
    ||A p||_inf falls below ``tol`` or t reaches 500."""

    def __init__(self, chain: Chain, tol: float, step: float | None):
        h = _checked_step(chain, step)
        chunk = max(1.0, 20.0 * h)
        steps = math.ceil(chunk / h)
        super().__init__((chain,), (1,), delta_state(chain.size, 0)[:, None],
                         0.0, chunk / steps, steps, chunk)
        self.bands = chain.bands_block(TimeBlock(0.0)).at(0)
        self.tol = tol
        self.t = 0.0
        self.converged = False

    def segment_end(self, i):
        self.t += self.seg_dt
        residual = float(np.abs(self.bands.matvec(self.y)).max())
        self.converged = residual < self.tol
        return not self.converged and self.t < 500.0


def stationary_distribution(chain: Chain, tol: float = 1e-12,
                            step: float | None = None) -> np.ndarray:
    """Stationary vector of a time-homogeneous chain by integrating to
    tolerance, for at most t = 500; the residual is ||A p||_inf."""
    if not chain.time_invariant:
        raise SolverError("stationary integration requires time-invariant "
                          "rates")
    lane = _StationaryLane(chain, tol, step)
    march(lane)
    if not lane.converged:
        raise SolverError(f"no stationary vector to residual {tol} within "
                          f"t = 500")
    _check_columns(lane.y, lane.t)
    return lane.y[:, 0]


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
                                 validation_grid=16)
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
