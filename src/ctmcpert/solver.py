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
first period boundary where they meet) and ``ergodicity_coefficient`` are
single-lane uses of it; a run of the command-line tool marches its run
lane and its regime lane together.
The chains of all lanes are one table with a trailing axis of columns,
V ⊙ M: the column-stacked multipliers M are built once per march (and
again when lanes stop), and each block of steps multiplies them by every
chain's rate values on its lane's time nodes; the step is a row over the
columns.  Columns never mix, so each is bit for bit what a run of its
chain alone on its lane's clock gives.

Stationary vectors of time-invariant chains are not marched:
``stationary_distribution`` solves A p = 0 directly, by elimination in
band storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (NODE_BLOCK, Chain, GeneratorBlock, MassArrivalChain,
                    Perturbation, TimeBlock, birth_death_chain,
                    merged_offsets, perturb)
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


class _Stack:
    """The chains of some lanes as one table with a trailing axis of state
    columns, V ⊙ M: the column-stacked multipliers M, built once on the
    chains' merged offsets (a row a chain lacks has zero multipliers),
    times every chain's rate values at its lane's times.  A lone chain
    gets a broadcast axis of length 1 instead, whatever its width.  The
    column sums add each chain's rows in its own order, zero rows between,
    so each column keeps its chain's diagonal."""

    def __init__(self, lanes):
        self.lanes = lanes
        tables = [c.rate_table for lane in lanes for c in lane.chains]
        self.widths = [w for lane in lanes for w in lane.widths] \
            if len(tables) > 1 else [1]
        self.n, self.offsets = tables[0].n, merged_offsets(
            [t.offsets for t in tables])
        k = len(self.offsets)
        self.row0 = any(t.row0 for t in tables)
        self.wide = any(t.wide for t in tables)
        # each chain's rows in the merged table, the catastrophe row last
        self.rows = [[self.offsets.index(o) for o in t.offsets]
                     + [k] * t.row0 for t in tables]
        m = np.zeros((k + self.row0, self.n + 1, len(tables)))
        for j, t in enumerate(tables):
            m[self.rows[j], :, j] = t.m
        self.m = np.repeat(m, self.widths, axis=-1)
        self.col0 = None
        if any(t.col0 is not None for t in tables):
            # column-major, so that each column sums as its chain's does
            self.col0 = np.repeat([np.zeros(self.n + 1) if t.col0 is None
                                   else t.col0 for t in tables],
                                  self.widths, axis=0).T

    def block(self, times) -> GeneratorBlock:
        """The stacked table at each lane's ``times``."""
        v = np.zeros((len(times[0]), len(self.m),
                      self.n + 1 if self.wide else 1, len(self.rows)))
        blocks = map(TimeBlock, times)  # one per lane, shared by its chains
        chains = [(c, tb) for lane, tb in zip(self.lanes, blocks)
                  for c in lane.chains]
        for j, (chain, tb) in enumerate(chains):
            v[..., j][:, self.rows[j]] = chain.rate_table.values(tb)
        table = np.repeat(v, self.widths, axis=-1) * self.m
        k = len(self.offsets)
        return GeneratorBlock(self.n, self.offsets, table[:, :k],
                              table[:, k] if self.row0 else None, self.col0)


def _step_slices(stack: _Stack, first: int, last):
    """The (mid, end) slices of steps first, first+1, ... (up to ``last``),
    built for a block of steps at a time."""
    per_block = NODE_BLOCK // 2
    while first < last:
        count = min(per_block, last - first)
        block = stack.block([lane.stage_times(first, count)
                             for lane in stack.lanes])
        for j in range(count):
            yield block.at(j), block.at(count + j)
        first += count


def march(*lanes: Lane):
    """Advance every lane's columns together, one RK4 step of each lane's
    own size per step of the loop, until every lane has stopped.

    The first k1 of a segment reuses the previous step's end slice.  When
    some lanes stop, the others go on with a stack rebuilt for them, from
    the end slice of the last step on.  A time-invariant set of chains
    reuses its start slice for every stage.
    """
    lanes = [lane for lane in lanes if lane.segments != 0]
    if not lanes:
        return
    y = np.concatenate([lane.y for lane in lanes], axis=1)
    stack = _Stack(lanes)
    a_t = stack.block([[lane.t0] for lane in lanes]).at(0)
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
            slices = _step_slices(stack, s, last)
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
            y = y[:, np.flatnonzero(keep)]
            stack = _Stack(lanes)
            a_t = stack.block([lane.stage_times(s - 1, 1)[1:]
                               for lane in lanes]).at(0)


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


def stationary_distribution(chain: Chain, tol: float = 1e-12) -> np.ndarray:
    """Stationary vector of a time-homogeneous chain by one direct solve;
    the residual ||A p||_inf must fall below ``tol``.

    With p_0 fixed to 1, rows 1..n of A p = 0 are the banded system
    A[1:, 1:] x = -A[1:, 0]: a catastrophe row sits in the dropped row 0
    and a mass-arrival column moves to the right-hand side.  Gaussian
    elimination in band storage without pivoting solves it.  Each pivot
    is minus the sum of the off-diagonal entries left in its column, the
    flow into row 0 included (Grassmann, Taksar and Heyman, Oper. Res.
    1985), as elimination keeps the column sums of A at zero; every other
    operation adds terms of one sign, so no step cancels and each entry,
    however small, has a small relative error.

    A zero pivot means that its state never reaches state 0, so state 0
    is not recurrent (a births-only chain, say): SolverError.  So is a
    p_0 below the floating-point range relative to another state.
    """
    if not chain.time_invariant:
        raise SolverError("stationary solve requires time-invariant rates")
    block = chain.bands_block(TimeBlock(0.0))
    g = block.at(0)
    n = g.n
    # B = A[1:, 1:] in band storage, band[i, lo + c - i] = B[i, c], with lo
    # bands below the diagonal, hi above it and lo rows of zeros past the end
    lo = max(0, *g.offsets)
    hi = max(0, *(-k for k in g.offsets))
    band = np.zeros((n + lo, lo + hi + 1))
    for k, row in zip(g.offsets, g.data):
        # A[j + k, j] for j = 1..n, kept where j + k >= 1
        if k > 0:
            band[k:n, lo - k] += row[1:n + 1 - k]
        else:
            band[:n + k, lo - k] += row[1 - k:]
    rhs = np.concatenate((-block.forcing()[0], np.zeros(lo)))
    # A[0, c], the flow into the dropped row, with hi zeros past the end
    to_zero = np.concatenate((block.direct_to_zero()[0], np.zeros(hi)))
    # step j reads column j below the diagonal, below[j, r - 1] =
    # band[j + r, lo - r], and updates the block update[j, r - 1, c - 1] =
    # band[j + r, lo - r + c], r = 1..lo, c = 1..hi; both run along the
    # anti-diagonals of the band storage, so they are strided views of it
    w = lo + hi + 1
    flat, step = band.ravel(), band.itemsize
    below = as_strided(flat[w + lo - 1:], (n, lo), (w * step, (w - 1) * step))
    update = as_strided(flat[w + lo:], (n, lo, hi),
                        (w * step, (w - 1) * step, step))
    for j in range(n):
        column = below[j]
        pivot = -(to_zero[j] + column.sum())
        if pivot == 0:
            raise SolverError(f"no stationary vector: state {j + 1} never "
                              f"reaches state 0, so state 0 is not recurrent")
        band[j, lo] = pivot
        factors = column / pivot
        right = band[j, lo + 1:]
        update[j] -= factors[:, None] * right
        rhs[j + 1:j + lo + 1] -= factors * rhs[j]
        to_zero[j + 1:j + hi + 1] -= to_zero[j] / pivot * right
    # back substitution, with hi zeros past state n
    x = np.zeros(n + hi)
    with np.errstate(all="ignore"):
        for j in range(n - 1, -1, -1):
            x[j] = (rhs[j] - band[j, lo + 1:] @ x[j + 1:j + hi + 1]) \
                / band[j, lo]
        p = np.concatenate(([1.0], x[:n]))
        p /= p.sum()
    if not np.all(np.isfinite(p)):
        raise SolverError("no stationary vector: the mass of state 0 is "
                          "below the floating-point range")
    residual = float(np.abs(g.matvec(p)).max())
    if not residual < tol:
        raise SolverError(f"stationary residual {residual} above {tol}")
    _check_columns(p, 0.0)
    return p


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
        p = stationary_distribution(chain, tol=tol)
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
