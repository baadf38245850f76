"""Fixed-step integration of the truncated forward equation dp/dt = A(t) p.

The stepper is the classical 4th-order one-step method on the banded
generator; the step guard keeps h <= 1 / (2 L), inside the stability
region of the method for a spectrum bounded by ||A||_1 = 2 L, with margin.
Probability mass is conserved by construction (columns of A sum to zero),
so conservation is asserted, never enforced; a violation indicates a
generator bug and raises.

One engine, ``march``, does all the stepping.  It is a generator: it
advances a set of chains, each on some state columns, on one ``Clock``
(start, step, steps per segment and segment length), and yields the
columns at each segment end; its caller reads them and decides whether to
take the next.  ``integrate`` samples at every segment end (perturbed
chains add one column each); ``regime_search`` marches the extreme states
on the period clock and stops at the first period boundary where they
meet.  A march holds its columns as the rows of one workspace, states
innermost.  The column-stacked multipliers M are built once per march,
and the chains' rate values V once per run of ``RATE_NODES`` stage
times; each block of steps multiplies M by its slice of V into one table
of stages.  The workspace compiles each step of a block once, as a plan:
a fixed list of ufunc calls on views of the stages and tables, which the
march runs in place.  Columns never mix:
each is bit for bit a run of its chain alone on the march's clock, by
``GeneratorBands.matvec``.

Stationary vectors of time-invariant chains are not marched:
``stationary_distribution`` solves A p = 0 directly, by elimination in
band storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (NODE_BLOCK, RATE_NODES, Chain, MassArrivalChain,
                    Perturbation, TimeBlock, birth_death_chain,
                    merged_offsets, perturb)
from .rates import RateFunction

#: conservation tolerance asserted at every recorded sample
SUM_TOL = 1e-8
#: tolerated nonnegativity undershoot at recorded samples
NEG_TOL = -1e-10
#: largest residual ||A p||_inf accepted from a stationary solve
STATIONARY_TOL = 1e-12
#: most steps a march may take: ``Clock.stage_times`` indexes them in int64
MAX_STEPS = 2 ** 62
#: most values ``integrate`` may keep, samples times states times columns:
#: 2**25 float64s, 256 MiB, checked before the sample arrays are allocated
MAX_SAMPLE_VALUES = 2 ** 25
_BELOW_RANGE = ("no stationary vector: the mass of state 0 is below the "
                "floating-point range")


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


def _check_step_count(span: float, h: float):
    """SolverError if steps of ``h`` over ``span`` are more than MAX_STEPS
    (or span / h overflows)."""
    if not span / h <= MAX_STEPS:
        raise SolverError(f"step {h} is too small for the span {span}: "
                          f"{span / h:.3g} steps, more than {MAX_STEPS}")


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

@dataclass(frozen=True)
class Clock:
    """Segments of length ``seg_dt``, each of ``steps`` steps of size
    ``h``; segment k starts at ``t0 + k*seg_dt`` and its nodes are that
    start plus multiples of ``h``."""

    t0: float
    h: float
    steps: int
    seg_dt: float

    def stage_times(self, k0: int, first: int, count: int) -> np.ndarray:
        """The stage times of steps first, ..., first+count-1 of a march
        from the start of segment ``k0``, interleaved: each step's
        midpoint, then its end."""
        i, j = np.divmod(np.arange(first, first + count), self.steps)
        t = (self.t0 + (k0 + i) * self.seg_dt) + j * self.h
        return np.stack((t + 0.5 * self.h, t + self.h), axis=1).ravel()


#: nodes per block of the march's stage tables, two per step
STAGE_NODES = NODE_BLOCK // 2


def _running_sum(a, axis, out):
    """``np.add.accumulate`` called as a plan calls a ufunc."""
    np.add.accumulate(a, axis, out=out)


class _Workspace:
    """The RK4 steps of one march, states innermost.  ``chains[i]``
    advances ``widths[i]`` of the columns of ``y`` (states by columns),
    which the workspace copies in.  Row c of a (C, L) stage
    holds column c's n+1 states between p zeros on either side, p the
    widest offset.  A stage table is V ⊙ M, its slots the bands and then
    the catastrophe row: the column-stacked multipliers M (a row a chain
    lacks being zero; a lone chain's broadcast over its columns) times V,
    each chain's rate values at the march's times (``values``) repeated
    over its columns.  The tables of a block lie in one buffer between p
    zeros on either side, and their diagonals in another.  The band at offset k is the product of windows of its
    slot and of the stage shifted by k, which read zeros outside them.

    Step j of every block reads the tables at nodes 2j and 2j+1 (its
    midpoint and end) by one plan, ``plans[j]``: ``(ufunc, a, b, out)``
    entries on views made here, each run as ``ufunc(a, b, out)``.
    ``start`` is k1 = A(t0) y from node 0."""

    def __init__(self, chains, widths, y: np.ndarray, h: float):
        # the RK4 scalars as 0-d arrays, which numpy dispatches faster
        # than Python floats, to the same products.  They are made before
        # the buffers: made between them, they left the same heap use but
        # a peak resident set about 0.15 MB larger on loss-verify
        half, full, sixth, two = map(np.array, (0.5 * h, h, h / 6.0, 2.0))
        self.chains = chains
        tables = [c.rate_table for c in chains]
        self.widths = widths if len(tables) > 1 else [1]
        offsets = merged_offsets([t.offsets for t in tables])
        k, row0 = len(offsets), any(t.row0 for t in tables)
        self.wide = any(t.wide for t in tables)
        self.rows = [[offsets.index(o) for o in t.offsets] + [k] * t.row0
                     for t in tables]
        n, p = tables[0].n, max(map(abs, offsets))
        self.states = slice(p, p + n + 1)
        m = np.zeros((k + row0 + 1, len(tables), n + 1 + 2 * p))
        for j, t in enumerate(tables):  # the mass-arrival columns last
            m[self.rows[j], j, self.states] = t.m
            m[-1, j, self.states] = 0.0 if t.col0 is None else t.col0
        self.m, col0 = np.split(np.repeat(m, self.widths, axis=1), [-1])
        col0 = None if all(t.col0 is None for t in tables) else col0[0]
        self.col0_sums = None if col0 is None \
            else col0[:, p + 1:p + n + 1].sum(axis=1)
        cols = y.shape[1]
        shape, size = (cols, m.shape[-1]), cols * m.shape[-1]
        # y and the stage input with p zeros around, shifted by each offset
        flat = np.zeros((2, size + 2 * p))
        windows = [[f[p - k:][:size].reshape(shape)
                    for k in (0,) + offsets] for f in flat]
        windows[0][0][:, self.states] = y.T
        self.y = y = windows[0][0]
        # every view an entry holds is made once, here
        ks = list(np.zeros((4,) + shape))
        tmp, acc = np.empty(shape), np.empty((cols, n))
        tail, sums = tmp[:, p + 1:p + n + 1], acc[:, -1]
        heads = [k[:, p] for k in ks]
        firsts = [w[0][:, p:p + 1] for w in windows]
        # the tables (p zeros around), per node its bands and row0, and
        # apart their diagonals
        slots, size = len(self.m), self.m[0].size
        flat = np.zeros(STAGE_NODES * slots * size + 2 * p)
        self.buf = flat[p:-p].reshape((STAGE_NODES,) + self.m.shape)
        self.diag = np.zeros((STAGE_NODES,) + self.m.shape[1:])
        nodes = [(self.diag[j], [
            flat[p + (j * slots + i) * size - k:][:size].reshape(
                self.m.shape[1:]) for i, k in enumerate(offsets)],
            self.buf[j, -1]) for j in range(STAGE_NODES)]

        def matvec(node, x: int, i: int) -> list:
            """k[i] = A x at ``node``; x 0 is y, 1 the stage input."""
            (diag, bands, to_zero), (xs, *shifted), out = \
                node, windows[x], ks[i]
            ops = [(np.multiply, diag, xs, out)]
            for band, window in zip(bands, shifted):
                ops += [(np.multiply, band, window, tmp),
                        (np.add, out, tmp, out)]
            if row0:  # a running sum adds in state order
                ops += [(np.multiply, to_zero, xs, tmp),
                        (_running_sum, tail, 1, acc),
                        (np.add, heads[i], sums, heads[i])]
            if col0 is not None:
                ops += [(np.multiply, col0, firsts[x], tmp),
                        (np.add, out, tmp, out)]
            return ops

        def step(mid, end) -> list:
            """One step of y, given k1 = A(t) y; k1 becomes A(t + h) y."""
            k1, k2, k3, k4 = ks
            z, ops = windows[1][0], []
            for i, (k, a, c) in enumerate(((k1, mid, half), (k2, mid, half),
                                           (k3, end, full)), 1):
                ops += [(np.multiply, k, c, z), (np.add, z, y, z)]
                ops += matvec(a, 1, i)
            # y + h/6 (k1 + 2 k2 + 2 k3 + k4), added from the left
            return ops + [
                (np.multiply, k2, two, k2), (np.add, k2, k1, k2),
                (np.multiply, k3, two, k3), (np.add, k2, k3, k2),
                (np.add, k2, k4, k2), (np.multiply, k2, sixth, k2),
                (np.add, y, k2, y)] + matvec(end, 0, 0)

        # equal entries hold the same objects and are kept once: those
        # that read no table serve every plan
        shared = {}
        self.start, *self.plans = [
            tuple(shared.setdefault(tuple(map(id, op)), op) for op in ops)
            for ops in [matvec(nodes[0], 0, 0)] + [
                step(nodes[2 * j], nodes[2 * j + 1])
                for j in range(STAGE_NODES // 2)]]

    def values(self, times: np.ndarray) -> np.ndarray:
        """V at ``times``, by one ``TimeBlock``: (T, slots, C, 1), or
        (T, slots, C, L) for a wide table."""
        v = np.zeros((len(times), len(self.m), len(self.rows),
                      self.m.shape[-1] if self.wide else 1))
        block = TimeBlock(times)
        cols = self.states if self.wide else slice(None)
        for j, chain in enumerate(self.chains):
            v[:, self.rows[j], j, cols] = chain.rate_table.values(block)
        return np.repeat(v, self.widths, axis=2)

    def tables(self, v: np.ndarray):
        """Fill the first ``len(v)`` nodes with the stage tables of V."""
        table, diag = self.buf[:len(v)], self.diag[:len(v)]
        # each product formed once, as by a multiply
        np.einsum("tkcl,kcl->tkcl", v, self.m, out=table)
        # minus the column sums: each column's rows in table order, then
        # the mass-arrival column, as in ``GeneratorBlock.column_sums``
        np.sum(table, axis=1, out=diag)
        np.negative(diag, out=diag)
        if self.col0_sums is not None:
            diag[..., self.states.start] -= self.col0_sums


def march(chains, widths, y: np.ndarray, clock: Clock, k0: int = 0,
          segments: int | None = None):
    """Advance the columns of ``y`` from the start of segment ``k0`` of
    ``clock``, one RK4 step at a time, and yield them (states by columns,
    a fresh array) at each segment end; ``chains[i]`` advances
    ``widths[i]`` of them.  ``segments`` bounds the segments marched
    (None: the caller stops the march), so the last chunk of rate values
    and the last block of stage tables cover its steps only.  ``y`` is
    never written.

    The rate values are evaluated for up to RATE_NODES // 2 steps at once
    (a wide table's for one block).  Each block of steps fills its stage
    tables from its slice of them, then runs one plan per step; the k1 of
    a step is the previous step's A(t + h) y.
    """
    ws = _Workspace(chains, widths, y, clock.h)
    ws.tables(ws.values([clock.t0 + k0 * clock.seg_dt]))
    for f, a, b, out in ws.start:
        f(a, b, out)
    last = segments * clock.steps if segments is not None else math.inf
    chunk = len(ws.plans) if ws.wide else RATE_NODES // 2
    s = 0  # steps taken
    while s < last:
        v = ws.values(clock.stage_times(k0, s, min(chunk, last - s)))
        for i in range(0, len(v), STAGE_NODES):
            block = v[i:i + STAGE_NODES]
            ws.tables(block)
            for plan in ws.plans[:len(block) // 2]:
                for f, a, b, out in plan:
                    f(a, b, out)
                s += 1
                if s % clock.steps == 0:
                    yield ws.y[:, ws.states].T.copy()


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


def integrate(chain: Chain, p0, t0: float, t1: float, step: float | None = None,
              stride: float | None = None, draws=()) -> Trajectory:
    """Integrate from one or several initial probability vectors.

    Each chain of ``draws`` (perturbed chains on the same states) adds one
    column after those of ``p0``, started from the first initial vector
    and advanced by its own generator in the same march; the step is the
    smallest that every chain's guard allows.  ``stride`` is the output
    sampling interval (defaults to ~512 samples); samples always include
    both endpoints.  The step is shrunk so that an integer number of steps
    lands exactly on every sample time: one segment per sample.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    draws = tuple(draws)
    if any(d.size != chain.size for d in draws):
        raise ValueError("chains must share the state space")
    h = min(_checked_step(c, step) for c in (chain,) + draws)
    y = _as_columns(p0, chain.size)
    widths = (y.shape[1],) + (1,) * len(draws)
    y = np.concatenate([y] + [y[:, :1]] * len(draws), axis=1)

    span = t1 - t0
    _check_step_count(span, h)
    if stride is None:
        stride = span / min(512, max(1, round(span / h)))
    stride = min(stride, span)
    samples = span / stride + 1
    if samples <= MAX_SAMPLE_VALUES:  # round() takes no inf
        samples = max(1, round(span / stride)) + 1
    if not samples * y.size <= MAX_SAMPLE_VALUES:
        raise SolverError(
            f"stride {stride} is too small for the span {span}: "
            f"{samples:.3g} samples of {y.size} values, more than "
            f"{MAX_SAMPLE_VALUES} values in all")
    n_samples = samples - 1
    sample_dt = span / n_samples
    steps_per_sample = max(1, math.ceil(sample_dt / h))
    clock = Clock(t0, sample_dt / steps_per_sample, steps_per_sample,
                  sample_dt)
    times = np.empty(n_samples + 1)
    states = np.empty((n_samples + 1,) + y.shape)
    times[0], states[0] = t0, y
    for i, cols in enumerate(march((chain,) + draws, widths, y, clock,
                                   segments=n_samples)):
        t = (t0 + i * sample_dt) + sample_dt
        times[i + 1], states[i + 1] = t, cols
        _check_columns(cols, t)
    if np.ndim(p0) == 1 and not draws:
        states = states[:, :, 0]
    return Trajectory(times=times, states=states, step=clock.h)


def delta_state(size: int, k: int) -> np.ndarray:
    p = np.zeros(size)
    p[k] = 1.0
    return p


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
    limit: Trajectory
    phi_values: np.ndarray


@dataclass(frozen=True)
class RegimeSearch:
    """What ``regime_search`` found: the distance between the extreme
    columns at each period boundary 0, T, ... it read, the first boundary
    k*T (k >= 1) where that distance fell below ``tolerance`` (None if the
    horizon ran out first) and the extreme columns ``y`` there, on the
    period clock ``clock``."""

    chain: Chain
    tolerance: float
    max_horizon: float
    clock: Clock
    dists: tuple[float, ...]
    horizon: float | None
    y: np.ndarray

    def report(self) -> RegimeReport:
        """The regime found, its limit period sampled 200 times by a
        march of the lower extreme; raises SolverError if none was
        found."""
        if self.horizon is None:
            raise SolverError(
                f"horizon {self.max_horizon} exhausted: distance still "
                f"{self.dists[-1]} (tolerance {self.tolerance})")
        period = self.clock.seg_dt
        limit = integrate(self.chain, self.y[:, :1], self.horizon,
                          self.horizon + period, step=self.clock.h,
                          stride=period / 200)
        phi = limit.states[:, :, 0] @ np.arange(self.chain.size)
        return RegimeReport(transient_horizon=self.horizon, limit=limit,
                            phi_values=phi)


def regime_search(chain: Chain, tolerance: float, max_horizon: float,
                  step: float | None = None, columns=None) -> RegimeSearch:
    """March the two extreme states on the period clock until the first
    period boundary k*T (k >= 1) where their l1 distance is below
    ``tolerance``, or until the next boundary lies beyond ``max_horizon``.

    ``columns`` holds the extreme columns at the boundaries 0, T, ...,
    K*T, each (states, 2), as a run on another clock has computed them;
    by default only the delta states at 0.  They are read in order, and
    the search marches on from the last boundary read, one segment per
    period, only if neither stop has come.
    """
    period = chain.period if chain.period is not None else 1.0
    h = _checked_step(chain, step)
    _check_step_count(period, h)
    steps = math.ceil(period / h)
    clock = Clock(0.0, period / steps, steps, period)
    if columns is None:
        columns = [np.stack([delta_state(chain.size, 0),
                             delta_state(chain.size, chain.n)], axis=1)]
    limit_t = max_horizon * (1 + 1e-12)
    dists = []

    def stops(k: int, y: np.ndarray) -> bool:
        """Record the distance of ``y`` at boundary k; whether to stop."""
        _check_columns(y, k * period)
        dists.append(float(np.abs(y[:, 0] - y[:, 1]).sum()))
        return (k > 0 and dists[-1] < tolerance) \
            or (k + 1) * period > limit_t

    for k, y in enumerate(columns):
        if stops(k, y):
            break
    else:  # march on from the last boundary read
        for k, y in enumerate(march((chain,), (2,), y, clock, k0=k), k + 1):
            if stops(k, y):
                break
    found = k > 0 and dists[-1] < tolerance
    return RegimeSearch(chain, tolerance, max_horizon, clock, tuple(dists),
                        k * period if found else None, y)


def limiting_regime(chain: Chain, tolerance: float, max_horizon: float,
                    step: float | None = None) -> RegimeReport:
    """Detect the limiting regime by comparing the extreme-initial-state
    trajectories at period boundaries; the limit period is sampled 200
    times."""
    return regime_search(chain, tolerance, max_horizon, step).report()


# ---------------------------------------------------------------------------
# empirical measurements

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


def _reaching_zero(g) -> np.ndarray:
    """Which states reach state 0 along the nonzero pattern of ``g``."""
    flows, reach = g.dense() != 0, np.arange(g.n + 1) == 0
    front = reach  # flows[k, i]: state i jumps to state k
    while front.any():
        front = flows[front].any(axis=0) & ~reach
        reach = reach | front
    return reach


def stationary_distribution(chain: Chain) -> np.ndarray:
    """Stationary vector of a time-homogeneous chain by one direct solve;
    the residual ||A p||_inf must fall below ``STATIONARY_TOL``.

    With p_0 fixed to 1, rows 1..n of A p = 0 are the banded system
    A[1:, 1:] x = -A[1:, 0]: a catastrophe row sits in the dropped row 0
    and a mass-arrival column moves to the right-hand side.  Gaussian
    elimination in band storage without pivoting solves it.  Each pivot
    is minus the sum of the off-diagonal entries left in its column, the
    flow into row 0 included (Grassmann, Taksar and Heyman, Oper. Res.
    1985), as elimination keeps the column sums of A at zero; every other
    operation adds terms of one sign, so no step cancels and each entry,
    however small, has a small relative error.  A step touches lo + lo*hi
    + hi scalars, lo and hi the bands below and above the diagonal, so it
    runs on Python floats: numpy's cost per call would exceed its work.

    A zero pivot means that its state never reaches state 0, so state 0
    is not recurrent (a births-only chain, say), or that its flow into
    state 0 underflowed: SolverError.  So is a p_0 below the
    floating-point range relative to another state.
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
    rhs = np.concatenate((-block.forcing()[0], np.zeros(lo))).tolist()
    # A[0, c], the flow into the dropped row, with hi zeros past the end
    to_zero = np.concatenate((block.direct_to_zero()[0], np.zeros(hi)))
    to_zero, band = to_zero.tolist(), band.tolist()
    for j in range(n):
        # step j reads column j below the diagonal, band[j + r][lo - r],
        # and updates band[j + r][lo - r + c], r = 1..lo, c = 1..hi
        row, lower = band[j], band[j + 1:j + lo + 1]
        column = [below[lo - r] for r, below in enumerate(lower, 1)]
        pivot = -(to_zero[j] + sum(column))
        if pivot == 0:
            if _reaching_zero(g)[j + 1]:
                raise SolverError(_BELOW_RANGE)
            raise SolverError(f"no stationary vector: state {j + 1} never "
                              f"reaches state 0, so state 0 is not recurrent")
        row[lo] = pivot
        right = row[lo + 1:]
        for r, (below, a) in enumerate(zip(lower, column), 1):
            factor = a / pivot
            for c, b in enumerate(right, lo - r + 1):
                below[c] -= factor * b
            rhs[j + r] -= factor * rhs[j]
        factor = to_zero[j] / pivot
        for c, b in enumerate(right, j + 1):
            to_zero[c] -= factor * b
    # back substitution (hi zeros past state n), summed left to right
    x = [0.0] * (n + hi)
    for j in range(n - 1, -1, -1):
        row, dot = band[j], 0.0
        for c in range(1, hi + 1):
            dot += row[lo + c] * x[j + c]
        x[j] = (rhs[j] - dot) / row[lo]
    p = np.array([1.0] + x[:n])
    with np.errstate(all="ignore"):
        p /= p.sum()
    if not np.all(np.isfinite(p)):
        raise SolverError(_BELOW_RANGE)
    residual = float(np.abs(g.matvec(p)).max())
    if not residual < STATIONARY_TOL:
        raise SolverError(
            f"stationary residual {residual} above {STATIONARY_TOL}")
    _check_columns(p, 0.0)
    return p


@dataclass(frozen=True)
class ProbeResult:
    levels: tuple[int, ...]
    p0_values: tuple[float, ...]
    recursion_residuals: tuple[float, ...]


def mass_arrival_probe(eps: float, levels) -> ProbeResult:
    """Stationary head probabilities of the mass-arrival-perturbed walk,
    births at rate 1 and deaths at rate 4, across truncation levels.

    For each level the truncated stationary vector must satisfy the flow
    balance 4 p[k+1] = p[k] + p[0] * eps / (k+1) at interior states; a
    violation indicates a builder bug.  A strictly decreasing head
    probability across levels is the truncation signature of a chain with
    no stationary law on the countable space.
    """
    p0s = []
    residuals = []
    for n in levels:
        base = birth_death_chain(RateFunction.constant(1.0),
                                 RateFunction.constant(4.0), size=n + 1,
                                 validation_grid=16)
        chain: MassArrivalChain = perturb(base, Perturbation("mass-arrival",
                                                             eps=eps))
        p = stationary_distribution(chain)
        ks = np.arange(1, n - 1)
        resid = np.abs(4.0 * p[ks + 1] - p[ks] - p[0] * eps / (ks + 1))
        p0s.append(float(p[0]))
        residuals.append(float(resid.max()))
    return ProbeResult(levels=tuple(int(n) for n in levels),
                       p0_values=tuple(p0s),
                       recursion_residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# CSV export

def _format(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, columns):
    """Equally long ``columns`` under ``header``, each value by ``_format``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(_format, row)) + "\n")


def write_states_csv(traj: Trajectory, path, column: int | None = None):
    """One row per sample: t, p_0, ..., p_n."""
    states = traj.states if traj.states.ndim == 2 else traj.states[:, :, column or 0]
    write_csv(path, ["t"] + [f"p_{i}" for i in range(states.shape[1])],
              [traj.times, *states.T])


def write_mean_csv(traj: Trajectory, path, column: int | None = None):
    """One row per sample: t, mean."""
    states = traj.states if traj.states.ndim == 2 else traj.states[:, :, column or 0]
    write_csv(path, ["t", "mean"],
              [traj.times, states @ np.arange(states.shape[1])])
