"""Markovian queueing chains with time-dependent intensities.

Five structural kinds are supported, all on states 0..n:

* ``birth-death``    — single steps up (birth) and down (death);
* ``batch-arrival``  — arrivals in groups of k at rate a_k(t), served
  one by one at state-dependent rates;
* ``batch-service``  — single arrivals, departures in groups of exactly k
  at rate b_k(t) (a group larger than the current population cannot
  occur);
* ``batch``          — group arrivals and group services combined;
* ``catastrophe``    — any of the four above with direct k -> 0
  transitions from every state, a rate family like the others.

A countable chain is represented by truncation to 0..n: transitions that
would leave the truncated range are dropped and the diagonal recomputed,
so every slice of the transposed intensity matrix A(t) is a conservative
generator (columns sum to zero, off-diagonal entries nonnegative).

Generators are stored as offset tables, the "offsets + data" layout of
``scipy.sparse.dia_array`` aligned by column: the slices at a block of
times are one array ``data`` of shape (T, K, n+1) with
``data[:, i, j] = A[j + offsets[i], j]``, so a jump of size k up or down
from state j sits in column j of the row with offset +k or -k.
Catastrophes add a dense row 0 and the mass-arrival perturbation a dense
column 0.  A table is rate values times multipliers, V ⊙ M
(``RateTable``): a chain builds its time-invariant multipliers M once,
and ``bands_block`` multiplies them by the rate values V at a block of
times (``bands_at``: at one time).  Tables of several chains go on one
offset order (``merged_offsets``), a row a chain lacks being zero: the
difference of two chains is one table of multiplier differences
(``difference``), and the solver steps several chains on one table.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .quadrature import ANALYSIS_GRID, grid_sup
from .rates import RateFunction

class ChainValidationError(ValueError):
    """Raised when a chain definition fails grid validation."""


# ---------------------------------------------------------------------------
# rate families

class RateFamily:
    """A k-indexed family of nonnegative rates.

    ``rate_functions`` holds one function shared by every index (covers the
    common shapes mu_k(t) = k*mu(t) and min(k, c)*mu(t) compactly) or one
    function per index, and ``multipliers`` scales each index.
    ``values(tb)`` returns the rate values at the times of a ``TimeBlock``,
    one row per time, which the multipliers scale.
    """

    def __init__(self, multipliers, rate_functions):
        self.multipliers = np.asarray(multipliers, dtype=float)
        self.rate_functions = tuple(rate_functions)
        if len(self.rate_functions) not in (1, self.count):
            raise ValueError("member count does not match multipliers")

    @property
    def count(self) -> int:
        return len(self.multipliers)

    def values(self, tb: "TimeBlock") -> np.ndarray:
        """The rate values at the block's times: (len(tb), 1) of a shared
        function, or (len(tb), count) of one function per index."""
        return np.array([tb.rate(fn) for fn in self.rate_functions]).T

    def scaled(self, factor) -> "RateFamily":
        """Multipliers times ``factor``, a number or one per member."""
        return RateFamily(self.multipliers * factor, self.rate_functions)


def rate_family(shared: RateFunction | None = None,
                multipliers: Sequence[float] | None = None,
                members: Sequence[RateFunction] | None = None,
                count: int | None = None) -> RateFamily:
    """Build a family of one ``shared`` function or of ``members``, one per
    index; ``count`` sizes the default unit multipliers."""
    if members is not None:
        fns = tuple(members)
        count = len(fns)
    elif shared is None:
        raise ValueError("either shared or members is required")
    else:
        fns = (shared,)
    if multipliers is None:
        if count is None:
            raise ValueError("count is required with default multipliers")
        multipliers = np.ones(count)
    fam = RateFamily(multipliers, fns)
    if members is not None and fam.count != count:
        # one member for several multipliers is no shared family
        raise ValueError("member count does not match multipliers")
    return fam


# ---------------------------------------------------------------------------
# time blocks

#: time nodes per block of the vectorised formulas.  A block is one
#: (T, K, n+1) table for K offsets, so this bounds their memory.  The
#: march's buffers hold NODE_BLOCK // 2 nodes, 16 steps of two: on
#: loss-verify's 4 columns of 302, (32, 2, 4, 302) for the bands and
#: (32, 4, 302) for the diagonal, 0.89 MiB in all.  Measured at n = 300
#: with the weighted reduced tables as BLAS products (5 s benchmark runs,
#: two seeds), 16-, 64-, 128- and 256-node blocks read a peak resident set
#: of 39.4, 40.4-40.5, 42.3-42.4 and 45.3 MB and an operation time of
#: 0.19-0.20, 0.12, 0.14-0.15 and 0.16 s on certify-sweep, and 39.5,
#: 40.5-40.7, 41.9 and 44.5-44.7 MB and 0.28-0.29, 0.26-0.27, 0.25-0.27
#: and 0.30-0.31 s on loss-verify.
NODE_BLOCK = 64
#: time nodes per evaluation of a rate function: ``time_blocks`` and the
#: march evaluate each function once per run of RATE_NODES nodes (a wide
#: table's march once per block, its V being as large as a table) and cut
#: the values into blocks
RATE_NODES = 1024

#: ``fn.values(ts)``, a pole at a node being inf there without a warning
_node_values = np.errstate(divide="ignore", invalid="ignore",
                           over="ignore")(lambda fn, ts: fn.values(ts))


class TimeBlock:
    """A block of time nodes with the rate values evaluated on them.

    Each rate function is evaluated once per block, by its array
    evaluator ``values`` (whose value at a node does not depend on the
    other nodes), and the values are shared by every chain built from that
    function (a base chain and its perturbed draws differ only in
    multipliers).  A block cut from a ``parent`` at ``start`` evaluates
    nothing: its values are slices of the parent's, the same numbers by
    that property.  ``at`` is the block's slice of its parent's nodes.
    """

    def __init__(self, ts, parent: "TimeBlock | None" = None,
                 start: int = 0):
        self.ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self._parent = parent
        self.at = slice(start, start + len(self.ts))
        self._values: dict[int, tuple[RateFunction, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.ts)

    def rate(self, fn: RateFunction) -> np.ndarray:
        hit = self._values.get(id(fn))
        if hit is None:  # the function is kept so that its id stays unique
            values = _node_values(fn, self.ts) if self._parent is None \
                else self._parent.rate(fn)[self.at]
            hit = self._values[id(fn)] = (fn, values)
        return hit[1]

    def blocks(self):
        """Consecutive blocks of at most NODE_BLOCK of this block's nodes,
        cut from it."""
        for j in range(0, len(self), NODE_BLOCK):
            yield TimeBlock(self.ts[j:j + NODE_BLOCK], self, j)


def rate_runs(ts: np.ndarray):
    """The nodes ``ts`` as consecutive parent blocks of at most RATE_NODES:
    each rate function is evaluated once per run."""
    for i in range(0, len(ts), RATE_NODES):
        yield TimeBlock(ts[i:i + RATE_NODES])


def time_blocks(ts: np.ndarray):
    """The nodes ``ts`` as consecutive blocks of at most NODE_BLOCK, cut
    from one parent block per run of RATE_NODES (``rate_runs``)."""
    for run in rate_runs(ts):
        yield from run.blocks()


# ---------------------------------------------------------------------------
# grid suprema by block bounds

#: a block bound is inflated by this much of its triangle norm, the sum
#: over rows of max |v_r| times the row's own norm, plus the quantity's
#: constant, which exceeds the rounding of the box, of the bound and of
#: the block's own values by orders of magnitude
BOUND_SLACK = 1e-9


def _boxes(blocks: Sequence[TimeBlock], table: RateTable):
    """The boxes [lo, hi] of V over each block as their midpoints, radii
    and largest magnitudes, (blocks, rows), and whether a box is not
    finite, (blocks,).  lo and hi come from one min and one max reduction
    over the values of each parent run of the blocks.  A run that holds
    the values already (the validation blocks keep theirs) is read;
    otherwise the values are taken on a block of the run's nodes of its
    own, the same numbers, so that a run keeps rate values only for blocks
    evaluated."""
    fns = [f.rate_functions[0] for _, f in table.families]
    lo, hi = [], []
    for run, group in itertools.groupby(
            blocks, lambda tb: tb if tb._parent is None else tb._parent):
        held = all(id(fn) in run._values for fn in fns)
        v = table.values(run if held else TimeBlock(run.ts))[:, :, 0]
        starts = [tb.at.start for tb in group]
        lo.append(np.minimum.reduceat(v, starts))
        hi.append(np.maximum.reduceat(v, starts))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    bad = ~(np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1))
    with np.errstate(all="ignore"):  # a bad box's bound is none
        rad = (hi - lo) / 2
        return lo + rad, rad, np.maximum(-lo, hi), bad


def block_suprema(blocks: Sequence[TimeBlock], tasks,
                  count: int) -> list[float]:
    """Grid suprema of ``count`` quantities over the blocks, each the
    largest over ``tasks`` of its values at every node, as ``grid_sup``
    folds them, evaluating only the blocks that can hold a supremum.

    A task is (table, evaluate, norms): ``evaluate(v)`` gives the
    ``count`` arrays of the quantities at rate values V of ``table``
    (``table.values``), one row per time, each entry a norm of a linear
    map of V plus a constant, and ``norms[q]`` is quantity q's norm of
    each rate row alone, (rows,), and its constant.  Over a box of V, the
    triangle inequality bounds a quantity by ``evaluate`` at the box's
    midpoint plus each row's radius times its norm, inflated by
    BOUND_SLACK.  The boxes are taken from every block's V; the bounds
    are computed for at most NODE_BLOCK blocks at once, no more than one
    block's table.  A bound that is not finite, of a box that is not or
    of a wide table, is none: the pairs with a quantity that has none are
    evaluated first, in one pass.  Per quantity, the other (block, task)
    pairs are then evaluated in order of decreasing bound until the bound
    is no larger than the running supremum, which every evaluation raises
    for every quantity: a pair left out cannot raise any of them, so the
    suprema are those of the full sweep, the same values folded in
    another order.
    """
    blocks = list(blocks)
    bounds = np.full((len(blocks), len(tasks), count), np.inf)
    boxes = {}  # by rate rows, which the draws of a chain share
    for i, (table, evaluate, norms) in enumerate(tasks):
        if table.wide:
            continue
        if table.families not in boxes:
            boxes[table.families] = _boxes(blocks, table)
        mid, rad, top, bad = boxes[table.families]
        with np.errstate(all="ignore"):
            for j in range(0, len(blocks), NODE_BLOCK):
                at = slice(j, j + NODE_BLOCK)
                for q, (value, (norm, const)) in enumerate(
                        zip(evaluate(mid[at, :, None]), norms)):
                    bounds[at, i, q] = \
                        value.reshape(len(value), -1).max(axis=1) \
                        + (rad[at] * norm).sum(axis=1) \
                        + BOUND_SLACK * ((top[at] * norm).sum(axis=1) + const)
        bounds[bad, i] = np.inf
    del boxes  # the evaluations below need none of them
    bounds[~np.isfinite(bounds)] = np.inf

    def fold(sups, b, i):
        bounds[b, i] = -np.inf  # evaluated: no bound of it is needed
        table, evaluate, _ = tasks[i]
        return [grid_sup(sup, values) for sup, values
                in zip(sups, evaluate(table.values(blocks[b])))]

    sups = [0.0] * count
    for b, i in zip(*np.nonzero(np.isinf(bounds).any(axis=2))):
        sups = fold(sups, b, i)
    for q in range(count):
        while bounds.size:  # no draws: nothing to evaluate
            b, i = divmod(int(bounds[:, :, q].argmax()), len(tasks))
            if bounds[b, i, q] <= sups[q]:
                break
            sups = fold(sups, b, i)
    return sups


# ---------------------------------------------------------------------------
# generator slices

class GeneratorBands:
    """One time slice of A(t), the view ``GeneratorBlock.at(i)``:
    ``data[i, j] = A[j + offsets[i], j]`` with ``data`` of shape (K, n+1),
    and ``diag``, ``row0`` and ``col0`` of shape (n+1,)."""

    def __init__(self, n: int, offsets: tuple[int, ...], data: np.ndarray,
                 diag: np.ndarray, row0: np.ndarray | None = None,
                 col0: np.ndarray | None = None):
        self.n = n
        self.offsets = offsets
        self.data = data
        self.diag = diag
        self.row0 = row0
        self.col0 = col0

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """A @ p for one state vector, summed as the solver's step sums."""
        out = self.diag * p
        prods = self.data * p
        for i, k in enumerate(self.offsets):
            # data[i, j] * p[j] lands on row j + k
            if k > 0:
                out[k:] += prods[i, :-k]
            else:
                out[:k] += prods[i, -k:]
        if self.row0 is not None:  # a running sum adds in state order
            out[0] += np.add.accumulate(self.row0[1:] * p[1:])[-1]
        if self.col0 is not None:
            out += self.col0 * p[0]
        return out

    def dense(self) -> np.ndarray:
        m = np.zeros((self.n + 1, self.n + 1))
        cols = np.arange(self.n + 1)
        for k, vals in zip(self.offsets, self.data):
            on = (cols + k >= 0) & (cols + k <= self.n)
            m[cols[on] + k, cols[on]] += vals[on]
        if self.row0 is not None:
            m[0, 1:] += self.row0[1:]
        if self.col0 is not None:
            m[1:, 0] += self.col0[1:]
        m[cols, cols] = self.diag
        return m


class GeneratorBlock:
    """The slices of A(t) at a block of times as one table.

    ``data`` has shape (T, K, n+1) and is aligned by column:
    ``data[:, i, j] = A[j + offsets[i], j]``, zero where that row lies
    outside 0..n.  A chain's table is V ⊙ M (``RateTable.block``), with M
    built once per chain by ``ChainSpec.rate_table``.  ``row0`` (T, n+1)
    and the time-invariant ``col0`` (n+1,) are optional dense overlays
    for the top row and the first column (index 0 entries unused).  The
    diagonal is minus the off-diagonal column sums, computed on first read
    (the certificate and gap grids never read it), unless ``fixed_diag``
    gives it, as ``analysis.reduced_bands_block`` does for the weighted
    reduced matrix on states 0..n-1.
    """

    def __init__(self, n: int, offsets: tuple[int, ...], data: np.ndarray,
                 row0: np.ndarray | None = None,
                 col0: np.ndarray | None = None,
                 fixed_diag: np.ndarray | None = None):
        self.n = n
        self.offsets = offsets
        self.data = data
        self.row0 = row0
        self.col0 = col0
        self.fixed_diag = fixed_diag

    @property
    def times(self) -> int:
        return len(self.data)

    @cached_property
    def diag(self) -> np.ndarray:
        if self.fixed_diag is not None:
            return self.fixed_diag
        s = self.column_sums()
        return np.negative(s, out=s)

    def column_sums(self) -> np.ndarray:
        """Per-column sums of the off-diagonal entries per time.  The sum
        over the offset axis of a C-ordered table adds its rows in table
        order."""
        s = self.data.sum(axis=1)
        if self.row0 is not None:
            s[:, 1:] += self.row0[:, 1:]
        if self.col0 is not None:
            s[:, 0] += self.col0[1:].sum()
        return s

    def at(self, i: int) -> GeneratorBands:
        return GeneratorBands(self.n, self.offsets, self.data[i], self.diag[i],
                              None if self.row0 is None else self.row0[i],
                              self.col0)

    def forcing(self) -> np.ndarray:
        """Column 0 without its diagonal entry, (A[1,0], ..., A[n,0]) per
        time."""
        up = [i for i, k in enumerate(self.offsets) if k > 0]
        f = np.zeros((self.times, self.n))
        f[:, [self.offsets[i] - 1 for i in up]] = self.data[:, up, 0]
        if self.col0 is not None:
            f += self.col0[1:]
        return f

    def direct_to_zero(self) -> np.ndarray:
        """Row 0 without its diagonal entry: the intensities A[0, k] of
        jumping straight to the empty state, k = 1..n, per time."""
        down = [i for i, k in enumerate(self.offsets) if k < 0]
        ks = [-self.offsets[i] for i in down]
        out = np.zeros((self.times, self.n))
        out[:, [k - 1 for k in ks]] = self.data[:, down, ks]
        if self.row0 is not None:
            out += self.row0[:, 1:]
        return out


def merged_offsets(offset_lists: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """One offset order for several tables: the first table's, with every
    other offset inserted before the next offset of its own table, so that
    each table keeps its own order (and its column sums their order)."""
    merged = list(offset_lists[0])
    for offsets in offset_lists[1:]:
        at = len(merged)
        for k in reversed(offsets):
            if k in merged:
                at = merged.index(k)
            else:
                merged.insert(at, k)
    return tuple(merged)


class RateTable:
    """A chain's generator tables as rate values times multipliers, V ⊙ M.

    Row i of the time-invariant M, ``m`` (rows, n+1), holds the multipliers
    of the family on offset ``offsets[i]`` at its source states, zero
    elsewhere; with ``row0`` a last row holds the catastrophes'.
    ``families`` gives each row's first source state and family.  V,
    ``values(tb)``, holds each row's rate values at the block's times:
    (T, rows, 1), or (T, rows, n+1) when a member family has one function
    per state (``wide``).  Each entry of V ⊙ M is the one product rate ×
    multiplier.  ``col0`` is the mass-arrival column, outside the product.
    A ``difference`` may sum several rows on one offset: ``at`` gives each
    row's offset index (the row0 row's is ``len(offsets)``), nondecreasing.
    ``reduced`` caches ``analysis.reduced_block``'s R by weight sequence.
    """

    def __init__(self, n: int, offsets: tuple[int, ...],
                 families: tuple[tuple[int, RateFamily], ...], m: np.ndarray,
                 row0: bool, col0: np.ndarray | None = None,
                 at: tuple[int, ...] | None = None):
        self.n = n
        self.offsets = offsets
        self.families = families
        self.m = m
        self.row0 = row0
        self.col0 = col0
        self.at = at
        self.reduced: dict = {}

    @cached_property
    def wide(self) -> bool:
        return any(len(f.rate_functions) > 1 for _, f in self.families)

    def values(self, tb: TimeBlock) -> np.ndarray:
        v = np.zeros((len(tb), len(self.families),
                      self.n + 1 if self.wide else 1))
        for i, (start, f) in enumerate(self.families):
            if len(f.rate_functions) == 1:  # one function fills the row
                v[:, i] = tb.rate(f.rate_functions[0])[:, None]
            else:
                v[:, i, start:start + f.count] = f.values(tb)
        return v

    def forcing_head(self, v: np.ndarray) -> np.ndarray:
        """``GeneratorBlock.forcing()`` of V ⊙ M cut to its first p entries,
        p the largest offset up (the rest are zero), from V and column 0 of
        M: A[k, 0] at k - 1, rows on one offset added in row order."""
        at = range(len(self.m)) if self.at is None else self.at
        head = np.zeros((len(v), max(0, *self.offsets)))
        for r, i in enumerate(at):  # the row0 row's index is past offsets
            if i < len(self.offsets) and self.offsets[i] > 0:
                head[:, self.offsets[i] - 1] += v[:, r, 0] * self.m[r, 0]
        return head

    def block(self, v: np.ndarray) -> GeneratorBlock:
        """V ⊙ M for rate values V (``values``), one time per row of V; V
        the identity gives M as a block whose times are its rows, each
        alone at its offset."""
        # the products of v * m, formed by einsum at about twice the speed
        # of a multiply that broadcasts v along the states
        table = v * self.m if self.wide else \
            np.einsum("tr,rj->trj", v[:, :, 0], self.m)
        if self.at is not None:  # rows on one offset, summed in row order
            table = np.add.reduceat(
                table, np.unique(self.at, return_index=True)[1], axis=1)
        k = len(self.offsets)
        return GeneratorBlock(self.n, self.offsets, table[:, :k],
                              table[:, k] if self.row0 else None, self.col0)


def contract(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_r v_r m_r per time and state: the column sums of V ⊙ M, added in
    table order as ``GeneratorBlock.column_sums`` adds them, bit for bit."""
    if v.shape[2] == 1:
        return np.einsum("tr,rj->tj", v[:, :, 0], m)
    return np.einsum("trj,rj->tj", v, m)


def difference(base: RateTable, other: RateTable) -> RateTable:
    """other - base over both tables' rate rows, a row being an offset (or
    row0) with its rate functions: M' - M on a row of both tables, and on a
    row of one its multipliers, negated for the base.  Rows follow the
    ``merged_offsets``, the base's first where two share an offset."""
    offsets = merged_offsets([base.offsets, other.offsets])
    rows: dict[tuple, list] = {}
    col0 = None
    for sign, table in ((-1.0, base), (1.0, other)):
        ats = [offsets.index(k) for k in table.offsets] + [len(offsets)]
        for at, row, m in zip(ats, table.families, table.m):
            key = (at, *map(id, row[1].rate_functions))
            rows.setdefault(key, [row, 0.0])[1] += sign * m
        if table.col0 is not None:
            col0 = (0.0 if col0 is None else col0) + sign * table.col0
    keys = sorted(rows, key=lambda key: key[0])
    at = tuple(key[0] for key in keys)
    families, m = zip(*(rows[key] for key in keys))
    return RateTable(base.n, offsets, families, np.array(m),
                     base.row0 or other.row0, col0,
                     None if at == tuple(range(len(at))) else at)


# ---------------------------------------------------------------------------
# chain definitions

#: (field, slot name) of every rate family in draw order; a mapping field
#: holds one family per batch size k, named ``<slot>[k]``
_SLOT_TABLE = (("births", "birth"), ("deaths", "death"),
               ("services", "service"), ("arrival_batches", "arrival"),
               ("service_batches", "service"), ("catastrophes", "catastrophe"))


class ChainSpec:
    """An inhomogeneous chain: the rate families that are set define its
    transitions, and ``kind`` names the structure for reports.

    Never changed once built (``_replace`` builds a new chain); generator
    slices are pure functions of (spec, t) and safe to evaluate
    concurrently.
    """

    def __init__(self, kind: str, n: int, period: float | None = None,
                 births: RateFamily | None = None,
                 deaths: RateFamily | None = None,
                 services: RateFamily | None = None,
                 arrival_batches: Mapping[int, RateFamily] | None = None,
                 service_batches: Mapping[int, RateFamily] | None = None,
                 catastrophes: RateFamily | None = None,
                 declared_bound: float | None = None,
                 validation_grid: int = ANALYSIS_GRID):
        self.kind = kind
        self.n = n
        self.period = period
        self.births = births              # birth-death, batch-service
        self.deaths = deaths              # birth-death
        self.services = services          # batch-arrival
        self.arrival_batches = {} if arrival_batches is None \
            else arrival_batches
        self.service_batches = {} if service_batches is None \
            else service_batches
        self.catastrophes = catastrophes  # catastrophe
        self.declared_bound = declared_bound
        self.validation_grid = validation_grid

    def _replace(self, **changes) -> "ChainSpec":
        """A new chain of this one's constructor fields, ``changes``
        replacing some; nothing cached on this one is carried over."""
        return ChainSpec(**{
            "kind": self.kind, "n": self.n, "period": self.period,
            "births": self.births, "deaths": self.deaths,
            "services": self.services,
            "arrival_batches": self.arrival_batches,
            "service_batches": self.service_batches,
            "catastrophes": self.catastrophes,
            "declared_bound": self.declared_bound,
            "validation_grid": self.validation_grid, **changes})

    @property
    def size(self) -> int:
        return self.n + 1

    @cached_property
    def rate_table(self) -> RateTable:
        """The multipliers of ``bands_block``, from whichever rate families
        are set.  Rows come in fill order: births +1, arrival batches +k
        ascending, deaths or services -1, service batches -k ascending,
        and last the catastrophes, which leave states 1..n as a jump by -1
        does.  A batch rate is the same from every source state, so its
        one multiplier fills its row."""
        n, cat = self.n, self.catastrophes
        rows = [(1, self.births)]
        rows += [(k, self.arrival_batches[k])
                 for k in sorted(self.arrival_batches)]
        rows += [(-1, self.deaths), (-1, self.services)]
        rows += [(-k, self.service_batches[k])
                 for k in sorted(self.service_batches)]
        rows = [(k, fam) for k, fam in rows + [(-1, cat)] if fam is not None]
        m = np.zeros((len(rows), n + 1))
        for i, (k, fam) in enumerate(rows):
            m[i, max(-k, 0):n + 1 - max(k, 0)] = fam.multipliers
        offsets = tuple(k for k, _ in rows)[:len(rows) - (cat is not None)]
        return RateTable(n, offsets,
                         tuple((max(-k, 0), fam) for k, fam in rows), m,
                         cat is not None)

    def bands_block(self, tb: TimeBlock) -> GeneratorBlock:
        table = self.rate_table
        return table.block(table.values(tb))

    def bands_at(self, t: float) -> GeneratorBands:
        return self.bands_block(TimeBlock(t)).at(0)

    @cached_property
    def time_invariant(self) -> bool:
        """True when no rate of the chain depends on time."""
        return all(f.time_invariant for _, fam in self.rate_slots()
                   for f in fam.rate_functions)

    def _slots(self):
        """(field, batch size or None, slot name, family) of every rate
        family that is set, in the order of ``_SLOT_TABLE``."""
        for name, slot in _SLOT_TABLE:
            value = getattr(self, name)
            if isinstance(value, RateFamily):
                yield name, None, slot, value
            elif value:
                for k in sorted(value):
                    yield name, k, f"{slot}[{k}]", value[k]

    def rate_slots(self) -> list[tuple[str, RateFamily]]:
        """All rate families, named by their structural role."""
        return [(slot, fam) for _, _, slot, fam in self._slots()]

    def _replace_slots(self, new: Mapping[str, RateFamily]) -> "ChainSpec":
        """The chain with every family replaced by ``new[slot]``."""
        kw = {}
        for name, k, slot, _ in self._slots():
            if k is None:
                kw[name] = new[slot]
            else:
                kw.setdefault(name, dict(getattr(self, name)))[k] = new[slot]
        return self._replace(**kw)

    @cached_property
    def _validation_runs(self) -> tuple[TimeBlock, ...]:
        """The validation grid in runs (``rate_runs``), keeping the rate
        values that validation reads once per run and that the draws of
        ``perturb``, sharing the rate functions, reuse."""
        return tuple(rate_runs(np.linspace(
            0.0, 1.0 if self.period is None else self.period,
            self.validation_grid + 1)))

    @cached_property
    def _validation_blocks(self) -> tuple[TimeBlock, ...]:
        """The validation runs in blocks (``time_blocks``), cut from them."""
        return tuple(tb for run in self._validation_runs
                     for tb in run.blocks())

    @cached_property
    def l_bound(self) -> float:
        """Grid supremum of |A_kk(t)| (the validated intensity bound)."""
        for name, fam in self.rate_slots():
            _validate_family(name, fam, self._validation_runs)
        return _diag_sup(self, self._validation_blocks)

    @cached_property
    def _family_sups(self) -> dict[str, np.ndarray]:
        """Per-member grid suprema of each family, shaping offset draws:
        fl(max v * m), which is the largest fl(v * m) for m >= 0."""
        return {name: np.concatenate([f.values(run) for run in
                                      self._validation_runs]).max(axis=0)
                * f.multipliers for name, f in self.rate_slots()}


class MassArrivalChain:
    """A chain perturbed by jumps from the empty state to every state k at
    rate eps/(k(k+1)).

    On the truncated range the tail rate sum(eps/(k(k+1)), k >= n) = eps/n
    is assigned to the top state, so the outflow rate from state 0 gains
    exactly eps and the stationary balance across every interior cut is
    the same as for the countable chain.
    """

    def __init__(self, base: ChainSpec, eps: float):
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError("mass-arrival magnitude must be finite and "
                             f"nonnegative, got {eps}")
        self.base = base
        self.eps = eps

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def period(self) -> float | None:
        return self.base.period

    @property
    def kind(self) -> str:
        return "mass-arrival-perturbed"

    @cached_property
    def _col0(self) -> np.ndarray:
        n = self.n
        col = np.zeros(n + 1)
        ks = np.arange(1, n)
        col[1:n] = self.eps / (ks * (ks + 1.0))
        col[n] = self.eps / n
        return col

    @property
    def time_invariant(self) -> bool:
        return self.base.time_invariant

    @cached_property
    def rate_table(self) -> RateTable:
        table = self.base.rate_table
        return RateTable(table.n, table.offsets, table.families, table.m,
                         table.row0, self._col0, table.at)

    def bands_block(self, tb: TimeBlock) -> GeneratorBlock:
        table = self.rate_table
        return table.block(table.values(tb))

    def bands_at(self, t: float) -> GeneratorBands:
        return self.bands_block(TimeBlock(t)).at(0)

    @cached_property
    def l_bound(self) -> float:
        return self.base.l_bound + self.eps


Chain = ChainSpec | MassArrivalChain


# ---------------------------------------------------------------------------
# validation

def _validate_family(name: str, fam: RateFamily, blocks):
    """Checks the family's products v * m at the nodes of ``blocks``, the
    consecutive blocks of a grid: a chain gives its validation runs, so
    that each rate function's values are read once per run."""
    if np.any(fam.multipliers < 0):
        raise ChainValidationError(f"{name}: negative multiplier")
    # rounding is monotone in m >= 0: a shared rate times the largest
    # multiplier (if any) is negative or overflows where a product does
    top = fam.multipliers if len(fam.rate_functions) > 1 \
        else fam.multipliers.max(initial=0.0, keepdims=True)[:fam.count]
    with np.errstate(all="ignore"):  # a non-finite value is rejected below
        grid = np.concatenate([fam.values(tb) for tb in blocks]) * top
    if not np.all(np.isfinite(grid)):
        raise ChainValidationError(f"{name}: non-finite rate value on the grid")
    if np.any(grid < 0):
        i_t, _ = np.unravel_index(int(np.argmin(grid)), grid.shape)
        ts = np.concatenate([tb.ts for tb in blocks])
        raise ChainValidationError(f"{name}: negative rate value at t={ts[i_t]}")


def _block_diag(table: RateTable, v: np.ndarray) -> tuple[np.ndarray]:
    """|A_kk(t)| at rate values V, minus the column sums of V ⊙ M as one
    contraction of V with M."""
    return (np.abs(contract(v, table.m)),)


def _diag_sup(spec: ChainSpec, blocks) -> float:
    """Grid supremum of |A_kk(t)| over the blocks, checked against the
    declared bound.  ``block_suprema`` evaluates ``_block_diag`` only on
    the blocks whose bound reaches the running supremum, a row's norm
    being its largest multiplier: the full grid sweep's value."""
    table = spec.rate_table
    sup, = block_suprema(blocks, [(table, lambda v: _block_diag(table, v),
                                   [(np.abs(table.m).max(axis=1), 0.0)])], 1)
    if spec.declared_bound is not None and sup > spec.declared_bound * (1 + 1e-12):
        raise ChainValidationError(
            f"declared intensity bound {spec.declared_bound} exceeded: "
            f"grid supremum {sup}")
    return sup


def _resolve_period(spec: ChainSpec) -> float | None:
    fns: list[RateFunction] = []
    for _, fam in spec.rate_slots():
        fns.extend(fam.rate_functions)
    declared = {f.period for f in fns if f.period is not None}
    for period in declared:
        if not (math.isfinite(period) and period > 0):
            raise ChainValidationError(
                f"period must be positive and finite, got {period}")
    if len(declared) > 1:
        raise ChainValidationError(f"conflicting declared periods {sorted(declared)}")
    if not declared:
        return None
    period = declared.pop()
    for f in fns:
        if f.period is None and not f.time_invariant:
            raise ChainValidationError(
                "time-dependent rate without a declared period in a periodic chain")
    return period


def _built(spec: ChainSpec) -> ChainSpec:
    spec = spec._replace(period=_resolve_period(spec))
    spec.l_bound  # eager validation
    return spec


def _family_arg(fam, count: int, name: str) -> RateFamily:
    if isinstance(fam, RateFamily):
        if fam.count != count:
            raise ChainValidationError(
                f"{name}: family covers {fam.count} indices, need {count}")
        return fam
    if isinstance(fam, RateFunction):
        return rate_family(shared=fam, count=count)
    if isinstance(fam, (list, tuple)):
        if len(fam) != count:
            raise ChainValidationError(
                f"{name}: {len(fam)} rates given, need {count}")
        return rate_family(members=fam)
    raise TypeError(f"{name}: expected RateFamily, RateFunction or sequence")


def _batch_arg(batches: Mapping[int, RateFunction], n: int,
               slot: str) -> dict[int, RateFamily]:
    out = {}
    for k, fn in batches.items():
        if not 1 <= k <= n:
            raise ChainValidationError(
                f"{slot}[{k}]: batch size {k} outside 1..{n}")
        if isinstance(fn, RateFamily) and fn.count != 1:
            # a batch rate does not depend on the source state
            raise ChainValidationError(
                f"{slot}[{k}]: a batch rate takes one multiplier, "
                f"got {fn.count}")
        out[k] = fn if isinstance(fn, RateFamily) else rate_family(shared=fn, count=1)
    return out


# ---------------------------------------------------------------------------
# builders

def _structural_chain(kind: str, size: int, declared_bound: float | None,
                      validation_grid: int, **families) -> ChainSpec:
    return _built(ChainSpec(kind=kind, n=size - 1,
                            declared_bound=declared_bound,
                            validation_grid=validation_grid, **families))


def birth_death_chain(births, deaths, size: int, truncated: bool = False,
                      declared_bound: float | None = None,
                      validation_grid: int = ANALYSIS_GRID) -> ChainSpec:
    """Chain with single births (rate family on states 0..n-1) and single
    deaths (family on states 1..n).  ``truncated`` is accepted for older
    callers and has no effect: every chain is finite."""
    n = size - 1
    return _structural_chain("birth-death", size, declared_bound,
                             validation_grid,
                             births=_family_arg(births, n, "births"),
                             deaths=_family_arg(deaths, n, "deaths"))


def batch_arrival_chain(arrival_batches: Mapping[int, RateFunction], services,
                        size: int, declared_bound: float | None = None,
                        validation_grid: int = ANALYSIS_GRID) -> ChainSpec:
    """Group arrivals (size k at rate a_k(t)) with one-by-one service at
    state-dependent rates (family on states 1..n)."""
    n = size - 1
    return _structural_chain(
        "batch-arrival", size, declared_bound, validation_grid,
        arrival_batches=_batch_arg(arrival_batches, n, "arrival"),
        services=_family_arg(services, n, "services"))


def batch_service_chain(births, service_batches: Mapping[int, RateFunction],
                        size: int, declared_bound: float | None = None,
                        validation_grid: int = ANALYSIS_GRID) -> ChainSpec:
    """Single arrivals with group service of exact size k at rate b_k(t)."""
    n = size - 1
    return _structural_chain(
        "batch-service", size, declared_bound, validation_grid,
        births=_family_arg(births, n, "births"),
        service_batches=_batch_arg(service_batches, n, "service"))


def batch_chain(arrival_batches: Mapping[int, RateFunction],
                service_batches: Mapping[int, RateFunction],
                size: int, declared_bound: float | None = None,
                validation_grid: int = ANALYSIS_GRID) -> ChainSpec:
    """Group arrivals and group services combined."""
    n = size - 1
    return _structural_chain(
        "batch", size, declared_bound, validation_grid,
        arrival_batches=_batch_arg(arrival_batches, n, "arrival"),
        service_batches=_batch_arg(service_batches, n, "service"))


def catastrophe_chain(base: ChainSpec, catastrophes,
                      declared_bound: float | None = None) -> ChainSpec:
    """Add direct k -> 0 transitions (family on states 1..n) to a chain
    without catastrophes; the diagonal is recomputed so columns still sum
    to zero."""
    if not isinstance(base, ChainSpec) or base.catastrophes is not None:
        raise TypeError("catastrophes must be added to a structural chain "
                        "without catastrophes")
    return _built(base._replace(
        kind="catastrophe", declared_bound=declared_bound,
        catastrophes=_family_arg(catastrophes, base.n, "catastrophes")))


# ---------------------------------------------------------------------------
# perturbations

class Perturbation:
    """Recipe for a perturbed chain.

    Modes: ``rate-offsets`` (seeded per-rate offsets of magnitude <= eps,
    shaped like the rate itself so nonnegativity survives), ``mass-arrival``
    (jumps from the empty state) and ``multiplicative`` (all rates scaled
    by 1 + eps).  A chain with replaced rates is built directly instead.
    """

    MODES = ("rate-offsets", "mass-arrival", "multiplicative")

    def __init__(self, mode: str, eps: float = 0.0, seed: int | None = None):
        if mode not in self.MODES:
            raise ValueError(f"unknown perturbation mode {mode!r}")
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError("perturbation magnitude must be finite and "
                             f"nonnegative, got {eps}")
        self.mode = mode
        self.eps = eps
        self.seed = seed


def _offset_family(fam: RateFamily, eps: float, coeffs: np.ndarray,
                   sups: np.ndarray) -> RateFamily:
    factors = np.ones(fam.count)
    ok = sups > 0
    factors[ok] = 1.0 + coeffs[ok] * eps / sups[ok]
    # a downward offset may not push a small rate negative
    factors = np.maximum(factors, 0.0)
    return fam.scaled(factors)


def perturb(spec: ChainSpec, pert: Perturbation) -> Chain:
    """Apply a perturbation recipe; eps = 0 reproduces the generator
    entrywise for every mode."""
    if pert.mode == "mass-arrival":
        return MassArrivalChain(base=spec, eps=pert.eps)
    if pert.mode == "multiplicative":
        new = {name: fam.scaled(1.0 + pert.eps) for name, fam in spec.rate_slots()}
    else:
        rng = np.random.default_rng(0 if pert.seed is None else pert.seed)
        new = {name: _offset_family(fam, pert.eps, rng.uniform(
            -1.0, 1.0, size=fam.count), spec._family_sups[name])
            for name, fam in spec.rate_slots()}
    draw = spec._replace_slots(new)
    # its rate functions are the base's, validated on the same grid, and its
    # multipliers the base's times finite factors >= 0, so only its bound
    # and the declared-bound check are computed afresh, from the base's
    # rate values
    draw.__dict__["l_bound"] = _diag_sup(draw, spec._validation_blocks)
    return draw
