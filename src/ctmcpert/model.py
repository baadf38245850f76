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
offset order (``merged_offsets``), a row a chain lacks being zero, to be
subtracted or to be stacked by the solver on a trailing axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .quadrature import ANALYSIS_GRID
from .rates import RateFunction

class ChainValidationError(ValueError):
    """Raised when a chain definition fails grid validation."""


# ---------------------------------------------------------------------------
# rate families

@dataclass(frozen=True, eq=False)
class RateFamily:
    """A k-indexed family of nonnegative rates.

    Either a shared rate function with per-index multipliers (covers the
    common shapes mu_k(t) = k*mu(t) and min(k, c)*mu(t) compactly) or an
    explicit list of member functions, again with per-member scale
    factors.  ``block(tb)`` returns the family evaluated at the times of
    a ``TimeBlock``, one row per time.
    """

    multipliers: np.ndarray
    shared: RateFunction | None = None
    members: tuple[RateFunction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "multipliers",
                           np.asarray(self.multipliers, dtype=float))
        if (self.shared is None) == (self.members is None):
            raise ValueError("family needs exactly one of shared / members")
        if self.members is not None and len(self.members) != self.count:
            raise ValueError("member count does not match multipliers")

    @property
    def count(self) -> int:
        return len(self.multipliers)

    def block(self, tb: "TimeBlock") -> np.ndarray:
        """(len(tb), count) matrix of family values at the block's times."""
        if self.shared is not None:
            return tb.rate(self.shared)[:, None] * self.multipliers
        return np.stack([tb.rate(m) for m in self.members],
                        axis=1) * self.multipliers

    def scaled(self, factor) -> "RateFamily":
        """Multipliers times ``factor``, a number or one per member."""
        return replace(self, multipliers=self.multipliers * factor)

    @property
    def rate_functions(self) -> tuple[RateFunction, ...]:
        if self.shared is not None:
            return (self.shared,)
        return self.members


def rate_family(shared: RateFunction | None = None,
                multipliers: Sequence[float] | None = None,
                members: Sequence[RateFunction] | None = None,
                count: int | None = None) -> RateFamily:
    """Build a family; ``count`` sizes the default unit multipliers."""
    if members is not None:
        members = tuple(members)
        mults = np.ones(len(members)) if multipliers is None \
            else np.asarray(multipliers, dtype=float)
        return RateFamily(mults, members=members)
    if shared is None:
        raise ValueError("either shared or members is required")
    if multipliers is None:
        if count is None:
            raise ValueError("count is required with default multipliers")
        multipliers = np.ones(count)
    return RateFamily(np.asarray(multipliers, dtype=float), shared=shared)


# ---------------------------------------------------------------------------
# time blocks

#: time nodes per block of the vectorised formulas.  A block is one
#: (T, K, n+1) table for K offsets, so this bounds its memory.  Measured at
#: n = 300 with one (T, n+1) array per band, the peak resident set of a
#: certificate sweep rose by 13 % with 128-node blocks and that of a
#: loss-queue run by 21 % with 256-node blocks, while 64-node blocks kept
#: both within 0.3 % of per-node slices.
NODE_BLOCK = 64


class TimeBlock:
    """A block of time nodes with the rate values evaluated on them.

    Each rate function is evaluated once per block, by its array
    evaluator ``values`` (whose value at a node does not depend on the
    other nodes), and the values are shared by every chain built from that
    function (a base chain and its perturbed draws differ only in
    multipliers).
    """

    def __init__(self, ts):
        self.ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self._values: dict[int, tuple[RateFunction, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.ts)

    def rate(self, fn: RateFunction) -> np.ndarray:
        hit = self._values.get(id(fn))
        if hit is None:  # the function is kept so that its id stays unique
            hit = (fn, fn.values(self.ts))
            self._values[id(fn)] = hit
        return hit[1]


def time_blocks(ts: np.ndarray):
    """The nodes ``ts`` as consecutive blocks of at most NODE_BLOCK."""
    for i in range(0, len(ts), NODE_BLOCK):
        yield TimeBlock(ts[i:i + NODE_BLOCK])


# ---------------------------------------------------------------------------
# generator slices

@dataclass
class GeneratorBands:
    """One time slice of A(t), the view ``GeneratorBlock.at(i)``:
    ``data[i, j] = A[j + offsets[i], j]`` with ``data`` of shape (K, n+1),
    and ``diag`` and ``row0`` of shape (n+1,).  A slice of several
    generators stacked by the solver carries a trailing axis on every
    array, one entry per state column."""

    n: int
    offsets: tuple[int, ...]
    data: np.ndarray
    diag: np.ndarray
    row0: np.ndarray | None = None
    col0: np.ndarray | None = None

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """A @ p; each column of ``p`` only meets its own entries, so a
        column's result does not depend on the other columns."""
        # a lone slice meets a block of columns through a broadcast axis
        lift = (...,) if self.diag.ndim == p.ndim else (..., None)
        out = self.diag[lift] * p
        prods = self.data[lift] * p
        for i, k in enumerate(self.offsets):
            # data[i, j] * p[j] lands on row j + k
            if k > 0:
                out[k:] += prods[i, :-k]
            else:
                out[:k] += prods[i, -k:]
        if self.row0 is not None:
            # a running sum adds in row order whatever the column count,
            # which a BLAS product does not
            out[0] += np.add.accumulate(self.row0[lift][1:] * p[1:],
                                        axis=0)[-1]
        if self.col0 is not None:
            out += self.col0[lift] * p[0]
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


@dataclass
class GeneratorBlock:
    """The slices of A(t) at a block of times as one table.

    ``data`` has shape (T, K, n+1) and is aligned by column:
    ``data[:, i, j] = A[j + offsets[i], j]``, zero where that row lies
    outside 0..n.  A chain's table is V ⊙ M (``RateTable.block``), with M
    built once per chain by ``ChainSpec.rate_table`` and once per march
    for the solver's stack of chains.  ``row0`` (T, n+1) and the
    time-invariant ``col0`` (n+1,) are optional dense overlays for the
    top row and the first column (index 0 entries unused).  The diagonal
    is minus the off-diagonal column sums, computed on first read (the
    certificate and gap grids never read it), unless ``fixed_diag`` gives
    it: the weighted reduced matrix of ``analysis.reduced_bands_block``
    uses this layout on states 0..n-1 with its own diagonal.
    """

    n: int
    offsets: tuple[int, ...]
    data: np.ndarray
    row0: np.ndarray | None = None
    col0: np.ndarray | None = None
    fixed_diag: np.ndarray | None = None

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
        order, and a stack's column-major ``col0`` sums each column as a
        lone ``col0`` is summed."""
        s = self.data.sum(axis=1)
        if self.row0 is not None:
            s[:, 1:] += self.row0[:, 1:]
        if self.col0 is not None:
            s[:, 0] += self.col0[1:].sum(axis=0)
        return s

    def at(self, i: int) -> GeneratorBands:
        return GeneratorBands(self.n, self.offsets, self.data[i], self.diag[i],
                              None if self.row0 is None else self.row0[i],
                              self.col0)

    def forcing(self, head: bool = False) -> np.ndarray:
        """Column 0 without its diagonal entry, (A[1,0], ..., A[n,0]) per
        time.  With ``head`` and no ``col0`` only the first p entries, p
        the largest offset up: the rest are zero."""
        up = [i for i, k in enumerate(self.offsets) if k > 0]
        width = self.n
        if head and self.col0 is None:
            width = max((self.offsets[i] for i in up), default=0)
        f = np.zeros((self.times, width))
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

    def subtracted_from(self, other: "GeneratorBlock") -> "GeneratorBlock":
        """``other - self`` on their merged offsets, for tables on the same
        states and times.  The band entries and a fixed diagonal are
        written over this table's, which is spent; without a fixed diagonal
        the difference's is again minus its column sums."""
        offsets, (d1, d2), (r1, r2), (c1, c2) = _align([other, self])
        fixed = self.fixed_diag
        if fixed is not None:
            np.subtract(other.fixed_diag, fixed, out=fixed)
        return GeneratorBlock(self.n, offsets, np.subtract(d1, d2, out=d2),
                              None if r1 is None else r1 - r2,
                              None if c1 is None else c1 - c2, fixed)


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


def _align(blocks: Sequence[GeneratorBlock]):
    """(offsets, datas, row0s, col0s): the tables of ``blocks`` on their
    ``merged_offsets``, a block's own data where it needs no padding.  A
    row a block lacks is zero, and so is an overlay that another block
    has."""
    offsets = merged_offsets([b.offsets for b in blocks])
    datas = []
    for b in blocks:
        data = b.data
        if b.offsets != offsets:
            data = np.zeros(data.shape[:1] + (len(offsets),) + data.shape[2:])
            data[:, [offsets.index(k) for k in b.offsets]] = b.data
        datas.append(data)

    def filled(arrays):
        ref = next((a for a in arrays if a is not None), None)
        return [np.zeros_like(ref) if a is None and ref is not None else a
                for a in arrays]

    return (offsets, datas, filled([b.row0 for b in blocks]),
            filled([b.col0 for b in blocks]))


@dataclass(frozen=True, eq=False)
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
    """

    n: int
    offsets: tuple[int, ...]
    families: tuple[tuple[int, RateFamily], ...]
    m: np.ndarray
    row0: bool
    col0: np.ndarray | None = None

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
                v[:, i, start:start + f.count] = np.stack(
                    [tb.rate(fn) for fn in f.members], axis=1)
        return v

    def block(self, tb: TimeBlock) -> GeneratorBlock:
        v = self.values(tb)
        # the products of v * m, formed by einsum at about twice the speed
        # of a multiply that broadcasts v along the states
        table = v * self.m if self.wide else \
            np.einsum("tr,rj->trj", v[:, :, 0], self.m)
        k = len(self.offsets)
        return GeneratorBlock(self.n, self.offsets, table[:, :k],
                              table[:, k] if self.row0 else None, self.col0)


# ---------------------------------------------------------------------------
# chain definitions

#: (field, slot name) of every rate family in draw order; a mapping field
#: holds one family per batch size k, named ``<slot>[k]``
_SLOT_TABLE = (("births", "birth"), ("deaths", "death"),
               ("services", "service"), ("arrival_batches", "arrival"),
               ("service_batches", "service"), ("catastrophes", "catastrophe"))


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """An inhomogeneous chain: the rate families that are set define its
    transitions, and ``kind`` names the structure for reports.

    Immutable; generator slices are pure functions of (spec, t) and safe
    to evaluate concurrently.
    """

    kind: str
    n: int
    period: float | None = None
    births: RateFamily | None = None          # birth-death, batch-service
    deaths: RateFamily | None = None          # birth-death
    services: RateFamily | None = None        # batch-arrival
    arrival_batches: Mapping[int, RateFamily] = field(default_factory=dict)
    service_batches: Mapping[int, RateFamily] = field(default_factory=dict)
    catastrophes: RateFamily | None = None    # catastrophe
    declared_bound: float | None = None
    validation_grid: int = ANALYSIS_GRID

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
        return self.rate_table.block(tb)

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
        return replace(self, **kw)

    @cached_property
    def l_bound(self) -> float:
        """Grid supremum of |A_kk(t)| (the validated intensity bound)."""
        return _validate_chain(self)


@dataclass(frozen=True, eq=False)
class MassArrivalChain:
    """A chain perturbed by jumps from the empty state to every state k at
    rate eps/(k(k+1)).

    On the truncated range the tail rate sum(eps/(k(k+1)), k >= n) = eps/n
    is assigned to the top state, so the outflow rate from state 0 gains
    exactly eps and the stationary balance across every interior cut is
    the same as for the countable chain.
    """

    base: ChainSpec
    eps: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("mass-arrival magnitude must be finite and "
                             f"nonnegative, got {self.eps}")

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
        return replace(self.base.rate_table, col0=self._col0)

    def bands_block(self, tb: TimeBlock) -> GeneratorBlock:
        return self.rate_table.block(tb)

    def bands_at(self, t: float) -> GeneratorBands:
        return self.bands_block(TimeBlock(t)).at(0)

    @cached_property
    def l_bound(self) -> float:
        return self.base.l_bound + self.eps


Chain = ChainSpec | MassArrivalChain


# ---------------------------------------------------------------------------
# validation

def _validation_times(spec: ChainSpec) -> np.ndarray:
    horizon = spec.period if spec.period is not None else 1.0
    return np.linspace(0.0, horizon, spec.validation_grid + 1)


def _validate_family(name: str, fam: RateFamily, ts: np.ndarray):
    if np.any(fam.multipliers < 0):
        raise ChainValidationError(f"{name}: negative multiplier")
    with np.errstate(all="ignore"):  # a non-finite value is rejected below
        grid = fam.block(TimeBlock(ts))
    if not np.all(np.isfinite(grid)):
        raise ChainValidationError(f"{name}: non-finite rate value on the grid")
    if np.any(grid < 0):
        i_t, _ = np.unravel_index(int(np.argmin(grid)), grid.shape)
        raise ChainValidationError(
            f"{name}: negative rate value at t={ts[i_t]}")


def _validate_chain(spec: ChainSpec) -> float:
    ts = _validation_times(spec)
    for name, fam in spec.rate_slots():
        _validate_family(name, fam, ts)
    sup = 0.0
    for tb in time_blocks(ts):
        sup = max(sup, float(np.abs(spec.bands_block(tb).diag).max()))
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
    spec = replace(spec, period=_resolve_period(spec))
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
    return _built(replace(
        base, kind="catastrophe", declared_bound=declared_bound,
        catastrophes=_family_arg(catastrophes, base.n, "catastrophes")))


# ---------------------------------------------------------------------------
# derived slices

@dataclass(frozen=True)
class GeneratorSlice:
    """Dense A(t) at a fixed time, with the banded original attached."""

    t: float
    matrix: np.ndarray
    bands: GeneratorBands


@dataclass(frozen=True)
class ReducedSystem:
    """The system for z = (p_1, ..., p_n) after eliminating p_0:
    dz/dt = matrix @ z + forcing."""

    t: float
    matrix: np.ndarray
    forcing: np.ndarray


@dataclass(frozen=True)
class CatastropheReduction:
    """Kolmogorov system rewritten around the catastrophe floor:
    dp/dt = matrix @ p + forcing with matrix essentially nonnegative."""

    t: float
    matrix: np.ndarray
    forcing: np.ndarray
    floor: float


def generator_at(chain: Chain, t: float) -> GeneratorSlice:
    """Dense transposed intensity matrix at time t."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    gb = chain.bands_at(t)
    if isinstance(chain, ChainSpec) and chain.declared_bound is not None:
        worst = float(np.abs(gb.diag).max())
        if worst > chain.declared_bound * (1 + 1e-12):
            raise ChainValidationError(
                f"intensity bound violated at t={t}: {worst}")
    return GeneratorSlice(t=t, matrix=gb.dense(), bands=gb)


def reduced_system_at(chain: Chain, t: float) -> ReducedSystem:
    """Eliminate p_0 = 1 - sum(p_i): matrix entries A[i, j] - A[i, 0]."""
    if chain.size < 2:
        raise ValueError("reduced system needs at least two states")
    a = generator_at(chain, t).matrix
    return ReducedSystem(t=t, matrix=a[1:, 1:] - a[1:, :1], forcing=a[1:, 0].copy())


def catastrophe_floor_at(spec: ChainSpec, t: float) -> float:
    """Smallest direct-to-zero intensity over states 1..n."""
    return float(spec.bands_block(TimeBlock(t)).direct_to_zero()[0].min())


def catastrophe_reduction_at(spec: ChainSpec, t: float) -> CatastropheReduction:
    """Subtract the floor from row 0 and move it into a forcing term."""
    if not isinstance(spec, ChainSpec) or spec.catastrophes is None:
        raise ValueError("catastrophe reduction requires a catastrophe chain")
    a = generator_at(spec, t).matrix.copy()
    floor = float(a[0, 1:].min())
    a[0, :] -= floor
    g = np.zeros(spec.size)
    g[0] = floor
    return CatastropheReduction(t=t, matrix=a, forcing=g, floor=floor)


# ---------------------------------------------------------------------------
# perturbations

@dataclass(frozen=True)
class Perturbation:
    """Recipe for a perturbed chain.

    Modes: ``rate-offsets`` (seeded per-rate offsets of magnitude <= eps,
    shaped like the rate itself so nonnegativity survives), ``mass-arrival``
    (jumps from the empty state) and ``multiplicative`` (all rates scaled
    by 1 + eps).  A chain with replaced rates is built directly instead.
    """

    mode: str
    eps: float = 0.0
    seed: int | None = None

    MODES = ("rate-offsets", "mass-arrival", "multiplicative")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("perturbation magnitude must be finite and "
                             f"nonnegative, got {self.eps}")


def _family_sup(fam: RateFamily, ts: np.ndarray) -> np.ndarray:
    """Per-member grid suprema, used to shape offset draws."""
    return fam.block(TimeBlock(ts)).max(axis=0)


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
        return _built(spec._replace_slots(new))
    rng = np.random.default_rng(0 if pert.seed is None else pert.seed)
    ts = _validation_times(spec)
    new = {}
    for name, fam in spec.rate_slots():
        coeffs = rng.uniform(-1.0, 1.0, size=fam.count)
        new[name] = _offset_family(fam, pert.eps, coeffs, _family_sup(fam, ts))
    return _built(spec._replace_slots(new))
