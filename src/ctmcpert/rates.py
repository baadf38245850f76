"""Time-dependent transition rates: parsed expressions, step tables, constants.

The expression grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | number | "t" | "pi"
            | func "(" expr ("," expr)? ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "min" | "max"

Python's parser reads an expression (``ast.parse``; nothing is ever
``eval``-ed), and one walker, ``_compile``, both holds the tree to this
grammar, with numbers as decimal literals, and turns it into an evaluator
in numpy arithmetic at every node: ``1/0`` is inf, like ``1/(t-t)``.

Rates are immutable once built and are evaluated on numpy arrays of
times; a single time is a one-element array, so a rate's value at a time
does not depend on the grid it is computed with.  A rate may declare a
period; periodicity of an expression is never verified analytically, but
every period-dependent computation (periodic means, certificate
constants) trusts the declared value.  Step tables with a declared period
wrap their argument modulo the period, otherwise the last value extends
to infinity.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import adaptive_simpson


class RateSyntaxError(ValueError):
    """Raised on malformed rate expressions; ``offset`` indexes the
    expression string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RateEvalError(ValueError):
    """Raised when a step table or a constant rate holds a negative value."""


# ---------------------------------------------------------------------------
# expression trees

#: the functions of the grammar; a ufunc's ``nin`` is its arity
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
          "min": np.minimum, "max": np.maximum}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_PI = np.float64(np.pi)
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
#: ``#`` opens a Python comment, ``\`` continues a line, and characters
#: outside printable ASCII would make node offsets count bytes
_FORBIDDEN = re.compile(r"[^ -~]|[#\\]")


def _parse(source: str) -> ast.expr:
    """Python's tree of ``source``, its node offsets indexing ``source``."""
    text = "".join(" " if ch.isspace() else ch for ch in source)
    body = text.lstrip()
    if not body:
        raise RateSyntaxError("empty rate expression", 0)
    bad = _FORBIDDEN.search(text)
    if bad:
        raise RateSyntaxError(f"unexpected character {bad.group()!r}",
                              bad.start())
    shift = len(text) - len(body)
    try:
        with warnings.catch_warnings():
            # "1if t else 2" warns of a bad literal: make it the error
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(body, mode="eval").body
    except SyntaxError as exc:
        col = (exc.offset or 0) - 1
        at = shift + col if 0 <= col < len(body) else len(source)
        raise RateSyntaxError(exc.msg, at) from None
    if shift:
        for node in ast.walk(tree):
            if hasattr(node, "col_offset"):
                node.col_offset += shift
                node.end_col_offset += shift
    return tree


def _compile(node: ast.expr, source: str) -> Callable:
    """The evaluator of a tree from ``_parse(source)``; raises
    RateSyntaxError at the first node outside the grammar."""
    at = node.col_offset
    segment = source[at:node.end_col_offset]
    if isinstance(node, ast.Constant):
        if not _NUMBER.fullmatch(segment):  # also 1_000, 0x10, 1j, True
            raise RateSyntaxError(f"bad numeric literal {segment!r}", at)
        value = np.float64(segment)
        return lambda t: value
    if isinstance(node, ast.Name) and node.id in ("t", "pi"):
        return (lambda t: t) if node.id == "t" else (lambda t: _PI)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        f = _compile(node.operand, source)
        return lambda t: -f(t)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        g = _BINOPS[type(node.op)]
        lf, rf = _compile(node.left, source), _compile(node.right, source)
        return lambda t: g(lf(t), rf(t))
    # a call names its function first: "(sin)(t)" is no call of the grammar
    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.col_offset == at
    name = node.func.id if call else getattr(node, "id", None)
    if name not in (None, "t", "pi") and name not in _FUNCS:
        raise RateSyntaxError(f"unknown identifier {name!r}", at)
    if call and name in _FUNCS:
        g = _FUNCS[name]
        # Python drops the trailing comma of "sin(t,)"; the grammar has none
        if node.keywords or len(node.args) != g.nin or "," in source[
                node.args[-1].end_col_offset:node.end_col_offset]:
            raise RateSyntaxError(f"{name} takes {g.nin} argument(s)", at)
        fs = [_compile(arg, source) for arg in node.args]
        if g.nin == 1:
            f = fs[0]
            return lambda t: g(f(t))
        f0, f1 = fs
        return lambda t: g(f0(t), f1(t))
    raise RateSyntaxError(f"unexpected {segment!r}", at)


# ---------------------------------------------------------------------------
# rate functions

@dataclass(frozen=True)
class RateFunction:
    """A nonnegative time-dependent rate, evaluable at any t >= 0.

    One of three shapes: a parsed expression, a right-continuous step
    table, or a constant.  ``period``, when set, drives periodic means and
    certificate constants and makes tables wrap modulo the period.
    """

    expr: ast.expr | None = None
    table: tuple[tuple[float, float], ...] | None = None
    const: float | None = None
    period: float | None = None
    _fn: Callable = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_expression(source: str, period: float | None = None) -> "RateFunction":
        tree = _parse(source)
        return RateFunction(expr=tree, period=period,
                            _fn=_compile(tree, source))

    @staticmethod
    def from_table(pairs: Sequence[tuple[float, float]],
                   period: float | None = None) -> "RateFunction":
        pts = tuple((float(a), float(b)) for a, b in pairs)
        if not pts:
            raise ValueError("empty rate table")
        breaks = [a for a, _ in pts]
        if breaks[0] != 0.0:
            raise ValueError("rate table must start at t = 0")
        if any(b <= a for a, b in zip(breaks, breaks[1:])):
            raise ValueError("rate table breakpoints must be strictly increasing")
        if period is not None and breaks[-1] >= period:
            raise ValueError("rate table breakpoints must lie inside the period")
        if any(v < 0 for _, v in pts):
            raise RateEvalError(f"negative rate value in table: {pts}")
        return RateFunction(table=pts, period=period)

    @staticmethod
    def constant(value: float, period: float | None = None) -> "RateFunction":
        if value < 0:
            raise RateEvalError(f"negative constant rate {value}")
        return RateFunction(const=float(value), period=period)

    def with_period(self, period: float | None) -> "RateFunction":
        if self.table is not None:
            return RateFunction.from_table(self.table, period)
        return RateFunction(expr=self.expr, const=self.const, period=period,
                            _fn=self._fn)

    @property
    def time_invariant(self) -> bool:
        if self.const is not None:
            return True
        if self.table is not None:
            return len(self.table) == 1
        return not any(isinstance(node, ast.Name) and node.id == "t"
                       for node in ast.walk(self.expr))

    def values(self, ts) -> np.ndarray:
        """Unchecked vectorized evaluation; ``ts`` may be scalar or array."""
        ts = np.asarray(ts, dtype=float)
        if self.const is not None:
            return np.full(ts.shape, self.const)
        if self.table is not None:
            tt = np.mod(ts, self.period) if self.period is not None else ts
            breaks = np.array([a for a, _ in self.table])
            vals = np.array([v for _, v in self.table])
            idx = np.clip(np.searchsorted(breaks, tt, side="right") - 1, 0, None)
            return vals[idx]
        out = self._fn(ts)
        if np.ndim(out) == 0:
            return np.full(ts.shape, float(out))
        return out

    def __call__(self, t: float) -> float:
        """The rate at one time, by the array evaluation of ``values``, so
        that it is the same number as at that node of any grid."""
        return float(self.values(np.array([t], dtype=float))[0])

    def canonical(self) -> str:
        """Canonical printed form; re-parsing it reproduces the evaluation."""
        if self.const is not None:
            return repr(self.const)
        if self.table is not None:
            body = ",".join(f"({a!r},{v!r})" for a, v in self.table)
            return f"table: [{body}]"
        return ast.unparse(self.expr)


def parse_rate(source: str, period: float | None = None) -> RateFunction:
    """Parse a rate expression in the documented grammar."""
    return RateFunction.from_expression(source, period)


def periodic_mean(rate: RateFunction) -> float:
    """Mean of the rate over one declared period (composite Simpson)."""
    if rate.period is None:
        raise ValueError("periodic mean requires a declared period")
    if rate.const is not None:
        return rate.const
    total = adaptive_simpson(rate.values, 0.0, rate.period)
    return total / rate.period
