"""Time-dependent transition rates: parsed expressions, step tables, constants.

The expression grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | number | "t" | "pi"
            | func "(" expr ("," expr)? ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "min" | "max"

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

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import adaptive_simpson


class RateSyntaxError(ValueError):
    """Raised on malformed rate expressions; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RateEvalError(ValueError):
    """Raised when evaluation produces a non-finite or negative value."""


# ---------------------------------------------------------------------------
# expression AST

_UNARY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Time:
    pass


@dataclass(frozen=True)
class _Neg:
    arg: "Node"


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class _Call:
    name: str
    args: tuple


Node = _Num | _Time | _Neg | _BinOp | _Call


def _compile_node(node: Node) -> Callable:
    if isinstance(node, _Num):
        v = node.value
        return lambda t: v
    if isinstance(node, _Time):
        return lambda t: t
    if isinstance(node, _Neg):
        f = _compile_node(node.arg)
        return lambda t: -f(t)
    if isinstance(node, _BinOp):
        lf = _compile_node(node.left)
        rf = _compile_node(node.right)
        op = node.op
        if op == "+":
            return lambda t: lf(t) + rf(t)
        if op == "-":
            return lambda t: lf(t) - rf(t)
        if op == "*":
            return lambda t: lf(t) * rf(t)
        return lambda t: lf(t) / rf(t)
    fns = [_compile_node(a) for a in node.args]
    if len(fns) == 1:
        g = _UNARY_FUNCS[node.name]
        f0 = fns[0]
        return lambda t: g(f0(t))
    g = _BINARY_FUNCS[node.name]
    f0, f1 = fns
    return lambda t: g(f0(t), f1(t))


def _depends_on_time(node: Node) -> bool:
    if isinstance(node, _Time):
        return True
    if isinstance(node, _Neg):
        return _depends_on_time(node.arg)
    if isinstance(node, _BinOp):
        return _depends_on_time(node.left) or _depends_on_time(node.right)
    if isinstance(node, _Call):
        return any(_depends_on_time(a) for a in node.args)
    return False


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _print_node(node: Node, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, _Num):
        return repr(node.value)
    if isinstance(node, _Time):
        return "t"
    if isinstance(node, _Neg):
        inner = _print_node(node.arg, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec >= 2 else text
    if isinstance(node, _Call):
        args = ", ".join(_print_node(a) for a in node.args)
        return f"{node.name}({args})"
    prec = _PREC[node.op]
    left = _print_node(node.left, prec, False)
    right = _print_node(node.right, prec + (node.op in "-/"), True)
    text = f"{left} {node.op} {right}"
    needs = prec < parent_prec or (prec == parent_prec and right_side)
    return f"({text})" if needs else text


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

_FUNCS = {"sin": 1, "cos": 1, "exp": 1, "min": 2, "max": 2}


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise RateSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            self.error(f"unexpected trailing input {self.src[self.pos]!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            node = _BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            node = _BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        ch = self.peek()
        if not ch:
            self.error("unexpected end of input")
        if ch == "-":
            self.pos += 1
            return _Neg(self.factor())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.take(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}")

    def number(self) -> _Num:
        start = self.pos
        src = self.src
        n = len(src)
        while self.pos < n and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < n and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and src[self.pos].isdigit():
                while self.pos < n and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        text = src[start:self.pos]
        try:
            return _Num(float(text))
        except ValueError:
            self.error(f"bad numeric literal {text!r}", start)

    def identifier(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        name = src[start:self.pos]
        if name == "t":
            return _Time()
        if name == "pi":
            return _Num(math.pi)
        if name in _FUNCS:
            self.take("(")
            args = [self.expr()]
            if self.peek() == ",":
                self.pos += 1
                args.append(self.expr())
            self.take(")")
            if len(args) != _FUNCS[name]:
                self.error(f"{name} takes {_FUNCS[name]} argument(s)", start)
            return _Call(name, tuple(args))
        self.error(f"unknown identifier {name!r}", start)


# ---------------------------------------------------------------------------
# rate functions

@dataclass(frozen=True)
class RateFunction:
    """A nonnegative time-dependent rate, evaluable at any t >= 0.

    One of three shapes: a parsed expression, a right-continuous step
    table, or a constant.  ``period``, when set, drives periodic means and
    certificate constants and makes tables wrap modulo the period.
    """

    expr: Node | None = None
    table: tuple[tuple[float, float], ...] | None = None
    const: float | None = None
    period: float | None = None
    _fn: Callable = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_expression(source: str, period: float | None = None) -> "RateFunction":
        node = _parse_source(source)
        return RateFunction(expr=node, period=period, _fn=_compile_node(node))

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
        return not _depends_on_time(self.expr)

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
        return _print_node(self.expr)


def _parse_source(source: str) -> Node:
    if not source or not source.strip():
        raise RateSyntaxError("empty rate expression", 0)
    return _Parser(source).parse()


def parse_rate(source: str, period: float | None = None) -> RateFunction:
    """Parse a rate expression in the documented grammar."""
    return RateFunction.from_expression(source, period)


def eval_rate(rate: RateFunction, t: float) -> float:
    """Checked evaluation: finite and nonnegative, else RateEvalError."""
    if t < 0:
        raise ValueError(f"rates are defined for t >= 0, got t={t}")
    with np.errstate(divide="raise", invalid="raise"):
        try:
            value = rate(t)
        except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
            raise RateEvalError(f"evaluation failed at t={t}: {exc}") from None
    if not math.isfinite(value):
        raise RateEvalError(f"non-finite rate value {value} at t={t}")
    if value < 0:
        raise RateEvalError(f"negative rate value {value} at t={t}")
    return value


def periodic_mean(rate: RateFunction) -> float:
    """Mean of the rate over one declared period (composite Simpson)."""
    if rate.period is None:
        raise ValueError("periodic mean requires a declared period")
    if rate.const is not None:
        return rate.const
    total = adaptive_simpson(rate.values, 0.0, rate.period)
    return total / rate.period
