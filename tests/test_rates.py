import numpy as np
import pytest

from ctmcpert import (ChainValidationError, RateEvalError, RateFunction,
                      RateSyntaxError, birth_death_chain, parse_rate,
                      periodic_mean)


def test_parse_examples():
    r = parse_rate("1 + sin(2*pi*t)")
    assert r(0.25) == pytest.approx(2.0, abs=1e-15)
    lam = parse_rate("200*(1+sin(2*pi*1*t))")
    assert lam(0.0) == pytest.approx(200.0)
    const = parse_rate("3")
    assert const(17.3) == 3.0
    assert const.time_invariant


def test_eval_examples():
    r = parse_rate("1 + sin(2*pi*t)")
    assert r(0.75) == pytest.approx(0.0, abs=1e-15)
    tab = RateFunction.from_table([(0, 1), (0.5, 4)])
    assert tab(0.6) == 4.0
    clamp = parse_rate("min(t, 2)")
    assert clamp(5.0) == 2.0


def test_table_semantics():
    tab = RateFunction.from_table([(0, 1), (0.5, 4)], period=1.0)
    # right-continuous step, wrapping at the declared period
    assert tab(0.5) == 4.0
    assert tab(0.499) == 1.0
    assert tab(1.2) == 1.0
    assert tab(1.7) == 4.0
    free = RateFunction.from_table([(0, 1), (0.5, 4)])
    assert free(100.0) == 4.0  # last value extends without a period
    ts = np.array([0.0, 0.499, 0.5, 1.2, 1.7])
    assert np.allclose(tab.values(ts), [1, 1, 4, 1, 4])


@pytest.mark.parametrize("rate", [
    parse_rate("1.3*(1+0.9*sin(2*pi*t))", period=1.0),
    parse_rate("2+cos(2*pi*t/3)", period=3.0),
    parse_rate("0.7*exp(1.4*sin(2*pi*t))", period=1.0),
    parse_rate("max(0.2, min(t, 1.5) - 0.3*cos(2*pi*t))"),
    RateFunction.from_table([(0, 1), (0.25, 3.5), (0.7, 0.4)], period=1.0),
])
def test_value_does_not_depend_on_the_grid(rate):
    # one array evaluator serves single times and grids alike: a node's
    # value is the same alone, inside a block of 64 and inside 20,000 nodes
    rng = np.random.default_rng(3)
    ts = np.concatenate(([0.0, 0.25, 1.0], rng.uniform(0.0, 50.0, 19997)))
    big = rate.values(ts)
    for i in range(0, len(ts), 499):
        block = ts[i - i % 64:i - i % 64 + 64]
        assert rate.values(block)[i % 64] == big[i]
        assert rate.values(ts[i:i + 1])[0] == big[i]
        assert rate(float(ts[i])) == big[i]


@pytest.mark.parametrize("pairs,period,message", [
    ([], None, "empty"),
    ([(0.5, 1)], None, "start at t = 0"),
    ([(0, 1), (0, 2)], None, "strictly increasing"),
    ([(0, 1), (1.5, 2)], 1.0, "inside the period"),
])
def test_table_validation(pairs, period, message):
    with pytest.raises(ValueError, match=message):
        RateFunction.from_table(pairs, period)


def test_table_rejects_negative_values():
    with pytest.raises(RateEvalError):
        RateFunction.from_table([(0, 1), (0.5, -4)])


@pytest.mark.parametrize("source", [
    "1 + sin(2*pi*t)",
    "200*(1+sin(2*pi*1*t))",
    "2 - 3 - t",
    "2/(3/(t+1))",
    "-(t+1)*2 + 10",
    "max(t, 2)/min(t+1, 2)",
    "exp(-t)*cos(t/7)",
    "min(exp(t/10), max(1, t-3))",
])
def test_parse_print_round_trip(source):
    original = parse_rate(source)
    reparsed = parse_rate(original.canonical())
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.0, 10.0, 1000)
    a = original.values(ts)
    b = reparsed.values(ts)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-300)


def test_parse_print_round_trip_random_trees():
    # canonical printing must preserve precedence and associativity for
    # arbitrary expression shapes, not just hand-picked ones; the builder
    # computes each tree's value with numpy as it writes the source, an
    # oracle independent of the parser
    rng = np.random.default_rng(2024)
    ts = np.linspace(0.013, 10.0, 251)
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
    funcs = {"sin": np.sin, "cos": np.cos, "min": np.minimum,
             "max": np.maximum}

    def build(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            if rng.random() < 0.4:
                return "t", ts
            text = f"{rng.uniform(0.1, 9):.3f}"
            return text, float(text)
        if roll < 0.75:
            op = rng.choice(list(ops))
            left, a = build(depth - 1)
            right, b = build(depth - 1)
            if op == "/":
                # keep well away from zero
                right, b = f"({right} + 10)", np.add(b, 10.0)
            return f"({left} {op} {right})", ops[op](a, b)
        if roll < 0.85:
            inner, a = build(depth - 1)
            return f"-({inner})", np.negative(a)
        fn = rng.choice(list(funcs))
        if fn in ("sin", "cos"):
            inner, a = build(depth - 1)
            return f"{fn}({inner})", funcs[fn](a)
        (left, a), (right, b) = build(depth - 1), build(depth - 1)
        return f"{fn}({left}, {right})", funcs[fn](a, b)

    for _ in range(60):
        source, expected = build(int(rng.integers(1, 5)))
        first = parse_rate(source)
        second = parse_rate(first.canonical())
        a, b = first.values(ts), second.values(ts)
        assert np.array_equal(a, np.broadcast_to(expected, ts.shape)), source
        assert np.allclose(a, b, rtol=1e-12, atol=1e-280), \
            (source, first.canonical())
        # canonical form is a fixed point of parse-then-print
        assert second.canonical() == first.canonical()


def test_periodic_mean_examples():
    assert periodic_mean(RateFunction.constant(1.0, period=1.0)) == 1.0
    sine = parse_rate("1 + sin(2*pi*t)", period=1.0)
    assert periodic_mean(sine) == pytest.approx(1.0, abs=1e-10)
    lam = parse_rate("200*(1+sin(2*pi*t))", period=1.0)
    assert periodic_mean(lam) == pytest.approx(200.0, rel=1e-10)


def test_periodic_mean_constant_exact():
    assert periodic_mean(RateFunction.constant(2.75, period=0.7)) == 2.75
    expr = parse_rate("2.75", period=0.7)
    assert periodic_mean(expr) == pytest.approx(2.75, abs=1e-10)


def test_periodic_mean_linearity():
    r1 = parse_rate("1 + sin(2*pi*t)", period=1.0)
    r2 = parse_rate("2 + cos(2*pi*t)", period=1.0)
    combo = parse_rate("0.3*(1 + sin(2*pi*t)) + 1.7*(2 + cos(2*pi*t))",
                       period=1.0)
    expected = 0.3 * periodic_mean(r1) + 1.7 * periodic_mean(r2)
    assert periodic_mean(combo) == pytest.approx(expected, abs=1e-10)


def test_periodic_mean_of_table():
    tab = RateFunction.from_table([(0, 1), (0.5, 3)], period=1.0)
    assert periodic_mean(tab) == pytest.approx(2.0, abs=1e-5)


def test_periodic_mean_requires_period():
    with pytest.raises(ValueError, match="period"):
        periodic_mean(parse_rate("1 + sin(2*pi*t)"))


def test_syntax_errors_carry_offsets():
    with pytest.raises(RateSyntaxError) as err:
        parse_rate("2 +* t")
    assert err.value.offset == 3
    # offsets index the string as given, leading whitespace included
    with pytest.raises(RateSyntaxError) as err:
        parse_rate(" \t 1 + foo")
    assert err.value.offset == 7
    with pytest.raises(RateSyntaxError, match="unknown identifier 'foo'"):
        parse_rate("foo(t)")
    with pytest.raises(RateSyntaxError, match="empty"):
        parse_rate("   ")
    with pytest.raises(RateSyntaxError):
        parse_rate("sin(t, 1)")
    with pytest.raises(RateSyntaxError):
        parse_rate("(1 + t")


@pytest.mark.parametrize("source", [
    "1 # x", "t**2", "2 ++ t", "sin(x=t)", "1_000*t", "0x10", "1j", "True",
    "'a'", "t.real", "t[0]", "t if t else 1", "lambda: 1", "1 \\ 2",
    "sin(t,)", "(sin)(t)", "t(1)", "sin",
])
def test_inputs_outside_the_grammar(source):
    # outside the grammar, though most are Python expressions
    with pytest.raises(RateSyntaxError) as err:
        parse_rate(source)
    assert 0 <= err.value.offset < len(source)


def test_eval_errors():
    # evaluation is unchecked; a chain checks its rates on its validation
    # grid, and refuses a negative value or a pole there
    for source, message in (("t - 5", "negative rate value at t=0.0"),
                            ("1/(t-1)", "non-finite"), ("1/0", "non-finite")):
        with pytest.raises(ChainValidationError, match=message):
            birth_death_chain(parse_rate(source), RateFunction.constant(1.0),
                              size=3, validation_grid=16)
    with pytest.raises(RateEvalError, match="negative"):
        RateFunction.constant(-1.0)


def test_whitespace_insensitive():
    a = parse_rate("1+sin(2*pi*t)")
    b = parse_rate("  1 +  sin( 2 * pi * t )  ")
    ts = np.linspace(0, 3, 50)
    assert np.allclose(a.values(ts), b.values(ts), rtol=0, atol=0)


def test_scientific_literals():
    r = parse_rate("2.5e-4 + 1e2*t")
    assert r(0.0) == 2.5e-4
    assert r(1.0) == pytest.approx(100.00025)
