import math
from pathlib import Path

import numpy as np
import pytest

from ctmcpert import analysis, cli, quadrature
from ctmcpert import (CertificateError, ChainSpec, MassArrivalChain,
                      Perturbation, RateFunction, WeightSequence, batch_chain,
                      birth_death_chain, catastrophe_chain,
                      catastrophe_uniform_certificate, parse_rate, perturb,
                      rate_family, uniform_from_weighted, weighted_certificate)
from ctmcpert.analysis import (column_stats, decay_rate_fn,
                               reduced_bands_block, reduced_block,
                               weighted_reduced_bands)
from ctmcpert.model import RateTable, TimeBlock, difference, time_blocks
from ctmcpert.quadrature import (doubled_grid, grid_sup,
                                 peak_running_integral)
from conftest import (dense_full, dense_rk4, expm_ode, family_at, log_norm,
                      random_chain, random_weights, rich_rate,
                      similarity_reduced, weight_matrices)

DATA = Path(__file__).resolve().parent / "data"
ONE = RateFunction.constant(1.0)
FOUR = RateFunction.constant(4.0)
ZERO = RateFunction.constant(0.0)


# ---------------------------------------------------------------------------
# weights

def test_weight_sequence_basics():
    w = WeightSequence.geometric(2.0, 4)
    assert np.allclose(w.values, [1, 2, 4, 8])
    assert w.min_weight == 1.0
    assert w.state_ratio_min == 1.0  # min over 1, 1, 4/3, 2
    assert w.column_norm == 15.0
    dm, dinv = weight_matrices(w)
    assert np.allclose(dm @ dinv, np.eye(4), atol=1e-15)
    z = np.array([0.5, -0.25, 0.0, 0.125])
    d = dm @ z
    assert w.weighted_norm(z) == pytest.approx(np.abs(d).sum())


def test_weight_sequence_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        WeightSequence([2.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        WeightSequence([0.0, 1.0])
    with pytest.raises(ValueError, match="delta"):
        WeightSequence.geometric(0.5, 3)
    for bad in ([1.0, np.nan, 2.0], [1.0, 2.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            WeightSequence(bad)
    for delta in (np.nan, np.inf):
        # a single weight is delta ** 0 = 1 whatever delta is
        for n in (1, 3):
            with pytest.raises(ValueError, match="finite"):
                WeightSequence.geometric(delta, n)


# ---------------------------------------------------------------------------
# the weighted reduced matrix

def _decay_rates(spec, w, t):
    """Per-column decay rates of the weighted reduced matrix at time t,
    minus its diagonal entry and the l1 norm of the rest of its column;
    their minimum, ``column_stats``' rate, is -log_norm of that matrix."""
    m = weighted_reduced_bands(spec, w, t).dense()
    diag = np.diag(m)
    rates = -(diag + np.abs(m - np.diag(diag)).sum(axis=0))
    table = spec.rate_table
    got = column_stats(reduced_block(table, table.values(TimeBlock(t)), w))[0]
    assert got[0] == pytest.approx(rates.min(), rel=1e-13, abs=1e-12)
    return rates


def test_loss_queue_unit_weight_matrix(loss_queue):
    w = WeightSequence.unit(299)
    m = weighted_reduced_bands(loss_queue, w, 0.25).dense()
    lam = 400.0
    mus = np.arange(1, 300)
    assert np.allclose(np.diag(m), -(lam + mus))
    assert np.allclose(np.diag(m, -1), lam)
    assert np.allclose(np.diag(m, 1), mus[:-1])
    # every interior column decays at exactly the per-server rate; the top
    # column (no arrivals) decays faster, so the infimum is the service rate
    rates = _decay_rates(loss_queue, w, 0.25)
    assert np.allclose(rates[:-1], 1.0, atol=1e-12)
    assert rates[-1] == pytest.approx(lam + 1.0)
    assert rates.min() == pytest.approx(1.0, abs=1e-12)


def test_zero_chain_matrix():
    spec = birth_death_chain(ZERO, ZERO, size=5, validation_grid=16)
    w = WeightSequence.unit(4)
    assert np.allclose(weighted_reduced_bands(spec, w, 0.3).dense(), 0.0)
    assert decay_rate_fn(spec, w)(0.3)[0] == 0.0


def test_pair_queue_first_column_rate(pair_queue):
    w = WeightSequence.geometric(2.0, 299)
    lam = lambda t: 1.0 + math.sin(2 * math.pi * t)
    for t in (0.0, 0.2, 0.45, 0.75):
        rates = _decay_rates(pair_queue, w, t)
        assert rates[0] == pytest.approx(3.0 - 2.5 * lam(t), abs=1e-12)
        assert rates.min() == pytest.approx(3.0 - 2.5 * lam(t), abs=1e-12)


def test_transcription_against_similarity():
    rng = np.random.default_rng(1234)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(6):
            n = int(rng.integers(3, 16))
            spec = random_chain(rng, kind, n)
            w = random_weights(rng, n)
            t = float(rng.uniform(0, 1))
            direct = weighted_reduced_bands(spec, w, t).dense()
            oracle = similarity_reduced(spec, w, t)
            assert np.abs(direct - oracle).max() < 1e-10
    # a block of nodes, one dense transform per node; the tail sums keep
    # the reduced table within the generator's own offset range [-q, p];
    # table entry [t, i, j] sits at (j + offsets[i], j)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(10):
            n = int(rng.integers(3, 16))
            spec = random_chain(rng, kind, n, rate=rich_rate)
            w = random_weights(rng, n)
            ts = rng.uniform(0, 2, 5)
            g = spec.bands_block(TimeBlock(ts))
            red = reduced_bands_block(g, w)
            assert all(min(g.offsets) <= k <= max(g.offsets)
                       for k in red.offsets)
            for i, t in enumerate(ts):
                oracle = similarity_reduced(spec, w, float(t))
                assert np.abs(red.at(i).dense() - oracle).max() < 1e-10


def test_reduced_block_from_reduced_multipliers():
    # V contracted with the reduced multiplier rows R equals the reduction
    # of the generator table V ⊙ M and the dense similarity transform, for
    # chains of every kind, with shared and member (wide) families, and for
    # the difference of two chains
    rng = np.random.default_rng(2024)
    wide = 0
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(8):
            n = int(rng.integers(3, 16))
            spec = random_chain(rng, kind, n, rate=rich_rate)
            other = random_chain(rng, kind, n, rate=rich_rate)
            w = random_weights(rng, n)
            ts = rng.uniform(0, 2, 5)
            table = spec.rate_table
            wide += table.wide
            got = reduced_block(table, table.values(TimeBlock(ts)), w)
            assert w in table.reduced or table.wide
            want = reduced_bands_block(spec.bands_block(TimeBlock(ts)), w)
            assert got.offsets == want.offsets
            scale = max(1.0, np.abs(want.data).max(), np.abs(want.diag).max())
            assert np.abs(got.data - want.data).max() <= 1e-12 * scale
            assert np.abs(got.diag - want.diag).max() <= 1e-12 * scale
            for i, t in enumerate(ts):
                oracle = similarity_reduced(spec, w, float(t))
                assert np.abs(got.at(i).dense() - oracle).max() \
                    <= 1e-12 * max(1.0, np.abs(oracle).max())
            # a difference table sums the rows it puts on one offset
            diff = difference(table, other.rate_table)
            got = reduced_block(diff, diff.values(TimeBlock(ts)), w)
            for i, t in enumerate(ts):
                oracle = similarity_reduced(other, w, float(t)) \
                    - similarity_reduced(spec, w, float(t))
                assert np.abs(got.at(i).dense() - oracle).max() \
                    <= 1e-12 * max(1.0, np.abs(oracle).max())
    assert wide > 0


def test_reduced_block_products_match_the_reduction(loss_queue, pair_queue):
    # V times R, two BLAS products per block, agrees with the reduction of
    # each block's table V ⊙ M to a few ulps of each row's largest entry,
    # on the three 300-state studies and on the differences of their
    # rate-offset draws
    batch = batch_chain(
        {1: parse_rate("1+sin(2*pi*t)", period=1.0),
         2: parse_rate("0.5*(1+sin(2*pi*t))", period=1.0)},
        {1: parse_rate("2+cos(2*pi*t)", period=1.0), 2: ONE}, size=300)
    for spec, w in ((loss_queue, WeightSequence.unit(299)),
                    (pair_queue, WeightSequence.geometric(1.5, 299)),
                    (batch, WeightSequence.geometric(1.2, 299))):
        draw = perturb(spec, Perturbation("rate-offsets", eps=0.01, seed=3))
        for table in (spec.rate_table,
                      difference(spec.rate_table, draw.rate_table)):
            for tb in time_blocks(doubled_grid(1.0, 256)):
                v = table.values(tb)
                got = reduced_block(table, v, w)
                want = reduced_bands_block(table.block(v), w)
                assert got.offsets == want.offsets
                for a, b in ((got.data, want.data), (got.diag, want.diag)):
                    scale = np.abs(b).max(axis=-1, keepdims=True)
                    assert np.all(np.abs(a - b) <= 8 * np.spacing(scale))


def test_reduced_block_of_an_infinite_rate_is_not_finite():
    # a birth rate that is finite on the validation grid and infinite at
    # t = 4097/8192 makes every reduced entry there inf or nan (inf times a
    # zero of R), without a warning: warnings fail the suite
    birth = parse_rate("1+0.001/((t-0.5001220703125)*(t-0.5001220703125))",
                       period=1.0)
    spec = birth_death_chain(birth, rate_family(shared=FOUR, count=19),
                             size=20)
    table = spec.rate_table
    v = table.values(TimeBlock([0.25, 0.5001220703125]))
    got = reduced_block(table, v, WeightSequence.unit(19))
    for a in (got.data, got.diag):
        assert np.isfinite(a[0]).all() and not np.isfinite(a[1]).any()


def test_oracles_do_not_read_the_rate_table(monkeypatch):
    # the dense oracles read the chain's rate families, not the table that
    # the package builds from them: a table with its first multiplier row
    # scaled by 1.5 makes the package's matrices and the oracles disagree
    rng = np.random.default_rng(8)
    kinds = ("birth-death", "batch-arrival", "batch-service", "batch")
    table_of = ChainSpec.rate_table.func

    def broken(spec):
        table = table_of(spec)
        m = table.m.copy()
        m[0] *= 1.5
        return RateTable(table.n, table.offsets, table.families, m,
                         table.row0, table.col0, table.at)

    for patched in (False, True):
        with monkeypatch.context() as mp:
            if patched:
                mp.setattr(ChainSpec, "rate_table", property(broken))
            for kind in kinds:
                n = int(rng.integers(3, 12))
                spec = random_chain(rng, kind, n)
                w = random_weights(rng, n)
                t = float(rng.uniform(0, 1))
                gen = np.abs(spec.bands_at(t).dense()
                             - dense_full(spec, t)).max()
                red = np.abs(weighted_reduced_bands(spec, w, t).dense()
                             - similarity_reduced(spec, w, t)).max()
                if patched:
                    assert gen > 1e-3 and red > 1e-3
                else:
                    assert gen < 1e-12 and red < 1e-10


def test_column_stats_leaves_the_rate_table_alone():
    # a block's col0 is its rate table's own array; the norms of a
    # difference whose mass-arrival column is negative read the same twice
    spec = birth_death_chain(ONE, FOUR, size=6, validation_grid=16)
    d = difference(
        perturb(spec, Perturbation("mass-arrival", eps=0.1)).rate_table,
        perturb(spec, Perturbation("multiplicative", eps=0.1)).rate_table)
    col0 = d.col0.copy()
    v = d.values(TimeBlock([0.0, 0.5]))
    first = column_stats(d.block(v), rates=False)[1]
    again = column_stats(d.block(v), rates=False)[1]
    assert np.array_equal(first, again)
    assert np.array_equal(d.col0, col0)
    assert first[0, 0] == pytest.approx(0.2, rel=1e-12)


def test_birth_death_reduction_is_exact():
    # a birth-death entry is one rate times a weight ratio: the tail sums
    # must not cancel anything against it
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        spec = random_chain(rng, "birth-death", n, rate=rich_rate)
        w = random_weights(rng, n)
        d = w.values
        ts = rng.uniform(0, 2, 4)
        red = reduced_bands_block(spec.bands_block(TimeBlock(ts)), w)
        assert sorted(red.offsets) == [-1, 1]
        lower = red.data[:, red.offsets.index(1)]
        upper = red.data[:, red.offsets.index(-1)]
        for i, t in enumerate(ts):
            lam = family_at(spec.births, float(t))
            mu = family_at(spec.deaths, float(t))
            assert np.array_equal(red.diag[i], -(lam + mu))
            assert np.array_equal(lower[i][:-1], (d[1:] / d[:-1]) * lam[1:])
            assert np.array_equal(upper[i][1:], (d[:-1] / d[1:]) * mu[:-1])
            assert lower[i][-1] == upper[i][0] == 0.0


def test_weight_length_must_match_chain():
    spec = birth_death_chain(ONE, FOUR, size=6, validation_grid=16)
    with pytest.raises(CertificateError, match="weights"):
        weighted_reduced_bands(spec, WeightSequence.unit(3), 0.0)


def test_weighted_matrix_rejects_catastrophe():
    base = birth_death_chain(ONE, FOUR, size=4, validation_grid=16)
    cat = catastrophe_chain(base, RateFunction.constant(0.2))
    w = WeightSequence.unit(3)
    with pytest.raises(CertificateError):
        weighted_reduced_bands(cat, w, 0.0)
    # the row-0 and column-0 overlays are refused by the reduction itself
    for chain in (cat, MassArrivalChain(base, 0.1)):
        with pytest.raises(CertificateError, match="not defined"):
            reduced_bands_block(chain.bands_block(TimeBlock([0.0, 0.5])), w)
    with pytest.raises(CertificateError):
        weighted_reduced_bands(MassArrivalChain(base, 0.1), w, 0.0)


# ---------------------------------------------------------------------------
# logarithmic norm

def test_log_norm_simple_cases(loss_queue):
    assert log_norm(np.zeros((4, 4))) == 0.0
    w = WeightSequence.unit(299)
    m = weighted_reduced_bands(loss_queue, w, 0.1).dense()
    # the loss-queue matrix contracts at exactly the service rate
    assert log_norm(m) == pytest.approx(-1.0, abs=1e-12)
    cat = catastrophe_chain(birth_death_chain(ONE, FOUR, size=5,
                                              validation_grid=16),
                            RateFunction.constant(0.3))
    # the system rewritten around the catastrophe floor (row 0 less the
    # floor, which becomes a forcing term)
    a = cat.bands_at(0.0).dense()
    a[0] -= a[0, 1:].min()
    assert log_norm(a) == pytest.approx(-0.3, abs=1e-14)


def test_log_norm_shift_identity():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 6))
    for c in (-2.0, 0.5, 3.75):
        assert log_norm(m + c * np.eye(6)) == pytest.approx(log_norm(m) + c,
                                                            abs=1e-12)


def test_log_norm_finite_difference():
    rng = np.random.default_rng(21)
    h = 1e-8
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        fd = (np.abs(np.eye(5) + h * m).sum(axis=0).max() - 1.0) / h
        assert fd == pytest.approx(log_norm(m), abs=1e-6)


def test_log_norm_semigroup_bound():
    rng = np.random.default_rng(22)
    for _ in range(20):
        off = rng.uniform(0, 2, size=(5, 5))
        m = off - np.diag(np.diag(off)) - np.diag(off.sum(axis=0))
        gamma = log_norm(m)
        for h in (1e-3, 1e-2):
            e = expm_ode(m, h)
            assert np.abs(e).sum(axis=0).max() <= math.exp(h * gamma) * (1 + 1e-6)


def test_alpha_equals_neg_log_norm():
    rng = np.random.default_rng(77)
    for kind in ("birth-death", "batch-arrival", "batch"):
        spec = random_chain(rng, kind, 10)
        w = random_weights(rng, 10)
        for t in (0.05, 0.4, 0.9):
            m = weighted_reduced_bands(spec, w, t).dense()
            assert decay_rate_fn(spec, w)(t)[0] == pytest.approx(
                -log_norm(m), abs=1e-12)


def test_constant_linear_service_profile():
    # state-proportional service with constant rates decays at mu except in
    # the arrival-free top column
    mu = 2.5
    spec = birth_death_chain(ONE,
                             rate_family(shared=RateFunction.constant(mu),
                                         multipliers=np.arange(1, 21)),
                             size=21, validation_grid=16)
    rates = _decay_rates(spec, WeightSequence.unit(20), 0.7)
    assert np.allclose(rates[:-1], mu, atol=1e-12)
    assert rates.min() == pytest.approx(mu)


# ---------------------------------------------------------------------------
# peak deviation: the largest running integral of a rate less its mean

def test_peak_deviation_cases():
    const = RateFunction.constant(3.0, period=1.0)
    assert peak_running_integral(const.values, 1.0, 3.0) == 0.0
    sine = parse_rate("1+sin(2*pi*t)", period=1.0)
    assert peak_running_integral(sine.values, 1.0, 1.0) \
        == pytest.approx(1 / math.pi, abs=1e-12)
    # deviation integral stays nonpositive: the supremum sits at u = 0
    dipping = parse_rate("0.5 - 0.4*sin(2*pi*t)", period=1.0)
    assert peak_running_integral(dipping.values, 1.0, 0.5) \
        == pytest.approx(0.0, abs=1e-12)


def test_peak_deviation_against_brute_force():
    rate = parse_rate("2 + sin(2*pi*t) - 0.5*cos(2*pi*t)", period=1.0)
    us = np.linspace(0, 1, 200001)
    g = rate.values(us) - 2.0
    brute = np.max(np.concatenate(([0.0], np.cumsum(
        (g[1:] + g[:-1]) / 2 * (us[1] - us[0])))))
    assert peak_running_integral(rate.values, 1.0, 2.0) \
        == pytest.approx(brute, abs=1e-9)


# ---------------------------------------------------------------------------
# certificates

def test_loss_queue_certificates(loss_queue):
    w = WeightSequence.unit(299)
    cert = weighted_certificate(loss_queue, w)
    assert cert.certified
    assert cert.rate == pytest.approx(1.0, rel=1e-9)
    assert cert.amplitude == pytest.approx(1.0, rel=1e-9)
    assert abs(cert.peak_dev) < 1e-9
    assert cert.min_weight == 1.0
    assert cert.weight_state_ratio == 1.0 / 299
    assert cert.forcing_norm_sup == pytest.approx(400.0, rel=1e-9)
    uc = uniform_from_weighted(cert, w)
    assert uc.amplitude == pytest.approx(1196.0, rel=1e-9)
    assert uc.rate == cert.rate


def test_pair_queue_certificate(pair_queue):
    w = WeightSequence.geometric(2.0, 299)
    cert = weighted_certificate(pair_queue, w)
    assert cert.certified
    assert cert.rate == pytest.approx(0.5, abs=1e-9)
    assert cert.weight_state_ratio == 1.0
    assert cert.amplitude == pytest.approx(1.0, rel=1e-9)


def test_uncertified_when_mean_rate_vanishes():
    spec = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=20, validation_grid=64)
    cert = weighted_certificate(spec, WeightSequence.unit(19), grid=256)
    # unit weights see no contraction for these constant rates
    assert cert.rate == pytest.approx(0.0, abs=1e-12)
    assert not cert.certified
    with pytest.raises(CertificateError, match="not certified"):
        uniform_from_weighted(cert, WeightSequence.unit(19))


def test_zero_chain_not_certified():
    spec = birth_death_chain(ZERO.with_period(1.0), ZERO.with_period(1.0),
                             size=5, validation_grid=16)
    cert = weighted_certificate(spec, WeightSequence.unit(4), grid=256)
    assert cert.rate == 0.0 and not cert.certified


def test_uniform_from_weighted_small_cases():
    spec = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=2, validation_grid=32)
    w = WeightSequence.unit(1)
    cert = weighted_certificate(spec, w, grid=256)
    assert cert.rate == pytest.approx(5.0, abs=1e-10)
    uc = uniform_from_weighted(cert, w)
    assert uc.amplitude == pytest.approx(4.0, rel=1e-12)
    # geometric weights: amplitude = 4 * (1 + delta + delta^2) * M / d
    spec3 = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                              size=4, validation_grid=32)
    w3 = WeightSequence.geometric(2.0, 3)
    cert3 = weighted_certificate(spec3, w3, grid=256)
    uc3 = uniform_from_weighted(cert3, w3)
    assert uc3.amplitude == pytest.approx(28.0 * cert3.amplitude, rel=1e-12)


def test_certificate_requires_period():
    spec = birth_death_chain(ONE, FOUR, size=4, validation_grid=16)
    with pytest.raises(CertificateError, match="period"):
        weighted_certificate(spec, WeightSequence.unit(3))


def test_catastrophe_certificates():
    base = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=30, validation_grid=64)
    const = catastrophe_chain(base, RateFunction.constant(0.3, period=1.0))
    cert = catastrophe_uniform_certificate(const, grid=512)
    assert cert.certified
    assert cert.amplitude == pytest.approx(2.0, rel=1e-12)
    assert cert.rate == pytest.approx(0.3, abs=1e-12)

    none = catastrophe_chain(base, ZERO.with_period(1.0))
    assert not catastrophe_uniform_certificate(none, grid=512).certified

    wobble = catastrophe_chain(base, parse_rate("0.3*(1+sin(2*pi*t))",
                                                period=1.0))
    cert_w = catastrophe_uniform_certificate(wobble, grid=1024)
    assert cert_w.rate == pytest.approx(0.3, abs=1e-10)
    assert cert_w.amplitude == pytest.approx(2 * math.exp(0.3 / math.pi),
                                             rel=1e-10)
    with pytest.raises(CertificateError):
        catastrophe_uniform_certificate(base)


def test_grid_suprema_match_direct_norms(pair_queue):
    w = WeightSequence.geometric(2.0, 299)
    cert = weighted_certificate(pair_queue, w, grid=512)
    ts = np.linspace(0, 1, 257)
    tb = TimeBlock(ts)
    table = pair_queue.rate_table
    b_direct = column_stats(reduced_block(table, table.values(tb), w))[1].max()
    f_direct = w.weighted_norm(pair_queue.bands_block(tb).forcing()).max()
    assert cert.reduced_norm_sup >= b_direct - 1e-9
    assert cert.forcing_norm_sup >= f_direct - 1e-9


def _plain_golden_max(fn, a, b):
    """Golden section that evaluates every point it visits."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(quadrature.GOLDEN_ITERS):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    return max(f1, f2)


def _plain_weighted_certificate(spec, w, grid):
    """The weighted certificate by the plain loop: per 64-node block its
    rate values, the column statistics with every column's decay rate
    formed before their minimum, and the forcing norm; the refinement by
    ``_plain_golden_max``."""
    table, period = spec.rate_table, spec.period

    def stats(v):
        g = reduced_block(table, v, w)
        offabs = np.abs(g.data).sum(axis=1)
        return (-(g.diag + offabs)).min(axis=1), np.abs(g.diag) + offabs

    alphas, b_sup, f_sup = [], 0.0, 0.0
    for tb in time_blocks(doubled_grid(period, grid)):
        v = table.values(tb)
        alpha, colsums = stats(v)
        alphas.append(alpha)
        b_sup = grid_sup(b_sup, colsums)
        f_sup = grid_sup(f_sup, w.weighted_norm(table.forcing_head(v)))

    def profile(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.concatenate([stats(table.values(tb))[0]
                               for tb in time_blocks(ts)])

    return analysis._certificate(
        "weighted", 1.0, profile, np.concatenate(alphas), period, grid,
        min_weight=w.min_weight, weight_state_ratio=w.state_ratio_min,
        reduced_norm_sup=b_sup, forcing_norm_sup=f_sup)


def test_weighted_certificate_matches_the_plain_loop(loss_queue, pair_queue,
                                                     monkeypatch):
    # the certificate takes its forcing norms once per run of rate values,
    # each block's smallest decay rate as minus the largest negated rate,
    # and its refinement evaluates each golden-section point once; every
    # field must equal the plain loop's, nan for nan.  The reduced rows R
    # of the batch chain's groups of two hold entries of both signs, the
    # wide table has a rate function per state, and the pole is inf at
    # t = 4097/8192, a node of the doubled grid at 4096 but of no
    # validation grid
    wide = birth_death_chain(
        rate_family(members=[parse_rate(f"1+{k / 12}*sin(2*pi*t)", period=1.0)
                             for k in range(1, 12)]),
        rate_family(shared=FOUR, multipliers=np.arange(1, 12)), size=12)
    pole = birth_death_chain(
        parse_rate("1+0.001/((t-0.5001220703125)*(t-0.5001220703125))",
                   period=1.0), rate_family(shared=FOUR, count=19), size=20)
    scn = cli.parse_scenario_text((DATA / "pinned_batch.scn").read_text())
    batch = cli.build_chain(scn)
    cases = [(loss_queue, WeightSequence.unit(299), 4096),
             (pair_queue, WeightSequence.geometric(1.5, 299), 4096),
             (batch, cli.build_weights(scn, batch.n), 4096),
             (batch, cli.build_weights(scn, batch.n), 256),
             (wide, WeightSequence.geometric(1.3, 11), 1024),
             (pole, WeightSequence.geometric(1.2, 19), 4096)]
    plain_gauss, repeats = quadrature.gauss_integral, 0
    for spec, w, grid in cases:
        calls = []

        def gauss(f, a, b):
            calls.append((a, b))
            return plain_gauss(f, a, b)

        monkeypatch.setattr(quadrature, "gauss_integral", gauss)
        got = weighted_certificate(spec, w, grid)
        points = calls[:]
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_golden_max", _plain_golden_max)
            want = _plain_weighted_certificate(spec, w, grid)
        assert vars(got).keys() == vars(want).keys()
        for name, a in vars(got).items():
            b = getattr(want, name)
            assert a == b or (math.isnan(a) and math.isnan(b)), name
        # each distinct point once, and the same points as the plain loop
        assert len(set(points)) == len(points) == len(set(calls[len(points):]))
        repeats += len(calls) - 2 * len(points)
    assert repeats > 0  # the plain section does revisit points


def test_certified_decay_realized_on_trajectories():
    # the weighted reduced system really contracts at the certified rate
    lam = parse_rate("1+0.8*sin(2*pi*t)", period=1.0)
    spec = birth_death_chain(lam,
                             rate_family(shared=RateFunction.constant(4.0,
                                                                      period=1.0),
                                         multipliers=np.arange(1, 13)),
                             size=13, validation_grid=256)
    w = WeightSequence.geometric(1.5, 12)
    matrix_at = lambda t: weighted_reduced_bands(spec, w, t).dense()
    rng = np.random.default_rng(5)
    from ctmcpert.quadrature import adaptive_simpson
    alpha = decay_rate_fn(spec, w)
    for _ in range(4):
        w0 = rng.normal(size=12)
        for (s, t) in ((0.0, 0.5), (0.2, 1.3)):
            start = dense_rk4(matrix_at, w0, 0.0, s, 200) if s > 0 else w0
            end = dense_rk4(matrix_at, start, s, t, 400)
            decay = math.exp(-adaptive_simpson(alpha, s, t, start=256))
            assert np.abs(end).sum() <= decay * np.abs(start).sum() * (1 + 1e-6)
