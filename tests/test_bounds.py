import math

import numpy as np
import pytest

from ctmcpert import (InfeasibleBoundError, Perturbation, RateFunction,
                      WeightSequence, batch_arrival_chain, batch_chain,
                      batch_service_chain, birth_death_chain,
                      build_report, catastrophe_chain, critical_reduced_gap,
                      generator_at,
                      perturb, perturbation_gaps, similarity_reduced_matrix,
                      to_total_variation,
                      uniform_bound_at, uniform_from_weighted,
                      uniform_limsup_bound, uniform_mean_limsup_bound,
                      weighted_certificate, weighted_feasible,
                      weighted_limsup_bound, weighted_mean_limsup_bound)
from ctmcpert.analysis import ErgodicityCertificate
from ctmcpert.quadrature import doubled_grid
from conftest import random_chain, random_family, random_weights, rich_rate


def make_cert(approach, amplitude, rate, forcing_sup=None, min_weight=1.0,
              ratio=1.0):
    return ErgodicityCertificate(
        approach=approach, certified=True, amplitude=amplitude, rate=rate,
        peak_dev=math.log(amplitude) if approach == "weighted" else 0.0,
        period=1.0, grid=4096, min_weight=min_weight,
        weight_state_ratio=ratio, reduced_norm_sup=None,
        forcing_norm_sup=forcing_sup)


def test_uniform_limsup_values():
    cert = make_cert("uniform", 1196.0, 1.0)
    assert uniform_limsup_bound(cert, 0.0) == 0.0
    for eps in (0.01, 0.1, 2.0):
        expected = (1 + math.log(598.0)) * eps
        assert uniform_limsup_bound(cert, eps) == pytest.approx(expected,
                                                                rel=1e-12)
    trivial = make_cert("uniform", 2.0, 1.0)
    assert uniform_limsup_bound(trivial, 0.1) == pytest.approx(0.1)


def test_uniform_mean_limsup():
    cert = make_cert("uniform", 1196.0, 1.0)
    assert uniform_mean_limsup_bound(cert, 0.0, 299) == 0.0
    assert uniform_mean_limsup_bound(cert, 0.01, 299) == pytest.approx(
        299 * (1 + math.log(598.0)) * 0.01, rel=1e-12)
    assert uniform_mean_limsup_bound(make_cert("uniform", 2.0, 1.0), 0.3, 1) \
        == pytest.approx(0.3)


def test_uniform_finite_time():
    cert = make_cert("uniform", 2.0, 1.0)
    assert uniform_bound_at(0.5, 0.0, cert, 0.1) == 0.5
    v = uniform_bound_at(0.5, 1.0, cert, 0.1)
    assert v == pytest.approx(math.exp(-1) * 0.5 + (1 - 2 * math.exp(-1)) * 0.1,
                              abs=1e-15)
    # converges to the limsup value
    limsup = uniform_limsup_bound(cert, 0.1)
    assert uniform_bound_at(0.5, 100.0, cert, 0.1) == pytest.approx(limsup,
                                                                    abs=1e-9)
    big = make_cert("uniform", 50.0, 2.0)
    assert uniform_bound_at(0.3, 400.0 / 2.0, big, 0.05) == pytest.approx(
        uniform_limsup_bound(big, 0.05), abs=1e-9)
    # linear growth before the crossover time
    assert uniform_bound_at(0.3, 0.5, big, 0.05) == 0.3 + 0.5 * 0.05


def test_uniform_requires_certificate():
    bad = ErgodicityCertificate("uniform", False, 2.0, 0.0, 0.0, 0.0, 1.0, 64)
    with pytest.raises(ValueError, match="certif"):
        uniform_limsup_bound(bad, 0.1)
    with pytest.raises(ValueError, match="uniform"):
        uniform_limsup_bound(make_cert("weighted", 1.0, 1.0), 0.1)


def test_weighted_limsup_values():
    cert = make_cert("weighted", 1.0, 1.0, forcing_sup=1.0)
    assert weighted_limsup_bound(cert, 0.0, 0.0) == 0.0
    assert weighted_limsup_bound(cert, 0.1, 0.1) == pytest.approx(
        (0.1 + 0.1) / 0.9, rel=1e-12)
    # closed form for the loss queue: both gap multipliers spelled out
    L, eps, K, mu = 698.0, 0.01, 0.0, 1.0
    m = math.exp(K)
    val = to_total_variation(
        weighted_limsup_bound(make_cert("weighted", m, mu), 5 * eps, eps,
                              forcing_sup=L), 1.0)
    closed = 4 * m * (5 * L * m + mu) * eps / (mu * (mu - 5 * eps * m))
    assert val == pytest.approx(closed, rel=1e-12)


def test_weighted_feasibility():
    cert = make_cert("weighted", 2.0, 1.0, forcing_sup=1.0)
    assert weighted_feasible(cert, 0.4)
    assert not weighted_feasible(cert, 0.5)
    assert critical_reduced_gap(cert) == 0.5
    with pytest.raises(InfeasibleBoundError):
        weighted_limsup_bound(cert, 0.5, 0.0)


def test_total_variation_and_mean_conversions():
    assert to_total_variation(0.0, 1.0) == 0.0
    assert to_total_variation(1.0, 1.0) == 4.0
    assert to_total_variation(1.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        to_total_variation(1.0, 0.0)
    cert = make_cert("weighted", 1.0, 1.0, forcing_sup=1.0, ratio=0.5)
    full = make_cert("weighted", 1.0, 1.0, forcing_sup=1.0, ratio=1.0)
    assert weighted_mean_limsup_bound(cert, 0.1, 0.1) == pytest.approx(
        2 * weighted_mean_limsup_bound(full, 0.1, 0.1))
    zero_ratio = make_cert("weighted", 1.0, 1.0, forcing_sup=1.0, ratio=0.0)
    with pytest.raises(ValueError, match="mean"):
        weighted_mean_limsup_bound(zero_ratio, 0.1, 0.1)


def test_bounds_monotone_in_gaps():
    cert_u = make_cert("uniform", 10.0, 2.0)
    cert_w = make_cert("weighted", 1.5, 2.0, forcing_sup=3.0)
    eps_grid = np.linspace(0.0, 0.5, 11)
    u_vals = [uniform_limsup_bound(cert_u, e) for e in eps_grid]
    assert all(b >= a for a, b in zip(u_vals, u_vals[1:]))
    w_vals = [weighted_limsup_bound(cert_w, g, 0.1) for g in
              np.linspace(0.0, 1.0, 9)]
    assert all(b >= a for a, b in zip(w_vals, w_vals[1:]))
    f_vals = [weighted_limsup_bound(cert_w, 0.1, g) for g in
              np.linspace(0.0, 1.0, 9)]
    assert all(b >= a for a, b in zip(f_vals, f_vals[1:]))
    # continuity at zero
    assert uniform_limsup_bound(cert_u, 1e-12) < 1e-10
    assert weighted_limsup_bound(cert_w, 1e-12, 1e-12) < 1e-10


# ---------------------------------------------------------------------------
# computed gaps

def test_gaps_identical_specs(loss_queue):
    w = WeightSequence.unit(299)
    g = perturbation_gaps(loss_queue, [loss_queue], w, grid=128)
    assert g.reduced == 0.0 and g.forcing == 0.0 and g.generator == 0.0


def test_gaps_structural_multipliers(loss_queue, pair_queue):
    eps = 0.01
    w1 = WeightSequence.unit(299)
    pert = perturb(loss_queue, Perturbation("rate-offsets", eps=eps, seed=9))
    g = perturbation_gaps(loss_queue, [pert], w1, grid=256)
    assert 0 < g.reduced <= 5 * eps + 1e-12
    assert 0 < g.forcing <= eps + 1e-12
    w2 = WeightSequence.geometric(2.0, 299)
    pert2 = perturb(pair_queue, Perturbation("rate-offsets", eps=eps, seed=9))
    g2 = perturbation_gaps(pair_queue, [pert2], w2, grid=256)
    assert 0 < g2.forcing <= 5 * eps + 1e-12


def test_gaps_mass_arrival_generator_norm():
    spec = birth_death_chain(RateFunction.constant(1.0, period=1.0),
                             RateFunction.constant(4.0, period=1.0),
                             size=51, validation_grid=32)
    pert = perturb(spec, Perturbation("mass-arrival", eps=0.1))
    g = perturbation_gaps(spec, [pert], WeightSequence.unit(50), grid=64)
    # column 0 gains eps of new outflow, so the operator gap is 2 eps
    assert g.generator == pytest.approx(0.2, rel=1e-12)
    assert math.isnan(g.reduced) and math.isnan(g.forcing)


def _dense_gaps(spec, pert, w, grid, structural):
    """Grid maxima of the three gaps from dense matrices at every node."""
    gen = red = forc = 0.0
    for t in doubled_grid(spec.period, grid):
        a1 = generator_at(spec, float(t)).matrix
        a2 = generator_at(pert, float(t)).matrix
        gen = max(gen, np.abs(a1 - a2).sum(axis=0).max())
        if structural:
            s = similarity_reduced_matrix(spec, w, float(t)) \
                - similarity_reduced_matrix(pert, w, float(t))
            red = max(red, np.abs(s).sum(axis=0).max())
            forc = max(forc, np.abs(w.matrix() @ (a1[1:, 0] - a2[1:, 0])).sum())
    return gen, red, forc


def test_gaps_against_dense_matrices():
    # each case lists its draws; with several, every gap is the largest
    # of the per-draw dense gaps
    rng = np.random.default_rng(77)
    cases = []
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for count in (1, 2):
            n = int(rng.integers(3, 12))
            spec = random_chain(rng, kind, n, rate=rich_rate)
            draws = [perturb(spec, Perturbation(
                "rate-offsets", eps=0.05, seed=int(rng.integers(1 << 30))))
                for _ in range(count)]
            cases.append((spec, draws, random_weights(rng, n), True))
    # an explicit perturbation may add batch sizes the base lacks: an
    # arrival size between two of the base's and a larger service size
    arrivals = {1: rich_rate(rng), 3: rich_rate(rng)}
    services = {1: rich_rate(rng), 2: rich_rate(rng)}
    spec = batch_chain(arrivals, services, 12, validation_grid=32)
    extra = batch_chain({**arrivals, 2: rich_rate(rng)},
                        {**services, 3: rich_rate(rng)}, 12,
                        validation_grid=32)
    cases.append((spec, [extra], random_weights(rng, 11), True))
    cat = catastrophe_chain(random_chain(rng, "birth-death", 8, rate=rich_rate),
                            rich_rate(rng))
    for mode in ("rate-offsets", "multiplicative", "mass-arrival"):
        pert = perturb(cat, Perturbation(mode, eps=0.05, seed=3))
        cases.append((cat, [pert], WeightSequence.unit(8), False))
    # one draw without a weighted reduction makes the weighted gaps nan
    spec = random_chain(rng, "birth-death", 6, rate=rich_rate)
    cases.append((spec, [perturb(spec, Perturbation("multiplicative", eps=0.05)),
                         perturb(spec, Perturbation("mass-arrival", eps=0.05))],
                  WeightSequence.unit(6), False))
    # the route follows the overlays, not the kind label: a batch-service
    # draw with single services has the bands of a birth-death base
    spec = random_chain(rng, "birth-death", 9, rate=rich_rate)
    same_bands = batch_service_chain(spec.births, {1: rich_rate(rng)}, 10,
                                     validation_grid=32)
    cases.append((spec, [same_bands], random_weights(rng, 9), True))
    for spec, draws, w, structural in cases:
        g = perturbation_gaps(spec, draws, w, grid=16)
        gen, red, forc = np.max([_dense_gaps(spec, pert, w, 16, structural)
                                 for pert in draws], axis=0)
        assert g.generator == pytest.approx(gen, rel=1e-10, abs=1e-13)
        if structural:
            assert g.reduced == pytest.approx(red, rel=1e-10, abs=1e-13)
            assert g.forcing == pytest.approx(forc, rel=1e-10, abs=1e-13)
        else:
            assert math.isnan(g.reduced) and math.isnan(g.forcing)
            assert g.generator > 0


def test_forcing_from_a_long_head():
    # arrivals of 1, 3 and 4 on 45 states: column 0 has four nonzero
    # entries below the diagonal, so the forcing norms sum more than two
    # nonzero terms
    rng = np.random.default_rng(41)
    spec = batch_arrival_chain({1: rich_rate(rng), 3: rich_rate(rng),
                                4: rich_rate(rng)},
                               random_family(rng, 44, rich_rate), 45,
                               validation_grid=32)
    w = WeightSequence.geometric(1.3, 44)
    want = max(np.abs(w.matrix() @ generator_at(spec, float(t)).matrix[1:, 0])
               .sum() for t in doubled_grid(1.0, 16))
    cert = weighted_certificate(spec, w, grid=16)
    assert cert.forcing_norm_sup == pytest.approx(want, rel=1e-12)
    draws = [perturb(spec, Perturbation("rate-offsets", eps=0.05, seed=seed))
             for seed in (1, 2)]
    g = perturbation_gaps(spec, draws, w, grid=16)
    forc = max(_dense_gaps(spec, pert, w, 16, True)[2] for pert in draws)
    assert g.forcing == pytest.approx(forc, rel=1e-12)
    assert g.forcing > 0


def test_gap_dimension_mismatch(loss_queue):
    other = birth_death_chain(RateFunction.constant(1.0),
                              RateFunction.constant(4.0), size=10,
                              validation_grid=16)
    with pytest.raises(ValueError, match="state space"):
        perturbation_gaps(loss_queue, [other], WeightSequence.unit(299))


# ---------------------------------------------------------------------------
# report assembly

def test_build_report_routes(loss_queue):
    w = WeightSequence.unit(299)
    cert = weighted_certificate(loss_queue, w, grid=512)
    uc = uniform_from_weighted(cert, w)
    pert = perturb(loss_queue, Perturbation("rate-offsets", eps=0.01, seed=1))
    gaps = perturbation_gaps(loss_queue, [pert], w, grid=256)
    rep = build_report(0.01, uc, cert, gaps, top_state=299)
    assert rep.smaller_route == "uniform"
    assert rep.uniform_limsup == pytest.approx((1 + math.log(598.0)) * 0.01,
                                               rel=1e-9)
    assert rep.weighted_feasible
    assert rep.best_tv_bound == rep.uniform_limsup
    assert rep.eps_critical > 0.01
    # no certificates at all: everything nan
    empty = build_report(0.01, None, None, gaps, top_state=299)
    assert math.isnan(empty.best_tv_bound)
