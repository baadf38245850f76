"""Acceptance suite: one test per criterion, each printing a pass line
with the measured quantities (run with -s to see them inline).

Budgets and tolerances are pinned here, not configurable; every expected
value is either exact arithmetic, a closed form derived in the module
tests, or an independently integrated oracle.
"""

import math
import time

import numpy as np
import pytest

from ctmcpert import (Perturbation, RateFunction, WeightSequence,
                      birth_death_chain, delta_state, integrate,
                      mass_arrival_probe, parse_rate, perturb,
                      perturbation_distance, rate_family,
                      stationary_distribution, to_total_variation,
                      uniform_from_weighted, uniform_limsup_bound,
                      weighted_certificate, weighted_limsup_bound)
from ctmcpert.analysis import decay_rate_fn, weighted_reduced_bands
from ctmcpert.quadrature import adaptive_simpson
from conftest import (expm_ode, log_norm, random_chain, random_weights,
                      similarity_reduced)


def _report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def _loss_queue():
    lam = parse_rate("200*(1+sin(2*pi*t))", period=1.0)
    mu = RateFunction.constant(1.0)
    return birth_death_chain(lam, rate_family(shared=mu,
                                              multipliers=np.arange(1, 300)),
                             size=300)


def _pair_queue():
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    pairs = parse_rate("0.5*(1+sin(2*pi*t))", period=1.0)
    mu = RateFunction.constant(3.0)
    from ctmcpert import batch_arrival_chain
    return batch_arrival_chain(
        {1: lam, 2: pairs},
        rate_family(shared=mu, multipliers=np.minimum(np.arange(1, 300), 2)),
        size=300)


def test_criterion_1_loss_queue_certificate():
    start = time.perf_counter()
    spec = _loss_queue()
    w = WeightSequence.unit(299)
    cert = weighted_certificate(spec, w)
    uc = uniform_from_weighted(cert, w)
    elapsed = time.perf_counter() - start
    assert cert.rate == pytest.approx(1.0, rel=1e-9)          # decay rate
    assert abs(cert.peak_dev) <= 1e-9                         # peak deviation
    assert cert.amplitude == pytest.approx(1.0, rel=1e-9)
    assert cert.min_weight == 1.0
    assert cert.weight_state_ratio == 1.0 / 299
    assert w.column_norm == 299.0
    assert uc.amplitude == pytest.approx(1196.0, rel=1e-9)
    assert uc.rate == pytest.approx(1.0, rel=1e-9)
    assert elapsed < 1.0
    _report(1, f"rate={cert.rate!r} amplitude={uc.amplitude!r} "
               f"ratio={cert.weight_state_ratio!r} ({elapsed:.2f}s)")


def test_criterion_2_pair_queue_certificate():
    start = time.perf_counter()
    spec = _pair_queue()
    w = WeightSequence.geometric(2.0, 299)
    cert = weighted_certificate(spec, w)
    elapsed = time.perf_counter() - start
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    ts = np.linspace(0.0, 1.0, 4097)
    target = 3.0 - 2.5 * lam.values(ts)
    worst = float(np.abs(decay_rate_fn(spec, w)(ts) - target).max())
    assert worst < 1e-9
    assert cert.rate == pytest.approx(0.5, abs=1e-9)
    assert cert.weight_state_ratio == 1.0
    assert elapsed < 1.0
    _report(2, f"max decay-rate deviation {worst:.2e}, mean rate "
               f"{cert.rate!r} ({elapsed:.2f}s)")


def test_criterion_3_bound_arithmetic():
    spec = _loss_queue()
    w = WeightSequence.unit(299)
    cert = weighted_certificate(spec, w)
    uc = uniform_from_weighted(cert, w)
    worst_u = 0.0
    for eps in (1e-4, 0.01, 0.3, 2.0):
        got = uniform_limsup_bound(uc, eps)
        want = (1.0 + math.log(598.0)) * eps
        worst_u = max(worst_u, abs(got - want) / want)
    assert worst_u <= 1e-12
    big_l = spec.l_bound
    k_star, mu_star = cert.peak_dev, cert.rate
    m = math.exp(k_star)
    worst_w = 0.0
    for eps in (1e-4, 0.01, 0.05):
        got = to_total_variation(
            weighted_limsup_bound(cert, 5 * eps, eps, forcing_sup=big_l),
            cert.min_weight)
        want = (4 * m * (5 * big_l * m + mu_star) * eps
                / (mu_star * (mu_star - 5 * eps * m)))
        worst_w = max(worst_w, abs(got - want) / want)
    assert worst_w <= 1e-12
    _report(3, f"uniform rel err {worst_u:.1e}, weighted TV rel err "
               f"{worst_w:.1e} (L={big_l})")


def test_criterion_4_extreme_trajectory_decay():
    start = time.perf_counter()
    spec = _loss_queue()
    extremes = np.stack([delta_state(300, 0), delta_state(300, 299)], axis=1)
    traj = integrate(spec, extremes, 0.0, 19.0, step=2.5e-4, stride=1.0)
    dists = np.abs(traj.states[:, :, 0] - traj.states[:, :, 1]).sum(axis=1)
    envelope = np.minimum(2.0, 1196.0 * np.exp(-traj.times))
    elapsed = time.perf_counter() - start
    assert np.all(dists <= envelope * (1 + 1e-6))
    assert dists[-1] < 1e-4
    assert elapsed < 60.0
    _report(4, f"distance at t=19 is {dists[-1]:.2e}, envelope respected at "
               f"all {len(dists)} period boundaries ({elapsed:.1f}s)")


def test_criterion_5_uniform_bound_soundness():
    start = time.perf_counter()
    spec = _loss_queue()
    eps = 0.01
    bound = (1.0 + math.log(598.0)) * eps
    p0 = delta_state(300, 0)
    worst = 0.0
    for draw in range(5):
        pert = perturb(spec, Perturbation("rate-offsets", eps=eps,
                                          seed=20240901 + draw))
        curve = perturbation_distance(spec, pert, p0, horizon=20.0,
                                      period=1.0, stride=0.05)
        worst = max(worst, curve.final_sup)
    elapsed = time.perf_counter() - start
    assert worst <= bound
    assert worst <= bound / 10.0   # the bound is conservative
    assert elapsed < 300.0
    _report(5, f"worst final-period sup {worst:.2e} vs bound {bound:.4f} "
               f"(margin {bound / worst:.0f}x, {elapsed:.0f}s)")


def test_criterion_6_weighted_decay_soundness():
    spec = _pair_queue()
    w = WeightSequence.geometric(2.0, 299)
    extremes = np.stack([delta_state(300, 0), delta_state(300, 299)], axis=1)
    traj = integrate(spec, extremes, 0.0, 5.0, stride=0.25)

    def weighted_dist(idx):
        z = traj.states[idx, 1:, 0] - traj.states[idx, 1:, 1]
        return w.weighted_norm(z)

    alpha = decay_rate_fn(spec, w)
    cumulative = np.zeros(len(traj.times))
    for i in range(len(traj.times) - 1):
        cumulative[i + 1] = cumulative[i] + adaptive_simpson(
            alpha, traj.times[i], traj.times[i + 1], start=64)
    pairs = [(0, 2), (0, 4), (0, 8), (0, 12), (0, 20), (1, 5), (2, 10),
             (3, 9), (4, 16), (5, 15), (6, 18), (7, 13), (8, 16), (9, 19),
             (10, 19), (11, 17), (12, 20), (13, 18), (14, 20), (15, 19)]
    assert len(pairs) == 20
    worst_ratio = 0.0
    for i, j in pairs:
        lhs = weighted_dist(j)
        rhs = math.exp(-(cumulative[j] - cumulative[i])) * weighted_dist(i)
        worst_ratio = max(worst_ratio, lhs / rhs)
    assert worst_ratio <= 1 + 1e-6
    _report(6, f"weighted decay holds at 20 (s,t) pairs, worst ratio "
               f"{worst_ratio:.6f}")


def test_criterion_7_log_norm_oracle():
    rng = np.random.default_rng(1729)
    worst_fd = 0.0
    h_fd = 1e-8
    for trial in range(100):
        off = rng.uniform(0.0, 2.0, size=(6, 6))
        np.fill_diagonal(off, 0.0)
        gen = off - np.diag(off.sum(axis=0))
        # reduced-system style slice: mixed-sign entries, nonzero log norm
        m = gen[1:, 1:] - gen[1:, :1] if trial % 2 else gen[:5, :5]
        fd = (np.abs(np.eye(5) + h_fd * m).sum(axis=0).max() - 1.0) / h_fd
        worst_fd = max(worst_fd, abs(fd - log_norm(m)))
        gamma = log_norm(m)
        for h in (1e-3, 1e-2):
            grown = np.abs(expm_ode(m, h)).sum(axis=0).max()
            assert grown <= math.exp(h * gamma) * (1 + 1e-6)
    assert worst_fd <= 1e-6
    _report(7, f"finite-difference agreement {worst_fd:.2e} over 100 slices; "
               f"semigroup bound held for h in {{1e-3, 1e-2}}")


def test_criterion_8_weighted_matrix_transcription():
    rng = np.random.default_rng(88)
    worst = 0.0
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(50):
            n = int(rng.integers(3, 21))
            spec = random_chain(rng, kind, n)
            w = random_weights(rng, n)
            t = float(rng.uniform(0.0, 1.0))
            err = np.abs(weighted_reduced_bands(spec, w, t).dense()
                         - similarity_reduced(spec, w, t)).max()
            worst = max(worst, err)
    assert worst <= 1e-10
    _report(8, f"50 draws per kind, worst entrywise error {worst:.2e}")


def test_criterion_9_mass_arrival_counterexample():
    probe = mass_arrival_probe(0.1, [100, 200, 400])
    assert max(probe.recursion_residuals) <= 1e-6
    assert probe.p0_values[0] > probe.p0_values[1] > probe.p0_values[2]
    spec = birth_death_chain(RateFunction.constant(1.0),
                             RateFunction.constant(4.0), size=101,
                             validation_grid=16)
    scaled = perturb(spec, Perturbation("multiplicative", eps=0.1))
    p = stationary_distribution(spec)
    q = stationary_distribution(scaled)
    drift = float(np.abs(p - q).sum())
    assert drift <= 1e-8
    _report(9, f"head probabilities {[f'{v:.4f}' for v in probe.p0_values]} "
               f"strictly decreasing, recursion residual "
               f"{max(probe.recursion_residuals):.1e}, scaling drift "
               f"{drift:.1e}")


def test_criterion_10_solver_order():
    spec = birth_death_chain(RateFunction.constant(1.0),
                             RateFunction.constant(2.0), size=2,
                             validation_grid=16)

    def closed(t):
        return (1 - math.exp(-3.0 * t)) / 3.0

    errors = []
    for h in (0.05, 0.025):
        traj = integrate(spec, np.array([1.0, 0.0]), 0.0, 1.0, step=h,
                         stride=0.05)
        errors.append(max(abs(p[1] - closed(t))
                          for t, p in zip(traj.times, traj.states)))
    ratio = errors[0] / errors[1]
    assert ratio >= 14.0
    _report(10, f"halving the step shrank the error {ratio:.1f}x "
                f"({errors[0]:.2e} -> {errors[1]:.2e})")
