import math
from itertools import islice

import numpy as np
import pytest

from conftest import (dense_generator, dense_rk4, random_batches,
                      random_chain, random_family)
from ctmcpert import (Perturbation, RateFunction, SolverError, batch_chain,
                      birth_death_chain, catastrophe_chain, delta_state,
                      integrate, limiting_regime, mass_arrival_probe,
                      parse_rate, perturb, perturbation_distance,
                      rate_family, stationary_distribution, write_mean_csv,
                      write_states_csv)
from ctmcpert import solver
from ctmcpert.solver import Clock, default_step, march, regime_search

ONE = RateFunction.constant(1.0)
FOUR = RateFunction.constant(4.0)
ZERO = RateFunction.constant(0.0)


def two_state(a=1.0, b=2.0):
    return birth_death_chain(RateFunction.constant(a),
                             RateFunction.constant(b), size=2,
                             validation_grid=16)


def two_state_closed(a, b, t):
    return a / (a + b) * (1 - math.exp(-(a + b) * t))


def test_zero_generator_constant_solution():
    spec = birth_death_chain(ZERO, ZERO, size=3, validation_grid=16)
    traj = integrate(spec, np.array([0.2, 0.5, 0.3]), 0.0, 2.0, step=0.01)
    assert np.allclose(traj.final, [0.2, 0.5, 0.3], atol=1e-15)


def test_two_state_closed_form():
    spec = two_state()
    traj = integrate(spec, np.array([1.0, 0.0]), 0.0, 2.0, step=1e-3,
                     stride=0.1)
    for t, p in zip(traj.times, traj.states):
        assert p[1] == pytest.approx(two_state_closed(1.0, 2.0, t), abs=1e-10)


def test_order_four_convergence():
    spec = two_state()
    errs = []
    for h in (0.05, 0.025):
        traj = integrate(spec, np.array([1.0, 0.0]), 0.0, 1.0, step=h,
                         stride=0.05)
        errs.append(max(abs(p[1] - two_state_closed(1.0, 2.0, t))
                        for t, p in zip(traj.times, traj.states)))
    assert errs[0] / errs[1] >= 14.0


def test_default_step_and_guard(loss_queue):
    assert default_step(loss_queue) == pytest.approx(min(1e-3, 1 / (4 * 698.0)))
    with pytest.raises(SolverError, match="stability guard"):
        integrate(loss_queue, delta_state(300, 0), 0.0, 1.0, step=0.01)
    with pytest.raises(SolverError, match="positive"):
        integrate(loss_queue, delta_state(300, 0), 0.0, 1.0, step=-1.0)
    # a step so small that the march could not count its steps, or that
    # the span over it overflows
    for step in (1e-300, 5e-324):
        with pytest.raises(SolverError, match=f"step {step} is too small "
                                              f"for the span 2.0"):
            integrate(loss_queue, delta_state(300, 0), 0.0, 2.0, step=step)
        with pytest.raises(SolverError, match=f"step {step} is too small "
                                              f"for the span 1.0"):
            regime_search(loss_queue, 1e-6, 2.0, step=step)


def test_sample_values_are_bounded_before_the_march(monkeypatch):
    # samples times states times columns may reach MAX_SAMPLE_VALUES and
    # no more: 9 samples of 2 states by 2 columns are 36 values
    spec, p0 = two_state(), np.eye(2)
    monkeypatch.setattr(solver, "MAX_SAMPLE_VALUES", 36)
    traj = integrate(spec, p0, 0.0, 1.0, stride=0.125)
    assert traj.states.shape == (9, 2, 2)
    monkeypatch.setattr(solver, "MAX_SAMPLE_VALUES", 35)
    with pytest.raises(SolverError, match=r"stride 0\.125 is too small for "
                                          r"the span 1\.0: 9 samples of 4 "
                                          r"values, more than 35 values"):
        integrate(spec, p0, 0.0, 1.0, stride=0.125)
    # a span over the stride that overflows is refused before round()
    with pytest.raises(SolverError, match="inf samples"):
        integrate(spec, p0, 0.0, 1.0, stride=5e-324)


def test_initial_condition_validation():
    spec = two_state()
    with pytest.raises(ValueError, match="probability"):
        integrate(spec, np.array([0.7, 0.7]), 0.0, 1.0)
    with pytest.raises(ValueError, match="states"):
        integrate(spec, np.ones(5) / 5, 0.0, 1.0)
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate(spec, np.array([1.0, 0.0]), 1.0, 1.0)


def test_conservation_and_nonnegativity(pair_queue):
    traj = integrate(pair_queue, delta_state(300, 0), 0.0, 2.0, stride=0.1)
    sums = traj.states.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-8
    assert traj.states.min() >= -1e-10


def test_limiting_regime_geometric_law():
    spec = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=101, validation_grid=16)
    rep = limiting_regime(spec, tolerance=1e-6, max_horizon=60.0)
    geo = 0.25 ** np.arange(101)
    geo /= geo.sum()
    final = rep.limit.states[-1, :, 0]
    assert np.abs(final - geo).max() < 1e-7
    search = regime_search(spec, 1e-6, 60.0)
    assert search.horizon == rep.transient_horizon
    assert search.dists[-1] < 1e-6
    assert 0 <= rep.phi_values.min() <= rep.phi_values.max() <= 100


def test_limiting_regime_horizon_exhausted():
    spec = birth_death_chain(ZERO.with_period(1.0), ZERO.with_period(1.0),
                             size=4, validation_grid=16)
    with pytest.raises(SolverError, match="exhausted"):
        limiting_regime(spec, tolerance=1e-6, max_horizon=5.0)


def test_ergodicity_coefficient_under_envelope():
    # certified chain: the ergodicity coefficient of the transition matrix
    # over [0, dt], half the largest l1 distance between two of its
    # columns (integrated from the identity by the dense oracle), stays
    # below c/2 e^{-b dt}
    from ctmcpert import WeightSequence, uniform_from_weighted, \
        weighted_certificate
    spec = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=12, validation_grid=64)
    w = WeightSequence.geometric(2.0, 11)
    cert = weighted_certificate(spec, w, grid=256)
    uc = uniform_from_weighted(cert, w)
    for dt in (0.5, 1.5, 3.0):
        p = dense_rk4(_dense_matrix(spec), np.eye(12), 0.0, dt,
                      math.ceil(dt / 5e-3))
        beta = 0.5 * max(np.abs(p - p[:, i:i + 1]).sum(axis=0).max()
                         for i in range(12))
        envelope = min(1.0, 0.5 * uc.amplitude * math.exp(-uc.rate * dt))
        assert beta <= envelope * (1 + 1e-6)


def test_perturbation_distance_identical(loss_queue):
    curve = perturbation_distance(loss_queue, loss_queue,
                                  delta_state(300, 0), horizon=0.5,
                                  stride=0.05)
    assert curve.final_sup == 0.0


def test_multiplicative_perturbation_keeps_stationary_law():
    spec = birth_death_chain(ONE, FOUR, size=60, validation_grid=16)
    scaled = perturb(spec, Perturbation("multiplicative", eps=0.5))
    p = stationary_distribution(spec)
    q = stationary_distribution(scaled)
    assert np.abs(p - q).sum() < 1e-8


def test_stationary_distribution_geometric():
    spec = birth_death_chain(ONE, FOUR, size=40, validation_grid=16)
    p = stationary_distribution(spec)
    geo = 0.25 ** np.arange(40)
    geo /= geo.sum()
    assert np.abs(p - geo).max() < 1e-10
    # the tail down to 4^-39 ~ 3e-24 to rounding, entry by entry
    assert np.abs(p / geo - 1.0).max() < 1e-13


def _constant_rate(rng):
    return RateFunction.constant(float(rng.uniform(0.2, 3.0)))


def _exact_stationary(chain):
    """The null vector of the dense generator with entries summing to 1,
    by a 40-digit dense solve with the normalisation in place of the last
    balance row; the diagonal is summed in that precision too."""
    mpmath = pytest.importorskip("mpmath")
    size = chain.size
    with mpmath.workdps(40):
        a = mpmath.matrix(dense_generator(chain, 0.0).tolist())
        for j in range(size):
            a[j, j] = -mpmath.fsum(a[i, j] for i in range(size) if i != j)
        for j in range(size):
            a[size - 1, j] = 1
        rhs = mpmath.matrix(size, 1)
        rhs[size - 1] = 1
        return np.array([float(v) for v in mpmath.lu_solve(a, rhs)])


def test_stationary_distribution_against_dense_solve():
    rng = np.random.default_rng(2024)
    chains = []
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for n in (8, 30):
            if kind == "batch":
                # service in ones keeps every state in reach of state 0
                services = random_batches(rng, n, _constant_rate)
                services[1] = _constant_rate(rng)
                chains.append(batch_chain(
                    random_batches(rng, n, _constant_rate), services, n + 1,
                    validation_grid=16))
            else:
                chains.append(random_chain(rng, kind, n, _constant_rate))
    base = random_chain(rng, "batch-arrival", 20, _constant_rate)
    chains.append(catastrophe_chain(
        base, random_family(rng, base.n, _constant_rate)))
    chains.append(perturb(random_chain(rng, "birth-death", 25, _constant_rate),
                          Perturbation("mass-arrival", eps=0.3)))
    for chain in chains:
        p = stationary_distribution(chain)
        exact = _exact_stationary(chain)
        assert np.all(np.abs(p - exact) <= 1e-10 * exact), chain.kind


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stationary_distribution_needs_recurrent_state_zero():
    # births only: state 0 is transient and all mass ends in state n
    spec = birth_death_chain(ONE, ZERO, size=10, validation_grid=16)
    with pytest.raises(SolverError, match="not recurrent"):
        stationary_distribution(spec)


@pytest.mark.parametrize("size", [312, 330])
def test_stationary_distribution_below_range_is_not_transience(size):
    # births 10, deaths 1: every state reaches state 0 by deaths, but p_0
    # is about 10^-(size-1) relative to p_n.  At 312 states the solve
    # overflows; at 330 the top state's flow into state 0 underflows to a
    # zero pivot.  Neither is a transient state 0
    spec = birth_death_chain(RateFunction.constant(10.0), ONE, size=size,
                             validation_grid=16)
    with pytest.raises(SolverError, match="below the floating-point range"):
        stationary_distribution(spec)


def test_stationary_distribution_rejects_time_dependent_rates():
    spec = birth_death_chain(parse_rate("1+sin(2*pi*t)", period=1.0),
                             FOUR.with_period(1.0), size=10,
                             validation_grid=64)
    with pytest.raises(SolverError, match="time-invariant"):
        stationary_distribution(spec)


def test_mass_arrival_probe_small_levels():
    probe = mass_arrival_probe(0.1, [40, 80])
    assert probe.p0_values[0] > probe.p0_values[1]
    assert max(probe.recursion_residuals) < 1e-6
    clean = mass_arrival_probe(0.0, [30])
    assert clean.p0_values[0] == pytest.approx(0.75 / (1 - 0.25 ** 31),
                                               rel=1e-10)


def test_catastrophe_uniform_decay_realized():
    # total-variation distance of any two solutions sits under twice the
    # integrated catastrophe floor
    from ctmcpert import catastrophe_chain
    base = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=25, validation_grid=64)
    cat = catastrophe_chain(base, parse_rate("0.3*(1+sin(2*pi*t))",
                                             period=1.0))
    cols = np.stack([delta_state(25, 0), delta_state(25, 24)], axis=1)
    traj = integrate(cat, cols, 0.0, 6.0, stride=0.25)

    def floor_integral(t):
        return 0.3 * t + 0.3 * (1 - math.cos(2 * math.pi * t)) / (2 * math.pi)

    for t, state in zip(traj.times, traj.states):
        dist = np.abs(state[:, 0] - state[:, 1]).sum()
        assert dist <= 2.0 * math.exp(-floor_integral(t)) * (1 + 1e-6)


def test_csv_round_trip(tmp_path):
    spec = two_state()
    traj = integrate(spec, np.array([1.0, 0.0]), 0.0, 1.0, step=0.01,
                     stride=0.25)
    spath = tmp_path / "states.csv"
    mpath = tmp_path / "mean.csv"
    write_states_csv(traj, spath)
    write_mean_csv(traj, mpath)
    lines = spath.read_text().splitlines()
    assert lines[0] == "t,p_0,p_1"
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)  # 17 digits round-trip
    mlines = mpath.read_text().splitlines()
    assert mlines[0] == "t,mean"
    means = np.array([float(line.split(",")[1]) for line in mlines[1:]])
    assert np.array_equal(means, traj.states @ np.arange(2))


def test_ensemble_integration_matches_separate_runs(pair_queue):
    cols = np.stack([delta_state(300, 0), delta_state(300, 299)], axis=1)
    both = integrate(pair_queue, cols, 0.0, 1.0, stride=0.25)
    one = integrate(pair_queue, delta_state(300, 0), 0.0, 1.0, stride=0.25)
    assert np.array_equal(both.states[:, :, 0], one.states)


def _draw_cases():
    """(base, draws) pairs covering every generator layout a draw can
    have: plain bands, batch bands, batch sizes the base lacks, a col0 and
    a row0 overlay, and a member family (one rate function per state)."""
    periodic = parse_rate("1+0.8*sin(2*pi*t)", period=1.0)
    deaths = rate_family(shared=RateFunction.constant(2.0),
                         multipliers=np.minimum(np.arange(1, 12), 3))
    bd = birth_death_chain(periodic, deaths, size=12, validation_grid=64)
    arrivals = {1: periodic, 3: parse_rate("0.5+0.4*cos(2*pi*t)", period=1.0)}
    services = {1: RateFunction.constant(2.5), 2: RateFunction.constant(1.0)}
    batch = batch_chain(arrivals, services, size=12, validation_grid=64)
    # what an explicit perturbation that adds arrival_2, arrival_4 and
    # service_3 builds: one offset between two of the base's, one after
    # them and one wider than any of the base's
    extra = batch_chain(
        {**arrivals, 2: parse_rate("0.2*(1+sin(2*pi*t))", period=1.0),
         4: RateFunction.constant(0.3)},
        {**services, 3: RateFunction.constant(0.4)}, size=12,
        validation_grid=64)
    cat = catastrophe_chain(bd, parse_rate("0.3*(1+sin(2*pi*t))", period=1.0))
    # one birth rate function per state, marched next to a draw whose
    # births share one function
    members = birth_death_chain(
        [parse_rate(f"{1 + 0.1 * k}*(1+0.5*sin(2*pi*(t-{0.05 * k})))",
                    period=1.0) for k in range(11)], deaths, size=12,
        validation_grid=64)

    def offsets(chain, seed):
        return perturb(chain, Perturbation("rate-offsets", eps=0.2, seed=seed))

    return [
        (bd, [offsets(bd, 1), perturb(bd, Perturbation("multiplicative",
                                                       eps=0.3)),
              perturb(bd, Perturbation("mass-arrival", eps=0.5))]),
        (batch, [offsets(batch, 2), extra]),
        (cat, [offsets(cat, 3)]),
        (members, [offsets(members, 4), bd]),
    ]


def _dense_matrix(chain):
    def at(t):
        m = dense_generator(chain, t)
        return m - np.diag(m.sum(axis=0))
    return at


def test_draw_columns_match_separate_runs():
    # columns never mix: each fused column is bit for bit a run of its
    # chain alone, and both agree with the dense oracle
    cols = np.stack([delta_state(12, 0), delta_state(12, 11)], axis=1)
    for base, draws in _draw_cases():
        step = 0.25 / max(c.l_bound for c in [base] + draws)
        fused = integrate(base, cols, 0.0, 1.5, step=step, stride=0.25,
                          draws=draws)
        assert fused.states.shape == (7, 12, 2 + len(draws))
        alone = integrate(base, cols, 0.0, 1.5, step=step, stride=0.25)
        assert np.array_equal(fused.times, alone.times)
        assert np.array_equal(fused.states[:, :, :2], alone.states)
        steps = round(1.5 / fused.step)
        want = dense_rk4(_dense_matrix(base), cols, 0.0, 1.5, steps)
        assert np.abs(fused.states[-1, :, :2] - want).max() <= 1e-12
        for j, draw in enumerate(draws):
            run = integrate(draw, cols[:, 0], 0.0, 1.5, step=step,
                            stride=0.25)
            assert run.step == fused.step
            assert np.array_equal(fused.states[:, :, 2 + j], run.states)
            want = dense_rk4(_dense_matrix(draw), cols[:, 0], 0.0, 1.5, steps)
            assert np.abs(fused.states[-1, :, 2 + j] - want).max() <= 1e-12
    # the shared step must respect every draw's stability guard
    base, (_, scaled, _) = _draw_cases()[0]  # scaled: every rate 1.3 times
    step = 1.1 * 0.5 / scaled.l_bound
    assert step <= 0.5 / base.l_bound
    integrate(base, cols, 0.0, 0.5, step=step)
    with pytest.raises(SolverError, match="stability guard"):
        integrate(base, cols, 0.0, 0.5, step=step, draws=[scaled])
    with pytest.raises(ValueError, match="state space"):
        integrate(base, cols, 0.0, 0.5, draws=[two_state()])


def _recording(monkeypatch):
    """Record every march that the solver starts from now on, as its k0
    and the list of the columns it has yielded."""
    marches, plain = [], solver.march

    def recorded(chains, widths, y, clock, k0=0, segments=None):
        seen = []
        marches.append((k0, seen))

        def each():
            for cols in plain(chains, widths, y, clock, k0, segments):
                seen.append(cols)
                yield cols
        return each()

    monkeypatch.setattr(solver, "march", recorded)
    return marches


def _extremes(size):
    return np.stack([delta_state(size, 0), delta_state(size, size - 1)],
                    axis=1)


def _boundaries(chain, clock, count):
    """The extreme columns at the first ``count`` period boundaries of a
    march from 0 on ``clock``."""
    start = _extremes(chain.size)
    return [start] + list(islice(march((chain,), (2,), start, clock),
                                 count - 1))


def _regime_settings(chain, step):
    """(horizon, tolerance) pairs: the regime found at the second and at
    the fourth boundary, and the horizon exhausted; tolerances sit
    between neighbouring boundary distances of a search from 0."""
    d = regime_search(chain, 0.0, 6.0, step=step).dists

    def between(k):
        return 0.5 * (d[k - 1] + d[k])

    return [(6.0, between(2)), (6.0, between(4)), (2.5, between(4))]


def _last_boundary(search):
    """The period boundary of a search's last recorded distance."""
    return (len(search.dists) - 1) * search.clock.seg_dt


def test_regime_lane_matches_dense_oracle():
    # a regime search stops at the first period boundary where the
    # extremes meet, or when its horizon runs out; its columns there agree
    # with the dense oracle, on every generator layout
    cols = _extremes(12)
    seen = set()
    for base, draws in _draw_cases():
        step = 0.25 / max(c.l_bound for c in [base] + draws)
        for horizon, tol in _regime_settings(base, step):
            search = regime_search(base, tol, horizon, step=step)
            if search.horizon is None:
                with pytest.raises(SolverError, match="exhausted"):
                    search.report()
                assert min(search.dists[1:]) >= tol
                seen.add("exhausted")
            else:
                assert search.horizon == _last_boundary(search)
                assert search.dists[-1] < tol <= min(search.dists[1:-1])
                seen.add("found")
            end = _last_boundary(search)
            steps = round(end / search.clock.seg_dt) * search.clock.steps
            dense = dense_rk4(_dense_matrix(base), cols, 0.0, end, steps)
            assert np.abs(search.y - dense).max() <= 1e-12
    assert seen == {"found", "exhausted"}


def test_regime_lane_shorter_than_a_period(monkeypatch):
    # a horizon below one period leaves the search no segment to march
    marches = _recording(monkeypatch)
    search = regime_search(two_state(), 1e-6, 0.5)  # period 1 (undeclared)
    assert marches == [] and search.dists == (2.0,)
    with pytest.raises(SolverError, match="horizon 0.5 exhausted"):
        search.report()


def test_regime_lane_reads_given_boundaries(monkeypatch):
    # a search given the columns at the boundaries 0, ..., K*T reads their
    # distances, stops on them when it can and otherwise marches on from
    # K*T on the nodes k*T + j*h of a search from 0; its horizon, boundary
    # times and fed distances are those of the search from 0, and what it
    # marches agrees with it to rounding
    base, _ = _draw_cases()[0]
    step = 0.25 / base.l_bound
    d = regime_search(base, 0.0, 4.0, step=step).dists
    marches = _recording(monkeypatch)
    for tol, horizon in ((0.0, 4.0), (0.5 * (d[2] + d[3]), 6.0)):
        solo = regime_search(base, tol, horizon, step=step)
        assert (solo.horizon is None) == (tol == 0.0)
        clock = solo.clock
        kept = _boundaries(base, clock, len(solo.dists))
        assert np.array_equal(kept[-1], solo.y)
        for k in range(len(kept)):
            marches.clear()
            fed = regime_search(base, tol, horizon, step=step,
                                columns=kept[:k + 1])
            assert fed.dists[:k + 1] == solo.dists[:k + 1]
            # fed columns that stop the search call no march
            if k < len(kept) - 1:
                [(k0, marched)] = marches
                assert k0 == k and len(marched) == len(kept) - 1 - k
                assert np.array_equal(
                    fed.clock.stage_times(k, 0, 3 * clock.steps),
                    clock.stage_times(0, k * clock.steps, 3 * clock.steps))
            else:
                assert marches == []
            assert len(fed.dists) == len(solo.dists)
            assert fed.horizon == solo.horizon
            assert np.allclose(fed.dists, solo.dists, rtol=1e-12, atol=0)
            assert np.abs(fed.y - solo.y).max() <= 1e-12
    # columns past a stop are not read
    marches.clear()
    fed = regime_search(base, tol, 6.0, step=step, columns=kept * 2)
    assert marches == [] and fed.dists == solo.dists
    # the horizon is one period at least, whatever the tolerance
    marches.clear()
    search = regime_search(base, 3.0, 6.0, step=step)
    assert search.horizon == 1.0
    assert [(k0, len(marched)) for k0, marched in marches] == [(0, 1)]


def test_limit_period_marches_the_lower_extreme_alone():
    # the limit period reads column 0 only; it is bit for bit column 0 of
    # a march of both extremes (its mean, a product over another memory
    # layout, to rounding)
    base, _ = _draw_cases()[0]
    search = regime_search(base, 1e-2, 6.0)
    got = search.report()
    period = search.clock.seg_dt
    both = integrate(base, search.y, search.horizon, search.horizon + period,
                     step=search.clock.h, stride=period / 200)
    assert got.limit.states.shape[2] == 1
    assert np.array_equal(got.limit.times, both.times)
    assert np.array_equal(got.limit.states[:, :, 0], both.states[:, :, 0])
    assert np.allclose(got.phi_values,
                       both.states[:, :, 0] @ np.arange(base.size),
                       rtol=1e-14, atol=0)


def _reference_columns(chain, y, clock, k0, segments):
    """One column stepped alone on ``clock`` from the start of segment
    ``k0``, slice by slice: k1 reuses the previous step's end slice, the
    other stages read ``bands_at`` at the clock's stage times.  The column
    at each of ``segments`` segment ends."""
    h, seen = clock.h, []
    a_t = chain.bands_at(clock.t0 + k0 * clock.seg_dt)
    for i in range(segments):
        for j in range(clock.steps):
            t = (clock.t0 + (k0 + i) * clock.seg_dt) + j * h
            a_mid, a_end = chain.bands_at(t + 0.5 * h), chain.bands_at(t + h)
            k1 = a_t.matvec(y)
            k2 = a_mid.matvec(y + 0.5 * h * k1)
            k3 = a_mid.matvec(y + 0.5 * h * k2)
            k4 = a_end.matvec(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            a_t = a_end
        seen.append(y)
    return seen


def _assert_matches_reference(seen, chains, widths, y0, clock, k0=0):
    """Every column of ``seen``, the columns that a march of ``chains``
    from ``y0`` yielded, is bit for bit its reference column."""
    col = 0
    for chain, width in zip(chains, widths):
        for c in range(col, col + width):
            want = _reference_columns(chain, y0[:, c], clock, k0, len(seen))
            for got, ref in zip(seen, want):
                assert np.array_equal(got[:, c], ref), (chain.kind, c)
        col += width


def test_march_matches_per_step_reference(monkeypatch):
    # every column of a march is bit for bit a plain RK4 loop over
    # single-time slices on its clock: every generator layout, a lone
    # chain and one with its draws, a march that starts at a later
    # segment and that its caller stops early, a march of three 23-step
    # segments over five blocks of stage tables (segment ends inside
    # blocks, a partial last block), a march of 28 37-step segments over
    # three chunks of rate values, 512 steps each but the last, and a
    # march that its caller stops inside its second chunk, a regime
    # search going on from a fed boundary, and a time-invariant chain
    def check(base, draws, step):
        size = base.size
        # spread columns, so that a sum over the states has many terms; the
        # ramp starts empty, so that state 0 shows a stage's every bit
        spread = np.stack([np.full(size, 1 / size),
                           np.arange(size) * 2 / (size * size - size)], axis=1)
        for chains in ([base] + draws, [base]):
            more = len(chains) - 1
            widths = (2,) + (1,) * more
            for y, (t0, h, steps, segments), k0, stop in (
                    (spread, (0.0, step, 5, 3), 0, None),
                    (_extremes(size), (0.1, 0.7 * step, 4, 6), 1, 2),
                    (spread, (0.0, step, 23, 3), 0, None),
                    (spread, (0.0, step, 37, 28), 0, None),
                    (_extremes(size), (0.1, 0.7 * step, 37, None), 1, 15)):
                y = np.concatenate([y] + [y[:, :1]] * more, axis=1)
                clock = Clock(t0, h, steps, steps * h)
                seen = list(islice(march(chains, widths, y, clock, k0,
                                         segments), stop))
                assert len(seen) == (segments if stop is None else stop)
                _assert_matches_reference(seen, chains, widths, y, clock, k0)

    # the long marches cross chunks of RATE_NODES // 2 steps
    assert 37 * 28 > solver.RATE_NODES
    assert solver.RATE_NODES // 2 < 37 * 15 < solver.RATE_NODES
    for base, draws in _draw_cases():
        check(base, draws, 0.25 / max(c.l_bound for c in [base] + draws))
    # catastrophe rows of many terms, where a pairwise sum is not a
    # running sum
    periodic = parse_rate("1+0.8*sin(2*pi*t)", period=1.0)
    big = catastrophe_chain(
        birth_death_chain(periodic, FOUR.with_period(1.0), size=60,
                          validation_grid=64),
        parse_rate("0.3*(1+sin(2*pi*t))", period=1.0))
    check(big, [], 0.25 / big.l_bound)
    flat = birth_death_chain(ONE, FOUR, size=12, validation_grid=16)
    drawn = perturb(flat, Perturbation("mass-arrival", eps=0.5))
    assert flat.time_invariant and drawn.time_invariant
    check(flat, [drawn], 0.02)
    # a regime search fed the boundaries 0 and T marches on from T, over
    # two periods of 23 steps
    marches = _recording(monkeypatch)
    clock = Clock(0.0, 1 / 23, 23, 1.0)
    for base, _ in _draw_cases()[::2]:  # a row0 chain among them
        kept = _boundaries(base, clock, 2)
        marches.clear()
        fed = regime_search(base, 0.0, 3.0, step=1 / 23, columns=kept)
        [(k0, marched)] = marches
        assert k0 == 1 and fed.clock == clock and len(marched) == 2
        assert np.array_equal(fed.y, marched[-1])
        _assert_matches_reference(marched, (base,), (2,), kept[1], fed.clock,
                                  k0)


def test_march_stopped_early_changes_no_numbers():
    # a march that its caller stops inside a block of stage tables yields,
    # bit for bit, the columns of a march bounded to as many segments, and
    # no march writes the columns it was given
    for base, draws in _draw_cases():
        chains, widths = [base] + draws, (2,) + (1,) * len(draws)
        y = np.concatenate([_extremes(12)] + [_extremes(12)[:, :1]]
                           * len(draws), axis=1)
        given = y.copy()
        step = 0.25 / max(c.l_bound for c in chains)
        clock = Clock(0.0, step, 5, 5 * step)
        for k0, stop in ((0, 1), (0, 3), (2, 5)):
            assert stop * clock.steps % (solver.STAGE_NODES // 2) != 0
            free = list(islice(march(chains, widths, y, clock, k0), stop))
            bounded = list(march(chains, widths, y, clock, k0, stop))
            assert len(free) == len(bounded) == stop
            for got, want in zip(free, bounded):
                assert np.array_equal(got, want)
            assert np.array_equal(y, given)
