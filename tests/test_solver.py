import math

import numpy as np
import pytest

from conftest import (dense_generator, dense_rk4, random_batches,
                      random_chain, random_family)
from ctmcpert import (Perturbation, RateFunction, SolverError, batch_chain,
                      birth_death_chain, catastrophe_chain, delta_state,
                      ergodicity_coefficient, integrate, limiting_regime,
                      mass_arrival_probe, mean_state, parse_rate, perturb,
                      perturbation_distance, rate_family,
                      stationary_distribution, write_mean_csv,
                      write_states_csv)
from ctmcpert.solver import RegimeLane, RunLane, default_step, march

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


def test_mean_state():
    assert mean_state(delta_state(6, 0)) == 0.0
    assert mean_state(delta_state(6, 5)) == 5.0
    assert mean_state(np.full(5, 0.2)) == pytest.approx(2.0)


def test_default_step_and_guard(loss_queue):
    assert default_step(loss_queue) == pytest.approx(min(1e-3, 1 / (4 * 698.0)))
    with pytest.raises(SolverError, match="stability guard"):
        integrate(loss_queue, delta_state(300, 0), 0.0, 1.0, step=0.01)
    with pytest.raises(SolverError, match="positive"):
        integrate(loss_queue, delta_state(300, 0), 0.0, 1.0, step=-1.0)


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
    assert rep.boundary_dists[-1] < 1e-6
    assert 0 <= rep.phi_values.min() <= rep.phi_values.max() <= 100


def test_limiting_regime_horizon_exhausted():
    spec = birth_death_chain(ZERO.with_period(1.0), ZERO.with_period(1.0),
                             size=4, validation_grid=16)
    with pytest.raises(SolverError, match="exhausted"):
        limiting_regime(spec, tolerance=1e-6, max_horizon=5.0)


def test_ergodicity_coefficient():
    spec = two_state(1.0, 2.0)
    assert ergodicity_coefficient(spec, 0.3, 0.3) == 1.0
    for dt in (0.25, 0.8):
        beta = ergodicity_coefficient(spec, 0.0, dt, step=1e-3)
        assert beta == pytest.approx(math.exp(-3.0 * dt), abs=1e-9)
    big = birth_death_chain(ONE, FOUR, size=600, validation_grid=16)
    with pytest.raises(SolverError, match="cap"):
        ergodicity_coefficient(big, 0.0, 1.0)


def test_ergodicity_coefficient_under_envelope():
    # certified chain: the measured coefficient stays below c/2 e^{-b dt}
    from ctmcpert import WeightSequence, uniform_from_weighted, \
        weighted_certificate
    spec = birth_death_chain(ONE.with_period(1.0), FOUR.with_period(1.0),
                             size=12, validation_grid=64)
    w = WeightSequence.geometric(2.0, 11)
    cert = weighted_certificate(spec, w, grid=256)
    uc = uniform_from_weighted(cert, w)
    for dt in (0.5, 1.5, 3.0):
        beta = ergodicity_coefficient(spec, 0.0, dt, step=5e-3)
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
    # what an explicit perturbation that adds arrival_2 and service_3 builds:
    # one offset between two of the base's and one after them
    extra = batch_chain(
        {**arrivals, 2: parse_rate("0.2*(1+sin(2*pi*t))", period=1.0)},
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


def _regime_settings(chain, step):
    """(t_end, horizon, tolerance) triples: the regime found before t_end,
    found after t_end, and the horizon exhausted before t_end; tolerances
    sit between neighbouring boundary distances of a solo search."""
    probe = RegimeLane(chain, 0.0, 6.0, step=step)
    march(probe)
    d = probe.dists

    def between(k):
        return 0.5 * (d[k - 1] + d[k])

    return [(3.5, 6.0, between(2)), (1.5, 6.0, between(4)),
            (3.5, 2.5, between(4))]


def test_lanes_match_solo_runs():
    # a run lane and a regime lane marched together give bit for bit the
    # numbers of a solo integrate and a solo limiting_regime, each on its
    # own clock, whichever lane stops first; the regime columns agree with
    # the dense oracle
    cols = np.stack([delta_state(12, 0), delta_state(12, 11)], axis=1)
    seen = set()
    for base, draws in _draw_cases():
        step = 0.25 / max(c.l_bound for c in [base] + draws)
        for t_end, horizon, tol in _regime_settings(base, step):
            run = RunLane(base, cols, 0.0, t_end, step=step, stride=0.3,
                          draws=draws)
            search = RegimeLane(base, tol, horizon, step=step)
            assert run.h != search.h  # two clocks
            march(run, search)
            fused = run.trajectory()
            solo = integrate(base, cols, 0.0, t_end, step=step, stride=0.3,
                             draws=draws)
            assert np.array_equal(fused.times, solo.times)
            assert np.array_equal(fused.states, solo.states)
            try:
                want = limiting_regime(base, tol, horizon, step=step)
            except SolverError as exc:
                with pytest.raises(SolverError) as got:
                    search.report()
                assert str(got.value) == str(exc)
                seen.add("exhausted")
            else:
                got = search.report()
                assert got.transient_horizon == want.transient_horizon
                seen.add("before t_end" if got.transient_horizon < t_end
                         else "after t_end")
                for name in ("boundary_times", "boundary_dists", "phi_times",
                             "phi_values"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name)), name
                assert np.array_equal(got.limit.states, want.limit.states)
            end = search.times[-1]
            steps = round(end / search.seg_dt) * search.steps
            dense = dense_rk4(_dense_matrix(base), cols, 0.0, end, steps)
            assert np.abs(search.y - dense).max() <= 1e-12
    assert seen == {"before t_end", "after t_end", "exhausted"}


def test_regime_lane_shorter_than_a_period():
    # a horizon below one period leaves the lane no segment to march
    lane = RegimeLane(two_state(), 1e-6, 0.5)  # period 1 (undeclared)
    march(lane)
    assert lane.done == 0 and lane.dists == [2.0]
    with pytest.raises(SolverError, match="horizon 0.5 exhausted"):
        lane.report()
