import math
from pathlib import Path

import numpy as np
import pytest

from ctmcpert import (InfeasibleBoundError, Perturbation, RateFunction,
                      WeightSequence, batch_arrival_chain, batch_chain,
                      batch_service_chain, birth_death_chain,
                      build_report, catastrophe_chain, critical_reduced_gap,
                      parse_rate, perturb, perturbation_gaps,
                      to_total_variation,
                      uniform_bound_at, uniform_from_weighted,
                      uniform_limsup_bound, uniform_mean_limsup_bound,
                      weighted_certificate, weighted_feasible,
                      weighted_limsup_bound, weighted_mean_limsup_bound)
from ctmcpert import bounds as bounds_module, model as model_module
from ctmcpert.analysis import ErgodicityCertificate, column_stats, reduced_block
from ctmcpert.cli import main
from ctmcpert.quadrature import ANALYSIS_GRID, doubled_grid, grid_sup
from ctmcpert.model import difference, rate_family, time_blocks
from conftest import (dense_full, dense_generator, random_chain,
                      random_family, random_weights, rich_rate,
                      similarity_reduced, weight_matrices)


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
    """Grid maxima of the three gaps from dense matrices at every node,
    the reduced ones by the dense similarity transform D B D^{-1}."""
    gen = red = forc = 0.0
    dm, _ = weight_matrices(w)
    for t in map(float, doubled_grid(spec.period, grid)):
        a1, a2 = dense_full(spec, t), dense_full(pert, t)
        gen = max(gen, np.abs(a1 - a2).sum(axis=0).max())
        if structural:
            s1, s2 = (similarity_reduced(c, w, t) for c in (spec, pert))
            red = max(red, np.abs(s1 - s2).sum(axis=0).max())
            forc = max(forc, np.abs(dm @ (a1[1:, 0] - a2[1:, 0])).sum())
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


def test_gaps_against_long_double():
    # rates around 400 moved by about 0.01: a gap taken as the difference
    # of the two chains' tables loses about 1e-12 relative to cancellation.
    # The reference differences the same rate values and multipliers in
    # long double and transforms densely.
    lam = parse_rate("400*(1+0.5*sin(2*pi*t))", period=1.0)
    mu = parse_rate("380+20*cos(2*pi*t)", period=1.0)
    n = 30
    spec = birth_death_chain(
        rate_family(shared=lam, multipliers=np.linspace(0.9, 1.1, n)),
        rate_family(shared=mu, multipliers=np.linspace(1.1, 0.9, n)), n + 1,
        validation_grid=32)
    w = WeightSequence.geometric(1.1, n)
    draws = [perturb(spec, Perturbation("rate-offsets", eps=0.01, seed=seed))
             for seed in (1, 2)]
    g = perturbation_gaps(spec, draws, w, grid=16)
    ld = np.longdouble
    d = w.values.astype(ld)
    dm = np.triu(np.tile(d[:, None], (1, n)))
    dinv = np.diag(1 / d) - np.diag(1 / d[1:], 1)
    want = np.zeros(3, dtype=ld)
    js = np.arange(n)
    for t in doubled_grid(1.0, 16):
        rates = [ld(f.values(np.array([t]))[0]) for f in (lam, mu)]
        for draw in draws:
            a = np.zeros((n + 1, n + 1), dtype=ld)
            for (rows, cols), rate, new, old in zip(
                    ((js + 1, js), (js, js + 1)), rates,
                    (draw.births, draw.deaths), (spec.births, spec.deaths)):
                a[rows, cols] = rate * new.multipliers.astype(ld) \
                    - rate * old.multipliers.astype(ld)
            a[np.arange(n + 1), np.arange(n + 1)] = -a.sum(axis=0)
            red = dm @ (a[1:, 1:] - a[1:, :1]) @ dinv
            want = np.maximum(want, [np.abs(red).sum(axis=0).max(),
                                     np.abs(dm @ a[1:, 0]).sum(),
                                     np.abs(a).sum(axis=0).max()])
    for got, ref in zip((g.reduced, g.forcing, g.generator), want):
        assert abs(ld(got) - ref) <= 1e-14 * ref


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
    dm, _ = weight_matrices(w)
    want = max(np.abs(dm @ dense_generator(spec, float(t))[1:, 0]).sum()
               for t in doubled_grid(1.0, 16))
    cert = weighted_certificate(spec, w, grid=16)
    assert cert.forcing_norm_sup == pytest.approx(want, rel=1e-12)
    draws = [perturb(spec, Perturbation("rate-offsets", eps=0.05, seed=seed))
             for seed in (1, 2)]
    g = perturbation_gaps(spec, draws, w, grid=16)
    forc = max(_dense_gaps(spec, pert, w, 16, True)[2] for pert in draws)
    assert g.forcing == pytest.approx(forc, rel=1e-12)
    assert g.forcing > 0


def test_multiplicative_generator_gap_is_eps_times_the_norm():
    # A' = (1 + eps) A, so ||A' - A||_1 = eps ||A||_1 at every node
    rng = np.random.default_rng(23)
    eps = 0.05
    chains = [random_chain(rng, kind, int(rng.integers(3, 12)), rate=rich_rate)
              for kind in ("birth-death", "batch-arrival", "batch-service",
                           "batch")]
    chains.append(catastrophe_chain(chains[0], rich_rate(rng)))
    for spec in chains:
        draw = perturb(spec, Perturbation("multiplicative", eps=eps))
        g = perturbation_gaps(spec, [draw], WeightSequence.unit(spec.n),
                              grid=16)
        norm = max(np.abs(dense_full(spec, float(t))).sum(axis=0).max()
                   for t in doubled_grid(1.0, 16))
        assert g.generator == pytest.approx(eps * norm, rel=1e-12)


def _materialised_l_bound(chain):
    """Grid supremum of |A_kk(t)| from the diagonal of every block."""
    sup = 0.0
    for tb in time_blocks(np.linspace(0.0, chain.period,
                                      chain.validation_grid + 1)):
        sup = grid_sup(sup, np.abs(chain.bands_block(tb).diag))
    return sup


def _materialised_gaps(spec, draws, w, grid):
    """``perturbation_gaps`` read from the tables V ⊙ (M' - M) of every
    block."""
    structural = not any(chain.rate_table.row0
                         or chain.rate_table.col0 is not None
                         for chain in (spec, *draws))
    diffs = [difference(spec.rate_table, chain.rate_table) for chain in draws]
    red = forc = gen = 0.0
    for tb in time_blocks(doubled_grid(spec.period, grid)):
        for diff in diffs:
            v = diff.values(tb)
            g = diff.block(v)
            if structural:
                red = grid_sup(red, column_stats(reduced_block(diff, v, w),
                                                 rates=False)[1])
                head = g.forcing()[:, :max(0, *g.offsets)]
                forc = grid_sup(forc, w.weighted_norm(head))
            gen = grid_sup(gen, column_stats(g, rates=False)[1])
    if not structural:
        red = forc = math.nan
    return np.array([red, forc, gen])


def _assert_full_sweep(spec, draws, w, grid):
    got = perturbation_gaps(spec, draws, w, grid=grid)
    want = _materialised_gaps(spec, draws, w, grid)
    assert np.array([got.reduced, got.forcing, got.generator]).tobytes() \
        == want.tobytes()


#: a spike of 1000 at 100 / 256, a node of every grid of 256 and above,
#: whose neighbouring blocks see only the rate 1 (item 7 of the roadmap);
#: at grid 16 it falls between nodes
SPIKE = "1+1000*exp(-1e9*(t-0.390625)*(t-0.390625))"


def test_contracted_suprema_equal_the_materialised_tables(loss_queue):
    # the intensity bounds and the gaps are contracted from V and M, and
    # read only where a block's bound reaches the running supremum; the
    # tables V ⊙ M of every block give the same numbers bit for bit.  At
    # grid 16 the doubled grid is one block, at 256 nine, and so is the
    # validation grid, twice the grid
    rng = np.random.default_rng(31)
    modes = [Perturbation("rate-offsets", eps=0.05, seed=4),
             Perturbation("multiplicative", eps=0.05),
             Perturbation("mass-arrival", eps=0.05)]
    cases = [(loss_queue, modes)]
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        spec = random_chain(rng, kind, int(rng.integers(3, 12)), rate=rich_rate)
        cases += [(spec, modes), (catastrophe_chain(spec, rich_rate(rng)), modes)]
    # a wide table: a member family with one rate function per state
    wide = birth_death_chain(random_family(rng, 9, rich_rate),
                             [rich_rate(rng) for _ in range(9)], 10)
    assert wide.rate_table.wide
    cases.append((wide, modes))
    # a spike on one node: only its block can hold the suprema
    spike = birth_death_chain(
        rate_family(shared=parse_rate(SPIKE, period=1.0),
                    multipliers=rng.uniform(0.5, 2.0, 9)),
        random_family(rng, 9, rich_rate), 10)
    cases.append((spike, modes))
    # an explicit draw whose single services share offset -1 with the
    # base's deaths: that difference is read from its table
    base = random_chain(rng, "birth-death", 9, rate=rich_rate)
    other = batch_service_chain(base.births, {1: rich_rate(rng)}, 10,
                                validation_grid=32)
    assert difference(base.rate_table, other.rate_table).at is not None
    for grid in (16, 256):
        for case, perts in cases:
            spec = case._replace(validation_grid=2 * grid)
            draws = [perturb(spec, pert) for pert in perts]
            for chain in (spec, *draws[:2]):
                assert chain.l_bound == _materialised_l_bound(chain)
            if case is spike and grid >= 256:  # the pruned pass saw it
                assert spec.l_bound > 1000
            w = random_weights(rng, spec.n)
            for some in (draws[:1], draws[:2], draws):
                _assert_full_sweep(spec, some, w, grid)
        _assert_full_sweep(base, [other, perturb(base, modes[0])],
                           random_weights(rng, 9), grid)


def test_pruned_suprema_at_the_default_grid(loss_queue, pair_queue):
    # the bundled queues at the default grid: 129 blocks per draw, and 65
    # on the validation grid
    modes = [Perturbation("rate-offsets", eps=0.01, seed=seed)
             for seed in (1, 2)] + [Perturbation("multiplicative", eps=0.01)]
    for spec, w in ((loss_queue, WeightSequence.unit(299)),
                    (pair_queue, WeightSequence.geometric(2.0, 299))):
        draws = [perturb(spec, pert) for pert in modes]
        for chain in (spec, *draws):
            assert chain.l_bound == _materialised_l_bound(chain)
        _assert_full_sweep(spec, draws, w, ANALYSIS_GRID)
        _assert_full_sweep(spec, [perturb(spec, Perturbation(
            "mass-arrival", eps=0.01))], w, ANALYSIS_GRID)


@pytest.mark.parametrize("name", ["mtmtnn", "pair_arrivals"])
def test_gap_pass_evaluates_few_blocks(name, tmp_path, capsys, monkeypatch):
    # on the bundled studies the block bounds leave out nearly every block
    # of the gap pass and of the intensity bounds: a bound that became inf
    # or lost its tightness would evaluate them all.  A (block, task) pair
    # is evaluated by reading the rate values of a block of the list that
    # ``block_suprema`` was given; the bounds read those of whole runs
    pairs = {bounds_module: 0, model_module: 0}
    evaluated = {bounds_module: 0, model_module: 0}
    listed = {}  # id of a listed block -> the module that listed it
    values = model_module.RateTable.values

    def counted(table, tb):
        if id(tb) in listed:
            evaluated[listed[id(tb)]] += 1
        return values(table, tb)
    monkeypatch.setattr(model_module.RateTable, "values", counted)
    for module in pairs:
        def recorded(blocks, tasks, count, _fn=module.block_suprema,
                     _module=module):
            blocks = list(blocks)
            pairs[_module] += len(blocks) * len(tasks)
            listed.update((id(tb), _module) for tb in blocks)
            try:
                return _fn(blocks, tasks, count)
            finally:
                for tb in blocks:
                    del listed[id(tb)]
        monkeypatch.setattr(module, "block_suprema", recorded)
    scn = Path(model_module.__file__).parent / "scenarios" / f"{name}.scn"
    assert main(["--out", str(tmp_path), "bounds", str(scn)]) == 0
    capsys.readouterr()
    assert pairs[bounds_module] >= 3 * 129 and pairs[model_module] >= 4 * 65
    for module in pairs:
        assert 20 * evaluated[module] <= pairs[module], module


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
