import tracemalloc

import numpy as np
import pytest

from ctmcpert import (ChainValidationError, MassArrivalChain, Perturbation,
                      RateFunction, WeightSequence, batch_arrival_chain,
                      batch_chain, batch_service_chain, birth_death_chain,
                      catastrophe_chain, parse_rate, perturb, rate_family)
from ctmcpert.analysis import weighted_reduced_bands
from ctmcpert.model import (NODE_BLOCK, RATE_NODES, RateFamily, TimeBlock,
                            _built, _validate_family, time_blocks)
from ctmcpert.quadrature import doubled_grid
from conftest import (dense_generator, random_chain, random_family, rich_rate,
                      weight_matrices)

ONE = RateFunction.constant(1.0)
TWO = RateFunction.constant(2.0)
FOUR = RateFunction.constant(4.0)
ZERO = RateFunction.constant(0.0)


def small_bdp(size=3, grid=32):
    return birth_death_chain(ONE, FOUR, size=size, validation_grid=grid)


def _floor(chain, t):
    """Smallest direct-to-zero intensity over states 1..n at time t, the
    floor that the uniform catastrophe certificate integrates."""
    return float(chain.bands_block(TimeBlock(t)).direct_to_zero()[0].min())


# ---------------------------------------------------------------------------
# builders

def test_birth_death_structure():
    a = small_bdp().bands_at(0.7).dense()
    assert np.allclose(np.diag(a), [-1, -5, -4])
    assert np.allclose(np.diag(a, 1), [4, 4])
    assert np.allclose(np.diag(a, -1), [1, 1])


def test_birth_death_loss_queue_slice(loss_queue):
    a = loss_queue.bands_at(0.25).dense()
    assert a[0, 0] == pytest.approx(-400.0)
    assert a[1, 0] == pytest.approx(400.0)
    # service from state k at rate k
    assert np.allclose(np.diag(a, 1), np.arange(1, 300))
    assert loss_queue.l_bound == pytest.approx(698.0)


def test_absorbing_everywhere():
    spec = birth_death_chain(ZERO, ZERO, size=2, validation_grid=16)
    assert np.allclose(spec.bands_at(3.0).dense(), 0.0)


def test_batch_arrival_two_state():
    spec = batch_arrival_chain({1: ONE}, ONE, size=2, validation_grid=16)
    assert np.allclose(spec.bands_at(0.0).dense(), [[-1, 1], [1, -1]])


def test_batch_arrival_pure_death_degenerate():
    spec = batch_arrival_chain({1: ZERO}, FOUR, size=5, validation_grid=16)
    bdp = birth_death_chain(ZERO, FOUR, size=5, validation_grid=16)
    assert np.allclose(spec.bands_at(0.3).dense(),
                       bdp.bands_at(0.3).dense())


def test_pair_queue_structure(pair_queue):
    a = pair_queue.bands_at(0.25).dense()
    lam = 2.0  # 1 + sin(pi/2)
    assert a[1, 0] == pytest.approx(lam)
    assert a[2, 0] == pytest.approx(0.5 * lam)
    assert a[3, 0] == 0.0
    assert a[0, 1] == pytest.approx(3.0)
    assert a[1, 2] == pytest.approx(6.0)
    assert a[1, 1] == pytest.approx(-(1.5 * lam + 3.0))
    assert a[2, 2] == pytest.approx(-(1.5 * lam + 6.0))


def test_batch_service_pure_birth():
    spec = batch_service_chain(ONE, {1: ZERO}, size=5, validation_grid=16)
    a = spec.bands_at(0.1).dense()
    assert np.allclose(np.diag(a, -1), 1.0)
    assert np.allclose(np.triu(a, 1), 0.0)


def test_batch_service_single_size_equals_birth_death():
    spec = batch_service_chain(ONE, {1: TWO}, size=7, validation_grid=16)
    bdp = birth_death_chain(ONE, TWO, size=7, validation_grid=16)
    assert np.allclose(spec.bands_at(0.4).dense(),
                       bdp.bands_at(0.4).dense())


def test_batch_service_exact_group_size():
    # service groups larger than the population cannot fire
    spec = batch_service_chain(ONE, {3: TWO}, size=6, validation_grid=16)
    a = spec.bands_at(0.0).dense()
    assert a[0, 3] == 2.0
    assert a[0, 1] == 0.0 and a[0, 2] == 0.0
    assert a[1, 1] == -1.0  # state 1 has no service of size 3


def test_batch_reductions():
    rng = np.random.default_rng(5)
    half = RateFunction.constant(0.5)
    full = batch_chain({1: ONE, 2: half}, {}, size=9, validation_grid=16)
    arrivals_only = batch_arrival_chain({1: ONE, 2: half}, ZERO, size=9,
                                        validation_grid=16)
    services = batch_chain({}, {1: ONE, 3: half}, size=9, validation_grid=16)
    services_only = batch_service_chain(ZERO, {1: ONE, 3: half}, size=9,
                                        validation_grid=16)
    for _ in range(100):
        t = float(rng.uniform(0, 2))
        i, j = rng.integers(0, 9, size=2)
        a1 = full.bands_at(t).dense()
        a2 = arrivals_only.bands_at(t).dense()
        assert a1[i, j] == a2[i, j]
        b1 = services.bands_at(t).dense()
        b2 = services_only.bands_at(t).dense()
        assert b1[i, j] == b2[i, j]


def test_batch_chain_zero_generator():
    spec = batch_chain({1: ZERO}, {1: ZERO}, size=4, validation_grid=16)
    assert np.allclose(spec.bands_at(1.0).dense(), 0.0)


def test_catastrophe_overlay():
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.3))
    a = cat.bands_at(0.0).dense()
    assert np.allclose(a[0, 2:], 0.3)
    assert a[0, 1] == pytest.approx(4.0 + 0.3)
    assert _floor(cat, 0.0) == pytest.approx(0.3)
    # zero catastrophes reproduce the base generator entrywise
    null = catastrophe_chain(small_bdp(size=6), ZERO)
    base = small_bdp(size=6).bands_at(0.2).dense()
    assert np.allclose(null.bands_at(0.2).dense(), base)


def test_catastrophe_floor_truncated_inf():
    n = 100
    rates = rate_family(members=[RateFunction.constant(0.3 + 1.0 / k)
                                 for k in range(1, n + 1)])
    cat = catastrophe_chain(birth_death_chain(ZERO, ZERO, size=n + 1,
                                              validation_grid=16), rates)
    # the infimum runs over the truncated range only
    assert _floor(cat, 0.0) == pytest.approx(0.31)


def test_catastrophe_reduction():
    # subtracting the floor from row 0 (into a forcing term floor * e_0)
    # leaves an essentially nonnegative matrix
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.3))
    a = cat.bands_at(0.0).dense()
    floor = a[0, 1:].min()
    assert floor == pytest.approx(0.3) and floor == _floor(cat, 0.0)
    a[0] -= floor
    assert a[0, 2] == pytest.approx(0.0)
    assert np.all(a - np.diag(np.diag(a)) >= 0)
    # every column of the reduced matrix sums to -floor
    assert np.allclose(a.sum(axis=0), -0.3)


@pytest.mark.parametrize("kind", ["birth-death", "batch-arrival",
                                  "batch-service", "batch"])
def test_catastrophe_slots_follow_base_slots(kind):
    # offset draws walk the slots in this order, so it fixes their stream
    base = random_chain(np.random.default_rng(5), kind, 7)
    cat = catastrophe_chain(base, RateFunction.constant(0.3))
    assert [name for name, _ in cat.rate_slots()] == \
        [name for name, _ in base.rate_slots()] + ["catastrophe"]


def test_catastrophes_are_not_stacked():
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.3))
    with pytest.raises(TypeError):
        catastrophe_chain(cat, RateFunction.constant(0.1))
    mass = perturb(small_bdp(size=6), Perturbation("mass-arrival", eps=0.1))
    with pytest.raises(TypeError):
        catastrophe_chain(mass, RateFunction.constant(0.1))


# ---------------------------------------------------------------------------
# generator invariants

@pytest.mark.parametrize("kind", ["birth-death", "batch-arrival",
                                  "batch-service", "batch"])
def test_generator_invariants(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(5):
        spec = random_chain(rng, kind, int(rng.integers(3, 15)))
        for t in rng.uniform(0, 2, size=4):
            a = spec.bands_at(float(t)).dense()
            assert np.abs(a.sum(axis=0)).max() < 1e-12
            off = a - np.diag(np.diag(a))
            assert off.min() >= 0
            # l1 norm of a conservative generator is twice the worst diagonal
            assert np.abs(a).sum(axis=0).max() == pytest.approx(
                2 * np.abs(np.diag(a)).max(), rel=1e-12)


def test_block_bands_equal_scalar_rates():
    # every band entry of a block is multiplier * RateFunction.__call__(t),
    # bit for bit, exp expressions and step tables included
    rng = np.random.default_rng(31)
    chains = []
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(3):
            chains.append(random_chain(rng, kind, int(rng.integers(3, 12)),
                                       rate=rich_rate))
    for base in chains[::3]:
        cat = catastrophe_chain(base, rich_rate(rng))
        chains += [cat, perturb(cat, Perturbation("mass-arrival", eps=0.1))]
    chains.append(perturb(chains[1], Perturbation("mass-arrival", eps=0.2)))
    ts = np.concatenate((rng.uniform(0, 2, 6), [0.0, 1.0]))
    for chain in chains:
        block = chain.bands_block(TimeBlock(ts))
        assert block.diag.shape == (len(ts), chain.size)
        # rows in fill order (up jumps, then down jumps, each by size), and
        # the diagonal adds them in that order, then the overlays
        assert list(block.offsets) == sorted(block.offsets,
                                             key=lambda k: (k < 0, abs(k)))
        sums = np.zeros((len(ts), chain.size))
        for i in range(len(block.offsets)):
            sums += block.data[:, i]
        if block.row0 is not None:
            sums[:, 1:] += block.row0[:, 1:]
        if block.col0 is not None:
            sums[:, 0] += block.col0[1:].sum()
        assert np.array_equal(block.diag, -sums)
        for i, t in enumerate(ts):
            a = block.at(i).dense()
            off = a - np.diag(np.diag(a))
            assert np.array_equal(off, dense_generator(chain, float(t)))
            assert np.abs(a.sum(axis=0)).max() <= 1e-12 * max(1.0, off.max())


def test_time_blocks_slice_one_evaluation_per_run(monkeypatch):
    # over the doubled grid of 8193 nodes, every block's rate values are
    # bit for bit, signed zeros included, those of the block's own nodes,
    # though each function is evaluated once per run of RATE_NODES: an
    # expression (-0.0 at t = 0), a step table, a constant, and a pole
    # that is inf at node 4097/8192 without a warning
    fns = [parse_rate("-t*exp(sin(2*pi*t))", period=1.0),
           RateFunction.from_table([(0, 1), (0.25, 3.5), (0.7, 0.4)],
                                   period=1.0),
           TWO,
           parse_rate("1+0.001/((t-0.5001220703125)*(t-0.5001220703125))")]
    ts = doubled_grid(1.0, 4096)
    calls, plain = [], RateFunction.values

    def counted(fn, nodes):
        calls.append(len(nodes))
        return plain(fn, nodes)

    monkeypatch.setattr(RateFunction, "values", counted)
    blocks = list(time_blocks(ts))
    assert [len(tb) for tb in blocks] == [NODE_BLOCK] * 128 + [1]
    assert np.concatenate([tb.ts for tb in blocks]).tobytes() == ts.tobytes()
    got = [[tb.rate(fn) for tb in blocks] for fn in fns]
    assert calls == ([RATE_NODES] * 8 + [1]) * len(fns)
    with np.errstate(divide="ignore"):
        for fn, values in zip(fns, got):
            for tb, v in zip(blocks, values):
                assert v.tobytes() == plain(fn, tb.ts).tobytes()
    assert np.signbit(got[0][0][0]) and got[3][64][1] == np.inf


def test_draw_bounds_reuse_the_validated_values(monkeypatch):
    # the draws of perturb share the base's rate functions: their intensity
    # bounds, boxes included, read the values that validation left on the
    # validation grid's runs, and evaluate no rate function again
    rng = np.random.default_rng(5)
    for kind in ("birth-death", "batch"):
        spec = random_chain(rng, kind, 9, rate=rich_rate)
        spec = spec._replace(validation_grid=4 * RATE_NODES)
        assert spec.l_bound > 0 and spec._family_sups
        calls, plain = [], RateFunction.values

        def counted(fn, nodes):
            calls.append(len(nodes))
            return plain(fn, nodes)

        monkeypatch.setattr(RateFunction, "values", counted)
        for pert in (Perturbation("multiplicative", eps=0.05),
                     Perturbation("rate-offsets", eps=0.05, seed=2)):
            assert perturb(spec, pert).l_bound > 0
        monkeypatch.undo()
        assert calls == []


def _reduced_matrix(chain, t):
    """B = D^{-1} (D B D^{-1}) D from the weighted reduced table with unit
    weights."""
    w = WeightSequence.unit(chain.n)
    dm, dinv = weight_matrices(w)
    return dinv @ weighted_reduced_bands(chain, w, t).dense() @ dm


def test_reduced_system_consistency():
    # eliminating p_0 = 1 - sum(p_i) leaves dz/dt = B z + A[1:, 0] for
    # z = (p_1, ..., p_n), B[i, j] = A[i, j] - A[i, 0]
    rng = np.random.default_rng(3)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        spec = random_chain(rng, kind, 12)
        for t in (0.0, 0.37, 0.81):
            a = spec.bands_at(t).dense()
            p = rng.dirichlet(np.ones(13))
            z = p[1:]
            rhs_full = (a @ p)[1:]
            rhs_reduced = _reduced_matrix(spec, t) @ z + a[1:, 0]
            assert np.abs(rhs_full - rhs_reduced).max() < 1e-12


def test_reduced_system_examples():
    tiny = birth_death_chain(ONE, FOUR, size=2, validation_grid=16)
    assert np.allclose(_reduced_matrix(tiny, 0.0), [[-5.0]])
    assert np.allclose(tiny.bands_at(0.0).dense()[1:, 0], [1.0])
    zero = birth_death_chain(ZERO, ZERO, size=4, validation_grid=16)
    assert np.allclose(_reduced_matrix(zero, 1.0), 0.0)
    assert np.allclose(zero.bands_at(1.0).dense()[1:, 0], 0.0)
    # catastrophes live in row 0 of the generator, so they leave the
    # forcing A[1:, 0] alone; the floor forcing belongs to the
    # catastrophe reduction instead
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.25))
    assert np.allclose(cat.bands_at(0.0).dense()[1:, 0], [1, 0, 0, 0, 0])
    assert _floor(cat, 0.0) >= 0.25


# ---------------------------------------------------------------------------
# perturbations

def test_perturb_identity_at_zero():
    spec = small_bdp(size=8)
    for mode in ("rate-offsets", "multiplicative", "mass-arrival"):
        pert = perturb(spec, Perturbation(mode, eps=0.0, seed=4))
        for t in (0.0, 0.6):
            assert np.allclose(pert.bands_at(t).dense(),
                               spec.bands_at(t).dense())


def test_mass_arrival_column():
    spec = small_bdp(size=11)
    pert = perturb(spec, Perturbation("mass-arrival", eps=0.1))
    a = pert.bands_at(0.0).dense()
    base = spec.bands_at(0.0).dense()
    extra = a[:, 0] - base[:, 0]
    ks = np.arange(1, 10)
    assert np.allclose(extra[1:10], 0.1 / (ks * (ks + 1)))
    assert extra[10] == pytest.approx(0.1 / 10)  # lumped tail keeps balance
    assert extra[0] == pytest.approx(-0.1)
    assert np.allclose(a[:, 1:], base[:, 1:])


def test_multiplicative_scaling():
    spec = birth_death_chain(ONE, FOUR, size=2, validation_grid=16)
    pert = perturb(spec, Perturbation("multiplicative", eps=0.5))
    assert np.allclose(pert.bands_at(0.0).dense(),
                       [[-1.5, 6.0], [1.5, -6.0]])


def test_rate_offsets_bounded_and_valid():
    rng_seeds = [1, 2, 3]
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    spec = birth_death_chain(lam, FOUR.with_period(1.0), size=12,
                             validation_grid=128)
    eps = 0.05
    ts = np.linspace(0, 1, 41)
    for seed in rng_seeds:
        pert = perturb(spec, Perturbation("rate-offsets", eps=eps, seed=seed))
        for t in ts:
            diff = pert.bands_at(float(t)).dense() \
                - spec.bands_at(float(t)).dense()
            off = diff - np.diag(np.diag(diff))
            assert np.abs(off).max() <= eps + 1e-12
        # determinism: the same seed reproduces the draw
        again = perturb(spec, Perturbation("rate-offsets", eps=eps, seed=seed))
        assert np.allclose(again.bands_at(0.3).dense(),
                           pert.bands_at(0.3).dense())


def test_offsets_never_produce_negative_rates():
    # the birth rate vanishes at t = 0.75; shaped offsets must respect that
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    spec = birth_death_chain(lam, FOUR.with_period(1.0), size=6,
                             validation_grid=256)
    for seed in range(6):
        pert = perturb(spec, Perturbation("rate-offsets", eps=0.3, seed=seed))
        a = pert.bands_at(0.75).dense()
        assert np.diag(a, -1).min() >= 0


def test_draw_bound_equals_a_fresh_build():
    # a seeded or scaled draw skips the validation of its families, whose
    # rate functions are the base's; its intensity bound and the
    # declared-bound check are those of a chain built afresh
    rng = np.random.default_rng(12)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        spec = random_chain(rng, kind, int(rng.integers(3, 12)),
                            rate=rich_rate)
        for pert in (Perturbation("rate-offsets", eps=0.2, seed=5),
                     Perturbation("multiplicative", eps=0.2)):
            draw = perturb(spec, pert)
            assert draw.l_bound == _built(draw._replace()).l_bound
            tight = spec._replace(declared_bound=spec.l_bound)
            if pert.mode == "multiplicative":
                with pytest.raises(ChainValidationError, match="declared"):
                    perturb(tight, pert)


def test_catastrophes_over_batch_base():
    base = batch_arrival_chain({1: ONE, 2: RateFunction.constant(0.5)}, TWO,
                               size=7, validation_grid=16)
    cat = catastrophe_chain(base, RateFunction.constant(0.4))
    a = cat.bands_at(0.1).dense()
    base_a = base.bands_at(0.1).dense()
    assert np.allclose(a[0, 1:], base_a[0, 1:] + 0.4)
    assert np.abs(a.sum(axis=0)).max() < 1e-12
    assert _floor(cat, 0.1) == pytest.approx(0.4)


def test_batch_size_out_of_range():
    with pytest.raises(ChainValidationError, match="batch size"):
        batch_arrival_chain({9: ONE}, ONE, size=5, validation_grid=16)
    with pytest.raises(ChainValidationError, match="batch size"):
        batch_service_chain(ONE, {0: ONE}, size=5, validation_grid=16)


def test_batch_rate_takes_one_multiplier():
    # a batch rate is the same from every source state, so a family with
    # several multipliers has no meaning there
    fam = rate_family(shared=ONE, multipliers=[1, 5, 9])
    with pytest.raises(ChainValidationError,
                       match=r"arrival\[1\]: a batch rate takes one "
                             r"multiplier, got 3"):
        batch_arrival_chain({1: fam}, ONE, size=5, validation_grid=16)
    with pytest.raises(ChainValidationError, match=r"service\[2\]"):
        batch_service_chain(ONE, {2: fam}, size=5, validation_grid=16)
    # one multiplier scales the rate from every source state
    chain = batch_arrival_chain({1: rate_family(shared=ONE, multipliers=[5])},
                                ONE, size=5, validation_grid=16)
    a = chain.bands_at(0.0).dense()
    assert np.all(a[np.arange(1, 5), np.arange(4)] == 5.0)


def test_rate_family_errors():
    with pytest.raises(ValueError, match="either shared or members"):
        rate_family(multipliers=[1.0, 2.0])
    with pytest.raises(ValueError, match="count is required"):
        rate_family(shared=ONE)
    # one member for three multipliers is not read as a shared family
    for members in ([ONE], [ONE, FOUR]):
        with pytest.raises(ValueError, match="member count"):
            rate_family(members=members, multipliers=[1.0, 2.0, 3.0])
    assert rate_family(members=[ONE], multipliers=[2.0]).count == 1
    assert rate_family(shared=ONE, multipliers=[1.0, 2.0, 3.0]).count == 3


def test_perturbation_validation():
    with pytest.raises(ValueError, match="mode"):
        Perturbation("wobble", eps=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        Perturbation("multiplicative", eps=-0.1)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Perturbation("mass-arrival", eps=eps)
        with pytest.raises(ValueError, match="finite"):
            MassArrivalChain(birth_death_chain(ONE, FOUR, size=3,
                                               validation_grid=16), eps)
    with pytest.raises(ValueError, match="mode"):
        Perturbation("explicit", eps=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validation_errors():
    # a rate that divides by zero fails validation without a numpy warning
    for rate in ("1/0", "1/(t-t)"):
        with pytest.raises(ChainValidationError, match="non-finite"):
            birth_death_chain(parse_rate(rate), FOUR, size=3,
                              validation_grid=16)
    with pytest.raises(ChainValidationError, match="negative"):
        birth_death_chain(parse_rate("sin(2*pi*t)", period=1.0), FOUR,
                          size=3, validation_grid=64)
    with pytest.raises(ChainValidationError, match="bound"):
        birth_death_chain(ONE, FOUR, size=3, declared_bound=4.0,
                          validation_grid=16)
    with pytest.raises(ChainValidationError, match="covers"):
        birth_death_chain(rate_family(shared=ONE, count=5), FOUR, size=3,
                          validation_grid=16)
    with pytest.raises(ChainValidationError, match="period"):
        birth_death_chain(parse_rate("1+sin(2*pi*t)", period=1.0),
                          parse_rate("2+cos(t)"), size=3, validation_grid=16)
    with pytest.raises(ChainValidationError, match="conflicting"):
        birth_death_chain(parse_rate("1+sin(2*pi*t)", period=1.0),
                          parse_rate("2+cos(pi*t)", period=2.0), size=3,
                          validation_grid=16)
    for period in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ChainValidationError, match="positive and finite"):
            birth_death_chain(ONE.with_period(period), FOUR, size=3,
                              validation_grid=16)


def _family_check_of_products(fam, ts):
    """The family check on every product rate value x multiplier, as a
    reference: the message of the first failure, or None."""
    if np.any(fam.multipliers < 0):
        return "negative multiplier"
    with np.errstate(all="ignore"):
        grid = fam.values(TimeBlock(ts)) * fam.multipliers
    if not np.all(np.isfinite(grid)):
        return "non-finite rate value on the grid"
    if np.any(grid < 0):
        i_t, _ = np.unravel_index(int(np.argmin(grid)), grid.shape)
        return f"negative rate value at t={ts[i_t]}"
    return None


def _family_check_message(fam, blocks):
    try:
        _validate_family("f", fam, blocks)
    except ChainValidationError as exc:
        return str(exc).removeprefix("f: ")
    return None


def test_family_check_without_products():
    # the check reads a shared family's rate values times its largest
    # multiplier; it must accept and reject what the products would
    ts = np.linspace(0.0, 1.0, 65)
    blocks = tuple(time_blocks(ts))
    wave = parse_rate("sin(2*pi*t)", period=1.0)
    tiny = parse_rate("-1e-300")
    cases = [
        (rate_family(shared=ONE, multipliers=[1.0, -0.5]), "negative multiplier"),
        (rate_family(shared=wave, multipliers=[0.5, 2.0, 1.0]),
         "negative rate value at t=0.75"),
        (rate_family(members=[ONE, wave], multipliers=[1.0, 3.0]),
         "negative rate value at t=0.75"),
        (rate_family(shared=parse_rate("(t-t)/(t-t)"), count=2), "non-finite"),
        (rate_family(shared=parse_rate("1/t"), count=2), "non-finite"),
        (rate_family(shared=RateFunction.constant(1e300),
                     multipliers=[1.0, 1e10]), "non-finite"),
        (rate_family(shared=ONE, multipliers=[1.0, np.inf]), "non-finite"),
        # -1e-300 x 1e-300 rounds to -0.0: no negative product, no error
        (rate_family(shared=tiny, multipliers=[1e-300, 0.5e-300]), None),
        (rate_family(shared=tiny, multipliers=[1e-300, 1e-10]),
         "negative rate value at t=0.0"),
        (rate_family(shared=wave, multipliers=[0.0, 0.0]), None),
        (rate_family(shared=RateFunction.constant(1e300),
                     multipliers=[1.0, 1.5]), None),
    ]
    for fam, want in cases:
        ref = _family_check_of_products(fam, ts)
        assert ref == want or want in ref
        assert _family_check_message(fam, blocks) == ref
    with pytest.raises(ChainValidationError, match=r"birth: negative rate "
                                                   r"value at t=0\.75"):
        birth_death_chain(wave, FOUR, size=3, validation_grid=64)
    # random shared and member families, signs mixed by an offset
    rng = np.random.default_rng(5)
    for _ in range(40):
        fam = random_family(rng, int(rng.integers(1, 6)))
        shift = float(rng.uniform(-2.0, 0.5))
        fns = [parse_rate(f"{f.canonical()}+({shift})", period=1.0)
               for f in fam.rate_functions]
        fam = RateFamily(fam.multipliers, fns)
        assert _family_check_message(fam, blocks) == \
            _family_check_of_products(fam, ts)


def test_family_sups_equal_the_largest_products():
    # fl(max v * m) is the largest fl(v * m) for m >= 0, bit for bit
    rng = np.random.default_rng(8)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        for _ in range(3):
            spec = random_chain(rng, kind, int(rng.integers(3, 12)),
                                rate=rich_rate)
            tb = TimeBlock(np.linspace(0.0, 1.0, spec.validation_grid + 1))
            for name, fam in spec.rate_slots():
                want = (fam.values(tb) * fam.multipliers).max(axis=0)
                assert spec._family_sups[name].tobytes() == want.tobytes()


def test_building_allocates_no_full_grid_table():
    # the 300-state loss queue validates on 4097 nodes: a (4097, 299)
    # table of its products would take 9.8 MB; its build and the family
    # suprema of its offset draws stay far below
    lam = parse_rate("200*(1+sin(2*pi*t))", period=1.0)
    deaths = rate_family(shared=ONE, multipliers=np.arange(1, 300))
    tracemalloc.start()
    try:
        chain = birth_death_chain(lam, deaths, size=300)
        chain._family_sups
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.l_bound == 698.0
    assert peak < 2e6
