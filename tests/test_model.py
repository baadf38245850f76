import numpy as np
import pytest

from ctmcpert import (ChainValidationError, MassArrivalChain, Perturbation,
                      RateFunction, batch_arrival_chain, batch_chain,
                      batch_service_chain, birth_death_chain,
                      catastrophe_chain, catastrophe_floor_at,
                      catastrophe_reduction_at, generator_at, parse_rate,
                      perturb, rate_family, reduced_system_at)
from ctmcpert.model import TimeBlock
from conftest import dense_generator, random_chain, rich_rate

ONE = RateFunction.constant(1.0)
TWO = RateFunction.constant(2.0)
FOUR = RateFunction.constant(4.0)
ZERO = RateFunction.constant(0.0)


def small_bdp(size=3, grid=32):
    return birth_death_chain(ONE, FOUR, size=size, validation_grid=grid)


# ---------------------------------------------------------------------------
# builders

def test_birth_death_structure():
    a = generator_at(small_bdp(), 0.7).matrix
    assert np.allclose(np.diag(a), [-1, -5, -4])
    assert np.allclose(np.diag(a, 1), [4, 4])
    assert np.allclose(np.diag(a, -1), [1, 1])


def test_birth_death_loss_queue_slice(loss_queue):
    a = generator_at(loss_queue, 0.25).matrix
    assert a[0, 0] == pytest.approx(-400.0)
    assert a[1, 0] == pytest.approx(400.0)
    # service from state k at rate k
    assert np.allclose(np.diag(a, 1), np.arange(1, 300))
    assert loss_queue.l_bound == pytest.approx(698.0)


def test_absorbing_everywhere():
    spec = birth_death_chain(ZERO, ZERO, size=2, validation_grid=16)
    assert np.allclose(generator_at(spec, 3.0).matrix, 0.0)


def test_batch_arrival_two_state():
    spec = batch_arrival_chain({1: ONE}, ONE, size=2, validation_grid=16)
    assert np.allclose(generator_at(spec, 0.0).matrix, [[-1, 1], [1, -1]])


def test_batch_arrival_pure_death_degenerate():
    spec = batch_arrival_chain({1: ZERO}, FOUR, size=5, validation_grid=16)
    bdp = birth_death_chain(ZERO, FOUR, size=5, validation_grid=16)
    assert np.allclose(generator_at(spec, 0.3).matrix,
                       generator_at(bdp, 0.3).matrix)


def test_pair_queue_structure(pair_queue):
    a = generator_at(pair_queue, 0.25).matrix
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
    a = generator_at(spec, 0.1).matrix
    assert np.allclose(np.diag(a, -1), 1.0)
    assert np.allclose(np.triu(a, 1), 0.0)


def test_batch_service_single_size_equals_birth_death():
    spec = batch_service_chain(ONE, {1: TWO}, size=7, validation_grid=16)
    bdp = birth_death_chain(ONE, TWO, size=7, validation_grid=16)
    assert np.allclose(generator_at(spec, 0.4).matrix,
                       generator_at(bdp, 0.4).matrix)


def test_batch_service_exact_group_size():
    # service groups larger than the population cannot fire
    spec = batch_service_chain(ONE, {3: TWO}, size=6, validation_grid=16)
    a = generator_at(spec, 0.0).matrix
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
        a1 = generator_at(full, t).matrix
        a2 = generator_at(arrivals_only, t).matrix
        assert a1[i, j] == a2[i, j]
        b1 = generator_at(services, t).matrix
        b2 = generator_at(services_only, t).matrix
        assert b1[i, j] == b2[i, j]


def test_batch_chain_zero_generator():
    spec = batch_chain({1: ZERO}, {1: ZERO}, size=4, validation_grid=16)
    assert np.allclose(generator_at(spec, 1.0).matrix, 0.0)


def test_catastrophe_overlay():
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.3))
    a = generator_at(cat, 0.0).matrix
    assert np.allclose(a[0, 2:], 0.3)
    assert a[0, 1] == pytest.approx(4.0 + 0.3)
    assert catastrophe_floor_at(cat, 0.0) == pytest.approx(0.3)
    # zero catastrophes reproduce the base generator entrywise
    null = catastrophe_chain(small_bdp(size=6), ZERO)
    base = generator_at(small_bdp(size=6), 0.2).matrix
    assert np.allclose(generator_at(null, 0.2).matrix, base)


def test_catastrophe_floor_truncated_inf():
    n = 100
    rates = rate_family(members=[RateFunction.constant(0.3 + 1.0 / k)
                                 for k in range(1, n + 1)])
    cat = catastrophe_chain(birth_death_chain(ZERO, ZERO, size=n + 1,
                                              validation_grid=16), rates)
    # the infimum runs over the truncated range only
    assert catastrophe_floor_at(cat, 0.0) == pytest.approx(0.31)


def test_catastrophe_reduction():
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.3))
    red = catastrophe_reduction_at(cat, 0.0)
    assert red.floor == pytest.approx(0.3)
    assert np.allclose(red.forcing, [0.3] + [0.0] * 5)
    assert red.matrix[0, 2] == pytest.approx(0.0)
    assert np.all(red.matrix - np.diag(np.diag(red.matrix)) >= 0)
    # every column of the reduced matrix sums to -floor
    assert np.allclose(red.matrix.sum(axis=0), -0.3)
    with pytest.raises(ValueError, match="catastrophe"):
        catastrophe_reduction_at(small_bdp(), 0.0)


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
            a = generator_at(spec, float(t)).matrix
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


def test_reduced_system_consistency():
    rng = np.random.default_rng(3)
    for kind in ("birth-death", "batch-arrival", "batch-service", "batch"):
        spec = random_chain(rng, kind, 12)
        for t in (0.0, 0.37, 0.81):
            a = generator_at(spec, t).matrix
            red = reduced_system_at(spec, t)
            p = rng.dirichlet(np.ones(13))
            z = p[1:]
            rhs_full = (a @ p)[1:]
            rhs_reduced = red.matrix @ z + red.forcing
            assert np.abs(rhs_full - rhs_reduced).max() < 1e-12


def test_reduced_system_examples():
    tiny = birth_death_chain(ONE, FOUR, size=2, validation_grid=16)
    red = reduced_system_at(tiny, 0.0)
    assert np.allclose(red.matrix, [[-5.0]])
    assert np.allclose(red.forcing, [1.0])
    zero = birth_death_chain(ZERO, ZERO, size=4, validation_grid=16)
    red0 = reduced_system_at(zero, 1.0)
    assert np.allclose(red0.matrix, 0.0) and np.allclose(red0.forcing, 0.0)
    # catastrophes live in row 0 of the generator, so they shift the
    # reduced matrix, not the forcing; the floor forcing belongs to the
    # catastrophe reduction instead
    cat = catastrophe_chain(small_bdp(size=6), RateFunction.constant(0.25))
    redc = reduced_system_at(cat, 0.0)
    assert np.allclose(redc.forcing, [1, 0, 0, 0, 0])
    assert catastrophe_reduction_at(cat, 0.0).forcing[0] >= 0.25


# ---------------------------------------------------------------------------
# perturbations

def test_perturb_identity_at_zero():
    spec = small_bdp(size=8)
    for mode in ("rate-offsets", "multiplicative", "mass-arrival"):
        pert = perturb(spec, Perturbation(mode, eps=0.0, seed=4))
        for t in (0.0, 0.6):
            assert np.allclose(generator_at(pert, t).matrix,
                               generator_at(spec, t).matrix)


def test_mass_arrival_column():
    spec = small_bdp(size=11)
    pert = perturb(spec, Perturbation("mass-arrival", eps=0.1))
    a = generator_at(pert, 0.0).matrix
    base = generator_at(spec, 0.0).matrix
    extra = a[:, 0] - base[:, 0]
    ks = np.arange(1, 10)
    assert np.allclose(extra[1:10], 0.1 / (ks * (ks + 1)))
    assert extra[10] == pytest.approx(0.1 / 10)  # lumped tail keeps balance
    assert extra[0] == pytest.approx(-0.1)
    assert np.allclose(a[:, 1:], base[:, 1:])


def test_multiplicative_scaling():
    spec = birth_death_chain(ONE, FOUR, size=2, validation_grid=16)
    pert = perturb(spec, Perturbation("multiplicative", eps=0.5))
    assert np.allclose(generator_at(pert, 0.0).matrix,
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
            diff = generator_at(pert, float(t)).matrix \
                - generator_at(spec, float(t)).matrix
            off = diff - np.diag(np.diag(diff))
            assert np.abs(off).max() <= eps + 1e-12
        # determinism: the same seed reproduces the draw
        again = perturb(spec, Perturbation("rate-offsets", eps=eps, seed=seed))
        assert np.allclose(generator_at(again, 0.3).matrix,
                           generator_at(pert, 0.3).matrix)


def test_offsets_never_produce_negative_rates():
    # the birth rate vanishes at t = 0.75; shaped offsets must respect that
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    spec = birth_death_chain(lam, FOUR.with_period(1.0), size=6,
                             validation_grid=256)
    for seed in range(6):
        pert = perturb(spec, Perturbation("rate-offsets", eps=0.3, seed=seed))
        a = generator_at(pert, 0.75).matrix
        assert np.diag(a, -1).min() >= 0


def test_catastrophes_over_batch_base():
    base = batch_arrival_chain({1: ONE, 2: RateFunction.constant(0.5)}, TWO,
                               size=7, validation_grid=16)
    cat = catastrophe_chain(base, RateFunction.constant(0.4))
    a = generator_at(cat, 0.1).matrix
    base_a = generator_at(base, 0.1).matrix
    assert np.allclose(a[0, 1:], base_a[0, 1:] + 0.4)
    assert np.abs(a.sum(axis=0)).max() < 1e-12
    assert catastrophe_floor_at(cat, 0.1) == pytest.approx(0.4)


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
    a = generator_at(chain, 0.0).matrix
    assert np.all(a[np.arange(1, 5), np.arange(4)] == 5.0)


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
