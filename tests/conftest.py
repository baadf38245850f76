"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the package's banded stepper and
class formulas: dense matrices, a local Runge-Kutta step, and explicit
similarity transforms, so that agreement is evidence rather than
tautology.
"""

import numpy as np
import pytest

from ctmcpert import (MassArrivalChain, RateFunction, WeightSequence,
                      batch_arrival_chain, batch_chain, batch_service_chain,
                      birth_death_chain, parse_rate, rate_family)


def dense_rk4(matrix_at, y0, t0, t1, steps):
    """Classical one-step method on a dense matrix function; independent
    of the solver module."""
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    for i in range(steps):
        t = t0 + i * h
        k1 = matrix_at(t) @ y
        k2 = matrix_at(t + h / 2) @ (y + h / 2 * k1)
        k3 = matrix_at(t + h / 2) @ (y + h / 2 * k2)
        k4 = matrix_at(t + h) @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def expm_ode(m, h, steps=400):
    """Matrix exponential of h*m via column-wise integration of the
    identity."""
    m = np.asarray(m, dtype=float)
    return dense_rk4(lambda _t: m, np.eye(len(m)), 0.0, h, steps)


def random_rate(rng, allow_zero=True):
    kind = rng.integers(0, 3)
    lo = 0.0 if allow_zero else 0.1
    if kind == 0:
        return RateFunction.constant(float(rng.uniform(lo, 3.0)), period=1.0)
    amp = float(rng.uniform(0.0, 0.95))
    base = float(rng.uniform(max(lo, 0.1), 2.0))
    fn = "sin" if kind == 1 else "cos"
    return parse_rate(f"{base}*(1+{amp}*{fn}(2*pi*t))", period=1.0)


def rich_rate(rng):
    """Like ``random_rate``, plus exp expressions and periodic step
    tables."""
    kind = rng.integers(0, 3)
    if kind == 0:
        base = float(rng.uniform(0.1, 2.0))
        amp = float(rng.uniform(0.0, 1.5))
        return parse_rate(f"{base}*exp({amp}*sin(2*pi*t))", period=1.0)
    if kind == 1:
        breaks = np.sort(rng.uniform(0.05, 0.95, 2))
        return RateFunction.from_table(
            [(0.0, float(rng.uniform(0.0, 3.0)))]
            + [(float(b), float(rng.uniform(0.0, 3.0))) for b in breaks],
            period=1.0)
    return random_rate(rng)


def random_family(rng, count, rate=random_rate):
    if rng.random() < 0.5:
        return rate_family(shared=rate(rng),
                           multipliers=rng.uniform(0.1, 3.0, count))
    return rate_family(members=[rate(rng) for _ in range(count)])


def random_batches(rng, n, rate=random_rate):
    top = min(n, 6)
    sizes = rng.choice(np.arange(1, top), size=int(rng.integers(1, 4)) if top > 4
                       else 1, replace=False)
    return {int(k): rate(rng) for k in sizes}


def random_chain(rng, kind, n, rate=random_rate):
    """A validated chain of one of the four structural kinds with rates
    drawn by ``rate``."""
    size = n + 1
    if kind == "birth-death":
        return birth_death_chain(random_family(rng, n, rate),
                                 random_family(rng, n, rate),
                                 size, validation_grid=32)
    if kind == "batch-arrival":
        return batch_arrival_chain(random_batches(rng, n, rate),
                                   random_family(rng, n, rate), size,
                                   validation_grid=32)
    if kind == "batch-service":
        return batch_service_chain(random_family(rng, n, rate),
                                   random_batches(rng, n, rate), size,
                                   validation_grid=32)
    return batch_chain(random_batches(rng, n, rate),
                       random_batches(rng, n, rate), size,
                       validation_grid=32)


def family_at(fam, t):
    """A rate family at one time: multipliers times the scalar rate."""
    return fam.multipliers * np.array([f(t) for f in fam.rate_functions])


def dense_generator(chain, t):
    """Dense A(t) from the transition rates of every family a chain sets,
    with the diagonal left at zero: A[i, j] is the rate of the jump
    j -> i."""
    n = chain.n
    m = np.zeros((n + 1, n + 1))
    if isinstance(chain, MassArrivalChain):
        m = dense_generator(chain.base, t)
        ks = np.arange(1, n)
        m[1:n, 0] += chain.eps / (ks * (ks + 1.0))
        m[n, 0] += chain.eps / n
        return m
    js = np.arange(n)
    if chain.births is not None:
        m[js + 1, js] = family_at(chain.births, t)
    if chain.deaths is not None:
        m[js, js + 1] = family_at(chain.deaths, t)
    if chain.services is not None:
        m[js, js + 1] = family_at(chain.services, t)
    for k, fam in chain.arrival_batches.items():
        src = np.arange(n + 1 - k)
        m[src + k, src] = family_at(fam, t)[0]
    for k, fam in chain.service_batches.items():
        src = np.arange(k, n + 1)
        m[src - k, src] = family_at(fam, t)[0]
    if chain.catastrophes is not None:
        m[0, 1:] += family_at(chain.catastrophes, t)
    return m


def dense_full(chain, t):
    """A(t) from the chain's transition rates (``dense_generator``), with
    the diagonal that makes its columns sum to zero."""
    a = dense_generator(chain, t)
    a[np.diag_indices_from(a)] = -a.sum(axis=0)
    return a


def weight_matrices(w):
    """The cumulative weight matrix D = diag(d) U, U upper-triangular ones,
    and its inverse, dense."""
    d = w.values
    return (np.triu(np.tile(d[:, None], (1, len(d)))),
            np.diag(1 / d) - np.diag(1 / d[1:], 1))


def similarity_reduced(chain, w, t):
    """The weighted reduced matrix by the dense similarity transform
    D B D^{-1}, B[i, j] = A[i, j] - A[i, 0] (i, j >= 1) the matrix of the
    system for (p_1, ..., p_n) once p_0 = 1 - sum p_i is eliminated."""
    a = dense_full(chain, t)
    dm, dinv = weight_matrices(w)
    return dm @ (a[1:, 1:] - a[1:, :1]) @ dinv


def log_norm(m):
    """Logarithmic norm induced by the l1 vector norm: the largest column
    sum of (diagonal entry) + (absolute off-diagonal entries)."""
    m = np.asarray(m, dtype=float)
    diag = np.diag(m)
    return float((np.abs(m).sum(axis=0) - np.abs(diag) + diag).max())


def random_weights(rng, n):
    r = rng.random()
    if r < 0.34:
        return WeightSequence.unit(n)
    if r < 0.67:
        return WeightSequence.geometric(float(rng.uniform(1.0, 2.0)), n)
    return WeightSequence(1.0 + np.cumsum(rng.uniform(0.0, 1.0, n)))


@pytest.fixture(scope="session")
def loss_queue():
    """299-server loss queue with 1-periodic arrivals (the first bundled
    study)."""
    lam = parse_rate("200*(1+sin(2*pi*t))", period=1.0)
    mu = RateFunction.constant(1.0)
    return birth_death_chain(lam, rate_family(shared=mu,
                                              multipliers=np.arange(1, 300)),
                             size=300)


@pytest.fixture(scope="session")
def pair_queue():
    """Two-server queue with single and pair arrivals, truncated to 300
    states (the second bundled study)."""
    lam = parse_rate("1+sin(2*pi*t)", period=1.0)
    pairs = parse_rate("0.5*(1+sin(2*pi*t))", period=1.0)
    mu = RateFunction.constant(3.0)
    services = rate_family(shared=mu,
                           multipliers=np.minimum(np.arange(1, 300), 2))
    return batch_arrival_chain({1: lam, 2: pairs}, services, size=300)
