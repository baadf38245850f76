"""Independent references for the benchmark's output checks.

Nothing here calls ctmcpert.  Generators are dense matrices assembled from
the scenario rates written out as numpy functions, and every reference
(reduced matrices, similarity transforms, log-norms, stationary solves,
bound formulas) is computed on those matrices.
"""

from __future__ import annotations

import math

import numpy as np

#: nodes of one period in the validation grid that shapes the offset draws
VALIDATION_NODES = 4097
#: nodes of one period in the certificate grid (the grid doubled once)
CERTIFICATE_NODES = 8193


class Term:
    """One rate family of a chain: ``f(t) * mult[member]`` moves a source
    state by ``shift``.

    A shared family has one member per source state, starting at state
    ``first``; a batch family has a single member covering every source
    the jump keeps inside 0..n.
    """

    def __init__(self, f, shift: int, size: int, mult=None, first: int = 0):
        self.f = f
        n = size - 1
        self.member_of_col = np.full(size, -1)
        col_mult = np.zeros(size)
        if mult is None:
            self.member_mult = np.ones(1)
            lo, hi = max(0, -shift), min(n, n - shift)
            self.member_of_col[lo:hi + 1] = 0
            col_mult[lo:hi + 1] = 1.0
        else:
            self.member_mult = np.asarray(mult, dtype=float)
            cols = first + np.arange(len(self.member_mult))
            self.member_of_col[cols] = np.arange(len(self.member_mult))
            col_mult[cols] = self.member_mult
        self.matrix = np.zeros((size, size))
        src = np.nonzero(self.member_of_col >= 0)[0]
        self.matrix[src + shift, src] += col_mult[src]
        self.matrix[src, src] -= col_mult[src]


class DenseChain:
    """A(t) = sum of f_i(t) M_i; columns are source states and sum to 0.

    ``terms`` are listed in the order ctmcpert's rate-offset recipe draws
    them (births, deaths, services, then arrival and service batches by
    size), so that seeded draws can be replayed.
    """

    def __init__(self, size: int, period: float, terms: list[Term]):
        self.size = size
        self.n = size - 1
        self.period = period
        self.terms = terms

    def matrices(self, factors=None) -> list[np.ndarray]:
        if factors is None:
            return [term.matrix for term in self.terms]
        # columns outside a family are zero, so clipping their -1 is harmless
        return [term.matrix * fac[term.member_of_col.clip(0)][None, :]
                for term, fac in zip(self.terms, factors)]

    def at(self, t: float, mats) -> np.ndarray:
        return sum(float(term.f(t)) * m for term, m in zip(self.terms, mats))

    def offset_factors(self, eps: float, seed: int) -> list[np.ndarray]:
        """Per-member scale factors of one seeded rate-offset draw: offsets
        uniform in [-eps, eps], shaped by each member's grid supremum."""
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, self.period, VALIDATION_NODES)
        out = []
        for term in self.terms:
            coeffs = rng.uniform(-1.0, 1.0, size=len(term.member_mult))
            sups = term.member_mult * float(np.max(term.f(ts)))
            fac = np.ones(len(sups))
            ok = sups > 0
            fac[ok] = 1.0 + coeffs[ok] * eps / sups[ok]
            out.append(np.maximum(fac, 0.0))
        return out


def birth_death(size, period, birth, death, birth_mult, death_mult):
    return DenseChain(size, period, [
        Term(birth, +1, size, birth_mult, first=0),
        Term(death, -1, size, death_mult, first=1)])


def batch_arrival(size, period, arrivals: dict, service, service_mult):
    terms = [Term(service, -1, size, service_mult, first=1)]
    terms += [Term(f, +k, size) for k, f in sorted(arrivals.items())]
    return DenseChain(size, period, terms)


def batch(size, period, arrivals: dict, services: dict):
    terms = [Term(f, +k, size) for k, f in sorted(arrivals.items())]
    terms += [Term(f, -k, size) for k, f in sorted(services.items())]
    return DenseChain(size, period, terms)


# ---------------------------------------------------------------------------
# weighted reduced system

class WeightedReduction:
    """Per-term D (A[1:,1:] - A[1:,:1]) D^-1 and D A[1:,0], with D the
    upper-triangular matrix whose row i holds d_i from column i on."""

    def __init__(self, weights: np.ndarray, mats: list[np.ndarray]):
        n = len(weights)
        d = np.triu(np.tile(weights[:, None], (1, n)))
        d_inv = np.linalg.inv(d)
        self.reduced = [d @ (m[1:, 1:] - m[1:, :1]) @ d_inv for m in mats]
        self.forcing = [d @ m[1:, 0] for m in mats]

    def at(self, chain: DenseChain, t: float):
        vals = [float(term.f(t)) for term in chain.terms]
        return (sum(v * m for v, m in zip(vals, self.reduced)),
                sum(v * f for v, f in zip(vals, self.forcing)))


def log_norm_l1(m: np.ndarray) -> float:
    diag = np.diag(m)
    return float((np.abs(m).sum(axis=0) - np.abs(diag) + diag).max())


def norm_l1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max())


def mean_decay_rate(chain: DenseChain, weights: np.ndarray,
                    nodes: int = 512) -> float:
    """Periodic trapezoid mean of minus the l1 log-norm of D B(t) D^-1."""
    red = WeightedReduction(weights, chain.matrices())
    ts = chain.period * np.arange(nodes) / nodes
    return -float(np.mean([log_norm_l1(red.at(chain, t)[0]) for t in ts]))


def gaps_at_nodes(chain: DenseChain, weights: np.ndarray, eps: float,
                  seeds, stride: int = 64) -> tuple[float, float, float]:
    """(generator, weighted reduced, weighted forcing) gaps, maximised over
    the draws and over every ``stride``-th node of the certificate grid."""
    ts = np.linspace(0.0, chain.period, CERTIFICATE_NODES)[::stride]
    base_mats = chain.matrices()
    base = WeightedReduction(weights, base_mats)
    gen = red = forc = 0.0
    for seed in seeds:
        mats = chain.matrices(chain.offset_factors(eps, seed))
        pert = WeightedReduction(weights, mats)
        for t in ts:
            gen = max(gen, norm_l1(chain.at(t, base_mats) - chain.at(t, mats)))
            b1, f1 = base.at(chain, t)
            b2, f2 = pert.at(chain, t)
            red = max(red, norm_l1(b1 - b2))
            forc = max(forc, float(np.abs(f1 - f2).sum()))
    return gen, red, forc


# ---------------------------------------------------------------------------
# stationary laws and transient means

def stationary_head(level: int, eps: float, birth: float = 1.0,
                    death: float = 4.0) -> float:
    """p_0 of the walk on 0..level with mass arrivals from 0 (rate
    eps/(k(k+1)) to k < level, the tail eps/level to the top), from a dense
    solve of A p = 0 with sum(p) = 1."""
    size = level + 1
    a = np.zeros((size, size))
    k = np.arange(level)
    a[k + 1, k] += birth
    a[k, k + 1] += death
    ks = np.arange(1, level)
    a[ks, 0] += eps / (ks * (ks + 1.0))
    a[level, 0] += eps / level
    a -= np.diag(a.sum(axis=0))
    a[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    return float(np.linalg.solve(a, rhs)[0])


def infinite_server_mean(t, base: float, amp: float, omega: float):
    """Mean of the M_t/M/infinity queue with unit service, empty at 0, and
    arrivals base + amp sin(omega t): int_0^t lambda(s) e^{-(t-s)} ds."""
    t = np.asarray(t, dtype=float)
    decay = np.exp(-t)
    return base * (1.0 - decay) + amp * (
        np.sin(omega * t) - omega * np.cos(omega * t) + omega * decay) \
        / (1.0 + omega ** 2)


# ---------------------------------------------------------------------------
# the paper's bound formulas

def uniform_limsup(c: float, b: float, eps: float) -> float:
    return (1.0 + math.log(c / 2.0)) * eps / b


def weighted_limsup(m: float, a: float, reduced: float, forcing: float,
                    forcing_sup: float) -> float:
    return m * (m * reduced * forcing_sup + a * forcing) / \
        (a * (a - m * reduced))
