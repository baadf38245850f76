"""Certificates for a two-server queue with single and pair arrivals.

Customers arrive alone at rate lambda(t) = 1 + sin(2 pi t) or in pairs at
half that rate, and are served one at a time by two servers (service rate
min(k, 2) * 3 from state k).  This chain is not a birth-death process, and
with unit weights its reduced matrix shows no contraction at all; a
geometric weight sequence makes the drift visible.  The script sweeps the
weight ratio, issues the certificate, and evaluates the weighted bounds.
"""

import numpy as np

from ctmcpert import (Perturbation, RateFunction, WeightSequence,
                      batch_arrival_chain, delta_state, parse_rate, perturb,
                      perturbation_distance, perturbation_gaps, rate_family,
                      to_total_variation, weighted_certificate,
                      weighted_limsup_bound, weighted_mean_limsup_bound)

SIZE = 300
lam = parse_rate("1+sin(2*pi*t)", period=1.0)
pairs = parse_rate("0.5*(1+sin(2*pi*t))", period=1.0)
queue = batch_arrival_chain(
    {1: lam, 2: pairs},
    rate_family(shared=RateFunction.constant(3.0),
                multipliers=np.minimum(np.arange(1, SIZE), 2)),
    size=SIZE)

print("weight-ratio sweep (certified rate = periodic mean of the "
      "contraction rate):")
for delta in (1.0, 1.2, 1.5, 2.0):
    w = WeightSequence.geometric(delta, SIZE - 1)
    cert = weighted_certificate(w=w, spec=queue)
    tag = "certified" if cert.certified else "NOT certified"
    print(f"  delta = {delta:3.1f}: rate {cert.rate:+.4f}  ({tag})")

w = WeightSequence.geometric(2.0, SIZE - 1)
cert = weighted_certificate(queue, w)
print(f"\nchosen delta = 2: amplitude {cert.amplitude:.4f}, "
      f"rate {cert.rate:.4f}, mean-bound ratio {cert.weight_state_ratio}")

eps = 0.01
draw = perturb(queue, Perturbation("rate-offsets", eps=eps, seed=3))
gaps = perturbation_gaps(queue, [draw], w)
one_d = weighted_limsup_bound(cert, gaps.reduced, gaps.forcing)
print(f"\nper-rate eps = {eps}: gaps reduced {gaps.reduced:.4f}, "
      f"forcing {gaps.forcing:.4f}")
print(f"weighted-norm limsup bound : {one_d:.4f}")
print(f"total-variation bound      : "
      f"{to_total_variation(one_d, cert.min_weight):.4f}")
print(f"limiting-mean bound        : "
      f"{weighted_mean_limsup_bound(cert, gaps.reduced, gaps.forcing):.4f}")

curve = perturbation_distance(queue, draw, delta_state(SIZE, 0),
                              horizon=30.0, stride=0.25)
print(f"\nmeasured distance sup over the final period (t in [29, 30]): "
      f"{curve.final_sup:.2e}")
