"""Walk through the full analysis of a nonstationary many-server loss queue.

The system has 299 servers, arrival rate 200(1 + sin 2 pi t) and unit
per-server service rate, so the number of busy servers is a birth-death
chain on 0..299 with birth rate lambda(t) and death rate k mu(t) from
state k.  The script computes both ergodicity certificates, evaluates the
two perturbation-bound routes, and then checks the certified decay
envelope against actual trajectories.

Run:  python demos/loss_queue_study.py        (about half a minute)
"""

import math

import numpy as np

from ctmcpert import (Perturbation, RateFunction, WeightSequence,
                      birth_death_chain, delta_state, integrate, parse_rate,
                      perturb, perturbation_distance, perturbation_gaps,
                      rate_family, to_total_variation, uniform_from_weighted,
                      uniform_limsup_bound, weighted_certificate,
                      weighted_limsup_bound, write_mean_csv)

N = 299
lam = parse_rate("200*(1+sin(2*pi*t))", period=1.0)
mu = RateFunction.constant(1.0)
queue = birth_death_chain(lam, rate_family(shared=mu,
                                           multipliers=np.arange(1, N + 1)),
                          size=N + 1)
print(f"chain: {queue.kind}, {queue.size} states, "
      f"intensity bound {queue.l_bound}")

# --- certificates -----------------------------------------------------------
# With unit weights every interior column of the weighted reduced matrix
# contracts at exactly mu(t) = 1, so the certified rate is the unit
# service rate and the amplitude is 1 (the decay rate never dips below
# its mean).
weights = WeightSequence.unit(N)
cert = weighted_certificate(queue, weights)
uniform = uniform_from_weighted(cert, weights)
print(f"weighted certificate: amplitude {cert.amplitude:.6f}, "
      f"rate {cert.rate:.6f}")
print(f"uniform certificate:  amplitude {uniform.amplitude:.1f}, "
      f"rate {uniform.rate:.6f}   (= 4 x {N} x M / d)")

# --- perturbation bounds ----------------------------------------------------
# Per-rate perturbations of size eps: the uniform route needs only the
# smallness of the generator gap; the weighted route uses the computed
# norm gaps of the reduced system and pays a factor 4/d to return to
# total variation.  For this finite system the uniform route wins.
eps = 0.01
draw = perturb(queue, Perturbation("rate-offsets", eps=eps, seed=1))
gaps = perturbation_gaps(queue, [draw], weights)
u_bound = uniform_limsup_bound(uniform, eps)
w_bound = to_total_variation(
    weighted_limsup_bound(cert, gaps.reduced, gaps.forcing), cert.min_weight)
print(f"\nper-rate eps = {eps}: computed gaps "
      f"reduced {gaps.reduced:.4f}, forcing {gaps.forcing:.4f}, "
      f"generator {gaps.generator:.4f}")
print(f"uniform limsup bound : {u_bound:.5f}   (1 + log {uniform.amplitude/2:.0f}) eps / b")
print(f"weighted TV bound    : {w_bound:.5f}")
print(f"smaller route        : {'uniform' if u_bound < w_bound else 'weighted'}")

# --- empirical check --------------------------------------------------------
extremes = np.stack([delta_state(N + 1, 0), delta_state(N + 1, N)], axis=1)
traj = integrate(queue, extremes, 0.0, 19.0, stride=1.0)
print("\ndecay of the extreme-initial-state distance vs the certified "
      "envelope min(2, c e^{-bt}):")
for i, t in enumerate(traj.times):
    if t in (0.0, 2.0, 5.0, 10.0, 15.0, 19.0):
        dist = np.abs(traj.states[i, :, 0] - traj.states[i, :, 1]).sum()
        env = min(2.0, uniform.amplitude * math.exp(-uniform.rate * t))
        print(f"  t = {t:4.0f}: measured {dist:10.3e}   envelope {env:10.3e}")

curve = perturbation_distance(queue, draw, delta_state(N + 1, 0),
                              horizon=20.0, period=1.0, stride=0.05)
print(f"\nmeasured final-period sup of the perturbed distance: "
      f"{curve.final_sup:.2e}")
print(f"reported bound {u_bound:.4f} exceeds it by a factor "
      f"{u_bound / curve.final_sup:.0f}")

write_mean_csv(traj, "loss_queue_mean_from_empty.csv", column=0)
write_mean_csv(traj, "loss_queue_mean_from_full.csv", column=1)
print("\nwrote loss_queue_mean_from_empty.csv / loss_queue_mean_from_full.csv")
