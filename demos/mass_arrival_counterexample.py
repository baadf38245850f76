"""Why perturbation bounds need structure, and why lower bounds cannot exist.

Start from the constant-rate walk with birth rate 1 and death rate 4,
which has the geometric stationary law p_k ~ (1/4)^k.  Two contrasting
perturbations:

* an arbitrarily small amount of "mass arrival" from the empty state
  (rate eps/(k(k+1)) to every state k) destroys ergodicity: the would-be
  stationary tail satisfies 4 p_{k+1} = p_k + p_0 eps/(k+1), which is not
  summable, so no stationary law exists on the countable space.  Under
  truncation this shows up as a head probability that keeps sliding down
  as the truncation grows.

* scaling all rates by (1 + eps) changes the generator by a non-small
  amount yet leaves the stationary law untouched, so no lower bound on
  the stationary shift in terms of the perturbation size can exist.
"""

import numpy as np

from ctmcpert import (Perturbation, RateFunction, birth_death_chain,
                      mass_arrival_probe, perturb, stationary_distribution)

probe = mass_arrival_probe(eps=0.1, levels=[100, 200, 400])
print("mass-arrival perturbation, eps = 0.1:")
print("  truncation   head probability   balance residual")
for level, p0, resid in zip(probe.levels, probe.p0_values,
                            probe.recursion_residuals):
    print(f"  {level:10d}   {p0:.10f}     {resid:.2e}")
print("  the head probability keeps falling: the countable chain has no "
      "stationary law")

base = birth_death_chain(RateFunction.constant(1.0),
                         RateFunction.constant(4.0), size=101,
                         validation_grid=16)
scaled = perturb(base, Perturbation("multiplicative", eps=0.5))
p = stationary_distribution(base)
q = stationary_distribution(scaled)
print(f"\nmultiplicative scaling by 1.5: stationary shift "
      f"{np.abs(p - q).sum():.2e}")
print("a 50% rate change moved the stationary law by nothing: "
      "perturbation bounds can only ever be upper bounds")
