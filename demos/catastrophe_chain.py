"""Uniform certificates for a chain with catastrophes.

Overlaying direct k -> 0 transitions on any base chain makes the empty
state reachable in one jump from everywhere.  The infimum of those rates
over the states (the catastrophe floor) alone certifies uniform
ergodicity, no weight tuning needed: the rewritten system's matrix has
logarithmic norm equal to minus the floor.
"""

import math

import numpy as np

from ctmcpert import (RateFunction, birth_death_chain, catastrophe_chain,
                      catastrophe_uniform_certificate, delta_state, integrate,
                      parse_rate, uniform_bound_at, uniform_limsup_bound)

base = birth_death_chain(parse_rate("1+sin(2*pi*t)", period=1.0),
                         RateFunction.constant(4.0, period=1.0), size=40,
                         validation_grid=512)
chain = catastrophe_chain(base, parse_rate("0.3*(1+sin(2*pi*t))", period=1.0))

# rewrite dp/dt = A p around the floor: subtracting it from row 0 moves it
# into a forcing term floor * e_0 and leaves an essentially nonnegative
# matrix whose columns all sum to minus the floor
a = chain.bands_at(0.2).dense()
floor = a[0, 1:].min()
a[0] -= floor
diag = np.diag(a)
# logarithmic norm for the l1 norm: the largest column sum of the diagonal
# entry plus the absolute off-diagonal entries
log_norm = (np.abs(a).sum(axis=0) - np.abs(diag) + diag).max()
print(f"floor at t=0.2: {floor:.4f}; log norm of the reduced matrix: "
      f"{log_norm:.4f} (equals minus the floor)")

cert = catastrophe_uniform_certificate(chain)
print(f"uniform certificate: amplitude {cert.amplitude:.4f} "
      f"(= 2 e^{{peak}} with peak {cert.peak_dev:.4f}), rate {cert.rate:.4f}")

eps = 0.02
print(f"\nlimsup bound for generator perturbations of size {eps}: "
      f"{uniform_limsup_bound(cert, eps):.4f}")
print("finite-horizon envelope from a start distance of 2:")
for dt in (0.0, 2.0, 5.0, 10.0, 25.0):
    print(f"  dt = {dt:5.1f}: {uniform_bound_at(2.0, dt, cert, eps):.4f}")

cols = np.stack([delta_state(40, 0), delta_state(40, 39)], axis=1)
traj = integrate(chain, cols, 0.0, 8.0, stride=0.5)
print("\nmeasured extreme-state distance vs the floor envelope "
      "2 exp(-integral of the floor):")
for i, t in enumerate(traj.times):
    if float(t) in (0.0, 2.0, 4.0, 8.0):
        dist = np.abs(traj.states[i, :, 0] - traj.states[i, :, 1]).sum()
        integral = 0.3 * t + 0.3 * (1 - math.cos(2 * math.pi * t)) / (2 * math.pi)
        print(f"  t = {t:3.0f}: measured {dist:.4e}   envelope "
              f"{2 * math.exp(-integral):.4e}")
