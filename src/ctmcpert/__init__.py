"""Ergodicity certificates and perturbation bounds for time-inhomogeneous
Markovian queueing models.

The package models five structural classes of inhomogeneous
continuous-time chains, computes exponential-ergodicity certificates by a
weighted-norm route and a uniform route, evaluates the corresponding
perturbation bounds, and verifies everything numerically by integrating
the truncated forward equations.
"""

from .analysis import (CertificateError, ErgodicityCertificate,
                       WeightSequence, catastrophe_uniform_certificate,
                       uniform_from_weighted, weighted_certificate)
from .bounds import (BoundReport, InfeasibleBoundError, PerturbationGaps,
                     build_report, critical_reduced_gap, perturbation_gaps,
                     to_total_variation, uniform_bound_at,
                     uniform_limsup_bound, uniform_mean_limsup_bound,
                     weighted_feasible, weighted_limsup_bound,
                     weighted_mean_limsup_bound)
from .model import (ChainSpec, ChainValidationError, MassArrivalChain,
                    Perturbation, RateFamily, batch_arrival_chain, batch_chain,
                    batch_service_chain, birth_death_chain, catastrophe_chain,
                    perturb, rate_family)
from .rates import (RateEvalError, RateFunction, RateSyntaxError, parse_rate,
                    periodic_mean)
from .solver import (DistanceCurve, ProbeResult, RegimeReport, SolverError,
                     Trajectory, delta_state, distance_curve, integrate,
                     limiting_regime, mass_arrival_probe,
                     perturbation_distance, stationary_distribution,
                     write_mean_csv, write_states_csv)

__version__ = "0.1.0"
