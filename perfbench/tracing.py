"""Per-layer tracing of ctmcpert from outside the package.

Every traced public name is replaced, in each ctmcpert module that binds
it (including names one module imported from another), by a wrapper that
records a span.  A span's self time is its duration minus the durations
of the traced spans it directly contains.  The solver wrappers also count
the periods x columns each integration covers and the part of that which
repeats an earlier integration of the same chain from the same start
vector within one operation.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

import numpy as np


class Probe:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    #: (module, qualified name) of every traced name, by probe
    TARGETS = {
        "rates.call": [("rates", "RateFunction.__call__")],
        "rates.values": [("rates", "RateFunction.values")],
        "model.slice": [("model", "ChainSpec.bands_at"),
                        ("model", "MassArrivalChain.bands_at")],
        "model.matvec": [("model", "GeneratorBands.matvec")],
        "model.build": [("model", name) for name in (
            "birth_death_chain", "batch_arrival_chain", "batch_service_chain",
            "batch_chain", "catastrophe_chain", "perturb")],
        "analysis.reduced_bands": [("analysis", "weighted_reduced_bands")],
        "analysis.certificate": [("analysis", "weighted_certificate")],
        "quadrature.peak": [("quadrature", "peak_running_integral")],
        "quadrature.adaptive": [("quadrature", "adaptive_simpson")],
        "bounds.gaps": [("bounds", "perturbation_gaps")],
        "solver.integrate": [("solver", "integrate")],
        "solver.regime": [("solver", "limiting_regime")],
        "solver.distance": [("solver", "perturbation_distance")],
        "solver.stationary": [("solver", "stationary_distribution")],
        "solver.probe": [("solver", "mass_arrival_probe")],
        "cli.main": [("cli", "main")],
    }

    def __init__(self):
        self.probes = {name: Probe() for name in self.TARGETS}
        self.fallbacks = 0
        self.column_periods = 0.0
        self.repeated_column_periods = 0.0
        self._stack = [0.0]
        self._open: list[str] = []
        self._coverage: dict = {}

    # -- installation --------------------------------------------------------

    def install(self):
        import ctmcpert  # noqa: F401  (loads every module)
        modules = [m for name, m in sys.modules.items()
                   if name == "ctmcpert" or name.startswith("ctmcpert.")]
        for probe, targets in self.TARGETS.items():
            for module, qualname in targets:
                owner = sys.modules[f"ctmcpert.{module}"]
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self._wrap(probe, original)
                if outer:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _wrap(self, name: str, fn):
        probe, stack, opened = self.probes[name], self._stack, self._open
        hook = {"solver.integrate": self._after_integrate,
                "solver.regime": self._after_regime,
                "quadrature.adaptive": self._after_adaptive}.get(name)
        tracked = name in ("analysis.certificate", "solver.regime")
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if tracked:
                opened.append(name)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                probe.calls += 1
                probe.total += elapsed
                probe.self_time += elapsed - stack.pop()
                stack[-1] += elapsed
                if tracked:
                    opened.pop()
            if hook:
                hook(sig.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def start_operation(self):
        """Forget the integrations seen so far: repeats count per operation."""
        self._coverage = {}

    # -- hooks ---------------------------------------------------------------

    def _after_adaptive(self, _args, _result):
        if "analysis.certificate" in self._open:
            self.fallbacks += 1

    def _cover(self, chain, columns, t0: float, t1: float, period: float):
        # the chain is kept with its entry so that its id stays unique
        for col in columns:
            key = (id(chain), col.tobytes(), t0)
            _, reached = self._coverage.get(key, (chain, t0))
            self.column_periods += (t1 - t0) / period
            self.repeated_column_periods += (min(t1, reached) - t0) / period
            self._coverage[key] = (chain, max(t1, reached))

    def _after_integrate(self, args, result):
        if "solver.regime" in self._open:
            return  # counted as part of the regime march
        chain = args["chain"]
        y = np.asarray(args["p0"], dtype=float)
        cols = y.reshape(len(y), -1).T
        period = chain.period if chain.period is not None else 1.0
        self._cover(chain, cols, float(args["t0"]), float(args["t1"]), period)

    def _after_regime(self, args, result):
        chain = args["chain"]
        period = args.get("period") or (
            chain.period if chain.period is not None else 1.0)
        cols = np.eye(chain.size)[[0, -1]]  # the two extreme states
        self._cover(chain, cols, 0.0, float(result.limit.times[-1]), period)

    # -- report --------------------------------------------------------------

    def metrics(self, operations: int) -> dict[str, tuple[float, str]]:
        """Per-operation means of every per-layer metric."""
        p = self.probes
        per = 1.0 / operations
        solver = ("solver.integrate", "solver.regime", "solver.distance",
                  "solver.stationary", "solver.probe")
        return {
            "rates.scalar_calls": (p["rates.call"].calls * per, "count"),
            "rates.scalar_s": (p["rates.call"].self_time * per, "s"),
            "rates.grid_s": (p["rates.values"].self_time * per, "s"),
            "model.slices": (p["model.slice"].calls * per, "count"),
            "model.slice_s": (p["model.slice"].self_time * per, "s"),
            "model.matvecs": (p["model.matvec"].calls * per, "count"),
            "model.matvec_s": (p["model.matvec"].self_time * per, "s"),
            "model.build_s": (p["model.build"].total * per, "s"),
            "analysis.reduced_bands": (
                p["analysis.reduced_bands"].calls * per, "count"),
            "analysis.reduced_bands_s": (
                p["analysis.reduced_bands"].self_time * per, "s"),
            "analysis.certificate_s": (
                p["analysis.certificate"].total * per, "s"),
            "quadrature.peak_s": (p["quadrature.peak"].self_time * per, "s"),
            "quadrature.fallbacks": (self.fallbacks * per, "count"),
            "bounds.gaps_s": (p["bounds.gaps"].self_time * per, "s"),
            "solver.integrate_s": (p["solver.integrate"].total * per, "s"),
            "solver.regime_s": (p["solver.regime"].total * per, "s"),
            "solver.distance_s": (p["solver.distance"].total * per, "s"),
            "solver.stationary_s": (p["solver.stationary"].total * per, "s"),
            "solver.step_s": (sum(p[k].self_time for k in solver) * per, "s"),
            "solver.column_periods": (round(self.column_periods) * per,
                                      "count"),
            "solver.repeated_column_periods": (
                round(self.repeated_column_periods) * per, "count"),
            "cli.self_s": (p["cli.main"].self_time * per, "s"),
        }
