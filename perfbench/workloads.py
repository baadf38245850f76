"""The benchmark's workloads: their scenarios, operations and checks.

An operation is one ``ctmcpert`` command line.  Each workload lists the
operations of one round; a run repeats whole rounds.  Checks run after the
timed operations and compare each operation's report and CSV artifacts
with the references in ``oracles`` or with properties the method must
have.  CSVs are read by column position, never by header name.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import oracles

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
EPS = 0.01
TWO_PI = 2.0 * math.pi

#: relative slack for quantities the program derives by closed formulas
EXACT = 1e-9
#: loss queue transient mean against the infinite-server mean over two
#: periods, where the truncation at 299 servers is negligible (measured
#: 8.1e-12; an RK4 stage that reuses k1 gives 3.0e-6)
LOSS_MEAN_TOL = 1e-8
#: certified rate against a 512-node periodic trapezoid of the dense
#: log-norm; both rules are exact on these trigonometric profiles (measured
#: 1e-14)
RATE_TOL = 1e-8
#: stationary head probability against a dense solve; the program stops at
#: a residual of 1e-12 (measured 2.1e-10 at 400 states)
HEAD_TOL = 1e-8


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, raw = line.partition(" = ")
        if raw in ("true", "false"):
            out[key] = raw == "true"
            continue
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Checks:
    """Collects failed expectations of one operation."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, what: str):
        if not ok:
            self.failures.append(what)

    def close(self, got, want, what: str, rel: float = EXACT):
        ok = isinstance(got, (int, float)) and \
            abs(got - want) <= rel * max(1.0, abs(want))
        self.expect(ok, f"{what}: got {got!r}, want {want!r}")

    def at_most(self, got, limit, what: str, rel: float = 1e-12):
        ok = isinstance(got, (int, float)) and got <= limit * (1 + rel)
        self.expect(ok, f"{what}: {got!r} above {limit!r}")


def _sin(amp, base, omega):
    return lambda t: base + amp * np.sin(omega * np.asarray(t, dtype=float))


def _const(value):
    return lambda t: np.full(np.shape(t), float(value))


def loss_chain(period: float) -> oracles.DenseChain:
    size = 300
    return oracles.birth_death(size, period, _sin(200.0, 200.0, TWO_PI / period),
                               _const(1.0), np.ones(size - 1),
                               np.arange(1.0, size))


def pair_chain() -> oracles.DenseChain:
    size = 300
    return oracles.batch_arrival(
        size, 1.0, {1: _sin(1.0, 1.0, TWO_PI), 2: _sin(0.5, 0.5, TWO_PI)},
        _const(3.0), np.minimum(np.arange(1.0, size), 2.0))


def batch_chain() -> oracles.DenseChain:
    return oracles.batch(
        300, 1.0, {1: _sin(1.0, 1.0, TWO_PI), 2: _sin(0.5, 0.5, TWO_PI)},
        {1: lambda t: 2.0 + np.cos(TWO_PI * np.asarray(t, dtype=float)),
         2: _const(1.0)})


def _scenario(stem: str, **edits) -> str:
    text = (SCENARIOS / f"{stem}.scn").read_text()
    for key, value in edits.items():
        lines = [f"{key} = {value}" if line.split("=")[0].strip() == key
                 else line for line in text.splitlines()]
        text = "\n".join(lines) + "\n"
    return text


# ---------------------------------------------------------------------------
# shared checks

def check_loss_closed_forms(c: Checks, rep: dict):
    c.close(rep.get("cert.weighted.rate"), 1.0, "weighted rate")
    c.close(rep.get("cert.uniform.amplitude"), 4.0 * 299, "uniform amplitude")
    c.close(rep.get("bounds.uniform.limsup"), (1 + math.log(598)) * EPS,
            "uniform limsup")


def check_distances(c: Checks, op_dir: Path, stem: str, draws: int,
                    t_end: float, period: float, rep: dict):
    paths = sorted(op_dir.glob(f"{stem}_distance_draw*.csv"))
    c.expect(len(paths) == draws, f"{len(paths)} distance CSVs, want {draws}")
    for path in paths:
        rows = read_csv(path)
        tail = rows[rows[:, 0] >= t_end - period - 1e-12, 1]
        c.at_most(float(tail.max()), rep.get("empirical.bound"),
                  f"{path.name} final-period supremum", rel=1e-6)


def check_bounds(c: Checks, rep: dict, weights: np.ndarray, n: int):
    """Every reported bound recomputed from the reported constants."""
    eps = rep.get("bounds.eps")
    c.close(eps, EPS, "bounds.eps")
    if rep.get("cert.uniform.certified"):
        amp, rate = rep["cert.uniform.amplitude"], rep["cert.uniform.rate"]
        if rep.get("cert.weighted.certified"):
            c.close(amp, 4.0 * weights.sum() * rep["cert.weighted.amplitude"]
                    / weights.min(), "uniform amplitude from weighted")
        limsup = oracles.uniform_limsup(amp, rate, eps)
        c.close(rep.get("bounds.uniform.limsup"), limsup, "uniform limsup")
        c.close(rep.get("bounds.uniform.mean_limsup"), n * limsup,
                "uniform mean limsup")
    if not rep.get("cert.weighted.certified"):
        return
    m, a = rep["cert.weighted.amplitude"], rep["cert.weighted.rate"]
    red, forc = rep["bounds.gaps.reduced"], rep["bounds.gaps.forcing"]
    feasible = a > m * red
    c.expect(rep.get("bounds.weighted.feasible") == feasible,
             "weighted feasibility flag")
    c.close(rep.get("bounds.eps_critical"), eps * (a / m) / red,
            "critical epsilon")
    if feasible:
        w1 = oracles.weighted_limsup(m, a, red, forc,
                                     rep["cert.weighted.forcing_norm_sup"])
        ratio = float((weights / np.arange(1, len(weights) + 1)).min())
        c.close(rep.get("bounds.weighted.limsup"), w1, "weighted limsup")
        c.close(rep.get("bounds.weighted.tv_limsup"), 4 * w1 / weights.min(),
                "weighted total-variation limsup")
        c.close(rep.get("bounds.weighted.mean_limsup"), w1 / ratio,
                "weighted mean limsup")


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def scenario_texts(self) -> dict[str, str]:
        """Scenario file stem -> text, as the operations read them."""
        return {}

    def operations(self, scenario_dir: Path) -> list[tuple[str, list[str]]]:
        """(label, ctmcpert arguments after the global options) per
        operation of one round."""
        raise NotImplementedError

    def build(self, cli):
        """Build and validate every chain of the workload once, as the
        operations' set-up does."""
        for stem, text in self.scenario_texts().items():
            scn = cli.parse_scenario_text(text, name=stem)
            spec = cli.build_chain(scn)
            cli.build_weights(scn, spec.n)

    def prepare(self, seed: int):
        """References shared by the checks of every operation of a run."""

    def check(self, label: str, op_dir: Path) -> list[str]:
        raise NotImplementedError


class LossVerify(Workload):
    name = "loss-verify"
    #: the bundled 20-period horizon cut to two periods, and the bundled 5
    #: draws to 2, so that a run repeats the operation many times
    T_END = 2
    DRAWS = 2

    def scenario_texts(self):
        return {"mtmtnn": _scenario("mtmtnn", t_end=self.T_END,
                                    horizon=self.T_END, draws=self.DRAWS)}

    def operations(self, scenario_dir):
        return [("mtmtnn", ["run", str(scenario_dir / "mtmtnn.scn")])]

    def check(self, label, op_dir):
        c = Checks()
        rep = read_report(op_dir / "mtmtnn.report.kv")
        c.expect(rep.get("verdict.sound") is True, "verdict not sound")
        check_loss_closed_forms(c, rep)
        c.at_most(rep.get("bounds.gaps.generator"), 4 * EPS, "generator gap")
        c.at_most(rep.get("bounds.gaps.reduced"), 5 * EPS, "reduced gap")

        rows = read_csv(op_dir / "mtmtnn_mean_x0.csv")
        c.expect(len(rows) == round(self.T_END / 0.05) + 1,
                 f"{len(rows)} transient mean rows")
        want = oracles.infinite_server_mean(rows[:, 0], 200.0, 200.0, TWO_PI)
        err = float(np.abs(rows[:, 1] - want).max())
        c.expect(err <= LOSS_MEAN_TOL, f"transient mean off by {err}")

        check_distances(c, op_dir, "mtmtnn", self.DRAWS, self.T_END, 1.0, rep)
        return c.failures


class CertifySweep(Workload):
    name = "certify-sweep"

    #: stem -> (base scenario, edits, dense chain, weight ratio, draws)
    SWEEP = {
        "mtmtnn": ("mtmtnn", {}, lambda: loss_chain(1.0), 1.0, 5),
        "mtmtnn_w05": ("mtmtnn_w05", {}, lambda: loss_chain(2.0), 1.0, 5),
        "pair_d1.2": ("pair_arrivals", {"delta": 1.2}, pair_chain, 1.2, 3),
        "pair_d1.5": ("pair_arrivals", {"delta": 1.5}, pair_chain, 1.5, 3),
        "pair_d2": ("pair_arrivals", {"delta": 2}, pair_chain, 2.0, 3),
        "batch_d1.2": ("batch", {}, batch_chain, 1.2, 3),
    }

    def scenario_texts(self):
        return {stem: _scenario(base, **edits)
                for stem, (base, edits, *_) in self.SWEEP.items()}

    def operations(self, scenario_dir):
        return [(stem, ["bounds", str(scenario_dir / f"{stem}.scn")])
                for stem in self.SWEEP]

    def prepare(self, seed):
        self.refs = {}
        for stem, (_, _, make, delta, draws) in self.SWEEP.items():
            chain = make()
            weights = delta ** np.arange(chain.n)
            seeds = [seed + i for i in range(draws)]
            self.refs[stem] = (chain, weights,
                               oracles.mean_decay_rate(chain, weights),
                               oracles.gaps_at_nodes(chain, weights, EPS, seeds,
                                                     stride=128))

    def check(self, label, op_dir):
        c = Checks()
        rep = read_report(op_dir / f"{label}.report.kv")
        chain, weights, rate, (gen, red, forc) = self.refs[label]
        if label.startswith("mtmtnn"):
            check_loss_closed_forms(c, rep)
        if label == "pair_d2":
            c.close(rep.get("cert.weighted.rate"), 0.5, "weighted rate")
            c.close(rep.get("cert.weighted.amplitude"), 1.0, "weighted amplitude")
        c.close(rep.get("cert.weighted.rate"), rate, "rate against dense log-norm",
                rel=RATE_TOL)
        c.expect(rep.get("cert.weighted.certified") is True, "not certified")
        check_bounds(c, rep, weights, chain.n)
        c.at_most(gen, rep.get("bounds.gaps.generator"), "dense generator gap",
                  rel=1e-9)
        c.at_most(red, rep.get("bounds.gaps.reduced"), "dense reduced gap",
                  rel=1e-9)
        c.at_most(forc, rep.get("bounds.gaps.forcing"), "dense forcing gap",
                  rel=1e-9)
        c.at_most(rep.get("bounds.gaps.generator"), 2 * EPS * len(chain.terms),
                  "generator gap")
        return c.failures


class StationaryProbe(Workload):
    name = "stationary-probe"
    LEVELS = (100, 200, 400)

    def operations(self, scenario_dir):
        return [("counterexample", ["reproduce", "counterexample"])]

    def build(self, cli):
        from ctmcpert import RateFunction, model
        const = RateFunction.constant
        for level in self.LEVELS:
            base = model.birth_death_chain(const(1.0), const(4.0),
                                           size=level + 1, truncated=True,
                                           validation_grid=16)
            model.perturb(base, model.Perturbation("mass-arrival", eps=0.1))
        base = model.birth_death_chain(const(1.0), const(4.0), size=101,
                                       validation_grid=64)
        model.perturb(base, model.Perturbation("multiplicative", eps=0.1))

    def prepare(self, seed):
        self.heads = {level: oracles.stationary_head(level, 0.1)
                      for level in self.LEVELS}

    def check(self, label, op_dir):
        c = Checks()
        rep = read_report(op_dir / "counterexample.report.kv")
        for level, head in self.heads.items():
            c.close(rep.get(f"probe.p0_at_{level}"), head,
                    f"p0 at {level} against dense solve", rel=HEAD_TOL)
            c.at_most(rep.get(f"probe.recursion_residual_{level}"), 1e-6,
                      f"balance residual at {level}")
        rows = read_csv(op_dir / "counterexample_p0.csv")
        c.expect(len(rows) == len(self.LEVELS) and np.all(np.diff(rows[:, 1]) < 0),
                 "head probabilities not strictly decreasing")
        c.at_most(rep.get("scaling.stationary_distance"), 1e-8,
                  "scaling distance")
        return c.failures


WORKLOADS = {w.name: w for w in (LossVerify(), CertifySweep(),
                                 StationaryProbe())}
