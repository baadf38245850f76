"""Scenario-driven command line front end.

A scenario is a line-oriented file with ``[section]`` headers and
``key = value`` pairs (``#`` starts a comment).  Sections: ``[chain]``
(structural kind, state count, rates), ``[weights]`` (unit | geometric |
explicit), ``[perturbation]`` (mode, magnitude, draws, seed), ``[solve]``
(horizon, step, stride, tolerance) and ``[outputs]`` (which CSV artifacts
to write).  Rate values are expression strings in double quotes or inline
``table: [(t0,v0),...]`` literals; per-state multipliers accept ``k``,
``min(k,C)``, a number, or an explicit list.

Subcommands:

* ``analyze <scn>``  — certificates only;
* ``bounds <scn>``   — certificates plus perturbation bounds;
* ``run <scn>``      — full pipeline including integration and the
  empirical soundness verdict;
* ``reproduce <id>`` — bundled studies: ``1`` (loss queue, both driving
  frequencies), ``2`` (pair-arrival queue), ``counterexample``
  (mass-arrival truncation probe).

Exit codes: 0 success, 2 scenario parse error or bad option (a scenario
file that cannot be read as UTF-8 text, a key the chain kind, the
perturbation mode or the weights kind does not read, ``--grid`` not a
positive even integer up to ``MAX_GRID``, ``--seed`` negative, ``--step``
not a positive finite number, a scenario number out of range, a state
count above ``MAX_STATES``, a ``table:`` literal whose brackets hold
anything but comma-separated pairs, or an ``[outputs]`` value other than
true/false, yes/no, on/off or 1/0), 3
validation error, 4 no feasible bound, 5 empirical violation of a
reported bound.

Reports are printed as human-readable text and written as a flat
machine-readable ``key = value`` document with dot-namespaced keys.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, bounds, model, solver
from .model import ChainValidationError
from .quadrature import ANALYSIS_GRID
from .rates import RateFunction, RateSyntaxError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_VIOLATION = 5

#: slack applied when comparing a measured distance against a bound
VERDICT_SLACK = 1e-6
#: units in the last place per state of the absolute resolution of a
#: measured distance: the l1 distance of two computed probability vectors
#: on ``size`` states has a rounding floor, measured at up to 3.5 ulps per
#: state (2 to 300 states over 64 periods), and the decay envelope and the
#: reported bound are floored at VERDICT_ULPS * size * eps, below which no
#: distance is resolved
VERDICT_ULPS = 64
#: largest ``--grid``: its doubled grid of 2 * grid + 1 nodes takes 16 MiB
#: per array of rate or decay values, and a certificate holds several
MAX_GRID = 2 ** 20
#: largest ``[chain] states``: a 64-node block of one generator band on
#: 2**16 states takes 32 MiB, and a chain holds several
MAX_STATES = 2 ** 16


class ScenarioError(ValueError):
    def __init__(self, message: str, section: str | None = None,
                 key: str | None = None):
        where = ""
        if section:
            where = f" in [{section}]"
            if key:
                where += f" key {key!r}"
        super().__init__(message + where)
        self.section = section
        self.key = key


# ---------------------------------------------------------------------------
# scenario parsing

_SECTIONS = ("chain", "weights", "perturbation", "solve", "outputs")

#: the [chain] keys that are not rates or rate multipliers
_SHAPE_KEYS = {"kind", "states", "period", "truncated", "bound", "base_kind"}
_CHAIN_KEYS = _SHAPE_KEYS | {
    "birth", "birth_mult", "death", "death_mult",
    "service", "service_mult", "catastrophe", "catastrophe_mult",
}
_CHAIN_PATTERNS = (re.compile(r"arrival_\d+$"), re.compile(r"service_\d+$"))
#: the keys each weights kind reads besides ``kind``
_WEIGHT_READS = {"unit": set(), "geometric": {"delta"}, "explicit": {"values"}}
_WEIGHT_KEYS = {"kind"}.union(*_WEIGHT_READS.values())
#: the [perturbation] keys that are not an explicit mode's chain keys
_PERT_OWN_KEYS = {"mode", "epsilon", "draws", "seed"}
_PERT_KEYS = _PERT_OWN_KEYS | _CHAIN_KEYS
_PERT_MODES = ("none", "explicit") + model.Perturbation.MODES
_SOLVE_KEYS = {"t_end", "step", "stride", "tolerance", "horizon"}
_OUTPUT_KEYS = {"transient_means", "limit_states", "limit_mean", "distance"}


class Scenario:
    def __init__(self, name: str, sections: dict[str, dict[str, str]]):
        self.name = name
        self.sections = sections

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def has(self, section: str) -> bool:
        return section in self.sections


def _allowed(section: str, key: str) -> bool:
    if section == "chain" or section == "perturbation":
        base = _CHAIN_KEYS if section == "chain" else _PERT_KEYS
        return key in base or any(p.match(key) for p in _CHAIN_PATTERNS)
    return key in {"weights": _WEIGHT_KEYS, "solve": _SOLVE_KEYS,
                   "outputs": _OUTPUT_KEYS}[section]


def _strip_comment(raw: str) -> str:
    in_quote = False
    for i, ch in enumerate(raw):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return raw[:i]
    return raw


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {lineno}: malformed section header")
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section "
                                    f"[{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _allowed(current, key):
            raise ScenarioError("unknown key", current, key)
        if key in sections[current]:
            raise ScenarioError("duplicate key", current, key)
        sections[current][key] = value
    if "chain" not in sections:
        raise ScenarioError("scenario has no [chain] section")
    return Scenario(name=name, sections=sections)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {str(path)!r}: "
                            f"{getattr(exc, 'strerror', None) or exc}")
    return parse_scenario_text(text, name=path.stem)


# value decoding -------------------------------------------------------------

_TABLE_RE = re.compile(r"table:\s*\[(.*)\]\s*$")
_PAIR = r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)"
_PAIR_RE = re.compile(_PAIR)
#: the brackets of a table hold comma-separated pairs and nothing else
_PAIRS_RE = re.compile(rf"\s*{_PAIR}(\s*,\s*{_PAIR})*\s*")


def _decode_rate(value: str, period: float | None, section: str,
                 key: str) -> RateFunction:
    value = value.strip()
    try:
        if value.startswith('"') and value.endswith('"'):
            return RateFunction.from_expression(value[1:-1], period)
        m = _TABLE_RE.match(value)
        if m:
            body = m.group(1)
            if not body.strip():
                raise ScenarioError("empty table", section, key)
            if not _PAIRS_RE.fullmatch(body):
                raise ScenarioError(f"bad table {value!r}: expected "
                                    "comma-separated (t, v) pairs",
                                    section, key)
            pairs = [(float(a), float(b)) for a, b in _PAIR_RE.findall(body)]
            return RateFunction.from_table(pairs, period)
        return RateFunction.constant(float(value), period)
    except (RateSyntaxError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad rate value {value!r}: {exc}", section, key)


_MIN_RE = re.compile(r"min\(\s*k\s*,\s*([0-9.]+)\s*\)$")


def _decode_mult(value: str | None, indices: np.ndarray, section: str,
                 key: str) -> np.ndarray:
    """Per-state multipliers; ``indices`` are the source states covered."""
    if value is None:
        return np.ones(len(indices))
    value = value.strip()
    if value == "k":
        return indices.astype(float)
    m = _MIN_RE.match(value)
    try:
        if m:
            return np.minimum(indices.astype(float), float(m.group(1)))
        if "," not in value:
            return float(value) * np.ones(len(indices))
        vals = np.array([float(v) for v in value.split(",")])
    except ValueError:
        raise ScenarioError(f"bad multiplier spec {value!r}", section, key)
    if len(vals) != len(indices):
        raise ScenarioError(f"{len(vals)} multipliers for {len(indices)} states",
                            section, key)
    return vals


def _decode_float(scn: Scenario, section: str, key: str,
                  default=None) -> float | None:
    raw = scn.get(section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"expected a number, got {raw!r}", section, key)


def _decode_finite(scn: Scenario, section: str, key: str,
                   allowed=lambda v: True, what: str = "a finite number",
                   default: float | None = None) -> float | None:
    """A finite number passing ``allowed``; ``default`` when it is absent."""
    value = _decode_float(scn, section, key, default)
    if value is not None and not (math.isfinite(value) and allowed(value)):
        raise ScenarioError(f"expected {what}, got {scn.get(section, key)!r}",
                            section, key)
    return value


def _decode_int(scn: Scenario, section: str, key: str, default: int,
                allowed=lambda v: True, what: str = "an integer") -> int:
    """An integer passing ``allowed``; an integral number such as ``5.0``
    is accepted."""
    return int(_decode_finite(scn, section, key,
                              lambda v: v == int(v) and allowed(v), what,
                              default))


def _decode_positive(scn: Scenario, section: str, key: str) -> float | None:
    """A positive finite number, or None when the key is absent."""
    return _decode_finite(scn, section, key, lambda v: v > 0,
                          "a positive finite number")


def _decode_epsilon(scn: Scenario) -> float:
    """The perturbation magnitude: finite and nonnegative, 0 when absent."""
    return _decode_finite(scn, "perturbation", "epsilon", lambda v: v >= 0,
                          "a finite nonnegative number", 0.0)


_TRUE, _FALSE = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _decode_bool(scn: Scenario, section: str, key: str) -> bool:
    """A yes/no word in any case; false when the key is absent."""
    raw = scn.get(section, key, "false")
    word = raw.strip().lower()
    if word not in _TRUE + _FALSE:
        raise ScenarioError(f"expected one of {'/'.join(_TRUE + _FALSE)}, "
                            f"got {raw!r}", section, key)
    return word in _TRUE


# chain construction ---------------------------------------------------------

def _family(cfg: dict[str, str], rate_key: str, indices: np.ndarray,
            period: float | None, section: str) -> model.RateFamily:
    if rate_key not in cfg:
        raise ScenarioError("missing rate", section, rate_key)
    shared = _decode_rate(cfg[rate_key], period, section, rate_key)
    mults = _decode_mult(cfg.get(rate_key + "_mult"), indices, section,
                         rate_key + "_mult")
    return model.rate_family(shared=shared, multipliers=mults)


def build_chain(scn: Scenario, section: str = "chain") -> model.ChainSpec:
    """Build the chain described by a scenario section (the perturbation
    section reuses this for explicit replacement rates); ``period`` and
    ``bound`` default to the [chain] values, and ``truncated`` is accepted
    and ignored.  A rate or multiplier key of the section that the kind
    does not read is an error."""
    cfg = dict(scn.sections[section])
    if section == "perturbation":
        # explicit mode: the chain definition with replaced rates
        cfg = {k: v for k, v in cfg.items() if k not in _PERT_OWN_KEYS}
    # the keys of this section; [chain] keys are checked in [chain]
    own = set(cfg)
    cfg = {**scn.sections["chain"], **cfg}
    kind = cfg.get("kind")
    if kind is None:
        raise ScenarioError("missing chain kind", section, "kind")
    size_raw = cfg.get("states")
    if size_raw is None:
        raise ScenarioError("missing state count", section, "states")
    try:
        size = int(size_raw)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {size_raw!r}", section,
                            "states")
    if size < 2:
        raise ScenarioError("need at least two states", section, "states")
    if size > MAX_STATES:
        raise ScenarioError(f"at most {MAX_STATES} states, got {size}",
                            section, "states")

    def inherited(decode, key: str) -> float | None:
        value = decode(scn, section, key)
        return decode(scn, "chain", key) if value is None else value

    period = inherited(_decode_positive, "period")
    declared = inherited(_decode_finite, "bound")
    kw = dict(declared_bound=declared)
    n = size - 1
    read = set()

    def fam(key: str, first: int) -> model.RateFamily:
        """The family of ``key`` on the n states first, first+1, ..."""
        read.update((key, key + "_mult"))
        return _family(cfg, key, np.arange(first, first + n), period, section)

    def batches(prefix: str) -> dict[int, RateFunction]:
        keys = [key for key in cfg if re.match(rf"{prefix}_\d+$", key)]
        read.update(keys)
        named = {}
        for key in keys:
            k = int(key[len(prefix) + 1:])
            if k in named:
                raise ScenarioError(f"{named[k]} and {key} both give the rate "
                                    f"of batch size {k}", section, key)
            named[k] = key
        return {k: _decode_rate(cfg[key], period, section, key)
                for k, key in named.items()}

    # model attributes are looked up at call time, so wrappers see the calls
    builders = {
        "birth-death": lambda: model.birth_death_chain(
            fam("birth", 0), fam("death", 1), size, **kw),
        "batch-arrival": lambda: model.batch_arrival_chain(
            batches("arrival"), fam("service", 1), size, **kw),
        "batch-service": lambda: model.batch_service_chain(
            fam("birth", 0), batches("service"), size, **kw),
        "batch": lambda: model.batch_chain(
            batches("arrival"), batches("service"), size, **kw),
    }
    base_kind, kind_key = kind, "kind"
    if kind == "catastrophe":
        base_kind, kind_key = cfg.get("base_kind"), "base_kind"
        if base_kind is None:
            raise ScenarioError("catastrophe chains need base_kind",
                                section, "base_kind")
        cat = fam("catastrophe", 1)
    if base_kind not in builders:
        raise ScenarioError(f"unknown chain kind {base_kind!r}", section,
                            kind_key)
    try:
        chain = builders[base_kind]()
        if kind == "catastrophe":
            chain = model.catastrophe_chain(chain, cat, declared_bound=declared)
    except ChainValidationError as exc:
        raise ScenarioError(str(exc), section)
    unread = sorted(own - _SHAPE_KEYS - read)
    if unread:
        raise ScenarioError(f"a {kind} chain does not read this rate key",
                            section, unread[0])
    return chain


def build_weights(scn: Scenario, n: int) -> analysis.WeightSequence:
    kind = scn.get("weights", "kind", "unit")
    unread = sorted(set(scn.sections.get("weights", ())) - {"kind"}
                    - _WEIGHT_READS.get(kind, _WEIGHT_KEYS))
    if unread:
        raise ScenarioError(f"{kind} weights do not read this key", "weights",
                            unread[0])
    if kind == "unit":
        return analysis.WeightSequence.unit(n)
    if kind == "geometric":
        delta = _decode_float(scn, "weights", "delta")
        if delta is None:
            raise ScenarioError("geometric weights need delta", "weights",
                                "delta")
        return analysis.WeightSequence.geometric(delta, n)
    if kind == "explicit":
        raw = scn.get("weights", "values")
        if raw is None:
            raise ScenarioError("explicit weights need values", "weights",
                                "values")
        try:
            vals = np.array([float(v) for v in raw.split(",")])
        except ValueError:
            raise ScenarioError(f"expected numbers, got {raw!r}", "weights",
                                "values")
        if len(vals) != n:
            raise ScenarioError(f"{len(vals)} weights for {n} reduced states",
                                "weights", "values")
        return analysis.WeightSequence(vals)
    raise ScenarioError(f"unknown weights kind {kind!r}", "weights", "kind")


def perturbation_mode(scn: Scenario) -> str:
    """The ``[perturbation]`` mode, "none" without the section.  A key the
    mode does not read is an error: rate keys outside ``explicit``,
    ``draws`` and ``seed`` outside ``rate-offsets``."""
    if not scn.has("perturbation"):
        return "none"
    mode = scn.get("perturbation", "mode", "none")
    if mode not in _PERT_MODES:
        raise ScenarioError(f"unknown perturbation mode {mode!r}",
                            "perturbation", "mode")
    unread = sorted(
        key for key in scn.sections["perturbation"]
        if key in ("draws", "seed") and mode != "rate-offsets"
        or key not in _PERT_OWN_KEYS and mode != "explicit")
    if unread:
        raise ScenarioError(f"mode {mode} does not read this key",
                            "perturbation", unread[0])
    return mode


def scenario_perturbations(scn: Scenario, spec: model.ChainSpec,
                           seed: int | None = None) -> list[tuple[str, model.Chain]]:
    """The perturbed chains a scenario asks for (several for seeded
    draws, one otherwise), its keys checked by ``perturbation_mode``."""
    mode = perturbation_mode(scn)
    if mode == "none":
        return []
    eps = _decode_epsilon(scn)
    if mode == "explicit":
        return [("explicit", build_chain(scn, "perturbation"))]
    if mode in ("mass-arrival", "multiplicative"):
        return [(mode, model.perturb(spec, model.Perturbation(mode, eps=eps)))]
    draws = _decode_int(scn, "perturbation", "draws", 1, lambda v: v >= 1,
                        "a positive integer")
    if seed is None:
        seed = _decode_int(scn, "perturbation", "seed", 0, lambda v: v >= 0,
                           "a non-negative integer")
    out = []
    for i in range(draws):
        pert = model.Perturbation("rate-offsets", eps=eps, seed=seed + i)
        out.append((f"draw{i}", model.perturb(spec, pert)))
    return out


# ---------------------------------------------------------------------------
# report document

class Report:
    def __init__(self, entries: dict[str, object] | None = None):
        self.entries = {} if entries is None else entries

    def put(self, key: str, value):
        if isinstance(value, np.generic):
            value = value.item()
        self.entries[key] = value

    def machine_text(self) -> str:
        def fmt(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return "".join(f"{k} = {fmt(v)}\n" for k, v in self.entries.items())

    def human_text(self) -> str:
        lines = [f"scenario {self.entries.get('scenario.name', '?')}"]
        groups: dict[str, list[str]] = {}
        for key, value in self.entries.items():
            head = key.split(".", 1)[0]
            groups.setdefault(head, []).append(key)
        for head, keys in groups.items():
            if head == "scenario":
                continue
            lines.append(f"  {head}:")
            for key in keys:
                v = self.entries[key]
                if isinstance(v, float):
                    v = f"{v:.10g}"
                lines.append(f"    {key.split('.', 1)[1]} = {v}")
        return "\n".join(lines) + "\n"


def _cert_entries(rep: Report, prefix: str,
                  cert: analysis.ErgodicityCertificate):
    rep.put(f"{prefix}.approach", cert.approach)
    rep.put(f"{prefix}.certified", cert.certified)
    rep.put(f"{prefix}.amplitude", cert.amplitude)
    rep.put(f"{prefix}.rate", cert.rate)
    rep.put(f"{prefix}.period_mean", cert.rate)
    rep.put(f"{prefix}.peak_dev", cert.peak_dev)
    rep.put(f"{prefix}.grid", cert.grid)
    rep.put(f"{prefix}.sup_kind", "grid-certificate")
    if cert.min_weight is not None:
        rep.put(f"{prefix}.min_weight", cert.min_weight)
        rep.put(f"{prefix}.weight_state_ratio", cert.weight_state_ratio)
        rep.put(f"{prefix}.reduced_norm_sup", cert.reduced_norm_sup)
        rep.put(f"{prefix}.forcing_norm_sup", cert.forcing_norm_sup)


# ---------------------------------------------------------------------------
# pipeline

class PipelineResult:
    def __init__(self, report: Report, exit_code: int = EXIT_OK):
        self.report = report
        self.exit_code = exit_code


def _certificates(spec: model.ChainSpec, weights: analysis.WeightSequence,
                  grid: int):
    weighted = uniform = None
    if spec.catastrophes is None:
        weighted = analysis.weighted_certificate(spec, weights, grid=grid)
        if weighted.certified:
            uniform = analysis.uniform_from_weighted(weighted, weights)
    else:
        uniform = analysis.catastrophe_uniform_certificate(spec, grid=grid)
        if not uniform.certified:
            uniform = None
    return weighted, uniform


def run_pipeline(scn: Scenario, out_dir: Path, stage: str,
                 grid: int = ANALYSIS_GRID, step: float | None = None,
                 seed: int | None = None) -> PipelineResult:
    """Execute the pipeline implied by the scenario sections up to
    ``stage`` in {"analyze", "bounds", "run"}."""
    solve = {key: _decode_positive(scn, "solve", key)
             for key in ("t_end", "step", "stride", "tolerance", "horizon")}
    outputs = {key: _decode_bool(scn, "outputs", key) for key in _OUTPUT_KEYS}
    perturbation_mode(scn)  # checked at every stage, read from "bounds" on
    rep = Report()
    rep.put("scenario.name", scn.name)
    spec = build_chain(scn)
    rep.put("chain.kind", spec.kind)
    rep.put("chain.states", spec.size)
    rep.put("chain.period", spec.period if spec.period is not None else "none")
    rep.put("chain.intensity_bound", spec.l_bound)
    weights = build_weights(scn, spec.n)
    weighted_cert, uniform_cert = _certificates(spec, weights, grid)
    if weighted_cert is not None:
        _cert_entries(rep, "cert.weighted", weighted_cert)
    if uniform_cert is not None:
        _cert_entries(rep, "cert.uniform", uniform_cert)
    if weighted_cert is None and uniform_cert is None:
        rep.put("cert.none", "no certificate route for this chain")

    result = PipelineResult(report=rep)
    eps = _decode_epsilon(scn)
    perturbed: list[tuple[str, model.Chain]] = []
    bound_report = None
    if stage in ("bounds", "run") and scn.has("perturbation"):
        try:
            perturbed = scenario_perturbations(scn, spec, seed=seed)
        except ChainValidationError as exc:
            raise ScenarioError(str(exc), "perturbation")
        if perturbed:
            gaps = bounds.perturbation_gaps(
                spec, [chain for _, chain in perturbed], weights, grid=grid)
            bound_report = bounds.build_report(
                eps, uniform_cert, weighted_cert, gaps, top_state=spec.n)
            rep.put("bounds.eps", eps)
            rep.put("bounds.gaps.reduced", gaps.reduced)
            rep.put("bounds.gaps.forcing", gaps.forcing)
            rep.put("bounds.gaps.generator", gaps.generator)
            rep.put("bounds.uniform.limsup", bound_report.uniform_limsup)
            rep.put("bounds.uniform.mean_limsup",
                    bound_report.uniform_mean_limsup)
            rep.put("bounds.weighted.limsup", bound_report.weighted_limsup)
            rep.put("bounds.weighted.tv_limsup",
                    bound_report.weighted_tv_limsup)
            rep.put("bounds.weighted.mean_limsup",
                    bound_report.weighted_mean_limsup)
            rep.put("bounds.weighted.feasible", bound_report.weighted_feasible)
            rep.put("bounds.eps_critical", bound_report.eps_critical)
            if bound_report.smaller_route is not None:
                rep.put("bounds.smaller", bound_report.smaller_route)
            if uniform_cert is not None and uniform_cert.amplitude < 2.0:
                rep.put("bounds.note", "amplitude below 2: log factor negative")
            if math.isnan(bound_report.best_tv_bound):
                result.exit_code = EXIT_INFEASIBLE

    if stage == "run" and scn.has("solve"):
        _solve_stage(scn, spec, perturbed, uniform_cert, bound_report, rep,
                     result, out_dir, step, solve, outputs)
    return result


def _solve_stage(scn, spec, perturbed, uniform_cert, bound_report, rep,
                 result, out_dir, step_override, solve, outputs):
    """Integrate the extreme states and every perturbed draw, and search
    the limiting regime; ``solve`` holds the decoded [solve] keys, None
    where absent, and ``outputs`` the [outputs] flags.

    The run is marched first.  The search reads the extreme columns at
    the run's samples on period boundaries: at every boundary up to
    ``t_end`` when the sampling interval divides the period, at 0 alone
    otherwise.  It marches on from the last boundary read, on the period
    clock, only if it has neither met the tolerance nor run out of
    horizon.  When it reads boundaries past 0, the ``regime.*`` keys come
    from the run's step, the smallest that the chain and every draw
    allow, shrunk to land on each sample; that step is never coarser than
    the search's own, but it depends on the stride and on the draws (so on
    ``[perturbation]`` and the seed), and the keys move with it by the
    error of the method."""
    period = spec.period if spec.period is not None else 1.0
    t_end = solve["t_end"] or 10 * period
    step = step_override if step_override is not None else solve["step"]
    stride = solve["stride"] or period / 100
    tol = solve["tolerance"] or 1e-6
    horizon = solve["horizon"] or t_end
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = scn.name

    # draws are compared only against a bound
    draws = perturbed if bound_report is not None else []
    extremes = np.stack([solver.delta_state(spec.size, 0),
                         solver.delta_state(spec.size, spec.n)], axis=1)
    traj = solver.integrate(spec, extremes, 0.0, t_end, step=step,
                            stride=stride, draws=[chain for _, chain in draws])
    dists = np.abs(traj.states[:, :, 0] - traj.states[:, :, 1]).sum(axis=1)
    # the samples on a period boundary, for the envelope and the search
    k = np.rint(traj.times / period)
    boundary = np.isclose(traj.times, k * period, rtol=1e-12,
                          atol=1e-12 * period)
    columns = traj.states[boundary][:, :, :2]
    if not np.array_equal(k[boundary], np.arange(len(columns))):
        columns = columns[:1]  # a boundary falls between samples
    search = solver.regime_search(spec, tolerance=tol, max_horizon=horizon,
                                  step=step, columns=columns)
    rep.put("empirical.extreme_final_dist", float(dists[-1]))
    # an envelope or a bound below the distances' rounding floor resolves
    # nothing: both are floored at it
    resolution = VERDICT_ULPS * spec.size * np.finfo(float).eps
    decay_ok = True
    if uniform_cert is not None and uniform_cert.certified:
        envelope = np.clip(
            uniform_cert.amplitude * np.exp(-uniform_cert.rate
                                            * traj.times[boundary]),
            resolution, 2.0)
        decay_ok = bool(np.all(dists[boundary]
                               <= envelope * (1 + VERDICT_SLACK)))
        rep.put("empirical.decay_within_envelope", decay_ok)
    if outputs["transient_means"]:
        for col, tag in ((0, "x0"), (1, "xtop")):
            path = out_dir / f"{stem}_mean_{tag}.csv"
            solver.write_mean_csv(traj, path, column=col)

    try:
        regime = search.report()
        rep.put("regime.transient_horizon", regime.transient_horizon)
        rep.put("regime.phi_min", float(regime.phi_values.min()))
        rep.put("regime.phi_max", float(regime.phi_values.max()))
        if outputs["limit_states"]:
            path = out_dir / f"{stem}_limit_x0.csv"
            solver.write_states_csv(regime.limit, path, column=0)
        if outputs["limit_mean"]:
            path = out_dir / f"{stem}_limit_mean.csv"
            solver.write_mean_csv(regime.limit, path, column=0)
    except solver.SolverError as exc:
        rep.put("regime.error", str(exc))

    sound = decay_ok
    if draws:
        best = bound_report.best_tv_bound
        worst_sup = 0.0
        for i, (label, _) in enumerate(draws):
            curve = solver.distance_curve(traj, 2 + i, t_end, period)
            worst_sup = max(worst_sup, curve.final_sup)
            if outputs["distance"]:
                solver.write_csv(out_dir / f"{stem}_distance_{label}.csv",
                                 ["t", "dist"], [curve.times, curve.dists])
        rep.put("empirical.draws", len(draws))
        rep.put("empirical.final_period_sup", worst_sup)
        rep.put("empirical.bound", best)
        if not math.isnan(best):
            ok = worst_sup <= max(best, resolution) * (1 + VERDICT_SLACK)
            rep.put("empirical.bound_respected", ok)
            sound = sound and ok
    rep.put("verdict.sound", sound)
    if not sound:
        result.exit_code = EXIT_VIOLATION


# ---------------------------------------------------------------------------
# bundled studies

def bundled_scenario(name: str) -> Scenario:
    text = resources.files("ctmcpert.scenarios").joinpath(f"{name}.scn") \
        .read_text()
    return parse_scenario_text(text, name=name)


def _emit(result: PipelineResult, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result.report.entries.get("scenario.name", "report")
    kv_path = out_dir / f"{name}.report.kv"
    kv_path.write_text(result.report.machine_text())
    sys.stdout.write(result.report.human_text())
    sys.stdout.write(f"report written to {kv_path}\n")
    return result.exit_code


def reproduce(target: str, out_dir: Path, grid: int = ANALYSIS_GRID,
              step: float | None = None, seed: int | None = None) -> int:
    if target == "1":
        code = EXIT_OK
        for name in ("mtmtnn", "mtmtnn_w05"):
            scn = bundled_scenario(name)
            result = run_pipeline(scn, out_dir, "run", grid=grid, step=step,
                                  seed=seed)
            code = max(code, _emit(result, out_dir))
        return code
    if target == "2":
        scn = bundled_scenario("pair_arrivals")
        result = run_pipeline(scn, out_dir, "run", grid=grid, step=step,
                              seed=seed)
        return _emit(result, out_dir)
    if target == "counterexample":
        rep = Report()
        rep.put("scenario.name", "counterexample")
        probe = solver.mass_arrival_probe(0.1, [100, 200, 400])
        for level, p0, resid in zip(probe.levels, probe.p0_values,
                                    probe.recursion_residuals):
            rep.put(f"probe.p0_at_{level}", p0)
            rep.put(f"probe.recursion_residual_{level}", resid)
        drops = all(a > b for a, b in zip(probe.p0_values,
                                          probe.p0_values[1:]))
        rep.put("probe.head_probability_decreasing", drops)
        base = model.birth_death_chain(RateFunction.constant(1.0),
                                       RateFunction.constant(4.0), size=101,
                                       validation_grid=64)
        scaled = model.perturb(base, model.Perturbation("multiplicative",
                                                        eps=0.1))
        p_base = solver.stationary_distribution(base)
        p_scaled = solver.stationary_distribution(scaled)
        shift = float(np.abs(p_base - p_scaled).sum())
        rep.put("scaling.stationary_distance", shift)
        rep.put("scaling.invariant", shift < 1e-8)
        out_dir.mkdir(parents=True, exist_ok=True)
        solver.write_csv(out_dir / "counterexample_p0.csv", ["level", "p0"],
                         [probe.levels, probe.p0_values])
        result = PipelineResult(report=rep)
        if not drops or max(probe.recursion_residuals) > 1e-6:
            result.exit_code = EXIT_VIOLATION
        return _emit(result, out_dir)
    raise ScenarioError(f"unknown reproduce target {target!r}; "
                        "choose 1, 2 or counterexample")


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmcpert",
        description="Ergodicity certificates and perturbation bounds for "
                    "time-inhomogeneous Markovian queueing models")
    parser.add_argument("--grid", type=int, default=ANALYSIS_GRID,
                        help="samples per period for grid certificates")
    parser.add_argument("--step", type=float, default=None,
                        help="integrator step override")
    parser.add_argument("--out", type=str, default="out",
                        help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="perturbation draw seed override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("analyze", "certificates only"),
                            ("bounds", "certificates and bounds"),
                            ("run", "full pipeline")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", type=str)
    p = sub.add_parser("reproduce", help="bundled studies")
    p.add_argument("target", type=str, choices=["1", "2", "counterexample"])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    if args.grid <= 0 or args.grid % 2:
        sys.stderr.write(f"option error: --grid must be a positive even "
                         f"integer, got {args.grid}\n")
        return EXIT_PARSE
    if args.grid > MAX_GRID:
        sys.stderr.write(f"option error: --grid must be at most {MAX_GRID}, "
                         f"got {args.grid}\n")
        return EXIT_PARSE
    if args.seed is not None and args.seed < 0:
        sys.stderr.write(f"option error: --seed must be a non-negative "
                         f"integer, got {args.seed}\n")
        return EXIT_PARSE
    if args.step is not None and not (math.isfinite(args.step)
                                      and args.step > 0):
        sys.stderr.write(f"option error: --step must be a positive finite "
                         f"number, got {args.step}\n")
        return EXIT_PARSE
    try:
        if args.command == "reproduce":
            return reproduce(args.target, out_dir, grid=args.grid,
                             step=args.step, seed=args.seed)
        scn = load_scenario(args.scenario)
        result = run_pipeline(scn, out_dir, args.command, grid=args.grid,
                              step=args.step, seed=args.seed)
        return _emit(result, out_dir)
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return EXIT_PARSE
    except (ChainValidationError, analysis.CertificateError,
            solver.SolverError, ValueError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
