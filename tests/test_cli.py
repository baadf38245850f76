import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctmcpert
from conftest import dense_generator
from ctmcpert import (Perturbation, RateFunction, batch_arrival_chain,
                      batch_chain, batch_service_chain, birth_death_chain,
                      catastrophe_chain, delta_state, model, parse_rate,
                      perturb, rate_family, solver)
from ctmcpert.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE,
                          EXIT_VALIDATION, EXIT_VIOLATION, MAX_GRID,
                          MAX_STATES, Scenario, ScenarioError, build_chain,
                          build_weights, bundled_scenario, load_scenario,
                          main, parse_scenario_text, run_pipeline,
                          scenario_perturbations)

SMALL = """
# periodic birth-death chain, small enough for fast full runs
[chain]
kind = birth-death
states = 25
period = 1
birth = "1+sin(2*pi*t)"   # arrivals peak mid-period
death = "4"
death_mult = min(k,3)

[weights]
kind = geometric
delta = 1.5

[perturbation]
mode = rate-offsets
epsilon = 0.01
draws = 2
seed = 7

[solve]
t_end = 8
stride = 0.125
tolerance = 1e-6
horizon = 8

[outputs]
transient_means = true
limit_mean = true
distance = true
"""


@pytest.fixture()
def small_scn(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL)
    return path


# ---------------------------------------------------------------------------
# scenario format

def test_parse_sections_and_values():
    scn = parse_scenario_text(SMALL, name="small")
    assert scn.get("chain", "kind") == "birth-death"
    assert scn.get("chain", "birth") == '"1+sin(2*pi*t)"'
    assert scn.get("perturbation", "epsilon") == "0.01"
    assert scn.has("solve") and scn.has("outputs")


def test_parse_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario_text("[chain]\nkind = birth-death\nfrobnicate = 1\n")


def test_parse_rejects_unknown_section():
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario_text("[nonsense]\nx = 1\n")


def test_parse_rejects_duplicates_and_strays():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text("[chain]\nkind = birth-death\nkind = batch\n")
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario_text("kind = birth-death\n")
    with pytest.raises(ScenarioError, match="no \\[chain\\]"):
        parse_scenario_text("[weights]\nkind = unit\n")


def test_table_rate_in_scenario():
    text = """
[chain]
kind = birth-death
states = 5
period = 1
birth = table: [(0,1),(0.5,2)]
death = "3"
"""
    spec = build_chain(parse_scenario_text(text))
    assert spec.births.rate_functions[0](0.25) == 1.0
    assert spec.births.rate_functions[0](0.75) == 2.0


def test_build_weights_variants():
    base = "[chain]\nkind = birth-death\nstates = 4\nbirth = \"1\"\ndeath = \"2\"\n"
    scn = parse_scenario_text(base + "[weights]\nkind = unit\n")
    assert np.allclose(build_weights(scn, 3).values, 1.0)
    scn = parse_scenario_text(base + "[weights]\nkind = geometric\ndelta = 2\n")
    assert np.allclose(build_weights(scn, 3).values, [1, 2, 4])
    scn = parse_scenario_text(base + "[weights]\nkind = explicit\nvalues = 1, 2, 7\n")
    assert np.allclose(build_weights(scn, 3).values, [1, 2, 7])
    with pytest.raises(ScenarioError, match="3 weights for 4"):
        bad = parse_scenario_text(
            "[chain]\nkind = birth-death\nstates = 5\nbirth = \"1\"\n"
            "death = \"2\"\n[weights]\nkind = explicit\nvalues = 1, 2, 7\n")
        build_weights(bad, 4)


def test_build_chain_batch_kinds():
    text = """
[chain]
kind = batch-arrival
states = 10
period = 1
arrival_1 = "1+sin(2*pi*t)"
arrival_2 = "0.5*(1+sin(2*pi*t))"
service = "3"
service_mult = min(k,2)
"""
    spec = build_chain(parse_scenario_text(text))
    assert spec.kind == "batch-arrival"
    assert sorted(spec.arrival_batches) == [1, 2]
    assert spec.services.multipliers[0] == 1.0
    assert spec.services.multipliers[3] == 2.0


def test_build_chain_catastrophe():
    text = """
[chain]
kind = catastrophe
base_kind = birth-death
states = 8
period = 1
birth = "1"
death = "4"
catastrophe = "0.3"
"""
    spec = build_chain(parse_scenario_text(text))
    assert spec.kind == "catastrophe"
    assert spec.births is not None and spec.deaths is not None
    assert spec.services is None
    assert not spec.arrival_batches and not spec.service_batches
    assert np.array_equal(spec.catastrophes.multipliers, np.ones(7))


def _fam(expr, mults):
    return rate_family(shared=parse_rate(expr, period=1.0), multipliers=mults)


def _rate(expr):
    return parse_rate(expr, period=1.0)


#: base kind -> (scenario rate lines, the same chain from a builder, n = 7)
CATASTROPHE_BASES = {
    "birth-death": (
        'birth = "1+0.5*sin(2*pi*t)"\ndeath = "2"\ndeath_mult = min(k, 3)\n',
        lambda: birth_death_chain(
            _fam("1+0.5*sin(2*pi*t)", np.ones(7)),
            _fam("2", np.minimum(np.arange(1, 8), 3.0)), 8)),
    "batch-arrival": (
        'arrival_1 = "1+0.5*sin(2*pi*t)"\narrival_3 = "0.3"\n'
        'service = "2"\nservice_mult = k\n',
        lambda: batch_arrival_chain(
            {1: _rate("1+0.5*sin(2*pi*t)"), 3: _rate("0.3")},
            _fam("2", np.arange(1.0, 8.0)), 8)),
    "batch-service": (
        'birth = "1+0.5*sin(2*pi*t)"\nservice_1 = "2"\n'
        'service_2 = "0.5*(1+cos(2*pi*t))"\n',
        lambda: batch_service_chain(
            _fam("1+0.5*sin(2*pi*t)", np.ones(7)),
            {1: _rate("2"), 2: _rate("0.5*(1+cos(2*pi*t))")}, 8)),
    "batch": (
        'arrival_1 = "1+0.5*sin(2*pi*t)"\narrival_2 = "0.3"\n'
        'service_1 = "2"\nservice_3 = "1"\n',
        lambda: batch_chain({1: _rate("1+0.5*sin(2*pi*t)"), 2: _rate("0.3")},
                            {1: _rate("2"), 3: _rate("1")}, 8)),
}


@pytest.mark.parametrize("base_kind", list(CATASTROPHE_BASES))
def test_build_catastrophe_chain_matches_builders(base_kind):
    lines, build = CATASTROPHE_BASES[base_kind]
    text = (f"[chain]\nkind = catastrophe\nbase_kind = {base_kind}\n"
            f"states = 8\nperiod = 1\n{lines}"
            'catastrophe = "0.3*(1+sin(2*pi*t))"\ncatastrophe_mult = min(k, 3)\n')
    got = build_chain(parse_scenario_text(text))
    want = catastrophe_chain(build(), _fam("0.3*(1+sin(2*pi*t))",
                                           np.minimum(np.arange(1, 8), 3.0)))
    assert got.kind == want.kind == "catastrophe"
    assert got.period == want.period == 1.0
    assert got.l_bound == want.l_bound
    for t in (0.0, 0.13, 0.5, 0.77):
        assert np.array_equal(got.bands_at(t).dense(),
                              want.bands_at(t).dense())


def test_multiplier_count_is_reported():
    text = ("[chain]\nkind = birth-death\nstates = 5\nbirth = \"1\"\n"
            "death = \"2\"\nbirth_mult = 1, 2\n")
    with pytest.raises(ScenarioError, match="2 multipliers for 4"):
        build_chain(parse_scenario_text(text))


# ---------------------------------------------------------------------------
# pipeline

def test_run_pipeline_full(small_scn, tmp_path):
    scn = load_scenario(small_scn)
    out = tmp_path / "out"
    result = run_pipeline(scn, out, "run", grid=512)
    rep = result.report.entries
    assert result.exit_code == EXIT_OK
    assert rep["verdict.sound"] is True
    assert rep["empirical.bound_respected"] is True
    assert rep["bounds.weighted.feasible"] is True
    assert rep["cert.weighted.certified"] is True
    assert (out / "small_mean_x0.csv").exists()
    distance = (out / "small_distance_draw0.csv").read_text().splitlines()
    assert distance[0] == "t,dist"


def test_run_determinism(small_scn, tmp_path):
    scn = load_scenario(small_scn)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(scn, out1, "run", grid=256)
    run_pipeline(scn, out2, "run", grid=256)
    for name in ("small_mean_x0.csv", "small_distance_draw0.csv",
                 "small_distance_draw1.csv", "small_limit_mean.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bounds_marks_smaller_route(tmp_path):
    scn = bundled_scenario("mtmtnn")
    result = run_pipeline(scn, tmp_path, "bounds", grid=512)
    rep = result.report.entries
    assert rep["bounds.smaller"] == "uniform"
    assert rep["cert.uniform.amplitude"] == pytest.approx(1196.0, rel=1e-9)
    assert rep["bounds.uniform.limsup"] == pytest.approx(
        (1 + math.log(598.0)) * 0.01, rel=1e-9)


def test_weighted_infeasible_keeps_uniform_route(small_scn, tmp_path):
    scn = load_scenario(small_scn)
    sections = {k: dict(v) for k, v in scn.sections.items()}
    sections["perturbation"]["epsilon"] = "2.5"  # beyond the critical gap
    big = Scenario(name="big", sections=sections)
    result = run_pipeline(big, tmp_path, "bounds", grid=256)
    rep = result.report.entries
    assert rep["bounds.weighted.feasible"] is False
    assert math.isnan(rep["bounds.weighted.tv_limsup"])
    assert rep["bounds.smaller"] == "uniform"
    assert rep["bounds.eps_critical"] < 2.5
    assert result.exit_code == EXIT_OK  # the uniform route still reports


def test_infeasible_exit_code(tmp_path):
    # constant-rate walk with unit weights: no certified route, so a
    # requested bound cannot be produced
    text = """
[chain]
kind = birth-death
states = 12
period = 1
birth = "1"
death = "4"

[weights]
kind = unit

[perturbation]
mode = rate-offsets
epsilon = 0.01
draws = 1
seed = 1
"""
    scn = parse_scenario_text(text, name="flat")
    result = run_pipeline(scn, tmp_path, "bounds", grid=256)
    assert result.exit_code == EXIT_INFEASIBLE


def test_violation_exit_code(tmp_path):
    # the declared smallness is a lie: the explicit perturbation moves a
    # rate by 2 while epsilon claims 1e-6, so the measured distance must
    # exceed the reported bound and trip the dedicated exit code
    text = """
[chain]
kind = birth-death
states = 12
period = 1
birth = "1+sin(2*pi*t)"
death = "4"

[weights]
kind = geometric
delta = 2

[perturbation]
mode = explicit
epsilon = 1e-6
birth = "3+sin(2*pi*t)"
death = "4"

[solve]
t_end = 6
stride = 0.25
tolerance = 1e-6
horizon = 6
"""
    scn = parse_scenario_text(text, name="liar")
    result = run_pipeline(scn, tmp_path, "run", grid=256)
    assert result.exit_code == EXIT_VIOLATION
    assert result.report.entries["verdict.sound"] is False


def test_verdict_is_floored_at_the_distance_resolution(tmp_path,
                                                       monkeypatch):
    # past t = 8 the extremes meet to their distance's rounding floor
    # (2.1e-15 at t = 16) while c e^{-bt} falls to 6e-20; unfloored, that
    # reads as a violation and exits 5
    text = SMALL.replace("t_end = 8", "t_end = 16").replace(
        "horizon = 8", "horizon = 16")
    scn = parse_scenario_text(text, name="small")
    result = run_pipeline(scn, tmp_path, "run", grid=256)
    assert result.exit_code == EXIT_OK
    assert result.report.entries["empirical.decay_within_envelope"] is True
    with monkeypatch.context() as m:
        m.setattr("ctmcpert.cli.VERDICT_ULPS", 0)
        result = run_pipeline(scn, tmp_path, "run", grid=256)
        assert result.exit_code == EXIT_VIOLATION
        assert result.report.entries["empirical.decay_within_envelope"] \
            is False
    # an amplitude scaled down by 1e9 puts the envelope above the floor
    # (3.6e-13) and below the distances measured up to t = 5 (1.1e-10
    # against 9.5e-3 at t = 4): still a violation
    plain = ctmcpert.analysis.uniform_from_weighted

    def scaled(cert, w):
        out = plain(cert, w)
        out.amplitude *= 1e-9
        return out

    monkeypatch.setattr("ctmcpert.analysis.uniform_from_weighted", scaled)
    result = run_pipeline(scn, tmp_path, "run", grid=256)
    assert result.exit_code == EXIT_VIOLATION
    assert result.report.entries["empirical.decay_within_envelope"] is False
    monkeypatch.undo()
    # the reported bound is floored too: scaling every rate by 1 + 1.2e-16
    # moves the multipliers by one ulp, and the draw's distance, rounding
    # alone (4.6e-16 over the last period), exceeded the bound (4.2e-16)
    text = SMALL.replace("mode = rate-offsets", "mode = multiplicative") \
        .replace("epsilon = 0.01", "epsilon = 1.2e-16") \
        .replace("draws = 2\n", "").replace("seed = 7\n", "")
    result = run_pipeline(parse_scenario_text(text, name="tiny"), tmp_path,
                          "run", grid=256)
    assert result.report.entries["empirical.bound"] < \
        result.report.entries["empirical.final_period_sup"]
    assert result.report.entries["empirical.bound_respected"] is True
    assert result.exit_code == EXIT_OK


def test_main_exit_codes(small_scn, tmp_path, capsys):
    out = str(tmp_path / "cli_out")
    assert main(["--out", out, "--grid", "256", "analyze",
                 str(small_scn)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "cert" in captured.out
    assert (tmp_path / "cli_out" / "small.report.kv").exists()
    assert main(["--out", out, "--grid", "256", "bounds",
                 str(small_scn)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "bounds" in captured.out and "smaller" in captured.out
    assert main(["--out", out, "analyze", "missing.scn"]) == EXIT_PARSE
    bad = tmp_path / "bad.scn"
    bad.write_text("[chain]\nkind = birth-death\nstates = 5\n"
                   "birth = \"sin(2*pi*t)\"\ndeath = \"1\"\nperiod = 1\n")
    assert main(["--out", out, "analyze", str(bad)]) == EXIT_PARSE
    syntax = tmp_path / "syntax.scn"
    syntax.write_text("[chain]\nbogus_key = 1\n")
    assert main(["--out", out, "analyze", str(syntax)]) == EXIT_PARSE
    states = tmp_path / "states.scn"
    states.write_text("[chain]\nkind = birth-death\nstates = abc\n"
                      "birth = \"1\"\ndeath = \"1\"\nperiod = 1\n")
    assert main(["--out", out, "analyze", str(states)]) == EXIT_PARSE
    assert "integer" in capsys.readouterr().err
    # malformed numbers inside weights, multipliers and draws
    chain = ("[chain]\nkind = birth-death\nstates = 4\nperiod = 1\n"
             "birth = \"1\"\ndeath = \"2\"\n")
    for name, text, where in (
            ("values", chain + "[weights]\nkind = explicit\nvalues = 1, x, 3\n",
             "[weights] key 'values'"),
            ("mult", chain + "birth_mult = min(k, 1.2.3)\n",
             "[chain] key 'birth_mult'"),
            ("draws", chain + "[perturbation]\nmode = rate-offsets\n"
             "epsilon = 0.01\ndraws = nan\n", "[perturbation] key 'draws'")):
        path = tmp_path / f"{name}.scn"
        path.write_text(text)
        assert main(["--out", out, "--grid", "256", "bounds",
                     str(path)]) == EXIT_PARSE
        assert where in capsys.readouterr().err
    # a rate or multiplier key the chain kind does not read is bad input,
    # in [chain] and among the explicit perturbation's replacement keys
    for name, text, where in (
            ("arrival", chain + "arrival_2 = \"5\"\n",
             "[chain] key 'arrival_2'"),
            ("service_mult", chain + "service_mult = k\n",
             "[chain] key 'service_mult'"),
            ("catastrophe", chain + "catastrophe = \"3\"\n",
             "[chain] key 'catastrophe'"),
            ("birth_mult", "[chain]\nkind = batch-arrival\nstates = 4\n"
             "period = 1\narrival_1 = \"1\"\nservice = \"2\"\n"
             "birth_mult = k\n", "[chain] key 'birth_mult'"),
            ("override", chain + "[perturbation]\nmode = explicit\n"
             "epsilon = 0.01\narrival_3 = \"7\"\n",
             "[perturbation] key 'arrival_3'")):
        path = tmp_path / f"unread_{name}.scn"
        path.write_text(text)
        assert main(["--out", out, "--grid", "256", "bounds",
                     str(path)]) == EXIT_PARSE
        assert where in capsys.readouterr().err
    # two keys for one batch size are ambiguous
    for name, text, keys in (
            ("arrival", "[chain]\nkind = batch-arrival\nstates = 4\n"
             "period = 1\narrival_1 = \"1\"\narrival_01 = \"5\"\n"
             "service = \"2\"\n", "arrival_1 and arrival_01"),
            ("service", "[chain]\nkind = batch-service\nstates = 4\n"
             "period = 1\nbirth = \"1\"\nservice_2 = \"1\"\n"
             "service_002 = \"3\"\n", "service_2 and service_002")):
        path = tmp_path / f"duplicate_{name}.scn"
        path.write_text(text)
        assert main(["--out", out, "analyze", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{keys} both give the rate of batch size" in err
    # a constant rate that divides by zero is non-finite, like one that
    # does so only at some times
    for rate in ("1/0", "1/(t-t)"):
        path = tmp_path / "divide.scn"
        path.write_text(chain.replace('birth = "1"', f'birth = "{rate}"'))
        assert main(["--out", out, "analyze", str(path)]) == EXIT_PARSE
        assert "non-finite rate value" in capsys.readouterr().err
    # the brackets of a table hold comma-separated pairs and nothing else:
    # each of these was read as the table ((0, 1),) or ((0, 1), (0.5, 2))
    for table in ("[(0,1),(0.5,)]", "[(0,1),(0.5,2,3)]",
                  "[(0,1),(0.5,2), junk]", "[(0,1) (0.5,2)]"):
        path = tmp_path / "table.scn"
        path.write_text(chain.replace('birth = "1"', f"birth = table: {table}"))
        assert main(["--out", out, "analyze", str(path)]) == EXIT_PARSE
        assert "[chain] key 'birth'" in capsys.readouterr().err
    # a state count past the limit is rejected before anything is built:
    # 1e8 states asked numpy for a (64, 1e8) block and exited 1
    for states in (100000000, MAX_STATES + 1):
        path = tmp_path / "huge.scn"
        path.write_text(chain.replace("states = 4", f"states = {states}"))
        assert main(["--out", out, "--grid", "64", "bounds",
                     str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "[chain] key 'states'" in err and str(MAX_STATES) in err \
            and str(states) in err
    # a scenario path that is a directory or not UTF-8 text cannot be read
    latin = tmp_path / "latin.scn"
    latin.write_bytes(chain.encode() + b"# caf\xe9\n")
    for path in (tmp_path, latin):
        assert main(["--out", out, "analyze", str(path)]) == EXIT_PARSE
        assert "cannot read scenario file" in capsys.readouterr().err
    # a negative seed, in the scenario or as an option, and a grid that is
    # not a positive even integer are bad input
    seed = tmp_path / "seed.scn"
    seed.write_text(chain + "[perturbation]\nmode = rate-offsets\n"
                    "epsilon = 0.01\nseed = -3\n")
    assert main(["--out", out, "--grid", "256", "bounds",
                 str(seed)]) == EXIT_PARSE
    assert "[perturbation] key 'seed'" in capsys.readouterr().err
    for option in (["--seed", "-1"], ["--grid", "0"], ["--grid", "3"],
                   ["--grid", "-4"], ["--step=-1"], ["--step", "0"],
                   ["--step", "nan"], ["--step", "inf"]):
        assert main(["--out", out] + option + ["bounds",
                                               str(small_scn)]) == EXIT_PARSE
        assert option[0].split("=")[0] in capsys.readouterr().err
    # [solve] values are checked before any certificate is computed
    for key, value in (("stride", "0"), ("stride", "-0.1"), ("step", "0"),
                       ("step", "-1"), ("t_end", "nan"), ("tolerance", "-1"),
                       ("horizon", "inf")):
        path = tmp_path / f"solve_{key}.scn"
        path.write_text(chain + f"[solve]\n{key} = {value}\n")
        assert main(["--out", out, "run", str(path)]) == EXIT_PARSE
        assert f"[solve] key '{key}'" in capsys.readouterr().err
    # ``initial`` is no [solve] key: a run always starts from the extreme
    # states
    path = tmp_path / "initial.scn"
    path.write_text(chain.replace("states = 4", "states = 6")
                    + "[solve]\nt_end = 1\ninitial = 5\n")
    assert main(["--out", out, "run", str(path)]) == EXIT_PARSE
    assert "unknown key in [solve] key 'initial'" in capsys.readouterr().err
    # an [outputs] value must be a yes/no word
    for command in ("analyze", "run"):
        path = tmp_path / "outputs.scn"
        path.write_text(chain + "[solve]\nt_end = 1\n"
                        "[outputs]\ntransient_means = ture\n")
        assert main(["--out", out, command, str(path)]) == EXIT_PARSE
        assert "[outputs] key 'transient_means'" in capsys.readouterr().err
    # a period must be positive and finite, in [chain] and in the
    # explicit perturbation's chain definition, whichever command reads it
    explicit = "[perturbation]\nmode = explicit\nepsilon = 0.01\n"
    for value in ("0", "-1", "nan", "inf"):
        for section, text in (
                ("chain", chain.replace("period = 1", f"period = {value}")),
                ("perturbation", chain + explicit + f"period = {value}\n")):
            path = tmp_path / f"period_{section}.scn"
            path.write_text(text + "[solve]\nt_end = 2\n")
            for command in ("bounds", "run"):
                assert main(["--out", out, "--grid", "256", command,
                             str(path)]) == EXIT_PARSE
                assert f"[{section}] key 'period'" in capsys.readouterr().err
    # so must a declared intensity bound be finite
    for value in ("nan", "inf"):
        for section, text in (
                ("chain", chain + f"bound = {value}\n"),
                ("perturbation", chain + explicit + f"bound = {value}\n")):
            path = tmp_path / f"bound_{section}.scn"
            path.write_text(text)
            assert main(["--out", out, "--grid", "256", "bounds",
                         str(path)]) == EXIT_PARSE
            assert f"[{section}] key 'bound'" in capsys.readouterr().err
    # epsilon must be finite and nonnegative in every mode
    for mode in ("mass-arrival", "multiplicative", "rate-offsets", "explicit"):
        for value in ("inf", "nan", "-1"):
            path = tmp_path / "epsilon.scn"
            path.write_text(chain + f"[perturbation]\nmode = {mode}\n"
                            f"epsilon = {value}\n")
            assert main(["--out", out, "--grid", "256", "bounds",
                         str(path)]) == EXIT_PARSE
            assert "[perturbation] key 'epsilon'" in capsys.readouterr().err
    # non-finite weights fail validation like decreasing ones
    for weights in ("kind = geometric\ndelta = nan",
                    "kind = geometric\ndelta = inf",
                    "kind = geometric\ndelta = 0.5",
                    "kind = explicit\nvalues = 1, nan, 2",
                    "kind = explicit\nvalues = 1, 2, inf",
                    "kind = explicit\nvalues = 3, 2, 1"):
        path = tmp_path / "weights.scn"
        path.write_text(chain + f"[weights]\n{weights}\n")
        assert main(["--out", out, "--grid", "256", "analyze",
                     str(path)]) == EXIT_VALIDATION
        assert "weights" in capsys.readouterr().err


def test_keys_the_mode_or_kind_does_not_read(tmp_path, capsys):
    # a [perturbation] or [weights] key that the chosen mode or weights
    # kind does not read is bad input, as an unread [chain] key is
    out = str(tmp_path / "out")
    chain = ("[chain]\nkind = birth-death\nstates = 4\nperiod = 1\n"
             "birth = \"1+0.5*sin(2*pi*t)\"\ndeath = \"2\"\n"
             "death_mult = k\n")
    pert = "[perturbation]\nmode = {}\nepsilon = 0.01\n"
    cases = [(pert.format(mode) + extra, "perturbation", key)
             for mode in ("multiplicative", "mass-arrival", "rate-offsets",
                          "none")
             for extra, key in (('birth = "5"\n', "birth"),
                                ("death_mult = 7\n", "death_mult"),
                                ('arrival_3 = "2"\n', "arrival_3"))]
    cases += [(pert.format(mode) + f"{key} = 4\n", "perturbation", key)
              for mode in ("multiplicative", "mass-arrival", "none")
              for key in ("draws", "seed")]
    cases.append((pert.format("explicit") + 'birth = "1.01"\ndeath = "2"\n'
                  "draws = 4\n", "perturbation", "draws"))
    cases += [("[weights]\nkind = unit\ndelta = 3\n", "weights", "delta"),
              ("[weights]\nkind = unit\nvalues = 1, 2, 3\n", "weights",
               "values"),
              ("[weights]\nkind = geometric\ndelta = 2\nvalues = 1, 2, 3\n",
               "weights", "values"),
              ("[weights]\nkind = explicit\nvalues = 1, 2, 3\ndelta = 2\n",
               "weights", "delta")]
    path = tmp_path / "unread.scn"
    for text, section, key in cases:
        path.write_text(chain + text)
        assert main(["--out", out, "--grid", "256", "bounds",
                     str(path)]) == EXIT_PARSE, text
        assert f"[{section}] key {key!r}" in capsys.readouterr().err, text
    # the keys each mode and kind reads are accepted
    for text in (pert.format("rate-offsets") + "draws = 2\nseed = 3\n",
                 pert.format("explicit") + 'birth = "1.01"\ndeath = "2"\n',
                 "[weights]\nkind = geometric\ndelta = 2\n",
                 "[weights]\nkind = explicit\nvalues = 1, 2, 3\n"):
        path.write_text(chain + text)
        assert main(["--out", out, "--grid", "256", "bounds",
                     str(path)]) == EXIT_OK, text


def test_analyze_checks_perturbation_keys(tmp_path, capsys, monkeypatch):
    # analyze reads no draws, but an unknown mode or a key the mode does
    # not read exits 2 as under bounds, without building a perturbed chain
    out = str(tmp_path / "out")
    chain = ("[chain]\nkind = birth-death\nstates = 4\nperiod = 1\n"
             "birth = \"1+0.5*sin(2*pi*t)\"\ndeath = \"2\"\n")
    path = tmp_path / "analyze.scn"
    for text, key in (("mode = wobble\n", "mode"),
                      ("mode = multiplicative\nseed = 3\n", "seed"),
                      ("mode = none\nbirth = \"5\"\n", "birth"),
                      ("mode = rate-offsets\ndeath_mult = 7\n", "death_mult")):
        path.write_text(chain + "[perturbation]\nepsilon = 0.01\n" + text)
        for command in ("analyze", "bounds"):
            assert main(["--out", out, "--grid", "256", command,
                         str(path)]) == EXIT_PARSE, (command, text)
            assert f"[perturbation] key {key!r}" in capsys.readouterr().err
    monkeypatch.setattr("ctmcpert.model.perturb", None)  # no draw is built
    path.write_text(chain + "[perturbation]\nmode = rate-offsets\n"
                    "epsilon = 0.01\ndraws = 2\nseed = 3\n")
    assert main(["--out", out, "--grid", "256", "analyze",
                 str(path)]) == EXIT_OK


def test_outputs_flags(tmp_path, capsys):
    # every accepted spelling of true and false, in any case; an absent
    # key is false
    chain = ("[chain]\nkind = birth-death\nstates = 4\nperiod = 1\n"
             "birth = \"1\"\ndeath = \"2\"\n[solve]\nt_end = 1\n"
             "tolerance = 1e-3\nhorizon = 10\n")
    for on, off in (("true", "false"), ("Yes", "NO"), ("on", "off"),
                    ("1", "0")):
        out = tmp_path / on
        path = tmp_path / "flags.scn"
        path.write_text(chain + f"[outputs]\ntransient_means = {on}\n"
                        f"limit_states = {off}\nlimit_mean = {on}\n")
        assert main(["--out", str(out), "--grid", "256", "run",
                     str(path)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "flags_limit_mean.csv", "flags_mean_x0.csv", "flags_mean_xtop.csv"]


def test_truncated_key_has_no_effect(small_scn, tmp_path, capsys):
    # bundled scenarios set ``truncated``; every chain is finite anyway
    flagged = tmp_path / "flagged" / "small.scn"
    flagged.parent.mkdir()
    flagged.write_text(SMALL.replace("states = 25\n",
                                     "states = 25\ntruncated = true\n"))
    assert load_scenario(flagged).get("chain", "truncated") == "true"
    reports = []
    for path in (small_scn, flagged):
        out = path.parent / "out"
        assert main(["--out", str(out), "--grid", "256", "bounds",
                     str(path)]) == EXIT_OK
        reports.append((out / "small.report.kv").read_text())
    assert reports[0] == reports[1]


def _regime_entries(search):
    """The regime.* entries a run reports for a search."""
    try:
        regime = search.report()
    except solver.SolverError as exc:
        return {"regime.error": str(exc)}
    return {"regime.transient_horizon": regime.transient_horizon,
            "regime.phi_min": float(regime.phi_values.min()),
            "regime.phi_max": float(regime.phi_values.max())}


def _error_distance(message):
    """The message of an exhausted search with its distance cut out, and
    that distance."""
    head, rest = message.split("still ")
    number, tail = rest.split(" ", 1)
    return head + tail, float(number)


def _close_entries(got, want, rel):
    """Regime entries equal to ``rel`` relative, the distance in the
    message of an exhausted search included."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        got_value = got[key]
        if key == "regime.error":
            (got_text, got_value), (text, value) = map(
                _error_distance, (got_value, value))
            assert got_text == text
        assert abs(got_value - value) <= rel * abs(value), key


def test_run_solves_once(tmp_path, monkeypatch):
    # the extreme states and every draw advance in one march on the
    # sampling clock; the regime search then reads them at every period
    # boundary the run samples and marches on from the last one only if
    # the horizon lies past t_end; when a boundary falls between samples
    # it reads the start alone and marches from 0; the limit period is one
    # more march only when a horizon is found
    spans = []
    march = solver.march

    def counted(chains, widths, y, clock, k0=0, segments=None):
        spans.append((len(chains), clock.t0, k0, segments))
        return march(chains, widths, y, clock, k0, segments)

    # (chains, start, first segment, segments: None for the search), with
    # one segment per sample in a run and 200 in the limit period
    limit = (1, 7.0, 0, 200)
    for t_end, stride, horizon, marches in (
            (8, 0.125, 8, [(4, 0.0, 0, 64), limit]),
            (2, 0.125, 2, [(4, 0.0, 0, 16)]),
            (2, 0.125, 8, [(4, 0.0, 0, 16), (1, 0.0, 2, None), limit]),
            (2, 0.3, 8, [(4, 0.0, 0, 7), (1, 0.0, 0, None), limit])):
        setting = (t_end, stride, horizon)
        text = SMALL.replace("draws = 2", "draws = 3").replace(
            "t_end = 8", f"t_end = {t_end}").replace(
            "stride = 0.125", f"stride = {stride}").replace(
            "horizon = 8", f"horizon = {horizon}")
        scn = parse_scenario_text(text, name="once")
        spans.clear()
        monkeypatch.setattr(solver, "march", counted)
        result = run_pipeline(scn, tmp_path, "run", grid=256)
        monkeypatch.undo()
        assert spans == marches, setting
        entries = result.report.entries
        got = {k: v for k, v in entries.items() if k.startswith("regime.")}
        assert entries["empirical.draws"] == 3
        # the oracle on the run's clock: a search fed the boundary columns
        # of a solo integrate, or from 0 when the stride misses a boundary
        spec = build_chain(scn)
        draws = [chain for _, chain in scenario_perturbations(scn, spec)]
        extremes = np.stack([delta_state(spec.size, 0),
                             delta_state(spec.size, spec.n)], axis=1)
        traj = solver.integrate(spec, extremes, 0.0, t_end, stride=stride,
                                draws=draws)
        columns = None if stride == 0.3 else traj.states[::8, :, :2]
        search = solver.regime_search(spec, 1e-6, float(horizon),
                                      columns=columns)
        assert got == _regime_entries(search), setting
        # and a standalone search on the period clock, to rounding; bit
        # for bit when the search marches from 0
        want = _regime_entries(solver.regime_search(spec, 1e-6,
                                                    float(horizon)))
        if columns is None:
            assert got == want, setting
        _close_entries(got, want, 1e-12)
        if horizon == 8:
            assert got["regime.transient_horizon"] == 7.0
        else:
            assert "exhausted" in got["regime.error"]
        # the draws' distance curves, each bit for bit a run of its draw
        worst = 0.0
        for label, chain in scenario_perturbations(scn, spec):
            curve = solver.perturbation_distance(
                spec, chain, delta_state(spec.size, 0), horizon=float(t_end),
                period=1.0, stride=stride)
            rows = np.loadtxt(tmp_path / f"once_distance_{label}.csv",
                              delimiter=",", skiprows=1)
            assert np.array_equal(rows[:, 0], curve.times), setting
            assert np.array_equal(rows[:, 1], curve.dists), setting
            worst = max(worst, curve.final_sup)
        assert entries["empirical.final_period_sup"] == worst, setting


def test_catastrophe_perturbation_bounds(tmp_path, capsys):
    # a same-kind perturbed catastrophe chain has no weighted reduction:
    # only the uniform route and the generator gap apply
    path = tmp_path / "cat.scn"
    path.write_text("""
[chain]
kind = catastrophe
base_kind = birth-death
states = 40
period = 1
birth = "1+0.5*sin(2*pi*t)"
death = "2"
catastrophe = "0.3*(1+sin(2*pi*t))"

[perturbation]
mode = rate-offsets
epsilon = 0.01
draws = 2
""")
    out = tmp_path / "out"
    assert main(["--out", str(out), "--grid", "256", "bounds",
                 str(path)]) == EXIT_OK
    kv = dict(line.split(" = ") for line in
              (out / "cat.report.kv").read_text().splitlines())
    assert math.isfinite(float(kv["bounds.uniform.limsup"]))
    assert 0 < float(kv["bounds.gaps.generator"]) <= 2 * 3 * 0.01
    assert kv["bounds.gaps.reduced"] == "nan"
    capsys.readouterr()


def test_step_and_seed_overrides(small_scn, tmp_path):
    scn = load_scenario(small_scn)
    fine = run_pipeline(scn, tmp_path / "f", "run", grid=256, step=2e-3)
    coarse = run_pipeline(scn, tmp_path / "c", "run", grid=256, step=4e-3)
    # both sound, different discretizations produce different curves
    assert fine.exit_code == coarse.exit_code == EXIT_OK
    a = (tmp_path / "f" / "small_mean_x0.csv").read_bytes()
    b = (tmp_path / "c" / "small_mean_x0.csv").read_bytes()
    assert a != b
    one = run_pipeline(scn, tmp_path / "s1", "bounds", grid=256, seed=100)
    two = run_pipeline(scn, tmp_path / "s2", "bounds", grid=256, seed=200)
    assert one.report.entries["bounds.gaps.reduced"] != \
        two.report.entries["bounds.gaps.reduced"]


def test_step_count_past_int64_exits_as_a_solver_error(tmp_path, capsys):
    # rate offsets of 1e300 raise the draws' intensity bound, which shrinks
    # the run's step to about 1e-303: more steps over t_end = 8 than a
    # march can index is a solver error (exit code 3), not a traceback
    path = tmp_path / "huge.scn"
    path.write_text(SMALL.replace("epsilon = 0.01", "epsilon = 1e300"))
    assert main(["--out", str(tmp_path), "--grid", "256", "run",
                 str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: step ")
    assert "is too small for the span 8.0" in err


def test_tiny_stride_exits_as_a_solver_error(tmp_path, capsys):
    # a stride of 1e-300 over t_end = 8 asks for 8e300 samples: a solver
    # error (exit code 3) that names the stride, the span and the sample
    # count, raised before any sample array is allocated
    path = tmp_path / "tiny.scn"
    path.write_text(SMALL.replace("stride = 0.125", "stride = 1e-300"))
    assert main(["--out", str(tmp_path), "--grid", "256", "run",
                 str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: stride 1e-300 is too small "
                          "for the span 8.0: 8e+300 samples of 100 values")


def test_machine_report_format(small_scn, tmp_path):
    scn = load_scenario(small_scn)
    result = run_pipeline(scn, tmp_path, "analyze", grid=256)
    text = result.report.machine_text()
    for line in text.splitlines():
        assert " = " in line
        key = line.split(" = ")[0]
        assert key.count(".") >= 1 or key.startswith("scenario")
    # values round-trip as python literals
    assert "cert.weighted.certified = true" in text


def test_bundled_scenarios_parse():
    for name in ("mtmtnn", "mtmtnn_w05", "pair_arrivals"):
        scn = bundled_scenario(name)
        spec = build_chain(scn)
        assert spec.size == 300


def test_reproduce_pair_arrival_study(tmp_path, capsys):
    # full second study: transient to t = 100, limit interval [100, 101]
    assert main(["--out", str(tmp_path), "reproduce", "2"]) == EXIT_OK
    capsys.readouterr()
    kv = dict(line.split(" = ") for line in
              (tmp_path / "pair_arrivals.report.kv").read_text().splitlines())
    assert float(kv["regime.transient_horizon"]) == 100.0
    assert kv["verdict.sound"] == "true"
    assert kv["empirical.bound_respected"] == "true"
    limit = (tmp_path / "pair_arrivals_limit_x0.csv").read_text().splitlines()
    assert limit[0].startswith("t,p_0,p_1,p_2")
    first, last = limit[1].split(","), limit[-1].split(",")
    assert float(first[0]) == 100.0 and float(last[0]) == 101.0
    # the queue is mostly short: the displayed head states carry real mass
    assert float(first[1]) + float(first[2]) + float(first[3]) > 0.3


def test_reproduce_counterexample(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "reproduce",
                 "counterexample"]) == EXIT_OK
    kv = (tmp_path / "counterexample.report.kv").read_text()
    assert "probe.head_probability_decreasing = true" in kv
    assert "scaling.invariant = true" in kv
    table = (tmp_path / "counterexample_p0.csv").read_text().splitlines()
    assert table[0] == "level,p0"
    levels = [int(row.split(",")[0]) for row in table[1:]]
    p0s = [float(row.split(",")[1]) for row in table[1:]]
    assert levels == [100, 200, 400]
    assert p0s[0] > p0s[1] > p0s[2]
    rep = _report_values(kv)
    for level in levels:
        # the probe's chain, solved densely with the normalisation in place
        # of the last balance row
        chain = perturb(birth_death_chain(RateFunction.constant(1.0),
                                          RateFunction.constant(4.0),
                                          size=level + 1, validation_grid=16),
                        Perturbation("mass-arrival", eps=0.1))
        a = dense_generator(chain, 0.0)
        a -= np.diag(a.sum(axis=0))
        a[-1] = 1.0
        head = np.linalg.solve(a, delta_state(level + 1, level))[0]
        assert abs(rep[f"probe.p0_at_{level}"] - head) <= 1e-12 * head
        assert rep[f"probe.recursion_residual_{level}"] <= 1e-14


DATA = Path(__file__).resolve().parent / "data"


def _report_values(text: str) -> dict:
    """report.kv as key -> int, float or text."""
    out = {}
    for line in text.splitlines():
        key, raw = line.split(" = ", 1)
        for decode in (int, float):
            try:
                out[key] = decode(raw)
                break
            except ValueError:
                pass
        else:
            out[key] = raw
    return out


def test_grid_beyond_the_limit_is_an_option_error(tmp_path, capsys):
    # a grid of 1e18 asked numpy for an array of 2e18 nodes and exited 3
    # with numpy's message; the limit is checked before anything is built
    scn = Path(ctmcpert.__file__).parent / "scenarios" / "pair_arrivals.scn"
    for grid in (10 ** 18, MAX_GRID + 2):
        assert main(["--out", str(tmp_path), "--grid", str(grid), "bounds",
                     str(scn)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--grid" in err and str(MAX_GRID) in err and str(grid) in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, command", [
    ("pinned_birth_death", "run"), ("pinned_batch", "bounds"),
    ("pinned_catastrophe", "bounds")])
def test_pinned_reports(name, command, tmp_path, capsys):
    # reports of three small scenarios against the files they wrote when
    # pinned: text and integers exactly, floats within 1e-12 relative
    assert main(["--out", str(tmp_path), "--grid", "256", command,
                 str(DATA / f"{name}.scn")]) == EXIT_OK
    capsys.readouterr()
    got = _report_values((tmp_path / f"{name}.report.kv").read_text())
    want = _report_values((DATA / f"{name}.report.kv").read_text())
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert isinstance(got[key], float), key
            assert (math.isnan(got[key]) and math.isnan(value)) \
                or abs(got[key] - value) <= 1e-12 * abs(value), key
        else:
            assert got[key] == value, key


SPIKE = """
[chain]
kind = birth-death
states = 20
period = 1
birth = {birth}
death = "4"

[weights]
kind = unit

[perturbation]
mode = rate-offsets
epsilon = 0.01
draws = 2
seed = 7
"""


@pytest.mark.parametrize("birth", [
    "table: [(0, 1), (0.5001, inf), (0.5002, 1)]",
    '"1+0.001/((t-0.5001220703125)*(t-0.5001220703125))"'])
def test_non_finite_rate_makes_suprema_inf(birth, tmp_path, capsys):
    # a birth rate that is finite at every validation node (k/4096) and
    # infinite at node 4097/8192 of the doubled grid: every grid supremum
    # is inf, where a max that drops a nan reported finite gaps.  The
    # expression divides by zero there, without a warning.
    path = tmp_path / "spike.scn"
    path.write_text(SPIKE.format(birth=birth))
    code = main(["--out", str(tmp_path), "bounds", str(path)])
    capsys.readouterr()
    assert code == EXIT_INFEASIBLE
    rep = _report_values((tmp_path / "spike.report.kv").read_text())
    for key in ("cert.weighted.reduced_norm_sup",
                "cert.weighted.forcing_norm_sup", "bounds.gaps.reduced",
                "bounds.gaps.forcing", "bounds.gaps.generator"):
        assert rep[key] == math.inf, key


def test_import_compiles_no_generated_code():
    # records are plain classes: importing the command line loads no
    # ``dataclasses``, whose decorator compiles generated source for each
    package = Path(ctmcpert.__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy\n"
            "eager = 'dataclasses' in sys.modules\n"
            "import ctmcpert.cli\n"
            "print(eager, 'dataclasses' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    eager, loaded = done.stdout.split()[-2:]
    if eager == "True":
        pytest.skip("this numpy imports dataclasses with numpy")
    assert loaded == "False"


def test_build_reads_each_family_once_per_run(monkeypatch):
    # validation reads a family's rate values once per run of RATE_NODES
    # nodes, from the run that holds them, not once per block
    scn = load_scenario(DATA / "pinned_batch.scn")
    calls = []
    plain = model.RateFamily.values

    def counted(fam, tb):
        calls.append(fam)
        return plain(fam, tb)

    monkeypatch.setattr(model.RateFamily, "values", counted)
    spec = build_chain(scn)
    families = [fam for _, fam in spec.rate_slots()]
    runs = -(-(spec.validation_grid + 1) // model.RATE_NODES)
    assert len(families) == 4 and runs == 5
    assert len(calls) == len(families) * runs
    assert all(calls.count(fam) == runs for fam in families)
