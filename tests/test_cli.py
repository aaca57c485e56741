"""End-to-end tests of the command line and its exit codes."""

import argparse
import collections
import contextlib
import dataclasses
import inspect
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare import checks, cli, core, geo, models, oligopoly
from fairshare.checks import ParamsError
from fairshare.cli import (
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    solve_scenario,
    sweep_scenario,
)
from fairshare.core import CoalitionGame, shapley_exact
from fairshare.scenarios import (
    METHODS,
    MODELS,
    SWEEPABLE,
    load_scenario,
    parse_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))
METCALFE = str(SCENARIO_DIR / "single_metcalfe.json")


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# --- solve ------------------------------------------------------------------------


def test_solve_single_all_methods_agree():
    scenario = load_scenario(SCENARIO_DIR / "single_metcalfe.json")
    report = solve_scenario(scenario)
    assert report.allocations["closed_form"].payoffs[0] == pytest.approx(3.5)
    assert report.discrepancies["closed_form_vs_exact"] <= 1e-9
    assert report.axioms is not None and report.axioms.all_ok
    assert "sampled" in report.allocations  # the file carries a sample config


def test_solve_diamond_payoffs():
    scenario = load_scenario(SCENARIO_DIR / "oligopoly_diamond.json")
    report = solve_scenario(scenario)
    assert report.allocations["closed_form"].payoffs == (6.0, 20.0, 18.0, 24.0)
    assert report.discrepancies["closed_form_vs_exact"] <= 1e-12


def test_solve_every_bundled_scenario_closed_matches_exact():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        report = solve_scenario(load_scenario(path))
        assert report.discrepancies["closed_form_vs_exact"] <= 1e-9, path.name


def test_solve_exact_above_cap_raises():
    scenario = parse_scenario(
        {"model": "single", "params": {"n": 6, "k": 2}, "method": "exact"})
    from fairshare.core import RosterTooLargeError
    with pytest.raises(RosterTooLargeError):
        solve_scenario(scenario, exact_cap=4)


def test_solve_all_above_cap_skips_exact_with_note():
    scenario = parse_scenario(
        {"model": "single", "params": {"n": 6, "k": 2}, "method": "all"})
    report = solve_scenario(scenario, exact_cap=4)
    assert "exact" not in report.allocations
    assert any("skipped" in note for note in report.notes)
    assert "discrepancies" not in report.to_payload()  # only one method ran


def test_sweep_scenario_rejects_graph_models():
    # the bundled scenarios cover every model: exactly those of models.SPECS sweep
    n_values = [1, 2, 10, 1000]
    swept = set()
    for path in BUNDLED:
        scenario = load_scenario(path)
        if scenario.model not in models.SPECS:
            with pytest.raises(ParamsError, match="does not support sweeping"):
                sweep_scenario(scenario, n_values)
            continue
        closed = MODELS[scenario.model].closed
        assert sweep_scenario(scenario, n_values).rows == tuple(
            closed(scenario.params, n) for n in n_values), path.name
        swept.add(scenario.model)
    assert swept == set(models.SPECS)
    assert {load_scenario(path).model for path in BUNDLED} == set(MODELS)


# --- exit codes ---------------------------------------------------------------------


def test_cli_solve_ok(capsys):
    code = main(["solve", "--scenario",
                 str(SCENARIO_DIR / "geo_founder_met.json")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "grand value" in out


def test_cli_validation_error_names_field(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "single", "params": {"n": 3}})
    code = main(["validate", "--scenario", str(path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "params.k" in err


def test_cli_validation_lists_every_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "single",
                                     "params": {"n": 0, "k": 0}})
    assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "params.n" in err and "params.k" in err


@pytest.mark.parametrize("command", [["validate"], ["solve", "--method", "closed"]])
def test_cli_census_agent_count_is_capped(tmp_path, capsys, command):
    path = write_scenario(tmp_path, {
        "model": "geo", "method": "closed",
        "params": {"census": {"m": 100_000_000, "d": {"1": 5}}, "variant": "lin"}})
    start = time.perf_counter()
    code = main([command[0], "--scenario", str(path), *command[1:]])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert "params.census.m" in capsys.readouterr().err


HUGE_ROSTERS = {
    "single": {"n": 100_000_000, "k": 2},
    "profit": {"n": 100_000_000, "k": 2, "member_cost": 0.5},
    # an agreement from the 65th vertex to the first, whose presence mask
    # needs bit 64, so the refusal must come before the table is built
    "oligopoly_coarse": {"vertices": [{"id": f"v{v}", "size": 1} for v in range(65)],
                         "edges": [["v0", "v64"]]},
    "oligopoly_fine": {"vertices": [{"id": "a", "size": 100_000_000}]},
    "geo": {"census": {"m": 1_000_000, "d": {"1": 5}}, "variant": "met"},
    "geo_founder": {"census": {"m": 1_000_000, "d": {"1": 5}}, "variant": "met"},
}


@pytest.mark.parametrize("method", ["closed", "all"])
@pytest.mark.parametrize("model", sorted(HUGE_ROSTERS))
def test_cli_huge_roster_is_refused_before_per_player_work(tmp_path, capsys, model, method):
    path = write_scenario(tmp_path, {"model": model, "params": HUGE_ROSTERS[model],
                                     "method": method})
    start = time.perf_counter()
    code = main(["solve", "--scenario", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert "at most 64 players are supported" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["single", "profit"])
@pytest.mark.parametrize("command", [["validate"], ["solve", "--method", "closed"]])
def test_cli_exponent_is_capped(tmp_path, capsys, model, command):
    for n, k in ((3, 100_000_000), (1, 1024)):
        path = write_scenario(tmp_path, {"model": model, "params": {"n": n, "k": k}})
        start = time.perf_counter()
        code = main([command[0], "--scenario", str(path), *command[1:]])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION
        assert f"params.k: must be <= 1023, got {k}" in capsys.readouterr().err


NON_FINITE = {
    # inf ** 2 - inf ** 2 makes the exact payoffs [inf, nan, nan]
    "weighted exact": ({"model": "weighted", "method": "exact",
                        "params": {"weights": [1.0, 2.0], "k": 5000}}, "exact"),
    "coarse closed": ({"model": "oligopoly_coarse", "method": "closed",
                       "params": {"vertices": [{"id": "a", "size": 10 ** 11}],
                                  "rho": 1e300}}, "closed_form"),
    "geo met": ({"model": "geo", "method": "closed",
                 "params": {"census": {"m": 2, "d": {"1": 4}}, "variant": "met",
                            "rho": 1e308}}, "closed_form"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_cli_solve_refuses_a_non_finite_result(tmp_path, capsys, case):
    data, key = NON_FINITE[case]
    path = write_scenario(tmp_path, data)
    assert main(["solve", "--scenario", str(path), "--format", "json"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {key}: result is not finite" in captured.err


def test_cli_sweep_refuses_a_non_finite_row(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "single", "params": {"n": 3, "k": 2,
                                                                   "rho": 1e307}})
    code = main(["sweep", "--scenario", str(path), "--n-values", "2,100"])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: n=100: result is not finite" in captured.err


def test_cli_sweep_refuses_overflowing_weighted_payoffs_at_any_n(tmp_path, capsys):
    # the payoffs leave the float range at n = 10^12, and the sums of the
    # repeated infinite member payoffs must not walk the crowd
    path = write_scenario(tmp_path, {"model": "weighted",
                                     "params": {"weights": [1e150, 2.0]}})
    start = time.perf_counter()
    code = main(["sweep", "--scenario", str(path), "--n-values", "2,10," + str(10 ** 12)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert f"error: n={10 ** 12}: result is not finite" in capsys.readouterr().err


def test_cli_sweep_of_a_crowd_of_zero_weights_is_a_degenerate_row(tmp_path, capsys):
    # the first weight alone is zero, so the crowd of one has no value
    path = write_scenario(tmp_path, {"model": "weighted", "params": {"weights": [0, 1.0]}})
    code = main(["sweep", "--scenario", str(path), "--n-values", "1,2", "--format", "json"])
    assert code == EXIT_OK
    one, two = json.loads(capsys.readouterr().out)["rows"]
    assert one == {"n": 1, "founder_payoff": 0.0, "grand_value": 0.0, "degenerate": True,
                   "founder_share": None, "crowd_share": None, "asymptote": None}
    assert (two["n"], two["degenerate"], two["founder_share"]) == (2, False, 0.5)


WORK_UNIT_OVERFLOWS = {
    "unit": ({"weights": [1e300, 2.0], "alpha": 2}, ["solve", "--method", "closed"]),
    "total": ({"weights": [1e308, 1e308]}, ["solve", "--method", "closed"]),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(WORK_UNIT_OVERFLOWS))
def test_cli_work_units_beyond_the_float_range_name_the_weights(tmp_path, capsys, case,
                                                                method):
    params, _ = WORK_UNIT_OVERFLOWS[case]
    path = write_scenario(tmp_path, {"model": "weighted", "params": params})
    for argv in (["validate"], ["solve", "--method", method]):
        assert main([argv[0], "--scenario", str(path), *argv[1:]]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: params.weights: the work units")


def test_cli_work_units_that_all_underflow_name_the_weights(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "weighted",
                                     "params": {"weights": [1e-300, 0.0], "alpha": 2}})
    assert main(["solve", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "error: params.weights: every work unit" in capsys.readouterr().err


@pytest.mark.parametrize("weight, sizes, row", [
    (1e300, (10, 10 ** 12), 10),  # the grand value overflows first
    (1e100, (2, 10 ** 300), 10 ** 300),  # only the crowd's total of work units does
])
def test_cli_sweep_beyond_the_float_range_names_the_row(tmp_path, capsys, weight, sizes,
                                                        row):
    path = write_scenario(tmp_path, {"model": "weighted",
                                     "params": {"weights": [weight, 2.0]}})
    code = main(["sweep", "--scenario", str(path), "--n-values", ",".join(map(str, sizes))])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n={row}: result is not finite " \
                           "(a value overflows a float)\n"


def strict_json(text):
    """JSON as the standard has it: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


MAGNITUDES = st.floats(1e-320, 1.7e308)


@st.composite
def weighted_runs(draw):
    """A weighted scenario anywhere in the validator's number range, and sweep sizes."""
    params = {"weights": draw(st.lists(st.one_of(st.just(0.0), MAGNITUDES),
                                       min_size=1, max_size=6)),
              "alpha": draw(MAGNITUDES), "rho": draw(MAGNITUDES),
              "k": draw(st.sampled_from([1, 2, 2, 3]))}
    sizes = sorted(draw(st.sets(st.integers(1, 10 ** 9), min_size=1, max_size=3)))
    return params, sizes


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_weighted_ends_in_a_documented_exit_at_every_magnitude(tmp_path):
    path = tmp_path / "weighted.json"

    @settings(max_examples=150, deadline=None)
    @given(weighted_runs())
    def check(run):
        params, sizes = run
        path.write_text(json.dumps({"model": "weighted", "params": params,
                                    "sample": {"permutations": 40, "seed": 1}}),
                        encoding="utf-8")
        scenario = ["--scenario", str(path)]
        commands = [["validate", *scenario]]
        commands += [["solve", *scenario, "--method", method, "--exact-cap", "16",
                      "--format", "json"] for method in METHODS]
        commands.append(["sweep", *scenario, "--n-values", ",".join(map(str, sizes)),
                         "--format", "json"])
        for argv in commands:
            code, out, err = run_cli(argv)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CAP, EXIT_IO), argv
            if code != EXIT_OK:
                assert err.startswith("error:"), argv
            elif argv[0] == "validate":
                assert out.startswith("ok:")
            else:
                strict_json(out)

    check()


COUNTS = st.one_of(st.integers(0, 6), st.integers(0, 10 ** 9), st.integers(0, 10 ** 400))


@st.composite
def graph_and_census_runs(draw):
    """A graph or census model's scenario, with sizes and counts up to 10^400."""
    model = draw(st.sampled_from(["oligopoly_coarse", "oligopoly_fine", "geo", "geo_founder"]))
    rho = draw(MAGNITUDES)
    if model.startswith("oligopoly"):
        ids = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
        pairs = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]
        return model, {"vertices": [{"id": v, "size": draw(COUNTS)} for v in ids],
                       "edges": [pair for pair in pairs if draw(st.booleans())], "rho": rho}
    m = draw(st.integers(1, 4))
    subsets = st.frozensets(st.integers(1, m), min_size=1).map(
        lambda ids: ",".join(map(str, sorted(ids))))
    return model, {"census": {"m": m, "d": draw(st.dictionaries(subsets, COUNTS, max_size=5))},
                   "variant": draw(st.sampled_from(["lin", "met"])), "rho": rho}


def test_cli_graph_and_census_models_end_in_a_documented_exit_at_every_magnitude(tmp_path):
    path = tmp_path / "scenario.json"

    @settings(max_examples=150, deadline=None)
    @given(graph_and_census_runs())
    def check(run):
        model, params = run
        path.write_text(json.dumps({"model": model, "params": params,
                                    "sample": {"permutations": 40, "seed": 1}}),
                        encoding="utf-8")
        scenario = ["--scenario", str(path)]
        commands = [["validate", *scenario]]
        commands += [["solve", *scenario, "--method", method, "--exact-cap", "16",
                      "--format", "json"] for method in METHODS]
        for argv in commands:
            code, out, err = run_cli(argv)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CAP, EXIT_IO), argv
            if code != EXIT_OK:
                assert err.startswith("error:"), argv
            elif argv[0] == "validate":
                assert out.startswith("ok:")
            else:
                strict_json(out)

    check()


@pytest.fixture
def validator_runs(monkeypatch):
    """How often each params validator has run through `checks.raise_invalid`."""
    runs = collections.Counter()
    raise_invalid = checks.raise_invalid

    def counted(validate, params):
        runs[validate.__name__] += 1
        return raise_invalid(validate, params)

    for module in (checks, geo, models, oligopoly):
        monkeypatch.setattr(module, "raise_invalid", counted)
    return runs


def assert_validated_once(runs, model):
    own = MODELS[model].validate.__name__
    assert runs[own] == 1, runs
    # a census given as placements is checked as placements, then as counts
    assert set(runs) <= {own, "validate_census"}, runs


@pytest.mark.parametrize("method, flags", [(method, False) for method in METHODS]
                         + [("all", True)], ids=[*METHODS, "all-as-flags"])
@pytest.mark.parametrize("path", BUNDLED, ids=[path.stem for path in BUNDLED])
def test_solve_runs_each_model_validator_once(path, method, flags, tmp_path,
                                              validator_runs):
    data = json.loads(path.read_text(encoding="utf-8"))
    argv = ["--exact-cap", "16", "--format", "json"]
    if flags:
        argv += ["--method", method, "--seed", "0", "--permutations", "50"]
    else:
        data.update(method=method, sample={"permutations": 50, "seed": 0})
    scenario = write_scenario(tmp_path, data)
    code, _, err = run_cli(["solve", "--scenario", str(scenario), *argv])
    assert code == EXIT_OK, err
    assert_validated_once(validator_runs, data["model"])


@pytest.mark.parametrize("path", [path for path in BUNDLED
                                  if json.loads(path.read_text())["model"] in SWEEPABLE],
                         ids=lambda path: path.stem)
def test_sweep_runs_each_model_validator_once(path, validator_runs):
    sizes = ",".join(str(10 ** e) for e in range(7))
    code, _, err = run_cli(["sweep", "--scenario", str(path), "--n-values", sizes])
    assert code == EXIT_OK, err
    assert_validated_once(validator_runs, json.loads(path.read_text())["model"])


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.stem)
def test_validate_runs_each_model_validator_once(path, validator_runs):
    code, _, err = run_cli(["validate", "--scenario", str(path)])
    assert code == EXIT_OK, err
    assert_validated_once(validator_runs, json.loads(path.read_text())["model"])


def test_cli_sweep_overflow_fails_before_the_power_sum(tmp_path):
    # power_sum(100000, 1023) alone takes seconds; n ** k overflows first
    path = write_scenario(tmp_path, {"model": "single", "params": {"n": 2, "k": 1023}})
    start = time.perf_counter()
    with pytest.raises(OverflowError):
        main(["sweep", "--scenario", str(path), "--n-values", "2,100000"])
    assert time.perf_counter() - start < 1.0


def test_solve_runs_a_share_report_closed_form_once(monkeypatch):
    calls = []
    closed_report = cli.closed_report

    def counted(scenario):
        calls.append(scenario.model)
        return closed_report(scenario)

    def unused(scenario):
        raise AssertionError("closed_allocation called for a model with a share report")

    monkeypatch.setattr(cli, "closed_report", counted)
    monkeypatch.setattr(cli, "closed_allocation", unused)
    report = solve_scenario(load_scenario(SCENARIO_DIR / "single_metcalfe.json"))
    assert calls == ["single"]
    assert report.diagnostics["founder_share"] is not None


def test_cli_cap_exceeded(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 8, "k": 2}, "method": "exact"})
    code = main(["solve", "--scenario", str(path), "--exact-cap", "4"])
    assert code == EXIT_CAP
    assert "cap" in capsys.readouterr().err


def test_cli_io_error(tmp_path, capsys):
    code = main(["solve", "--scenario",
                 str(SCENARIO_DIR / "single_metcalfe.json"),
                 "--out", str(tmp_path / "missing" / "report.json")])
    assert code == EXIT_IO
    assert "report.json" in capsys.readouterr().err


def test_cli_missing_scenario_file_is_io_error(tmp_path, capsys):
    code = main(["solve", "--scenario", str(tmp_path / "nope.json")])
    assert code == EXIT_IO


def test_cli_validate_ok(capsys):
    code = main(["validate", "--scenario",
                 str(SCENARIO_DIR / "weighted_trio.json")])
    assert code == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_rejects_huge_and_nan_numbers(tmp_path, capsys):
    for rho in (10 ** 400, float("nan")):
        path = write_scenario(tmp_path, {"model": "single",
                                         "params": {"n": 3, "k": 2, "rho": rho}})
        assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "params.rho" in capsys.readouterr().err
    path = write_scenario(tmp_path, {"model": "weighted",
                                     "params": {"weights": [1.0, 10 ** 400]}})
    assert main(["solve", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "params.weights" in capsys.readouterr().err


# --- flags --------------------------------------------------------------------------


def test_cli_method_override(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 3, "k": 2}, "method": "closed"})
    code = main(["solve", "--scenario", str(path), "--method", "all",
                 "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["allocations"]) == {"closed_form", "exact"}
    assert "axioms" in payload


def test_cli_sampler_flag_overrides(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 3, "k": 2}, "method": "sample"})
    code = main(["solve", "--scenario", str(path), "--permutations", "50",
                 "--seed", "9", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["sample"] == {"permutations": 50, "seed": 9}
    assert payload["allocations"]["sampled"]["stderr"] is not None


def test_cli_negative_sample_seed_names_field(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 3, "k": 2}, "method": "sample",
        "sample": {"permutations": 10, "seed": -1}})
    for command in ("validate", "solve"):
        assert main([command, "--scenario", str(path)]) == EXIT_VALIDATION
        assert "sample.seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag, bad", [("--seed", "-3"), ("--permutations", "0")])
def test_cli_bad_sampler_flag_names_flag(tmp_path, capsys, flag, bad):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 3, "k": 2}, "method": "sample"})
    code = main(["solve", "--scenario", str(path), flag, bad])
    assert code == EXIT_VALIDATION
    assert flag in capsys.readouterr().err


def test_cli_sample_above_the_mask_cap_is_refused_before_drawing(monkeypatch, capsys):
    # 10^12 join orders of 4 players would take hours; nothing may be drawn
    def never(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(cli, "shapley_sample", never)
    trio = str(SCENARIO_DIR / "weighted_trio.json")
    code = main(["solve", "--scenario", trio, "--method", "sample",
                 "--permutations", str(10 ** 12), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CAP, "")
    assert err == ("error: sample.permutations: 1000000000000 permutations of 4 players "
                   f"need 4000000000000 coalition values, above the sampler's cap of "
                   f"{core.MAX_SAMPLE_MASKS}; lower --permutations\n")
    # under method all the sampler is skipped with a note, as the exact engine is
    code = main(["solve", "--scenario", trio, "--method", "all",
                 "--permutations", str(10 ** 12), "--format", "json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (code, err) == (EXIT_OK, "")
    assert list(payload["allocations"]) == ["closed_form", "exact"]
    assert payload["notes"] == [
        f"sampler skipped: 1000000000000 permutations of 4 players above cap "
        f"{core.MAX_SAMPLE_MASKS} coalition values"]


def test_cli_sample_at_the_mask_cap_runs(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SAMPLE_MASKS", 4 * 25)
    trio = str(SCENARIO_DIR / "weighted_trio.json")
    for permutations, code, sampled in (("25", EXIT_OK, True), ("26", EXIT_CAP, False)):
        assert main(["solve", "--scenario", trio, "--method", "sample",
                     "--permutations", permutations, "--format", "json"]) == code
        assert ('"sampled"' in capsys.readouterr().out) == sampled


@pytest.mark.parametrize("method", ["exact", "all"])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cli_exact_cap_below_one_names_flag(capsys, method, cap):
    code = main(["solve", "--scenario", str(SCENARIO_DIR / "weighted_trio.json"),
                 "--method", method, "--exact-cap", cap, "--format", "json"])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: --exact-cap: must be >= 1, got {cap}\n"


def test_cli_prints_one_line_per_violation_from_outside_the_loader(monkeypatch, capsys):
    def refuse(*args):
        raise ParamsError(["payout: first violation", "window: second violation"])

    monkeypatch.setattr(cli, "revenue_share", refuse)
    code = main(["empirical", "--payout", "1", "--window", "2021", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: payout: first violation\nerror: window: second violation\n"


# --- one parser per process -------------------------------------------------------


def run_main(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, argparse errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("first, first_code, then", [
    (["solve", "--scenario", METCALFE, "--out", "{out}"], EXIT_OK,
     ["solve", "--scenario", METCALFE]),
    (["solve", "--scenario", METCALFE, "--method", "exact"], EXIT_OK,
     ["solve", "--scenario", METCALFE, "--format", "json"]),
    (["solve", "--scenario", METCALFE, "--seed", "9", "--permutations", "50"], EXIT_OK,
     ["solve", "--scenario", METCALFE, "--format", "json"]),
    (["sweep", "--scenario", METCALFE, "--n-values"], 2,
     ["sweep", "--scenario", METCALFE, "--n-values", "10,100"]),
], ids=["out", "method", "sample flags", "argparse error"])
def test_the_cached_parser_carries_nothing_to_the_next_call(tmp_path, capsys, first,
                                                            first_code, then):
    first = [arg.replace("{out}", str(tmp_path / "report.txt")) for arg in first]
    assert run_main(capsys, first)[0] == first_code
    after = run_main(capsys, then)
    cli._parser.cache_clear()
    assert after == run_main(capsys, then)  # the same call through a fresh parser
    code, out, _ = after
    assert code == EXIT_OK and out
    if "--format" in then:
        echoed = json.loads(out)["scenario"]
        assert echoed["method"] == "all"
        assert echoed["sample"] == {"permutations": 2000, "seed": 7}


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    assert cli.build_parser() is not cli.build_parser()
    assert main(["validate", "--scenario", METCALFE]) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["validate", "--scenario", METCALFE]) == EXIT_OK
    assert capsys.readouterr().out.count("ok:") == 2


def run_json(capsys, *argv):
    """Exit code, stdout and stderr of one `solve --format json` call."""
    code = main(["solve", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_method_flag_runs_like_the_method_in_the_file(tmp_path, capsys, path, method):
    data = json.loads(path.read_text(encoding="utf-8"))
    edited = write_scenario(tmp_path, {**data, "method": method})
    assert (run_json(capsys, "--scenario", str(path), "--method", method)
            == run_json(capsys, "--scenario", str(edited)))


@pytest.mark.parametrize("data, method, field", [
    ({"model": "weighted", "params": {"weights": [1.0, 2.0], "k": 3}, "method": "exact"},
     "closed", "params.k"),
])
def test_method_flag_is_validated_like_the_file(tmp_path, capsys, data, method, field):
    path = write_scenario(tmp_path, data)
    assert main(["solve", "--scenario", str(path), "--method", method]) == EXIT_VALIDATION
    assert f"error: {field}: " in capsys.readouterr().err


def test_fine_closed_form_solves_empty_crowds(tmp_path, capsys):
    # A and C have no crowd, so their founders are null players
    data = {"model": "oligopoly_fine", "method": "closed",
            "params": {"vertices": [{"id": "A", "size": 0}, {"id": "B", "size": 2},
                                    {"id": "C", "size": 0}],
                       "edges": [["A", "B"]], "rho": 1.0}}
    path = write_scenario(tmp_path, data)
    assert main(["validate", "--scenario", str(path)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run_json(capsys, "--scenario", str(path))
    assert code == EXIT_OK
    payoffs = json.loads(out)["allocations"]["closed_form"]["payoffs"]
    exact = shapley_exact(oligopoly.fine_game(parse_scenario(data).params))
    assert payoffs == pytest.approx(exact.payoffs, rel=1e-12, abs=1e-12)
    assert payoffs[0] == payoffs[2] == 0.0


WEIGHTED_CUBIC = {"model": "weighted", "params": {"weights": [1.0, 2.0, 0.5], "k": 3}}


def test_method_flag_rescues_a_file_valid_only_under_it(tmp_path, capsys):
    # weighted k=3 has no closed form, so the file's own method "all" is refused
    path = write_scenario(tmp_path, {**WEIGHTED_CUBIC, "method": "all"})
    refused = run_json(capsys, "--scenario", str(path))
    assert refused[0] == EXIT_VALIDATION and "use method 'exact'" in refused[2]
    exact = write_scenario(tmp_path, {**WEIGHTED_CUBIC, "method": "exact"}, "exact.json")
    solved = run_json(capsys, "--scenario", str(path), "--method", "exact")
    assert solved[0] == EXIT_OK
    assert solved == run_json(capsys, "--scenario", str(exact))


def test_flags_replace_an_invalid_value_of_their_own_field(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "single", "params": {"n": 2, "k": 2},
                                     "method": "fast", "sample": {"seed": -1}})
    assert main(["validate", "--scenario", str(path)]) == EXIT_VALIDATION
    errors = capsys.readouterr().err.splitlines()
    assert [error.split(":")[1] for error in errors] == [" method", " sample.seed"]
    code, out, _ = run_json(capsys, "--scenario", str(path), "--method", "sample",
                            "--seed", "3", "--permutations", "20")
    assert code == EXIT_OK
    echoed = json.loads(out)["scenario"]
    assert echoed["method"] == "sample"
    assert echoed["sample"] == {"permutations": 20, "seed": 3}


@pytest.mark.parametrize("data", [
    [1, 2],
    {"model": "single", "params": {"n": 3, "k": 2}, "sample": 5},
], ids=["list", "sample-not-object"])
def test_flags_leave_a_non_object_to_the_validator(tmp_path, capsys, data):
    path = str(write_scenario(tmp_path, data))
    # an uncaught exception would propagate out of `main` and fail the test
    plain = run_main(capsys, ["solve", "--scenario", path])
    flagged = run_main(capsys, ["solve", "--scenario", path, "--method", "exact",
                                "--seed", "1"])
    assert plain[0] == flagged[0] == EXIT_VALIDATION
    assert flagged[2] == plain[2] and flagged[2].startswith("error: ")


def test_solving_the_echoed_scenario_reproduces_the_output(tmp_path, capsys):
    first = run_json(capsys, "--scenario", METCALFE, "--seed", "9", "--permutations", "50")
    echoed = json.loads(first[1])["scenario"]
    assert first[0] == EXIT_OK and echoed["sample"] == {"permutations": 50, "seed": 9}
    assert run_json(capsys, "--scenario", str(write_scenario(tmp_path, echoed))) == first


def recorder(function, calls):
    """`function`, recording the arguments of each call by parameter name."""
    def probe(*args, **kwargs):
        calls.append(inspect.signature(function).bind(*args, **kwargs).arguments)
        return function(*args, **kwargs)
    return probe


def test_emit_and_the_sampler_are_called_through_cli(monkeypatch, capsys):
    # the benchmark wraps these two names on fairshare.cli to watch each solve
    emitted, sampled = [], []
    monkeypatch.setattr(cli, "emit", recorder(cli.emit, emitted))
    monkeypatch.setattr(cli, "shapley_sample", recorder(cli.shapley_sample, sampled))
    assert main(["solve", "--scenario", METCALFE]) == EXIT_OK
    assert (len(emitted), len(sampled)) == (1, 1)
    assert main(["solve", "--scenario", METCALFE, "--seed", "9", "--permutations", "50"]) == 0
    assert len(emitted) == 2
    assert (sampled[-1]["n_permutations"], sampled[-1]["seed"]) == (50, 9)
    capsys.readouterr()


def test_cli_audits_a_large_symmetric_game(tmp_path, capsys):
    path = write_scenario(tmp_path, {"model": "weighted", "method": "all", "params": {
        "weights": [1.3, 0.7, 2.9, 1.3, 0.7, 1.1, 1.3, 0.7, 2.2, 1.3], "rho": 1e9}})
    code, out, _ = run_json(capsys, "--scenario", str(path))
    axioms = json.loads(out)["axioms"]
    assert code == EXIT_OK and axioms["symmetric_pairs"] and axioms["all_ok"]


def test_cli_sweep_unsupported_model(capsys):
    code = main(["sweep", "--scenario",
                 str(SCENARIO_DIR / "geo_founder_lin.json"),
                 "--n-values", "2,4"])
    assert code == EXIT_VALIDATION
    assert "sweep" in capsys.readouterr().err


def test_cli_sweep_bad_n_values(capsys):
    code = main(["sweep", "--scenario",
                 str(SCENARIO_DIR / "single_metcalfe.json"),
                 "--n-values", "10,abc"])
    assert code == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("n_values, error", [
    ("5,3", "--n-values: crowd sizes must be strictly ascending"),
    ("10,10", "--n-values: crowd sizes must be strictly ascending"),
    ("0,1", "--n-values: crowd sizes must be >= 1"),
    ("-4", "--n-values: crowd sizes must be >= 1"),
])
def test_cli_sweep_refused_n_values_name_the_flag(capsys, n_values, error):
    code = main(["sweep", "--scenario", METCALFE, "--n-values", n_values])
    out, err = capsys.readouterr()
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {error}\n")


def test_cli_sweep_landmarks(capsys):
    code = main(["sweep", "--scenario",
                 str(SCENARIO_DIR / "single_metcalfe.json"),
                 "--n-values", "10,100,1000", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    shares = [row["founder_share"] for row in payload["rows"]]
    assert shares == pytest.approx([0.35, 0.335, 0.3335])
    assert payload["rows"][0]["asymptote"] == pytest.approx(1 / 3)


# --- empirical subcommand --------------------------------------------------------------


def test_cli_empirical_headline(capsys):
    code = main(["empirical", "--payout", "30", "--window", "2018H2..2021H1",
                 "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["share"] == pytest.approx(30 / 54.75, abs=1e-12)
    assert payload["inside_band"] is True
    assert payload["window_revenue"] == pytest.approx(54.75)


def test_cli_empirical_zero_payout(capsys):
    code = main(["empirical", "--payout", "0", "--window", "2019"])
    assert code == EXIT_OK
    assert "outside" in capsys.readouterr().out


@pytest.mark.parametrize("payout", ["nan", "inf", "-inf"])
def test_cli_empirical_non_finite_payout(capsys, payout):
    code = main(["empirical", f"--payout={payout}", "--window", "2019"])
    assert code == EXIT_VALIDATION
    assert "payout" in capsys.readouterr().err


def test_cli_empirical_missing_year(capsys):
    code = main(["empirical", "--payout", "1", "--window", "1999"])
    assert code == EXIT_VALIDATION
    assert "1999" in capsys.readouterr().err


def test_cli_empirical_custom_records(tmp_path, capsys):
    path = tmp_path / "records.json"
    path.write_text(json.dumps({"records": [
        {"year": 2021, "entity": "Spotify", "revenue": 11.4}]}), encoding="utf-8")
    code = main(["empirical", "--records", str(path), "--entity", "Spotify",
                 "--payout", "7.6", "--window", "2021", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["share"] == pytest.approx(7.6 / 11.4)
    assert payload["inside_band"] is True


@pytest.mark.parametrize("content", [{"rows": []}, 5, {"records": 5}],
                         ids=["no records key", "a number", "records not a list"])
def test_cli_empirical_records_of_the_wrong_shape(tmp_path, capsys, content):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code = main(["empirical", "--records", str(path), "--payout", "1", "--window", "2021"])
    assert code == EXIT_VALIDATION
    assert f"error: {path}: expected a list" in capsys.readouterr().err


def test_cli_empirical_records_that_are_not_json_name_the_file(tmp_path, capsys):
    path = tmp_path / "records.json"
    path.write_text("{", encoding="utf-8")
    code = main(["empirical", "--records", str(path), "--payout", "1", "--window", "2021"])
    assert code == EXIT_VALIDATION
    assert f"error: {path}: not valid JSON (" in capsys.readouterr().err


def test_cli_empirical_bad_record_names_the_file(tmp_path, capsys):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"year": 2021, "entity": "Z"}]), encoding="utf-8")
    code = main(["empirical", "--records", str(path), "--payout", "1", "--window", "2021"])
    assert code == EXIT_VALIDATION
    assert f"error: {path}: bad revenue record at index 0" in capsys.readouterr().err


def run_records(tmp_path, capsys, text, window="2020..2021"):
    """Exit code and stderr of `empirical` on a records file of the given text."""
    path = tmp_path / "records.json"
    path.write_text(text, encoding="utf-8")
    code = main(["empirical", "--records", str(path), "--entity", "Z", "--payout", "1",
                 "--window", window, "--format", "json"])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "<records>")


@pytest.mark.parametrize("row, message", [
    ('"revenue": NaN', "revenue: expected a finite number, got nan"),
    ('"revenue": Infinity', "revenue: expected a finite number, got inf"),
    ('"revenue": 5.0, "payout": Infinity', "payout: expected a finite number, got inf"),
], ids=["nan revenue", "infinite revenue", "infinite payout"])
def test_cli_empirical_refuses_a_non_finite_record(tmp_path, capsys, row, message):
    # JSON has no NaN or Infinity, but Python's reader accepts both words
    text = f'[{{"year": 2020, "entity": "Z", {row}}}, {{"year": 2021, "entity": "Z", "revenue": 1}}]'
    assert run_records(tmp_path, capsys, text) == (
        EXIT_VALIDATION, "", f"error: <records>: bad revenue record at index 0: {message}\n")


@pytest.mark.parametrize("row, message", [
    ('"year": 2020.7, "entity": "Z", "revenue": 5', "year: expected an integer, got 2020.7"),
    ('"year": true, "entity": "Z", "revenue": 5', "year: expected an integer, got True"),
    ('"year": 2020, "entity": 7, "revenue": 5', "entity: expected a string, got 7"),
    ('"year": 2020, "entity": "Z", "revenue": "10"',
     "revenue: expected a finite number, got '10'"),
    ('"year": 2020, "entity": "Z", "revenue": true', "revenue: expected a finite number, got True"),
    ('"year": 2020, "entity": "Z", "revenue": null', "revenue: expected a finite number, got None"),
    (f'"year": 2020, "entity": "Z", "revenue": {10 ** 400}',
     f"revenue: expected a finite number, got {10 ** 400}"),
    ('"year": 2020, "entity": "Z", "revenue": 5, "payout": "3"',
     "payout: expected a finite number, got '3'"),
    ('"entity": 7, "revenue": 5',
     "year: missing required field\nerror: <records>: bad revenue record at index 0: "
     "entity: expected a string, got 7"),
], ids=["fractional year", "bool year", "number entity", "string revenue", "bool revenue",
        "null revenue", "revenue beyond a float", "string payout", "every field named"])
def test_cli_empirical_checks_record_fields_without_coercing(tmp_path, capsys, row, message):
    text = f'[{{{row}}}, {{"year": 2021, "entity": "Z", "revenue": 1}}]'
    assert run_records(tmp_path, capsys, text) == (
        EXIT_VALIDATION, "", f"error: <records>: bad revenue record at index 0: {message}\n")


def nested(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("command", ["validate", "solve", "empirical"])
def test_cli_refuses_a_file_nested_too_deeply(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text(nested(10 ** 5), encoding="utf-8")
    if command == "empirical":
        argv = ["empirical", "--records", str(path), "--payout", "1", "--window", "2021"]
    else:
        argv = [command, "--scenario", str(path)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {path}: nested too deeply to read\n")


def test_cli_in_field_nesting_ends_in_a_documented_exit(tmp_path, capsys):
    # near the recursion limit the reader, or the repr of the value in an
    # error message, runs out of stack, depending on the depth
    scenario, records = tmp_path / "scenario.json", tmp_path / "records.json"
    for depth in range(800, 1001):
        scenario.write_text(f'{{"model": "single", "params": {{"n": 3, "k": 2, '
                            f'"rho": {nested(depth)}}}}}', encoding="utf-8")
        records.write_text(f'[{{"year": 2021, "entity": "Z", "revenue": {nested(depth)}}}]',
                           encoding="utf-8")
        for argv in (["validate", "--scenario", str(scenario)],
                     ["solve", "--scenario", str(scenario)],
                     ["empirical", "--records", str(records), "--payout", "1",
                      "--window", "2021"]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_VALIDATION and err.startswith("error: "), (depth, argv)


@pytest.mark.parametrize("command", ["validate", "solve", "empirical"])
def test_cli_names_the_file_of_an_integer_too_long_to_read(tmp_path, capsys, command):
    # Python reads no JSON integer of more than 4,300 digits
    digits = "1" + "0" * 5000
    path = tmp_path / "long.json"
    if command == "empirical":
        path.write_text(f'[{{"year": 2021, "entity": "Z", "revenue": {digits}}}]',
                        encoding="utf-8")
        argv = ["empirical", "--records", str(path), "--payout", "1", "--window", "2021"]
    else:
        path.write_text(f'{{"model": "single", "params": {{"n": 3, "k": 2, "rho": {digits}}}}}',
                        encoding="utf-8")
        argv = [command, "--scenario", str(path)]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: not valid JSON (Exceeds the limit")
    assert err.endswith(")\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "solve", "sweep", "empirical"])
def test_cli_names_a_file_that_is_not_utf8(tmp_path, capsys, command):
    # JSON text is UTF-8 (RFC 8259); this file is latin-1, where é is the byte 0xe9
    path = tmp_path / "latin1.json"
    if command == "empirical":
        path.write_text('[{"year": 2021, "entity": "café", "revenue": 1}]', encoding="latin-1")
        argv = ["empirical", "--records", str(path), "--payout", "1", "--window", "2021"]
    else:
        path.write_text('{"model": "single", "params": {"n": 3, "k": 2}, "label": "café"}',
                        encoding="latin-1")
        argv = [command, "--scenario", str(path)] + (
            ["--n-values", "1,2"] if command == "sweep" else [])
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        f"error: {path}: not valid JSON ('utf-8' codec can't decode byte 0xe9 in position ")
    assert err.endswith(")\n") and err.count("\n") == 1


def test_cli_empirical_names_a_window_whose_revenue_overflows(tmp_path, capsys):
    text = json.dumps([{"year": 2020, "entity": "Z", "revenue": 1e308},
                       {"year": 2021, "entity": "Z", "revenue": 1.7e308}])
    assert run_records(tmp_path, capsys, text) == (
        EXIT_VALIDATION, "",
        "error: revenue of Z over 2020H1,2020H2,2021H1,2021H2 overflows a float\n")
    # the largest revenues whose window sum still fits give a finite share
    code, out, _ = run_records(tmp_path, capsys, text, window="2021")
    assert code == EXIT_OK and json.loads(out)["window_revenue"] == 1.7e308


# --- names the benchmark tracer wraps -------------------------------------------------

# name on fairshare.cli -> module that defines it; the tracer wraps these
# attributes of fairshare.cli and names each span after the defining module
TRACED_NAMES = {
    "main": "cli", "load_scenario": "scenarios", "build_game": "scenarios",
    "closed_allocation": "scenarios", "closed_report": "scenarios",
    "shapley_exact": "core", "shapley_sample": "core", "check_axioms": "core",
    "share_sweep": "models", "revenue_share": "empirical", "emit": "reports",
}


def test_traced_names_live_on_cli_with_their_modules():
    for name, module in TRACED_NAMES.items():
        assert getattr(cli, name).__module__ == f"fairshare.{module}", name


# --- commands in a fresh interpreter: where numpy loads ----------------------------

# Runs each argv of a JSON list on stdin through `fairshare.cli.main` in one
# process and prints, as JSON, whether `import fairshare.cli` loaded numpy and
# each command's exit code, stdout and stderr. argv[1] is the source root;
# argv[2] == "poison" makes every import of numpy raise ImportError.
FRESH_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "poison":
    sys.modules["numpy"] = None
import fairshare
import fairshare.cli
loaded = sys.modules.get("numpy") is not None
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fairshare.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy_at_import": loaded, "results": results}))
"""


def run_fresh(argvs, *, poison):
    """(whether the import loaded numpy, [code, stdout, stderr] per argv),
    from one new interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", FRESH_RUN, src, "poison" if poison else ""],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    return result["numpy_at_import"], [tuple(r) for r in result["results"]]


def test_numpy_free_commands_run_with_numpy_poisoned():
    # a game is built without numpy: validate, a closed solve, sweep and
    # empirical print the same bytes in a process where numpy cannot load
    argvs = [["validate", "--scenario", str(path)] for path in BUNDLED]
    argvs += [["solve", "--scenario", str(path), "--method", "closed", "--format", fmt]
              for path in BUNDLED for fmt in ("json", "csv", "text")]
    argvs += [["sweep", "--scenario", str(path), "--n-values", "1,2,10,1000", "--format", "json"]
              for path in BUNDLED if load_scenario(path).model in SWEEPABLE]
    argvs += [["empirical", "--payout", "30", "--window", "2018H2..2021H1",
               "--format", "json"]]
    assert any(argv[0] == "sweep" for argv in argvs)
    loaded, results = run_fresh(argvs, poison=True)
    assert not loaded
    assert len(results) == len(argvs)
    for argv, result in zip(argvs, results):
        assert result == run_cli(argv), argv
        assert result[0] == EXIT_OK, argv


def test_first_engine_call_loads_numpy_and_prints_the_golden_bytes():
    # in-process tests import numpy before fairshare; this is the path of a
    # new process, where numpy first loads inside a solve
    golden = Path(__file__).resolve().parent / "golden"
    stems = ("weighted_trio", "oligopoly_fine_pair")
    argvs = [["validate", "--scenario", METCALFE]] + [
        ["solve", "--scenario", str(SCENARIO_DIR / f"{stem}.json"), "--method", "all",
         "--format", "json"] for stem in stems]
    loaded, results = run_fresh(argvs, poison=False)
    assert not loaded
    assert [code for code, _, _ in results] == [EXIT_OK] * 3
    for stem, (_, out, err) in zip(stems, results[1:]):
        assert err == ""
        assert out.encode("utf-8") == (golden / f"solve_{stem}.json").read_bytes(), stem


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_a_game_traced_through_its_value_prints_the_same_bytes(monkeypatch, path):
    # the benchmark tracer counts evaluations by replacing each built game's
    # `value` with `dataclasses.replace`; that must leave the output as it is,
    # and see every `evaluate` call
    argv = ["solve", "--scenario", str(path), "--method", "all", "--format", "json"]
    plain = run_cli(argv)
    values, evaluations = [], []
    evaluate = CoalitionGame.evaluate

    def counted_evaluate(game, masks):
        evaluations.append(masks.size)
        return evaluate(game, masks)

    def traced_build_game(scenario, build=cli.build_game):
        game = build(scenario)

        def counting(masks, value=game.value):
            values.append(masks.size)
            return value(masks)

        return dataclasses.replace(game, value=counting)

    monkeypatch.setattr(CoalitionGame, "evaluate", counted_evaluate)
    monkeypatch.setattr(cli, "build_game", traced_build_game)
    assert run_cli(argv) == plain
    assert plain[0] == 0
    assert values and values == evaluations


def test_exact_engine_reaches_the_table_through_core(monkeypatch):
    calls = []
    table = core.coalition_value_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return table(*args, **kwargs)

    monkeypatch.setattr(core, "coalition_value_table", counted)
    game = CoalitionGame(3, lambda masks: np.bitwise_count(masks).astype(np.float64) ** 2)
    core.check_axioms(game, shapley_exact(game))
    assert calls == [game, game]



def count_tables(monkeypatch):
    """Roster sizes of the coalition tables built from here on."""
    sizes = []
    table = core.coalition_value_table

    def counted(game, **kwargs):
        sizes.append(game.n_players)
        return table(game, **kwargs)

    monkeypatch.setattr(core, "coalition_value_table", counted)
    return sizes


CROWD_OF_13 = {"model": "single", "params": {"n": 13, "k": 2}, "method": "all"}
AUDITED = [pytest.param(CROWD_OF_13, id="single-14-players")] + [
    pytest.param(json.loads(path.read_text(encoding="utf-8")), id=path.stem)
    for path in BUNDLED]


@pytest.mark.parametrize("data", AUDITED)
def test_method_all_builds_one_table_for_exact_and_the_audit(monkeypatch, data):
    sizes = count_tables(monkeypatch)
    report = solve_scenario(parse_scenario(data))
    n = len(report.players)
    assert n <= core.DEFAULT_STRUCTURE_CAP and report.axioms.exhaustive
    assert sizes == [n]


@pytest.mark.parametrize("data", AUDITED)
def test_audit_builds_its_own_table_when_exact_is_skipped(monkeypatch, data):
    scenario = parse_scenario(data)
    default = solve_scenario(scenario)
    n = len(default.players)
    sizes = count_tables(monkeypatch)
    below = solve_scenario(scenario, exact_cap=n - 1)
    assert "exact" not in below.allocations and sizes == [n]
    assert below.axioms == default.axioms
