"""End-to-end tests of the command line and its exit codes."""

import json
import time
from pathlib import Path

import pytest

from fairshare import cli, core
from fairshare.cli import (
    EXIT_CAP,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    resolve_exact_cap,
    solve_scenario,
    sweep_scenario,
)
from fairshare.core import DEFAULT_EXACT_CAP, CoalitionGame, shapley_exact
from fairshare.scenarios import ScenarioError, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
    scenario = load_scenario(SCENARIO_DIR / "oligopoly_diamond.json")
    with pytest.raises(ScenarioError, match="does not support sweeping"):
        sweep_scenario(scenario, [2, 4])


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
    "oligopoly_fine": {"vertices": [{"id": "a", "size": 100_000_000}]},
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


# --- flags and environment -----------------------------------------------------------


def test_exact_cap_resolution(monkeypatch):
    monkeypatch.delenv("FAIRSHARE_EXACT_CAP", raising=False)
    assert resolve_exact_cap(None) == DEFAULT_EXACT_CAP
    assert resolve_exact_cap(10) == 10
    monkeypatch.setenv("FAIRSHARE_EXACT_CAP", "12")
    assert resolve_exact_cap(None) == 12
    assert resolve_exact_cap(9) == 9  # flag wins over the environment
    monkeypatch.setenv("FAIRSHARE_EXACT_CAP", "twelve")
    with pytest.raises(ScenarioError):
        resolve_exact_cap(None)


def test_env_cap_drives_cli(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path, {
        "model": "single", "params": {"n": 8, "k": 2}, "method": "exact"})
    monkeypatch.setenv("FAIRSHARE_EXACT_CAP", "4")
    assert main(["solve", "--scenario", str(path)]) == EXIT_CAP
    capsys.readouterr()


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
    assert payload["scenario"].get("sample") is None  # file had no config
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


def test_exact_engine_reaches_the_table_through_core(monkeypatch):
    calls = []
    table = core.coalition_value_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return table(*args, **kwargs)

    monkeypatch.setattr(core, "coalition_value_table", counted)
    game = CoalitionGame(3, lambda s: float(s.size ** 2))
    core.check_axioms(game, shapley_exact(game))
    assert calls == [game, game]
