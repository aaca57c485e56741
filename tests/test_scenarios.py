"""Tests for scenario-file validation, parsing, and round-tripping."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.checks import ParamsError
from fairshare.geo import MAX_CENSUS_AGENTS, DiskCensus, GeoParams
from fairshare.models import ProfitCssParams, SingleCssParams, WeightedCssParams
from fairshare.oligopoly import OligopolyGraph
from fairshare.core import shapley_exact
from fairshare.scenarios import (
    METHODS,
    MODELS,
    SampleConfig,
    Scenario,
    build_game,
    closed_allocation,
    load_scenario,
    parse_scenario,
    scenario_to_data,
)
from reference import scenario_errors

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOOD_SINGLE = {"model": "single", "params": {"n": 3, "k": 2, "rho": 1.0},
               "method": "all"}


def random_scenario_data(rng):
    """One random, valid scenario dict per call, cycling through the models."""
    model = rng.choice(["single", "weighted", "profit", "oligopoly_coarse",
                        "oligopoly_fine", "geo", "geo_founder"])
    if model == "single":
        params = {"n": int(rng.integers(1, 9)), "k": int(rng.integers(1, 4)),
                  "rho": float(rng.uniform(0.5, 2.0))}
    elif model == "weighted":
        params = {"weights": [float(w) for w in rng.uniform(0.1, 3.0, size=rng.integers(1, 6))],
                  "alpha": float(rng.uniform(0.5, 2.0)), "rho": 1.0, "k": 2}
    elif model == "profit":
        params = {"n": int(rng.integers(1, 9)), "k": int(rng.integers(1, 4)),
                  "rho": 1.0, "founder_cost": float(rng.uniform(0, 1)),
                  "member_cost": float(rng.uniform(0, 0.5))}
    elif model in ("oligopoly_coarse", "oligopoly_fine"):
        n_vertices = int(rng.integers(2, 5))
        low = 1 if model == "oligopoly_fine" else 0
        vertices = [{"id": f"v{i}", "size": int(rng.integers(low, 4))}
                    for i in range(n_vertices)]
        edges = [[f"v{i}", f"v{j}"] for i in range(n_vertices)
                 for j in range(i + 1, n_vertices) if rng.random() < 0.5]
        params = {"vertices": vertices, "edges": edges, "rho": 1.0}
    else:
        m = int(rng.integers(1, 6))
        d = {}
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, m + 1))
            key = ",".join(map(str, sorted(
                rng.choice(np.arange(1, m + 1), size=size, replace=False).tolist())))
            d[key] = int(rng.integers(0, 9))
        params = {"census": {"m": m, "d": d},
                  "variant": str(rng.choice(["lin", "met"])), "rho": 1.0}
    method = str(rng.choice(["closed", "exact", "all"]))
    data = {"model": str(model), "params": params, "method": method}
    if rng.random() < 0.3:
        data["sample"] = {"permutations": int(rng.integers(10, 500)),
                          "seed": int(rng.integers(0, 100))}
    return data


# --- validation ------------------------------------------------------------------


def test_valid_scenario_has_no_errors():
    assert scenario_errors(GOOD_SINGLE) == []


def test_missing_field_named_in_error():
    data = {"model": "single", "params": {"n": 3}, "method": "all"}
    errors = scenario_errors(data)
    assert any("params.k" in e and "missing" in e for e in errors)


def test_all_violations_reported_at_once():
    data = {"model": "single", "method": "simulate",
            "params": {"n": 0, "k": "two", "rho": -1.0}}
    errors = scenario_errors(data)
    assert len(errors) >= 4
    assert any("method" in e for e in errors)
    assert any("params.n" in e for e in errors)
    assert any("params.k" in e for e in errors)
    assert any("params.rho" in e for e in errors)


def test_unknown_fields_flagged():
    data = dict(GOOD_SINGLE, extra=1)
    assert any("scenario.extra" in e for e in scenario_errors(data))
    data = {"model": "single", "params": {"n": 3, "k": 2, "bogus": 1}}
    assert any("params.bogus" in e for e in scenario_errors(data))


def test_non_object_scenario():
    assert scenario_errors([1, 2]) == ["scenario: expected a JSON object"]


def test_weighted_zero_weights_is_invariant_error():
    data = {"model": "weighted", "params": {"weights": [0.0, 0.0]}}
    errors = scenario_errors(data)
    assert any("at least one weight" in e for e in errors)


def test_weighted_cubic_closed_form_rejected_but_exact_allowed():
    params = {"weights": [1.0, 2.0], "k": 3}
    closed = {"model": "weighted", "params": params, "method": "closed"}
    exact = {"model": "weighted", "params": params, "method": "exact"}
    assert any("k=2" in e for e in scenario_errors(closed))
    assert scenario_errors(exact) == []


def test_oligopoly_edge_error_names_the_edge():
    data = {"model": "oligopoly_coarse",
            "params": {"vertices": [{"id": "A", "size": 1}],
                       "edges": [["A", "Z"]]}}
    errors = scenario_errors(data)
    assert any("'A'" in e and "'Z'" in e for e in errors)


def test_census_requires_exactly_one_form():
    both = {"model": "geo", "params": {
        "census": {"m": 2, "d": {"1": 1}, "placements": [[1]]}, "variant": "lin"}}
    neither = {"model": "geo", "params": {"census": {"m": 2}, "variant": "lin"}}
    for data in (both, neither):
        assert any("exactly one of" in e for e in scenario_errors(data))


def test_census_key_validation():
    data = {"model": "geo", "params": {
        "census": {"m": 2, "d": {"1,x": 3}}, "variant": "met"}}
    assert any("comma-joined" in e for e in scenario_errors(data))
    data = {"model": "geo", "params": {
        "census": {"m": 2, "d": {"1,5": 3}}, "variant": "met"}}
    assert any("1..2" in e for e in scenario_errors(data))


def test_census_agent_count_has_an_upper_bound():
    def census_data(m):
        return {"model": "geo", "params": {
            "census": {"m": m, "d": {"1": 3}}, "variant": "lin"}}
    assert scenario_errors(census_data(MAX_CENSUS_AGENTS)) == []
    assert scenario_errors(census_data(MAX_CENSUS_AGENTS + 1)) == [
        f"params.census.m: must be <= {MAX_CENSUS_AGENTS}, "
        f"got {MAX_CENSUS_AGENTS + 1}"]


NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400, -(10 ** 400)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "huge", "-huge"])
@pytest.mark.parametrize("model, params, key", [
    ("single", {"n": 3, "k": 2}, "rho"),
    ("profit", {"n": 3, "k": 2}, "founder_cost"),
    ("profit", {"n": 3, "k": 2}, "member_cost"),
    ("weighted", {"weights": [1.0, 2.0]}, "alpha"),
    ("weighted", {"weights": [1.0, 2.0]}, "rho"),
    ("oligopoly_coarse", {"vertices": [{"id": "A", "size": 1}]}, "rho"),
    ("geo", {"census": {"m": 1, "d": {"1": 2}}, "variant": "met"}, "rho"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_non_finite_numbers_rejected(model, params, key, bad):
    data = {"model": model, "params": dict(params, **{key: bad})}
    errors = scenario_errors(data)
    assert any(f"params.{key}" in e and "finite" in e for e in errors), errors
    with pytest.raises(ParamsError):
        parse_scenario(data)


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "huge", "-huge"])
def test_non_finite_weights_rejected(bad):
    data = {"model": "weighted", "params": {"weights": [1.0, bad]}}
    assert any("params.weights" in e and "finite" in e
               for e in scenario_errors(data))


def test_empty_crowds_are_accepted_under_every_method():
    params = {"vertices": [{"id": "a", "size": 0}, {"id": "b", "size": 2}],
              "edges": [["a", "b"]]}
    for model in ("oligopoly_fine", "oligopoly_coarse"):
        for method in METHODS:
            data = {"model": model, "params": params, "method": method}
            assert scenario_errors(data) == [], data


def test_geo_variant_required_and_checked():
    data = {"model": "geo", "params": {"census": {"m": 1, "d": {"1": 2}}}}
    assert any("variant" in e for e in scenario_errors(data))
    data["params"]["variant"] = "cubic"
    assert any("variant" in e for e in scenario_errors(data))


# --- parsing ----------------------------------------------------------------------


def test_parse_builds_typed_params():
    assert isinstance(parse_scenario(GOOD_SINGLE).params, SingleCssParams)
    weighted = {"model": "weighted", "params": {"weights": [1.0, 2.0]}}
    assert isinstance(parse_scenario(weighted).params, WeightedCssParams)
    profit = {"model": "profit", "params": {"n": 2, "k": 2}}
    assert isinstance(parse_scenario(profit).params, ProfitCssParams)
    graph = {"model": "oligopoly_coarse",
             "params": {"vertices": [{"id": "A", "size": 1}]}}
    assert isinstance(parse_scenario(graph).params, OligopolyGraph)
    geo = {"model": "geo",
           "params": {"census": {"m": 1, "d": {"1": 4}}, "variant": "met"}}
    parsed = parse_scenario(geo)
    assert isinstance(parsed.params, GeoParams)
    assert isinstance(parsed.params.census, DiskCensus)


def test_parse_rejects_invalid():
    with pytest.raises(ParamsError) as info:
        parse_scenario({"model": "single", "params": {"n": 3}})
    assert any("params.k" in e for e in info.value.errors)


def test_parse_sample_config():
    data = dict(GOOD_SINGLE, sample={"permutations": 500, "seed": 3})
    scenario = parse_scenario(data)
    assert scenario.sample == SampleConfig(permutations=500, seed=3)


def test_parse_census_from_placements():
    data = {"model": "geo", "params": {
        "census": {"m": 2, "placements": [[1], [1, 2], [2], []]},
        "variant": "lin"}}
    census = parse_scenario(data).params.census
    assert census.counts == {
        frozenset({1}): 1, frozenset({1, 2}): 1, frozenset({2}): 1}


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParamsError, match="not valid JSON"):
        load_scenario(path)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


# --- round trips -------------------------------------------------------------------


def test_bundled_scenarios_validate_and_round_trip():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 8
    for path in paths:
        scenario = load_scenario(path)
        assert scenario_errors(scenario_to_data(scenario)) == []


def test_generated_scenarios_round_trip():
    rng = np.random.default_rng(59)
    for _ in range(60):
        data = random_scenario_data(rng)
        assert scenario_errors(data) == [], data
        scenario = parse_scenario(data)
        rewritten = scenario_to_data(scenario)
        assert scenario_errors(rewritten) == []
        # a second pass through parse/emit is a fixed point
        assert scenario_to_data(parse_scenario(rewritten)) == rewritten


def test_round_trip_survives_json_serialization(tmp_path):
    rng = np.random.default_rng(61)
    for i in range(10):
        data = random_scenario_data(rng)
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps(scenario_to_data(parse_scenario(data))),
                        encoding="utf-8")
        assert scenario_errors(json.loads(path.read_text())) == []


# --- game builders -----------------------------------------------------------------


def test_build_game_rosters():
    assert build_game(parse_scenario(GOOD_SINGLE)).n_players == 4
    fine = {"model": "oligopoly_fine", "params": {
        "vertices": [{"id": "v", "size": 2}, {"id": "w", "size": 2}],
        "edges": [["v", "w"]]}}
    assert build_game(parse_scenario(fine)).n_players == 6
    founder = {"model": "geo_founder", "params": {
        "census": {"m": 3, "d": {"1": 1, "2": 2, "3": 3}}, "variant": "met"}}
    assert build_game(parse_scenario(founder)).n_players == 4


def test_closed_allocation_dispatch():
    scenario = parse_scenario(GOOD_SINGLE)
    alloc = closed_allocation(scenario)
    assert alloc.payoffs[0] == pytest.approx(3.5)
    diamond = load_scenario(SCENARIO_DIR / "oligopoly_diamond.json")
    assert closed_allocation(diamond).payoffs == (6.0, 20.0, 18.0, 24.0)


# --- properties of the scenario layer -------------------------------------------------

BAD_VALUES = [float("nan"), float("inf"), float("-inf"), 10 ** 400, -(10 ** 400),
              "1", None, True, [], {}, [1.0], {"x": 1}, -1, 0, 0.5]


def _containers(node):
    """Every dict and list inside a scenario, the scenario itself first."""
    out = [node] if isinstance(node, (dict, list)) else []
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        out += _containers(child)
    return out


@st.composite
def mutated_scenarios(draw):
    """A generated valid scenario with up to three keys dropped, added or retyped."""
    data = random_scenario_data(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(_containers(data)))
        action = draw(st.sampled_from(("drop", "add", "replace")))
        value = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(("bogus", "n", "rho", "census", "model")))] = value
        elif node:
            slot = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else list(range(len(node)))))
            if action == "drop":
                del node[slot]
            else:
                node[slot] = value
    return data


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in _numbers(child)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_parse_returns_or_raises_scenario_error(data):
    try:
        scenario = parse_scenario(data)
    except ParamsError:
        assert scenario_errors(data) != []
        return
    assert scenario_errors(data) == []
    rewritten = scenario_to_data(scenario)
    assert parse_scenario(rewritten) == scenario
    assert scenario_to_data(parse_scenario(rewritten)) == rewritten
    # an accepted scenario holds only numbers a float can carry
    for number in _numbers(rewritten["params"]):
        assert isinstance(number, int) or math.isfinite(number), number


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_form_equals_exact_on_generated_scenarios(seed):
    data = random_scenario_data(np.random.default_rng(seed))
    data["method"] = "closed"
    scenario = parse_scenario(data)
    game = build_game(scenario)
    if game.n_players > 10:
        return
    closed = closed_allocation(scenario)
    exact = shapley_exact(game)
    assert max(abs(a - b) for a, b in zip(closed.payoffs, exact.payoffs)) <= 1e-9
    assert abs(closed.grand_value - exact.grand_value) <= 1e-9


def test_generator_covers_every_model():
    rng = np.random.default_rng(3)
    seen = {random_scenario_data(rng)["model"] for _ in range(200)}
    assert seen == set(MODELS)
