"""Batch coalition tables against the models' reference functions.

A bundled game carries only its batch `table`; its model's public scalar
function (`value_single`, `value_coarse`, `nu_met`, ...) is the reference
the table must agree with on every coalition, in any mask order. The
exhaustive computations must give the same results on a scalar-only game
built from the reference.
"""

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare import geo
from fairshare.cli import EXIT_CAP, main
from fairshare.core import (
    Coalition,
    CoalitionGame,
    RosterTooLargeError,
    add_games,
    check_axioms,
    check_linearity,
    coalition_value_table,
    is_supermodular,
    shapley_exact,
    shapley_permutation_average,
    shapley_sample,
)
from fairshare.geo import DiskCensus, geo_founder_game, geo_founder_value, nu_lin, nu_met
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    value_profit,
    value_single,
    value_weighted,
    weighted_game,
)
from fairshare.oligopoly import OligopolyGraph, fine_roster, value_coarse, value_fine
from fairshare.scenarios import MODELS, GeoParams, build_game, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def shuffled_masks(n, seed=0):
    return np.random.default_rng(seed).permutation(np.arange(1 << n, dtype=np.uint64))


def geo_value(params, s):
    # player i - 1 is agent i
    nu = nu_met if params.variant == "met" else nu_lin
    return nu(params.census, [p + 1 for p in s.members()], params.rho)


REFERENCES = {
    "single": lambda p: functools.partial(value_single, p),
    "profit": lambda p: functools.partial(value_profit, p),
    "weighted": lambda p: functools.partial(value_weighted, p),
    "oligopoly_coarse": lambda g: functools.partial(value_coarse, g),
    "oligopoly_fine": lambda g: functools.partial(value_fine, g, fine_roster(g)),
    "geo": lambda p: functools.partial(geo_value, p),
    "geo_founder": lambda p: functools.partial(geo_founder_value, p.census, p.rho, p.variant),
}


def assert_table_matches(game, reference):
    masks = shuffled_masks(game.n_players)
    batch = game.table(masks)
    assert batch.dtype == np.float64 and batch.shape == masks.shape
    scalar = np.array([reference(Coalition(int(m))) for m in masks])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)


def bundled(path):
    """A bundled scenario's game and its model's reference function."""
    scenario = load_scenario(path)
    return build_game(scenario), REFERENCES[scenario.model](scenario.params)


def scalar_only(game, reference):
    return CoalitionGame(game.n_players, reference, game.label, game.players)


def failing_value(*args):
    raise AssertionError("scalar value called on the batch path")


# --- table == reference scalar value -----------------------------------------------


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_table_matches_scalar_value(path):
    assert_table_matches(*bundled(path))


FOURTEEN_PLAYER_GRAPHS = {
    # coarse: 14 systems on a ring with chords; fine: 3 majors and 11 minors
    "oligopoly_coarse": OligopolyGraph.from_spec(
        [(f"v{i}", (3 * i) % 7) for i in range(14)],
        [(f"v{i}", f"v{(i + 1) % 14}") for i in range(14)] + [("v0", "v7"), ("v3", "v11")],
        rho=1.37),
    "oligopoly_fine": OligopolyGraph.from_spec(
        [("A", 5), ("B", 4), ("C", 2)], [("A", "B"), ("B", "C")], rho=1.37),
}


@pytest.mark.parametrize("model", sorted(FOURTEEN_PLAYER_GRAPHS))
def test_network_table_equals_its_reference_bit_for_bit(model):
    # every network sum is an exact integer before the one product with rho
    graph = FOURTEEN_PLAYER_GRAPHS[model]
    game = MODELS[model].game(graph)
    assert game.n_players == 14
    reference = REFERENCES[model](graph)
    masks = np.arange(1 << 14, dtype=np.uint64)
    expected = np.array([reference(Coalition(int(m))) for m in masks])
    assert np.array_equal(game.table(masks), expected)


rhos = st.floats(0.1, 5.0)
sizes = st.integers(0, 20)


@st.composite
def graphs(draw, max_vertices, crowd):
    n_vertices = draw(st.integers(1, max_vertices))
    vertices = [(f"v{i}", draw(crowd)) for i in range(n_vertices)]
    pairs = list(itertools.combinations(range(n_vertices), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OligopolyGraph.from_spec(
        vertices, [(f"v{a}", f"v{b}") for a, b in chosen], draw(rhos))


@st.composite
def fine_graphs(draw):
    graph = draw(graphs(4, st.integers(0, 3)))
    if graph.n_vertices + sum(graph.crowd_sizes) > 10:
        graph = dataclasses.replace(graph, crowd_sizes=(1,) * graph.n_vertices)
    return graph


@st.composite
def censuses(draw, max_agents):
    m = draw(st.integers(1, max_agents))
    subsets = st.frozensets(st.integers(1, m), min_size=1)
    counts = draw(st.dictionaries(subsets, st.integers(0, 30), max_size=12))
    return DiskCensus(m, counts)


weights = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9).filter(
    lambda ws: any(w > 0 for w in ws))

variants = st.sampled_from(["lin", "met"])
PARAMS = {
    "single": st.builds(SingleCssParams, st.integers(1, 9), st.integers(1, 4), rhos),
    "profit": st.builds(ProfitCssParams, st.integers(1, 9), st.integers(1, 4), rhos,
                        st.floats(0, 5), st.floats(0, 5)),
    "weighted": st.builds(lambda ws, alpha, rho, k: WeightedCssParams(tuple(ws), alpha, rho, k),
                          weights, st.floats(0.25, 3.0), rhos, st.integers(1, 3)),
    "oligopoly_coarse": graphs(10, sizes),
    "oligopoly_fine": fine_graphs(),
    "geo": st.builds(GeoParams, censuses(10), variants, rhos),
    "geo_founder": st.builds(GeoParams, censuses(9), variants, rhos),
}


@pytest.mark.parametrize("model", sorted(PARAMS))
def test_generated_table_matches_scalar_value(model):
    @settings(max_examples=40, deadline=None)
    @given(PARAMS[model])
    def check(params):
        game = MODELS[model].game(params)
        assert game.n_players <= 10
        assert_table_matches(game, REFERENCES[model](params))

    check()


def test_table_shape_is_checked():
    game = CoalitionGame(3, lambda s: 0.0, "short", table=lambda masks: np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        coalition_value_table(game)


def test_table_path_makes_no_scalar_calls():
    game = weighted_game(WeightedCssParams((1.0, 2.0, 0.5), alpha=1.5))
    batch_only = dataclasses.replace(game, value=failing_value)
    assert shapley_exact(batch_only) == shapley_exact(game)
    assert check_axioms(batch_only, shapley_exact(game)).all_ok
    assert is_supermodular(batch_only)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_games_are_computed_from_the_table_alone(path):
    # the benchmark tracer counts evaluations by replacing `value` this way
    calls = []

    def counting(s):
        calls.append(int(s))
        return 0.0

    game = dataclasses.replace(build_game(load_scenario(path)), value=counting)
    check_axioms(game, shapley_exact(game))
    shapley_sample(game, 20, seed=1)
    assert calls == []


# --- scalar-only games keep their results -----------------------------------------


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_scalar_only_game_gives_same_results(path):
    game, reference = bundled(path)
    plain = scalar_only(game, reference)
    batch, scalar = shapley_exact(game), shapley_exact(plain)
    np.testing.assert_allclose(batch.payoffs, scalar.payoffs, rtol=1e-12, atol=1e-12)
    axioms, plain_axioms = check_axioms(game, batch), check_axioms(plain, scalar)
    assert axioms.null_players == plain_axioms.null_players
    assert axioms.symmetric_pairs == plain_axioms.symmetric_pairs
    assert axioms.all_ok and plain_axioms.all_ok
    assert is_supermodular(game) == is_supermodular(plain)


def hand_built_game():
    """Players 0 and 1 interchangeable, 2 a loner, 3 a complement, 4 null."""
    def value(s):
        pair = (0 in s) + (1 in s)
        return float(pair ** 2 + 3 * (2 in s) + (3 in s) * (pair + (2 in s)))

    return CoalitionGame(5, value, "hand built")


def test_scalar_only_axioms_find_hand_built_null_and_symmetric_players():
    game = hand_built_game()
    alloc = shapley_exact(game)
    report = check_axioms(game, alloc)
    assert report.null_players == (4,)
    assert report.symmetric_pairs == ((0, 1),)
    assert report.all_ok
    assert alloc.payoffs[4] == 0.0
    assert alloc.payoffs[0] == pytest.approx(alloc.payoffs[1], abs=1e-12)
    oracle = shapley_permutation_average(game)
    np.testing.assert_allclose(alloc.payoffs, oracle.payoffs, atol=1e-12)


def test_scalar_only_supermodularity():
    assert is_supermodular(hand_built_game())
    assert not is_supermodular(CoalitionGame(4, lambda s: float(s.size) ** 0.5))
    # the pair (1, 3) is the only one whose joint gain falls short
    dip = CoalitionGame(4, lambda s: float(s.size ** 2 - 3 * ((1 in s) and (3 in s))))
    assert not is_supermodular(dip)


# --- add_games --------------------------------------------------------------------


def test_add_games_keeps_the_batch_path():
    game_a, reference_a = bundled(SCENARIO_DIR / "geo_founder_lin.json")
    game_b, reference_b = bundled(SCENARIO_DIR / "geo_founder_met.json")

    def reference(s):
        return reference_a(s) + reference_b(s)

    assert_table_matches(add_games(game_a, game_b), reference)
    batch_a = dataclasses.replace(game_a, value=failing_value)
    batch_b = dataclasses.replace(game_b, value=failing_value)
    assert check_linearity(batch_a, batch_b).ok
    # a scalar-only operand is wrapped into a table when it is built
    assert_table_matches(add_games(game_a, scalar_only(game_b, reference_b)), reference)


# --- memory guard ---------------------------------------------------------------


def test_table_refuses_a_roster_beyond_physical_memory():
    game = CoalitionGame(40, failing_value, "huge")
    with pytest.raises(RosterTooLargeError, match="bytes"):
        coalition_value_table(game, cap=64)


def test_cli_exact_beyond_memory_exits_3(tmp_path, capsys):
    path = tmp_path / "single40.json"
    path.write_text(json.dumps({"model": "single", "params": {"n": 39, "k": 2}}),
                    encoding="utf-8")
    code = main(["solve", "--scenario", str(path), "--exact-cap", "40",
                 "--method", "exact"])
    assert code == EXIT_CAP
    assert "bytes" in capsys.readouterr().err


# --- geo_founder census rescan ------------------------------------------------


def test_geo_founder_value_uses_sizes_computed_once(monkeypatch):
    census = DiskCensus(6, {frozenset({1}): 5, frozenset({1, 2}): 3,
                            frozenset({3, 4, 5}): 7, frozenset({6}): 2})
    for variant in ("lin", "met"):
        game = geo_founder_game(census, 1.5, variant)
        reference = CoalitionGame(
            game.n_players, lambda s, v=variant: geo_founder_value(census, 1.5, v, s))
        for mask in range(1 << game.n_players):
            assert game.value(Coalition(mask)) == reference.value(Coalition(mask))
        assert shapley_sample(game, 50, 3) == shapley_sample(reference, 50, 3)
    monkeypatch.setattr(geo, "effective_size", failing_value)
    game.value(game.grand_coalition)
    with pytest.raises(ValueError, match="outside"):
        game.value(Coalition(1 << game.n_players))
