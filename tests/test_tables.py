"""Batch coalition tables against the scalar characteristic function.

The scalar `value` of a game is the reference; a game's optional batch
`table` must agree with it on every coalition, in any mask order. The
exhaustive computations must give the same results with or without a table.
"""

import dataclasses
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
from fairshare.geo import DiskCensus, geo_founder_game, geo_founder_value, geo_game
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    profit_game,
    single_game,
    weighted_game,
)
from fairshare.oligopoly import OligopolyGraph, coarse_game, fine_game
from fairshare.scenarios import build_game, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def shuffled_masks(n, seed=0):
    return np.random.default_rng(seed).permutation(np.arange(1 << n, dtype=np.uint64))


def assert_table_matches_value(game):
    masks = shuffled_masks(game.n_players)
    batch = game.table(masks)
    assert batch.dtype == np.float64 and batch.shape == masks.shape
    scalar = np.array([game.value(Coalition(int(m))) for m in masks])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)


def scalar_only(game):
    return dataclasses.replace(game, table=None)


def failing_value(*args):
    raise AssertionError("scalar value called on the batch path")


# --- table == scalar value ------------------------------------------------------


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_table_matches_scalar_value(path):
    game = build_game(load_scenario(path))
    assert game.table is not None
    assert_table_matches_value(game)


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

GAMES = {
    "single": st.builds(lambda n, k, rho: single_game(SingleCssParams(n, k, rho)),
                        st.integers(1, 9), st.integers(1, 4), rhos),
    "profit": st.builds(
        lambda n, k, rho, fc, mc: profit_game(ProfitCssParams(n, k, rho, fc, mc)),
        st.integers(1, 9), st.integers(1, 4), rhos, st.floats(0, 5), st.floats(0, 5)),
    "weighted": st.builds(
        lambda ws, alpha, rho, k: weighted_game(WeightedCssParams(tuple(ws), alpha, rho, k)),
        weights, st.floats(0.25, 3.0), rhos, st.integers(1, 3)),
    "oligopoly_coarse": st.builds(coarse_game, graphs(10, sizes)),
    "oligopoly_fine": st.builds(lambda g: fine_game(g)[0], fine_graphs()),
    "geo": st.builds(geo_game, censuses(10), rhos, st.sampled_from(["lin", "met"])),
    "geo_founder": st.builds(geo_founder_game, censuses(9), rhos,
                             st.sampled_from(["lin", "met"])),
}


@pytest.mark.parametrize("model", sorted(GAMES))
def test_generated_table_matches_scalar_value(model):
    @settings(max_examples=40, deadline=None)
    @given(GAMES[model])
    def check(game):
        assert game.n_players <= 10
        assert_table_matches_value(game)

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


# --- scalar-only games keep their results -----------------------------------------


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_scalar_only_game_gives_same_results(path):
    game = build_game(load_scenario(path))
    plain = scalar_only(game)
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
    game_a = build_game(load_scenario(SCENARIO_DIR / "geo_founder_lin.json"))
    game_b = build_game(load_scenario(SCENARIO_DIR / "geo_founder_met.json"))
    total = add_games(game_a, game_b)
    assert total.table is not None
    assert_table_matches_value(total)
    batch_a = dataclasses.replace(game_a, value=failing_value)
    batch_b = dataclasses.replace(game_b, value=failing_value)
    assert check_linearity(batch_a, batch_b).ok
    assert add_games(game_a, scalar_only(game_b)).table is None


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
