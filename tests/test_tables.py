"""Batch coalition tables against the models' reference functions.

A bundled game's `value` maps an array of coalition masks to their values;
its model's scalar function in `reference` (`value_single`, `value_coarse`,
`nu_met`, ...) is what that table must agree with on every coalition, in
any mask order. The exhaustive computations must give the same results on
a game built from the reference by `scalar_game`.
"""

import dataclasses
import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fairshare import geo, oligopoly
from fairshare.checks import ParamsError
from fairshare.cli import EXIT_CAP, main
from fairshare.core import (
    CoalitionGame,
    RosterTooLargeError,
    check_axioms,
    coalition_value_table,
    shapley_exact,
    shapley_sample,
)
from fairshare.geo import DiskCensus, GeoParams, geo_founder_game
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    weighted_game,
)
from fairshare.oligopoly import OligopolyGraph, network_sum
from fairshare.scenarios import MODELS, build_game, load_scenario
from reference import (
    Coalition,
    add_games,
    check_linearity,
    geo_founder_value,
    marginal_value,
    nu_lin,
    nu_met,
    scalar_game,
    shapley_permutation_average,
    supermodular_whole,
    value_coarse,
    value_fine,
    value_profit,
    value_single,
    value_weighted,
)

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
    "oligopoly_fine": lambda g: functools.partial(value_fine, g),
    "geo": lambda p: functools.partial(geo_value, p),
    "geo_founder": lambda p: functools.partial(geo_founder_value, p.census, p.rho, p.variant),
}


def assert_table_matches(game, reference):
    masks = shuffled_masks(game.n_players)
    batch = game.value(masks)
    assert batch.dtype == np.float64 and batch.shape == masks.shape
    scalar = np.array([reference(Coalition(int(m))) for m in masks])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)


def bundled(path):
    """A bundled scenario's game and its model's reference function."""
    scenario = load_scenario(path)
    return build_game(scenario), REFERENCES[scenario.model](scenario.params)


def scalar_only(game, reference):
    return scalar_game(game.n_players, reference, game.label, game.players)


def failing_value(*args):
    raise AssertionError("called where nothing may be computed")


def mask_arrays_only(game, calls):
    """The game with a `value` that takes nothing but one `uint64` array of
    masks per call, and appends each array's size to `calls`."""
    def value(masks, batch=game.value):
        assert isinstance(masks, np.ndarray) and masks.dtype == np.uint64, type(masks)
        calls.append(masks.size)
        return batch(masks)

    return dataclasses.replace(game, value=value)


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
    assert np.array_equal(game.value(masks), expected)


rhos = st.floats(0.1, 5.0)
sizes = st.integers(0, 20)
SMALL_CROWDS = st.integers(0, 1 << 20)


def whole_sum(graph):
    """The network sum without rho with every crowd present, exactly."""
    crowds = graph.crowd_sizes
    return network_sum(crowds, (crowds[a] * crowds[b] for a, b in graph.edges))


@st.composite
def byte_graphs(draw, vertices, crowd=SMALL_CROWDS):
    """Coarse graphs whose agreements are drawn apart inside a byte of
    vertices and across byte edges; with the default crowds, up to 2^20,
    every network sum is below 2^53."""
    n_vertices = draw(vertices)
    pairs = list(itertools.combinations(range(n_vertices), 2))
    edges = []
    for inside in (True, False):
        group = [(a, b) for a, b in pairs if (a >> 3 == b >> 3) == inside]
        if group:
            edges += draw(st.lists(st.sampled_from(group), unique=True, max_size=2 * n_vertices))
    crowds = draw(st.lists(crowd, min_size=n_vertices, max_size=n_vertices))
    graph = OligopolyGraph.from_spec([(f"v{v}", n) for v, n in enumerate(crowds)],
                                     [(f"v{a}", f"v{b}") for a, b in edges], draw(rhos))
    assert crowd is not SMALL_CROWDS or whole_sum(graph) < 1 << 53  # no sum rounds
    return graph


def byte_masks(n, seed):
    """Every mask of n <= 12 bits; above, every subset of each byte beside 4
    drawn fillings of the other bits, so every entry of every byte table is read."""
    if n <= 12:
        return np.arange(1 << n, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    out = []
    for lo in range(0, n, 8):
        byte = ((1 << min(8, n - lo)) - 1) << lo
        fills = rng.integers(0, 1 << n, 4).tolist()
        out += [(fill & ~byte) | (sub << lo) for fill in fills for sub in range((byte >> lo) + 1)]
    return np.array(out, dtype=np.uint64)


def drawn_masks(n, seed):
    """256 masks drawn over every vertex bit, so at 64 vertices half of them
    set bit 63, and the mask of every vertex."""
    drawn = np.random.default_rng(seed).integers(0, 1 << 64, 256, dtype=np.uint64)
    return np.append(drawn >> np.uint64(64 - n), np.uint64((1 << n) - 1))


def assert_coarse_bits(graph, masks):
    reference = REFERENCES["oligopoly_coarse"](graph)
    expected = np.array([reference(Coalition(int(m))) for m in masks])
    got = MODELS["oligopoly_coarse"].game(graph).value(masks)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def assert_coarse_within_summation_bound(graph, masks):
    """Each value is within (V + 2E + 10) units of 2^-53 of rho times the
    exact network sum of its present vertices, relative: every term is
    nonnegative, so the error of each sum is bounded by its term count."""
    got = MODELS["oligopoly_coarse"].game(graph).value(masks)
    bound = Fraction(graph.n_vertices + 2 * len(graph.edges) + 10, 1 << 53)
    crowds = graph.crowd_sizes
    for mask, value in zip(masks.tolist(), got.tolist()):
        exact = Fraction(graph.rho) * network_sum(
            (n for v, n in enumerate(crowds) if mask >> v & 1),
            (crowds[a] * crowds[b] for a, b in graph.edges if mask >> a & 1 and mask >> b & 1))
        assert abs(Fraction(value) - exact) <= bound * exact


@settings(max_examples=60, deadline=None)
@given(byte_graphs(st.integers(1, 20)), st.integers(0, 2 ** 32 - 1))
def test_coarse_byte_tables_give_the_reference_bits(graph, seed):
    assert_coarse_bits(graph, byte_masks(graph.n_vertices, seed))


@settings(max_examples=20, deadline=None)
@given(byte_graphs(st.one_of(st.just(64), st.integers(40, 63))), st.integers(0, 2 ** 32 - 1))
def test_coarse_byte_tables_give_the_reference_bits_at_40_to_64_vertices(graph, seed):
    assert_coarse_bits(graph, drawn_masks(graph.n_vertices, seed))


@settings(max_examples=60, deadline=None)
@given(byte_graphs(st.integers(1, 64), st.integers(0, 1 << 100)), st.integers(0, 2 ** 32 - 1))
def test_coarse_table_is_within_a_summation_bound_at_every_crowd_size(graph, seed):
    # crowds up to 2^100 put network sums far on both sides of 2^53
    assert_coarse_within_summation_bound(graph, drawn_masks(graph.n_vertices, seed))


@pytest.mark.parametrize("crowds", [
    (1 << 26,) + (0,) * 9,                      # network sum 2^52
    (1 << 26, 1 << 26) + (0,) * 8,              # 2^53
    (1 << 27, 3, 5, 7, 11, 13, 17, 19, 23, 29),   # about 2^54
])
def test_coarse_table_builds_nothing_before_its_first_call(monkeypatch, crowds):
    graph = OligopolyGraph.from_spec(
        [(f"v{v}", n) for v, n in enumerate(crowds)],
        [("v0", "v9"), ("v2", "v3"), ("v1", "v8"), ("v4", "v6")], rho=1.37)
    calls = []
    byte_sum_table = oligopoly.byte_sum_table
    monkeypatch.setattr(oligopoly, "byte_sum_table",
                        lambda *args: calls.append(args) or byte_sum_table(*args))
    table = oligopoly.coarse_table(graph)
    assert calls == []
    masks = np.arange(1 << 10, dtype=np.uint64)
    assert np.array_equal(table(masks), table(masks))
    assert len(calls) == 1  # built once
    assert_coarse_within_summation_bound(graph, masks)
    if whole_sum(graph) <= 1 << 53:
        assert_coarse_bits(graph, masks)


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


def weighted_params(ws, alpha, rho, k):
    try:
        return WeightedCssParams(tuple(ws), alpha, rho, k)
    except ParamsError:  # every work unit weight**alpha underflows to 0
        reject()


variants = st.sampled_from(["lin", "met"])
PARAMS = {
    "single": st.builds(SingleCssParams, st.integers(1, 9), st.integers(1, 4), rhos),
    "profit": st.builds(ProfitCssParams, st.integers(1, 9), st.integers(1, 4), rhos,
                        st.floats(0, 5), st.floats(0, 5)),
    "weighted": st.builds(weighted_params, weights, st.floats(0.25, 3.0), rhos,
                          st.integers(1, 3)),
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
    game = CoalitionGame(3, lambda masks: np.zeros(2), "short")
    with pytest.raises(ValueError, match=r"value of short returned shape \(2,\) "
                                         r"for masks of shape \(8,\)"):
        coalition_value_table(game)


def test_table_path_makes_no_scalar_calls():
    game = weighted_game(WeightedCssParams((1.0, 2.0, 0.5), alpha=1.5))
    calls = []
    checked = mask_arrays_only(game, calls)
    assert shapley_exact(checked) == shapley_exact(game)
    assert check_axioms(checked, shapley_exact(game)).all_ok
    assert supermodular_whole(coalition_value_table(checked))
    assert calls == [1 << game.n_players] * 3


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_games_are_computed_from_the_table_alone(path):
    # the benchmark tracer counts evaluations by replacing `value` this way
    game = build_game(load_scenario(path))
    calls = []
    checked = mask_arrays_only(game, calls)
    exact = shapley_exact(checked)
    assert exact == shapley_exact(game)
    assert check_axioms(checked, exact) == check_axioms(game, exact)
    assert shapley_sample(checked, 20, seed=1) == shapley_sample(game, 20, seed=1)
    # two tables of 2^n masks, the sampler's two ends and its one block
    assert calls == [1 << game.n_players] * 2 + [2, 20 * game.n_players]


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
    assert (supermodular_whole(coalition_value_table(game))
            == supermodular_whole(coalition_value_table(plain)))


def hand_built_game():
    """Players 0 and 1 interchangeable, 2 a loner, 3 a complement, 4 null."""
    def value(s):
        pair = (0 in s) + (1 in s)
        return float(pair ** 2 + 3 * (2 in s) + (3 in s) * (pair + (2 in s)))

    return scalar_game(5, value, "hand built")


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
    assert supermodular_whole(coalition_value_table(hand_built_game()))
    assert not supermodular_whole(coalition_value_table(
        scalar_game(4, lambda s: float(s.size) ** 0.5)))
    # the pair (1, 3) is the only one whose joint gain falls short
    dip = scalar_game(4, lambda s: float(s.size ** 2 - 3 * ((1 in s) and (3 in s))))
    assert not supermodular_whole(coalition_value_table(dip))


# --- add_games --------------------------------------------------------------------


def test_add_games_keeps_the_batch_path():
    game_a, reference_a = bundled(SCENARIO_DIR / "geo_founder_lin.json")
    game_b, reference_b = bundled(SCENARIO_DIR / "geo_founder_met.json")

    def reference(s):
        return reference_a(s) + reference_b(s)

    assert_table_matches(add_games(game_a, game_b), reference)
    calls = []
    checked_a, checked_b = mask_arrays_only(game_a, calls), mask_arrays_only(game_b, calls)
    assert check_linearity(checked_a, checked_b).ok
    # one table of each game alone, and one of each for their sum
    assert calls == [1 << game_a.n_players] * 4
    # an operand built by `scalar_game` adds the same way
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
        game = geo_founder_game(GeoParams(census, rho=1.5, variant=variant))
        reference = scalar_game(
            game.n_players, lambda s, v=variant: geo_founder_value(census, 1.5, v, s))
        masks = np.arange(1 << game.n_players, dtype=np.uint64)
        assert np.array_equal(game.evaluate(masks), reference.evaluate(masks))
        assert shapley_sample(game, 50, 3) == shapley_sample(reference, 50, 3)
    # the sizes are computed when the game is built, never per evaluation
    monkeypatch.setattr(geo, "effective_sizes", failing_value)
    game.evaluate(np.array([game.grand_coalition], dtype=np.uint64))
    with pytest.raises(ValueError, match="outside"):
        marginal_value(game, Coalition(1 << game.n_players), 0)
