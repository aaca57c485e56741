"""Tests for the coarse- and fine-grain network games."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import (
    PlayerTag,
    check_axioms,
    coalition_value_table,
    shapley_exact,
)
from fairshare.oligopoly import (
    OligopolyGraph,
    coarse_game,
    fine_game,
    fine_major_ratio,
    minor_blocks,
    shapley_coarse,
    shapley_fine_closed,
)
from fairshare.scenarios import MODELS
from reference import Coalition, scalar_game, value_coarse, value_fine


def diamond_graph(rho=1.0):
    """Four systems A..D with agreements A-B, A-C, B-C, B-D."""
    return OligopolyGraph.from_spec(
        [("A", 1), ("B", 2), ("C", 3), ("D", 4)],
        [("A", "B"), ("C", "B"), ("C", "A"), ("B", "D")],
        rho=rho)


def random_graph(rng, max_vertices=8, max_size=5, min_size=0):
    n_vertices = int(rng.integers(1, max_vertices + 1))
    vertices = [(f"v{i}", int(rng.integers(min_size, max_size + 1)))
                for i in range(n_vertices)]
    edges = [(f"v{i}", f"v{j}")
             for i in range(n_vertices) for j in range(i + 1, n_vertices)
             if rng.random() < 0.5]
    return OligopolyGraph.from_spec(vertices, edges, rho=float(rng.uniform(0.5, 2.0)))


def random_fine_graph(rng, max_roster=12):
    n_vertices = int(rng.integers(2, 4))
    sizes = [int(rng.integers(1, 4)) for _ in range(n_vertices)]
    while n_vertices + sum(sizes) > max_roster:
        sizes[int(rng.integers(0, n_vertices))] = 1
    vertices = [(f"v{i}", sizes[i]) for i in range(n_vertices)]
    edges = [(f"v{i}", f"v{j}")
             for i in range(n_vertices) for j in range(i + 1, n_vertices)
             if rng.random() < 0.6]
    return OligopolyGraph.from_spec(vertices, edges, rho=float(rng.uniform(0.5, 2.0)))


# --- graph construction ---------------------------------------------------------


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate vertex id 'A'"):
        OligopolyGraph.from_spec([("A", 1), ("A", 2)])
    with pytest.raises(ValueError, match="unknown vertex 'X'"):
        OligopolyGraph.from_spec([("A", 1)], [("A", "X")])
    with pytest.raises(ValueError, match="self-loop"):
        OligopolyGraph.from_spec([("A", 1), ("B", 2)], [("A", "A")])
    with pytest.raises(ValueError, match="duplicate agreement"):
        OligopolyGraph.from_spec([("A", 1), ("B", 2)], [("A", "B"), ("B", "A")])
    with pytest.raises(ValueError, match="size: must be >= 0"):
        OligopolyGraph.from_spec([("A", -1)])


def test_graph_network_value_must_fit_a_float():
    # the network value is 10^308 (+ 2 * 10^307 with the agreement): it fits
    for edges in ([], [("A", "B")]):
        graph = OligopolyGraph.from_spec([("A", 10 ** 154), ("B", 10 ** 153)], edges)
        assert math.isfinite(shapley_coarse(graph).grand_value)
    overflow = "vertices: the network value .* overflows a float"
    with pytest.raises(ValueError, match=overflow):
        OligopolyGraph.from_spec([("A", 10 ** 155)])
    with pytest.raises(ValueError, match=overflow):  # only the agreement overflows
        OligopolyGraph.from_spec([("A", 10 ** 154), ("B", 10 ** 154)], [("A", "B")])


def test_graph_lookup():
    graph = diamond_graph()
    assert graph.vertex_index("C") == 2
    assert graph.vertex_index(3) == 3
    assert graph.neighbor_masses() == (5, 8, 3, 2)  # A: B+C, B: A+C+D, C: A+B, D: B
    with pytest.raises(ValueError, match="unknown vertex id"):
        graph.vertex_index("Z")


# --- coarse value function ------------------------------------------------------


def test_value_coarse_single_vertex():
    graph = OligopolyGraph.from_spec([("A", 3)], rho=2.0)
    assert value_coarse(graph, ["A"]) == 18.0


def test_value_coarse_merged_pair_is_square_of_total():
    graph = OligopolyGraph.from_spec([("A", 3), ("B", 5)], [("A", "B")])
    assert value_coarse(graph, ["A", "B"]) == (3 + 5) ** 2


def test_value_coarse_diamond_full():
    # 1+4+9+16 vertex terms plus doubled edge products 2*(2+3+6+8)
    assert value_coarse(diamond_graph(), "ABCD") == 68.0
    assert value_coarse(diamond_graph(rho=0.5), "ABCD") == 34.0


def test_value_coarse_unknown_member():
    with pytest.raises(ValueError, match="unknown vertex id"):
        value_coarse(diamond_graph(), ["A", "Z"])


# --- coarse closed form ----------------------------------------------------------


def test_shapley_coarse_diamond():
    alloc = shapley_coarse(diamond_graph())
    assert alloc.payoffs == (6.0, 20.0, 18.0, 24.0)
    assert alloc.grand_value == 68.0


def test_shapley_coarse_center_formula():
    # the best-connected vertex earns its size times the sizes of everyone it sees
    graph = diamond_graph()
    alloc = shapley_coarse(graph)
    n = graph.crowd_sizes
    assert alloc.payoffs[1] == n[1] * (n[0] + n[1] + n[2] + n[3])


def test_shapley_coarse_uniform_sizes():
    graph = OligopolyGraph.from_spec(
        [("A", 3), ("B", 3), ("C", 3)], [("A", "B"), ("B", "C")])
    alloc = shapley_coarse(graph)
    degrees = (1, 2, 1)
    assert alloc.payoffs == tuple(9.0 * (1 + d) for d in degrees)


def test_shapley_coarse_matches_exact_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(40):
        graph = random_graph(rng)
        closed = shapley_coarse(graph)
        exact = shapley_exact(coarse_game(graph))
        assert closed.grand_value == pytest.approx(exact.grand_value, rel=1e-12)
        for a, b in zip(closed.payoffs, exact.payoffs):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@st.composite
def graphs(draw, sizes, max_vertices=6):
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OligopolyGraph.from_spec([(f"v{v}", draw(sizes)) for v in range(n)],
                                    [(f"v{a}", f"v{b}") for a, b in edges],
                                    draw(st.floats(1e-3, 1e3)))


@settings(max_examples=300, deadline=None)
@given(graphs(st.integers(0, 10 ** 12)))
def test_coarse_grand_value_is_the_integer_sum_rounded_once(graph):
    # the float network table rounds each product of crowd sizes, so above
    # about 2^26 members its grand value can differ from this in the last bit
    assert shapley_coarse(graph).grand_value == value_coarse(graph, range(graph.n_vertices))


@settings(max_examples=100, deadline=None)
@given(graphs(st.integers(1, 10)))
def test_fine_grand_value_is_the_integer_sum_rounded_once(graph):
    # the fine closed form lists every crowd member's payoff, so its crowds stay small
    assert shapley_fine_closed(graph).grand_value == value_coarse(
        graph, range(graph.n_vertices))


def test_shapley_coarse_edge_changes_are_local():
    rng = np.random.default_rng(5)
    for _ in range(20):
        graph = random_graph(rng, max_vertices=7)
        missing = [(a, b)
                   for a in range(graph.n_vertices)
                   for b in range(a + 1, graph.n_vertices)
                   if (a, b) not in graph.edges]
        if not missing:
            continue
        a, b = missing[int(rng.integers(0, len(missing)))]
        grown = OligopolyGraph(graph.vertex_ids, graph.crowd_sizes,
                               graph.edges + ((a, b),), graph.rho)
        before = shapley_coarse(graph).payoffs
        after = shapley_coarse(grown).payoffs
        for v in range(graph.n_vertices):
            if v in (a, b):
                continue
            assert after[v] == before[v]


# --- fine-grain value function -----------------------------------------------------


def pair_graph(rho=1.0):
    return OligopolyGraph.from_spec([("v", 2), ("w", 2)], [("v", "w")], rho=rho)


def test_value_fine_gates_on_major():
    graph = pair_graph()
    # crowd members of v (players 2,3) without their major are worthless
    assert value_fine(graph, Coalition.from_members([2, 3])) == 0.0
    # majors alone have no crowd to network
    assert value_fine(graph, Coalition.from_members([0, 1])) == 0.0


def test_value_fine_full_pair():
    graph = pair_graph()
    full = Coalition.from_members(range(fine_game(graph).n_players))
    assert value_fine(graph, full) == 16.0


def test_value_fine_partial_crowds():
    graph = pair_graph()
    # one member of each crowd present: 1 + 1 + 2*1*1
    s = Coalition.from_members([0, 1, 2, 4])
    assert value_fine(graph, s) == 4.0


def zero_crowd_graph():
    # "z" has no crowd, so its founder adds nothing anywhere
    return OligopolyGraph.from_spec([("a", 2), ("z", 0), ("b", 1)],
                                    [("a", "z"), ("z", "b"), ("a", "b")], rho=1.25)


def test_fine_game_roster_follows_the_minor_blocks():
    graph = zero_crowd_graph()
    assert minor_blocks(graph) == (range(3, 5), range(5, 5), range(5, 6))
    game = fine_game(graph)
    assert [(p.tag, p.name) for p in game.players] == [
        (PlayerTag.FOUNDER, "a"), (PlayerTag.FOUNDER, "z"), (PlayerTag.FOUNDER, "b"),
        (PlayerTag.CROWD, "a/u1"), (PlayerTag.CROWD, "a/u2"), (PlayerTag.CROWD, "b/u1")]


def test_fine_game_with_an_empty_crowd_solves_exactly():
    # a null founder leaves everyone else's payoff as in the graph without it
    exact = shapley_exact(MODELS["oligopoly_fine"].game(zero_crowd_graph()))
    assert exact.payoffs[1] == 0.0
    without = shapley_fine_closed(OligopolyGraph.from_spec(
        [("a", 2), ("b", 1)], [("a", "b")], rho=1.25))
    assert exact.grand_value == without.grand_value
    kept = exact.payoffs[:1] + exact.payoffs[2:]
    assert kept == pytest.approx(without.payoffs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("graph", [pair_graph(1.5), zero_crowd_graph(), diamond_graph(0.5)],
                         ids=["pair", "empty crowd", "diamond"])
def test_value_fine_is_the_game_on_every_mask(graph):
    game = fine_game(graph)
    masks = np.arange(1 << game.n_players, dtype=np.uint64)
    expected = [value_fine(graph, Coalition(int(m))) for m in masks]
    assert game.evaluate(masks).tolist() == expected


# --- fine-grain closed form ----------------------------------------------------------


def test_shapley_fine_pair_example():
    alloc = shapley_fine_closed(pair_graph())
    majors = alloc.payoffs[:2]
    minors = alloc.payoffs[2:]
    assert majors == pytest.approx((11 / 3, 11 / 3), abs=1e-12)
    assert minors == pytest.approx((13 / 6,) * 4, abs=1e-12)
    assert alloc.grand_value == 16.0


def test_shapley_fine_isolated_vertex_is_single_system_split():
    for n in (1, 2, 5, 9):
        graph = OligopolyGraph.from_spec([("v", n)])
        alloc = shapley_fine_closed(graph)
        assert alloc.payoffs[0] == pytest.approx(n * (2 * n + 1) / 6, rel=1e-12)


def test_shapley_fine_pays_an_empty_crowd_founder_nothing():
    graph = OligopolyGraph.from_spec([("v", 2), ("w", 0)], [("v", "w")])
    closed = shapley_fine_closed(graph)
    assert closed.payoffs[1] == 0.0
    assert closed.payoffs == pytest.approx(shapley_exact(fine_game(graph)).payoffs,
                                           rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(graphs(st.integers(0, 3), max_vertices=5).filter(
    lambda g: 0 in g.crowd_sizes and g.n_vertices + sum(g.crowd_sizes) <= 16))
def test_shapley_fine_with_empty_crowds_is_the_exact_engine(graph):
    closed = shapley_fine_closed(graph)
    exact = shapley_exact(fine_game(graph))
    tol = 1e-12 * max(1.0, abs(exact.grand_value))
    assert abs(closed.grand_value - exact.grand_value) <= tol
    assert max(abs(a - b) for a, b in zip(closed.payoffs, exact.payoffs, strict=True)) <= tol


def test_shapley_fine_matches_exact_on_random_configs():
    rng = np.random.default_rng(31)
    for _ in range(40):
        graph = random_fine_graph(rng)
        closed = shapley_fine_closed(graph)
        exact = shapley_exact(fine_game(graph))
        assert closed.grand_value == pytest.approx(exact.grand_value, rel=1e-12)
        for a, b in zip(closed.payoffs, exact.payoffs):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_fine_game_decomposes_into_vertex_and_edge_pieces():
    # the fine value splits into per-vertex and per-edge games; Shapley
    # payoffs must add up piece by piece (linearity)
    graph = OligopolyGraph.from_spec(
        [("v", 2), ("w", 1), ("x", 2)], [("v", "w"), ("w", "x")], rho=1.0)
    game = fine_game(graph)
    n = game.n_players
    blocks = minor_blocks(graph)

    def vertex_piece(v):
        def value(s):
            if v not in s:
                return 0.0
            crowd = sum(1 for p in s.members() if p in blocks[v])
            return float(crowd ** 2)
        return scalar_game(n, value)

    def edge_piece(a, b):
        def value(s):
            if a not in s or b not in s:
                return 0.0
            crowd_a = sum(1 for p in s.members() if p in blocks[a])
            crowd_b = sum(1 for p in s.members() if p in blocks[b])
            return 2.0 * crowd_a * crowd_b
        return scalar_game(n, value)

    pieces = [vertex_piece(v) for v in range(graph.n_vertices)]
    pieces += [edge_piece(a, b) for a, b in graph.edges]
    summed = [0.0] * n
    for piece in pieces:
        for i, p in enumerate(shapley_exact(piece).payoffs):
            summed[i] += p
    whole = shapley_exact(game)
    for a, b in zip(summed, whole.payoffs):
        assert a == pytest.approx(b, abs=1e-9)


def test_fine_allocations_satisfy_axioms():
    graph = pair_graph(rho=1.5)
    report = check_axioms(shapley_fine_closed(graph),
                          values=coalition_value_table(fine_game(graph)))
    assert report.all_ok


# --- star reduction --------------------------------------------------------------


def test_star_of_unit_systems_approaches_one_third():
    # hub plus n unit-size partners: hub share (n+1)/(3n+1) falls to 1/3
    def hub_share(n):
        vertices = [("hub", 1)] + [(f"p{i}", 1) for i in range(n)]
        edges = [("hub", f"p{i}") for i in range(n)]
        graph = OligopolyGraph.from_spec(vertices, edges)
        alloc = shapley_coarse(graph)
        return alloc.payoffs[0] / alloc.grand_value

    gaps = [abs(hub_share(n) - 1 / 3) for n in (1, 4, 16, 64, 256, 1024)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3
    assert hub_share(4) == pytest.approx(5 / 13, abs=1e-12)


# --- major/minor split ratio -------------------------------------------------------


def test_fine_major_ratio_isolated():
    graph = OligopolyGraph.from_spec([("v", 7)])
    assert fine_major_ratio(graph, "v") == pytest.approx(1 / 3, abs=1e-15)


def test_fine_major_ratio_neighbor_dominated():
    graph = OligopolyGraph.from_spec(
        [("v", 1), ("w", 100_000)], [("v", "w")])
    assert fine_major_ratio(graph, "v") == pytest.approx(0.5, abs=1e-4)


def test_fine_major_ratio_balanced():
    graph = OligopolyGraph.from_spec([("v", 6), ("w", 6)], [("v", "w")])
    assert fine_major_ratio(graph, "v") == pytest.approx(5 / 12, abs=1e-15)


def test_fine_major_ratio_band_on_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(200):
        graph = random_graph(rng, max_vertices=7, max_size=9, min_size=1)
        for v in range(graph.n_vertices):
            ratio = fine_major_ratio(graph, v)
            assert 1 / 3 - 1e-12 <= ratio <= 0.5 + 1e-12


def test_fine_major_ratio_undefined_without_crowds():
    graph = OligopolyGraph.from_spec([("v", 0)])
    with pytest.raises(ValueError, match="undefined"):
        fine_major_ratio(graph, "v")
