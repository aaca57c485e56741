"""Tests for the coalition engine, estimators, and axiom checks."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from fairshare import core
from fairshare.core import (
    Allocation,
    Coalition,
    CoalitionGame,
    DegenerateCrowdError,
    EMPTY_COALITION,
    Method,
    PlayerId,
    PlayerTag,
    RosterTooLargeError,
    add_games,
    anonymous_game,
    check_axioms,
    check_linearity,
    coalition_value_table,
    crowd_players,
    is_supermodular,
    marginal_value,
    mass_game,
    shapley_anonymous,
    shapley_exact,
    shapley_permutation_average,
    shapley_sample,
)
from fairshare.geo import DiskCensus, geo_founder_game, geo_founder_value, geo_game, nu_met
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    crowd_count,
    founder_present,
    profit_game,
    single_game,
    value_profit,
    value_single,
    value_weighted,
    weighted_game,
)
from fairshare.oligopoly import OligopolyGraph, coarse_game, fine_game, value_coarse, value_fine


def additive_game(n):
    return CoalitionGame(n, lambda s: float(s.size), "additive")


def table_game(table, n):
    """Game backed by an explicit value table indexed by coalition mask."""
    return CoalitionGame(n, lambda s: float(table[int(s)]), "table")


def random_table_game(rng, n):
    table = rng.normal(size=1 << n)
    table[0] = 0.0
    return table_game(table, n)


# --- coalitions and rosters ---------------------------------------------------


def test_coalition_members_roundtrip():
    c = Coalition.from_members([0, 3, 5])
    assert c.members() == (0, 3, 5)
    assert c.size == 3
    assert 3 in c and 1 not in c
    assert c.add(1).members() == (0, 1, 3, 5)
    assert c.remove(3).members() == (0, 5)
    assert EMPTY_COALITION.size == 0
    assert EMPTY_COALITION.members() == ()


def test_coalition_rejects_bad_indices():
    with pytest.raises(ValueError):
        Coalition.from_members([-1])
    with pytest.raises(ValueError):
        Coalition.from_members([64])


def test_game_roster_validation():
    with pytest.raises(ValueError):
        CoalitionGame(0, lambda s: 0.0)
    with pytest.raises(ValueError):
        CoalitionGame(65, lambda s: 0.0)
    with pytest.raises(ValueError):
        CoalitionGame(2, lambda s: 0.0,
                      players=(PlayerId(0), PlayerId(0)))
    with pytest.raises(ValueError, match="value or a table"):
        CoalitionGame(3)
    game = CoalitionGame(3, lambda s: 0.0)
    assert [p.index for p in game.players] == [0, 1, 2]
    assert game.grand_coalition.members() == (0, 1, 2)


def test_allocation_stderr_rules():
    with pytest.raises(ValueError):
        Allocation((1.0,), 1.0, Method.SAMPLED)
    with pytest.raises(ValueError):
        Allocation((1.0,), 1.0, Method.EXACT, stderr=(0.0,))
    alloc = Allocation((2.0, 2.0), 4.0, Method.EXACT)
    assert alloc.shares() == (0.5, 0.5)
    assert Allocation((0.0,), 0.0, Method.EXACT).shares() is None


# --- marginal values ----------------------------------------------------------


def test_marginal_value_founder_game():
    game = single_game(SingleCssParams(n=2, k=2, rho=1.0))
    # founder alone, then u1 joins: 1^2 - 0^2
    assert marginal_value(game, Coalition.from_members([0]), 1) == 1.0
    # no founder present: both coalition values are zero
    assert marginal_value(game, Coalition.from_members([1]), 2) == 0.0


def test_marginal_value_additive_game():
    game = additive_game(4)
    for members in ([], [1], [0, 2, 3]):
        s = Coalition.from_members(members)
        joiner = next(i for i in range(4) if i not in s)
        assert marginal_value(game, s, joiner) == 1.0


def test_marginal_value_rejects_member_or_stranger():
    game = additive_game(3)
    with pytest.raises(ValueError):
        marginal_value(game, Coalition.from_members([1]), 1)
    with pytest.raises(ValueError):
        marginal_value(game, Coalition.from_members([0]), 7)
    with pytest.raises(ValueError):
        marginal_value(game, Coalition.from_members([5]), 1)


# --- exact engine -------------------------------------------------------------


def test_exact_three_player_founder_game():
    # frozen from the permutation-average oracle over all 3! join orders
    alloc = shapley_exact(single_game(SingleCssParams(n=2, k=2, rho=1.0)))
    assert alloc.method is Method.EXACT
    assert alloc.payoffs == pytest.approx((5 / 3, 7 / 6, 7 / 6), abs=1e-12)
    assert alloc.grand_value == 4.0


def test_exact_null_game():
    alloc = shapley_exact(CoalitionGame(4, lambda s: 0.0))
    assert alloc.payoffs == (0.0, 0.0, 0.0, 0.0)


def test_exact_additive_game():
    alloc = shapley_exact(additive_game(4))
    assert alloc.payoffs == pytest.approx((1.0,) * 4, abs=1e-12)
    assert alloc.grand_value == 4.0


def test_exact_cap_error_names_sampler():
    with pytest.raises(RosterTooLargeError, match="shapley_sample"):
        shapley_exact(additive_game(6), cap=5)


def test_exact_matches_permutation_average_on_random_games():
    rng = np.random.default_rng(101)
    for n in range(1, 9):
        for _ in range(3):
            game = random_table_game(rng, n)
            subset = shapley_exact(game)
            perm = shapley_permutation_average(game)
            for a, b in zip(subset.payoffs, perm.payoffs):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_permutation_average_cap():
    with pytest.raises(RosterTooLargeError):
        shapley_permutation_average(additive_game(12))


def test_exact_efficiency_on_random_games():
    rng = np.random.default_rng(7)
    for n in (2, 5, 8):
        game = random_table_game(rng, n)
        alloc = shapley_exact(game)
        assert alloc.total() == pytest.approx(alloc.grand_value, abs=1e-9)


# --- anonymous closed form ----------------------------------------------------


@pytest.mark.parametrize("f,n,expected", [
    (lambda s: s, 2, (1.0, 0.5)),
    (lambda s: s ** 2, 3, (3.5, 11 / 6)),
    (lambda s: 4.25, 5, (4.25, 0.0)),
])
def test_anonymous_known_values(f, n, expected):
    founder, member = shapley_anonymous(f, n)
    assert founder == pytest.approx(expected[0], abs=1e-12)
    assert member == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize("f", [
    lambda s: s, lambda s: s ** 2, lambda s: s ** 3, lambda s: 3.0,
])
@pytest.mark.parametrize("n", range(1, 11))
def test_anonymous_agrees_with_exact(f, n):
    founder, member = shapley_anonymous(f, n)
    alloc = shapley_exact(anonymous_game(f, n))
    assert alloc.payoffs[0] == pytest.approx(founder, abs=1e-9)
    for payoff in alloc.payoffs[1:]:
        assert payoff == pytest.approx(member, abs=1e-9)


def test_anonymous_degenerate_crowd():
    with pytest.raises(DegenerateCrowdError):
        shapley_anonymous(lambda s: s, 0)
    with pytest.raises(ValueError):
        shapley_anonymous(lambda s: s, -1)
    with pytest.raises(ValueError):
        shapley_anonymous(lambda s: float("nan"), 3)


# --- sampling estimator ---------------------------------------------------------


def test_sample_additive_is_exact_with_zero_stderr():
    alloc = shapley_sample(additive_game(6), n_permutations=50, seed=3)
    assert alloc.method is Method.SAMPLED
    assert alloc.payoffs == (1.0,) * 6
    assert alloc.stderr == (0.0,) * 6


def test_sample_deterministic_for_seed():
    game = single_game(SingleCssParams(n=6, k=2, rho=1.0))
    a = shapley_sample(game, 200, seed=42)
    b = shapley_sample(game, 200, seed=42)
    assert a == b
    c = shapley_sample(game, 200, seed=43)
    assert c != a


def test_sample_within_three_stderr_of_closed_form():
    params = SingleCssParams(n=10, k=2, rho=1.0)
    founder, member = shapley_anonymous(lambda s: s ** 2, 10)
    alloc = shapley_sample(single_game(params), 20_000, seed=11)
    assert abs(alloc.payoffs[0] - founder) <= 3 * alloc.stderr[0] + 1e-12
    for payoff, err in zip(alloc.payoffs[1:], alloc.stderr[1:]):
        assert abs(payoff - member) <= 3 * err + 1e-12


def test_sample_error_shrinks_with_more_permutations():
    params = SingleCssParams(n=10, k=2, rho=1.0)
    game = single_game(params)
    founder, member = shapley_anonymous(lambda s: s ** 2, 10)
    truth = (founder,) + (member,) * 10

    def max_err(n_perms):
        alloc = shapley_sample(game, n_perms, seed=5)
        return max(abs(p - t) for p, t in zip(alloc.payoffs, truth))

    assert max_err(10_000) < max_err(100)


def test_sample_rejects_zero_permutations():
    with pytest.raises(ValueError):
        shapley_sample(additive_game(3), 0)


# --- batched sampler against the per-permutation loop ----------------------------


def loop_shapley_sample(value, n, n_permutations, seed=0):
    """The sampler as one call of a scalar `value` per player per join order (the oracle).

    `value` is a model's reference function, not a bundled game's `value`,
    which is itself a call of the game's table.
    """
    rng = np.random.default_rng(seed)
    sums = [0.0] * n
    sumsq = [0.0] * n
    shift = {}  # each player's marginal in the first join order
    empty = value(EMPTY_COALITION)
    for _ in range(n_permutations):
        mask = 0
        prev = empty
        for p in rng.permutation(n).tolist():
            mask |= 1 << p
            cur = value(Coalition(mask))
            gain = cur - prev
            sums[p] += gain
            deviation = gain - shift.setdefault(p, gain)
            sumsq[p] += deviation * deviation
            prev = cur
    payoffs = tuple(s / n_permutations for s in sums)
    if n_permutations == 1:
        stderr = (0.0,) * n
    else:
        stderr = tuple(
            math.sqrt(max(0.0, (sq - n_permutations * (m - shift[p]) * (m - shift[p]))
                          / (n_permutations - 1)) / n_permutations)
            for p, (sq, m) in enumerate(zip(sumsq, payoffs)))
    return Allocation(payoffs, value(Coalition((1 << n) - 1)), Method.SAMPLED, stderr)


def sample_block(game):
    return core._SAMPLE_BLOCK_MASKS // game.n_players


GRAPH = OligopolyGraph.from_spec(
    [(f"v{i}", size) for i, size in enumerate((3, 5, 2, 4, 1, 6, 2, 3, 4, 2, 5, 1))],
    [("v0", "v1"), ("v1", "v2"), ("v0", "v3"), ("v4", "v9"), ("v8", "v11"),
     ("v5", "v10"), ("v2", "v7")], rho=1.25)
FINE_GRAPH = OligopolyGraph.from_spec(
    [("a", 9), ("b", 7), ("c", 8)], [("a", "b"), ("b", "c")], rho=0.75)
CENSUS = DiskCensus(20, {frozenset({i, i % 20 + 1}): 3 * i % 7 + 1 for i in range(1, 21)}
                    | {frozenset({1, 5, 9}): 4, frozenset({12}): 9})

SINGLE = SingleCssParams(n=30, k=2, rho=1.5)
PROFIT = ProfitCssParams(n=25, k=3, rho=1.0, founder_cost=2.0, member_cost=0.3)
UNITS = (0.3, 1.7, 2.2, 0.9, 1.1, 0.1, 3.3, 0.7)
WEIGHTED = WeightedCssParams(tuple(0.2 + 0.37 * i % 2.9 for i in range(30)),
                             alpha=1.3, rho=1.1, k=2)


def mass_reference(s):
    if not founder_present(s):
        return 0.0
    mass = math.fsum(UNITS[p - 1] for p in s.members() if p)
    return 1.5 * mass * mass


def fine_pair(graph):
    game, roster = fine_game(graph)
    return game, functools.partial(value_fine, graph, roster)


# each entry builds a game and its model's reference scalar function
EXACT_SAMPLER_GAMES = {
    "single": lambda: (single_game(SINGLE), functools.partial(value_single, SINGLE)),
    "profit": lambda: (profit_game(PROFIT), functools.partial(value_profit, PROFIT)),
    "oligopoly_coarse": lambda: (coarse_game(GRAPH), functools.partial(value_coarse, GRAPH)),
    "oligopoly_fine": lambda: fine_pair(FINE_GRAPH),
    "mass_8_units": lambda: (mass_game(UNITS, lambda m: 1.5 * m * m, "mass",
                                       crowd_players(8), founder=True), mass_reference),
}

FLOAT_SAMPLER_GAMES = {
    "weighted": lambda: (weighted_game(WEIGHTED), functools.partial(value_weighted, WEIGHTED)),
    "geo": lambda: (geo_game(CENSUS, 0.8, "met"),
                    lambda s: nu_met(CENSUS, [p + 1 for p in s.members()], 0.8)),
    "geo_founder": lambda: (geo_founder_game(CENSUS, 1.3, "met"),
                            functools.partial(geo_founder_value, CENSUS, 1.3, "met")),
}


@pytest.mark.parametrize("model", sorted(EXACT_SAMPLER_GAMES))
def test_batched_sampler_is_bit_identical_to_the_loop(model):
    game, reference = EXACT_SAMPLER_GAMES[model]()
    assert (shapley_sample(game, 700, seed=11)
            == loop_shapley_sample(reference, game.n_players, 700, seed=11))


@pytest.mark.parametrize("model", sorted(FLOAT_SAMPLER_GAMES))
def test_batched_sampler_matches_the_loop_on_float_masses(model):
    game, reference = FLOAT_SAMPLER_GAMES[model]()
    assert game.n_players > 8
    batched = shapley_sample(game, 300, seed=11)
    looped = loop_shapley_sample(reference, game.n_players, 300, seed=11)
    assert batched.grand_value == looped.grand_value
    np.testing.assert_allclose(batched.payoffs, looped.payoffs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(batched.stderr, looped.stderr, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_batched_sampler_block_edges(offset):
    params = SingleCssParams(n=30, k=2, rho=1.0)
    game = single_game(params)
    n_permutations = 1 if offset is None else sample_block(game) + offset
    assert (shapley_sample(game, n_permutations, seed=4)
            == loop_shapley_sample(functools.partial(value_single, params), game.n_players,
                                   n_permutations, seed=4))


def test_batched_sampler_covers_bit_63():
    game = anonymous_game(lambda s: float(s * s + 1), 63)
    assert game.n_players == 64
    n_permutations = sample_block(game) + 2

    def reference(s):
        return float(crowd_count(s) ** 2 + 1) if founder_present(s) else 0.0

    assert (shapley_sample(game, n_permutations, seed=6)
            == loop_shapley_sample(reference, 64, n_permutations, seed=6))


def test_scalar_only_game_samples_like_its_table():
    game, reference = fine_pair(FINE_GRAPH)
    scalar_only = CoalitionGame(game.n_players, reference)
    assert shapley_sample(scalar_only, 300, seed=2) == shapley_sample(game, 300, seed=2)


def test_replaced_function_is_the_one_computed_with():
    # dataclasses.replace passes the derived function back in; it must not
    # outlive the function it was derived from
    scalar = CoalitionGame(3, lambda s: float(s.size))
    zero = dataclasses.replace(scalar, value=lambda s: 0.0)
    assert shapley_exact(zero).payoffs == (0.0, 0.0, 0.0)
    assert shapley_sample(zero, 10).payoffs == (0.0, 0.0, 0.0)
    assert check_axioms(zero, shapley_exact(zero)).null_players == (0, 1, 2)
    assert not is_supermodular(dataclasses.replace(scalar, value=lambda s: math.sqrt(s.size)))
    batch = CoalitionGame(3, table=lambda masks: np.bitwise_count(masks).astype(float))
    doubled = dataclasses.replace(batch, table=lambda masks: 2.0 * np.bitwise_count(masks))
    assert doubled.value(Coalition(0b111)) == 6.0
    assert marginal_value(doubled, Coalition(0b1), 1) == 2.0
    with pytest.raises(ValueError, match="outside the roster"):
        doubled.value(Coalition(0b1000))
    # a table taken from another game keeps computing that game's values
    assert CoalitionGame(3, table=scalar.table).value(Coalition(0b11)) == 2.0


@pytest.mark.parametrize("n, rows", [(1, 5), (7, 1), (7, 50), (64, 3)])
def test_permuted_block_matches_successive_permutations(n, rows):
    # the batched sampler draws a block with `permuted`; seeded output relies on
    # it giving the same orders and generator state as one `permutation` per row
    block_rng, loop_rng = np.random.default_rng(21), np.random.default_rng(21)
    block = block_rng.permuted(np.tile(np.arange(n, dtype=np.uint64), (rows, 1)), axis=1)
    loop = np.array([loop_rng.permutation(n) for _ in range(rows)])
    np.testing.assert_array_equal(block, loop)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_table_game_sampler_makes_no_value_calls():
    game = single_game(SingleCssParams(n=30, k=2, rho=1.0))
    calls = []

    def value(s, scalar=game.value):
        calls.append(int(s))
        return scalar(s)

    game = dataclasses.replace(game, value=value)
    shapley_sample(game, 3 * sample_block(game) + 5, seed=1)
    assert calls == []


def test_sampler_stderr_does_not_cancel_on_an_additive_game():
    # a geo `lin` game of singleton disks is additive: every marginal is
    # constant, so the true stderr is 0
    census = DiskCensus(48, {frozenset({i}): 7 * i % 23 + 1 for i in range(1, 49)})
    alloc = shapley_sample(geo_game(census, 0.37, "lin"), 500, seed=11)
    assert max(alloc.stderr) <= 1e-12 * max(abs(p) for p in alloc.payoffs)


def test_sampler_memory_is_bounded_by_its_block():
    # unblocked, the 100,000 x 64 mask array alone would take 51 MB
    game = anonymous_game(lambda s: float(s), 63)
    tracemalloc.start()
    try:
        alloc = shapley_sample(game, 100_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert alloc.total() == pytest.approx(63.0, rel=1e-9)


# --- axiom checks ---------------------------------------------------------------


def test_axioms_pass_on_exact_founder_game():
    game = single_game(SingleCssParams(n=3, k=2, rho=1.0))
    report = check_axioms(game, shapley_exact(game))
    assert report.exhaustive
    assert report.all_ok
    # all crowd members are mutually interchangeable
    assert report.symmetric_pairs == ((1, 2), (1, 3), (2, 3))


def test_axioms_catch_scaled_payoffs():
    game = single_game(SingleCssParams(n=3, k=2, rho=1.0))
    alloc = shapley_exact(game)
    doubled = Allocation(tuple(2 * p for p in alloc.payoffs),
                         alloc.grand_value, Method.EXACT)
    report = check_axioms(game, doubled)
    assert not report.efficiency_ok
    assert not report.all_ok


def test_axioms_null_player_gets_zero():
    # a zero-weight member adds nothing to any coalition
    game = weighted_game(WeightedCssParams(weights=(1.0, 2.0, 0.0)))
    report = check_axioms(game, shapley_exact(game))
    assert report.null_players == (3,)
    assert report.null_ok
    assert report.all_ok


def test_axioms_sampled_gets_stderr_slack():
    game = single_game(SingleCssParams(n=5, k=2, rho=1.0))
    report = check_axioms(game, shapley_sample(game, 4_000, seed=2))
    assert report.efficiency_ok
    assert report.symmetry_ok


def test_axioms_above_detect_cap_is_not_exhaustive():
    game = additive_game(6)
    report = check_axioms(game, shapley_exact(game), detect_cap=4)
    assert not report.exhaustive
    assert report.efficiency_ok
    assert report.null_players == ()


# --- linearity -------------------------------------------------------------------


def test_linearity_of_two_founder_games():
    a = single_game(SingleCssParams(n=4, k=1, rho=1.0))
    b = single_game(SingleCssParams(n=4, k=2, rho=1.0))
    assert check_linearity(a, b).ok


def test_linearity_with_zero_game():
    a = single_game(SingleCssParams(n=4, k=2, rho=2.5))
    zero = CoalitionGame(5, lambda s: 0.0)
    report = check_linearity(a, zero)
    assert report.ok
    assert shapley_exact(add_games(a, zero)).payoffs == shapley_exact(a).payoffs


def test_linearity_roster_mismatch():
    a = additive_game(3)
    b = additive_game(4)
    with pytest.raises(ValueError, match="roster mismatch"):
        check_linearity(a, b)


# --- supermodularity ---------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(1, 5), (2, 5), (2, 8), (3, 4)])
def test_founder_power_games_are_supermodular(k, n):
    assert is_supermodular(single_game(SingleCssParams(n=n, k=k, rho=1.0)))


def test_concave_game_is_not_supermodular():
    game = CoalitionGame(4, lambda s: math.sqrt(s.size))
    assert not is_supermodular(game)


def test_supermodular_cap_error():
    with pytest.raises(RosterTooLargeError):
        is_supermodular(additive_game(6), cap=5)


def test_value_table_matches_direct_evaluation():
    params = SingleCssParams(n=3, k=2, rho=2.0)
    table = coalition_value_table(single_game(params))
    for mask in range(1 << 4):
        assert table[mask] == value_single(params, Coalition(mask))
