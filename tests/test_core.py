"""Tests for the coalition engine, estimators, and axiom checks."""

import dataclasses
import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairshare import core
from fairshare.core import (
    Allocation,
    CoalitionGame,
    DEFAULT_STRUCTURE_CAP,
    DegenerateCrowdError,
    EXACT_BYTES_PER_BLOCK,
    EXACT_BYTES_PER_COALITION,
    PlayerId,
    PlayerTag,
    RosterTooLargeError,
    anonymous_game,
    check_axioms,
    coalition_value_table,
    crowd_players,
    mass_game,
    shapley_exact,
    shapley_sample,
    weight_sum_table,
)
from fairshare.geo import DiskCensus, GeoParams, geo_founder_game, geo_game
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    profit_game,
    single_game,
    weighted_game,
)
from fairshare.oligopoly import OligopolyGraph, coarse_game, fine_game
from reference import (
    EMPTY_COALITION,
    Coalition,
    add_games,
    axiom_structure,
    check_linearity,
    crowd_count,
    exact_classes_whole,
    founder_present,
    geo_founder_value,
    marginal_value,
    nu_met,
    scalar_game,
    shapley_anonymous,
    shapley_permutation_average,
    supermodular_whole,
    value_coarse,
    value_fine,
    value_profit,
    value_single,
    value_weighted,
)


def head_count(masks):
    return np.bitwise_count(masks).astype(np.float64)


def nothing(masks):
    return np.zeros(masks.shape)


def additive_game(n):
    return CoalitionGame(n, head_count, "additive")


def table_game(table, n):
    """Game backed by an explicit value table indexed by coalition mask."""
    return CoalitionGame(n, lambda masks: table[masks], "table")


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
        CoalitionGame(0, nothing)
    with pytest.raises(ValueError):
        CoalitionGame(65, nothing)
    with pytest.raises(ValueError, match="roster length"):
        CoalitionGame(2, nothing, players=(PlayerId(PlayerTag.CROWD, "a"),))
    with pytest.raises(TypeError, match="value"):
        CoalitionGame(3)
    game = CoalitionGame(3, nothing)
    assert [(p.tag, p.name) for p in game.players] == [(PlayerTag.CROWD, str(i))
                                                       for i in range(3)]
    assert game.grand_coalition == 0b111


def test_allocation_stderr_rules():
    for stderr in ((), (0.0,), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="one stderr per player"):
            Allocation((1.0, 1.0), 2.0, stderr)
    assert Allocation((1.0, 1.0), 2.0, (0.1, 0.2)).stderr == (0.1, 0.2)
    alloc = Allocation((2.0, 2.0), 4.0)
    assert alloc.stderr is None
    assert alloc.shares() == (0.5, 0.5)
    assert Allocation((0.0,), 0.0).shares() is None


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
    assert alloc.stderr is None
    assert alloc.payoffs == pytest.approx((5 / 3, 7 / 6, 7 / 6), abs=1e-12)
    assert alloc.grand_value == 4.0


def test_exact_null_game():
    alloc = shapley_exact(CoalitionGame(4, nothing))
    assert alloc.payoffs == (0.0, 0.0, 0.0, 0.0)


def test_exact_additive_game():
    alloc = shapley_exact(additive_game(4))
    assert alloc.payoffs == pytest.approx((1.0,) * 4, abs=1e-12)
    assert alloc.grand_value == 4.0


def test_exact_cap_error_names_sampler():
    with pytest.raises(RosterTooLargeError, match="shapley_sample"):
        coalition_value_table(additive_game(6), cap=5)


def test_sampler_refuses_more_masks_than_its_cap_before_drawing(monkeypatch):
    calls = []

    def head_count(masks):
        calls.append(masks.size)
        return np.bitwise_count(masks).astype(float)

    game = CoalitionGame(4, head_count, "heads")
    with pytest.raises(RosterTooLargeError, match="4000000000000 coalition values"):
        shapley_sample(game, 10 ** 12)
    assert calls == []
    monkeypatch.setattr(core, "MAX_SAMPLE_MASKS", 4 * 25)
    assert shapley_sample(game, 25).payoffs == (1.0,) * 4
    with pytest.raises(RosterTooLargeError, match="above the cap of 100"):
        shapley_sample(game, 26)


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


def ring_census(m):
    """Each agent covers users of its own and shares some with the next."""
    counts = {frozenset({i}): 3 for i in range(1, m + 1)}
    counts.update({frozenset({i, i % m + 1}): 2 for i in range(1, m + 1)})
    return DiskCensus(m, counts)


def exact_games(n):
    """A builder of one game per model with n players, n a multiple of 4."""
    extra = (n - 16) // 4
    return {
        "single": lambda: single_game(SingleCssParams(n=n - 1, k=2, rho=1.0)),
        "profit": lambda: profit_game(ProfitCssParams(n - 1, 2, 1.0, 0.4, 0.1)),
        "weighted": lambda: weighted_game(
            WeightedCssParams(tuple(0.5 + i / 10 for i in range(n - 1)))),
        "oligopoly_coarse": lambda: coarse_game(OligopolyGraph.from_spec(
            [(f"s{v}", v % 5 + 1) for v in range(n)],
            [(f"s{v}", f"s{v + 1}") for v in range(n - 1)])),
        "oligopoly_fine": lambda: fine_game(OligopolyGraph.from_spec(
            [("a", 4 + extra), ("b", 3 + extra), ("c", 3 + extra), ("d", 2 + extra)],
            [("a", "b"), ("b", "c"), ("c", "d")])),
        "geo": lambda: geo_game(GeoParams(ring_census(n), rho=0.8, variant="met")),
        "geo_founder": lambda: geo_founder_game(
            GeoParams(ring_census(n - 1), rho=1.3, variant="met")),
    }


SIXTEEN_PLAYER_GAMES = exact_games(16)


def exact_peak_bytes(game):
    tracemalloc.start()
    try:
        shapley_exact(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def exact_guard_bytes(n):
    # the need the cap check computes before anything is allocated
    return 2 ** n * EXACT_BYTES_PER_COALITION + max(6, n - 13) * EXACT_BYTES_PER_BLOCK


@pytest.mark.parametrize("model", sorted(SIXTEEN_PLAYER_GAMES))
def test_exact_memory_stays_within_the_guard(model):
    game = SIXTEEN_PLAYER_GAMES[model]()
    assert game.n_players == 16
    assert exact_peak_bytes(game) <= exact_guard_bytes(16)


@pytest.mark.parametrize("model", sorted(SIXTEEN_PLAYER_GAMES))
def test_exact_memory_at_twenty_players_stays_within_the_guard(model):
    # here the per-coalition term is most of the guard: 8 MB of 9.75 MB
    game = exact_games(20)[model]()
    assert game.n_players == 20
    assert exact_peak_bytes(game) <= exact_guard_bytes(20)


def test_exact_memory_of_one_class_of_twenty_stays_within_the_guard():
    # the README's quadratic head-count game: players 0 to 19 form one class,
    # proved by a swap check and a cycle check over the whole table, whose
    # comparisons must stay blocked
    game = CoalitionGame(20, lambda masks: head_count(masks) ** 2, "quadratic head count")
    assert exact_peak_bytes(game) <= exact_guard_bytes(20)
    assert core.exact_classes(coalition_value_table(game)) == (0,) * 20


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


# --- batch tables at bit 63 -------------------------------------------------------


def masks_with_bit_63(seed, size=500):
    """Random 64-bit masks with bit 63 set, half of them with bit 0 clear."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << 63, size, dtype=np.uint64) | np.uint64(1 << 63)
    masks[::2] &= ~np.uint64(1)
    masks[1::2] |= np.uint64(1)
    return masks


def byte_wise_sum(weights, mask, first_bit):
    """0.0 plus each byte's `math.fsum` in byte order: `weight_sum_table`'s sum."""
    total = 0.0
    for lo in range(0, len(weights), 8):
        total += math.fsum(w for b, w in enumerate(weights[lo:lo + 8], start=first_bit + lo)
                           if (mask >> b) & 1)
    return total


def test_weight_sum_table_covers_bit_63():
    weights = [0.1 * (i + 1) * (-1) ** i for i in range(64)]
    masks = masks_with_bit_63(1)
    assert weight_sum_table(weights)(masks).tolist() == [
        byte_wise_sum(weights, mask, 0) for mask in masks.tolist()]


def test_founder_mass_table_covers_bit_63():
    units = [0.3 + 0.17 * i for i in range(63)]
    game = mass_game(units, lambda m: 1.5 * m * m, "mass", crowd_players(63), founder=True)
    assert game.n_players == 64
    masks = masks_with_bit_63(2)
    expected = [1.5 * m * m if mask & 1 else 0.0
                for mask, m in ((mask, byte_wise_sum(units, mask, 1))
                                for mask in masks.tolist())]
    assert game.evaluate(masks).tolist() == expected


def test_founder_gate_selects_and_keeps_the_bits_of_every_value():
    # masses 0..15 are exact; three of them map to inf, nan and -0.0
    special = {1.0: np.inf, 2.0: np.nan, 3.0: -0.0}

    def worth(mass):
        return np.array([special.get(m, 2.5 * m) for m in mass.tolist()])

    game = mass_game([1.0, 2.0, 4.0, 8.0], worth, "gated", crowd_players(4), founder=True)
    seen = []

    def value(masks, batch=game.value):
        values = batch(masks)
        seen.append((masks, values.copy()))
        return values

    checked = dataclasses.replace(game, value=value)
    coalition_value_table(checked)
    shapley_sample(checked, 30, seed=3)
    assert len(seen) == 3  # the table, then the sampler's two ends and one block
    for masks, values in seen:
        founder = (masks & np.uint64(1)) == 1
        mass = (masks >> np.uint64(1)).astype(np.float64)  # the units are powers of 2
        expected = np.where(founder, worth(mass), 0.0)
        assert np.array_equal(values.view(np.int64), expected.view(np.int64))
    bits = {b for masks, values in seen
            for b in values[(masks & np.uint64(1)) == 1].view(np.int64).tolist()}
    assert {np.float64(v).view(np.int64) for v in special.values()} <= bits


def test_anonymous_table_covers_bit_63():
    game = anonymous_game(lambda s: 0.5 * s * s - 3.0, 63)
    masks = masks_with_bit_63(3)
    assert game.evaluate(masks).tolist() == [
        0.5 * c * c - 3.0 if mask & 1 else 0.0
        for mask, c in ((mask, (mask >> 1).bit_count()) for mask in masks.tolist())]


def test_anonymous_levels_are_computed_once_on_first_use():
    calls = []

    def crowd_value(s):
        calls.append(s)
        return float(s)

    game = anonymous_game(crowd_value, 40)
    assert calls == []
    masks = np.random.default_rng(4).integers(0, 1 << 41, 200, dtype=np.uint64)
    for block in np.split(masks, 4):
        game.evaluate(block)
    shapley_sample(game, 20, seed=1)
    assert sorted(calls) == list(range(41))


# --- weight-sum tables ----------------------------------------------------------


def subset_fsums(chunk):
    """Each subset's `math.fsum`, indexed by the mask of its members: the oracle
    of `core._subset_sums`."""
    return np.array([math.fsum(w for b, w in enumerate(chunk) if (m >> b) & 1)
                     for m in range(1 << len(chunk))])


def bits(values):
    """Bit patterns of float64 values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


BIG = sys.float_info.max
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.5e-310, BIG, -BIG,
                     1e308, -1e308, 1 / 3, 0.1, 1 / 7]),
    st.floats(allow_nan=False, allow_infinity=False),
    # far-apart exponents, subnormals among them
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(EXTREME_FLOATS, min_size=1, max_size=8))
def test_subset_sums_are_the_fsum_of_every_subset(chunk):
    try:
        expected = subset_fsums(chunk)
    except OverflowError:  # a subset's partial sums leave the float range
        assume(False)
    assert bits(core._subset_sums(chunk)) == bits(expected)


def test_subset_sums_of_extreme_weights_are_their_fsums():
    chunk = [5e-324, 1e308, -1e308, 1 / 3, 0.1, -0.0, 2.0 ** -1022, 7.0]
    sums = core._subset_sums(chunk)
    assert sums.shape == (256,)
    assert bits(sums) == bits(subset_fsums(chunk))


def mass_table_games():
    """A builder per float-weighted game, and the length of each byte of its units."""
    weights = WeightedCssParams(tuple(0.2 + i / 7 for i in range(30)), alpha=1.5)
    return {
        "weighted": (lambda: weighted_game(weights), [8, 8, 8, 6]),
        "geo": (lambda: geo_game(GeoParams(ring_census(20), rho=0.8, variant="met")),
                [8, 8, 4]),
        "geo_founder": (lambda: geo_founder_game(
            GeoParams(ring_census(20), rho=1.3, variant="lin")), [8, 8, 4]),
        "mass_game": (lambda: mass_game([0.3 * i for i in range(9)], lambda m: m * m, "mass",
                                        (), founder=False), [8, 1]),
    }


@pytest.mark.parametrize("model", sorted(mass_table_games()))
def test_mass_tables_tabulate_each_byte_once_on_first_use(model, monkeypatch):
    tabulated = []
    subset_sums = core._subset_sums

    def counted(chunk):
        tabulated.append(len(chunk))
        return subset_sums(chunk)

    monkeypatch.setattr(core, "_subset_sums", counted)
    build, byte_lengths = mass_table_games()[model]
    game = build()
    assert tabulated == []  # a game built and never evaluated tabulates nothing
    masks = np.random.default_rng(6).integers(0, 1 << game.n_players, 300, dtype=np.uint64)
    game.evaluate(masks)
    assert tabulated == byte_lengths
    game.evaluate(masks[::-1])
    shapley_sample(game, 10, seed=2)
    assert tabulated == byte_lengths


# --- sampling estimator ---------------------------------------------------------


def test_sample_additive_is_exact_with_zero_stderr():
    alloc = shapley_sample(additive_game(6), n_permutations=50, seed=3)
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
    return Allocation(payoffs, value(Coalition((1 << n) - 1)), stderr)


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
    return fine_game(graph), functools.partial(value_fine, graph)


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
    "geo": lambda: (geo_game(GeoParams(CENSUS, rho=0.8, variant="met")),
                    lambda s: nu_met(CENSUS, [p + 1 for p in s.members()], 0.8)),
    "geo_founder": lambda: (geo_founder_game(GeoParams(CENSUS, rho=1.3, variant="met")),
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
    scalar_only = scalar_game(game.n_players, reference)
    assert shapley_sample(scalar_only, 300, seed=2) == shapley_sample(game, 300, seed=2)


def test_a_game_keeps_its_functions_as_given():
    batch = single_game(SingleCssParams(n=4, k=2, rho=1.0))
    assert [f.name for f in dataclasses.fields(CoalitionGame)] == [
        "n_players", "value", "label", "players"]
    assert callable(batch.value)
    counts = CoalitionGame(3, np.bitwise_count)
    masks = np.arange(8, dtype=np.uint64)
    # the integer counts are returned as float64
    assert counts.evaluate(masks).dtype == np.float64
    assert counts.evaluate(masks).tolist() == [float(int(m).bit_count()) for m in masks]
    # value is called once, with the mask array itself
    seen = []
    CoalitionGame(3, lambda masks: seen.append(masks) or nothing(masks)).evaluate(masks)
    assert len(seen) == 1 and seen[0] is masks


def test_replaced_function_is_the_one_computed_with():
    # the function is kept as given, so dataclasses.replace of it replaces
    # what the game computes
    batch = CoalitionGame(3, head_count)
    zero = dataclasses.replace(batch, value=nothing)
    assert shapley_exact(zero).payoffs == (0.0, 0.0, 0.0)
    assert shapley_sample(zero, 10).payoffs == (0.0, 0.0, 0.0)
    assert check_axioms(shapley_exact(zero),
                        values=coalition_value_table(zero)).null_players == (0, 1, 2)
    doubled = dataclasses.replace(batch, value=lambda masks: 2.0 * np.bitwise_count(masks))
    assert doubled.evaluate(np.array([0b111], dtype=np.uint64)).tolist() == [6.0]
    assert marginal_value(doubled, Coalition(0b1), 1) == 2.0
    with pytest.raises(ValueError, match="outside the roster"):
        marginal_value(doubled, Coalition(0b1000), 0)
    assert shapley_exact(doubled).payoffs == (2.0, 2.0, 2.0)
    assert shapley_sample(doubled, 10).payoffs == (2.0, 2.0, 2.0)
    assert check_axioms(shapley_exact(doubled),
                        values=coalition_value_table(doubled)).symmetric_pairs == (
        (0, 1), (0, 2), (1, 2))
    squared = dataclasses.replace(batch, value=lambda masks: np.bitwise_count(masks) ** 2.0)
    assert supermodular_whole(coalition_value_table(squared))
    assert not supermodular_whole(coalition_value_table(
        dataclasses.replace(squared, value=lambda masks: np.sqrt(np.bitwise_count(masks)))))
    # another game's evaluate serves as a value function
    borrowed = CoalitionGame(3, squared.evaluate)
    assert borrowed.evaluate(np.array([0b11], dtype=np.uint64)).tolist() == [4.0]
    assert shapley_exact(borrowed) == shapley_exact(squared)
    with pytest.raises(TypeError, match="table"):
        CoalitionGame(3, table=head_count)


@pytest.mark.parametrize("n, rows", [(1, 5), (7, 1), (7, 50), (64, 3)])
def test_permuted_block_matches_successive_permutations(n, rows):
    # the batched sampler draws a block with `permuted`; seeded output relies on
    # it giving the same orders and generator state as one `permutation` per row
    block_rng, loop_rng = np.random.default_rng(21), np.random.default_rng(21)
    block = block_rng.permuted(np.tile(np.arange(n, dtype=np.uint64), (rows, 1)), axis=1)
    loop = np.array([loop_rng.permutation(n) for _ in range(rows)])
    np.testing.assert_array_equal(block, loop)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_bincount_adds_each_bin_in_input_order():
    # the sampler sums each player's marginals with `np.bincount`; seeded output
    # relies on it adding a bin's weights one at a time, in input order
    weights = np.array([1e16, 1.0, -1e16, 1.0])
    sequential = ((1e16 + 1.0) - 1e16) + 1.0
    assert sequential != (1e16 + 1.0) + (-1e16 + 1.0)  # what a pairwise sum gives
    assert np.bincount(np.zeros(4, dtype=np.intp), weights).tolist() == [sequential]
    # interleaved bins of weights whose sums depend on the order of addition
    rng = np.random.default_rng(8)
    weights = rng.normal(size=600) * 2.0 ** rng.integers(-40, 40, 600)
    bins = np.tile(np.arange(3, dtype=np.intp), 200)
    expected = [functools.reduce(lambda a, b: a + b, weights[b::3].tolist(), 0.0)
                for b in range(3)]
    assert np.bincount(bins, weights, minlength=3).tolist() == expected
    assert [math.fsum(weights[b::3]) for b in range(3)] != expected


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_sampler_is_bit_identical_to_the_loop_on_any_table(data):
    n = data.draw(st.integers(1, 9), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="table seed"))
    size = 1 << n
    values = rng.normal(size=size) * 2.0 ** rng.integers(-30, 30, size)
    values[rng.random(size) < 0.2] = 0.0
    values[rng.random(size) < 0.1] = -0.0
    game = CoalitionGame(n, lambda masks: values[masks])
    n_permutations = data.draw(st.integers(1, 2 * sample_block(game) + 3), label="permutations")
    seed = data.draw(st.integers(0, 2 ** 63 - 1), label="seed")
    assert (shapley_sample(game, n_permutations, seed)
            == loop_shapley_sample(lambda s: float(values[s]), n, n_permutations, seed))


def test_sampler_calls_value_once_per_block_with_a_mask_array():
    game = single_game(SingleCssParams(n=30, k=2, rho=1.0))
    calls = []

    def value(masks, batch=game.value):
        calls.append(masks)
        return batch(masks)

    blocks = 3
    counted = dataclasses.replace(game, value=value)
    allocation = shapley_sample(counted, blocks * sample_block(game) + 5, seed=1)
    assert allocation == shapley_sample(game, blocks * sample_block(game) + 5, seed=1)
    # the empty and the grand coalition, then one call per block of join orders
    assert len(calls) == 1 + blocks + 1
    assert all(isinstance(m, np.ndarray) and m.dtype == np.uint64 and m.ndim == 1
               for m in calls)


def test_sampler_refuses_a_value_of_the_wrong_shape_by_label():
    # one value per mask: the sampler's first call, its two ends, gets one
    game = CoalitionGame(5, lambda masks: np.zeros(1), "one short")
    with pytest.raises(ValueError, match=r"value of one short returned shape \(1,\) "
                                         r"for masks of shape \(2,\)"):
        shapley_sample(game, 10)
    # two values whatever the call: right for the two ends, wrong for the
    # block of 10 join orders of 5 players
    game = CoalitionGame(5, lambda masks: np.zeros(2), "pair")
    with pytest.raises(ValueError, match=r"value of pair returned shape \(2,\) "
                                         r"for masks of shape \(50,\)"):
        shapley_sample(game, 10)
    # a column of values, one per mask
    game = CoalitionGame(5, lambda masks: head_count(masks)[:, None], "column")
    with pytest.raises(ValueError, match=r"value of column returned shape \(2, 1\)"):
        shapley_sample(game, 10)


def test_sampler_stderr_does_not_cancel_on_an_additive_game():
    # a geo `lin` game of singleton disks is additive: every marginal is
    # constant, so the true stderr is 0
    census = DiskCensus(48, {frozenset({i}): 7 * i % 23 + 1 for i in range(1, 49)})
    alloc = shapley_sample(geo_game(GeoParams(census, rho=0.37, variant="lin")), 500, seed=11)
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


def test_sampler_block_holds_few_block_sized_arrays():
    # 2,000 join orders of 4 players are one block of 8,000 masks; the
    # sampler's arrays, and the table's temporaries, fit in 5 of its arrays
    game = anonymous_game(lambda s: float(s * s), 3)
    assert sample_block(game) >= 2_000
    shapley_sample(game, 2_000, seed=7)
    tracemalloc.start()
    try:
        shapley_sample(game, 2_000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * core._SAMPLE_BLOCK_MASKS


# --- axiom checks ---------------------------------------------------------------


def test_axioms_pass_on_exact_founder_game():
    game = single_game(SingleCssParams(n=3, k=2, rho=1.0))
    report = check_axioms(shapley_exact(game), values=coalition_value_table(game))
    assert report.exhaustive
    assert report.all_ok
    # all crowd members are mutually interchangeable
    assert report.symmetric_pairs == ((1, 2), (1, 3), (2, 3))


def test_axioms_catch_scaled_payoffs():
    game = single_game(SingleCssParams(n=3, k=2, rho=1.0))
    alloc = shapley_exact(game)
    doubled = Allocation(tuple(2 * p for p in alloc.payoffs), alloc.grand_value)
    report = check_axioms(doubled)
    assert not report.efficiency_ok
    assert not report.all_ok


def test_axioms_null_player_gets_zero():
    # a zero-weight member adds nothing to any coalition
    game = weighted_game(WeightedCssParams(weights=(1.0, 2.0, 0.0)))
    report = check_axioms(shapley_exact(game), values=coalition_value_table(game))
    assert report.null_players == (3,)
    assert report.null_ok
    assert report.all_ok


def test_axioms_sampled_gets_stderr_slack():
    game = single_game(SingleCssParams(n=5, k=2, rho=1.0))
    report = check_axioms(shapley_sample(game, 4_000, seed=2),
                          values=coalition_value_table(game))
    assert report.efficiency_ok
    assert report.symmetry_ok


SCALED_UNITS = (1.3, 0.7, 2.9, 1.3, 0.7, 1.1, 1.3, 0.7, 2.2, 1.3, 0.7, 0.0)


def audit_verdicts(scale):
    """Every audit verdict on an additive and a quadratic game scaled by `scale`."""
    additive, quadratic = (mass_game(SCALED_UNITS, worth, "mass", crowd_players(11),
                                     founder=False)
                           for worth in (lambda m: scale * m, lambda m: scale * m * m))
    verdicts = [check_linearity(additive, quadratic).ok]
    for game in (additive, quadratic):
        verdicts.append(supermodular_whole(coalition_value_table(game)))
        for alloc in (shapley_exact(game), shapley_sample(game, 200, seed=1)):
            report = check_axioms(alloc, values=coalition_value_table(game))
            verdicts.append((report.efficiency_ok, report.null_ok, report.symmetry_ok,
                             report.null_players, report.symmetric_pairs))
    return verdicts


def test_audit_verdicts_do_not_depend_on_the_scale():
    # multiplying by 2^e scales every value and payoff exactly
    expected = audit_verdicts(1.0)
    assert all(v is True or v[:3] == (True, True, True) for v in expected)
    assert expected[2][3] == (11,) and (0, 3) in expected[2][4]
    for e in range(41):
        assert audit_verdicts(2.0 ** e) == expected, e


def test_axioms_above_detect_cap_is_not_exhaustive():
    game = additive_game(DEFAULT_STRUCTURE_CAP + 1)
    report = check_axioms(shapley_exact(game), values=coalition_value_table(game))
    assert not report.exhaustive
    assert report.efficiency_ok
    assert report.null_players == ()


@pytest.mark.parametrize("shape", [(8,), (32,), (4, 4), ()], ids=str)
def test_a_given_table_of_the_wrong_shape_is_refused(shape):
    # 4 players have 16 coalitions; a table of any other shape is a caller's error
    game = additive_game(4)
    allocation = shapley_exact(game)
    wrong = np.zeros(shape)
    with pytest.raises(ValueError, match=r"4 players has shape \(16,\)"):
        check_axioms(allocation, values=wrong)
    # above the structure cap the table is not scanned, but is still refused
    n = DEFAULT_STRUCTURE_CAP + 1
    with pytest.raises(ValueError, match=rf"{n} players has shape \({1 << n},\)"):
        check_axioms(Allocation((0.0,) * n, 0.0), values=wrong)
    with pytest.raises(ValueError, match=r"4 players has shape \(16,\)"):
        shapley_exact(game, values=wrong)


@pytest.mark.parametrize("classes", [(0, 0, 0), (0, 1, 2, 3, 4), ()], ids=len)
def test_given_classes_of_the_wrong_length_are_refused(classes):
    # classes are one per player; the table's shape is checked first
    game = additive_game(4)
    values = coalition_value_table(game)
    allocation = shapley_exact(game)
    for refused in (lambda: shapley_exact(game, values=values, classes=classes),
                    lambda: check_axioms(allocation, values=values, classes=classes)):
        with pytest.raises(ValueError, match=rf"classes of 4 players have 4 entries, "
                                             rf"got {len(classes)}"):
            refused()
    with pytest.raises(ValueError, match=r"4 players has shape \(16,\)"):
        check_axioms(allocation, values=values[:8], classes=classes)


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


def drawn_game(values):
    return CoalitionGame(values.size.bit_length() - 1, lambda masks: values[masks], "drawn")


def kind_index(kind):
    """Per coalition of len(kind) players, an index below (n + 1) ** 3 read
    from the head counts of the players of kinds 0, 1 and 2 alone: players
    of one kind swap with the index unchanged, and kind-3 players are null."""
    n = len(kind)
    masks = np.arange(1 << n)
    index = np.zeros(1 << n, dtype=np.intp)
    for k in range(3):
        members = sum(1 << p for p in range(n) if kind[p] == k)
        index = index * (n + 1) + np.bitwise_count(masks & members)
    return index


@st.composite
def audit_tables(draw):
    """A mask-indexed table with planted interchangeable players, and a grand value.

    Each player is of kind 0-3. The value reads the head counts of kinds 0-2
    only, so kind-3 players are null and swapping two players of one kind
    leaves the table exactly unchanged. Then a few entries become ±0, ±inf
    or NaN, and one pair may get a single gap, at the detection tolerance or
    just above it, at a coalition the audit does not probe.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    planted = n >= 2 and draw(st.booleans())
    if planted:
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        kind[j] = kind[i]
    values = rng.integers(-4, 5, (n + 1) ** 3)[kind_index(kind)] * 2.0 ** draw(st.integers(-60, 60))
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.integers(0, (1 << n) - 1))] = draw(st.sampled_from(SPECIAL))
    grand = draw(st.sampled_from([float(values[-1]), 1.0, 3.0 * 2.0 ** 40, -math.inf]))
    if planted:
        bits, _, first, second, with_first, _ = core._probes(n)
        probed = (with_first[(first == i) & (second == j)] ^ bits[i]).ravel().tolist()
        unprobed = [s for s in range(1 << n)
                    if not s & (bits[i] | bits[j]) and s not in probed]
        if unprobed:
            s = unprobed[draw(st.integers(0, len(unprobed) - 1))]
            detect_tol = 1e-12 * max(1.0, abs(grand))
            values[s | 1 << i] = draw(st.sampled_from((0.0, -0.0)))
            values[s | 1 << j] = draw(st.sampled_from(
                (detect_tol, np.nextafter(detect_tol, math.inf))))
    return values, grand


@settings(max_examples=300, deadline=None)
@given(audit_tables())
def test_audit_finds_what_the_exhaustive_scan_finds(drawn):
    # the same with the classes searched by the audit and given to it
    values, grand = drawn
    n = values.size.bit_length() - 1
    allocation = Allocation((0.0,) * n, grand)
    with np.errstate(invalid="ignore"):
        expected = axiom_structure(values, grand)
        for classes in (None, core.exact_classes(values)):
            report = check_axioms(allocation, values=values, classes=classes)
            assert (report.null_players, report.symmetric_pairs) == expected


@pytest.mark.parametrize("special", [math.inf, math.nan], ids=["inf", "nan"])
def test_equal_special_swap_images_are_not_symmetric(special):
    # a size-only table but for players 0 and 1 alone, which are worth
    # `special`: the pair's swap images hold the same bits, so the two form an
    # exact class, but inf - inf and NaN - NaN are NaN, which fails the scan
    n = 4
    values = np.bitwise_count(np.arange(1 << n)).astype(np.float64)
    values[[1, 2]] = special
    assert core.exact_classes(values) == (0, 0, 2, 2)
    with np.errstate(invalid="ignore"):
        expected = axiom_structure(values, 4.0)
        for classes in (None, core.exact_classes(values)):
            report = check_axioms(Allocation((0.0,) * n, 4.0), values=values, classes=classes)
            assert (report.null_players, report.symmetric_pairs) == expected == ((), ((2, 3),))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_class_apart_prints_one_bit_pattern(data):
    # a table symmetric under a drawn swap of two players that are not
    # neighbours, with heavy-tailed levels, so that two members of a class
    # reduced apart would sum their marginals in different orders
    n = data.draw(st.integers(3, 10), label="n")
    i = data.draw(st.integers(0, n - 3), label="i")
    j = data.draw(st.integers(i + 2, n - 1), label="j")
    kind = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="kind")
    kind[j] = kind[i]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="table seed"))
    values = rng.standard_cauchy((n + 1) ** 3)[kind_index(kind)]
    classes = core.exact_classes(values)
    assert classes == exact_classes_whole(values)
    assert classes[i] == classes[j]
    payoffs = np.array(shapley_exact(drawn_game(values)).payoffs).view(np.int64)
    for least in set(classes):
        assert len(set(payoffs[np.array(classes) == least].tolist())) == 1


def test_interchangeable_crowd_is_scanned_once_per_member(monkeypatch):
    # 13 crowd members, one exact swap class: the class search's one full
    # pair scan, of members 1 and 2, and a cycle check that needs no
    # `_split_pair` link every member, counted over the audit alone
    game = single_game(SingleCssParams(n=13, k=2, rho=1.0))
    allocation = shapley_exact(game)
    scans = []
    split_pair = core._split_pair

    def counted(values, i, j):
        scans.append((i, j))
        return split_pair(values, i, j)

    values = coalition_value_table(game)
    monkeypatch.setattr(core, "_split_pair", counted)
    report = check_axioms(allocation, values=values)
    assert report.symmetric_pairs == tuple(itertools.combinations(range(1, 14), 2))
    assert report.all_ok
    assert scans == [(1, 2)]
    # with the classes given, the audit compares no pair
    classes = core.exact_classes(values)
    scans.clear()
    assert check_axioms(allocation, values=values, classes=classes) == report
    assert scans == []


def test_audit_scans_one_pair_per_pair_of_classes(monkeypatch):
    # v and x carry equal crowds on a triangle, so they are symmetric
    # vertices, and w's one crowd member swaps exactly with w. Four pairs of
    # players from different classes pass the probes: the majors v and x, and
    # w with each member of x's crowd. One float scan per pair of classes
    # settles them: the swap gaps of (w, 8) are those of (w, 7), permuted.
    graph = OligopolyGraph.from_spec([("v", 3), ("w", 1), ("x", 3)],
                                     [("v", "w"), ("v", "x"), ("w", "x")], rho=1.0)
    game = fine_game(graph)
    values = coalition_value_table(game)
    classes = core.exact_classes(values)
    assert classes == (0, 1, 2, 3, 3, 3, 1, 7, 7, 7)
    scans = []
    split_pair = core._split_pair

    def counted(values, i, j):
        scans.append((i, j))
        return split_pair(values, i, j)

    monkeypatch.setattr(core, "_split_pair", counted)
    allocation = shapley_exact(game, values=values, classes=classes)
    report = check_axioms(allocation, values=values, classes=classes)
    assert scans == [(0, 2), (1, 7)]
    assert (report.null_players, report.symmetric_pairs) == axiom_structure(
        values, allocation.grand_value)
    assert report.symmetric_pairs == ((1, 6), (3, 4), (3, 5), (4, 5), (7, 8), (7, 9), (8, 9))
    assert report.all_ok


# --- linearity -------------------------------------------------------------------


def test_linearity_of_two_founder_games():
    a = single_game(SingleCssParams(n=4, k=1, rho=1.0))
    b = single_game(SingleCssParams(n=4, k=2, rho=1.0))
    assert check_linearity(a, b).ok


def test_linearity_with_zero_game():
    a = single_game(SingleCssParams(n=4, k=2, rho=2.5))
    zero = CoalitionGame(5, nothing)
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
    assert supermodular_whole(coalition_value_table(
        single_game(SingleCssParams(n=n, k=k, rho=1.0))))


def test_concave_game_is_not_supermodular():
    game = CoalitionGame(4, lambda masks: np.sqrt(head_count(masks)))
    assert not supermodular_whole(coalition_value_table(game))


def test_value_table_matches_direct_evaluation():
    params = SingleCssParams(n=3, k=2, rho=2.0)
    table = coalition_value_table(single_game(params))
    for mask in range(1 << 4):
        assert table[mask] == value_single(params, Coalition(mask))
