"""The blocked exact engine gives the bits of the whole-array reduction.

`shapley_exact` evaluates the table and sums each player's marginals a block
of coalitions at a time, then adds the block sums as a binary tree.
`reference.shapley_exact_whole` forms and sums every player's marginals in one
pass. The payoffs must be equal bit for bit, so JSON output stays byte-stable.
Where players swap with the table's bits unchanged, the engine reduces each
such class once, at its least player, and copies that payoff to the rest of
the class; so every player must carry the bits of the whole-array payoff of
the least player of its class, found by `reference.exact_classes_whole`.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare import core
from fairshare.core import CoalitionGame, coalition_value_table, shapley_exact
from fairshare.models import SingleCssParams, WeightedCssParams, single_game, weighted_game
from fairshare.scenarios import build_game, load_scenario, parse_scenario
from reference import exact_classes_whole, shapley_exact_whole

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

BUNDLED = sorted((ROOT / "scenarios").glob("*.json"))


def heavy_tailed(rng, size):
    """Signed values spread over 12 orders of magnitude, so sums cancel."""
    return rng.standard_cauchy(size) * 10.0 ** rng.integers(-6, 7, size)


def assert_same_bits(game):
    blocked, whole = shapley_exact(game), shapley_exact_whole(game)
    classes = exact_classes_whole(game.evaluate(np.arange(1 << game.n_players, dtype=np.uint64)))
    assert blocked.stderr is whole.stderr is None
    # bytes, not ==: a NaN payoff must carry the same payload, a zero the same sign
    assert (np.array([blocked.grand_value, *blocked.payoffs]).tobytes()
            == np.array([whole.grand_value, *(whole.payoffs[c] for c in classes)]).tobytes())
    return blocked


def table_game(values):
    return CoalitionGame(values.size.bit_length() - 1, lambda masks: values[masks], "drawn")


def popcount_table(rng, n):
    """A heavy-tailed table whose value depends only on the coalition's size,
    so every swap keeps its bits."""
    return heavy_tailed(rng, n + 1)[np.bitwise_count(np.arange(1 << n, dtype=np.uint64))]


def swap_checks(monkeypatch):
    """Record (i, j, verdict) of every full swap check of players i < j."""
    calls = []
    check = core._swap_keeps_bits

    def recorded(ints, i, j):
        calls.append((i, j, check(ints, i, j)))
        return calls[-1][2]

    monkeypatch.setattr(core, "_swap_keeps_bits", recorded)
    return calls


def cycle_checks(monkeypatch):
    """Record (lo, hi, verdict) of every cycle check of players lo..hi-1."""
    calls = []
    check = core._cycle_keeps_bits

    def recorded(ints, lo, hi):
        calls.append((lo, hi, check(ints, lo, hi)))
        return calls[-1][2]

    monkeypatch.setattr(core, "_cycle_keeps_bits", recorded)
    return calls


def count_reductions(monkeypatch):
    """The number of players whose marginals are reduced: one `_tree_sum` each."""
    sums = []
    tree_sum = core._tree_sum

    def counted(parts):
        sums.append(len(parts))
        return tree_sum(parts)

    monkeypatch.setattr(core, "_tree_sum", counted)
    return sums


@pytest.mark.parametrize("log_size", range(7, 23))
def test_blocked_tree_sum_is_numpy_pairwise_sum(log_size):
    # the engine relies on numpy's pairwise np.sum halving a power-of-two
    # array down to blocks of 128; a numpy release that blocks otherwise
    # fails here
    values = heavy_tailed(np.random.default_rng(log_size), 1 << log_size)
    whole = np.sum(values)
    for log_block in (7, 10, 15):
        block = 1 << min(log_block, log_size)
        parts = [np.sum(values[start:start + block])
                 for start in range(0, values.size, block)]
        assert core._tree_sum(parts) == whole


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scenarios_keep_the_bits(path):
    assert_same_bits(build_game(load_scenario(path)))


def exact_cap_games():
    """The games the benchmark's exact_cap workload solves, 17 to 20 players."""
    games = []
    for seed in (5, 17):
        workload = gen.build_workload("exact_cap", seed, {})
        for op in workload.ops:
            data = json.loads(workload.files[op.scenario])
            games.append(pytest.param(data, id=f"s{seed}-{op.op_id}"))
    return games


@pytest.mark.parametrize("data", exact_cap_games())
def test_exact_cap_rosters_keep_the_bits(data):
    game = build_game(parse_scenario(data))
    assert 17 <= game.n_players <= 20
    assert_same_bits(game)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(-1e100, 1e100), max_size=8))
def test_drawn_tables_keep_the_bits(n, seed, extremes):
    rng = np.random.default_rng(seed)
    values = heavy_tailed(rng, 1 << n)
    values[rng.integers(0, 1 << n, len(extremes))] = extremes
    assert_same_bits(table_game(values))


def test_a_wrong_shape_in_a_later_block_is_refused():
    # 2^17 coalitions are evaluated in several blocks; the second returns too few values
    def value(masks):
        return np.zeros(masks.size - (masks[0] > 0))

    game = CoalitionGame(17, value, "short")
    with pytest.raises(ValueError, match=r"value of short returned shape \(32767,\) "
                                         r"for masks of shape \(32768,\)"):
        coalition_value_table(game)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, n - 2).flatmap(
               lambda lo: st.tuples(st.just(lo), st.integers(lo + 2, n))))),
       st.integers(0, 2 ** 32 - 1))
def test_a_run_of_interchangeable_players_gets_one_payoff(sizes, seed):
    # heavy-tailed values that depend only on the bits outside players
    # lo..hi-1 and on how many of those players are present
    n, (lo, hi) = sizes
    masks = np.arange(1 << n, dtype=np.uint64)
    run = np.uint64(((1 << (hi - lo)) - 1) << lo)
    count = np.bitwise_count(masks & run)
    packed = (masks & ~run) | (((np.uint64(1) << count) - np.uint64(1)) << np.uint64(lo))
    values = heavy_tailed(np.random.default_rng(seed), 1 << n)[packed]
    with pytest.MonkeyPatch.context() as monkeypatch:
        sums = count_reductions(monkeypatch)
        allocation = assert_same_bits(table_game(values))
    assert len(sums) == n - (hi - lo - 1)
    run_payoffs = np.array(allocation.payoffs[lo:hi])
    assert len(set(run_payoffs.view(np.int64).tolist())) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_run_broken_past_its_probes_keeps_the_classes(data):
    # a table symmetric on players lo..hi-1, at least six, but for one
    # coalition that no probe holds, in a drawn block of 2^15 coalitions;
    # runs from player 0 (a lowest axis of one entry in the cycle check's
    # views), to the top player (one row) and 17 players (four blocks, and
    # rows cut into blocks) are drawn often
    n = data.draw(st.one_of(st.just(17), st.integers(6, 17)), label="n")
    lo = data.draw(st.one_of(st.just(0), st.integers(0, n - 6)), label="lo")
    hi = data.draw(st.one_of(st.just(n), st.integers(lo + 6, n)), label="hi")
    masks = np.arange(1 << n, dtype=np.uint64)
    run = np.uint64(((1 << (hi - lo)) - 1) << lo)
    count = np.bitwise_count(masks & run)
    packed = (masks & ~run) | (((np.uint64(1) << count) - np.uint64(1)) << np.uint64(lo))
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="table seed")
    values = heavy_tailed(np.random.default_rng(seed), 1 << n)[packed]
    block = data.draw(st.integers(0, (1 << max(0, n - 15)) - 1), label="block")
    probes = set(np.concatenate(core._probes(n)[4:], axis=None).tolist())
    broken = data.draw(st.integers(block << 15, min(1 << n, (block + 1) << 15) - 1).filter(
        lambda s: s not in probes and 0 < (s & int(run)).bit_count() < hi - lo), label="broken")
    values.view(np.int64)[broken] ^= 1
    with pytest.MonkeyPatch.context() as monkeypatch:
        cycles = cycle_checks(monkeypatch)
        assert core.exact_classes(values) == exact_classes_whole(values)
        assert_same_bits(table_game(values))
    assert not any(ok for _, _, ok in cycles)


def test_a_difference_past_every_probe_in_the_last_block_is_found(monkeypatch):
    # 18 players: each pair has 2^16 coalitions holding one of the two, two
    # blocks of 2^15. Only the coalition of everyone but players 0 and 9
    # changes. It holds player 8 and the non-neighbour 7, is no probe of the
    # pairs (8, 9) and (7, 9), and sits in each pair's last block. Players 0
    # and 9 still swap exactly, and so do the other 16.
    n, i = 18, 9
    values = popcount_table(np.random.default_rng(1), n)
    values[((1 << n) - 1) & ~(1 << i) & ~1] += 1e3
    calls = swap_checks(monkeypatch)
    allocation = assert_same_bits(table_game(values))
    assert {(8, i, False), (7, i, False), (0, i, True)} <= set(calls)
    assert core.exact_classes(values) == (0,) + (1,) * 8 + (0,) + (1,) * 8
    assert allocation.payoffs[i] != allocation.payoffs[i - 1]


@pytest.mark.parametrize("low, high", [(0, -2 ** 63), (0x7FF8000000000001, 0x7FF8000000000002)],
                         ids=["signed-zeros", "nan-payloads"])
@pytest.mark.parametrize("others", [0, 1], ids=["probe", "past-probes"])
def test_a_swap_that_changes_bits_but_not_floats_is_reduced(monkeypatch, low, high, others):
    # +0.0 and -0.0, or two NaNs of different payloads, at the coalitions of
    # players 2 and 5 and at their swap images under the neighbours (2, 3)
    # and the non-neighbours (5, 8); `others` adds player 0 to all four,
    # which takes both pairs past their probes
    n = 10
    values = popcount_table(np.random.default_rng(2), n)
    values.view(np.int64)[[others | 1 << p for p in (2, 3, 5, 8)]] = low, high, low, high
    calls = swap_checks(monkeypatch)
    sums = count_reductions(monkeypatch)
    assert_same_bits(table_game(values))
    # the classes are {2, 5}, {3, 8} and the other players, less player 0
    # when it was added to the changed coalitions
    assert len(sums) == 3 + others
    for pair in (2, 3), (5, 8):
        assert ((*pair, False) in calls) == bool(others)
        assert (*pair, True) not in calls
    assert {(2, 5, True), (3, 8, True)} <= set(calls)


def test_an_anonymous_crowd_is_reduced_once(monkeypatch):
    # single: the founder and one crowd member are reduced; the other 18
    # members take the first member's payoff, linked by the swap of members
    # 1 and 2 and the cycle of all 19 alone, so no other pair is scanned
    calls = swap_checks(monkeypatch)
    cycles = cycle_checks(monkeypatch)
    sums = count_reductions(monkeypatch)
    allocation = shapley_exact(single_game(SingleCssParams(n=19, k=2, rho=1.0)))
    assert len(sums) == 2
    assert calls == [(1, 2, True)]
    assert cycles == [(1, 20, True)]
    assert len(set(allocation.payoffs[1:])) == 1


def test_distinct_weights_reduce_every_player(monkeypatch):
    sums = count_reductions(monkeypatch)
    game = weighted_game(WeightedCssParams(weights=tuple(range(1, 12))))
    assert_same_bits(game)
    assert len(sums) == game.n_players
