"""The blocked exact engine gives the bits of the whole-array reduction.

`shapley_exact` evaluates the table and sums each player's marginals a block
of coalitions at a time, then adds the block sums as a binary tree.
`reference.shapley_exact_whole` forms and sums every player's marginals in one
pass. The payoffs must be equal bit for bit, so JSON output stays byte-stable.
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
from fairshare.scenarios import build_game, load_scenario, parse_scenario
from reference import shapley_exact_whole

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

BUNDLED = sorted((ROOT / "scenarios").glob("*.json"))


def heavy_tailed(rng, size):
    """Signed values spread over 12 orders of magnitude, so sums cancel."""
    return rng.standard_cauchy(size) * 10.0 ** rng.integers(-6, 7, size)


def assert_same_bits(game):
    blocked, whole = shapley_exact(game), shapley_exact_whole(game)
    assert blocked == whole
    assert np.array(blocked.payoffs).tobytes() == np.array(whole.payoffs).tobytes()


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
    assert_same_bits(CoalitionGame(n, label="drawn", table=lambda masks: values[masks]))


def test_a_wrong_shape_in_a_later_block_is_refused():
    # 2^17 coalitions are evaluated in several blocks; the second returns too few values
    def table(masks):
        return np.zeros(masks.size - (masks[0] > 0))

    game = CoalitionGame(17, label="short", table=table)
    with pytest.raises(ValueError, match=r"batch table of short returned shape .*"
                                         r"expected \(131072,\)"):
        coalition_value_table(game)
