"""Tests for the geographic coverage census and its coalition games."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import Coalition, shapley_exact
from fairshare.geo import (
    DiskCensus,
    effective_size,
    effective_sizes,
    geo_founder_game,
    geo_founder_shapley,
    geo_founder_value,
    geo_game,
    geo_shapley,
    nu_lin,
    nu_met,
    region_census,
)
from fairshare.models import WeightedCssParams, closed_weighted
from fairshare.oligopoly import OligopolyGraph, shapley_coarse


def census_from_keys(num_agents, table):
    return DiskCensus(num_agents, {frozenset(k): v for k, v in table.items()})


def five_disk_census(d1=4, d2=3, d3=5, d4=2, d5=6,
                     d12=4, d13=2, d23=1, d123=3, d45=2):
    """Two clusters: disks 1-3 mutually overlapping, disks 4-5 overlapping."""
    return census_from_keys(5, {
        (1,): d1, (2,): d2, (3,): d3, (4,): d4, (5,): d5,
        (1, 2): d12, (1, 3): d13, (2, 3): d23, (1, 2, 3): d123, (4, 5): d45,
    })


def random_census(rng, max_agents=8):
    m = int(rng.integers(1, max_agents + 1))
    n_keys = int(rng.integers(1, 7))
    counts = {}
    for _ in range(n_keys):
        size = int(rng.integers(1, m + 1))
        key = frozenset(rng.choice(np.arange(1, m + 1), size=size, replace=False).tolist())
        counts[key] = counts.get(key, 0) + int(rng.integers(0, 10))
    return DiskCensus(m, counts)


# --- census construction ---------------------------------------------------------


def test_census_validation():
    with pytest.raises(ValueError):
        DiskCensus(0)
    with pytest.raises(ValueError, match="nonempty"):
        DiskCensus(2, {frozenset(): 1})
    with pytest.raises(ValueError, match="outside"):
        DiskCensus(2, {frozenset({3}): 1})
    with pytest.raises(ValueError, match="negative"):
        DiskCensus(2, {frozenset({1}): -1})


def test_census_drops_zero_counts():
    census = census_from_keys(3, {(1,): 0, (1, 2): 4})
    assert census.counts == {frozenset({1, 2}): 4}
    assert census.total_users == 4


def test_region_census_exact_membership():
    census = region_census([[1], [1], [2], [1, 2], [1, 2, 3]], num_agents=3)
    assert census.counts == {
        frozenset({1}): 2, frozenset({2}): 1,
        frozenset({1, 2}): 1, frozenset({1, 2, 3}): 1}
    assert census.uncovered_users == 0


def test_region_census_singleton_only():
    census = region_census([[1], [2], [2], [3]], num_agents=3)
    assert all(len(k) == 1 for k in census.counts)


def test_region_census_counts_uncovered():
    census = region_census([[1], [], []], num_agents=2)
    assert census.total_users == 1
    assert census.uncovered_users == 2


def test_region_census_empty_placements():
    census = region_census([], num_agents=4)
    assert census.counts == {}
    assert census.total_users == 0


def test_region_census_rejects_unknown_disk():
    with pytest.raises(ValueError, match="disk id 9"):
        region_census([[1, 9]], num_agents=3)


def test_region_census_realizes_five_disk_pattern():
    target = five_disk_census()
    placements = []
    for subset, count in target.counts.items():
        placements.extend([sorted(subset)] * count)
    rebuilt = region_census(placements, num_agents=5)
    assert rebuilt.counts == target.counts


# --- effective sizes ----------------------------------------------------------------


def test_effective_size_worked_example():
    census = census_from_keys(3, {(1,): 6, (1, 2): 4, (1, 3): 2, (1, 2, 3): 3})
    assert effective_size(census, 1) == pytest.approx(6 + 2 + 1 + 1)


def test_effective_size_disjoint_disks():
    census = census_from_keys(3, {(1,): 5, (2,): 7, (3,): 1})
    assert effective_sizes(census) == (5.0, 7.0, 1.0)


def test_effective_size_full_overlap_splits_evenly():
    census = census_from_keys(2, {(1, 2): 10})
    assert effective_sizes(census) == (5.0, 5.0)


def test_effective_sizes_conserve_users():
    rng = np.random.default_rng(13)
    for _ in range(30):
        census = random_census(rng)
        assert math.fsum(effective_sizes(census)) == pytest.approx(
            census.total_users, abs=1e-9)


@st.composite
def censuses(draw):
    m = draw(st.integers(1, 12))
    counts = draw(st.dictionaries(st.frozensets(st.integers(1, m), min_size=1),
                                  st.integers(0, 10 ** 6), max_size=20))
    return DiskCensus(m, counts)


@settings(max_examples=200, deadline=None)
@given(censuses())
def test_effective_sizes_equal_the_per_agent_sizes(census):
    assert effective_sizes(census) == tuple(
        effective_size(census, i) for i in range(1, census.num_agents + 1))


def test_effective_size_rejects_unknown_agent():
    with pytest.raises(ValueError):
        effective_size(census_from_keys(2, {(1,): 1}), 3)


# --- coalition values ----------------------------------------------------------------


def test_nu_lin_two_cluster_example():
    census = five_disk_census()
    d = {tuple(sorted(k)): v for k, v in census.counts.items()}
    expected = (d[(2,)] + d[(3,)] + (d[(1, 2)] + d[(1, 3)]) / 2
                + d[(2, 3)] + 2 * d[(1, 2, 3)] / 3)
    assert nu_lin(census, [2, 3], rho=1.0) == pytest.approx(expected)
    assert nu_met(census, [2, 3], rho=2.0) == pytest.approx(2 * expected ** 2)


def test_nu_lin_empty_and_full():
    census = five_disk_census()
    assert nu_lin(census, [], rho=3.0) == 0.0
    assert nu_lin(census, range(1, 6), rho=3.0) == pytest.approx(
        3.0 * census.total_users)


def test_nu_met_squares_single_agent():
    census = census_from_keys(2, {(1,): 10})
    assert nu_met(census, [1], rho=1.0) == pytest.approx(100.0)
    assert nu_met(census, [], rho=1.0) == 0.0


def test_nu_met_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        nu_met(five_disk_census(), [1], rho=0.0)


GEO_FUNCTIONS = {
    "nu_lin": lambda census, rho, variant: nu_lin(census, [1], rho),
    "nu_met": lambda census, rho, variant: nu_met(census, [1], rho),
    "geo_game": geo_game,
    "geo_shapley": geo_shapley,
    "geo_founder_game": geo_founder_game,
    "geo_founder_shapley": geo_founder_shapley,
    "geo_founder_value": lambda census, rho, variant: geo_founder_value(
        census, rho, variant, Coalition.from_members([0, 1])),
}


@pytest.mark.parametrize("name", sorted(GEO_FUNCTIONS))
@pytest.mark.parametrize("rho", [0.0, -1.5])
@pytest.mark.parametrize("variant", ["lin", "met"])
def test_every_geo_function_rejects_nonpositive_rho(name, rho, variant):
    with pytest.raises(ValueError, match="value scale must be positive"):
        GEO_FUNCTIONS[name](five_disk_census(), rho, variant)


@pytest.mark.parametrize("name", sorted(set(GEO_FUNCTIONS) - {"nu_lin", "nu_met"}))
def test_every_geo_function_rejects_an_unknown_variant(name):
    with pytest.raises(ValueError, match="variant must be one of"):
        GEO_FUNCTIONS[name](five_disk_census(), 1.0, "quadratic")


def test_agent_sets_are_validated():
    census = five_disk_census()
    with pytest.raises(ValueError):
        nu_lin(census, [0], rho=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        nu_lin(census, [1, 1], rho=1.0)


# --- agent-only allocations -----------------------------------------------------------


def test_geo_shapley_lin_disjoint():
    census = census_from_keys(3, {(1,): 5, (2,): 7, (3,): 1})
    alloc = geo_shapley(census, rho=2.0, variant="lin")
    assert alloc.payoffs == (10.0, 14.0, 2.0)


def test_geo_shapley_met_pair():
    census = census_from_keys(2, {(1,): 10, (2,): 6})
    alloc = geo_shapley(census, rho=1.0, variant="met")
    assert alloc.payoffs == pytest.approx((160.0, 96.0))
    assert alloc.grand_value == pytest.approx(256.0)


def test_geo_shapley_single_agent():
    census = census_from_keys(1, {(1,): 9})
    assert geo_shapley(census, 1.0, "lin").payoffs == (9.0,)
    assert geo_shapley(census, 1.0, "met").payoffs == (81.0,)


def test_geo_shapley_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        geo_shapley(five_disk_census(), 1.0, "quadratic")


@pytest.mark.parametrize("variant", ["lin", "met"])
def test_geo_shapley_matches_exact(variant):
    rng = np.random.default_rng(29)
    for _ in range(25):
        census = random_census(rng)
        closed = geo_shapley(census, rho=1.25, variant=variant)
        exact = shapley_exact(geo_game(census, 1.25, variant))
        for a, b in zip(closed.payoffs, exact.payoffs):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_geo_met_bridges_to_complete_agreement_graph():
    # integer effective sizes let the network closed form be compared exactly
    census = census_from_keys(4, {(1,): 3, (2,): 5, (3,): 2, (4,): 7})
    sizes = effective_sizes(census)
    graph = OligopolyGraph.from_spec(
        [(str(i + 1), int(n)) for i, n in enumerate(sizes)],
        [(str(i + 1), str(j + 1)) for i in range(4) for j in range(i + 1, 4)],
        rho=1.0)
    assert geo_shapley(census, 1.0, "met").payoffs == shapley_coarse(graph).payoffs


# --- founder-augmented games -------------------------------------------------------------


def test_geo_founder_value_gating():
    census = five_disk_census()
    no_founder = Coalition.from_members([1, 2])
    assert geo_founder_value(census, 1.0, "lin", no_founder) == 0.0
    assert geo_founder_value(census, 1.0, "lin", Coalition.from_members([0])) == 0.0
    full = Coalition.from_members(range(6))
    assert geo_founder_value(census, 1.0, "lin", full) == pytest.approx(
        nu_lin(census, range(1, 6), 1.0))
    assert geo_founder_value(census, 1.0, "met", full) == pytest.approx(
        nu_met(census, range(1, 6), 1.0))


def test_geo_founder_shapley_lin_pair():
    census = census_from_keys(2, {(1,): 10, (2,): 6})
    alloc = geo_founder_shapley(census, rho=1.0, variant="lin")
    assert alloc.payoffs == pytest.approx((8.0, 5.0, 3.0))


def test_geo_founder_shapley_met_single_agent_splits_evenly():
    census = census_from_keys(1, {(1,): 4})
    alloc = geo_founder_shapley(census, rho=2.0, variant="met")
    assert alloc.payoffs == pytest.approx((16.0, 16.0))


@pytest.mark.parametrize("variant", ["lin", "met"])
def test_geo_founder_shapley_matches_exact(variant):
    rng = np.random.default_rng(37)
    for _ in range(25):
        census = random_census(rng)
        closed = geo_founder_shapley(census, rho=0.75, variant=variant)
        exact = shapley_exact(geo_founder_game(census, 0.75, variant))
        for a, b in zip(closed.payoffs, exact.payoffs):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_geo_founder_met_equals_weighted_closed_form():
    census = five_disk_census()
    sizes = effective_sizes(census)
    report = closed_weighted(WeightedCssParams(weights=sizes, alpha=1.0, rho=1.0))
    alloc = geo_founder_shapley(census, rho=1.0, variant="met")
    assert alloc.payoffs[0] == pytest.approx(report.founder_payoff, rel=1e-12)
    for a, b in zip(alloc.payoffs[1:], report.member_payoffs):
        assert a == pytest.approx(b, rel=1e-12)


def test_geo_founder_met_share_stays_in_band():
    rng = np.random.default_rng(41)
    for _ in range(100):
        census = random_census(rng)
        if census.total_users == 0:
            continue
        alloc = geo_founder_shapley(census, rho=1.0, variant="met")
        share = alloc.payoffs[0] / alloc.grand_value
        assert 1 / 3 - 1e-12 <= share <= 0.5 + 1e-12


def test_geo_founder_met_share_near_one_third_when_spread():
    # many equal-size agents: the squared-size correction vanishes
    census = census_from_keys(8, {(i,): 5 for i in range(1, 9)})
    alloc = geo_founder_shapley(census, rho=1.0, variant="met")
    share = alloc.payoffs[0] / alloc.grand_value
    assert share == pytest.approx(1 / 3 + 1 / (6 * 8), abs=1e-12)


def test_geo_founder_met_empty_census_pays_nothing():
    # no users: the weighted closed form has no positive work unit to use
    for variant in ("lin", "met"):
        alloc = geo_founder_shapley(DiskCensus(3, {}), rho=1.0, variant=variant)
        assert alloc.payoffs == (0.0,) * 4
        assert alloc.grand_value == 0.0
    with pytest.raises(ValueError, match="positive"):
        geo_founder_shapley(DiskCensus(3, {}), rho=0.0, variant="met")
