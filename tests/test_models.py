"""Tests for the single-system value models and closed-form allocators."""

import math
from fractions import Fraction

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.core import Coalition, shapley_exact
from fairshare.models import (
    MAX_EXPONENT,
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    cross_term_weight,
    crowd_count,
    power_sum,
    profit_game,
    share_sweep,
    single_game,
    value_profit,
    value_single,
    value_weighted,
    weighted_game,
)


def assert_matches_exact(report, game, tol=1e-9):
    """Closed-form payoffs must equal the exact engine's, player by player."""
    alloc = shapley_exact(game)
    expected = (report.founder_payoff,) + report.member_payoffs
    for closed, exact in zip(expected, alloc.payoffs):
        assert closed == pytest.approx(exact, rel=tol, abs=tol)


def faulhaber(n, k):
    """Polynomial power sums for small k, in exact rational arithmetic."""
    n = Fraction(n)
    if k == 1:
        return n * (n + 1) / 2
    if k == 2:
        return n * (n + 1) * (2 * n + 1) / 6
    if k == 3:
        return (n * (n + 1) / 2) ** 2
    raise ValueError(k)


# --- parameter validation ------------------------------------------------------


def test_param_validation():
    with pytest.raises(ValueError):
        SingleCssParams(n=0, k=2)
    with pytest.raises(ValueError):
        SingleCssParams(n=3, k=0)
    with pytest.raises(ValueError):
        SingleCssParams(n=3, k=2, rho=0.0)
    with pytest.raises(ValueError):
        WeightedCssParams(weights=())
    with pytest.raises(ValueError):
        WeightedCssParams(weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        WeightedCssParams(weights=(1.0, -0.5))
    with pytest.raises(ValueError):
        WeightedCssParams(weights=(1.0,), alpha=0.0)
    with pytest.raises(ValueError):
        ProfitCssParams(n=2, k=2, founder_cost=-1.0)


# --- identical-crowd revenue model ----------------------------------------------


def test_value_single_cases():
    params = SingleCssParams(n=4, k=2, rho=3.0)
    assert value_single(params, Coalition.from_members([1, 2, 3, 4])) == 0.0
    assert value_single(params, Coalition.from_members([0])) == 0.0
    assert value_single(params, Coalition.from_members([0, 1, 2])) == 12.0


def test_crowd_count_ignores_founder():
    assert crowd_count(Coalition.from_members([0, 2, 5])) == 2
    assert crowd_count(Coalition.from_members([0])) == 0


def test_power_sum_matches_faulhaber():
    for n in range(0, 60):
        for k in (1, 2, 3):
            assert power_sum(n, k) == faulhaber(n, k)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
def test_closed_single_linear_splits_evenly(n):
    report = closed_single(SingleCssParams(n=n, k=1, rho=1.0))
    assert report.founder_share == 0.5
    assert report.crowd_share == 0.5


def test_closed_single_metcalfe_large_n():
    report = closed_single(SingleCssParams(n=1000, k=2, rho=1.0))
    assert report.founder_payoff == 333500.0
    assert report.founder_share == pytest.approx(2001 / 6000, abs=1e-15)
    assert report.asymptotic_founder_share == pytest.approx(1 / 3)


def test_closed_single_small_example():
    report = closed_single(SingleCssParams(n=3, k=2, rho=1.0))
    assert report.founder_payoff == pytest.approx(3.5, abs=1e-12)
    assert report.member_payoffs == pytest.approx((11 / 6,) * 3, abs=1e-12)
    assert_matches_exact(report, single_game(SingleCssParams(n=3, k=2, rho=1.0)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rho", [1.0, 2.5])
def test_closed_single_matches_exact_engine(k, rho):
    for n in range(1, 11):
        params = SingleCssParams(n=n, k=k, rho=rho)
        assert_matches_exact(closed_single(params), single_game(params))


@pytest.mark.parametrize("k", [2, 3])
def test_closed_single_share_converges_monotonically(k):
    limit = 1 / (k + 1)
    gaps = [abs(closed_single(SingleCssParams(n=n, k=k)).founder_share - limit)
            for n in range(1, 80)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


# --- work-weighted model ----------------------------------------------------------


def test_value_weighted_cases():
    params = WeightedCssParams(weights=(1.0, 1.0, 2.0), alpha=1.0, rho=1.0)
    assert value_weighted(params, Coalition.from_members([1, 2, 3])) == 0.0
    assert value_weighted(params, Coalition.from_members([0, 1, 2, 3])) == 16.0


def test_value_weighted_unit_weights_reduce_to_single():
    weighted = WeightedCssParams(weights=(1.0,) * 5, alpha=1.7, rho=2.0)
    single = SingleCssParams(n=5, k=2, rho=2.0)
    for mask in range(1 << 6):
        s = Coalition(mask)
        assert value_weighted(weighted, s) == pytest.approx(
            value_single(single, s), abs=1e-12)


def test_cross_term_weight_is_exactly_one_third():
    for n in range(2, 201):
        assert cross_term_weight(n) == Fraction(1, 3)
    with pytest.raises(ValueError):
        cross_term_weight(1)


def test_closed_weighted_single_member_splits_evenly():
    report = closed_weighted(WeightedCssParams(weights=(3.0,), alpha=1.0, rho=1.0))
    assert report.founder_payoff == pytest.approx(report.grand_value / 2)
    assert report.member_payoffs[0] == pytest.approx(report.grand_value / 2)


def test_closed_weighted_three_member_example():
    params = WeightedCssParams(weights=(1.0, 1.0, 2.0), alpha=1.0, rho=1.0)
    report = closed_weighted(params)
    assert report.member_payoffs == pytest.approx((5 / 2, 5 / 2, 14 / 3), abs=1e-12)
    assert report.founder_payoff == pytest.approx(19 / 3, abs=1e-12)
    assert report.founder_share == pytest.approx(19 / 48, abs=1e-12)
    # limiting share formula agrees with the work shares (1/4, 1/4, 1/2)
    assert report.asymptotic_founder_share == pytest.approx(
        1 / 3 + (1 / 16 + 1 / 16 + 1 / 4) / 6, abs=1e-12)
    assert_matches_exact(report, weighted_game(params))


def test_closed_weighted_requires_quadratic():
    with pytest.raises(ValueError, match="k=2"):
        closed_weighted(WeightedCssParams(weights=(1.0, 2.0), k=3))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_closed_weighted_matches_exact_engine(alpha):
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        weights = tuple(rng.uniform(0.1, 3.0, size=n))
        params = WeightedCssParams(weights=weights, alpha=alpha, rho=1.5)
        assert_matches_exact(closed_weighted(params), weighted_game(params))


def test_closed_weighted_uniform_reproduces_single():
    # equal weights w rescale the single-system game by w^(2 alpha)
    w, alpha, n = 1.6, 0.8, 6
    weighted = closed_weighted(
        WeightedCssParams(weights=(w,) * n, alpha=alpha, rho=1.0))
    single = closed_single(SingleCssParams(n=n, k=2, rho=w ** (2 * alpha)))
    assert weighted.founder_payoff == pytest.approx(single.founder_payoff, rel=1e-12)
    for a, b in zip(weighted.member_payoffs, single.member_payoffs):
        assert a == pytest.approx(b, rel=1e-12)


def test_closed_weighted_uniform_share_approaches_one_third():
    for n in (10, 100, 1000):
        report = closed_weighted(WeightedCssParams(weights=(1.0,) * n))
        assert report.founder_share == pytest.approx(1 / 3 + 1 / (6 * n), abs=1e-12)


# --- profit model -------------------------------------------------------------------


def test_value_profit_cases():
    costless = ProfitCssParams(n=5, k=2, rho=1.5)
    single = SingleCssParams(n=5, k=2, rho=1.5)
    for mask in range(1 << 6):
        assert value_profit(costless, Coalition(mask)) == value_single(
            single, Coalition(mask))
    params = ProfitCssParams(n=3, k=2, rho=1.0, founder_cost=1.0)
    assert value_profit(params, Coalition.from_members([0, 1, 2, 3])) == 6.0
    assert value_profit(params, Coalition.from_members([0])) == 0.0


@pytest.mark.parametrize("cls", [SingleCssParams, ProfitCssParams])
def test_exponent_is_bounded_where_n_to_the_k_leaves_the_float_range(cls):
    assert float(2 ** MAX_EXPONENT) < math.inf
    with pytest.raises(OverflowError):
        float(2 ** (MAX_EXPONENT + 1))
    assert cls(n=1, k=MAX_EXPONENT).k == MAX_EXPONENT
    with pytest.raises(ValueError, match="exponent must be <= 1023"):
        cls(n=1, k=MAX_EXPONENT + 1)


def test_closed_profit_small_example():
    params = ProfitCssParams(n=3, k=2, rho=1.0, founder_cost=1.0)
    report = closed_profit(params)
    assert report.founder_payoff == pytest.approx(2.0, abs=1e-12)
    assert report.crowd_payoff == pytest.approx(4.0, abs=1e-12)
    assert_matches_exact(report, profit_game(params))


def test_closed_profit_costless_equals_single():
    single = closed_single(SingleCssParams(n=6, k=3, rho=2.0))
    profit = closed_profit(ProfitCssParams(n=6, k=3, rho=2.0))
    assert profit.founder_payoff == single.founder_payoff
    assert profit.member_payoffs == single.member_payoffs


@pytest.mark.parametrize("founder_cost,member_cost", [
    (0.0, 0.0), (0.4, 0.0), (0.0, 0.3), (0.7, 0.2)])
def test_closed_profit_linear_share_ignores_costs(founder_cost, member_cost):
    for n in (2, 5, 30):
        report = closed_profit(ProfitCssParams(
            n=n, k=1, rho=2.0, founder_cost=founder_cost, member_cost=member_cost))
        if not report.degenerate:
            assert report.founder_share == pytest.approx(0.5, abs=1e-12)


def test_closed_profit_negative_total_flags_degenerate():
    params = ProfitCssParams(n=2, k=2, rho=1.0, founder_cost=5.0, member_cost=1.0)
    report = closed_profit(params)
    assert report.degenerate
    assert report.grand_value < 0
    assert report.founder_share is None and report.crowd_share is None
    # payoffs are still defined and match the exact engine
    assert_matches_exact(report, profit_game(params))


@pytest.mark.parametrize("founder_cost", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("member_cost", [0.0, 0.25])
def test_closed_profit_matches_exact_engine(founder_cost, member_cost):
    for n in range(1, 11):
        for k in (1, 2, 3):
            params = ProfitCssParams(n=n, k=k, rho=1.0,
                                     founder_cost=founder_cost,
                                     member_cost=member_cost)
            assert_matches_exact(closed_profit(params), profit_game(params))


def test_profit_is_single_with_costs():
    assert issubclass(ProfitCssParams, SingleCssParams)
    assert profit_game is single_game and closed_profit is closed_single
    assert value_profit is value_single
    assert SingleCssParams(n=3, k=2).cost == 0.0
    assert ProfitCssParams(n=3, k=2, founder_cost=0.5, member_cost=0.25).cost == 0.75
    # the cost is derived, not a field, so the scenario schema is unchanged
    assert [f.name for f in dataclasses.fields(ProfitCssParams)] == [
        "n", "k", "rho", "founder_cost", "member_cost"]
    with pytest.raises(ValueError, match="crowd size"):
        ProfitCssParams(n=0, k=2)
    with pytest.raises(ValueError, match="costs"):
        ProfitCssParams(n=2, k=2, member_cost=-0.1)


# --- the paper's band at finite n ---------------------------------------------------

RHOS = st.floats(min_value=1e-300, max_value=1e200)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 8), RHOS)
def test_costless_profit_report_equals_single(n, k, rho):
    assert closed_profit(ProfitCssParams(n=n, k=k, rho=rho)) == \
        closed_single(SingleCssParams(n=n, k=k, rho=rho))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 4), RHOS)
def test_single_crowd_share_is_half_at_k1(n, rho):
    report = closed_single(SingleCssParams(n=n, k=1, rho=rho))
    assert abs(report.crowd_share - 0.5) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 4), RHOS)
def test_single_crowd_share_at_k2(n, rho):
    report = closed_single(SingleCssParams(n=n, k=2, rho=rho))
    assert abs(report.crowd_share - (4 * n - 1) / (6 * n)) <= 1e-12


WEIGHT_LISTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=100.0)),
    min_size=1, max_size=40).filter(any)


@settings(max_examples=200, deadline=None)
@given(WEIGHT_LISTS, st.floats(min_value=0.1, max_value=3.0), RHOS)
def test_weighted_crowd_share_at_k2(weights, alpha, rho):
    params = WeightedCssParams(weights=tuple(weights), alpha=alpha, rho=rho)
    report = closed_weighted(params)
    band = 2 / 3 - math.fsum(f * f for f in params.work_shares()) / 6
    assert abs(report.crowd_share - band) <= 1e-12


def test_weighted_shares_keep_their_digits_when_the_payoffs_are_subnormal():
    # rho * T^2 = 1e-312 is below the normal float range
    params = WeightedCssParams(weights=(0.01,), alpha=3.0, rho=1e-300)
    report = closed_weighted(params)
    assert abs(report.crowd_share - 0.5) <= 1e-12
    assert report.grand_value == pytest.approx(1e-312, rel=1e-9)


# --- scale equivariance ----------------------------------------------------------


@pytest.mark.parametrize("scale", [2.0, 0.25])
def test_rho_scales_all_payoffs(scale):
    base_single = closed_single(SingleCssParams(n=5, k=2, rho=1.3))
    scaled_single = closed_single(SingleCssParams(n=5, k=2, rho=1.3 * scale))
    base_weighted = closed_weighted(WeightedCssParams(weights=(1.0, 2.0, 0.5), rho=1.3))
    scaled_weighted = closed_weighted(
        WeightedCssParams(weights=(1.0, 2.0, 0.5), rho=1.3 * scale))
    base_profit = closed_profit(ProfitCssParams(n=4, k=2, rho=1.3, founder_cost=0.4))
    scaled_profit = closed_profit(
        ProfitCssParams(n=4, k=2, rho=1.3 * scale, founder_cost=0.4))
    for base, scaled in ((base_single, scaled_single),
                         (base_weighted, scaled_weighted)):
        assert scaled.founder_payoff == pytest.approx(
            scale * base.founder_payoff, rel=1e-12)
        for a, b in zip(scaled.member_payoffs, base.member_payoffs):
            assert a == pytest.approx(scale * b, rel=1e-12)
    # profit costs do not scale with rho, only the revenue term does
    revenue_founder = scaled_profit.founder_payoff - base_profit.founder_payoff
    assert revenue_founder == pytest.approx(
        (scale - 1) * 1.3 * power_sum(4, 2) / 5, rel=1e-12)


# --- sweeps ------------------------------------------------------------------------


def test_share_sweep_metcalfe_landmarks():
    table = share_sweep(SingleCssParams(n=1, k=2, rho=1.0), [10, 100, 1000])
    shares = [row.report.founder_share for row in table.rows]
    assert shares == pytest.approx([0.35, 0.335, 0.33350], abs=1e-12)
    assert table.gaps_monotone()


def test_share_sweep_linear_is_flat():
    table = share_sweep(SingleCssParams(n=1, k=1, rho=3.0), [2, 5, 10, 50])
    assert all(row.report.founder_share == 0.5 for row in table.rows)


def test_share_sweep_profit_flags_degenerate_rows():
    params = ProfitCssParams(n=1, k=2, rho=1.0, founder_cost=6.0)
    table = share_sweep(params, [2, 4, 8, 16])
    flags = [row.report.degenerate for row in table.rows]
    # rho n^2 < 6n for n < 6, so small crowds lose money
    assert flags == [True, True, False, False]


def test_share_sweep_weighted_tiles_pattern():
    table = share_sweep(WeightedCssParams(weights=(1.0,)), [10, 100])
    for row in table.rows:
        assert row.report.n == row.n
        assert row.report.founder_share == pytest.approx(
            1 / 3 + 1 / (6 * row.n), abs=1e-12)


def test_share_sweep_rejects_bad_sizes():
    with pytest.raises(ValueError):
        share_sweep(SingleCssParams(n=1, k=2), [])
    with pytest.raises(ValueError):
        share_sweep(SingleCssParams(n=1, k=2), [5, 5])
    with pytest.raises(ValueError):
        share_sweep(SingleCssParams(n=1, k=2), [10, 3])
