"""Tests for the single-system value models and closed-form allocators."""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import cycle, islice

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairshare.core import shapley_exact
from fairshare.models import (
    MAX_EXPONENT,
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    power_sum,
    profit_game,
    gaps_monotone,
    repeated_fsum,
    share_sweep,
    single_game,
    weighted_game,
)
from reference import (
    Coalition,
    cross_term_weight,
    crowd_count,
    value_profit,
    value_single,
    value_weighted,
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 40))
def test_power_sum_equals_the_direct_sum(n, k):
    # n <= k sums directly and n > k evaluates the Faulhaber polynomial
    for m in (n, k, k + 1):
        assert power_sum(m, k) == sum(s ** k for s in range(m + 1))


MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
PATTERNS = st.lists(st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x)),
                    min_size=1, max_size=8)


@settings(max_examples=500, deadline=None)
@given(PATTERNS, st.integers(1, 2000))
def test_repeated_fsum_equals_fsum_of_the_list(pattern, n):
    assert repeated_fsum(pattern, n) == math.fsum(list(islice(cycle(pattern), n)))


def fsum_outcome(total):
    """A sum's value, with nan comparable, or the error it raised."""
    try:
        value = total()
    except (OverflowError, ValueError) as exc:
        return repr(exc)
    return "nan" if math.isnan(value) else value


SPECIALS = st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, -1.7e308])
FSUM_OVERFLOW = repr(OverflowError("intermediate overflow in fsum"))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(SPECIALS, MAGNITUDES), min_size=1, max_size=8).filter(
    lambda p: not all(map(math.isfinite, p))), st.integers(1, 2000))
def test_repeated_fsum_follows_fsum_on_inf_and_nan(pattern, n):
    # inf + -inf raises and nan wins, as in fsum. Where a run of large finite
    # terms overflows, fsum raises, and repeated_fsum gives what the inf and nan
    # terms give, or else an infinity of the sum's sign, as float addition does
    terms = list(islice(cycle(pattern), n))
    expected = fsum_outcome(lambda: math.fsum(terms))
    if expected == FSUM_OVERFLOW:
        special = [x for x in terms if not math.isfinite(x)]
        expected = (fsum_outcome(lambda: math.fsum(special)) if special
                    else math.inf if sum(map(Fraction, terms)) > 0 else -math.inf)
    assert fsum_outcome(lambda: repeated_fsum(pattern, n)) == expected


@pytest.mark.parametrize("pattern, n, total", [
    ((1e308, 1e308), 2, math.inf),
    ((1e308, 2.0), 3, math.inf),
    ((-1e308,), 10 ** 12, -math.inf),
    ((1e300, 2.0), 10 ** 12, math.inf),
    ((1.7e308, -1.7e308), 10 ** 12, 0.0),
    ((1.7e308, -1.7e308, 1.7e308), 3, 1.7e308),
])
def test_repeated_fsum_rounds_an_overflow_to_infinity(pattern, n, total):
    assert repeated_fsum(pattern, n) == total


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
    with pytest.raises(ValueError, match="k: must be <= 1023"):
        cls(n=1, k=MAX_EXPONENT + 1)


def crowd_levels(params):
    """The game's values of the founder with m = 0..n crowd members."""
    masks = np.array([(1 << (m + 1)) - 1 for m in range(params.n + 1)], dtype=np.uint64)
    return single_game(params).evaluate(masks).tolist()


@pytest.mark.parametrize("rho", [1e-300, 1.0])
def test_a_crowd_level_past_the_float_range_is_rounded_once(rho):
    # 3 ** 1023 is about 1.3e488: at rho = 1e-300 the level at m = 3 is the
    # exact level, about 1.3e188, rounded once; at rho = 1 it is inf
    params = ProfitCssParams(n=3, k=MAX_EXPONENT, rho=rho, member_cost=0.5)
    levels = crowd_levels(params)
    assert levels[:3] == [rho * m ** MAX_EXPONENT - 0.5 * m for m in range(3)]
    exact = Fraction(rho) * 3 ** MAX_EXPONENT - Fraction(0.5) * 3
    assert levels[3] == (float(exact) if rho < 1.0 else math.inf)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, MAX_EXPONENT),
       st.floats(1e-300, 1e300), st.floats(0.0, 1e300))
def test_crowd_levels_keep_the_float_expression_where_it_computes(n, k, rho, cost):
    # where rho * m ** k - cost * m raises, the level is the exact value,
    # rounded to nearest, or inf from 2^1024 - 2^970 up, where that rounds
    levels = crowd_levels(ProfitCssParams(n=n, k=k, rho=rho, member_cost=cost))
    for m, level in enumerate(levels):
        try:
            expected = rho * m ** k - cost * m
        except OverflowError:
            exact = Fraction(rho) * m ** k - Fraction(cost) * m
            expected = float(exact) if exact < 2 ** 1024 - 2 ** 970 else math.inf
        assert level == expected, m


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
    with pytest.raises(ValueError, match="n: must be >= 1"):
        ProfitCssParams(n=0, k=2)
    with pytest.raises(ValueError, match="member_cost: must be nonnegative"):
        ProfitCssParams(n=2, k=2, member_cost=-0.1)


# --- the paper's band at finite n ---------------------------------------------------

RHOS = st.floats(min_value=1e-300, max_value=1e200)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 8), RHOS)
def test_costless_profit_report_equals_single(n, k, rho):
    assert closed_profit(ProfitCssParams(n=n, k=k, rho=rho)) == \
        closed_single(SingleCssParams(n=n, k=k, rho=rho))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 9), RHOS)
def test_single_crowd_share_is_half_at_k1(n, rho):
    report = closed_single(SingleCssParams(n=n, k=1, rho=rho))
    assert abs(report.crowd_share - 0.5) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 9), RHOS)
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


@settings(max_examples=200, deadline=None)
@given(WEIGHT_LISTS.map(lambda w: w[:8]).filter(any), st.integers(1, 10 ** 9),
       st.floats(min_value=0.1, max_value=3.0), RHOS)
def test_weighted_crowd_share_at_k2_for_a_cycled_crowd(weights, n, alpha, rho):
    params = WeightedCssParams(weights=tuple(weights), alpha=alpha, rho=rho)
    assume(any(params.weights[:n]))
    report = closed_weighted(params, n)
    # sum of f_i^2 over the n members of the cycled crowd, exactly
    q, r = divmod(n, len(weights))
    units = [Fraction(u) for u in params.work_units()]
    total = q * sum(units) + sum(units[:r])
    squares = (q * sum(u * u for u in units) + sum(u * u for u in units[:r])) / total ** 2
    assert abs(report.crowd_share - (2 / 3 - float(squares) / 6)) <= 1e-12


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


# --- reports that hold one payoff per distinct member ------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 4), RHOS,
       st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
def test_single_member_payoffs_are_the_old_n_tuple(n, k, rho, founder_cost, member_cost):
    report = closed_profit(ProfitCssParams(n=n, k=k, rho=rho, founder_cost=founder_cost,
                                           member_cost=member_cost))
    assert report.member_payoffs == report.member_pattern * n
    assert report.crowd_payoff == math.fsum(report.member_pattern * n)


@settings(max_examples=200, deadline=None)
@given(WEIGHT_LISTS.map(lambda w: w[:8]).filter(any), st.integers(1, 300),
       st.floats(min_value=0.1, max_value=3.0), RHOS)
def test_weighted_report_at_n_is_the_report_of_the_cycled_weights(weights, n, alpha, rho):
    params = WeightedCssParams(weights=tuple(weights), alpha=alpha, rho=rho)
    assume(any(params.weights[:n]))
    cycled = dataclasses.replace(params, weights=tuple(islice(cycle(params.weights), n)))
    listed = closed_weighted(cycled)
    report = closed_weighted(params, n)
    assert report.member_payoffs == listed.member_payoffs
    assert report.crowd_payoff == listed.crowd_payoff
    for field in ("founder_payoff", "grand_value", "founder_share", "crowd_share",
                  "founder_to_crowd_ratio", "asymptotic_founder_share", "degenerate", "n"):
        assert getattr(report, field) == getattr(listed, field), field


@pytest.mark.parametrize("closed, params", [
    (closed_single, SingleCssParams(n=1, k=2, rho=1.3)),
    (closed_weighted, WeightedCssParams(weights=(1.0, 2.0, 0.5), rho=1.3)),
], ids=["single", "weighted"])
def test_sweep_to_a_billion_costs_what_a_small_one_does(closed, params):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        reports = share_sweep(closed, params, [10, 10 ** 6, 10 ** 9])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert [report.n for report in reports] == [10, 10 ** 6, 10 ** 9]
    assert reports[-1].founder_share == pytest.approx(
        reports[-1].asymptotic_founder_share, abs=1e-8)


# --- sweeps ------------------------------------------------------------------------


def test_share_sweep_metcalfe_landmarks():
    reports = share_sweep(closed_single, SingleCssParams(n=1, k=2, rho=1.0), [10, 100, 1000])
    shares = [report.founder_share for report in reports]
    assert shares == pytest.approx([0.35, 0.335, 0.33350], abs=1e-12)
    assert gaps_monotone(reports)


def test_share_sweep_linear_is_flat():
    reports = share_sweep(closed_single, SingleCssParams(n=1, k=1, rho=3.0), [2, 5, 10, 50])
    assert all(report.founder_share == 0.5 for report in reports)


def test_share_sweep_profit_flags_degenerate_rows():
    params = ProfitCssParams(n=1, k=2, rho=1.0, founder_cost=6.0)
    reports = share_sweep(closed_profit, params, [2, 4, 8, 16])
    flags = [report.degenerate for report in reports]
    # rho n^2 < 6n for n < 6, so small crowds lose money
    assert flags == [True, True, False, False]


def test_share_sweep_weighted_tiles_pattern():
    reports = share_sweep(closed_weighted, WeightedCssParams(weights=(1.0,)), [10, 100])
    for n, report in zip([10, 100], reports, strict=True):
        assert report.n == n
        assert report.founder_share == pytest.approx(1 / 3 + 1 / (6 * n), abs=1e-12)


def test_share_sweep_rejects_bad_sizes():
    with pytest.raises(ValueError):
        share_sweep(closed_single, SingleCssParams(n=1, k=2), [])
    with pytest.raises(ValueError):
        share_sweep(closed_single, SingleCssParams(n=1, k=2), [5, 5])
    with pytest.raises(ValueError):
        share_sweep(closed_single, SingleCssParams(n=1, k=2), [10, 3])
