"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
and measured runtime for every criterion.
"""

import math
import time

import numpy as np
import pytest

from fairshare.core import (
    CoalitionGame,
    check_axioms,
    coalition_value_table,
    shapley_exact,
    shapley_sample,
)
from fairshare.empirical import load_revenue_records, parse_window, revenue_share
from fairshare.geo import (
    DiskCensus,
    GeoParams,
    geo_founder_game,
    geo_founder_shapley,
    geo_game,
    geo_shapley,
)
from fairshare.models import (
    ProfitCssParams,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    profit_game,
    single_game,
    weighted_game,
)
from fairshare.oligopoly import (
    OligopolyGraph,
    coarse_game,
    fine_game,
    fine_major_ratio,
    shapley_coarse,
    shapley_fine_closed,
)
from reference import check_linearity, supermodular_whole, value_coarse

REL_TOL = 1e-9


def verdict(number, description, failures, elapsed=None):
    ok = not failures
    timing = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}{timing}")
    assert ok, f"criterion {number}: {failures[:5]}"


def close(a, b, tol=REL_TOL):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def head_count(masks):
    return np.bitwise_count(masks).astype(np.float64)


def compare_payoffs(label, closed, exact, failures, tol=REL_TOL):
    for i, (a, b) in enumerate(zip(closed.payoffs, exact.payoffs)):
        if not close(a, b, tol):
            failures.append(f"{label}: player {i} closed={a} exact={b}")
            return


# --- randomized instance generators -------------------------------------------


def random_single(rng, index):
    return SingleCssParams(n=int(rng.integers(1, 12)), k=index % 3 + 1,
                           rho=float(rng.uniform(0.5, 3.0)))


def random_weighted(rng):
    n = int(rng.integers(1, 12))
    return WeightedCssParams(
        weights=tuple(rng.uniform(0.05, 3.0, size=n)),
        alpha=float(rng.choice([0.5, 1.0, 2.0])),
        rho=float(rng.uniform(0.5, 3.0)))


def random_profit(rng, index):
    return ProfitCssParams(
        n=int(rng.integers(1, 12)), k=index % 3 + 1,
        rho=float(rng.uniform(0.5, 3.0)),
        founder_cost=float(rng.uniform(0.0, 2.0)),
        member_cost=float(rng.uniform(0.0, 1.0)))


def random_graph(rng, max_vertices=8, min_size=0, max_size=5):
    n_vertices = int(rng.integers(1, max_vertices + 1))
    vertices = [(f"v{i}", int(rng.integers(min_size, max_size + 1)))
                for i in range(n_vertices)]
    edges = [(f"v{i}", f"v{j}")
             for i in range(n_vertices) for j in range(i + 1, n_vertices)
             if rng.random() < 0.5]
    return OligopolyGraph.from_spec(vertices, edges,
                                    rho=float(rng.uniform(0.5, 2.0)))


def random_fine_graph(rng, max_roster=12):
    n_vertices = int(rng.integers(2, 4))
    sizes = [int(rng.integers(1, 4)) for _ in range(n_vertices)]
    while n_vertices + sum(sizes) > max_roster:
        sizes[int(rng.integers(0, n_vertices))] = 1
    vertices = [(f"v{i}", sizes[i]) for i in range(n_vertices)]
    edges = [(f"v{i}", f"v{j}")
             for i in range(n_vertices) for j in range(i + 1, n_vertices)
             if rng.random() < 0.6]
    return OligopolyGraph.from_spec(vertices, edges,
                                    rho=float(rng.uniform(0.5, 2.0)))


def random_census(rng, max_agents=8):
    m = int(rng.integers(1, max_agents + 1))
    counts = {}
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(1, m + 1))
        key = frozenset(
            rng.choice(np.arange(1, m + 1), size=size, replace=False).tolist())
        counts[key] = counts.get(key, 0) + int(rng.integers(0, 10))
    return DiskCensus(m, counts)


# --- criterion 1: closed forms match the exact engine everywhere -----------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2026)
    failures = []
    start = time.perf_counter()
    instances = 51
    for i in range(instances):
        params = random_single(rng, i)
        report = closed_single(params)
        compare_payoffs(f"single#{i} {params}",
                        report.as_allocation(),
                        shapley_exact(single_game(params)), failures)
    for i in range(instances):
        params = random_weighted(rng)
        compare_payoffs(f"weighted#{i}", closed_weighted(params).as_allocation(),
                        shapley_exact(weighted_game(params)), failures)
    for i in range(instances):
        params = random_profit(rng, i)
        compare_payoffs(f"profit#{i}", closed_profit(params).as_allocation(),
                        shapley_exact(profit_game(params)), failures)
    for i in range(instances):
        graph = random_graph(rng)
        compare_payoffs(f"coarse#{i}", shapley_coarse(graph),
                        shapley_exact(coarse_game(graph)), failures)
    for i in range(instances):
        graph = random_fine_graph(rng)
        compare_payoffs(f"fine#{i}", shapley_fine_closed(graph),
                        shapley_exact(fine_game(graph)), failures)
    for variant in ("lin", "met"):
        for i in range(instances):
            census = random_census(rng)
            params = GeoParams(census, rho=1.25, variant=variant)
            compare_payoffs(f"geo-{variant}#{i}", geo_shapley(params),
                            shapley_exact(geo_game(params)), failures)
        for i in range(instances):
            census = random_census(rng)
            params = GeoParams(census, rho=0.8, variant=variant)
            compare_payoffs(f"geo-founder-{variant}#{i}", geo_founder_shapley(params),
                            shapley_exact(geo_founder_game(params)), failures)
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    verdict(1, f"closed forms match the exact engine on 9 x {instances} "
               "random instances at 1e-9", failures, elapsed)


# --- criterion 2: limiting founder shares ------------------------------------------


def test_criterion_2_limiting_shares():
    start = time.perf_counter()
    failures = []
    share_k1 = closed_single(SingleCssParams(n=1000, k=1, rho=1.0)).founder_share
    if share_k1 != 0.5:
        failures.append(f"k=1 share {share_k1!r} is not exactly 0.5")
    share_k2 = closed_single(SingleCssParams(n=1000, k=2, rho=1.0)).founder_share
    if abs(share_k2 - 0.33350) > 1e-5:
        failures.append(f"k=2 share {share_k2} not within 1e-5 of 0.33350")
    share_k3 = closed_single(SingleCssParams(n=1000, k=3, rho=1.0)).founder_share
    if abs(share_k3 - 0.25) > 5e-4:
        failures.append(f"k=3 share {share_k3} not within 5e-4 of 0.25")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.3f}s, expected milliseconds")
    verdict(2, "founder share at n=1000 hits 1/2, ~1/3, ~1/4 for k=1,2,3",
            failures, elapsed)


# --- criterion 3: four-system agreement graph ---------------------------------------


def test_criterion_3_four_system_graph():
    start = time.perf_counter()
    failures = []
    graph = OligopolyGraph.from_spec(
        [("A", 1), ("B", 2), ("C", 3), ("D", 4)],
        [("A", "B"), ("C", "B"), ("C", "A"), ("B", "D")])
    closed = shapley_coarse(graph)
    if closed.payoffs != (6.0, 20.0, 18.0, 24.0):
        failures.append(f"closed payoffs {closed.payoffs} != (6, 20, 18, 24)")
    exact = shapley_exact(coarse_game(graph))
    compare_payoffs("diamond", closed, exact, failures, tol=1e-12)
    if value_coarse(graph, "ABCD") != 68.0:
        failures.append("full-graph value is not 68")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.3f}s, expected milliseconds")
    verdict(3, "diamond graph payoffs are exactly (6, 20, 18, 24)",
            failures, elapsed)


# --- criterion 4: founder-augmented geographic games ----------------------------------


def test_criterion_4_geo_founder_oracle_and_band():
    rng = np.random.default_rng(54)
    failures = []
    start = time.perf_counter()
    for i in range(60):
        census = random_census(rng)
        for variant in ("lin", "met"):
            closed = geo_founder_shapley(GeoParams(census, rho=1.0, variant=variant))
            exact = shapley_exact(geo_founder_game(GeoParams(census, rho=1.0, variant=variant)))
            compare_payoffs(f"census#{i}-{variant}", closed, exact, failures)
        met = geo_founder_shapley(GeoParams(census, rho=1.0, variant="met"))
        if met.grand_value > 0:
            share = met.payoffs[0] / met.grand_value
            if not (1 / 3 - 1e-12 <= share <= 0.5 + 1e-12):
                failures.append(f"census#{i}: met founder share {share} off band")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds seconds-scale budget")
    verdict(4, "founder-augmented geo games match the oracle; met founder "
               "share stays in [1/3, 1/2]", failures, elapsed)


# --- criterion 5: major/minor ratio band ------------------------------------------------


def test_criterion_5_major_ratio_band():
    rng = np.random.default_rng(55)
    failures = []
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        graph = random_graph(rng, max_vertices=7, min_size=1, max_size=9)
        for v in range(graph.n_vertices):
            ratio = fine_major_ratio(graph, v)
            if not (1 / 3 - 1e-12 <= ratio <= 0.5 + 1e-12):
                failures.append(f"ratio {ratio} outside [1/3, 1/2]")
        checked += 1
    isolated = fine_major_ratio(OligopolyGraph.from_spec([("v", 4)]), "v")
    if isolated != pytest.approx(1 / 3, abs=1e-15):
        failures.append(f"isolated ratio {isolated} != 1/3")
    dominated = fine_major_ratio(
        OligopolyGraph.from_spec([("v", 1), ("w", 1000)], [("v", "w")]), "v")
    if abs(dominated - 0.5) > 1e-3:
        failures.append(f"neighbor-dominated ratio {dominated} not near 1/2")
    elapsed = time.perf_counter() - start
    verdict(5, f"major share ratio within [1/3, 1/2] on {checked} random "
               "graphs, limits attained", failures, elapsed)


# --- criterion 6: headline payout share ---------------------------------------------------


def test_criterion_6_headline_payout_share():
    start = time.perf_counter()
    failures = []
    estimate = revenue_share(load_revenue_records(), 30.0,
                             parse_window("2018H2..2021H1"), "YouTube")
    if abs(estimate.share - 0.5479) > 5e-4:
        failures.append(f"share {estimate.share} not within 5e-4 of 0.5479")
    if estimate.window_revenue != pytest.approx(54.75, abs=1e-12):
        failures.append(f"window revenue {estimate.window_revenue} != 54.75")
    if not estimate.inside_band:
        failures.append("headline share not reported inside [1/2, 2/3]")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.3f}s, expected milliseconds")
    verdict(6, "bundled revenue table reproduces 30/54.75 = 0.5479 inside band",
            failures, elapsed)


# --- criterion 7: axiom suite over the model zoo --------------------------------------------


def model_zoo():
    yield "single k=1", single_game(SingleCssParams(n=5, k=1, rho=1.0))
    yield "single k=2", single_game(SingleCssParams(n=6, k=2, rho=2.0))
    yield "single k=3", single_game(SingleCssParams(n=4, k=3, rho=0.5))
    yield "weighted", weighted_game(
        WeightedCssParams(weights=(1.0, 2.0, 0.5, 1.5), alpha=1.0, rho=1.0))
    yield "profit", profit_game(
        ProfitCssParams(n=5, k=2, rho=1.0, founder_cost=0.5, member_cost=0.25))
    yield "coarse", coarse_game(OligopolyGraph.from_spec(
        [("A", 1), ("B", 2), ("C", 3), ("D", 4)],
        [("A", "B"), ("C", "B"), ("C", "A"), ("B", "D")]))
    yield "fine", fine_game(OligopolyGraph.from_spec(
        [("v", 2), ("w", 2)], [("v", "w")]))
    census = DiskCensus(3, {frozenset({1}): 4, frozenset({1, 2}): 2,
                            frozenset({2, 3}): 3, frozenset({3}): 1})
    yield "geo met", geo_game(GeoParams(census, rho=1.0, variant="met"))
    yield "geo founder lin", geo_founder_game(GeoParams(census, rho=1.0, variant="lin"))
    yield "geo founder met", geo_founder_game(GeoParams(census, rho=1.0, variant="met"))


def test_criterion_7_axiom_suite():
    failures = []
    start = time.perf_counter()
    for label, game in model_zoo():
        report = check_axioms(shapley_exact(game), values=coalition_value_table(game))
        if not report.all_ok:
            failures.append(f"{label}: axiom check failed ({report})")
    pairs = [
        (single_game(SingleCssParams(n=5, k=1)),
         single_game(SingleCssParams(n=5, k=2))),
        (single_game(SingleCssParams(n=4, k=2, rho=2.0)),
         profit_game(ProfitCssParams(n=4, k=2, rho=1.0, founder_cost=0.5))),
    ]
    for game_a, game_b in pairs:
        if not check_linearity(game_a, game_b).ok:
            failures.append(f"linearity failed: {game_a.label} + {game_b.label}")
    for k in (1, 2):
        for n in range(1, 11):
            game = single_game(SingleCssParams(n=n, k=k))
            if not supermodular_whole(coalition_value_table(game)):
                failures.append(f"single k={k} n={n} not reported supermodular")
    concave = CoalitionGame(4, lambda masks: np.sqrt(head_count(masks)), "sqrt of size")
    if supermodular_whole(coalition_value_table(concave)):
        failures.append("concave counterexample reported supermodular")
    elapsed = time.perf_counter() - start
    verdict(7, "efficiency/symmetry/null/linearity hold on the zoo; "
               "supermodularity classified correctly", failures, elapsed)


# --- criterion 8: performance envelope --------------------------------------------------------


def test_criterion_8_performance():
    failures = []
    game20 = CoalitionGame(20, lambda masks: head_count(masks) ** 2, "quadratic size")
    start = time.perf_counter()
    alloc = shapley_exact(game20)
    exact_time = time.perf_counter() - start
    if exact_time >= 10.0:
        failures.append(f"20-player exact run took {exact_time:.1f}s (>= 10s)")
    if alloc.total() != pytest.approx(400.0, abs=1e-9):
        failures.append("20-player payoffs do not sum to the grand value")

    game40 = CoalitionGame(40, lambda masks: head_count(masks) ** 2, "quadratic size")
    start = time.perf_counter()
    sampled = shapley_sample(game40, 100_000, seed=8)
    sample_time = time.perf_counter() - start
    if sample_time >= 30.0:
        failures.append(f"40-player sampler took {sample_time:.1f}s (>= 30s)")
    if sampled.stderr is None or any(not math.isfinite(e) or e < 0
                                     for e in sampled.stderr):
        failures.append("sampler did not report usable standard errors")
    if sampled.total() != pytest.approx(1600.0, rel=1e-9):
        failures.append("sampled payoffs do not telescope to the grand value")
    verdict(8, f"exact n=20 in {exact_time:.1f}s, sampled n=40 x 1e5 in "
               f"{sample_time:.1f}s", failures)
