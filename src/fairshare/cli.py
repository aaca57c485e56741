"""Command-line interface: solve, sweep, empirical, validate.

Exit codes: 0 success, 2 validation failure, 3 computational cap exceeded,
4 I/O error. The exact-engine cap is --exact-cap, which defaults to
`DEFAULT_EXACT_CAP`; a sample is capped at `MAX_SAMPLE_MASKS` coalition values.

A game is built without numpy and computed with it, so only
`solve --method exact|sample|all` loads numpy: `validate`, `sweep`,
`empirical` and a closed solve never do.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from fairshare import core
from fairshare.checks import ParamsError, check_int
from fairshare.core import (
    DEFAULT_EXACT_CAP,
    MAX_SAMPLE_MASKS,
    RosterTooLargeError,
    check_axioms,
    shapley_exact,
    shapley_sample,
)
from fairshare.empirical import load_revenue_records, parse_window, revenue_share
from fairshare.models import share_sweep
from fairshare.reports import EmpiricalReport, SolveReport, SweepReport, emit
from fairshare.scenarios import (
    METHODS,
    MODELS,
    SAMPLE_MINIMUMS,
    SWEEPABLE,
    SampleConfig,
    Scenario,
    build_game,
    closed_allocation,
    closed_report,
    load_scenario,
    scenario_to_data,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_IO = 4

def _max_gap(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a.payoffs, b.payoffs))


def _check_finite(where: str, numbers: Sequence[float]) -> None:
    """Refuse a result a float cannot hold: JSON has no NaN or Infinity."""
    if not all(map(math.isfinite, numbers)):
        raise ParamsError([f"{where}: result is not finite (a value overflows a float)"])


def solve_scenario(scenario: Scenario, *, exact_cap: int = DEFAULT_EXACT_CAP) -> SolveReport:
    """Run the scenario's requested method(s) and assemble a report.

    method=all runs the closed form, the exact engine (when the roster fits
    under the cap), the sampler (when the scenario has a sample config of at
    most `MAX_SAMPLE_MASKS` coalition values), the
    axiom checks, and the cross-method discrepancy table. The axiom checks
    reuse the exact engine's coalition table when they scan the whole roster.
    """
    game = build_game(scenario)
    method = scenario.method
    allocations = {}
    notes = []
    report = values = None
    if method in ("closed", "all"):
        report = closed_report(scenario)
        allocations["closed_form"] = (closed_allocation(scenario) if report is None
                                      else report.as_allocation())
    if method != "closed":
        import numpy as np
        # an overflow is refused below, by name, rather than warned about here
        with np.errstate(over="ignore", invalid="ignore"):
            if method in ("exact", "all"):
                if game.n_players <= exact_cap:
                    # through `core`, so a wrapper on it there sees every table build
                    values = core.coalition_value_table(game, cap=exact_cap)
                    allocations["exact"] = shapley_exact(game, values=values)
                elif method == "exact":
                    raise RosterTooLargeError(
                        f"exact method requested for {game.n_players} players, above the "
                        f"cap of {exact_cap}; raise --exact-cap or use method 'sample'")
                else:
                    notes.append(
                        f"exact engine skipped: {game.n_players} players above cap {exact_cap}")
            if method == "sample" or (method == "all" and scenario.sample is not None):
                cfg = scenario.sample or SampleConfig()
                masks = cfg.permutations * game.n_players
                if masks <= MAX_SAMPLE_MASKS:
                    allocations["sampled"] = shapley_sample(game, cfg.permutations, cfg.seed)
                elif method == "sample":
                    raise RosterTooLargeError(
                        f"sample.permutations: {cfg.permutations} permutations of "
                        f"{game.n_players} players need {masks} coalition values, above the "
                        f"sampler's cap of {MAX_SAMPLE_MASKS}; lower --permutations")
                else:
                    notes.append(f"sampler skipped: {cfg.permutations} permutations of "
                                 f"{game.n_players} players above cap {MAX_SAMPLE_MASKS} "
                                 "coalition values")

    for key, alloc in allocations.items():
        _check_finite(key, alloc.payoffs + (alloc.grand_value,) + (alloc.stderr or ())
                      + (alloc.shares() or ()))

    keys = list(allocations)
    discrepancies = {}
    for pos, key_a in enumerate(keys):
        for key_b in keys[pos + 1:]:
            discrepancies[f"{key_a}_vs_{key_b}"] = _max_gap(
                allocations[key_a], allocations[key_b])

    axioms = None
    if method == "all":
        reference = allocations.get("exact", allocations["closed_form"])
        axioms = check_axioms(game, reference, values=values)

    diagnostics = None
    if report is not None:
        diagnostics = {
            "founder_share": report.founder_share,
            "crowd_share": report.crowd_share,
            "founder_to_crowd_ratio": report.founder_to_crowd_ratio,
            "asymptotic_founder_share": report.asymptotic_founder_share,
            "degenerate": report.degenerate,
        }

    return SolveReport(scenario_to_data(scenario), game.players, allocations,
                       discrepancies, axioms, diagnostics, tuple(notes))


def sweep_scenario(scenario: Scenario, n_values: Sequence[int]) -> SweepReport:
    if scenario.model not in SWEEPABLE:
        *names, last = SWEEPABLE
        raise ParamsError(
            [f"model: '{scenario.model}' does not support sweeping; "
             f"use {', '.join(names)}, or {last}"])
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ParamsError(["--n-values: crowd sizes must be strictly ascending"])
    if min(n_values, default=1) < 1:
        raise ParamsError(["--n-values: crowd sizes must be >= 1"])
    rows = share_sweep(MODELS[scenario.model].closed, scenario.params, list(n_values))
    for row in rows:  # a degenerate row has no shares
        _check_finite(f"n={row.n}", (row.founder_payoff, row.grand_value,
                                     row.founder_share or 0.0, row.crowd_share or 0.0))
    return SweepReport(scenario_to_data(scenario), rows)


# --- argument parsing -----------------------------------------------------------

def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="text", help="output format (default: text)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairshare",
        description="Shapley revenue sharing for crowd-sourced systems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="allocate one scenario")
    solve.add_argument("--scenario", required=True, metavar="PATH")
    solve.add_argument("--method", choices=METHODS,
                       default=None, help="override the scenario's method")
    solve.add_argument("--seed", type=int, default=None,
                       help="sampler seed override")
    solve.add_argument("--permutations", type=int, default=None,
                       help="sampler permutation count override")
    solve.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP,
                       help=f"exact engine player cap (default {DEFAULT_EXACT_CAP})")
    _add_output_flags(solve)

    sweep = sub.add_parser("sweep", help="closed-form shares across crowd sizes")
    sweep.add_argument("--scenario", required=True, metavar="PATH")
    sweep.add_argument("--n-values", required=True, metavar="N1,N2,...",
                       help="ascending crowd sizes, comma separated")
    _add_output_flags(sweep)

    empirical = sub.add_parser(
        "empirical", help="payout share of windowed revenue vs the [1/2, 2/3] band")
    empirical.add_argument("--payout", type=float, required=True,
                           help="total payout over the window (same units as revenue)")
    empirical.add_argument("--window", required=True,
                           help="half-year window, e.g. 2018H2..2021H1")
    empirical.add_argument("--entity", default="YouTube")
    empirical.add_argument("--records", default=None, metavar="PATH",
                           help="revenue table (default: bundled dataset)")
    _add_output_flags(empirical)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--scenario", required=True, metavar="PATH")

    return parser


# argparse keeps no state between parses (each fills a new Namespace, and no
# action here has a mutable default), so one parser, built on first use, serves all
_parser = functools.cache(build_parser)


def _cmd_solve(args: argparse.Namespace) -> int:
    sample = {key: getattr(args, key) for key in ("seed", "permutations")
              if getattr(args, key) is not None}
    errors: list[str] = []
    for key in sample:
        check_int(sample, key, errors, prefix="", minimum=SAMPLE_MINIMUMS[key])
    check_int({"exact-cap": args.exact_cap}, "exact-cap", errors, prefix="", minimum=1)
    if errors:
        raise ParamsError([f"--{error}" for error in errors])
    scenario = load_scenario(args.scenario, method=args.method, sample=sample)
    report = solve_scenario(scenario, exact_cap=args.exact_cap)
    emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        n_values = [int(part) for part in args.n_values.split(",")]
    except ValueError:
        raise ParamsError(
            [f"--n-values: expected comma-separated integers, got {args.n_values!r}"]
        ) from None
    report = sweep_scenario(scenario, n_values)
    emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_empirical(args: argparse.Namespace) -> int:
    records = load_revenue_records(args.records)
    window = parse_window(args.window)
    estimate = revenue_share(records, args.payout, window, args.entity)
    emit(EmpiricalReport(estimate), args.format, args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)  # raises ParamsError on any problem
    print(f"ok: {args.scenario} ({scenario.model}, method={scenario.method})")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "sweep": _cmd_sweep,
                "empirical": _cmd_empirical, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ParamsError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except RosterTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
