"""Command-line interface: solve, sweep, empirical, validate.

Exit codes: 0 success, 2 validation failure, 3 computational cap exceeded,
4 I/O error. The exact-engine cap comes from --exact-cap, then the
FAIRSHARE_EXACT_CAP environment variable, then the built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from fairshare.core import (
    DEFAULT_EXACT_CAP,
    RosterTooLargeError,
    check_axioms,
    shapley_exact,
    shapley_sample,
)
from fairshare.empirical import load_revenue_records, parse_window, revenue_share
from fairshare.models import share_sweep
from fairshare.reports import EmpiricalReport, SolveReport, SweepReport, emit
from fairshare.scenarios import (
    MODELS,
    SampleConfig,
    Scenario,
    ScenarioError,
    build_game,
    closed_allocation,
    closed_report,
    load_scenario,
    scenario_to_data,
    validate_scenario_data,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_IO = 4

ENV_EXACT_CAP = "FAIRSHARE_EXACT_CAP"


def resolve_exact_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_EXACT_CAP)
    if env is None:
        return DEFAULT_EXACT_CAP
    try:
        return int(env)
    except ValueError:
        raise ScenarioError(
            [f"{ENV_EXACT_CAP}: expected an integer, got {env!r}"]) from None


def _max_gap(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a.payoffs, b.payoffs))


def solve_scenario(scenario: Scenario, *, exact_cap: int | None = None,
                   sample_config: SampleConfig | None = None) -> SolveReport:
    """Run the scenario's requested method(s) and assemble a report.

    method=all runs the closed form, the exact engine (when the roster fits
    under the cap), the sampler (when a sample config exists), the axiom
    checks, and the cross-method discrepancy table.
    """
    cap = resolve_exact_cap(exact_cap)
    game = build_game(scenario)
    sample_cfg = sample_config or scenario.sample
    method = scenario.method
    allocations = {}
    notes = []
    report = None
    if method in ("closed", "all"):
        report = closed_report(scenario)
        allocations["closed_form"] = (closed_allocation(scenario) if report is None
                                      else report.as_allocation())
    if method in ("exact", "all"):
        if game.n_players <= cap:
            allocations["exact"] = shapley_exact(game, cap=cap)
        elif method == "exact":
            raise RosterTooLargeError(
                f"exact method requested for {game.n_players} players, above the "
                f"cap of {cap}; raise --exact-cap or use method 'sample'")
        else:
            notes.append(
                f"exact engine skipped: {game.n_players} players above cap {cap}")
    if method == "sample" or (method == "all" and sample_cfg is not None):
        cfg = sample_cfg or SampleConfig()
        allocations["sampled"] = shapley_sample(game, cfg.permutations, cfg.seed)

    keys = list(allocations)
    discrepancies = {}
    for pos, key_a in enumerate(keys):
        for key_b in keys[pos + 1:]:
            discrepancies[f"{key_a}_vs_{key_b}"] = _max_gap(
                allocations[key_a], allocations[key_b])

    axioms = None
    if method == "all":
        reference = allocations.get("exact", allocations["closed_form"])
        axioms = check_axioms(game, reference)

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
    if not hasattr(scenario.params, "closed_at"):  # see models.CssParams
        *names, last = [name for name, spec in MODELS.items()
                        if hasattr(spec.parse, "closed_at")]
        raise ScenarioError(
            [f"model: '{scenario.model}' does not support sweeping; "
             f"use {', '.join(names)}, or {last}"])
    table = share_sweep(scenario.params, list(n_values))
    return SweepReport(scenario_to_data(scenario), table)


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
    solve.add_argument("--method", choices=("closed", "exact", "sample", "all"),
                       default=None, help="override the scenario's method")
    solve.add_argument("--seed", type=int, default=None,
                       help="sampler seed override")
    solve.add_argument("--permutations", type=int, default=None,
                       help="sampler permutation count override")
    solve.add_argument("--exact-cap", type=int, default=None,
                       help=f"exact engine player cap (default {DEFAULT_EXACT_CAP}, "
                            f"or ${ENV_EXACT_CAP})")
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


def _sample_override(args: argparse.Namespace,
                     scenario: Scenario) -> SampleConfig | None:
    if args.seed is None and args.permutations is None:
        return None
    errors = []
    if args.seed is not None and args.seed < 0:
        errors.append(f"--seed: must be >= 0, got {args.seed}")
    if args.permutations is not None and args.permutations < 1:
        errors.append(f"--permutations: must be >= 1, got {args.permutations}")
    if errors:
        raise ScenarioError(errors)
    base = scenario.sample or SampleConfig()
    return SampleConfig(
        permutations=args.permutations if args.permutations is not None
        else base.permutations,
        seed=args.seed if args.seed is not None else base.seed)


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.method is not None:
        scenario = dataclasses.replace(scenario, method=args.method)
    report = solve_scenario(scenario, exact_cap=args.exact_cap,
                            sample_config=_sample_override(args, scenario))
    emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        n_values = [int(part) for part in args.n_values.split(",")]
    except ValueError:
        raise ScenarioError(
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
    scenario = load_scenario(args.scenario)  # raises ScenarioError on any problem
    data = scenario_to_data(scenario)
    residual = validate_scenario_data(data)
    if residual:  # round-trip violations would be a bug, not a user error
        raise ScenarioError(residual)
    print(f"ok: {args.scenario} ({scenario.model}, method={scenario.method})")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "sweep": _cmd_sweep,
                "empirical": _cmd_empirical, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
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
