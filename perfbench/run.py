"""Benchmark for the fairshare CLI.

Usage, from the root of a fairshare checkout:

    python3 perfbench/run.py --workload exact_cap --seed 1 --seconds 25 --trace 0

Each operation is one in-process `fairshare.cli.main(argv)` call with its
output captured, run as a closed loop on one thread: the next operation starts
when the previous one returns. A run makes one pass over the workload's
operations, then keeps going in the same order while each next operation is
expected to end within `--seconds`. It checks every output and prints the
metrics as the last line of stdout, as JSON. With `--trace 1` every
operation runs twice in a row, untraced then traced, and the per-layer
figures come from the traced calls.

Scenario files and the trace are written under `.perfbench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fairshare.cli; "
                "print(time.perf_counter() - t)")

# The machine the bounds were set on is a shared 2-vCPU VM whose speed drifts
# by 20-30% over seconds to minutes. So a fixed pure-Python loop is timed
# before an operation, at most every REFERENCE_EVERY seconds, and every time
# is reported at reference speed: measured x REFERENCE_SECONDS / (mean of the
# loop times just before and just after it). REFERENCE_SECONDS is about the
# loop's time on an unloaded core of that machine.
REFERENCE_ITERATIONS = 40_000
REFERENCE_SECONDS = 0.0025
REFERENCE_EVERY = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
              "op_s_p99": "s", "sample_s_to_1pct": "s", "peak_rss_mb": "MB"}

# span name -> (metric, charge self time rather than total, split by model)
SPAN_METRICS = {
    "cli.main": ("cli.main_self_s", True, False),
    "scenarios.load_scenario": ("scenarios.load_s", False, False),
    "scenarios.build_game": ("scenarios.build_game_s", False, False),
    "scenarios.closed_allocation": ("scenarios.closed_s", False, True),
    "scenarios.closed_report": ("scenarios.closed_s", False, True),
    "core.shapley_exact": ("core.exact_reduce_s", True, False),
    "core.coalition_value_table": ("core.table_s", False, True),
    "core.check_axioms": ("core.axioms_s", True, False),
    "core.shapley_sample": ("core.sample_s", False, True),
    "models.share_sweep": ("models.sweep_s", False, False),
    "reports.emit": ("reports.render_s", False, False),
    "empirical.revenue_share": ("empirical.share_s", False, False),
}
PER_LAYER = {name: "s" for name, _, _ in SPAN_METRICS.values()}
PER_LAYER.update({f"{name}.{model}": "s" for name, _, by_model in SPAN_METRICS.values()
                  if by_model for model in gen.MODELS})
PER_LAYER.update({"core.table_calls": "count", "core.value_evals": "count",
                  "core.sample_evals": "count", "core.exact_array_mb": "MB",
                  "reports.bytes_out": "bytes", "cli.ops": "count",
                  "trace.overhead_s": "s"})


class SpeedProbe:
    """Times the reference loop now and then; see REFERENCE_SECONDS."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loop_seconds: list[float] = []
        self._due = 0.0

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        end = time.perf_counter()
        self.starts.append(start)
        self.loop_seconds.append(end - start)
        self._due = end + REFERENCE_EVERY

    def factor(self, start: float, end: float) -> float:
        """Multiplier to reference speed for a time measured from start to end."""
        after = bisect.bisect_left(self.starts, end)
        near = self.loop_seconds[max(after - 1, 0):after + 1]
        return REFERENCE_SECONDS * len(near) / sum(near)


@dataclass
class Execution:
    op: gen.Op
    traced: bool
    started: float = 0.0
    seconds: float = 0.0            # measured; times `factor` for reference speed
    factor: float = 1.0
    sample_seconds: float = 0.0     # time inside shapley_sample
    reasons: list[str] = field(default_factory=list)
    bytes_out: int = 0
    players: int = 0                # roster size of a solve
    # (largest stderr / 1% of the mean payoff)^2 of a sampled solve
    sample_ratio2: float = 0.0
    spans: range = range(0)


class Runner:
    """Calls `fairshare.cli.main` once per operation and checks the output."""

    def __init__(self, work_dir: Path, tracer: Tracer | None, speed: SpeedProbe):
        from fairshare import cli, core, reports
        self.cli = cli
        self.render = reports.render
        self.work_dir = work_dir
        self.tracer = tracer
        self.speed = speed
        self.first_output: dict[str, bytes] = {}     # op id -> output digest
        self._report = None
        self._sample_seconds = 0.0
        # Probes stay on in untraced calls too: they keep the report for the
        # second render and time the sampler, at one extra call each.
        cli.emit = self._emit_probe(cli.emit)
        cli.shapley_sample = self._sample_probe(cli.shapley_sample)
        if tracer is not None:
            tracer.target(cli, "main", "load_scenario", "build_game",
                          "closed_allocation", "closed_report", "shapley_exact",
                          "shapley_sample", "check_axioms", "share_sweep",
                          "revenue_share", "emit")
            tracer.target(core, "coalition_value_table")

    def _emit_probe(self, emit):
        @functools.wraps(emit)
        def probe(report, fmt="text", destination=None):
            self._report = (report, fmt)
            return emit(report, fmt, destination)
        return probe

    def _sample_probe(self, sample):
        @functools.wraps(sample)
        def probe(*args, **kwargs):
            start = time.perf_counter()
            try:
                return sample(*args, **kwargs)
            finally:
                self._sample_seconds += time.perf_counter() - start
        return probe

    def execute(self, op: gen.Op, traced: bool) -> Execution:
        self.speed.sample_if_due()
        result = Execution(op, traced)
        argv = op.argv(self.work_dir)
        self._report, self._sample_seconds = None, 0.0
        if traced:
            first_span = len(self.tracer.spans)
            self.tracer.op = op.op_id
            self.tracer.install()
        out, err = io.StringIO(), io.StringIO()
        code = crash = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result.started = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                finally:
                    result.seconds = time.perf_counter() - result.started
        except SystemExit as exc:          # argparse rejects its arguments
            code = exc.code
        except Exception as exc:           # keep the run going; record why
            where = traceback.extract_tb(exc.__traceback__)[-1]
            crash = (f"{type(exc).__name__}: {exc} "
                     f"({Path(where.filename).name}:{where.lineno})")
        finally:
            if traced:
                self.tracer.uninstall()
                result.spans = range(first_span, len(self.tracer.spans))
        stdout = out.getvalue()
        result.bytes_out = len(stdout.encode("utf-8"))
        result.sample_seconds = self._sample_seconds
        if crash is not None:
            result.reasons = [crash]
        else:
            rerendered = None if self._report is None else self.render(*self._report)
            try:
                result.reasons = check.check_output(
                    op.command, list(op.args), code, stdout, rerendered,
                    self.first_output.get(op.op_id))
                if not result.reasons and op.command == "solve":
                    _read_solve(result, json.loads(stdout))
            except (KeyError, TypeError, ValueError) as exc:
                result.reasons = [f"output is not in the expected form: {exc!r}"]
            if code != 0 and err.getvalue():
                result.reasons.append(err.getvalue().strip())
        if not result.reasons:
            self.first_output.setdefault(op.op_id, check.digest(stdout))
        return result


def _read_solve(result: Execution, payload: dict) -> None:
    result.players = len(payload["players"])
    sampled = payload["allocations"].get("sampled")
    if sampled is not None:
        target = 0.01 * abs(sampled["grand_value"]) / len(sampled["payoffs"])
        result.sample_ratio2 = (max(sampled["stderr"]) / target) ** 2


def run_passes(runner: Runner, ops: tuple[gen.Op, ...], seconds: float,
               traced: bool) -> tuple[list[Execution], int]:
    """One pass over `ops`, then further operations in the same order while
    each is expected, from its previous time, to end within `seconds`."""
    executions: list[Execution] = []
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    for passes in itertools.count():
        for op in ops:
            if passes and time.perf_counter() + last[op.op_id] > deadline:
                return executions, passes
            start = time.perf_counter()
            executions.append(runner.execute(op, traced=False))
            if traced:
                executions.append(runner.execute(op, traced=True))
            last[op.op_id] = time.perf_counter() - start


def _ok_ops(executions: list[Execution]) -> dict[str, list[Execution]]:
    """Executions grouped by operation, for operations that never failed."""
    grouped: dict[str, list[Execution]] = defaultdict(list)
    for execution in executions:
        grouped[execution.op.op_id].append(execution)
    return {op_id: runs for op_id, runs in grouped.items()
            if not any(run.reasons for run in runs)}


def end_to_end(executions: list[Execution], setup_s: float) -> dict[str, float]:
    ops = _ok_ops(executions)
    # each operation's median over the run; percentiles are taken over
    # operations, so every operation counts once however often it ran
    medians = sorted(statistics.median(run.seconds * run.factor for run in runs)
                     for runs in ops.values())
    wall = sum(medians)
    # the sampler time each sampled solve would need for a largest stderr of
    # 1% of the mean payoff: stderr shrinks as 1 / sqrt(time)
    to_1pct = sum(statistics.median(run.sample_seconds * run.factor * run.sample_ratio2
                                    for run in runs)
                  for runs in ops.values() if runs[0].sample_seconds > 0)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(medians) / wall if wall > 0 else 0.0,
        "op_s_p50": statistics.median(medians) if medians else 0.0,
        "op_s_p99": statistics.quantiles(medians, n=100, method="inclusive")[98]
        if len(medians) > 1 else wall,
        "sample_s_to_1pct": to_1pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_figures(execution: Execution, spans, selfs: list[float]) -> dict[str, float]:
    """Per-layer figures of one traced execution."""
    model = execution.op.model
    figures: dict[str, float] = defaultdict(float)
    figures["reports.bytes_out"] = execution.bytes_out
    for index in execution.spans:
        span = spans[index]
        metric, charge_self, by_model = SPAN_METRICS[span.name]
        seconds = (selfs[index] if charge_self else span.end - span.start) * execution.factor
        figures[metric] += seconds
        if by_model and model is not None:
            figures[f"{metric}.{model}"] += seconds
        if span.name == "cli.main":
            figures["core.value_evals"] += span.evals
        elif span.name == "core.coalition_value_table":
            figures["core.table_calls"] += 1
        elif span.name == "core.shapley_sample":
            figures["core.sample_evals"] += span.evals
        elif span.name == "core.shapley_exact":
            # computed, not measured: the value table, mask and size arrays
            # shapley_exact keeps for the whole solve, 8 bytes per coalition
            figures["core.exact_array_mb"] = 3 * 8 * 2 ** execution.players / 2 ** 20
    return figures


def per_layer(executions: list[Execution], tracer: Tracer) -> dict[str, float]:
    selfs = self_times(tracer.spans)
    ops = _ok_ops(executions)
    totals = dict.fromkeys(PER_LAYER, 0.0)
    untraced_wall = traced_wall = 0.0
    for runs in ops.values():
        traced = [run for run in runs if run.traced]
        figures = [layer_figures(run, tracer.spans, selfs) for run in traced]
        for metric in PER_LAYER:
            value = statistics.median(f.get(metric, 0.0) for f in figures)
            if metric == "core.exact_array_mb":
                totals[metric] = max(totals[metric], value)
            else:
                totals[metric] += value
        traced_wall += statistics.median(run.seconds * run.factor for run in traced)
        untraced_wall += statistics.median(run.seconds * run.factor
                                           for run in runs if not run.traced)
    totals["cli.ops"] = len(ops)
    totals["trace.overhead_s"] = traced_wall - untraced_wall
    return totals


def read_bundled() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "scenarios").glob("*.json"))}


def set_up(name: str, seed: int, work_dir: Path,
           speed: SpeedProbe) -> tuple[float, gen.Workload]:
    """Import fairshare in a fresh interpreter, then generate and write the
    workload's files; repeated, and the median total returned."""
    totals = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=120)
        shutil.rmtree(work_dir, ignore_errors=True)
        generate = time.perf_counter()
        workload = gen.build_workload(name, seed, read_bundled())
        gen.write_files(workload, work_dir)
        end = time.perf_counter()
        speed.sample()
        totals.append((float(probe.stdout) + end - generate) * speed.factor(start, end))
    return statistics.median(totals), workload


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairshare" / "cli.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a fairshare checkout (src/fairshare and "
              "scenarios/ are missing)", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}"
    speed = SpeedProbe()
    setup_s, workload = set_up(args.workload, args.seed, work_dir, speed)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None
    runner = Runner(work_dir, tracer, speed)
    executions, passes = run_passes(runner, workload.ops, args.seconds, bool(args.trace))

    speed.sample()
    for run in executions:
        run.factor = speed.factor(run.started, run.started + run.seconds)
    factor = statistics.median(run.factor for run in executions)
    failed = [run for run in executions if run.reasons]
    if args.trace:
        metrics = _metrics(per_layer(executions, tracer), PER_LAYER)
        tracer.write(work_dir / "spans.jsonl")
    else:
        metrics = _metrics(end_to_end(executions, setup_s), END_TO_END)
    print(f"workload {args.workload}, seed {args.seed}: {len(workload.ops)} "
          f"operations (the op_s_p50 / op_s_p99 sample count), {passes} full "
          f"passes, {len(executions)} executions, {len(failed)} failed "
          f"(ops_failed_frac {len(failed) / len(executions):.4g}); "
          f"{len(speed.starts)} reference loop samples; times below are at "
          f"reference speed, measured x {factor:.4g} (median)")
    for op_id in sorted({run.op.op_id for run in failed}):
        reasons = next(run.reasons for run in failed if run.op.op_id == op_id)
        print(f"  FAILED {op_id}: {'; '.join(reasons)}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(executions),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
