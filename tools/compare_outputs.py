"""Compare the CLI output of two source trees over the benchmark's operations.

    python tools/compare_outputs.py OLD_SRC NEW_SRC --seed N

OLD_SRC and NEW_SRC are directories holding a `fairshare` package. Every
operation of the timed workloads and of `known_defects` is built with
`perfbench/gen.py` at the seed, its scenario files are written once, and the
operations are run through each tree's `fairshare.cli.main`, in one
subprocess per tree, as the benchmark runs them. The `invalid_scenarios`
operations run every case of `tests/invalid_scenarios.json` through
`validate`, through `solve --method all --format json`, whose flag replaces the
case's own method, and through `solve --format json`, and the
`invalid_records` operations run every case of `tests/invalid_records.json`
through `empirical --records`, so the error paths are compared too; a case's
file is written in its `encoding`, UTF-8 if it names none. The `formats`
operations render every bundled scenario through `solve --method all` and the
sweeps of `tests/test_golden.py` as text and as CSV, the renderers that no
other operation reaches. The `flags` operations solve one bundled scenario
under the `solve` flags that no workload passes, `--exact-cap`, `--seed` and
`--permutations`, at valid and at refused values. The `sampler` operations
solve every bundled scenario with `--method sample` at each seed and
permutation count of `SAMPLER_RUNS`, so the sampler's output bits are
compared on one join order, on two, and across a block edge. The `sweeps` operations
sweep every bundled scenario outside the golden sweeps, whose models do not
sweep, so the refusal is compared, refuse the crowd sizes of
`REFUSED_N_VALUES`, and render one text sweep at n = 10^22, wider than the
renderer's least `n` column. The `weights` operations solve
`weighted` scenarios with extreme weights and `geo` / `geo_founder`
censuses whose effective sizes are thirds and sevenths, under each of
`WEIGHTS_RUNS`, so the bits of the weight-sum tables are compared on inputs
that no generated workload draws. The `classes` operations solve, with
`--method exact`, rosters of 9 to 18 players that hold classes of
interchangeable players: `weighted` with repeated weights inside one byte of
the weight-sum table, in runs and alternating, and across the byte edge
between players 8 and 9, `geo` and `geo_founder` censuses with duplicate
agents, next to each other and apart, `oligopoly_fine` graphs with equal
crowds, and runs of at least six interchangeable neighbours: from the first
player, to the last, and broken by one different weight. So the exact
engine's payoff bits are compared where a player takes the payoff of the
least player of its class, where the byte sums keep it from doing so, and
where one swap check and one cycle check prove a whole run. The `graphs`
operations solve `oligopoly_coarse` rosters under each of `WEIGHTS_RUNS`:
agreements inside one byte of vertices and
across byte edges, crowds whose network sum is below 2^53, where no sum of
the coarse table rounds, at it and above it, where its sums round, and one
64-vertex graph, above the exact cap, that is sampled, so the bits of the
coarse table are compared on inputs that no generated workload draws. They
solve `oligopoly_fine` rosters the same way: of 17 to 22 players, one with
an empty crowd and one a triangle, and of 40 to 64, sampled, so the fine
table's bits are compared at the exact cap and at 64 players. The
`labels` operations solve every bundled scenario under each label of
`LABELS`, with quotes, backslashes, control characters, non-ASCII and JSON's
own punctuation, rendered as JSON, text and CSV, so the string escapes of
the JSON encoder are compared.
An uncaught exception is recorded as its type and message in place of the
exit code. The scenario directory is replaced by a fixed placeholder in
stdout and stderr. Each operation whose exit code, stdout or stderr differs
is listed, and the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

WORKLOADS = ("exact_cap", "audit_small", "sample_large", "closed_scale", "known_defects",
             "invalid_scenarios", "invalid_records", "formats", "flags", "sampler", "sweeps",
             "weights", "classes", "graphs", "labels")
CORPUS = ROOT / "tests" / "invalid_scenarios.json"
RECORDS_CORPUS = ROOT / "tests" / "invalid_records.json"
SCENARIO_DIR = ROOT / "scenarios"
# the sweeps of tests/test_golden.py
SWEEP_SCENARIOS = ("single_metcalfe", "profit_infra_costs", "weighted_trio")
SWEEP_N_VALUES = "1,2,10,1000"
# a crowd size whose digits overflow the least width of the text `n` column
WIDE_N = str(10 ** 22)
# crowd sizes that `sweep` refuses: descending, and below 1
REFUSED_N_VALUES = ("5,3", "0,1")
# the solve flags that no workload passes, each run on FLAGS_SCENARIO
FLAGS_SCENARIO = SCENARIO_DIR / "weighted_trio.json"
FLAG_SETS = tuple(("--exact-cap", cap, "--method", method)
                  for cap in ("-1", "0", "1") for method in ("exact", "all")) + (
    ("--seed", "-1"), ("--permutations", "0"),
    ("--method", "sample", "--seed", "3", "--permutations", "50"))
# (seed, permutations) of each sampled solve; 2501 join orders cross a
# block edge on every roster of 4 or more players
SAMPLER_RUNS = (("0", "1"), ("3", "2"), ("7", "2501"))
# weighted scenarios with a subnormal, 1e300 and thirds at alpha 0.5 and 1.5
# (31 weights go above the exact cap), and censuses whose users sit in
# threes and sevens
_CENSUS = {"1,2,3": 1, "2,4,5": 2, "1,2,3,4,5,6,7": 1, "1,3,5,6,7,8,9": 5, "9": 4,
           "4,8,9": 7, "6": 1}
_FOUNDER_CENSUS = {"1,2,3": 2, "2,3,4,5,6,7,8": 3, "1,4,7": 1, "5": 2, "1,2,3,4,5,6,7": 10}
WEIGHT_SCENARIOS = {
    "weighted-alpha0.5": ("weighted", {
        "weights": [5e-324, 1e300, 1 / 3, 2 / 3, 0.1, 1 / 7, 3.0, 2.5e-310, 1e-300, 5.0, 1 / 3],
        "alpha": 0.5, "rho": 1.0, "k": 2}),
    "weighted-alpha1.5": ("weighted", {
        "weights": [5e-324, 1e100, 1 / 3, 2 / 3, 0.1, 1 / 7, 3.0, 2.5e-310, 1e-200, 5.0],
        "alpha": 1.5, "rho": 1.0, "k": 2}),
    "weighted-thirds-31": ("weighted", {
        "weights": [(i % 7 + 1) / 3 if i % 2 else (i % 5 + 1) / 7 for i in range(30)] + [5e-324],
        "alpha": 1.0, "rho": 1.0, "k": 2}),
    "geo-met": ("geo", {"census": {"m": 9, "d": _CENSUS}, "variant": "met", "rho": 1.0}),
    "geo-lin": ("geo", {"census": {"m": 9, "d": _CENSUS}, "variant": "lin", "rho": 0.3}),
    "geo_founder-met": ("geo_founder", {"census": {"m": 8, "d": _FOUNDER_CENSUS},
                                        "variant": "met", "rho": 1.0}),
    "geo_founder-lin": ("geo_founder", {"census": {"m": 8, "d": _FOUNDER_CENSUS},
                                        "variant": "lin", "rho": 1.0}),
}
# rosters of 9-18 players with classes of interchangeable players; in the
# `-apart` ones, players 1, 3 and 5 are one class, and the `-run` ones hold
# a run of at least six interchangeable neighbours from player 0, to the top
# player, or two such runs on either side of one different weight
_DUPLICATES = {"1": 3, "2": 3, "3": 3, "4": 3, "5,6": 2, "7,8": 2, "9": 1, "10": 1, "11": 1,
               "12": 1}
CLASS_SCENARIOS = {
    "weighted-repeats-13": ("weighted", {
        "weights": [1 / 3] * 5 + [0.2, 0.7, 0.7, 0.7, 0.1, 0.1, 1 / 3],
        "alpha": 1.0, "rho": 1.0, "k": 2}),
    "weighted-tenths-18": ("weighted", {"weights": [0.1] * 17, "alpha": 1.0, "rho": 1.0, "k": 2}),
    "weighted-alpha0.5-9": ("weighted", {"weights": [2.5] * 4 + [0.3] * 4,
                                         "alpha": 0.5, "rho": 1.0, "k": 3}),
    "weighted-apart-9": ("weighted", {"weights": [0.3, 0.7] * 3 + [0.2, 0.2],
                                      "alpha": 1.0, "rho": 1.0, "k": 2}),
    "geo-met-12": ("geo", {"census": {"m": 12, "d": _DUPLICATES}, "variant": "met", "rho": 1.0}),
    "geo-lin-16": ("geo", {"census": {"m": 16, "d": {**_DUPLICATES, "13,14,15,16": 5}},
                           "variant": "lin", "rho": 0.3}),
    "geo-met-apart-10": ("geo", {"census": {"m": 10, "d": {
        "1": 4, "2": 3, "3": 5, "4": 3, "5": 6, "6": 3, "2,4,6": 1, "7": 2, "8": 1,
        "9": 7, "10": 7}}, "variant": "met", "rho": 1.0}),
    "geo_founder-met-11": ("geo_founder", {"census": {"m": 10, "d": {
        "1": 3, "2": 3, "3": 3, "4,5": 2, "6,7": 2, "8": 1, "9": 1, "10": 1}},
        "variant": "met", "rho": 1.0}),
    "oligopoly_fine-triangle-15": ("oligopoly_fine", {
        "vertices": [{"id": v, "size": 4} for v in "abc"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]], "rho": 1.0}),
    "oligopoly_fine-pair-18": ("oligopoly_fine", {
        "vertices": [{"id": v, "size": 8} for v in "ab"], "edges": [["a", "b"]], "rho": 2.0}),
    "geo-met-run-from-0-14": ("geo", {"census": {"m": 14, "d": {
        **{str(a): 3 for a in range(1, 11)}, "11": 1, "12": 4, "13": 6, "14": 2}},
        "variant": "met", "rho": 1.0}),
    "weighted-run-to-top-14": ("weighted", {"weights": [0.2, 0.9, 0.45] + [0.375] * 10,
                                            "alpha": 1.0, "rho": 1.0, "k": 2}),
    "weighted-run-broken-16": ("weighted", {"weights": [0.25] * 7 + [0.6] + [0.25] * 7,
                                            "alpha": 1.0, "rho": 1.0, "k": 2}),
}


def _graph(model: str, sizes: list[int], edges, rho: float) -> tuple[str, dict]:
    return (model, {
        "vertices": [{"id": f"s{v}", "size": n} for v, n in enumerate(sizes)],
        "edges": [[f"s{a}", f"s{b}"] for a, b in edges], "rho": rho})


_coarse = functools.partial(_graph, "oligopoly_coarse")
_fine = functools.partial(_graph, "oligopoly_fine")


# oligopoly_coarse rosters: the `-guard` ones have network sums of about
# 1.8 * 2^52, exactly 2^53 and 5.3 * 2^52, around the largest sum at which
# no sum of the coarse table rounds, and the byte edges sit between
# vertices 7 and 8, 15 and 16, ...
_NEAR_GUARD = [1 << 26, 1 << 25, 1 << 24, 7, 5, 3, 1, 0, 9, 2]
_NEAR_GUARD_EDGES = [(0, 2), (0, 3), (1, 4), (8, 9), (2, 9), (5, 8)]
GRAPH_SCENARIOS = {
    "inside-byte-8": _coarse([3, 1, 4, 1, 5, 9, 2, 6],
                             [(a, b) for a, b in itertools.combinations(range(8), 2)
                              if (a + b) % 3], 1.37),
    "across-bytes-17": _coarse([(5 * v) % 11 for v in range(17)],
                               [(v, v + 1) for v in range(16)]
                               + [(0, 16), (3, 12), (7, 15), (2, 5)], 0.3),
    "below-guard-10": _coarse(_NEAR_GUARD, _NEAR_GUARD_EDGES, 1.1),
    "at-guard-2": _coarse([1 << 26, 1 << 26], [], 1.1),
    "above-guard-10": _coarse([1 << 27] + _NEAR_GUARD[1:], _NEAR_GUARD_EDGES, 1.1),
    "sampled-64": _coarse([(7 * v) % 13 for v in range(64)],
                          [(v, (v + 1) % 64) for v in range(64)]
                          + [(v, v + 9) for v in range(0, 55, 6)], 0.7),
    # oligopoly_fine rosters of 17-22 players, under the exact cap, and of
    # 40-64, sampled; the `-64` ones are the two ends of the fine table's
    # integer sums: one crowd of 63, and 32 crowds of one on a complete graph
    "fine-empty-crowd-17": _fine([5, 0, 6, 2], [(0, 1), (1, 2), (0, 2), (2, 3)], 1.37),
    "fine-triangle-21": _fine([6, 6, 6], [(0, 1), (1, 2), (0, 2)], 1.0),
    "fine-cycle-22": _fine([7, 5, 4, 2], [(0, 1), (1, 2), (2, 3), (0, 3)], 0.3),
    "fine-sampled-40": _fine([12, 9, 8, 7], [(0, 1), (1, 2), (0, 2), (2, 3)], 2.5),
    "fine-one-crowd-64": _fine([63], [], 1.1),
    "fine-complete-64": _fine([1] * 32, itertools.combinations(range(32), 2), 0.7),
}
WEIGHTS_RUNS = (("--method", "all"), ("--method", "sample", "--seed", "3", "--permutations", "50"))
# scenario labels that the JSON encoder must escape: quotes and backslashes,
# every kind of control character, non-ASCII up to an astral character, and
# JSON's and CSV's own punctuation
LABELS = ('quote " backslash \\ slash / and \\u0041',
          "tab\t newline\n return\r nul\x00 unit\x1f del\x7f backspace\b",
          "\u00e9 \u00fc \u4e2d\u6587 \u2028 \U0001f600",
          '{"label": [1, 2.5, null]}, "csv,cell"')
PLACEHOLDER = "<scenario-dir>"

# Reads a JSON list of argv lists on stdin; writes one [exit code, stdout,
# stderr] per operation.
_RUN_ALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from fairshare.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _run_all(src: Path, argvs: list[list[str]], work_dir: Path) -> list[list]:
    done = subprocess.run([sys.executable, "-c", _RUN_ALL, str(src)],
                          input=json.dumps(argvs), capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"running the operations from {src} failed:\n{done.stderr}")
    return [[code, *(text.replace(str(work_dir), PLACEHOLDER) for text in (out, err))]
            for code, out, err in json.loads(done.stdout)]


def _corpus_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that validate and solve each invalid-scenario case."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops, argvs = [], []
    for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]:
        path = work_dir / f"{case['name']}.json"
        text = case["text"] if "text" in case else json.dumps(case["scenario"])
        path.write_text(text, encoding=case.get("encoding", "utf-8"))
        ops += [f"invalid_scenarios/{case['name']}/{op}"
                for op in ("validate", "solve", "solve-own-method")]
        argvs += [["validate", "--scenario", str(path)],
                  ["solve", "--scenario", str(path), "--method", "all", "--format", "json"],
                  ["solve", "--scenario", str(path), "--format", "json"]]
    return ops, argvs


def _records_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that run `empirical` on each invalid-records case."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops, argvs = [], []
    for case in json.loads(RECORDS_CORPUS.read_text(encoding="utf-8"))["cases"]:
        path = work_dir / f"{case['name']}.json"
        if "depth" in case:
            text = "[" * case["depth"] + "]" * case["depth"]
        else:
            text = case["text"] if "text" in case else json.dumps(case["records"])
        path.write_text(text, encoding=case.get("encoding", "utf-8"))
        ops.append(f"invalid_records/{case['name']}/empirical")
        argvs.append(["empirical", "--records", str(path), "--entity", "Z", "--payout", "1",
                      "--window", "2021", "--format", "json"])
    return ops, argvs


def _formats_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that render each bundled solve and golden sweep as text and CSV."""
    ops, argvs = [], []
    for fmt in ("text", "csv"):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            ops.append(f"formats/solve-{path.stem}/{fmt}")
            argvs.append(["solve", "--scenario", str(path), "--method", "all", "--format", fmt])
        for stem in SWEEP_SCENARIOS:
            ops.append(f"formats/sweep-{stem}/{fmt}")
            argvs.append(["sweep", "--scenario", str(SCENARIO_DIR / f"{stem}.json"),
                          "--n-values", SWEEP_N_VALUES, "--format", fmt])
    return ops, argvs


def _flags_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that solve `FLAGS_SCENARIO` under each of `FLAG_SETS`."""
    ops = [f"flags/{' '.join(flags)}" for flags in FLAG_SETS]
    argvs = [["solve", "--scenario", str(FLAGS_SCENARIO), *flags, "--format", "json"]
             for flags in FLAG_SETS]
    return ops, argvs


def _sampler_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that sample each bundled scenario at each of `SAMPLER_RUNS`."""
    ops, argvs = [], []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for seed, permutations in SAMPLER_RUNS:
            ops.append(f"sampler/{path.stem}/seed{seed}-p{permutations}")
            argvs.append(["solve", "--scenario", str(path), "--method", "sample",
                          "--seed", seed, "--permutations", permutations, "--format", "json"])
    return ops, argvs


def _sweeps_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that sweep each bundled scenario outside `SWEEP_SCENARIOS`,
    refuse each of `REFUSED_N_VALUES`, and render one text sweep at `WIDE_N`."""
    ops, argvs = [], []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        if path.stem not in SWEEP_SCENARIOS:
            ops.append(f"sweeps/refused-{path.stem}")
            argvs.append(["sweep", "--scenario", str(path), "--n-values", SWEEP_N_VALUES])
    stem = SWEEP_SCENARIOS[0]
    for n_values in REFUSED_N_VALUES:
        ops.append(f"sweeps/{stem}-n{n_values}")
        argvs.append(["sweep", "--scenario", str(SCENARIO_DIR / f"{stem}.json"),
                      "--n-values", n_values])
    ops.append(f"sweeps/{stem}-n{WIDE_N}/text")
    argvs.append(["sweep", "--scenario", str(SCENARIO_DIR / f"{stem}.json"),
                  "--n-values", WIDE_N, "--format", "text"])
    return ops, argvs


def _labels_ops(work_dir: Path) -> tuple[list[str], list[list[str]]]:
    """Op ids and argvs that solve each bundled scenario under each of `LABELS`,
    with its own method, as JSON, text and CSV."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops, argvs = [], []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for number, label in enumerate(LABELS):
            labelled = work_dir / f"{path.stem}-label{number}.json"
            labelled.write_text(json.dumps({**data, "label": label}), encoding="utf-8")
            for fmt in ("json", "text", "csv"):
                ops.append(f"labels/{path.stem}/label{number}/{fmt}")
                argvs.append(["solve", "--scenario", str(labelled), "--format", fmt])
    return ops, argvs


def _scenario_ops(workload: str, scenarios: dict, runs: tuple) -> Callable:
    """An ops builder that writes each of `scenarios` once and solves it
    under each flag set of `runs`, as op `workload/name/method`."""
    def ops_of(work_dir: Path) -> tuple[list[str], list[list[str]]]:
        work_dir.mkdir(parents=True, exist_ok=True)
        ops, argvs = [], []
        for name, (model, params) in scenarios.items():
            path = work_dir / f"{name}.json"
            path.write_text(json.dumps({"label": name, "model": model, "params": params,
                                        "method": "all"}), encoding="utf-8")
            for flags in runs:
                ops.append(f"{workload}/{name}/{flags[1]}")
                argvs.append(["solve", "--scenario", str(path), *flags, "--format", "json"])
        return ops, argvs

    return ops_of


_weights_ops = _scenario_ops("weights", WEIGHT_SCENARIOS, WEIGHTS_RUNS)
_classes_ops = _scenario_ops("classes", CLASS_SCENARIOS, (("--method", "exact"),))
_graphs_ops = _scenario_ops("graphs", GRAPH_SCENARIOS, WEIGHTS_RUNS)


# the workloads whose operations are fixed, not built by perfbench/gen.py
FIXED_OPS = {"invalid_scenarios": _corpus_ops, "invalid_records": _records_ops,
             "formats": _formats_ops, "flags": _flags_ops, "sampler": _sampler_ops,
             "sweeps": _sweeps_ops, "weights": _weights_ops, "classes": _classes_ops,
             "graphs": _graphs_ops, "labels": _labels_ops}


def compare(old_src: Path, new_src: Path, seed: int,
            workloads: tuple[str, ...] = WORKLOADS) -> tuple[int, list[str]]:
    """The number of operations run, and one line per operation that differs."""
    bundled = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SCENARIO_DIR.glob("*.json"))}
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        ops, argvs = [], []
        for name in workloads:
            if name in FIXED_OPS:
                fixed_ops, fixed_argvs = FIXED_OPS[name](work_dir / name)
                ops += fixed_ops
                argvs += fixed_argvs
                continue
            workload = gen.build_workload(name, seed, bundled)
            gen.write_files(workload, work_dir / name)
            ops += [f"{name}/{op.op_id}" for op in workload.ops]
            argvs += [op.argv(work_dir / name) for op in workload.ops]
        old = _run_all(old_src, argvs, work_dir)
        new = _run_all(new_src, argvs, work_dir)
    differ = []
    for op, a, b in zip(ops, old, new):
        fields = [field for field, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
        if fields:
            detail = f" ({a[0]!r} -> {b[0]!r})" if "exit" in fields else ""
            differ.append(f"{op}: {', '.join(fields)} differ{detail}")
    return len(ops), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    n_ops, differ = compare(args.old_src.resolve(), args.new_src.resolve(), args.seed)
    for line in differ:
        print(line)
    print(f"{len(differ)} of {n_ops} operations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
