"""Tests for tools/compare_outputs.py, the output-identity check of two trees."""

import importlib.util
import json
from pathlib import Path

from fairshare import models
from fairshare.oligopoly import network_sum

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself_on_the_known_defects():
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("known_defects",))
    assert (n_ops, differ) == (16, [])


def test_a_tree_matches_itself_on_the_invalid_scenarios():
    tool = load_tool()
    n_cases = len(json.loads(tool.CORPUS.read_text(encoding="utf-8"))["cases"])
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("invalid_scenarios",))
    assert (n_ops, differ) == (3 * n_cases, [])


def test_a_tree_matches_itself_on_the_invalid_records():
    tool = load_tool()
    n_cases = len(json.loads(tool.RECORDS_CORPUS.read_text(encoding="utf-8"))["cases"])
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("invalid_records",))
    assert (n_ops, differ) == (n_cases, [])


def test_a_tree_matches_itself_on_the_formats(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("formats",))
    assert (n_ops, differ) == (24, [])
    # every operation renders a report: a tree that fails them all matches itself too
    _, argvs = tool._formats_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    assert all(code == 0 and out and not err for code, out, err in results)


def test_a_tree_matches_itself_on_the_flags(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("flags",))
    assert (n_ops, differ) == (9, [])
    # each operation solves, or is refused with one error line and no report:
    # exit 2 for a bad flag, exit 3 for the 4-player exact solve above a cap of 1
    _, argvs = tool._flags_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    assert [code for code, _, _ in results] == [2, 2, 2, 2, 3, 0, 2, 2, 0]
    for code, out, err in results:
        assert (code == 0 and out and not err) or (
            not out and len(err.splitlines()) == 1 and err.startswith("error: "))


def test_a_tree_matches_itself_on_the_sampler(tmp_path):
    tool = load_tool()
    n_scenarios = len(list(tool.SCENARIO_DIR.glob("*.json")))
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("sampler",))
    assert (n_ops, differ) == (3 * n_scenarios, [])
    # every operation prints a sampled allocation, with its stderr
    ops, argvs = tool._sampler_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    for op, (code, out, err) in zip(ops, results):
        assert (code, err) == (0, ""), op
        assert "stderr" in out, op


def test_a_tree_matches_itself_on_the_sweeps(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("sweeps",))
    assert (n_ops, differ) == (9, [])
    # the golden sweeps hold every bundled scenario whose model sweeps
    models_of = {path.stem: json.loads(path.read_text(encoding="utf-8"))["model"]
                 for path in tool.SCENARIO_DIR.glob("*.json")}
    assert {models_of[stem] for stem in tool.SWEEP_SCENARIOS} == set(models.SPECS)
    ops, argvs = tool._sweeps_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    *refused, descending, below_one, (code, out, err) = results
    # a refused list of crowd sizes names the flag
    assert descending == [2, "", "error: --n-values: crowd sizes must be strictly ascending\n"]
    assert below_one == [2, "", "error: --n-values: crowd sizes must be >= 1\n"]
    for op, (code_r, out_r, err_r) in zip(ops, refused):
        assert models_of[op.removeprefix("sweeps/refused-")] not in models.SPECS
        assert (code_r, out_r) == (2, "")
        assert err_r.startswith("error: model: '") and err_r.endswith(
            "' does not support sweeping; use single, weighted, or profit\n")
    # the wide sweep renders its row under the header's columns
    assert (code, err) == (0, "")
    _, header, row, _ = out.splitlines()
    assert len(row) == len(header) and row.startswith(tool.WIDE_N)


def test_a_tree_matches_itself_on_the_weights(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("weights",))
    assert (n_ops, differ) == (2 * len(tool.WEIGHT_SCENARIOS), [])
    assert {model for model, _ in tool.WEIGHT_SCENARIOS.values()} == {
        "weighted", "geo", "geo_founder"}
    # every operation solves: the extreme weights pass validation
    ops, argvs = tool._weights_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    for op, (code, out, err) in zip(ops, results):
        assert (code, err) == (0, ""), op
        assert "payoffs" in out, op


def test_a_tree_matches_itself_on_the_classes(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("classes",))
    assert (n_ops, differ) == (len(tool.CLASS_SCENARIOS), [])
    assert {model for model, _ in tool.CLASS_SCENARIOS.values()} == {
        "weighted", "geo", "geo_founder", "oligopoly_fine"}
    # every operation solves exactly, at 9 to 18 players, and some neighbours
    # share a payoff; in the `-apart` rosters, so do players 1, 3 and 5
    ops, argvs = tool._classes_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    for op, (code, out, err) in zip(ops, results):
        assert (code, err) == (0, ""), op
        payoffs = json.loads(out)["allocations"]["exact"]["payoffs"]
        assert 9 <= len(payoffs) <= 18, op
        assert any(a == b for a, b in zip(payoffs, payoffs[1:])), op
        assert "-apart-" not in op or payoffs[1] == payoffs[3] == payoffs[5], op


def test_a_tree_matches_itself_on_the_graphs(tmp_path):
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("graphs",))
    assert (n_ops, differ) == (2 * len(tool.GRAPH_SCENARIOS), [])
    sums, inside_a_byte, vertices = [], set(), []
    for model, params in tool.GRAPH_SCENARIOS.values():
        assert model == "oligopoly_coarse"
        sizes = {v["id"]: v["size"] for v in params["vertices"]}
        sums.append(network_sum(sizes.values(), [sizes[a] * sizes[b] for a, b in params["edges"]]))
        inside_a_byte.update(int(a[1:]) >> 3 == int(b[1:]) >> 3 for a, b in params["edges"])
        vertices.append(len(sizes))
    # network sums on both sides of 2^53, where the coarse table's sums
    # start to round, and at it, and
    # agreements inside a byte and across byte edges
    assert min(sums) < 1 << 52 < max(s for s in sums if s < 1 << 53)
    assert 1 << 53 in sums and max(sums) > 1 << 53
    assert inside_a_byte == {True, False} and max(vertices) == 64
    ops, argvs = tool._graphs_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    for op, (code, out, err) in zip(ops, results):
        assert (code, err) == (0, ""), op
        allocations = json.loads(out)["allocations"]
        assert ("exact" in allocations) == (op.endswith("/all") and "-64/" not in op), op


def test_a_tree_matches_itself_on_the_labels(tmp_path):
    tool = load_tool()
    n_scenarios = len(list(tool.SCENARIO_DIR.glob("*.json")))
    n_ops, differ = tool.compare(ROOT / "src", ROOT / "src", 5, ("labels",))
    assert (n_ops, differ) == (3 * len(tool.LABELS) * n_scenarios, [])
    # every operation solves; the JSON echoes the label as written, and the
    # text prints it raw
    ops, argvs = tool._labels_ops(tmp_path)
    results = tool._run_all(ROOT / "src", argvs, tmp_path)
    for op, (code, out, err) in zip(ops, results):
        assert (code, err) == (0, ""), op
        label = tool.LABELS[int(op.split("/")[2].removeprefix("label"))]
        if op.endswith("/json"):
            assert out.isascii() and json.loads(out)["scenario"]["label"] == label, op
        elif op.endswith("/text"):
            assert out.startswith(f"scenario: {label} (model="), op
        else:
            assert out.startswith("player_id,tag,payoff,share\n"), op


def test_a_changed_tree_is_listed_op_by_op(tmp_path):
    package = tmp_path / "fairshare"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print(argv[0])\n    return 0\n")
    tool = load_tool()
    n_ops, differ = tool.compare(ROOT / "src", tmp_path, 5, ("known_defects",))
    assert n_ops == 16 and len(differ) == 16
    assert differ[0].startswith(
        "known_defects/0000-solve-single-n11: exit, stdout differ ('OverflowError: ")
    assert differ[0].endswith("' -> 0)")
    n_ops, differ = tool.compare(ROOT / "src", tmp_path, 5, ("invalid_scenarios",))
    assert differ[:3] == ["invalid_scenarios/scenario-not-object/validate: "
                          "exit, stdout, stderr differ (2 -> 0)",
                          "invalid_scenarios/scenario-not-object/solve: "
                          "exit, stdout, stderr differ (2 -> 0)",
                          "invalid_scenarios/scenario-not-object/solve-own-method: "
                          "exit, stdout, stderr differ (2 -> 0)"]
