"""Self-tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import random
import sys

import pytest

import check
import gen
import run
from spans import Span, self_times

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_files(tmp_path, name):
    bundled = run.read_bundled()
    first = gen.build_workload(name, 7, bundled)
    gen.write_files(first, tmp_path / "a")
    gen.write_files(gen.build_workload(name, 7, bundled), tmp_path / "b")
    for file_name in first.files:
        assert (tmp_path / "a" / file_name).read_bytes() == \
            (tmp_path / "b" / file_name).read_bytes()
    assert gen.build_workload(name, 7, bundled).ops == first.ops
    assert gen.build_workload(name, 8, bundled).files != first.files


def test_generated_rosters_have_the_requested_size():
    from fairshare.scenarios import build_game, parse_scenario
    rng = random.Random(0)
    for model in gen.MODELS:
        for players in (3, 8, 17, 63):
            data = {"model": model, "method": "closed",
                    "params": gen.model_params(model, players, rng)}
            assert build_game(parse_scenario(data)).n_players == players


@pytest.fixture
def weighted_payload(tmp_path):
    from fairshare.cli import main
    params = gen.model_params("weighted", 8, random.Random(1))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": "weighted", "params": params,
                                "method": "all", "sample": gen.SAMPLE}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--scenario", str(path), "--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_checker_accepts_a_real_solve(weighted_payload):
    assert set(weighted_payload["allocations"]) == {"closed_form", "exact", "sampled"}
    assert check.check_solve(weighted_payload) == []


@pytest.mark.parametrize("key", ["closed_form", "exact"])
def test_checker_rejects_an_allocation_perturbed_by_1e6(weighted_payload, key):
    perturbed = copy.deepcopy(weighted_payload)
    perturbed["allocations"][key]["payoffs"][3] += 1e-6
    reasons = check.check_solve(perturbed)
    assert any("closed form vs exact" in reason for reason in reasons)
    assert any("efficiency gap" in reason for reason in reasons)


def test_checker_rejects_a_sampled_payoff_far_from_the_closed_form(weighted_payload):
    perturbed = copy.deepcopy(weighted_payload)
    sampled = perturbed["allocations"]["sampled"]
    sampled["payoffs"][2] += 6 * sampled["stderr"][2]
    assert any("stderr" in reason for reason in check.check_solve(perturbed))


def test_checker_rejects_failed_axioms(weighted_payload):
    perturbed = copy.deepcopy(weighted_payload)
    perturbed["axioms"]["all_ok"] = False
    assert check.check_solve(perturbed)


def test_checker_rejects_a_render_that_is_not_byte_stable():
    from fairshare.reports import render

    class Drifting:
        calls = 0

        def to_payload(self):
            self.calls += 1
            return {"calls": self.calls}

    report = Drifting()
    first, second = render(report, "json"), render(report, "json")
    reasons = check.check_output("solve", [], 0, first, second, None)
    assert reasons == ["rendering the same report twice gave different bytes"]
    assert check.check_output("solve", [], 0, first, first, check.digest(second)) == \
        ["output differs from an earlier execution of the same operation"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [Span("root", 0.0, 10.0, None, "op"),
             Span("a", 1.0, 4.0, 0, "op"),
             Span("a.child", 2.0, 3.0, 1, "op"),
             Span("b", 5.0, 9.0, 0, "op"),
             Span("b.child1", 5.0, 7.0, 3, "op"),
             Span("b.child2", 6.0, 8.0, 3, "op"),   # overlaps b.child1
             Span("other", 20.0, 21.0, None, "op2")]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])


@pytest.fixture
def runner(tmp_path, monkeypatch):
    """A Runner over the files of known_defects and audit_small, seed 0."""
    from fairshare import cli
    for name in ("emit", "shapley_sample"):     # undo the runner's probes afterwards
        monkeypatch.setattr(cli, name, getattr(cli, name))
    for name in ("known_defects", "audit_small"):
        gen.write_files(gen.build_workload(name, 0, run.read_bundled()), tmp_path / name)
    return run.Runner(tmp_path, None, run.SpeedProbe())


def _op(name: str, index: int) -> gen.Op:
    op = gen.build_workload(name, 0, run.read_bundled()).ops[index]
    return dataclasses.replace(op, scenario=f"{name}/{op.scenario}")


def test_failures_are_counted_and_the_run_goes_on(runner):
    missing = gen.Op("missing", "solve", "absent.json", ("--format", "json"))
    results = [runner.execute(op, traced=False) for op in (
        _op("known_defects", 0), _op("known_defects", 2), missing,
        _op("audit_small", 0))]
    assert results[0].reasons[0].startswith("OverflowError")
    assert results[1].reasons[0] == "exit code 2"
    assert results[2].reasons[0] == "exit code 4"
    assert results[3].reasons == []


def test_output_of_an_unexpected_shape_is_a_failure_not_a_crash(runner, monkeypatch):
    monkeypatch.setattr(check, "check_solve", lambda payload: payload["no such key"])
    reasons = runner.execute(_op("audit_small", 0), traced=False).reasons
    assert reasons[0].startswith("output is not in the expected form")


def test_reference_factor_uses_the_loop_times_around_an_execution():
    speed = run.SpeedProbe()
    speed.starts = [0.0, 10.0, 20.0]
    speed.loop_seconds = [run.REFERENCE_SECONDS, 2 * run.REFERENCE_SECONDS,
                          4 * run.REFERENCE_SECONDS]
    assert speed.factor(11.0, 15.0) == pytest.approx(1 / 3)   # loops at 10 and 20
    assert speed.factor(1.0, 2.0) == pytest.approx(2 / 3)     # loops at 0 and 10
    assert speed.factor(21.0, 22.0) == pytest.approx(1 / 4)   # only the loop at 20
