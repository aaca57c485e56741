"""The benchmark's tracer over real CLI calls.

`perfbench/run.py` wraps names on `fairshare.cli` on a traced run, so each of
them must stay an attribute that a command calls. These tests run one traced
operation of each command, as the benchmark does, with its modules unedited.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

COMMANDS = ("solve", "sweep", "validate", "empirical")


@pytest.fixture(scope="module")
def closed_scale():
    """The first operation of each command in `closed_scale` at seed 5."""
    workload = gen.build_workload("closed_scale", 5, run.read_bundled())
    first = {}
    for op in workload.ops:
        first.setdefault(op.command, op)
    return workload, first


def make_runner(workload, directory, monkeypatch):
    from fairshare import cli
    for name in ("emit", "shapley_sample"):     # undo the runner's probes afterwards
        monkeypatch.setattr(cli, name, getattr(cli, name))
    gen.write_files(workload, directory)
    return run.Runner(directory, Tracer(), run.SpeedProbe())


@pytest.fixture
def runner(tmp_path, monkeypatch, closed_scale):
    return make_runner(closed_scale[0], tmp_path, monkeypatch)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_traced_operation_succeeds_and_records_its_spans(runner, closed_scale, command):
    result = runner.execute(closed_scale[1][command], traced=True)
    assert result.reasons == []
    names = [runner.tracer.spans[index].name for index in result.spans]
    assert names[0] == "cli.main"
    assert ("scenarios.load_scenario" in names) == (command != "empirical"), names
    if command == "empirical":
        assert "empirical.revenue_share" in names


def test_a_traced_exact_solve_records_the_engine_spans(tmp_path, monkeypatch):
    # the tracer replaces `CoalitionGame.value` on each game that build_game returns
    workload = gen.build_workload("audit_small", 5, run.read_bundled())
    runner = make_runner(workload, tmp_path, monkeypatch)
    result = runner.execute(workload.ops[0], traced=True)
    assert result.reasons == []
    names = {runner.tracer.spans[index].name for index in result.spans}
    assert {"scenarios.build_game", "core.coalition_value_table", "core.shapley_exact",
            "core.check_axioms"} <= names, names
