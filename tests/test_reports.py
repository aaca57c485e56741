"""Tests for report rendering: JSON determinism, CSV shape, text output."""

import enum
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.cli import solve_scenario, sweep_scenario
from fairshare.core import Allocation, crowd_players
from fairshare.empirical import load_revenue_records, parse_window, revenue_share
from fairshare.reports import (
    ALLOCATION_CSV_HEADER,
    EmpiricalReport,
    SolveReport,
    _json,
    emit,
    render,
)
from fairshare.scenarios import SWEEPABLE, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def solve(path):
    return solve_scenario(load_scenario(SCENARIO_DIR / path))


def test_json_bytes_identical_across_runs():
    # includes a seeded sampled allocation, which must reproduce exactly
    first = render(solve("single_metcalfe.json"), "json")
    second = render(solve("single_metcalfe.json"), "json")
    assert first == second
    assert first.encode() == second.encode()


def test_json_keys_sorted():
    payload = render(solve("weighted_trio.json"), "json")
    parsed = json.loads(payload)
    assert payload == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_csv_header_and_row_count():
    report = solve("oligopoly_fine_pair.json")
    text = render(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(ALLOCATION_CSV_HEADER)
    assert len(lines) == 1 + 6  # header + every fine-grain player


def test_csv_payoffs_sum_to_grand_value():
    report = solve("oligopoly_diamond.json")
    lines = render(report, "csv").strip().split("\n")[1:]
    payoffs = [float(line.split(",")[2]) for line in lines]
    assert sum(payoffs) == pytest.approx(
        report.allocations["closed_form"].grand_value, abs=1e-9)


def test_csv_share_blank_when_total_not_positive():
    scenario = parse_scenario({
        "model": "profit",
        "params": {"n": 2, "k": 2, "rho": 1.0, "founder_cost": 5.0},
        "method": "closed"})
    report = solve_scenario(scenario)
    lines = render(report, "csv").strip().split("\n")[1:]
    assert all(line.endswith(",") for line in lines)
    assert report.diagnostics["degenerate"] is True


def test_text_report_mentions_axioms_and_discrepancies():
    text = render(solve("geo_two_clusters_met.json"), "text")
    assert "axioms: efficiency ok" in text
    assert "discrepancy closed_form_vs_exact" in text


def test_sweep_report_formats():
    scenario = load_scenario(SCENARIO_DIR / "single_metcalfe.json")
    report = sweep_scenario(scenario, [10, 100])
    csv_text = render(report, "csv")
    assert csv_text.startswith("n,founder_share,crowd_share,asymptote,degenerate")
    payload = json.loads(render(report, "json"))
    assert [row["n"] for row in payload["rows"]] == [10, 100]
    assert payload["gaps_monotone"] is True


@pytest.mark.parametrize("n_values, width", [([10, 10 ** 7], 8), ([10, 10 ** 8], 9),
                                             ([10, 10 ** 22], 23)])
def test_sweep_text_columns_fit_the_longest_n(n_values, width):
    scenario = load_scenario(SCENARIO_DIR / "single_metcalfe.json")
    _, header, *rows, _ = render(sweep_scenario(scenario, n_values), "text").splitlines()
    assert header == f"{'n':>{width}}  {'founder_share':>14}  {'asymptote':>10}"
    # every column ends where its header ends
    assert all(len(row) == len(header) for row in rows)
    assert [row[:width].lstrip() for row in rows] == [str(n) for n in n_values]


def test_emit_writes_file(tmp_path):
    report = solve("geo_founder_lin.json")
    out = tmp_path / "report.json"
    rendered = emit(report, "json", out)
    assert out.read_text(encoding="utf-8") == rendered


def test_emit_unwritable_path_raises_oserror(tmp_path):
    report = solve("geo_founder_lin.json")
    with pytest.raises(OSError):
        emit(report, "json", tmp_path / "no_dir" / "report.json")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render(solve("geo_founder_lin.json"), "yaml")


def test_primary_allocation_prefers_closed_form():
    report = solve("single_metcalfe.json")
    key, alloc = report.primary()
    assert key == "closed_form"
    assert alloc.payoffs[0] == pytest.approx(3.5)


def test_primary_allocation_is_the_first_the_solve_ran():
    allocations = {"exact": Allocation((3.0, 1.0), 4.0),
                   "closed_form": Allocation((2.0, 2.0), 4.0),
                   "sampled": Allocation((1.0, 3.0), 4.0, (0.5, 0.5))}
    report = SolveReport({"model": "single"}, crowd_players(1), allocations,
                         {}, None, None)
    assert report.primary() == ("exact", allocations["exact"])
    text = render(report, "text")
    assert "allocation (exact):" in text
    assert "also ran: closed_form" in text and "also ran: sampled" in text
    assert render(report, "csv").splitlines()[1:] == ["g,founder,3.0,0.75",
                                                      "u1,crowd,1.0,0.25"]
    payload = json.loads(render(report, "json"))["allocations"]
    assert list(payload) == ["closed_form", "exact", "sampled"]  # sorted keys
    assert {key: entry["method"] for key, entry in payload.items()} == {
        key: key for key in allocations}
    assert payload["sampled"]["stderr"] == [0.5, 0.5]
    assert payload["exact"]["stderr"] is None


# --- the JSON encoder writes json.dumps's bytes -----------------------------------


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, non-ASCII and an astral character
# are drawn often, next to hypothesis's own strings
STRINGS = st.one_of(st.text(), st.text(alphabet='"\\/\x00\x1f\x7f\b\n\t\u00e9\u2028\U0001f600a'))
FLOATS = st.floats(allow_subnormal=True)     # +-0.0, +-inf and NaN included
NUMPY_FLOATS = FLOATS.map(np.float64)
SCALARS = st.one_of(st.none(), st.booleans(), STRINGS, FLOATS, NUMPY_FLOATS,
                    st.integers(-(2 ** 80), 2 ** 80), st.sampled_from([2 ** 64, -(2 ** 64) - 1]))
VALUES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.dictionaries(STRINGS, children),
    # lists that are all floats take the joined path, unless one is not finite
    st.lists(FLOATS, min_size=1), st.lists(FLOATS, min_size=1).map(tuple),
    st.lists(st.one_of(FLOATS, NUMPY_FLOATS, st.integers(), st.none()), min_size=1)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_json_encoder_writes_the_bytes_of_json_dumps(value):
    assert _json(value, "") == dumps(value)


@pytest.mark.parametrize("value, expected", [
    ([], "[]"), ({}, "{}"), ((), "[]"), ({"a": [], "b": {}}, '{\n  "a": [],\n  "b": {}\n}'),
    (np.float64(1.0), "1.0"), ([np.float64(0.5), 1.5], "[\n  0.5,\n  1.5\n]"),
    ([1.0, float("nan"), -float("inf")], "[\n  1.0,\n  NaN,\n  -Infinity\n]"),
    ([1e308, 1e308], "[\n  1e+308,\n  1e+308\n]"),      # a sum that overflows
    ([-0.0, 5e-324], "[\n  -0.0,\n  5e-324\n]"), (2 ** 70, str(2 ** 70)),
    ({"\u00e9\"": "\\\x01"}, '{\n  "\\u00e9\\"": "\\\\\\u0001"\n}'),
])
def test_json_encoder_cases(value, expected):
    assert _json(value, "") == dumps(value) == expected


class Level(enum.IntEnum):
    HIGH = 3


class Tag(str, enum.Enum):
    CROWD = "crowd"


class Tenth(float):
    def __repr__(self):
        return "a tenth"


def test_json_encoder_writes_subclasses_as_their_base_type():
    value = {"level": Level.HIGH, "tag": Tag.CROWD, "tenths": [Tenth(0.1), Tenth(0.2)],
             "one": Tenth(0.1), "keys": {Tag.CROWD: [Level.HIGH]}}
    assert _json(value, "") == dumps(value)
    assert '"level": 3' in dumps(value) and '"tag": "crowd"' in dumps(value)


@pytest.mark.parametrize("value", [np.int64(3), [1.0, np.int64(3)], {"a": object()},
                                   {1: 2.0}, {"a": {2: "b"}}, {("a",): 1}])
def test_json_encoder_refuses_what_json_cannot_hold_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _json(value, "")


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.stem)
def test_every_bundled_report_renders_the_bytes_of_json_dumps(path):
    scenario = load_scenario(path)
    reports = [solve_scenario(scenario)]
    if scenario.model in SWEEPABLE:
        reports.append(sweep_scenario(scenario, [1, 2, 10, 1000, 10 ** 6]))
    for report in reports:
        assert render(report, "json") == dumps(report.to_payload()) + "\n"


def test_an_empirical_report_renders_the_bytes_of_json_dumps():
    estimate = revenue_share(load_revenue_records(None), 3.0e10,
                             parse_window("2018H2..2021H1"), "YouTube")
    report = EmpiricalReport(estimate)
    assert render(report, "json") == dumps(report.to_payload()) + "\n"
