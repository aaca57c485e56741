"""The typed params and the scenario validator agree on every input.

Raw params are drawn from each model's schema mixed with bad values: NaN,
infinities, integers beyond the float range, bools, floats where integers
belong, zeros, negatives, empty lists, duplicate ids, edges to unknown
vertices, weights whose work units overflow or underflow, and fractional
counts. A scenario validates exactly when the model's typed params can be
built from its JSON, and exactly when the model's validator, run on the JSON
itself, finds nothing. The typed params refuse bad values in the validator's
words. Revenue records are held to the same rule: a records file is refused
exactly when `RevenueRecord` refuses its row, in the same words.
"""

import copy
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairshare.checks import ParamsError
from fairshare.empirical import RevenueRecord, load_revenue_records, validate_record
from fairshare.geo import DiskCensus, GeoParams
from fairshare.models import ProfitCssParams, SingleCssParams, WeightedCssParams
from fairshare.oligopoly import OligopolyGraph
from fairshare.scenarios import MODELS, parse_scenario, scenario_to_data
from reference import scenario_errors

# bad values, and valid ones that clash with their neighbours (a duplicate or
# unknown vertex id, a weight whose work unit overflows or underflows)
SPECIAL = [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, True, False, 0, -1,
           0.0, -2.5, 2.5, 2.0, 1e300, 1e-300, "1", "A", "X", "", None, [], {}]

POSITIVE = st.floats(1e-300, 1e300)
NONNEGATIVE = st.sampled_from([0.0, 1e-300, 0.5, 1.0, 3.0, 1e300])
CROWD = {"n": st.integers(1, 10 ** 9), "k": st.integers(1, 1023)}
PROFIT = st.fixed_dictionaries(CROWD, optional={
    "rho": POSITIVE, "founder_cost": NONNEGATIVE, "member_cost": NONNEGATIVE})
WEIGHTED = st.fixed_dictionaries(
    {"weights": st.lists(NONNEGATIVE, min_size=1, max_size=4)},
    optional={"alpha": st.sampled_from([0.5, 1.0, 2, 3.0]), "rho": POSITIVE,
              "k": st.integers(1, 4)})


@st.composite
def graphs(draw) -> dict:
    ids = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    vertices = [{"id": vid, "size": draw(st.integers(0, 3))} for vid in ids]
    # now and then an endpoint is an unknown id, or a number a vertex index would be
    endpoints = st.sampled_from(ids * 3 + ["X", 0, 1, 2])
    edges = draw(st.lists(st.lists(endpoints, min_size=2, max_size=2), max_size=4))
    return {"vertices": vertices, "edges": edges, **draw(st.fixed_dictionaries(
        {}, optional={"rho": POSITIVE}))}


@st.composite
def censuses(draw) -> dict:
    m = draw(st.integers(1, 5))
    agents = st.lists(st.integers(1, m), unique=True, max_size=m)
    if draw(st.booleans()):
        return {"m": m, "placements": draw(st.lists(agents, max_size=4))}
    subsets = st.lists(st.integers(1, m), unique=True, min_size=1, max_size=m)
    return {"m": m, "d": {",".join(map(str, key)): draw(st.integers(0, 3))
                          for key in draw(st.lists(subsets, max_size=4))}}


GEO = st.fixed_dictionaries({"census": censuses(), "variant": st.sampled_from(["lin", "met"])},
                            optional={"rho": POSITIVE})


def slots(obj) -> list:
    """Every (container, key) pair in a JSON value, nested ones included."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return []
    return [slot for key, value in items for slot in [(obj, key)] + slots(value)]


@st.composite
def mutated(draw, valid) -> dict:
    """Valid params with up to three fields, nested ones included, replaced by a
    special value, deleted, or joined by an unknown field or list entry."""
    params = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(slots(params) + [(params, "extra")]))
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        value = draw(st.sampled_from(SPECIAL))
        if action == "add" and isinstance(container, list):
            container.append(value)
        elif action == "add":
            container["extra"] = value
        elif action == "delete" and (isinstance(container, list) or key in container):
            del container[key]
        elif action == "replace":
            container[key] = value
    return params


SCHEMAS = {"single": st.fixed_dictionaries(CROWD, optional={"rho": POSITIVE}),
           "profit": PROFIT, "weighted": WEIGHTED, "oligopoly_coarse": graphs(),
           "oligopoly_fine": graphs(), "geo": GEO, "geo_founder": GEO}


def test_every_model_has_a_schema():
    assert sorted(SCHEMAS) == sorted(MODELS)


@pytest.mark.parametrize("model", sorted(SCHEMAS))
def test_validator_and_typed_params_agree(model):
    spec = MODELS[model]

    @settings(max_examples=400, deadline=None)
    @given(mutated(SCHEMAS[model]))
    def agree(params):
        data = {"model": model, "params": params, "method": "exact"}
        errors = scenario_errors(data)
        try:
            spec.parse(**params)
            built = True
        except (TypeError, ValueError):
            built = False
        found = []
        spec.validate(params, found, "params")
        assert (errors == []) == built == (found == []), (params, errors, found)
        if built:  # what `solve` echoes parses back to the same scenario
            scenario = parse_scenario(data)
            assert parse_scenario(scenario_to_data(scenario)) == scenario

    agree()


RECORD = st.fixed_dictionaries(
    {"year": st.integers(1900, 2100), "entity": st.sampled_from(["Z", "YouTube"]),
     "revenue": POSITIVE}, optional={"payout": NONNEGATIVE})


def test_a_records_file_is_refused_exactly_when_the_api_refuses_its_row(tmp_path):
    path = tmp_path / "records.json"

    @settings(max_examples=400, deadline=None)
    @given(mutated(RECORD))
    @example({"year": 2019.7, "entity": "Z", "revenue": 10.0})
    @example({"year": 2020, "entity": "Z", "revenue": 1.0, "payuot": 0.5})
    def agree(row):
        path.write_text(json.dumps([row]), encoding="utf-8")
        try:
            loaded = load_revenue_records(path)
            refusal = None
        except ParamsError as exc:
            refusal = exc.errors
        try:
            record = RevenueRecord(**row)
            errors = []
        except ParamsError as exc:
            errors = exc.errors
        except TypeError:  # keys the constructor cannot take: the validator names them
            errors = []
            validate_record(row, errors)
            assert errors, row
        if errors:
            assert refusal == [f"{path}: bad revenue record at index 0: {error}"
                               for error in errors]
        else:
            assert refusal is None and loaded == (record,), (row, refusal)

    agree()


NAN, INF = math.nan, math.inf
API_CASES = {
    "single rho nan": (lambda: SingleCssParams(3, 2, rho=NAN), "rho: expected a finite"),
    "single rho inf": (lambda: SingleCssParams(3, 2, rho=INF), "rho: expected a finite"),
    "single n float": (lambda: SingleCssParams(3.5, 2), "n: expected an integer"),
    "single n bool": (lambda: SingleCssParams(True, 2), "n: expected an integer"),
    "profit cost nan": (lambda: ProfitCssParams(3, 2, member_cost=NAN), "member_cost: expected"),
    "weight nan": (lambda: WeightedCssParams((1.0, NAN)), "weights: entries must be finite"),
    "alpha nan": (lambda: WeightedCssParams((1.0,), alpha=NAN), "alpha: expected a finite"),
    "work unit overflow": (lambda: WeightedCssParams((1e300, 2.0), alpha=2),
                           "weights: the work units weight**alpha or their total overflow"),
    "work unit underflow": (lambda: WeightedCssParams((1e-300, 0.0), alpha=2),
                            "weights: every work unit weight**alpha underflows"),
    "graph rho nan": (lambda: OligopolyGraph.from_spec([("A", 1)], rho=NAN), "rho: expected"),
    "graph rho inf": (lambda: OligopolyGraph(("A",), (1,), (), INF), "rho: expected"),
    "census count": (lambda: DiskCensus(2, {frozenset({1}): 2.5}),
                     "d[frozenset({1})]: expected a nonnegative integer count"),
    "graph network overflow": (lambda: OligopolyGraph.from_spec([("A", 10 ** 155)]),
                               "vertices: the network value"),
    "census total overflow": (lambda: DiskCensus(2, {frozenset({1}): 2 ** 1024}),
                              "d: the total user count must be at most"),
    "geo rho nan": (lambda: GeoParams(DiskCensus(2, {frozenset({1}): 2}), rho=NAN, variant="met"),
                    "rho: expected a finite"),
    "geo census not a DiskCensus": (lambda: GeoParams({"m": 2, "d": {"1": 3}}, "lin"),
                                    "census: expected a DiskCensus, got dict"),
    "record fields": (lambda: RevenueRecord(2019.7, 7, True),
                      "year: expected an integer, got 2019.7; entity: expected a string, got 7; "
                      "revenue: expected a finite number, got True"),
    "record revenue string": (lambda: RevenueRecord(2020, "Z", "10"),
                              "revenue: expected a finite number, got '10'"),
    "record revenue beyond a float": (lambda: RevenueRecord(2020, "Z", 10 ** 400),
                                      "revenue: expected a finite number"),
    "record payout nan": (lambda: RevenueRecord(2020, "Z", 5.0, NAN),
                          "payout: expected a finite number, got nan"),
}


@pytest.mark.parametrize("case", sorted(API_CASES))
def test_api_refuses_what_the_validator_refuses_in_its_words(case):
    build, message = API_CASES[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()
