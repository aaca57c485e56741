"""Scenario files: schema validation, parsing, and game construction.

A scenario is a JSON object selecting one of the bundled value models plus
its parameters and the solution method(s) to run:

    {"model": "single", "params": {"n": 3, "k": 2, "rho": 1.0},
     "method": "all", "sample": {"permutations": 20000, "seed": 0}}

`parse_scenario` reports every violation it can find, as the `errors` of one
`ScenarioError`, rather than stopping at the first, so a file can be fixed in
one pass. Every model is one `ModelSpec` entry in `MODELS`, and the functions
here look it up there.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from fairshare.checks import (
    ParamsError,
    check_choice,
    check_int,
    check_keys,
    check_object,
    is_list,
    report_missing,
)
from fairshare.core import Allocation, CoalitionGame
from fairshare.geo import (
    DiskCensus,
    GeoParams,
    geo_founder_game,
    geo_founder_shapley,
    geo_game,
    geo_shapley,
    region_census,
    validate_geo,
)
from fairshare.models import (
    ProfitCssParams,
    ShareReport,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    closed_weighted_refusal,
    profit_game,
    single_game,
    validate_profit,
    validate_single,
    validate_weighted,
    weighted_game,
)
from fairshare.oligopoly import (
    OligopolyGraph,
    coarse_game,
    fine_game,
    shapley_coarse,
    shapley_fine_closed,
    validate_graph,
)

METHODS = ("closed", "exact", "sample", "all")

DEFAULT_PERMUTATIONS = 20_000

# the least value of each sampler field, in the order a file's are checked; the
# solve flags of the same names have the same minimums
SAMPLE_MINIMUMS = {"permutations": 1, "seed": 0}


class ScenarioError(ParamsError):
    """A scenario failed validation; `errors` lists every violation found."""


@dataclass(frozen=True)
class SampleConfig:
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    model: str
    params: Any
    method: str = "closed"
    sample: SampleConfig | None = None
    label: str = ""


# --- parsing and dumping ------------------------------------------------------------

def _dump_fields(params: Any) -> dict:
    """A flat params dataclass as JSON-ready data, tuples as lists."""
    raw = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        raw[field.name] = list(value) if isinstance(value, tuple) else value
    return raw


def _vertex(id: Any, size: Any) -> tuple[Any, Any]:
    return id, size


def _parse_graph(vertices: list, edges: Sequence = (), rho: Any = 1.0) -> OligopolyGraph:
    # the typed graph reads an endpoint that is no string as a vertex index
    if not is_list(edges) or not all(isinstance(x, str) for edge in edges for x in edge):
        raise TypeError("the edges do not map onto a graph")
    return OligopolyGraph.from_spec([_vertex(**vertex) for vertex in vertices], edges, rho)


def _parse_census(m: Any, **table: Any) -> DiskCensus:
    if table.keys() == {"d"}:
        return DiskCensus(m, table["d"])
    if table.keys() == {"placements"}:
        return region_census(table["placements"], m)
    raise TypeError("a census holds exactly one of 'd' or 'placements'")


def _parse_geo(census: dict, **rest: Any) -> GeoParams:
    return GeoParams(_parse_census(**census), **rest)


def _dump_geo(params: GeoParams) -> dict:
    census = params.census
    return {"census": {"m": census.num_agents,
                       "d": {",".join(map(str, sorted(subset))): count
                             for subset, count in sorted(
                                 census.counts.items(), key=lambda kv: sorted(kv[0]))}},
            "variant": params.variant, "rho": params.rho}


# --- the model registry ---------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Everything the scenario layer knows of one value model.

    `parse(**params)` builds the typed params from JSON params, whose
    constructors run the model's validator, and `dump` is its inverse.
    `parse` raises TypeError where the JSON has a shape the typed params do
    not hold; `validate(params, errors, prefix)` then lists every violation
    in the JSON itself. `closed_refusal(params)` says why the closed form
    cannot solve the JSON params, if it cannot. `game` builds the coalition
    game and `closed` the closed-form result: a ShareReport for a single-CSS
    model, whose params are `CssParams` and so support `share_sweep`, and an
    Allocation otherwise.
    """

    validate: Callable[[dict, list[str], str], None]
    parse: Callable[..., Any]
    dump: Callable[[Any], dict]
    game: Callable[[Any], CoalitionGame]
    closed: Callable[[Any], ShareReport | Allocation]
    closed_refusal: Callable[[dict], str | None] = lambda params: None


MODELS: dict[str, ModelSpec] = {
    "single": ModelSpec(validate_single, SingleCssParams, _dump_fields,
                        single_game, closed_single),
    "weighted": ModelSpec(validate_weighted, WeightedCssParams, _dump_fields,
                          weighted_game, closed_weighted, closed_weighted_refusal),
    "profit": ModelSpec(validate_profit, ProfitCssParams, _dump_fields,
                        profit_game, closed_profit),
    "oligopoly_coarse": ModelSpec(validate_graph, _parse_graph, OligopolyGraph.spec,
                                  coarse_game, shapley_coarse),
    "oligopoly_fine": ModelSpec(validate_graph, _parse_graph, OligopolyGraph.spec,
                                fine_game, shapley_fine_closed),
    "geo": ModelSpec(validate_geo, _parse_geo, _dump_geo, geo_game, geo_shapley),
    "geo_founder": ModelSpec(validate_geo, _parse_geo, _dump_geo,
                             geo_founder_game, geo_founder_shapley),
}

# the models whose params sweep: `CssParams`, which define `closed_at`
SWEEPABLE = tuple(name for name, spec in MODELS.items() if hasattr(spec.parse, "closed_at"))


def _read_params(spec: ModelSpec, params: dict, closed: bool,
                 errors: list[str]) -> Any:
    """The typed params of JSON `params`, checked once: by the constructors,
    or by the validator on the JSON where they refuse it or cannot hold it,
    which lists every violation in the file's order."""
    try:
        typed = spec.parse(**params)
    except (TypeError, ValueError):
        typed, found = None, []
        spec.validate(params, found, "params")
        if not found:  # the constructors refuse what the validator passes
            raise
        errors += found
    refusal = spec.closed_refusal(params) if closed else None
    if refusal:
        errors.append(f"params.{refusal}")
    return typed


def _read_scenario(data: Any) -> tuple[list[str], Scenario | None]:
    """Every violation in a scenario object, and the Scenario when there is none."""
    if not isinstance(data, dict):
        return ["scenario: expected a JSON object"], None
    errors: list[str] = []
    check_keys(data, ("model", "params", "method", "sample", "label"),
               errors, "scenario")
    model = data.get("model")
    spec = None
    if model is None:
        report_missing(errors, "model")
    elif check_choice(model, MODELS, errors, "model"):
        spec = MODELS[model]
    method = data.get("method", "closed")
    if not check_choice(method, METHODS, errors, "method"):
        method = "closed"
    label = data.get("label", "")
    if not isinstance(label, str):
        errors.append("label: expected a string")
    sample = data.get("sample")
    if sample is not None and check_object(sample, errors, "sample"):
        check_keys(sample, tuple(SAMPLE_MINIMUMS), errors, "sample")
        for key, minimum in SAMPLE_MINIMUMS.items():
            check_int(sample, key, errors, prefix="sample", minimum=minimum, required=False)
    params = data.get("params")
    typed = None
    if params is None:
        report_missing(errors, "params")
    elif check_object(params, errors, "params") and spec is not None:
        typed = _read_params(spec, params, method in ("closed", "all"), errors)
    if errors:
        return errors, None
    return [], Scenario(model, typed, method,
                        None if sample is None else SampleConfig(**sample), label)


def parse_scenario(data: Any) -> Scenario:
    """Validate and build a typed Scenario; raises ScenarioError on any problem."""
    errors, scenario = _read_scenario(data)
    if errors:
        raise ScenarioError(errors)
    return scenario


def load_scenario(path: str | Path, *, method: str | None = None,
                  sample: dict | None = None) -> Scenario:
    """Read and parse a scenario file; unreadable files raise OSError.

    `method` and `sample` are written into the file's JSON object before its
    one parse; a file or sample that is no object is left to the validator.
    A file nested too deeply for the reader, or for the `repr` of a value in
    an error message, is refused as a whole."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        try:
            data = json.loads(text)
        except ValueError as exc:  # not JSON, or an integer too long to read
            raise ScenarioError([f"{path}: not valid JSON ({exc})"]) from exc
        if isinstance(data, dict):
            if method is not None:
                data["method"] = method
            given = data.get("sample")
            if sample and (given is None or isinstance(given, dict)):
                data["sample"] = {**(given or {}), **sample}
        return parse_scenario(data)
    except RecursionError:
        raise ScenarioError([f"{path}: nested too deeply to read"]) from None


def scenario_to_data(scenario: Scenario) -> dict:
    """Canonical JSON-ready form of a scenario (inverse of parse_scenario)."""
    data: dict[str, Any] = {"model": scenario.model,
                            "params": MODELS[scenario.model].dump(scenario.params),
                            "method": scenario.method}
    if scenario.sample is not None:
        data["sample"] = {"permutations": scenario.sample.permutations,
                          "seed": scenario.sample.seed}
    if scenario.label:
        data["label"] = scenario.label
    return data


# --- game and allocation builders --------------------------------------------------

def build_game(scenario: Scenario) -> CoalitionGame:
    """The scenario's game for the exact engine or the sampler."""
    return MODELS[scenario.model].game(scenario.params)


def closed_report(scenario: Scenario) -> ShareReport | None:
    """Share diagnostics for the models that define them."""
    if scenario.model not in SWEEPABLE:
        return None
    return MODELS[scenario.model].closed(scenario.params)


def closed_allocation(scenario: Scenario) -> Allocation:
    """The scenario's closed-form allocation."""
    closed = MODELS[scenario.model].closed(scenario.params)
    return closed.as_allocation() if isinstance(closed, ShareReport) else closed
