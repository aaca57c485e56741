"""Scenario files: schema validation, parsing, and game construction.

A scenario is a JSON object selecting one of the bundled value models plus
its parameters and the solution method(s) to run:

    {"model": "single", "params": {"n": 3, "k": 2, "rho": 1.0},
     "method": "all", "sample": {"permutations": 20000, "seed": 0}}

`validate_scenario_data` reports every violation it can find rather than
stopping at the first, so a file can be fixed in one pass. Every model is
one `ModelSpec` entry in `MODELS`, and the functions here look it up there.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from fairshare.core import Allocation, CoalitionGame
from fairshare.geo import (
    GEO_VARIANTS,
    DiskCensus,
    geo_founder_game,
    geo_founder_shapley,
    geo_game,
    geo_shapley,
    region_census,
)
from fairshare.models import (
    MAX_EXPONENT,
    ProfitCssParams,
    ShareReport,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    profit_game,
    single_game,
    weighted_game,
)
from fairshare.oligopoly import (
    OligopolyGraph,
    coarse_game,
    fine_game,
    shapley_coarse,
    shapley_fine_closed,
)

METHODS = ("closed", "exact", "sample", "all")

DEFAULT_PERMUTATIONS = 20_000
MAX_CENSUS_AGENTS = 1_000_000  # effective sizes take O(m) time and memory


class ScenarioError(ValueError):
    """A scenario failed validation; `errors` lists every violation found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class SampleConfig:
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 0


@dataclass(frozen=True)
class GeoParams:
    census: DiskCensus
    variant: str
    rho: float = 1.0


@dataclass(frozen=True)
class Scenario:
    model: str
    params: Any
    method: str = "closed"
    sample: SampleConfig | None = None
    label: str = ""


# --- field-level validators ----------------------------------------------------

def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x: Any) -> bool:
    """A finite int or float that a float can hold (no NaN, no infinities)."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _check_int(params: dict, key: str, errors: list[str], *, prefix: str,
               minimum: int | None = None, required: bool = True) -> int | None:
    if key not in params:
        if required:
            errors.append(f"{prefix}.{key}: missing required field")
        return None
    value = params[key]
    if not _is_int(value):
        errors.append(f"{prefix}.{key}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{prefix}.{key}: must be >= {minimum}, got {value}")
        return None
    return value


def _check_num(params: dict, key: str, errors: list[str], *, prefix: str,
               positive: bool = False, nonnegative: bool = False) -> None:
    if key not in params:
        return
    value = params[key]
    if not _is_num(value):
        errors.append(f"{prefix}.{key}: expected a finite number, got {value!r}")
    elif positive and value <= 0:
        errors.append(f"{prefix}.{key}: must be positive, got {value}")
    elif nonnegative and value < 0:
        errors.append(f"{prefix}.{key}: must be nonnegative, got {value}")


def _check_keys(obj: dict, allowed: tuple[str, ...], errors: list[str],
                prefix: str) -> None:
    for key in obj:
        if key not in allowed:
            errors.append(f"{prefix}.{key}: unknown field")


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _validate_single(params: dict, errors: list[str], prefix: str, method: str,
                     cls: type = SingleCssParams) -> None:
    _check_keys(params, _field_names(cls), errors, prefix)
    _check_int(params, "n", errors, prefix=prefix, minimum=1)
    k = _check_int(params, "k", errors, prefix=prefix, minimum=1)
    if k is not None and k > MAX_EXPONENT:
        errors.append(f"{prefix}.k: must be <= {MAX_EXPONENT}, got {k}")
    _check_num(params, "rho", errors, prefix=prefix, positive=True)


def _validate_profit(params: dict, errors: list[str], prefix: str,
                     method: str) -> None:
    _validate_single(params, errors, prefix, method, ProfitCssParams)
    _check_num(params, "founder_cost", errors, prefix=prefix, nonnegative=True)
    _check_num(params, "member_cost", errors, prefix=prefix, nonnegative=True)


def _validate_weighted(params: dict, errors: list[str], prefix: str,
                       method: str) -> None:
    _check_keys(params, _field_names(WeightedCssParams), errors, prefix)
    weights = params.get("weights")
    if weights is None:
        errors.append(f"{prefix}.weights: missing required field")
    elif not isinstance(weights, list) or not weights:
        errors.append(f"{prefix}.weights: expected a nonempty list of numbers")
    else:
        bad = [w for w in weights if not _is_num(w) or w < 0]
        if bad:
            errors.append(
                f"{prefix}.weights: entries must be finite nonnegative numbers")
        elif not any(w > 0 for w in weights):
            errors.append(f"{prefix}.weights: at least one weight must be positive")
        else:
            _check_work_units(weights, params.get("alpha", 1.0), errors, prefix)
    _check_num(params, "alpha", errors, prefix=prefix, positive=True)
    _check_num(params, "rho", errors, prefix=prefix, positive=True)
    k = _check_int(params, "k", errors, prefix=prefix, minimum=1, required=False)
    if k is not None and k != 2 and method in ("closed", "all"):
        errors.append(
            f"{prefix}.k: the weighted closed form requires k=2 (got {k}); "
            "use method 'exact' or 'sample'")


def _check_work_units(weights: list, alpha: Any, errors: list[str], prefix: str) -> None:
    """Refuse weights whose work units weight**alpha, or their total, leave the
    float range: every method sums them. A bad alpha is reported on its own."""
    if not _is_num(alpha) or alpha <= 0:
        return
    try:
        total = math.fsum(WeightedCssParams(tuple(weights), alpha).work_units())
    except OverflowError:
        errors.append(f"{prefix}.weights: the work units weight**alpha or their total "
                      f"overflow a float (alpha={alpha})")
        return
    if total == 0.0:
        errors.append(f"{prefix}.weights: every work unit weight**alpha underflows to 0 "
                      f"(alpha={alpha}); at least one must be positive")


def _validate_graph(params: dict, errors: list[str], prefix: str,
                    method: str) -> None:
    _check_keys(params, ("vertices", "edges", "rho"), errors, prefix)
    vertices = params.get("vertices")
    ids: set[str] = set()
    if vertices is None:
        errors.append(f"{prefix}.vertices: missing required field")
    elif not isinstance(vertices, list) or not vertices:
        errors.append(f"{prefix}.vertices: expected a nonempty list")
    else:
        for pos, vertex in enumerate(vertices):
            where = f"{prefix}.vertices[{pos}]"
            if not isinstance(vertex, dict):
                errors.append(f"{where}: expected an object with id and size")
                continue
            _check_keys(vertex, ("id", "size"), errors, where)
            vid = vertex.get("id")
            if not isinstance(vid, str) or not vid:
                errors.append(f"{where}.id: expected a nonempty string")
            elif vid in ids:
                errors.append(f"{where}.id: duplicate vertex id {vid!r}")
            else:
                ids.add(vid)
            _check_int(vertex, "size", errors, prefix=where, minimum=0)
    edges = params.get("edges", [])
    if not isinstance(edges, list):
        errors.append(f"{prefix}.edges: expected a list of [id, id] pairs")
        edges = []
    seen_edges: set[frozenset[str]] = set()
    for pos, edge in enumerate(edges):
        where = f"{prefix}.edges[{pos}]"
        if (not isinstance(edge, list) or len(edge) != 2
                or not all(isinstance(v, str) for v in edge)):
            errors.append(f"{where}: expected a pair of vertex ids")
            continue
        a, b = edge
        for endpoint in (a, b):
            if ids and endpoint not in ids:
                errors.append(
                    f"{where}: edge [{a!r}, {b!r}] references unknown vertex "
                    f"{endpoint!r}")
        if a == b:
            errors.append(f"{where}: self-loop on {a!r}")
        elif frozenset((a, b)) in seen_edges:
            errors.append(f"{where}: duplicate agreement [{a!r}, {b!r}]")
        else:
            seen_edges.add(frozenset((a, b)))
    _check_num(params, "rho", errors, prefix=prefix, positive=True)


def _validate_fine(params: dict, errors: list[str], prefix: str,
                   method: str) -> None:
    _validate_graph(params, errors, prefix, method)
    vertices = params.get("vertices")
    if method in ("closed", "all") and isinstance(vertices, list):
        empty = [v.get("id") for v in vertices
                 if isinstance(v, dict) and _is_int(v.get("size")) and v["size"] == 0]
        if empty:
            errors.append(
                f"{prefix}.vertices: the fine-grain closed form needs every crowd "
                f"nonempty, but vertices {empty} have none; use method 'exact' "
                "or 'sample'")


def _validate_census(census: Any, errors: list[str], prefix: str) -> None:
    if not isinstance(census, dict):
        errors.append(f"{prefix}: expected an object")
        return
    _check_keys(census, ("m", "d", "placements"), errors, prefix)
    m = _check_int(census, "m", errors, prefix=prefix, minimum=1)
    if m is not None and m > MAX_CENSUS_AGENTS:
        errors.append(f"{prefix}.m: must be <= {MAX_CENSUS_AGENTS}, got {m}")
    has_d = "d" in census
    has_placements = "placements" in census
    if has_d == has_placements:
        errors.append(f"{prefix}: provide exactly one of 'd' or 'placements'")
        return
    if has_d:
        table = census["d"]
        if not isinstance(table, dict):
            errors.append(f"{prefix}.d: expected an object keyed by agent subsets")
            return
        for key, count in table.items():
            where = f"{prefix}.d[{key!r}]"
            ids = _parse_subset_key(key)
            if ids is None:
                errors.append(
                    f"{where}: keys must be comma-joined agent ids like '1,3'")
            elif m is not None and any(not 1 <= i <= m for i in ids):
                errors.append(f"{where}: agent ids must lie in 1..{m}")
            if not _is_int(count) or count < 0:
                errors.append(f"{where}: expected a nonnegative integer count")
    else:
        placements = census["placements"]
        if not isinstance(placements, list):
            errors.append(f"{prefix}.placements: expected a list of disk-id lists")
            return
        for pos, placement in enumerate(placements):
            where = f"{prefix}.placements[{pos}]"
            if not isinstance(placement, list) or \
                    not all(_is_int(i) for i in placement):
                errors.append(f"{where}: expected a list of integer disk ids")
            elif m is not None and any(not 1 <= i <= m for i in placement):
                errors.append(f"{where}: disk ids must lie in 1..{m}")


def _parse_subset_key(key: Any) -> tuple[int, ...] | None:
    if not isinstance(key, str):
        return None
    try:
        ids = tuple(int(part) for part in key.split(","))
    except ValueError:
        return None
    if not ids or len(set(ids)) != len(ids):
        return None
    return ids


def _validate_geo(params: dict, errors: list[str], prefix: str,
                  method: str) -> None:
    _check_keys(params, _field_names(GeoParams), errors, prefix)
    if "census" not in params:
        errors.append(f"{prefix}.census: missing required field")
    else:
        _validate_census(params["census"], errors, f"{prefix}.census")
    variant = params.get("variant")
    if variant is None:
        errors.append(f"{prefix}.variant: missing required field")
    elif variant not in GEO_VARIANTS:
        errors.append(
            f"{prefix}.variant: expected one of {list(GEO_VARIANTS)}, got {variant!r}")
    _check_num(params, "rho", errors, prefix=prefix, positive=True)


# --- parsing and dumping ------------------------------------------------------------

def _dump_fields(params: Any) -> dict:
    """A flat params dataclass as JSON-ready data, tuples as lists."""
    raw = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        raw[field.name] = list(value) if isinstance(value, tuple) else value
    return raw


def _parse_graph(vertices: list[dict], **rest: Any) -> OligopolyGraph:
    return OligopolyGraph.from_spec([(v["id"], v["size"]) for v in vertices], **rest)


def _dump_graph(graph: OligopolyGraph) -> dict:
    return {"vertices": [{"id": vid, "size": size}
                         for vid, size in zip(graph.vertex_ids, graph.crowd_sizes)],
            "edges": [[graph.vertex_ids[a], graph.vertex_ids[b]] for a, b in graph.edges],
            "rho": graph.rho}


def _parse_geo(census: dict, **rest: Any) -> GeoParams:
    if "placements" in census:
        parsed = region_census(census["placements"], census["m"])
    else:
        parsed = DiskCensus(census["m"], {frozenset(_parse_subset_key(key)): count
                                          for key, count in census["d"].items()})
    return GeoParams(parsed, **rest)


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

    `validate(params, errors, prefix, method)` appends every violation in a
    raw params object; `parse(**params)` builds the typed params from a
    valid one and `dump` is its inverse. `game` builds the coalition game
    and `closed` the closed-form result: a ShareReport for a single-CSS
    model, whose params are `CssParams` and so support `share_sweep`, and
    an Allocation otherwise.
    """

    validate: Callable[[dict, list[str], str, str], None]
    parse: Callable[..., Any]
    dump: Callable[[Any], dict]
    game: Callable[[Any], CoalitionGame]
    closed: Callable[[Any], ShareReport | Allocation]


MODELS: dict[str, ModelSpec] = {
    "single": ModelSpec(_validate_single, SingleCssParams, _dump_fields,
                        single_game, closed_single),
    "weighted": ModelSpec(_validate_weighted, WeightedCssParams, _dump_fields,
                          weighted_game, closed_weighted),
    "profit": ModelSpec(_validate_profit, ProfitCssParams, _dump_fields,
                        profit_game, closed_profit),
    "oligopoly_coarse": ModelSpec(_validate_graph, _parse_graph, _dump_graph,
                                  coarse_game, shapley_coarse),
    "oligopoly_fine": ModelSpec(_validate_fine, _parse_graph, _dump_graph,
                                fine_game, shapley_fine_closed),
    "geo": ModelSpec(_validate_geo, _parse_geo, _dump_geo,
                     lambda p: geo_game(p.census, p.rho, p.variant),
                     lambda p: geo_shapley(p.census, p.rho, p.variant)),
    "geo_founder": ModelSpec(_validate_geo, _parse_geo, _dump_geo,
                             lambda p: geo_founder_game(p.census, p.rho, p.variant),
                             lambda p: geo_founder_shapley(p.census, p.rho, p.variant)),
}

# the models whose params sweep: `CssParams`, which define `closed_at`
SWEEPABLE = tuple(name for name, spec in MODELS.items() if hasattr(spec.parse, "closed_at"))


def validate_scenario_data(data: Any) -> list[str]:
    """Collect every schema or invariant violation in a scenario object."""
    if not isinstance(data, dict):
        return ["scenario: expected a JSON object"]
    errors: list[str] = []
    _check_keys(data, ("model", "params", "method", "sample", "label"),
                errors, "scenario")
    model = data.get("model")
    spec = MODELS.get(model) if isinstance(model, str) else None
    if model is None:
        errors.append("model: missing required field")
    elif spec is None:
        errors.append(f"model: expected one of {list(MODELS)}, got {model!r}")
    method = data.get("method", "closed")
    if method not in METHODS:
        errors.append(f"method: expected one of {list(METHODS)}, got {method!r}")
        method = "closed"
    label = data.get("label", "")
    if not isinstance(label, str):
        errors.append("label: expected a string")
    sample = data.get("sample")
    if sample is not None:
        if not isinstance(sample, dict):
            errors.append("sample: expected an object")
        else:
            _check_keys(sample, ("permutations", "seed"), errors, "sample")
            _check_int(sample, "permutations", errors, prefix="sample",
                       minimum=1, required=False)
            _check_int(sample, "seed", errors, prefix="sample",
                       minimum=0, required=False)
    params = data.get("params")
    if params is None:
        errors.append("params: missing required field")
    elif not isinstance(params, dict):
        errors.append("params: expected an object")
    elif spec is not None:
        spec.validate(params, errors, "params", method)
    return errors


def parse_scenario(data: Any) -> Scenario:
    """Validate and build a typed Scenario; raises ScenarioError on any problem."""
    errors = validate_scenario_data(data)
    if errors:
        raise ScenarioError(errors)
    model = data["model"]
    params = MODELS[model].parse(**data["params"])
    sample = None
    if data.get("sample") is not None:
        sample = SampleConfig(**data["sample"])
    return Scenario(model, params, data.get("method", "closed"), sample,
                    data.get("label", ""))


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; unreadable files raise OSError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: not valid JSON ({exc})"]) from exc
    return parse_scenario(data)


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
