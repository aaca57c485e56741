"""Scenario files: the envelope around one model's params.

A scenario is a JSON object selecting one of the bundled value models plus
its parameters and the solution method(s) to run:

    {"model": "single", "params": {"n": 3, "k": 2, "rho": 1.0},
     "method": "all", "sample": {"permutations": 20000, "seed": 0}}

`parse_scenario` reports every violation it can find, as the `errors` of one
`ParamsError`, rather than stopping at the first, so a file can be fixed in
one pass. This module reads the envelope: the model name, the method, the
sampler config and the label. Each model module defines its own params, their
JSON form, game and closed form in its `SPECS`; `MODELS` collects them, and
the functions here look a model up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from fairshare import geo, models, oligopoly
from fairshare.checks import (
    ModelSpec,
    ParamsError,
    check_choice,
    check_int,
    check_keys,
    check_object,
    read_json,
    report_missing,
)
from fairshare.core import Allocation, CoalitionGame
from fairshare.models import ShareReport

METHODS = ("closed", "exact", "sample", "all")

DEFAULT_PERMUTATIONS = 20_000

# the least value of each sampler field, in the order a file's are checked; the
# solve flags of the same names have the same minimums
SAMPLE_MINIMUMS = {"permutations": 1, "seed": 0}


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


# every model, in the order a bad model name lists them
MODELS: dict[str, ModelSpec] = {**models.SPECS, **oligopoly.SPECS, **geo.SPECS}

# the models whose closed form takes any crowd size, so `share_sweep` runs it
SWEEPABLE = tuple(models.SPECS)


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


def parse_scenario(data: Any) -> Scenario:
    """Validate and build a typed Scenario; raises one ParamsError listing
    every violation on any problem."""
    if not isinstance(data, dict):
        raise ParamsError(["scenario: expected a JSON object"])
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
        raise ParamsError(errors)
    return Scenario(model, typed, method,
                    None if sample is None else SampleConfig(**sample), label)


def load_scenario(path: str | Path, *, method: str | None = None,
                  sample: dict | None = None) -> Scenario:
    """Read and parse a scenario file; unreadable files raise OSError.

    `method` and `sample` are written into the file's JSON object before its
    one parse; a file or sample that is no object is left to the validator.
    A file nested too deeply for the reader, or for the `repr` of a value in
    an error message, is refused as a whole."""
    try:
        data = read_json(path)
        if isinstance(data, dict):
            if method is not None:
                data["method"] = method
            given = data.get("sample")
            if sample and (given is None or isinstance(given, dict)):
                data["sample"] = {**(given or {}), **sample}
        return parse_scenario(data)
    except RecursionError:
        raise ParamsError([f"{path}: nested too deeply to read"]) from None


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
