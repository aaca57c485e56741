"""What every model module shares: field checks, `ModelSpec` and the JSON reader.

A validator takes params in their JSON form (a mapping of plain values), a
list to append to, and the path that prefixes each message; it reports every
violation it finds rather than stopping at the first. Each model's validator
sits next to its params type: the type's constructor runs it on its own
fields, with an empty path, and the scenario loader runs it on the raw JSON.
Each model module ends with its `SPECS`, one `ModelSpec` per model name.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:
    from fairshare.core import Allocation, CoalitionGame
    from fairshare.models import ShareReport


class ParamsError(ValueError):
    """Params failed validation; `errors` lists every violation found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ModelSpec:
    """Everything the scenario layer knows of one value model.

    `parse(**params)` builds the typed params from JSON params, whose constructors
    run the model's validator, and `dump` is its inverse. `parse` raises TypeError
    where the JSON has a shape the typed params do not hold; `validate(params,
    errors, prefix)` then lists every violation in the JSON itself.
    `closed_refusal(params)` says why the closed form cannot solve the JSON params,
    if it cannot. `game` builds the coalition game and `closed` the closed-form
    result: a ShareReport for a single-CSS model, whose `closed(params, n)` takes
    any crowd size n and so runs in `share_sweep`, and an Allocation otherwise.
    """

    validate: Callable[[dict, list[str], str], None]
    parse: Callable[..., Any]
    dump: Callable[[Any], dict]
    game: Callable[[Any], CoalitionGame]
    closed: Callable[[Any], ShareReport | Allocation]
    closed_refusal: Callable[[dict], str | None] = lambda params: None


def read_json(path: str | Path) -> Any:
    """A file's JSON value; OSError if it cannot be read. Text that is not UTF-8
    (RFC 8259), not JSON, or holds an integer too long to read raises ParamsError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise ParamsError([f"{path}: not valid JSON ({exc})"]) from exc


def raise_invalid(validate: Callable[[Mapping, list[str], str], None],
                  params: Mapping) -> None:
    """Run a validator on params, raising one ParamsError that lists every violation."""
    errors: list[str] = []
    validate(params, errors, "")
    if errors:
        raise ParamsError(errors)


def at(prefix: str, name: str) -> str:
    """The path of field `name` under `prefix` (the root is the empty path)."""
    return f"{prefix}.{name}" if prefix else name


def is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_num(x: Any) -> bool:
    """A finite int or float that a float can hold (no NaN, no infinities)."""
    if not (is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def is_list(x: Any) -> bool:
    """A JSON array, or the tuple that typed params hold in its place."""
    return isinstance(x, (list, tuple))


@functools.cache
def field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def report_missing(errors: list[str], path: str) -> None:
    errors.append(f"{path}: missing required field")


def check_object(value: Any, errors: list[str], path: str) -> bool:
    """Whether `value` is a JSON object, reporting it otherwise."""
    if isinstance(value, dict):
        return True
    errors.append(f"{path}: expected an object")
    return False


def check_choice(value: Any, choices: Iterable[str], errors: list[str], path: str) -> bool:
    """Whether `value` is one of `choices`, reporting it otherwise."""
    options = list(choices)
    if value in options:
        return True
    errors.append(f"{path}: expected one of {options}, got {value!r}")
    return False


def check_int(params: Mapping, key: str, errors: list[str], *, prefix: str,
              minimum: int | None = None, maximum: int | None = None,
              required: bool = True) -> int | None:
    """The integer at `key`, or None after reporting why it is missing or bad."""
    if key not in params:
        if required:
            report_missing(errors, at(prefix, key))
        return None
    value = params[key]
    if not is_int(value):
        errors.append(f"{at(prefix, key)}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{at(prefix, key)}: must be >= {minimum}, got {value}")
        return None
    if maximum is not None and value > maximum:
        errors.append(f"{at(prefix, key)}: must be <= {maximum}, got {value}")
        return None
    return value


def check_num(params: Mapping, key: str, errors: list[str], *, prefix: str,
              positive: bool = False, nonnegative: bool = False) -> None:
    if key not in params:
        return
    value = params[key]
    if not is_num(value):
        errors.append(f"{at(prefix, key)}: expected a finite number, got {value!r}")
    elif positive and value <= 0:
        errors.append(f"{at(prefix, key)}: must be positive, got {value}")
    elif nonnegative and value < 0:
        errors.append(f"{at(prefix, key)}: must be nonnegative, got {value}")


def check_keys(obj: Mapping, allowed: tuple[str, ...], errors: list[str],
               prefix: str) -> None:
    for key in obj:
        if key not in allowed:
            errors.append(f"{at(prefix, key)}: unknown field")
