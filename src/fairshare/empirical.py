"""Empirical revenue-share analysis for platforms that disclose crowd payouts.

Given annual revenues and an aggregate payout to crowd contributors over a
window of half-years, compute the payout share of the windowed revenue and
compare it against the [1/2, 2/3] band that the value models predict for the
crowd. Half-year revenue is taken as half the annual figure, with no
seasonality adjustment.

A public revenue table (Alphabet and YouTube, 2017-2021, billions USD) is
bundled so the headline analysis can be rerun or swapped for updated data.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from fairshare.checks import (
    ParamsError,
    at,
    check_int,
    check_keys,
    check_num,
    field_names,
    is_num,
    raise_invalid,
    read_json,
    report_missing,
)

BAND = (0.5, 2.0 / 3.0)

_BUNDLED_RECORDS = "data/youtube_revenue.json"

_TOKEN_RE = re.compile(r"^(\d{4})(?:H([12]))?$")


def validate_record(row: Mapping, errors: list[str], prefix: str = "") -> None:
    """A revenue record: an integer year, a string entity, a positive revenue
    and an optional nonnegative payout of at most the revenue, each amount a
    number a float can hold. A null payout is no payout."""
    check_keys(row, field_names(RevenueRecord), errors, prefix)
    check_int(row, "year", errors, prefix=prefix)
    entity = row.get("entity")
    if "entity" not in row:
        report_missing(errors, at(prefix, "entity"))
    elif not isinstance(entity, str):
        errors.append(f"{at(prefix, 'entity')}: expected a string, got {entity!r}")
    if "revenue" not in row:
        report_missing(errors, at(prefix, "revenue"))
    check_num(row, "revenue", errors, prefix=prefix, positive=True)
    revenue, payout = row.get("revenue"), row.get("payout")
    if payout is not None:
        check_num(row, "payout", errors, prefix=prefix, nonnegative=True)
    if is_num(revenue) and is_num(payout) and payout > revenue > 0:
        errors.append(f"{at(prefix, 'payout')}: {payout} exceeds revenue {revenue}")


@dataclass(frozen=True)
class RevenueRecord:
    """One entity-year revenue row, optionally with a disclosed payout."""

    year: int
    entity: str
    revenue: float
    payout: float | None = None

    def __post_init__(self) -> None:
        raise_invalid(validate_record, vars(self))
        object.__setattr__(self, "revenue", float(self.revenue))
        object.__setattr__(self, "payout", None if self.payout is None else float(self.payout))


@dataclass(frozen=True, order=True)
class HalfYear:
    year: int
    half: int

    def __post_init__(self) -> None:
        if self.half not in (1, 2):
            raise ValueError(f"half must be 1 or 2, got {self.half}")

    def label(self) -> str:
        return f"{self.year}H{self.half}"


def _half(index: int) -> HalfYear:  # the half-year of index 2 * year + half - 1
    return HalfYear(index // 2, index % 2 + 1)


def _token_span(token: str) -> tuple[int, int]:
    """The first and last half-year index of a year or half-year token."""
    match = _TOKEN_RE.match(token)
    if not match:
        raise ValueError(
            f"bad window token {token!r}: expected YYYY, YYYYH1, or YYYYH2")
    year, half = int(match.group(1)), match.group(2)
    first, last = (int(half), int(half)) if half else (1, 2)
    return 2 * year + first - 1, 2 * year + last - 1


def parse_window(text: str) -> tuple[HalfYear, ...]:
    """Expand a window spec into half-years.

    Accepts comma-separated units; each unit is a year (both halves), a
    half-year like 2018H2, or an inclusive span like 2018H2..2021H1.
    """
    counts: Counter[int] = Counter()
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty window component")
        start, dots, end = part.partition("..")
        first = _token_span(start.strip())[0]
        last = _token_span((end if dots else start).strip())[1]
        if first > last:
            raise ValueError(f"window span runs backwards: "
                             f"{_half(first).label()}..{_half(last).label()}")
        counts.update(range(first, last + 1))
    dupes = sorted(_half(h).label() for h, count in counts.items() if count > 1)
    if dupes:
        raise ValueError(f"window counts half-years twice: {', '.join(dupes)}")
    return tuple(map(_half, sorted(counts)))


def window_revenue(records: Iterable[RevenueRecord], window: Sequence[HalfYear],
                   entity: str) -> float:
    """Total revenue over the window: each half-year adds half its year's figure."""
    by_year: dict[int, float] = {}
    for record in records:
        if record.entity != entity:
            continue
        if record.year in by_year:
            raise ValueError(f"duplicate revenue row for {entity} {record.year}")
        by_year[record.year] = record.revenue
    missing = sorted({h.year for h in window} - by_year.keys())
    if missing:
        raise ValueError(
            f"no revenue rows for {entity} in year(s) {missing}")
    try:
        return math.fsum(by_year[h.year] / 2.0 for h in window)
    except OverflowError:
        labels = ",".join(h.label() for h in window)
        raise ValueError(
            f"revenue of {entity} over {labels} overflows a float") from None


@dataclass(frozen=True)
class ShareEstimate:
    """Payout share of windowed revenue, checked against the [1/2, 2/3] band."""

    entity: str
    payout: float
    window: tuple[HalfYear, ...]
    window_revenue: float
    share: float
    inside_band: bool
    distance_to_band: float

    def window_label(self) -> str:
        return ",".join(h.label() for h in self.window)


def revenue_share(records: Iterable[RevenueRecord], payout_total: float,
                  window: Sequence[HalfYear], entity: str) -> ShareEstimate:
    """Payout as a fraction of windowed revenue, with the band check."""
    errors: list[str] = []
    check_num({"payout": payout_total}, "payout", errors, prefix="", nonnegative=True)
    if errors:
        raise ParamsError(errors)
    if not window:
        raise ValueError("window resolves to no half-years")
    total = window_revenue(records, window, entity)
    if total <= 0:
        raise ValueError(f"windowed revenue must be positive, got {total}")
    share = payout_total / total
    low, high = BAND
    inside = low <= share <= high
    distance = min(abs(share - low), abs(share - high))
    return ShareEstimate(entity, payout_total, tuple(window), total, share,
                         inside, distance)


def load_revenue_records(path: str | Path | None = None) -> tuple[RevenueRecord, ...]:
    """Load revenue records from a JSON file, or the bundled table by default."""
    try:
        data = read_json(path) if path is not None else json.loads(
            resources.files("fairshare").joinpath(_BUNDLED_RECORDS).read_text(encoding="utf-8"))
        rows = data.get("records") if isinstance(data, dict) else data
        if not isinstance(rows, list):
            raise ValueError(f'{path}: expected a list of records or {{"records": [...]}}')
        records = []
        for pos, row in enumerate(rows):
            try:
                if not isinstance(row, dict):
                    raise ParamsError(["expected an object"])
                try:
                    records.append(RevenueRecord(**row))
                except TypeError:  # the constructor cannot take the row's keys
                    raise_invalid(validate_record, row)
                    raise
            except ParamsError as exc:
                where = f"{path}: bad revenue record at index {pos}: "
                raise ParamsError([where + error for error in exc.errors]) from exc
        return tuple(records)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read") from None
