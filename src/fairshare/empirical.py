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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Sequence

from fairshare.checks import check_int, check_num, report_missing

BAND = (0.5, 2.0 / 3.0)

_BUNDLED_RECORDS = "data/youtube_revenue.json"

_TOKEN_RE = re.compile(r"^(\d{4})(?:H([12]))?$")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")


@dataclass(frozen=True)
class RevenueRecord:
    """One entity-year revenue row, optionally with a disclosed payout."""

    year: int
    entity: str
    revenue: float
    payout: float | None = None

    def __post_init__(self) -> None:
        _check_finite("revenue", self.revenue)
        if self.payout is not None:
            _check_finite("payout", self.payout)
        if self.revenue <= 0:
            raise ValueError(f"revenue must be positive, got {self.revenue}")
        if self.payout is not None:
            if self.payout < 0:
                raise ValueError(f"payout cannot be negative, got {self.payout}")
            if self.payout > self.revenue:
                raise ValueError(
                    f"payout {self.payout} exceeds revenue {self.revenue} "
                    f"for {self.entity} {self.year}")


@dataclass(frozen=True, order=True)
class HalfYear:
    year: int
    half: int

    def __post_init__(self) -> None:
        if self.half not in (1, 2):
            raise ValueError(f"half must be 1 or 2, got {self.half}")

    def label(self) -> str:
        return f"{self.year}H{self.half}"


def _token_span(token: str) -> tuple[HalfYear, HalfYear]:
    match = _TOKEN_RE.match(token)
    if not match:
        raise ValueError(
            f"bad window token {token!r}: expected YYYY, YYYYH1, or YYYYH2")
    year = int(match.group(1))
    if match.group(2):
        half = HalfYear(year, int(match.group(2)))
        return half, half
    return HalfYear(year, 1), HalfYear(year, 2)


def _steps(first: HalfYear, last: HalfYear) -> list[HalfYear]:
    if first > last:
        raise ValueError(f"window span runs backwards: "
                         f"{first.label()}..{last.label()}")
    out = [first]
    while out[-1] < last:
        year, half = out[-1].year, out[-1].half
        out.append(HalfYear(year + half - 1, 3 - half))
    return out


def parse_window(text: str) -> tuple[HalfYear, ...]:
    """Expand a window spec into half-years.

    Accepts comma-separated units; each unit is a year (both halves), a
    half-year like 2018H2, or an inclusive span like 2018H2..2021H1.
    """
    halves: list[HalfYear] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            start_text, end_text = part.split("..", 1)
            start, _ = _token_span(start_text.strip())
            _, end = _token_span(end_text.strip())
            halves.extend(_steps(start, end))
        elif part:
            first, last = _token_span(part)
            halves.extend(_steps(first, last))
        else:
            raise ValueError("empty window component")
    if not halves:
        raise ValueError("window resolves to no half-years")
    if len(set(halves)) != len(halves):
        dupes = sorted({h.label() for h in halves if halves.count(h) > 1})
        raise ValueError(f"window counts half-years twice: {', '.join(dupes)}")
    return tuple(sorted(halves))


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
    _check_finite("payout", payout_total)
    if payout_total < 0:
        raise ValueError(f"payout cannot be negative, got {payout_total}")
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


def _read_record(row: Any) -> RevenueRecord:
    """One JSON row as a record: an integer year, a string entity, and a
    revenue and optional payout that are numbers a float can hold. A
    non-finite float is left to `RevenueRecord`, which names it."""
    if not isinstance(row, dict):
        raise ValueError("expected an object")
    errors: list[str] = []
    check_int(row, "year", errors, prefix="")
    if "entity" not in row:
        report_missing(errors, "entity")
    elif not isinstance(row["entity"], str):
        errors.append(f"entity: expected a string, got {row['entity']!r}")
    if "revenue" not in row:
        report_missing(errors, "revenue")
    elif not isinstance(row["revenue"], float):
        check_num(row, "revenue", errors, prefix="")
    payout = row.get("payout")
    if payout is not None and not isinstance(payout, float):
        check_num(row, "payout", errors, prefix="")
    if errors:
        raise ValueError("; ".join(errors))
    return RevenueRecord(row["year"], row["entity"], float(row["revenue"]),
                         None if payout is None else float(payout))


def load_revenue_records(path: str | Path | None = None) -> tuple[RevenueRecord, ...]:
    """Load revenue records from a JSON file, or the bundled table by default."""
    if path is None:
        text = resources.files("fairshare").joinpath(_BUNDLED_RECORDS).read_text(
            encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
        rows = data.get("records") if isinstance(data, dict) else data
        if not isinstance(rows, list):
            raise ValueError(f'{path}: expected a list of records or {{"records": [...]}}')
        records = []
        for pos, row in enumerate(rows):
            try:
                records.append(_read_record(row))
            except ValueError as exc:
                raise ValueError(f"{path}: bad revenue record at index {pos}: {exc}") from exc
        return tuple(records)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read") from None
