"""Report objects and their JSON / CSV / text renderings.

JSON output is the exact bytes of `json.dumps(payload, sort_keys=True,
indent=2)`, written by `_json`, so identical runs produce identical bytes;
allocation CSVs always carry the header `player_id,tag,payoff,share`.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from fairshare.core import Allocation, AxiomReport, PlayerId
from fairshare.empirical import BAND, ShareEstimate
from fairshare.models import ShareReport, gaps_monotone

ALLOCATION_CSV_HEADER = ("player_id", "tag", "payoff", "share")


def _allocation_payload(key: str, alloc: Allocation) -> dict:
    shares = alloc.shares()
    return {
        "method": key,
        "payoffs": list(alloc.payoffs),
        "grand_value": alloc.grand_value,
        "stderr": list(alloc.stderr) if alloc.stderr is not None else None,
        "shares": list(shares) if shares is not None else None,
    }


def _axiom_payload(report: AxiomReport) -> dict:
    return {
        "efficiency_ok": report.efficiency_ok,
        "efficiency_gap": report.efficiency_gap,
        "null_players": list(report.null_players),
        "null_ok": report.null_ok,
        "symmetric_pairs": [list(pair) for pair in report.symmetric_pairs],
        "symmetry_ok": report.symmetry_ok,
        "exhaustive": report.exhaustive,
        "all_ok": report.all_ok,
    }


@dataclass
class SolveReport:
    """Allocations for one scenario, keyed by method in the order the solve
    ran them (the first is the primary one), with cross-method discrepancies."""

    scenario: dict
    players: tuple[PlayerId, ...]
    allocations: dict[str, Allocation]
    discrepancies: dict[str, float]
    axioms: AxiomReport | None
    diagnostics: dict | None
    notes: tuple[str, ...] = ()

    def primary(self) -> tuple[str, Allocation]:
        if not self.allocations:
            raise ValueError("report holds no allocations")
        return next(iter(self.allocations.items()))

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {
            "scenario": self.scenario,
            "players": [{"index": i, "tag": p.tag.value, "name": p.name}
                        for i, p in enumerate(self.players)],
            "allocations": {key: _allocation_payload(key, alloc)
                            for key, alloc in self.allocations.items()},
            "notes": list(self.notes),
        }
        # present exactly when at least two methods ran
        if self.discrepancies:
            payload["discrepancies"] = dict(self.discrepancies)
        if self.axioms is not None:
            payload["axioms"] = _axiom_payload(self.axioms)
        if self.diagnostics is not None:
            payload["diagnostics"] = dict(self.diagnostics)
        return payload

    def csv_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        _, alloc = self.primary()
        shares = alloc.shares()
        rows = []
        for i, (player, payoff) in enumerate(zip(self.players, alloc.payoffs)):
            share = "" if shares is None else shares[i]
            rows.append((player.name, player.tag.value, payoff, share))
        return ALLOCATION_CSV_HEADER, rows

    def to_text(self) -> str:
        lines = []
        label = self.scenario.get("label") or self.scenario["model"]
        method_key, alloc = self.primary()
        lines.append(f"scenario: {label} (model={self.scenario['model']})")
        lines.append(f"grand value: {alloc.grand_value:.10g}")
        shares = alloc.shares()
        lines.append(f"allocation ({method_key}):")
        for i, (player, payoff) in enumerate(zip(self.players, alloc.payoffs)):
            share = "" if shares is None else f"  share {shares[i]:.6f}"
            lines.append(f"  {player.name:<12} {player.tag.value:<10} "
                         f"{payoff:>16.8g}{share}")
        for key, other in self.allocations.items():
            if key != method_key:
                lines.append(f"also ran: {key} (grand value {other.grand_value:.10g})")
        for pair, gap in self.discrepancies.items():
            lines.append(f"discrepancy {pair}: max per-player {gap:.3g}")
        if self.axioms is not None:
            ax = self.axioms
            lines.append(
                "axioms: efficiency {}, null players {}, symmetry {}{}".format(
                    "ok" if ax.efficiency_ok else "FAIL",
                    "ok" if ax.null_ok else "FAIL",
                    "ok" if ax.symmetry_ok else "FAIL",
                    "" if ax.exhaustive else " (detection skipped: roster too large)"))
        if self.diagnostics:
            parts = []
            for key, value in self.diagnostics.items():
                if isinstance(value, float):
                    parts.append(f"{key}={value:.6g}")
                else:
                    parts.append(f"{key}={value}")
            lines.append("diagnostics: " + ", ".join(parts))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


@dataclass
class SweepReport:
    """Share-vs-crowd-size table with the analytic asymptote column."""

    scenario: dict
    rows: tuple[ShareReport, ...]

    def to_payload(self) -> dict:
        rows = [{
            "n": row.n,
            "founder_share": row.founder_share,
            "crowd_share": row.crowd_share,
            "founder_payoff": row.founder_payoff,
            "grand_value": row.grand_value,
            "asymptote": row.asymptotic_founder_share,
            "degenerate": row.degenerate,
        } for row in self.rows]
        return {"scenario": self.scenario, "rows": rows,
                "gaps_monotone": gaps_monotone(self.rows)}

    def csv_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("n", "founder_share", "crowd_share", "asymptote", "degenerate")
        rows = [(row.n, row.founder_share, row.crowd_share, row.asymptotic_founder_share,
                 row.degenerate) for row in self.rows]
        return header, [tuple("" if x is None else x for x in row) for row in rows]

    def to_text(self) -> str:
        width = max([8, *(len(str(row.n)) for row in self.rows)])
        lines = [f"share sweep: model={self.scenario['model']}"]
        lines.append(f"{'n':>{width}}  {'founder_share':>14}  {'asymptote':>10}")
        for row in self.rows:
            share = ("degenerate" if row.founder_share is None
                     else f"{row.founder_share:.6f}")
            asym = ("-" if row.asymptotic_founder_share is None
                    else f"{row.asymptotic_founder_share:.6f}")
            lines.append(f"{row.n:>{width}}  {share:>14}  {asym:>10}")
        monotone = gaps_monotone(self.rows)
        if monotone is not None:
            lines.append(f"gap to asymptote monotone nonincreasing: {monotone}")
        return "\n".join(lines) + "\n"


@dataclass
class EmpiricalReport:
    """Payout-share estimate against the predicted crowd-share band."""

    estimate: ShareEstimate

    def to_payload(self) -> dict:
        est = self.estimate
        return {
            "entity": est.entity,
            "payout": est.payout,
            "window": [h.label() for h in est.window],
            "window_revenue": est.window_revenue,
            "share": est.share,
            "band": list(BAND),
            "inside_band": est.inside_band,
            "distance_to_band": est.distance_to_band,
        }

    def csv_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        est = self.estimate
        header = ("entity", "payout", "window_revenue", "share",
                  "inside_band", "distance_to_band")
        return header, [(est.entity, est.payout, est.window_revenue,
                         est.share, est.inside_band, est.distance_to_band)]

    def to_text(self) -> str:
        est = self.estimate
        verdict = "inside" if est.inside_band else "outside"
        return (
            f"entity: {est.entity}\n"
            f"window: {est.window_label()}\n"
            f"windowed revenue: {est.window_revenue:.10g}\n"
            f"payout: {est.payout:.10g}\n"
            f"share: {est.share:.4f} ({verdict} the [1/2, 2/3] band, "
            f"{est.distance_to_band:.4f} from the nearest bound)\n")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# Encoders of values of exactly these types, which `_json` looks up for each
# item of a container in place of calling itself
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json(value: Any, indent: str) -> str:
    """The string `json.dumps(value, sort_keys=True, indent=2)` writes for a value
    nested under `indent`, with its `isinstance` tests in its order. That encoder
    runs one generator per value, as `json.dumps` does for any indent; this one
    returns strings, and joins a list of finite floats in one call.

    Raises TypeError on a value JSON cannot hold, as `json.dumps` does, and on a
    key that is not a str."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = indent + "  "
    scalar = _SCALARS.get
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a finite sum has no NaN or infinite term
        if all(type(item) is float for item in value) and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        else:
            items = [enc(v) if (enc := scalar(type(v))) else _json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # the key encoder refuses a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{enc(v) if (enc := scalar(type(v))) else _json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(report, fmt: str = "text") -> str:
    """Render a report in one of: json, csv, text."""
    if fmt == "json":
        return _json(report.to_payload(), "") + "\n"
    if fmt == "csv":
        header, rows = report.csv_table()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown format {fmt!r}: expected json, csv, or text")


def emit(report, fmt: str = "text", destination: str | Path | None = None) -> str:
    """Render a report and write it to a path, or stdout when destination is
    None or '-'. Returns the rendered text either way."""
    rendered = render(report, fmt)
    if destination is None or destination == "-":
        sys.stdout.write(rendered)
    else:
        try:
            Path(destination).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write report to {destination}: {exc}") from exc
    return rendered
