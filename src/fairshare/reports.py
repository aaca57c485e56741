"""Report objects and their JSON / CSV / text renderings.

JSON output is stable-ordered (sorted keys) so identical runs produce
identical bytes; allocation CSVs always carry the header
`player_id,tag,payoff,share`.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from fairshare.core import Allocation, AxiomReport, PlayerId
from fairshare.empirical import BAND, ShareEstimate
from fairshare.models import SweepTable

ALLOCATION_CSV_HEADER = ("player_id", "tag", "payoff", "share")

# fixed rendering order for the methods a solve can run
_METHOD_ORDER = ("closed_form", "exact", "sampled")


def _allocation_payload(alloc: Allocation) -> dict:
    shares = alloc.shares()
    return {
        "method": alloc.method.value,
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
    """Allocations for one scenario, with cross-method discrepancies."""

    scenario: dict
    players: tuple[PlayerId, ...]
    allocations: dict[str, Allocation]
    discrepancies: dict[str, float]
    axioms: AxiomReport | None
    diagnostics: dict | None
    notes: tuple[str, ...] = ()

    def primary(self) -> tuple[str, Allocation]:
        for key in _METHOD_ORDER:
            if key in self.allocations:
                return key, self.allocations[key]
        raise ValueError("report holds no allocations")

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {
            "scenario": self.scenario,
            "players": [{"index": p.index, "tag": p.tag.value,
                         "name": p.display_name()} for p in self.players],
            "allocations": {key: _allocation_payload(alloc)
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
        for player, payoff in zip(self.players, alloc.payoffs):
            share = "" if shares is None else shares[player.index]
            rows.append((player.display_name(), player.tag.value, payoff, share))
        return ALLOCATION_CSV_HEADER, rows

    def to_text(self) -> str:
        lines = []
        label = self.scenario.get("label") or self.scenario["model"]
        method_key, alloc = self.primary()
        lines.append(f"scenario: {label} (model={self.scenario['model']})")
        lines.append(f"grand value: {alloc.grand_value:.10g}")
        shares = alloc.shares()
        lines.append(f"allocation ({method_key}):")
        for player, payoff in zip(self.players, alloc.payoffs):
            share = "" if shares is None else f"  share {shares[player.index]:.6f}"
            lines.append(f"  {player.display_name():<12} {player.tag.value:<10} "
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
    table: SweepTable

    def to_payload(self) -> dict:
        rows = []
        for row in self.table.rows:
            report = row.report
            rows.append({
                "n": row.n,
                "founder_share": report.founder_share,
                "crowd_share": report.crowd_share,
                "founder_payoff": report.founder_payoff,
                "grand_value": report.grand_value,
                "asymptote": report.asymptotic_founder_share,
                "degenerate": report.degenerate,
            })
        return {"scenario": self.scenario, "rows": rows,
                "gaps_monotone": self.table.gaps_monotone()}

    def csv_table(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("n", "founder_share", "crowd_share", "asymptote", "degenerate")
        rows = []
        for row in self.table.rows:
            report = row.report
            rows.append((
                row.n,
                "" if report.founder_share is None else report.founder_share,
                "" if report.crowd_share is None else report.crowd_share,
                "" if report.asymptotic_founder_share is None
                else report.asymptotic_founder_share,
                report.degenerate,
            ))
        return header, rows

    def to_text(self) -> str:
        lines = [f"share sweep: model={self.scenario['model']}"]
        lines.append(f"{'n':>8}  {'founder_share':>14}  {'asymptote':>10}")
        for row in self.table.rows:
            report = row.report
            share = ("degenerate" if report.founder_share is None
                     else f"{report.founder_share:.6f}")
            asym = ("-" if report.asymptotic_founder_share is None
                    else f"{report.asymptotic_founder_share:.6f}")
            lines.append(f"{row.n:>8}  {share:>14}  {asym:>10}")
        monotone = self.table.gaps_monotone()
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


def render(report, fmt: str = "text") -> str:
    """Render a report in one of: json, csv, text."""
    if fmt == "json":
        return json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"
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
