"""Spans recorded around calls into fairshare's modules, and their self times.

The tracer replaces module attributes with timing wrappers, so it sees exactly
the calls that go through those module globals: `fairshare.cli` reaches its
collaborators through names imported into its own namespace, and
`shapley_exact` / `check_axioms` reach `coalition_value_table` through
`fairshare.core`'s namespace. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType


@dataclass
class Span:
    name: str          # "<defining module>.<function>", e.g. "core.shapley_exact"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: str            # operation id, shared by every span of one call
    evals: int = 0     # characteristic-function calls made inside the span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Installs span wrappers on module attributes and removes them again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self.evals = 0
        self._stack: list[int] = []
        self._targets: list[tuple[ModuleType, str]] = []
        self._originals: list[tuple[ModuleType, str, object]] = []

    def target(self, module: ModuleType, *names: str) -> None:
        """Register module attributes to wrap whenever tracing is on."""
        self._targets += [(module, name) for name in names]

    def install(self) -> None:
        for module, name in self._targets:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, func):
        span_name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        # the game build_game returns gets a value function that counts calls
        counts_values = func.__name__ == "build_game"

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(span_name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            evals = self.evals
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.evals = self.evals - evals
                self._stack.pop()
            return self._count_values(result) if counts_values else result

        return traced

    def _count_values(self, game):
        value = game.value

        def counted(coalition):
            self.evals += 1
            return value(coalition)

        return dataclasses.replace(game, value=counted)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dataclasses.asdict(span)) + "\n")
