"""Seeded scenario generator and the benchmark's workload definitions.

A workload is a fixed list of CLI operations plus the scenario files they
read. The seed chooses the continuous contents of every scenario (weights,
crowd sizes, agreement graphs, coverage censuses, value scales, costs); the
workload definition fixes the roster sizes, the operation mix and the discrete
model choices (exponent, work exponent, geo variant), so runs on different
seeds do the same amount of work and their figures can be compared. The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MODELS = ("single", "weighted", "profit", "oligopoly_coarse", "oligopoly_fine",
          "geo", "geo_founder")

# The sampler block of every sampled scenario. Permutations and seed are
# fixed, so a sampled solve's standard errors change with the seed only
# through the scenario's contents.
SAMPLE = {"permutations": 500, "seed": 11}


@dataclass(frozen=True)
class Op:
    """One CLI call. `scenario` names a generated file, or is None."""

    op_id: str
    command: str
    scenario: str | None = None
    args: tuple[str, ...] = ()
    model: str | None = None

    def argv(self, work_dir: Path) -> list[str]:
        argv = [self.command]
        if self.scenario is not None:
            argv += ["--scenario", str(work_dir / self.scenario)]
        return argv + list(self.args)


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]   # file name -> exact file text
    ops: tuple[Op, ...]


def _scale(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 2.0), 3)


def _graph(rng: random.Random, sizes: list[int], n_edges: int) -> dict:
    n_vertices = len(sizes)
    pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    edges = sorted(rng.sample(pairs, min(n_edges, len(pairs))))
    return {"vertices": [{"id": f"s{v}", "size": size} for v, size in enumerate(sizes)],
            "edges": [[f"s{a}", f"s{b}"] for a, b in edges],
            "rho": _scale(rng)}


def _census(rng: random.Random, m: int) -> dict:
    # every agent covers some users of its own, plus overlaps of 2-3 agents
    d = {str(i): rng.randint(1, 6) for i in range(1, m + 1)}
    for _ in range(max(1, m // 4)):
        members = sorted(rng.sample(range(1, m + 1), min(m, rng.randint(2, 3))))
        d[",".join(map(str, members))] = rng.randint(1, 4)
    return {"m": m, "d": d}


def model_params(model: str, players: int, rng: random.Random, *, k: int = 2,
                 alpha: float = 1.0, variant: str = "met") -> dict:
    """Parameters of `model` whose game has exactly `players` players."""
    if model == "single":
        return {"n": players - 1, "k": k, "rho": _scale(rng)}
    if model == "profit":
        # costs small enough that the grand profit stays clearly positive
        return {"n": players - 1, "k": k, "rho": _scale(rng),
                "founder_cost": round(rng.uniform(0.0, 0.5), 3),
                "member_cost": round(rng.uniform(0.0, 0.25), 3)}
    if model == "weighted":
        return {"weights": [round(rng.uniform(0.5, 2.0), 3) for _ in range(players - 1)],
                "alpha": alpha, "rho": _scale(rng), "k": 2}
    if model == "oligopoly_coarse":
        return _graph(rng, [rng.randint(1, 5) for _ in range(players)], players)
    if model == "oligopoly_fine":
        # up to four systems share the crowd; every crowd is nonempty
        sizes = [1] * min(4, players // 2)
        for _ in range(players - 2 * len(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        return _graph(rng, sizes, len(sizes))
    if model in ("geo", "geo_founder"):
        m = players - 1 if model == "geo_founder" else players
        return {"census": _census(rng, m), "variant": variant, "rho": _scale(rng)}
    raise ValueError(f"unknown model {model!r}")


def variety(index: int) -> dict:
    """Discrete model choices, cycled by position rather than drawn."""
    return {"k": (2, 3, 1)[index % 3], "alpha": (1.0, 0.5, 1.5)[index % 3],
            "variant": ("met", "lin")[index % 2]}


class _Builder:
    """Accumulates a workload's files and operations in a fixed order."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def file(self, stem: str, text: str) -> str:
        name = f"{len(self.files):04d}-{stem}.json"
        self.files[name] = text
        return name

    def scenario(self, model: str, players: int, *, method: str = "all",
                 sample: bool = False, **choices) -> str:
        data = {"model": model, "method": method,
                "params": model_params(model, players, self.rng, **choices)}
        if sample:
            data["sample"] = dict(SAMPLE)
        return self.file(f"{model}-n{players}", json.dumps(data, sort_keys=True) + "\n")

    def op(self, command: str, scenario: str | None, *args: str,
           model: str | None = None) -> None:
        stem = scenario[5:-5] if scenario else command
        self.ops.append(Op(f"{len(self.ops):04d}-{command}-{stem}", command,
                           scenario, args, model))

    def solve(self, model: str, players: int, **options) -> None:
        self.op("solve", self.scenario(model, players, **options),
                "--format", "json", model=model)


def _exact_cap(b: _Builder, bundled: dict[str, str]) -> None:
    # Rosters of 17-20 players: under the exact cap (22) and above the
    # structure cap (14), so the axiom scan is skipped and the 2^n coalition
    # table plus the Shapley reduction take over 90% of the time. Batched
    # tables and the geo_founder census rescan show here; parse and render
    # cost nothing. One size per model keeps a pass near 6 s on 2 cores.
    for index, (model, players) in enumerate((
            ("single", 20), ("weighted", 17), ("profit", 19),
            ("oligopoly_coarse", 17), ("oligopoly_fine", 17), ("geo", 17),
            ("geo_founder", 17))):
        b.solve(model, players, sample=True, **variety(index))


def _audit_small(b: _Builder, bundled: dict[str, str]) -> None:
    # Rosters of 8-14 players plus the bundled scenarios: the axiom audit runs
    # exhaustively, so each solve builds the table twice and runs the
    # O(n^2 2^n) pair scan. A table cache or a reshape-based axiom scan shows
    # here and not in exact_cap.
    for model in MODELS:
        for players in range(8, 15):
            b.solve(model, players, **variety(players))
    for stem, text in sorted(bundled.items()):
        b.op("solve", b.file(stem, text), "--format", "json",
             model=json.loads(text)["model"])


def _sample_large(b: _Builder, bundled: dict[str, str]) -> None:
    # Rosters of 30-63 players with the fixed sample block: the exact engine
    # is skipped, so the closed form and the sampler run. The sampler makes
    # one scalar characteristic-function call per player per permutation, in
    # random order, unlike the in-order table: a batched table that helps
    # exact_cap must not slow this workload, and sampler variance reduction
    # moves sample_s_to_1pct here.
    for model, sizes in (("single", (35, 63)), ("weighted", (33, 60)),
                         ("profit", (30, 56)), ("oligopoly_coarse", (31, 47)),
                         ("oligopoly_fine", (38, 63)), ("geo", (40, 63)),
                         ("geo_founder", (30, 45))):
        for index, players in enumerate(sizes):
            b.solve(model, players, sample=True, **variety(index))


# roster sizes log-spaced up to the largest a 64-bit coalition mask holds
CLOSED_SIZES = (3, 4, 6, 9, 13, 19, 28, 42, 64)
CLOSED_REPEATS = 12
# (crowd size, exponent) pairs whose n^k still fits in a float
LARGE_K = ((2, 400), (3, 400), (5, 400), (5, 300), (10, 250), (20, 200),
           (40, 150), (62, 160))
SWEEPS = (("single", 1_000_000), ("profit", 1_000_000), ("weighted", 100_000),
          ("single", 10_000), ("profit", 1_000), ("weighted", 1_000))


def _closed_scale(b: _Builder, bundled: dict[str, str]) -> None:
    # About 1,700 cheap operations and no coalition tables: parse and
    # validation, the closed forms, share_sweep's O(n) loops, the empirical
    # estimate and JSON render. Every closed solve's file is also validated.
    # The six slow operations (the long sweeps and the sampled solves) are
    # under 0.5% of a pass, so the 99th percentile falls among cheap ones.
    rng = b.rng
    for repeat in range(CLOSED_REPEATS):
        cases = [(model, players, variety(repeat)) for model in MODELS
                 for players in CLOSED_SIZES]
        cases += [(model, n + 1, {"k": k}) for model in ("single", "profit")
                  for n, k in LARGE_K[repeat % 2::2]]
        for model, players, choices in cases:
            name = b.scenario(model, players, method="closed", **choices)
            b.op("solve", name, "--format", "json", model=model)
            b.op("validate", name, model=model)
        for _ in range(2):
            first = rng.randrange(10)          # half-years 2017H1..2021H2
            last = rng.randrange(first, 10)
            window = (f"{2017 + first // 2}H{first % 2 + 1}.."
                      f"{2017 + last // 2}H{last % 2 + 1}")
            b.op("empirical", None, "--payout", f"{rng.uniform(1.0, 30.0):.3f}",
                 "--window", window, "--entity", rng.choice(("YouTube", "Alphabet")),
                 "--format", "json")
    for model, top in SWEEPS:
        n_values, n = [], 1
        while n < top:
            n_values.append(n + rng.randrange(n))
            n *= 10
        b.op("sweep", b.scenario(model, 4, method="closed"),
             "--n-values", ",".join(map(str, n_values + [top])), "--format", "json",
             model=model)
    # rosters above the exact cap, so these sample without building a table
    for model in ("single", "weighted", "profit"):
        b.solve(model, 24, sample=True)


def _known_defects(b: _Builder, bundled: dict[str, str]) -> None:
    # Not a timed workload: inputs that failed when this benchmark was
    # written, run through the same runner and checks so that a fix reads as
    # fewer failed operations. Closed forms refuse rosters above 64 players
    # (the game is built first and rejects them, exit 2), and n ** k
    # overflows a float for the single and profit models at n=10, k=400
    # (uncaught OverflowError).
    for model in ("single", "profit"):
        b.solve(model, 11, method="closed", k=400)
    for model in MODELS:
        for players in (65, 300):
            b.solve(model, players, method="closed")


WORKLOADS = {"exact_cap": _exact_cap, "audit_small": _audit_small,
             "sample_large": _sample_large, "closed_scale": _closed_scale,
             "known_defects": _known_defects}


def build_workload(name: str, seed: int, bundled: dict[str, str]) -> Workload:
    """The workload's files and operations for `seed`.

    `bundled` maps the stem of each bundled scenario file to its text.
    """
    builder = _Builder(name, seed)
    WORKLOADS[name](builder, bundled)
    return Workload(builder.files, tuple(builder.ops))


def write_files(workload: Workload, work_dir: Path) -> None:
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (work_dir / name).write_text(text, encoding="utf-8")
