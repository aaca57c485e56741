"""Reference implementations that the tests hold the package to.

Coalitions as sets, the models' scalar characteristic functions, two
Shapley engines independent of `shapley_exact`, the whole-array form of
`shapley_exact` whose bits it must keep, and the exhaustive scans whose
verdicts `exact_classes` and the axiom audit must give. The package computes
from batch tables and closed forms; these compute the same values one
coalition at a time, the slow and plain way, so that every table and closed
form has something to be compared against.

`scenario_errors` lists what `parse_scenario` refuses in a scenario object,
and `window_labels` expands an `empirical` window spec one half-year at a
time, as `parse_window` did before it counted half-year indices.

The paper's supermodularity and linearity claims are checked here too, by
`supermodular_whole` on a game's `coalition_value_table` and by
`check_linearity`; the package itself runs neither audit.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from fairshare.checks import ParamsError
from fairshare.core import (
    MAX_PLAYERS,
    Allocation,
    CoalitionGame,
    DegenerateCrowdError,
    RosterTooLargeError,
    coalition_value_table,
    shapley_exact,
)
from fairshare.empirical import HalfYear
from fairshare.geo import DiskCensus, GeoParams, GeoVariant
from fairshare.models import SingleCssParams, WeightedCssParams
from fairshare.oligopoly import OligopolyGraph, minor_blocks
from fairshare.scenarios import parse_scenario

ORACLE_CAP = 9              # n! join orders; anything larger is impractical


# --- coalitions -------------------------------------------------------------------

class Coalition(int):
    """A set of player indices packed into an int: player i <-> bit i."""

    __slots__ = ()

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "Coalition":
        mask = 0
        for i in members:
            i = int(i)
            if not 0 <= i < MAX_PLAYERS:
                raise ValueError(f"player index out of range [0, {MAX_PLAYERS}): {i}")
            mask |= 1 << i
        return cls(mask)

    @property
    def size(self) -> int:
        return int(self).bit_count()

    def members(self) -> tuple[int, ...]:
        mask = int(self)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def __contains__(self, player: int) -> bool:
        return (self >> player) & 1 == 1

    def add(self, player: int) -> "Coalition":
        return Coalition(self | (1 << player))

    def remove(self, player: int) -> "Coalition":
        return Coalition(self & ~(1 << player))

    def __repr__(self) -> str:
        return f"Coalition({{{', '.join(map(str, self.members()))}}})"


EMPTY_COALITION = Coalition(0)


def scalar_game(n_players: int, value: Callable[[Coalition], float], label: str = "",
                players: tuple = ()) -> CoalitionGame:
    """A game from a scalar function of a `Coalition`: the game's `value`
    calls it once per mask of the array it is given, in array order."""
    def batch(masks: np.ndarray) -> np.ndarray:
        return np.array([value(Coalition(mask)) for mask in masks.tolist()], dtype=np.float64)

    return CoalitionGame(n_players, batch, label, players)


# --- engines ---------------------------------------------------------------------------

def marginal_value(game: CoalitionGame, coalition: Coalition, player: int) -> float:
    """Value added by `player` when joining `coalition`."""
    if not 0 <= player < game.n_players:
        raise ValueError(f"player {player} outside roster of {game.n_players}")
    if int(coalition) & ~int(game.grand_coalition):
        raise ValueError("coalition contains players outside the roster")
    if player in coalition:
        raise ValueError(f"player {player} is already in the coalition")
    joined, alone = game.evaluate(np.array([coalition.add(player), coalition], dtype=np.uint64))
    return float(joined) - float(alone)


def shapley_permutation_average(game: CoalitionGame, *, cap: int = ORACLE_CAP) -> Allocation:
    """Exact Shapley payoffs by enumerating all n! join orders.

    Independent cross-check for `shapley_exact`; factorially slower, so the
    cap is tight.
    """
    n = game.n_players
    if n > cap:
        raise RosterTooLargeError(
            f"permutation average enumerates {n}! orders, capped at {cap} players")
    values = coalition_value_table(game, cap=cap)
    totals = [0.0] * n
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = values[0]
        for p in perm:
            mask |= 1 << p
            cur = values[mask]
            totals[p] += cur - prev
            prev = cur
    n_orders = math.factorial(n)
    payoffs = tuple(t / n_orders for t in totals)
    return Allocation(payoffs, float(values[-1]))


def shapley_exact_whole(game: CoalitionGame) -> Allocation:
    """Exact Shapley payoffs from whole arrays: the table in one `evaluate`
    call over all 2^n masks, a 2^n array of size weights, and each player's
    weighted marginals formed and summed in one pass.

    The order of every player's sum is numpy's pairwise order over that
    player's 2^(n-1) marginals; `shapley_exact` must give these bits.
    """
    n = game.n_players
    values = game.evaluate(np.arange(1 << n, dtype=np.uint64))
    by_size = np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)] + [0.0])
    weights = by_size[np.bitwise_count(np.arange(1 << n, dtype=np.uint64))]
    payoffs = []
    for i in range(n):
        split = values.reshape(-1, 2, 1 << i)
        gains = split[:, 1, :] - split[:, 0, :]
        gains *= weights.reshape(-1, 2, 1 << i)[:, 0, :]
        payoffs.append(float(np.sum(gains)))
    return Allocation(tuple(payoffs), float(values[-1]))


def exact_classes_whole(values: np.ndarray) -> tuple[int, ...]:
    """Per player of a mask-indexed table, the least player that it swaps
    with exactly: every pair i < j, compared as `int64` bits on every
    coalition that holds one of the two (the rest are their own swap images).
    Swaps that keep the bits compose, so these are the classes that
    `exact_classes` links."""
    n = values.size.bit_length() - 1
    ints = values.view(np.int64)

    def swaps(i: int, j: int) -> bool:
        v = ints.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)  # [.., j, .., i, ..]
        return np.array_equal(v[:, 0, :, 1, :], v[:, 1, :, 0, :])

    return tuple(min([i for i in range(j) if swaps(i, j)] + [j]) for j in range(n))


# --- axiom audit -----------------------------------------------------------------------

def axiom_structure(values: np.ndarray, grand: float) -> tuple[tuple, tuple]:
    """Null players and interchangeable pairs of a mask-indexed table, by
    scanning every coalition for every player and every pair i < j.

    Detection tolerance `1e-12 * max(1, |grand|)`; a NaN gap fails it.
    """
    n = values.size.bit_length() - 1
    detect_tol = 1e-12 * max(1.0, abs(grand))
    nulls = []
    for i in range(n):
        v = values.reshape(-1, 2, 1 << i)
        if np.max(np.abs(v[:, 0, :] - v[:, 1, :])) <= detect_tol:
            nulls.append(i)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            v = values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)  # [.., j, .., i, ..]
            if np.max(np.abs(v[:, 0, :, 1, :] - v[:, 1, :, 0, :])) <= detect_tol:
                pairs.append((i, j))
    return tuple(nulls), tuple(pairs)


def supermodular_whole(values: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff v(S+i+j) - v(S+j) - (v(S+i) - v(S)) >= -slack for every
    pair and every coalition S avoiding it; a NaN difference passes."""
    n = values.size.bit_length() - 1
    slack = tol * max(1.0, float(np.max(np.abs(values))))
    for i in range(n):
        for j in range(i + 1, n):
            v = values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            grown = v[:, 1, :, 1, :] - v[:, 1, :, 0, :]
            base = v[:, 0, :, 1, :] - v[:, 0, :, 0, :]
            if np.any(grown - base < -slack):
                return False
    return True


# --- linearity -------------------------------------------------------------------------

def add_games(game_a: CoalitionGame, game_b: CoalitionGame,
              label: str = "") -> CoalitionGame:
    """Pointwise sum of two characteristic functions over a shared roster."""
    if game_a.n_players != game_b.n_players:
        raise ValueError(
            f"roster mismatch: {game_a.n_players} vs {game_b.n_players} players")
    return CoalitionGame(game_a.n_players,
                         lambda masks: game_a.evaluate(masks) + game_b.evaluate(masks),
                         label or f"{game_a.label} + {game_b.label}", game_a.players)


@dataclass(frozen=True)
class LinearityReport:
    max_gap: float
    ok: bool


def check_linearity(game_a: CoalitionGame, game_b: CoalitionGame, *,
                    tol: float = 1e-9) -> LinearityReport:
    """Whether the Shapley payoffs of a game sum equal the per-game sums."""
    alloc_a, alloc_b, alloc_sum = map(shapley_exact, (game_a, game_b, add_games(game_a, game_b)))
    max_gap = max(
        abs(s - (a + b))
        for s, a, b in zip(alloc_sum.payoffs, alloc_a.payoffs, alloc_b.payoffs))
    return LinearityReport(max_gap, max_gap <= tol * max(1.0, abs(alloc_sum.grand_value)))


def shapley_anonymous(crowd_value: Callable[[int], float], n: int) -> tuple[float, float]:
    """Closed-form (founder, per-member) payoffs for crowd-count games.

    founder = average of crowd_value(s) over s = 0..n,
    member  = (crowd_value(n) - founder) / n.
    Matches `shapley_exact` on the induced (n+1)-player game.
    """
    if n < 0:
        raise ValueError(f"crowd size must be nonnegative, got {n}")
    if n == 0:
        raise DegenerateCrowdError(
            "no crowd members: the founder takes crowd_value(0) and the "
            "per-member payoff is undefined")
    levels = [float(crowd_value(s)) for s in range(n + 1)]
    if not all(math.isfinite(v) for v in levels):
        raise ValueError("crowd_value must be finite on 0..n")
    founder = math.fsum(levels) / (n + 1)
    member = (levels[n] - founder) / n
    return founder, member


# --- single-CSS models -------------------------------------------------------------------

def founder_present(s: Coalition) -> bool:
    return int(s) & 1 == 1


def crowd_count(s: Coalition) -> int:
    """Number of crowd members in a coalition (the founder bit excluded)."""
    return (int(s) >> 1).bit_count()


def value_single(params: SingleCssParams, s: Coalition) -> float:
    if not founder_present(s):
        return 0.0
    m = crowd_count(s)
    return params.rho * m ** params.k - params.cost * m


value_profit = value_single


def value_weighted(params: WeightedCssParams, s: Coalition) -> float:
    if not founder_present(s):
        return 0.0
    units = params.work_units()
    total = math.fsum(units[i - 1] for i in s.members() if i > 0)
    return params.rho * total ** params.k


def cross_term_weight(n: int) -> Fraction:
    """Exact pair coupling sum(s(s-1), s=2..n) / ((n+1) n (n-1)) for n >= 2.

    Evaluates to exactly 1/3 for every n, which is what makes the quadratic
    closed form exact at finite n rather than only in the limit;
    `closed_weighted` uses that constant instead of this sum.
    """
    if n < 2:
        raise ValueError("pair coupling needs at least two crowd members")
    return Fraction(sum(s * (s - 1) for s in range(2, n + 1)),
                    (n + 1) * n * (n - 1))


# --- geo models ------------------------------------------------------------------------

def effective_size(census: DiskCensus, agent: int) -> float:
    """Equal-split user mass of one agent: sum of d_S / |S| over S containing it."""
    if not 1 <= agent <= census.num_agents:
        raise ValueError(f"agent id {agent} outside 1..{census.num_agents}")
    return math.fsum(count / len(subset)
                     for subset, count in census.counts.items() if agent in subset)


def _mass(census: DiskCensus, agents: Iterable[int]) -> float:
    """Effective user mass of a coalition of distinct agents."""
    members = [int(i) for i in agents]
    if len(set(members)) != len(members):
        raise ValueError("duplicate agent ids in coalition")
    return math.fsum(effective_size(census, i) for i in members)


def _geo_worth(census: DiskCensus, rho: float, variant: GeoVariant) -> Callable:
    """rho times an effective mass (`lin`) or its square (`met`), once
    `GeoParams` has accepted the params: it refuses a bad variant or rho."""
    GeoParams(census, variant, rho)
    if variant == "lin":
        return lambda mass: rho * mass
    return lambda mass: rho * mass * mass


def nu_lin(census: DiskCensus, agents: Iterable[int], rho: float) -> float:
    """Linear coalition value: rho times the coalition's effective user mass."""
    return _geo_worth(census, rho, "lin")(_mass(census, agents))


def nu_met(census: DiskCensus, agents: Iterable[int], rho: float) -> float:
    """Quadratic coalition value: rho times the squared effective user mass."""
    return _geo_worth(census, rho, "met")(_mass(census, agents))


def geo_founder_value(census: DiskCensus, rho: float, variant: GeoVariant,
                      s: Coalition) -> float:
    """Founder-gated value: zero without player 0, else the agent-only value.

    Player 0 is the founder; player i >= 1 is agent i.
    """
    worth = _geo_worth(census, rho, variant)
    if int(s) >> (census.num_agents + 1):
        raise ValueError("coalition contains players outside the founder roster")
    if 0 not in s:
        return 0.0
    return worth(_mass(census, [p for p in s.members() if p > 0]))


# --- oligopoly models ----------------------------------------------------------------------

def vertex_set(graph: OligopolyGraph,
               members: Iterable[str | int] | Coalition) -> frozenset[int]:
    if isinstance(members, Coalition):
        if int(members) >> graph.n_vertices:
            raise ValueError("coalition contains unknown vertices")
        return frozenset(members.members())
    return frozenset(graph.vertex_index(v) for v in members)


def value_coarse(graph: OligopolyGraph, members: Iterable[str | int] | Coalition) -> float:
    """Quadratic network value of the subgraph induced by `members`."""
    s = vertex_set(graph, members)
    sizes = graph.crowd_sizes
    total = sum(sizes[v] ** 2 for v in s)
    for a, b in graph.edges:
        if a in s and b in s:
            total += 2 * sizes[a] * sizes[b]
    return graph.rho * total


def value_fine(graph: OligopolyGraph, s: Coalition) -> float:
    """Coalition value with founders and crowd members as separate agents: the
    coarse value of the systems whose major is present, each sized by the
    members of its crowd that are present."""
    blocks = minor_blocks(graph)
    mask = int(s)
    if mask >> blocks[-1].stop:
        raise ValueError("coalition contains players outside the fine-grain roster")
    crowd = tuple((mask >> b.start & ((1 << len(b)) - 1)).bit_count() for b in blocks)
    majors = Coalition(mask & ((1 << graph.n_vertices) - 1))
    return value_coarse(replace(graph, crowd_sizes=crowd), majors)


# --- scenarios ---------------------------------------------------------------------

def scenario_errors(data: object) -> list[str]:
    """Every violation `parse_scenario` finds in a scenario object; [] when it parses."""
    try:
        parse_scenario(data)
    except ParamsError as exc:
        return exc.errors
    return []


# --- empirical windows -------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d{4})(?:H([12]))?$")


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


def window_labels(text: str) -> list[str]:
    """The labels of the half-years a window spec names, in order, stepping
    through each span; raises ValueError in `parse_window`'s words. A repeat
    is found by counting each half-year, so this takes time quadratic in the
    window's length."""
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
    return [h.label() for h in sorted(halves)]
