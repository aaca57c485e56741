"""Coalition games, the exact Shapley engine, and fairness-axiom checks."""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_EXACT_CAP = 22      # 2^22 coalition evaluations, seconds-scale
DEFAULT_STRUCTURE_CAP = 14  # exhaustive pair scans are O(n^2 * 2^n)
MAX_PLAYERS = 64            # coalitions are fixed-width bit masks

ORACLE_CAP = 9              # n! join orders; anything larger is impractical

# Coalition masks per sampler block: 64 KB per block-sized array, however
# many join orders are drawn.
_SAMPLE_BLOCK_MASKS = 8192

# Peak bytes per coalition of the exact engine: the value table and the size
# weights, plus the mask array and up to three same-length temporaries of a
# batch table, 8 bytes each.
EXACT_BYTES_PER_COALITION = 6 * 8


class RosterTooLargeError(ValueError):
    """A roster exceeds the cap of an exhaustive computation."""


class DegenerateCrowdError(ValueError):
    """Founder-only game: a per-crowd-member payoff is undefined."""


class PlayerTag(Enum):
    FOUNDER = "founder"
    CROWD = "crowd"
    CSS_VERTEX = "css_vertex"


@dataclass(frozen=True)
class PlayerId:
    """A player's dense index plus a tag and display name for reporting."""

    index: int
    tag: PlayerTag = PlayerTag.CROWD
    name: str = ""

    def display_name(self) -> str:
        return self.name or str(self.index)


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


def _scalar_table(value: Callable[[Coalition], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch form of a scalar `value`: one call per mask, listed a block at a time."""
    def table(masks: np.ndarray) -> np.ndarray:
        blocks = (masks[i:i + _SAMPLE_BLOCK_MASKS].tolist()
                  for i in range(0, masks.size, _SAMPLE_BLOCK_MASKS))
        return np.fromiter((value(Coalition(m)) for m in itertools.chain.from_iterable(blocks)),
                           dtype=np.float64, count=masks.size)
    table.derived = True
    return table


def _table_value(table: Callable[[np.ndarray], np.ndarray],
                 n_players: int) -> Callable[[Coalition], float]:
    """Scalar form of a batch characteristic function: one one-mask table call."""
    def value(s: Coalition) -> float:
        mask = int(s)
        if mask >> n_players:
            raise ValueError("coalition contains players outside the roster")
        return float(table(np.array([mask], dtype=np.uint64))[0])
    value.derived = True
    return value


def check_roster_size(n_players: int) -> None:
    """Refuse a roster that a coalition mask cannot hold. Builders call this
    before any per-player work, so a huge count in a small input costs nothing."""
    if n_players < 1:
        raise ValueError(f"a game needs at least one player, got {n_players}")
    if n_players > MAX_PLAYERS:
        raise ValueError(f"at most {MAX_PLAYERS} players are supported, got {n_players}")


@dataclass(frozen=True)
class CoalitionGame:
    """A roster plus a characteristic function mapping coalitions to value.

    The characteristic function must be pure: the same coalition always maps
    to the same value, independent of evaluation order, so results never
    depend on how the engine happens to enumerate coalitions.

    It is given as `value`, one coalition at a time, or as `table`, which
    maps a `uint64` array of coalition masks, in any order, to a `float64`
    array of their values with the same shape. Construction fills in the
    missing one: a scalar `value` is wrapped into a table of one call per
    mask, and a table-only game gets a `value` that makes a one-mask table
    call. One filled in this way is derived again whenever the other is
    present, so `dataclasses.replace` of the given one replaces what the game
    computes. Every computation in this module reads only `table`.
    """

    n_players: int
    value: Callable[[Coalition], float] | None = None
    label: str = ""
    players: tuple[PlayerId, ...] = ()
    table: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        check_roster_size(self.n_players)
        if self.players:
            if len(self.players) != self.n_players:
                raise ValueError("player roster length does not match n_players")
            if sorted(p.index for p in self.players) != list(range(self.n_players)):
                raise ValueError("player indices must be dense and unique")
        else:
            object.__setattr__(
                self, "players",
                tuple(PlayerId(i) for i in range(self.n_players)))
        # a derived function (dataclasses.replace passes it back in) is derived again
        value, table = self.value, self.table
        if value is not None and getattr(table, "derived", table is None):
            object.__setattr__(self, "table", _scalar_table(value))
        elif table is not None and getattr(value, "derived", value is None):
            object.__setattr__(self, "value", _table_value(table, self.n_players))
        elif table is None:
            raise ValueError("a game needs a value or a table")

    @property
    def grand_coalition(self) -> Coalition:
        return Coalition((1 << self.n_players) - 1)


class Method(Enum):
    EXACT = "exact"
    CLOSED_FORM = "closed_form"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class Allocation:
    """Per-player payoffs plus the grand-coalition value they divide.

    Every allocator in this package distributes the grand value exactly
    (up to float noise); that efficiency property is asserted by tests and
    `check_axioms` rather than at construction, so deliberately broken
    allocations can still be built and examined.
    """

    payoffs: tuple[float, ...]
    grand_value: float
    method: Method
    stderr: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.method is Method.SAMPLED:
            if self.stderr is None or len(self.stderr) != len(self.payoffs):
                raise ValueError("sampled allocations need one stderr per player")
        elif self.stderr is not None:
            raise ValueError(f"stderr only applies to sampled allocations, not {self.method}")

    @property
    def n_players(self) -> int:
        return len(self.payoffs)

    def total(self) -> float:
        return math.fsum(self.payoffs)

    def shares(self) -> tuple[float, ...] | None:
        """Payoffs as fractions of the grand value; None when it is not positive."""
        if self.grand_value <= 0.0:
            return None
        return tuple(p / self.grand_value for p in self.payoffs)


def marginal_value(game: CoalitionGame, coalition: Coalition, player: int) -> float:
    """Value added by `player` when joining `coalition`."""
    if not 0 <= player < game.n_players:
        raise ValueError(f"player {player} outside roster of {game.n_players}")
    if int(coalition) & ~int(game.grand_coalition):
        raise ValueError("coalition contains players outside the roster")
    if player in coalition:
        raise ValueError(f"player {player} is already in the coalition")
    return game.value(coalition.add(player)) - game.value(Coalition(coalition))


def weight_sum_table(weights: Sequence[float],
                     first_bit: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Batch function giving, per mask, the sum of weights[i] over set bits first_bit + i.

    Works a byte of players at a time: each byte's 256 subset sums are
    tabulated with `math.fsum` on the first call and kept for later ones,
    and every call gathers them, so there is one pass over the masks per 8
    players and no (masks x players) bit matrix.
    """
    @functools.cache
    def byte_sums() -> list[tuple[np.uint64, np.uint64, np.ndarray]]:
        out = []
        for lo in range(0, len(weights), 8):
            chunk = weights[lo:lo + 8]
            subset_sums = np.array([
                math.fsum(w for b, w in enumerate(chunk) if (m >> b) & 1)
                for m in range(1 << len(chunk))])
            out.append((np.uint64(first_bit + lo), np.uint64((1 << len(chunk)) - 1),
                        subset_sums))
        return out

    def table(masks: np.ndarray) -> np.ndarray:
        total = np.zeros(masks.shape)
        for shift, low_bits, subset_sums in byte_sums():
            total += subset_sums[(masks >> shift) & low_bits]
        return total

    return table


def crowd_players(n: int) -> tuple[PlayerId, ...]:
    """Founder "g" as player 0, then crowd members "u1".."un" as players 1..n."""
    check_roster_size(n + 1)
    return (PlayerId(0, PlayerTag.FOUNDER, "g"),) + tuple(
        PlayerId(i, PlayerTag.CROWD, f"u{i}") for i in range(1, n + 1))


def mass_game(units: Sequence[float], worth: Callable, label: str,
              players: tuple[PlayerId, ...], *, founder: bool) -> CoalitionGame:
    """Game worth `worth(mass)`, where mass sums the units of the players present.

    Without a founder, player i carries units[i]. With one, player 0 gates
    the game: a coalition without it is worth zero, and player i carries
    units[i - 1]. `worth` maps an array of masses to their values.
    """
    first = int(founder)
    mass = weight_sum_table(units, first_bit=first)

    def table(masks: np.ndarray) -> np.ndarray:
        values = worth(mass(masks))
        if founder:
            values[(masks & np.uint64(1)) == 0] = 0.0
        return values

    return CoalitionGame(len(units) + first, label=label, players=players, table=table)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def coalition_value_table(game: CoalitionGame, *, cap: int = DEFAULT_EXACT_CAP) -> np.ndarray:
    """Characteristic function evaluated on all 2^n coalitions, indexed by mask.

    One call of the game's batch `table`. Refuses, before allocating, a
    roster above the cap or one whose tables would not fit in physical memory.
    """
    n = game.n_players
    if n > cap:
        raise RosterTooLargeError(
            f"full coalition table needs 2^{n} evaluations, above the cap of {cap} "
            "players; use shapley_sample for larger rosters")
    need, physical = (1 << n) * EXACT_BYTES_PER_COALITION, _physical_memory()
    if physical is not None and need > physical:
        raise RosterTooLargeError(
            f"exact engine needs {need} bytes for 2^{n} coalitions, more than the "
            f"{physical} bytes of physical memory")
    size = 1 << n
    values = np.asarray(game.table(np.arange(size, dtype=np.uint64)), dtype=np.float64)
    if values.shape != (size,):
        raise ValueError(
            f"batch table of {game.label or 'game'} returned shape {values.shape}, "
            f"expected ({size},)")
    return values


def _split(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a mask-indexed table without and with player i, paired by coalition."""
    v = values.reshape(-1, 2, 1 << i)
    return v[:, 0, :], v[:, 1, :]


def _split_pair(values: np.ndarray, i: int, j: int) -> np.ndarray:
    """A mask-indexed table viewed as [.., bit j, .., bit i, ..] for i < j."""
    return values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


def shapley_exact(game: CoalitionGame, *, cap: int | None = None) -> Allocation:
    """Exact Shapley payoffs via the subset-weighted sum.

    Player i receives sum over coalitions S not containing i of
    |S|! (n-|S|-1)! / n! times the marginal value of joining S.
    """
    values = coalition_value_table(game, cap=DEFAULT_EXACT_CAP if cap is None else cap)
    n = game.n_players
    # 1 / (n * C(n-1, s)) equals s! (n-s-1)! / n!; the grand coalition's
    # weight is never read
    by_size = np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)] + [0.0])
    weights = by_size[np.bitwise_count(np.arange(1 << n, dtype=np.uint64))]
    payoffs = []
    for i in range(n):
        without, with_i = _split(values, i)
        gains = with_i - without
        gains *= _split(weights, i)[0]
        payoffs.append(float(np.sum(gains)))
    return Allocation(tuple(payoffs), float(values[-1]), Method.EXACT)


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
    return Allocation(payoffs, float(values[-1]), Method.EXACT)


def anonymous_game(crowd_value: Callable[[int], float], n: int,
                   label: str = "") -> CoalitionGame:
    """Founder-gated game whose value depends only on the crowd head count.

    Player 0 is the founder; a coalition without it is worth zero, one with
    it and s crowd members is worth crowd_value(s). The batch table computes
    its n + 1 levels per call, so building the game stays O(1) at any n.
    """
    if n < 1:
        raise DegenerateCrowdError(f"need at least one crowd member, got n={n}")

    def table(masks: np.ndarray) -> np.ndarray:
        levels = np.array([float(crowd_value(m)) for m in range(n + 1)])
        values = levels[np.bitwise_count(masks >> np.uint64(1))]
        values[(masks & np.uint64(1)) == 0] = 0.0
        return values

    return CoalitionGame(n + 1, label=label or "anonymous crowd game",
                         players=crowd_players(n), table=table)


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


def _running_total(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added one row at a time, in order."""
    return np.add.accumulate(np.vstack((total, rows)), axis=0)[-1]


def shapley_sample(game: CoalitionGame, n_permutations: int, seed: int = 0) -> Allocation:
    """Monte Carlo Shapley estimate from uniform random join orders.

    Unbiased and deterministic for a fixed seed. Standard errors are the
    sample standard deviation of each player's observed marginals divided
    by sqrt(n_permutations) (zero when only one permutation is drawn). The
    squares are taken about each player's marginal in the first join order
    (shifted data, Chan, Golub & LeVeque 1983), so a constant marginal gets
    zero up to rounding, not the difference of two large nearly equal sums.

    Join orders are drawn and evaluated in blocks: each block's prefix
    coalitions go to one `table` call. The draws, and the order in which
    marginals are summed, are those of one `rng.permutation(n)` per join
    order.
    """
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    n = game.n_players
    table = game.table
    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    ends = np.array([0, int(game.grand_coalition)], dtype=np.uint64)
    empty, grand = np.asarray(table(ends), dtype=np.float64).tolist()
    block = max(1, _SAMPLE_BLOCK_MASKS // n)
    for start in range(0, n_permutations, block):
        rows = min(block, n_permutations - start)
        perms = rng.permuted(np.tile(np.arange(n, dtype=np.uint64), (rows, 1)), axis=1)
        masks = np.bitwise_or.accumulate(np.uint64(1) << perms, axis=1)
        values = np.asarray(table(masks.ravel()), dtype=np.float64).reshape(rows, n)
        gains = np.empty_like(values)
        np.put_along_axis(gains, perms, np.diff(values, axis=1, prepend=empty), axis=1)
        if start == 0:
            shift = gains[0]
        sums = _running_total(sums, gains)
        deviations = gains - shift
        sumsq = _running_total(sumsq, deviations * deviations)
    payoffs = tuple(s / n_permutations for s in sums.tolist())
    if n_permutations == 1:
        stderr = (0.0,) * n
    else:
        stderr = tuple(
            math.sqrt(max(0.0, (sq - n_permutations * (m - c) * (m - c))
                          / (n_permutations - 1)) / n_permutations)
            for sq, m, c in zip(sumsq.tolist(), payoffs, shift.tolist()))
    return Allocation(payoffs, grand, Method.SAMPLED, stderr)


@dataclass(frozen=True)
class AxiomReport:
    """Pass/fail record for the efficiency, null-player, and symmetry axioms."""

    efficiency_ok: bool
    efficiency_gap: float
    null_players: tuple[int, ...]
    null_ok: bool
    symmetric_pairs: tuple[tuple[int, int], ...]
    symmetry_ok: bool
    exhaustive: bool

    @property
    def all_ok(self) -> bool:
        return self.efficiency_ok and self.null_ok and self.symmetry_ok


def check_axioms(game: CoalitionGame, allocation: Allocation, *,
                 tol: float = 1e-9, detect_cap: int | None = None) -> AxiomReport:
    """Report-only audit of an allocation against the fairness axioms.

    Null players and interchangeable pairs are detected by exhaustive scan
    of the coalition table when the roster is within `detect_cap`; above it
    only efficiency is checked and the report is marked non-exhaustive.
    Sampled allocations get a 3-stderr slack on every payoff comparison.
    """
    n = game.n_players
    if allocation.n_players != n:
        raise ValueError("allocation does not match the game roster")
    detect_cap = DEFAULT_STRUCTURE_CAP if detect_cap is None else detect_cap
    grand = allocation.grand_value
    sampled = allocation.method is Method.SAMPLED
    stderr = allocation.stderr if sampled else (0.0,) * n

    eff_tol = tol * max(1.0, abs(grand)) + 3.0 * math.fsum(stderr)
    efficiency_gap = abs(allocation.total() - grand)
    efficiency_ok = efficiency_gap <= eff_tol

    nulls: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()
    exhaustive = n <= detect_cap
    if exhaustive:
        values = coalition_value_table(game, cap=detect_cap)
        detect_tol = 1e-12 * max(1.0, abs(grand))
        nulls = tuple(i for i in range(n)
                      if np.max(np.abs(np.subtract(*_split(values, i)))) <= detect_tol)
        found_pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                v = _split_pair(values, i, j)
                if np.max(np.abs(v[:, 0, :, 1, :] - v[:, 1, :, 0, :])) <= detect_tol:
                    found_pairs.append((i, j))
        pairs = tuple(found_pairs)

    payoffs = allocation.payoffs
    null_ok = all(abs(payoffs[i]) <= tol + 3.0 * stderr[i] for i in nulls)
    symmetry_ok = all(
        abs(payoffs[i] - payoffs[j]) <= tol + 3.0 * (stderr[i] + stderr[j])
        for i, j in pairs)
    return AxiomReport(efficiency_ok, efficiency_gap, nulls, null_ok,
                       pairs, symmetry_ok, exhaustive)


def add_games(game_a: CoalitionGame, game_b: CoalitionGame,
              label: str = "") -> CoalitionGame:
    """Pointwise sum of two characteristic functions over a shared roster."""
    if game_a.n_players != game_b.n_players:
        raise ValueError(
            f"roster mismatch: {game_a.n_players} vs {game_b.n_players} players")
    table_a, table_b = game_a.table, game_b.table
    return CoalitionGame(game_a.n_players, label=label or f"{game_a.label} + {game_b.label}",
                         players=game_a.players,
                         table=lambda masks: table_a(masks) + table_b(masks))


@dataclass(frozen=True)
class LinearityReport:
    max_gap: float
    ok: bool


def check_linearity(game_a: CoalitionGame, game_b: CoalitionGame, *,
                    tol: float = 1e-9, cap: int | None = None) -> LinearityReport:
    """Verify that Shapley payoffs of a game sum equal the per-game sums."""
    alloc_a = shapley_exact(game_a, cap=cap)
    alloc_b = shapley_exact(game_b, cap=cap)
    alloc_sum = shapley_exact(add_games(game_a, game_b), cap=cap)
    max_gap = max(
        abs(s - (a + b))
        for s, a, b in zip(alloc_sum.payoffs, alloc_a.payoffs, alloc_b.payoffs))
    return LinearityReport(max_gap, max_gap <= tol)


def is_supermodular(game: CoalitionGame, *, cap: int | None = None,
                    tol: float = 1e-9) -> bool:
    """True iff marginal contributions never shrink as coalitions grow.

    Uses the pairwise form: for every i != j and every S avoiding both,
    v(S+i+j) - v(S+j) >= v(S+i) - v(S), within tol.
    """
    values = coalition_value_table(game, cap=DEFAULT_STRUCTURE_CAP if cap is None else cap)
    n = game.n_players
    for i in range(n):
        for j in range(i + 1, n):
            v = _split_pair(values, i, j)
            grown = v[:, 1, :, 1, :] - v[:, 1, :, 0, :]
            base = v[:, 0, :, 1, :] - v[:, 0, :, 0, :]
            if np.any(grown - base < -tol):
                return False
    return True
