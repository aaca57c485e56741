"""Coalition games, the exact Shapley engine, and fairness-axiom checks.

A game is built without numpy and computed with it: each function that
evaluates, tabulates, reduces, samples or audits a game imports numpy itself,
so building a game, and the result types, load no numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXACT_CAP = 22      # 2^22 coalition evaluations, seconds-scale
DEFAULT_STRUCTURE_CAP = 14  # pair scans: O(n^2 * 2^n) at worst, when no probe rules a pair out
MAX_PLAYERS = 64            # coalitions are fixed-width bit masks
MAX_SAMPLE_MASKS = 1 << 32  # sampled coalitions (permutations x players), minutes-scale
AXIOM_TOL = 1e-9            # axiom payoffs compare within this, times max(1, |grand|)

# Coalition masks per sampler block: 64 KB per block-sized array, however
# many join orders are drawn.
_SAMPLE_BLOCK_MASKS = 8192

# Coalitions per block of the exact engine: the table is evaluated, and each
# player's marginals are reduced, this many at a time.
_EXACT_BLOCK = 1 << 15

# Peak bytes of the exact engine: 8 per coalition for the value table, plus
# max(6, n - 13) block-sized arrays of 8-byte entries, `EXACT_BYTES_PER_BLOCK`
# each. While the table is built, they are the masks and up to five
# same-length temporaries of a game's `value`. While it is reduced, they are one
# array of size weights per popcount of a block's start (n - 15 of them, from
# 16 players), then the gains, and at most one block of temporaries: a `bool`
# block of the class search, or numpy's buffers for a strided subtraction.
EXACT_BYTES_PER_COALITION = 8
EXACT_BYTES_PER_BLOCK = 8 * _EXACT_BLOCK


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
    """A player's tag and display name for reporting; its index is its place
    in the game's roster."""

    tag: PlayerTag
    name: str


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

    The characteristic function, `value`, maps a `uint64` array of coalition
    masks (bit i is player i), in any order, to one value per mask, in an
    array of the same shape. It must be pure: the same coalition always maps
    to the same value, independent of evaluation order, so results never
    depend on how the engine happens to enumerate coalitions. Every
    computation in this module reads the game through `evaluate`.
    """

    n_players: int
    value: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    players: tuple[PlayerId, ...] = ()

    def __post_init__(self) -> None:
        check_roster_size(self.n_players)
        if not self.players:
            object.__setattr__(self, "players", tuple(
                PlayerId(PlayerTag.CROWD, str(i)) for i in range(self.n_players)))
        elif len(self.players) != self.n_players:
            raise ValueError("player roster length does not match n_players")

    def evaluate(self, masks: np.ndarray) -> np.ndarray:
        """`value` of a `uint64` array of coalition masks, as `float64`;
        refuses an array that is not one value per mask."""
        import numpy as np
        values = np.asarray(self.value(masks), dtype=np.float64)
        if values.shape != masks.shape:
            raise ValueError(f"value of {self.label or 'game'} returned shape "
                             f"{values.shape} for masks of shape {masks.shape}")
        return values

    @property
    def grand_coalition(self) -> int:
        return (1 << self.n_players) - 1


@dataclass(frozen=True)
class Allocation:
    """Per-player payoffs, the grand-coalition value they divide and, for a
    sampled estimate, one standard error per payoff. It does not record its
    method: a solve names each result by its key.

    Every allocator in this package distributes the grand value exactly
    (up to float noise); that efficiency property is asserted by tests and
    `check_axioms` rather than at construction, so deliberately broken
    allocations can still be built and examined.
    """

    payoffs: tuple[float, ...]
    grand_value: float
    stderr: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.stderr is not None and len(self.stderr) != len(self.payoffs):
            raise ValueError("a sampled allocation needs one stderr per player")

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


def _subset_sums(chunk: Sequence[float]) -> np.ndarray:
    """Entry m of the 2^len(chunk) sums is the `math.fsum` of the finite
    weights whose bits are set in m: each weight is an integer over the
    largest (power-of-two) denominator, the sums are built exactly by
    doubling, and int/int true division rounds each once, correctly, as
    `math.fsum` does (a zero sum to +0.0)."""
    import numpy as np
    ratios = [float(w).as_integer_ratio() for w in chunk]
    scale = max(d for _, d in ratios)
    sums = [0]
    for num, den in ratios:
        term = num * (scale // den)
        sums += [s + term for s in sums]
    return np.array([s / scale for s in sums])


def byte_sum_table(n_bits: int, byte_table: Callable[[int, int], np.ndarray],
                   first_bit: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Batch function giving, per mask, the sum of one table entry per byte
    of its bits first_bit to first_bit + n_bits - 1. The table of bits
    first_bit + lo to first_bit + hi - 1 (lo = 0, 8, 16, ... and
    hi = min(lo + 8, n_bits)) is `byte_table(lo, hi)`, an array of
    2^(hi - lo) floats indexed by those bits.

    Each byte's table is built on the first call and kept for later ones.
    Every call gathers them, so there is one pass over the masks per 8 bits
    and no (masks x bits) bit matrix. A mask's total is
    `0.0 + byte 0's entry + byte 1's entry + ...`, added in that order, in a
    new array that the caller may change. Each byte's index is cut from the
    masks read as `int64` into one reused buffer, so the gather needs no
    cast; the mask of the byte's bits drops the sign that an arithmetic
    shift of bit 63 spreads.
    """
    @functools.cache
    def byte_tables() -> list[tuple[np.int64, np.int64, np.ndarray]]:
        import numpy as np
        return [(np.int64(first_bit + lo), np.int64((1 << (hi - lo)) - 1), byte_table(lo, hi))
                for lo, hi in ((lo, min(lo + 8, n_bits)) for lo in range(0, n_bits, 8))]

    def table(masks: np.ndarray) -> np.ndarray:
        import numpy as np
        signed = masks.view(np.int64)
        index = np.empty(masks.shape, dtype=np.int64)
        total = np.zeros(masks.shape)
        for shift, low_bits, entries in byte_tables():
            np.right_shift(signed, shift, out=index)
            index &= low_bits
            total += entries[index]
        return total

    return table


def weight_sum_table(weights: Sequence[float],
                     first_bit: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Batch function giving, per mask, the sum of finite weights[i] over set
    bits first_bit + i: the `byte_sum_table` of each byte's 256 subset sums,
    tabulated as exact integer sums rounded once to the value `math.fsum`
    gives."""
    return byte_sum_table(len(weights), lambda lo, hi: _subset_sums(weights[lo:hi]), first_bit)


def crowd_players(n: int) -> tuple[PlayerId, ...]:
    """Founder "g" as player 0, then crowd members "u1".."un" as players 1..n."""
    check_roster_size(n + 1)
    return (PlayerId(PlayerTag.FOUNDER, "g"),) + tuple(
        PlayerId(PlayerTag.CROWD, f"u{i}") for i in range(1, n + 1))


def mass_game(units: Sequence[float], worth: Callable, label: str,
              players: tuple[PlayerId, ...], *, founder: bool) -> CoalitionGame:
    """Game worth `worth(mass)`, where mass sums the units of the players present.

    Without a founder, player i carries units[i]. With one, player 0 gates
    the game: a coalition without it is worth zero, and player i carries
    units[i - 1]. `worth` maps an array of masses to their values. The
    game's `value` takes each mass as `weight_sum_table`'s sum, in its byte
    order, and applies `worth` to every mask of a call before the ones
    without the founder are set to 0.0, so a coalition's value does not
    depend on the masks it is evaluated with.
    """
    first = int(founder)
    mass = weight_sum_table(units, first_bit=first)

    def value(masks: np.ndarray) -> np.ndarray:
        import numpy as np
        values = worth(mass(masks))
        if founder:
            values[(masks & np.uint64(1)) == 0] = 0.0
        return values

    return CoalitionGame(len(units) + first, value, label, players)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def coalition_value_table(game: CoalitionGame, *, cap: int = DEFAULT_EXACT_CAP) -> np.ndarray:
    """Characteristic function evaluated on all 2^n coalitions, indexed by mask.

    One `evaluate` call per block of masks, gathered into one array. Refuses,
    before allocating, a roster above the cap or one whose tables would not
    fit in physical memory.
    """
    import numpy as np
    n = game.n_players
    if n > cap:
        raise RosterTooLargeError(
            f"full coalition table needs 2^{n} evaluations, above the cap of {cap} "
            "players; use shapley_sample for larger rosters")
    size = 1 << n
    need = size * EXACT_BYTES_PER_COALITION + max(6, n - 13) * EXACT_BYTES_PER_BLOCK
    if (physical := _physical_memory()) is not None and need > physical:
        raise RosterTooLargeError(
            f"exact engine needs {need} bytes for 2^{n} coalitions, more than the "
            f"{physical} bytes of physical memory")
    for start in range(0, size, _EXACT_BLOCK):
        masks = np.arange(start, min(size, start + _EXACT_BLOCK), dtype=np.uint64)
        block = game.evaluate(masks)
        if start == 0:  # a table of one block is that block's array
            values = block if block.size == size else np.empty(size)
        values[start:start + masks.size] = block
        del masks, block  # before the next block's are made
    return values


def _check_table(values: np.ndarray, n: int) -> None:
    """Refuse a caller's table that is not one value per coalition of n players."""
    import numpy as np
    if np.shape(values) != (1 << n,):
        raise ValueError(f"a coalition table of {n} players has shape ({1 << n},), "
                         f"got {np.shape(values)}")


def _split(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a mask-indexed table without and with player i, paired by coalition."""
    v = values.reshape(-1, 2, 1 << i)
    return v[:, 0, :], v[:, 1, :]


def _split_pair(values: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a mask-indexed table, i < j, with i and without j and with j
    and without i, paired by swap image; axes: bits above j, between, below i."""
    v = values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
    return v[:, 0, :, 1, :], v[:, 1, :, 0, :]


@functools.cache
def _probes(n: int) -> tuple[np.ndarray, ...]:
    """Probe coalitions of an n-player table, as `np.intp` indices: each
    player's bit; per player, coalitions avoiding it; the pairs i < j,
    neighbours first (by j - i, then by i); and per pair, coalitions avoiding
    both with i added, and with j added instead. The probes are the empty and
    the full coalition and the patterns 0101.., 1010.., 0011.., 1100.., with
    those players' bits cleared."""
    import numpy as np
    full = (1 << n) - 1
    patterns = np.array([0, full] + [int(p * 16, 16) & full for p in "5A3C"], dtype=np.intp)
    bits = np.left_shift(1, np.arange(n, dtype=np.intp))
    first, second = np.array(sorted(itertools.combinations(range(n), 2), key=lambda p: p[1] - p[0]),
                             dtype=np.intp).reshape(-1, 2).T
    pair = patterns & ~(bits[first] | bits[second])[:, None]
    probes = (bits, patterns & ~bits[:, None], first, second,
              pair | bits[first, None], pair | bits[second, None])
    for array in probes:  # cached, so every call shares them
        array.flags.writeable = False
    return probes


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two `int64` views of one shape (rows, mid, low) hold the same
    bits, compared a block of at most 2^15 entries (whole rows where they
    fit) at a time, stopping at the first block that differs."""
    rows, mid, low = a.shape

    def cuts(size: int, step: int) -> Sequence:
        # an axis of at most 4 entries is too short an inner loop
        return range(size) if size <= 4 else [slice(k, k + step) for k in range(0, size, step)]

    inner = list(itertools.product(cuts(mid, max(1, _EXACT_BLOCK // low)),
                                   cuts(low, _EXACT_BLOCK)))
    step = max(1, _EXACT_BLOCK // (mid * low))
    for r in range(0, rows, step):
        x, y = a[r:r + step], b[r:r + step]
        for m, c in inner:
            if not (x[:, m, c] == y[:, m, c]).all():
                return False
    return True


def _swap_keeps_bits(ints: np.ndarray, i: int, j: int) -> bool:
    """Whether a table's `int64` bit patterns are unchanged when players i < j
    swap: `_split_pair`'s views, compared by `_same_bits`."""
    return _same_bits(*_split_pair(ints, i, j))


def _cycle_keeps_bits(ints: np.ndarray, lo: int, hi: int) -> bool:
    """Whether a table's `int64` bit patterns are unchanged when players
    lo..hi-1 move one place up, and player hi - 1 to lo. A coalition with
    player hi - 1 out or in (t = 0 or 1) and players lo..hi-2 as r is
    compared, by `_same_bits`, with its image: r as players lo+1..hi-1 and t
    as player lo. Both are views of the table, so nothing is gathered."""
    n = ints.size.bit_length() - 1
    above, run, below = 1 << (n - hi), 1 << (hi - lo - 1), 1 << lo
    top = ints.reshape(above, 2, run, below)     # [.., hi - 1, lo..hi-2, ..]
    bottom = ints.reshape(above, run, 2, below)  # [.., lo+1..hi-1, lo, ..]
    return all(_same_bits(top[:, t], bottom[:, :, t]) for t in (0, 1))


def exact_classes(values: np.ndarray) -> tuple[int, ...]:
    """Per player of a mask-indexed table, the least player of its exact-swap
    class: players linked by swaps that keep the table's `int64` bits, so any
    two of a class swap exactly (+0.0 against -0.0, or two NaN payloads, is a
    difference).

    Each maximal run of at least six players lo..hi-1 whose neighbour pairs
    all keep their `_probes`' bits is first tried whole: the swap of lo and
    lo + 1 and the cycle lo -> lo + 1 -> .. -> hi - 1 -> lo generate every
    permutation of the run, so if both keep the bits (one `_swap_keeps_bits`
    and one `_cycle_keeps_bits`), every pair of the run swaps exactly. The
    two read about as much as five pair scans, which is why a shorter run
    is left to the pairs. Then the pairs whose probes keep their bits are taken
    neighbours first, and each not yet linked, nor refuted by a run's first
    swap, is compared in full by `_swap_keeps_bits`. The classes are the
    connected components of the exact-swap graph either way."""
    import numpy as np
    n = values.size.bit_length() - 1
    _check_table(values, n)
    ints = np.asarray(values, dtype=np.float64).view(np.int64)
    _, _, first, second, with_first, with_second = _probes(n)
    alive = (ints[with_first] == ints[with_second]).all(axis=1)
    least = list(range(n))
    lo = 0
    # pair p < n - 1 is the neighbours (p, p + 1), and the first one ruled
    # out ends the run of players lo..p
    for hi, linked in enumerate(alive[:n - 1].tolist() + [False], start=1):
        if linked:
            continue
        if hi - lo >= 6:
            if not _swap_keeps_bits(ints, lo, lo + 1):
                alive[lo] = False
            elif _cycle_keeps_bits(ints, lo, hi):
                least[lo:hi] = [lo] * (hi - lo)
            else:
                least[lo + 1] = lo
        lo = hi
    for i, j in zip(first[alive].tolist(), second[alive].tolist()):
        if least[i] != least[j] and _swap_keeps_bits(ints, i, j):
            low, high = sorted((least[i], least[j]))
            least = [low if c == high else c for c in least]
    return tuple(least)


def _tree_sum(parts: list[float]) -> float:
    """Sum of a power-of-two number of block sums, added in pairs, level by level."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[0::2], parts[1::2])]
    return float(parts[0])


def shapley_exact(game: CoalitionGame, *, values: np.ndarray | None = None) -> Allocation:
    """Exact Shapley payoffs via the subset-weighted sum.

    Player i receives sum over coalitions S not containing i of
    |S|! (n-|S|-1)! / n! times the marginal value of joining S. `values`,
    when given, is the game's `coalition_value_table`, used in place of
    building it again; without it the table is built here, under
    `DEFAULT_EXACT_CAP`.

    Each player's weighted marginals are summed a block at a time, and the
    block sums are added as a binary tree: for power-of-two blocks of at
    least 2^7 entries, the order of numpy's pairwise `np.sum` over them all.

    Each class of `exact_classes(values)` is reduced once, at its least
    player, and its other members take that payoff unreduced, so a class
    prints one bit pattern, as Shapley's symmetry axiom asks. For a
    neighbour those are also the bits of its own reduction: the k-th
    coalition without i and the k-th without i - 1 are each other's swap
    images, and so are the two with the player added, so both players'
    weighted marginals are the same bits in the same order. A member further
    off would sum the same marginals in another order.
    """
    import numpy as np
    n = game.n_players
    if values is None:
        values = coalition_value_table(game)
    else:
        _check_table(values, n)
    half = 1 << (n - 1)
    block = min(_EXACT_BLOCK, half)
    # 1 / (n * C(n-1, s)) equals s! (n-s-1)! / n!. In `_split` order, the k-th
    # coalition without player i has popcount(k) members, so the same weights
    # serve every player. A block's start is a multiple of the block, so its
    # k-th weight is by_size[popcount(start) + popcount(k)]: one block of
    # weights per popcount of a start serves every block.
    by_size = np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)])
    sizes = np.bitwise_count(np.arange(block, dtype=np.uint64))
    shifted = [by_size[sizes + c] for c in range(n - block.bit_length() + 1)]
    classes = exact_classes(values)
    gains, payoffs = np.empty(block), []
    for i, least in enumerate(classes):
        if least < i:
            payoffs.append(payoffs[least])
            continue
        without, with_i = _split(values, i)
        rows, cols = max(1, block >> i), min(block, 1 << i)
        out, parts = gains.reshape(rows, cols), []
        for start in range(0, half, block):
            r, c = divmod(start, 1 << i)
            w0, w1 = without[r:r + rows, c:c + cols], with_i[r:r + rows, c:c + cols]
            # a row of at most 4 entries is too short an inner loop
            for x in range(cols) if cols <= 4 else [slice(None)]:
                np.subtract(w1[:, x], w0[:, x], out=out[:, x])
            gains *= shifted[start.bit_count()]
            parts.append(np.sum(gains))
        payoffs.append(_tree_sum(parts))
    return Allocation(tuple(payoffs), float(values[-1]))


def anonymous_game(crowd_value: Callable[[int], float], n: int,
                   label: str = "") -> CoalitionGame:
    """Founder-gated game whose value depends only on the crowd head count.

    Player 0 is the founder; a coalition without it is worth zero, one with
    it and s crowd members is worth crowd_value(s). The game's `value` calls
    crowd_value n + 1 times, once per crowd count, on its first call and
    keeps the levels for later ones, so building the game stays O(1) at any
    n. Each value is a level as crowd_value returned it: a mask without the
    founder is cleared to 0, and its member count, 0, indexes a leading 0.0.
    """
    if n < 1:
        raise DegenerateCrowdError(f"need at least one crowd member, got n={n}")

    @functools.cache
    def levels() -> np.ndarray:
        import numpy as np
        return np.array([0.0] + [float(crowd_value(m)) for m in range(n + 1)])

    def value(masks: np.ndarray) -> np.ndarray:
        import numpy as np
        index = masks & np.uint64(1)
        np.negative(index, out=index)  # all ones with the founder, else 0
        index &= masks
        # counted in place, so the gather reads an intp index, not a cast copy
        np.bitwise_count(index, out=index.view(np.int64))
        return levels()[index.view(np.int64)]

    return CoalitionGame(n + 1, value, label or "anonymous crowd game", crowd_players(n))


def shapley_sample(game: CoalitionGame, n_permutations: int, seed: int = 0) -> Allocation:
    """Monte Carlo Shapley estimate from uniform random join orders.

    Unbiased and deterministic for a fixed seed. Refuses, before drawing, more
    than `MAX_SAMPLE_MASKS` coalition values. Standard errors are the
    sample standard deviation of each player's observed marginals divided
    by sqrt(n_permutations) (zero when only one permutation is drawn). The
    squares are taken about each player's marginal in the first join order
    (shifted data, Chan, Golub & LeVeque 1983), so a constant marginal gets
    zero up to rounding, not the difference of two large nearly equal sums.

    Join orders are drawn and evaluated in blocks: each block's prefix
    coalitions go to one `evaluate` call. The draws, and the order in which
    marginals are summed, are those of one `rng.permutation(n)` per join
    order: a player's sum is `((total + g_0) + g_1) + ...` over its marginals
    in the order drawn, because `np.bincount` adds its weights one at a time,
    in input order.
    """
    import numpy as np
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    n = game.n_players
    if n_permutations * n > MAX_SAMPLE_MASKS:
        raise RosterTooLargeError(
            f"sampler needs {n_permutations * n} coalition values for {n_permutations} "
            f"permutations of {n} players, above the cap of {MAX_SAMPLE_MASKS}")
    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    ends = np.array([0, int(game.grand_coalition)], dtype=np.uint64)
    empty, grand = game.evaluate(ends).tolist()
    block = max(1, _SAMPLE_BLOCK_MASKS // n)
    # One bin index and one weight per entry, reused by every block: the
    # first n entries are the players themselves, weighted by their running
    # totals, and the rest are a block's join orders, weighted by their
    # marginals. A running total starts at +0.0 and so is never -0.0, which
    # makes 0.0 + total, the first addition of a bin, exact. Spent arrays go
    # at once, so a block holds these two buffers, its masks and the game's
    # own arrays.
    order = np.empty(n + block * n, dtype=np.intp)
    weights = np.empty(order.size)
    order[:n] = np.arange(n)
    for start in range(0, n_permutations, block):
        rows = min(block, n_permutations - start)
        size = n + rows * n
        perms = order[n:size].reshape(rows, n)
        perms[...] = order[:n]
        rng.permuted(perms, axis=1, out=perms)
        masks = np.left_shift(np.uint64(1), perms.view(np.uint64))
        np.bitwise_or.accumulate(masks, axis=1, out=masks)
        values = game.evaluate(masks.ravel())
        del masks
        # Marginals: each value minus the one before it, and the first of
        # each join order minus v(empty).
        marginals = weights[n:size]
        np.subtract(values[1:], values[:-1], out=marginals[1:])
        np.subtract(values[::n], empty, out=marginals[::n])
        del values
        if start == 0:
            shift = np.empty(n)
            shift[perms[0]] = marginals[:n]
        weights[:n] = sums
        sums = np.bincount(order[:size], weights[:size], minlength=n)
        marginals -= shift[perms].ravel()
        marginals *= marginals
        weights[:n] = sumsq
        sumsq = np.bincount(order[:size], weights[:size], minlength=n)
    payoffs = tuple(s / n_permutations for s in sums.tolist())
    if n_permutations == 1:
        stderr = (0.0,) * n
    else:
        stderr = tuple(
            math.sqrt(max(0.0, (sq - n_permutations * (m - c) * (m - c))
                          / (n_permutations - 1)) / n_permutations)
            for sq, m, c in zip(sumsq.tolist(), payoffs, shift.tolist()))
    return Allocation(payoffs, grand, stderr)


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
                 values: np.ndarray | None = None) -> AxiomReport:
    """Report-only audit of an allocation against the fairness axioms.

    Null players and interchangeable pairs are detected by exhaustive scan
    of the coalition table (`values`, when given, else built here) when the
    roster is within `DEFAULT_STRUCTURE_CAP`; above it only efficiency is
    checked and the report is marked non-exhaustive.
    Payoffs compare within `AXIOM_TOL * max(1, |grand|)` plus 3 stderr if sampled.

    A player or pair with one probe coalition's gap above the detection
    tolerance is ruled out without a full scan. A pair of one `exact_classes`
    class is not scanned in a finite table, where its gap is exactly 0; with
    an inf or NaN entry, equal bits can give inf - inf = NaN, a failed scan.
    """
    import numpy as np
    n = game.n_players
    if allocation.n_players != n:
        raise ValueError("allocation does not match the game roster")
    if values is not None:
        _check_table(values, n)
    grand = allocation.grand_value
    stderr = allocation.stderr or (0.0,) * n  # present exactly when sampled
    slack = AXIOM_TOL * max(1.0, abs(grand))

    efficiency_gap = abs(allocation.total() - grand)
    efficiency_ok = efficiency_gap <= slack + 3.0 * math.fsum(stderr)

    nulls: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()
    exhaustive = n <= DEFAULT_STRUCTURE_CAP
    if exhaustive:
        if values is None:
            values = coalition_value_table(game)
        detect_tol = 1e-12 * max(1.0, abs(grand))
        bits, solo, first, second, with_first, with_second = _probes(n)
        # NaN > detect_tol is false, so a NaN probe leaves the verdict to the full scan
        gaps = np.abs(values[solo | bits[:, None]] - values[solo])
        nulls = tuple(i for i in np.flatnonzero(~np.any(gaps > detect_tol, axis=1)).tolist()
                      if np.max(np.abs(np.subtract(*_split(values, i)))) <= detect_tol)
        gaps = np.abs(values[with_first] - values[with_second])
        alive = ~np.any(gaps > detect_tol, axis=1)
        classes = exact_classes(values) if alive.any() and np.isfinite(values).all() else range(n)
        pairs = tuple(sorted(
            (i, j) for i, j in zip(first[alive].tolist(), second[alive].tolist())
            if classes[i] == classes[j]
            or np.max(np.abs(np.subtract(*_split_pair(values, i, j)))) <= detect_tol))

    payoffs = allocation.payoffs
    null_ok = all(abs(payoffs[i]) <= slack + 3.0 * stderr[i] for i in nulls)
    symmetry_ok = all(
        abs(payoffs[i] - payoffs[j]) <= slack + 3.0 * (stderr[i] + stderr[j])
        for i, j in pairs)
    return AxiomReport(efficiency_ok, efficiency_gap, nulls, null_ok,
                       pairs, symmetry_ok, exhaustive)

