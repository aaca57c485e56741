"""Single crowd-sourced-system value models and their closed-form allocations.

All three models put one founder (player 0) alongside n crowd members
(players 1..n). Coalitions without the founder are worth nothing; with it,
value grows as a power of the crowd present: revenue `rho * m^k`, optionally
work-weighted, optionally net of per-member costs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Iterable, Protocol, Sequence

from fairshare.core import (
    Allocation,
    Coalition,
    CoalitionGame,
    Method,
    anonymous_game,
    crowd_players,
    mass_game,
)

# n^k overflows a float for every n >= 2 above this exponent
MAX_EXPONENT = 1023


def founder_present(s: Coalition) -> bool:
    return int(s) & 1 == 1


def crowd_count(s: Coalition) -> int:
    """Number of crowd members in a coalition (the founder bit excluded)."""
    return (int(s) >> 1).bit_count()


def power_sum(n: int, k: int) -> int:
    """Sum of s^k for s = 0..n, accumulated in exact integer arithmetic."""
    return sum(s ** k for s in range(n + 1))


@dataclass(frozen=True)
class SingleCssParams:
    """Identical-crowd revenue model: a founder-gated coalition of m crowd
    members is worth rho * m^k (k=2 is the Metcalfe case)."""

    n: int
    k: int
    rho: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"crowd size must be >= 1, got {self.n}")
        if self.k < 1 or not isinstance(self.k, int):
            raise ValueError(f"exponent must be an integer >= 1, got {self.k}")
        if self.k > MAX_EXPONENT:
            raise ValueError(f"exponent must be <= {MAX_EXPONENT}, got {self.k}")
        if self.rho <= 0:
            raise ValueError(f"value scale must be positive, got {self.rho}")

    @property
    def cost(self) -> float:
        """Cost per crowd member, netted off the revenue: none here."""
        return 0.0

    def closed_at(self, n: int) -> ShareReport:
        return closed_single(dataclasses.replace(self, n=n))


@dataclass(frozen=True)
class WeightedCssParams:
    """Work-weighted revenue model: coalition worth rho * (sum of member
    weight^alpha)^k. The closed form is only available for k=2."""

    weights: tuple[float, ...]
    alpha: float = 1.0
    rho: float = 1.0
    k: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 1:
            raise ValueError("need at least one crowd member weight")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one weight must be positive")
        if self.alpha <= 0:
            raise ValueError(f"work exponent must be positive, got {self.alpha}")
        if self.rho <= 0:
            raise ValueError(f"value scale must be positive, got {self.rho}")
        if self.k < 1 or not isinstance(self.k, int):
            raise ValueError(f"exponent must be an integer >= 1, got {self.k}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def work_units(self) -> tuple[float, ...]:
        """Per-member weight^alpha terms entering the coalition sum."""
        return tuple(w ** self.alpha for w in self.weights)

    def work_shares(self) -> tuple[float, ...]:
        units = self.work_units()
        total = math.fsum(units)
        return tuple(u / total for u in units)

    def closed_at(self, n: int) -> ShareReport:
        # the weight pattern repeats cyclically up to n members, so a
        # uniform base stays uniform at every n
        return closed_weighted(dataclasses.replace(
            self, weights=tuple(islice(cycle(self.weights), n))))


@dataclass(frozen=True)
class ProfitCssParams(SingleCssParams):
    """Profit model: the revenue model net of per-member costs, where the
    founder pays founder_cost and each member pays member_cost per head.
    The grand-coalition profit may be negative; reports flag that case."""

    founder_cost: float = 0.0
    member_cost: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.founder_cost < 0 or self.member_cost < 0:
            raise ValueError("costs must be nonnegative")

    @property
    def cost(self) -> float:
        return self.founder_cost + self.member_cost


@dataclass(frozen=True)
class ShareReport:
    """Founder/crowd division of a single-CSS game, with share diagnostics.

    Shares and the founder-to-crowd ratio are suppressed (None, degenerate
    flag set) when the grand value is not positive, where fractions of the
    total would mislead. `asymptotic_founder_share` carries the model's
    limiting share diagnostic.
    """

    founder_payoff: float
    member_payoffs: tuple[float, ...]
    grand_value: float
    degenerate: bool
    founder_share: float | None
    crowd_share: float | None
    founder_to_crowd_ratio: float | None
    asymptotic_founder_share: float | None

    @property
    def n(self) -> int:
        return len(self.member_payoffs)

    @property
    def crowd_payoff(self) -> float:
        return math.fsum(self.member_payoffs)

    def as_allocation(self) -> Allocation:
        return Allocation((self.founder_payoff,) + self.member_payoffs,
                          self.grand_value, Method.CLOSED_FORM)


def _share_report(founder_payoff: float, member_payoffs: Sequence[float],
                  grand_value: float, asymptote: float | None) -> ShareReport:
    degenerate = grand_value <= 0.0
    if degenerate:
        founder_share = crowd_share = None
    else:
        founder_share = founder_payoff / grand_value
        crowd_share = 1.0 - founder_share
    crowd_total = math.fsum(member_payoffs)
    ratio = founder_payoff / crowd_total if crowd_total != 0.0 else None
    return ShareReport(founder_payoff, tuple(member_payoffs), grand_value,
                       degenerate, founder_share, crowd_share, ratio, asymptote)


# --- identical-crowd model, revenue net of any per-member cost ------------

def value_single(params: SingleCssParams, s: Coalition) -> float:
    if not founder_present(s):
        return 0.0
    m = crowd_count(s)
    return params.rho * m ** params.k - params.cost * m


def single_game(params: SingleCssParams) -> CoalitionGame:
    """The crowd-count game rho * m^k - cost * m, for revenue and profit alike."""
    rho, k, cost = params.rho, params.k, params.cost
    return anonymous_game(lambda m: rho * m ** k - cost * m, params.n,
                          f"crowd CSS (n={params.n}, k={k}, rho={rho}, cost={cost})")


def closed_single(params: SingleCssParams) -> ShareReport:
    """Exact founder/member payoffs of the crowd-count game.

    The founder averages rho * s^k - cost * s over crowd counts s = 0..n:
    rho * powersum/(n+1) minus half the total cost. Members split the rest
    equally. With r = cost n / (rho n^k), the asymptote diagnostic is the
    large-n share (1 - (k+1) r/2) / ((k+1)(1 - r)), so 1/(k+1) without costs,
    and undefined when the grand value is not positive.
    """
    n, k, rho, cost = params.n, params.k, params.rho, params.cost
    founder = rho * (power_sum(n, k) / (n + 1)) - cost * (n / 2)
    revenue = rho * float(n ** k)
    grand = revenue - cost * n
    member = (grand - founder) / n
    r = cost * n / revenue
    asymptote = (1 - (k + 1) * r / 2) / ((k + 1) * (1 - r)) if grand > 0 else None
    return _share_report(founder, (member,) * n, grand, asymptote)


# --- work-weighted revenue model --------------------------------------------

def value_weighted(params: WeightedCssParams, s: Coalition) -> float:
    if not founder_present(s):
        return 0.0
    units = params.work_units()
    total = math.fsum(units[i - 1] for i in s.members() if i > 0)
    return params.rho * total ** params.k


def weighted_game(params: WeightedCssParams) -> CoalitionGame:
    rho, k = params.rho, params.k
    return mass_game(
        params.work_units(), lambda total: rho * total ** k,
        f"weighted CSS (n={params.n}, alpha={params.alpha}, rho={rho})",
        crowd_players(params.n), founder=True)


def cross_term_weight(n: int) -> Fraction:
    """Exact pair coupling sum(s(s-1), s=2..n) / ((n+1) n (n-1)) for n >= 2.

    Evaluates to exactly 1/3 for every n, which is what makes the quadratic
    closed form below exact at finite n rather than only in the limit;
    `closed_weighted` uses that constant instead of this sum.
    """
    if n < 2:
        raise ValueError("pair coupling needs at least two crowd members")
    return Fraction(sum(s * (s - 1) for s in range(2, n + 1)),
                    (n + 1) * n * (n - 1))


def closed_weighted(params: WeightedCssParams) -> ShareReport:
    """Exact per-member payoffs of the quadratic work-weighted game.

    Member i earns rho * (u_i^2 / 2 + 2c * u_i * (T - u_i)) where u_i is its
    work unit, T the total, and c the exact pair coupling (identically 1/3).
    The founder keeps the remainder of rho * T^2. Limiting founder share is
    1/3 + sum(f_i^2)/6 over work shares f_i.
    """
    if params.k != 2:
        raise ValueError(
            f"closed form requires k=2, got k={params.k}; use the exact engine")
    units = params.work_units()
    total = math.fsum(units)
    # A rho below 1/2 is replaced by its mantissa, and the payoffs are scaled
    # back by its power of two at the end, which is exact. So a tiny rho
    # cannot make the payoffs subnormal, and the shares imprecise.
    exponent = min(math.frexp(params.rho)[1], 0)
    rho = math.ldexp(params.rho, -exponent)
    members = tuple(rho * (u * u / 2.0 + 2.0 / 3.0 * u * (total - u)) for u in units)
    grand = rho * total * total
    founder = grand - math.fsum(members)
    shares = params.work_shares()
    asymptote = 1.0 / 3.0 + math.fsum(f * f for f in shares) / 6.0
    return dataclasses.replace(
        _share_report(founder, members, grand, asymptote),
        founder_payoff=math.ldexp(founder, exponent), grand_value=math.ldexp(grand, exponent),
        member_payoffs=tuple(math.ldexp(m, exponent) for m in members))


# --- profit model: the crowd-count game above, with costs -------------------

value_profit = value_single
profit_game = single_game
closed_profit = closed_single


# --- convergence sweeps -------------------------------------------------------

class CssParams(Protocol):
    """A single-CSS model with a closed form at any crowd size."""

    def closed_at(self, n: int) -> ShareReport: ...


@dataclass(frozen=True)
class SweepRow:
    n: int
    report: ShareReport

    @property
    def asymptote_gap(self) -> float | None:
        if self.report.founder_share is None or \
                self.report.asymptotic_founder_share is None:
            return None
        return abs(self.report.founder_share - self.report.asymptotic_founder_share)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def gaps_monotone(self) -> bool | None:
        """Whether the distance to the asymptote is nonincreasing in n.

        Reported, never assumed; None when any row lacks a defined gap.
        """
        gaps = [row.asymptote_gap for row in self.rows]
        if any(g is None for g in gaps):
            return None
        return all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def share_sweep(params: CssParams, n_values: Iterable[int]) -> SweepTable:
    """Closed-form share reports across crowd sizes, for limit diagnostics."""
    sizes = list(n_values)
    if not sizes:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_values must be strictly ascending")
    if any(n < 1 for n in sizes):
        raise ValueError("crowd sizes must be >= 1")
    rows = tuple(SweepRow(n, params.closed_at(n)) for n in sizes)
    return SweepTable(rows)
