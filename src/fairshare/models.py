"""Single crowd-sourced-system value models and their closed-form allocations.

All three models put one founder (player 0) alongside n crowd members
(players 1..n). Coalitions without the founder are worth nothing; with it,
value grows as a power of the crowd present: revenue `rho * m^k`, optionally
work-weighted, optionally net of per-member costs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Any, Callable, Iterable, Mapping, Sequence

from fairshare.checks import (
    ModelSpec,
    ParamsError,
    at,
    check_int,
    check_keys,
    check_num,
    field_names,
    is_int,
    is_list,
    is_num,
    raise_invalid,
    report_missing,
)
from fairshare.core import (
    Allocation,
    CoalitionGame,
    anonymous_game,
    crowd_players,
    mass_game,
)

# n^k overflows a float for every n >= 2 above this exponent
MAX_EXPONENT = 1023


@functools.cache
def _faulhaber(k: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients c_0..c_k and a divisor d with sum(s^k, s=1..n) =
    (c_0 n^(k+1) + c_1 n^k + ... + c_k n) / d, by Faulhaber's formula
    c_j / d = C(k+1, j) B_j / (k+1), over the exact Bernoulli numbers B_j
    (B_1 = +1/2) of the recurrence sum(C(m+1, j) B_j, j=0..m) = m + 1."""
    bernoulli = [Fraction(1)]
    for m in range(1, k + 1):
        bernoulli.append(1 - sum(math.comb(m + 1, j) * b for j, b in enumerate(bernoulli)
                                 if b) / (m + 1))
    terms = [math.comb(k + 1, j) * b / (k + 1) for j, b in enumerate(bernoulli)]
    divisor = math.lcm(*(t.denominator for t in terms))
    return tuple(int(t * divisor) for t in terms), divisor


def power_sum(n: int, k: int) -> int:
    """Sum of s^k for s = 0..n, in exact integer arithmetic: summed directly up
    to n = k, cheaper there than building the Faulhaber coefficients, and above
    it the Faulhaber polynomial by Horner, in O(k) integer operations."""
    if n <= k:
        return sum(s ** k for s in range(n + 1))
    coefficients, divisor = _faulhaber(k)
    total = 0
    for c in coefficients:
        total = total * n + c
    return total * n // divisor + (k == 0)  # the s = 0 term is 0^0 = 1 at k = 0


def repeated_fsum(pattern: Sequence[float], n: int) -> float:
    """`math.fsum` of `pattern` repeated in order to n terms, in O(len(pattern)):
    the exact sum q * sum(pattern) + sum(pattern[:r]), with n = q len + r,
    rounded once as fsum rounds it. A sum beyond the float range rounds to an
    infinity of its sign, as float addition does, where fsum would raise."""
    special = [x for x in pattern[:n] if not math.isfinite(x)]
    if special:  # fsum's sum of terms with an inf or nan is theirs alone
        return math.fsum(special)
    q, r = divmod(n, len(pattern))
    if q <= 1:  # a short repeat costs no more than the pattern
        try:
            return math.fsum(islice(cycle(pattern), n))
        except OverflowError:  # summed exactly below, then rounded
            pass
    exact = sum(map(Fraction, pattern[:r]))
    if q:  # with q = 0 the pattern past n, inf and nan too, is not summed
        exact += q * sum(map(Fraction, pattern))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def validate_single(params: Mapping, errors: list[str], prefix: str = "",
                    cls: type | None = None) -> None:
    """The `single` params: a crowd n >= 1, an exponent k in 1..MAX_EXPONENT
    and a finite positive rho."""
    check_keys(params, field_names(cls or SingleCssParams), errors, prefix)
    check_int(params, "n", errors, prefix=prefix, minimum=1)
    check_int(params, "k", errors, prefix=prefix, minimum=1, maximum=MAX_EXPONENT)
    check_num(params, "rho", errors, prefix=prefix, positive=True)


@dataclass(frozen=True)
class SingleCssParams:
    """Identical-crowd revenue model: a founder-gated coalition of m crowd
    members is worth rho * m^k (k=2 is the Metcalfe case)."""

    n: int
    k: int
    rho: float = 1.0

    def __post_init__(self) -> None:
        raise_invalid(validate_single, vars(self))

    @property
    def cost(self) -> float:
        """Cost per crowd member, netted off the revenue: none here."""
        return 0.0


def closed_weighted_refusal(params: Mapping) -> str | None:
    """Why the weighted closed form cannot solve these params, or None: the
    one text that a closed solve's scenario check and `closed_weighted`
    report. A bad k is left to the validator."""
    k = params.get("k", 2)
    if not is_int(k) or k < 1 or k == 2:
        return None
    return (f"k: the weighted closed form requires k=2 (got {k}); "
            "use method 'exact' or 'sample'")


def validate_weighted(params: Mapping, errors: list[str], prefix: str = "") -> None:
    """The `weighted` params: finite nonnegative weights, one of them positive,
    whose work units weight**alpha and their total stay in the float range; a
    positive alpha and rho; an exponent k >= 1."""
    check_keys(params, field_names(WeightedCssParams), errors, prefix)
    weights = params.get("weights")
    where = at(prefix, "weights")
    if weights is None:
        report_missing(errors, where)
    elif not is_list(weights) or not weights:
        errors.append(f"{where}: expected a nonempty list of numbers")
    elif any(not is_num(w) or w < 0 for w in weights):
        errors.append(f"{where}: entries must be finite nonnegative numbers")
    elif not any(w > 0 for w in weights):
        errors.append(f"{where}: at least one weight must be positive")
    else:
        _check_work_units(weights, params.get("alpha", 1.0), errors, where)
    check_num(params, "alpha", errors, prefix=prefix, positive=True)
    check_num(params, "rho", errors, prefix=prefix, positive=True)
    check_int(params, "k", errors, prefix=prefix, minimum=1, required=False)


def _check_work_units(weights: Sequence, alpha: Any, errors: list[str], where: str) -> None:
    """Refuse weights whose work units weight**alpha, or their total, leave the
    float range: every method sums them. A bad alpha is reported on its own."""
    if not is_num(alpha) or alpha <= 0:
        return
    try:
        total = math.fsum(float(w) ** alpha for w in weights)
    except OverflowError:
        errors.append(f"{where}: the work units weight**alpha or their total "
                      f"overflow a float (alpha={alpha})")
        return
    if total == 0.0:
        errors.append(f"{where}: every work unit weight**alpha underflows to 0 "
                      f"(alpha={alpha}); at least one must be positive")


@dataclass(frozen=True)
class WeightedCssParams:
    """Work-weighted revenue model: coalition worth rho * (sum of member
    weight^alpha)^k. The closed form is only available for k=2."""

    weights: tuple[float, ...]
    alpha: float = 1.0
    rho: float = 1.0
    k: int = 2

    def __post_init__(self) -> None:
        raise_invalid(validate_weighted, vars(self))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

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


def validate_profit(params: Mapping, errors: list[str], prefix: str = "") -> None:
    """The `profit` params: those of `single`, plus nonnegative costs."""
    validate_single(params, errors, prefix, ProfitCssParams)
    check_num(params, "founder_cost", errors, prefix=prefix, nonnegative=True)
    check_num(params, "member_cost", errors, prefix=prefix, nonnegative=True)


@dataclass(frozen=True)
class ProfitCssParams(SingleCssParams):
    """Profit model: the revenue model net of per-member costs, where the
    founder pays founder_cost and each member pays member_cost per head.
    The grand-coalition profit may be negative; reports flag that case."""

    founder_cost: float = 0.0
    member_cost: float = 0.0

    def __post_init__(self) -> None:
        raise_invalid(validate_profit, vars(self))

    @property
    def cost(self) -> float:
        return self.founder_cost + self.member_cost


@dataclass(frozen=True)
class ShareReport:
    """Founder/crowd division of a single-CSS game, with share diagnostics.

    The n member payoffs are `member_pattern` repeated in order. Shares and
    the founder-to-crowd ratio are suppressed (None, degenerate flag set)
    when the grand value is not positive, where fractions of the total would
    mislead. `asymptotic_founder_share` carries the limiting share diagnostic.
    """

    founder_payoff: float
    member_pattern: tuple[float, ...]
    n: int
    grand_value: float
    degenerate: bool
    founder_share: float | None
    crowd_share: float | None
    founder_to_crowd_ratio: float | None
    asymptotic_founder_share: float | None

    @property
    def member_payoffs(self) -> tuple[float, ...]:
        return tuple(islice(cycle(self.member_pattern), self.n))

    @property
    def crowd_payoff(self) -> float:
        return repeated_fsum(self.member_pattern, self.n)

    def as_allocation(self) -> Allocation:
        return Allocation((self.founder_payoff,) + self.member_payoffs, self.grand_value)


def _share_report(founder_payoff: float, member_pattern: tuple[float, ...], n: int,
                  grand_value: float, asymptote: float | None) -> ShareReport:
    degenerate = grand_value <= 0.0
    if degenerate:
        founder_share = crowd_share = None
    else:
        founder_share = founder_payoff / grand_value
        crowd_share = 1.0 - founder_share
    crowd_total = repeated_fsum(member_pattern, n)
    ratio = founder_payoff / crowd_total if crowd_total != 0.0 else None
    return ShareReport(founder_payoff, member_pattern, n, grand_value,
                       degenerate, founder_share, crowd_share, ratio, asymptote)


# --- identical-crowd model, revenue net of any per-member cost ------------

def single_game(params: SingleCssParams) -> CoalitionGame:
    """The crowd-count game rho * m^k - cost * m, for revenue and profit alike."""
    rho, k, cost = params.rho, params.k, params.cost
    return anonymous_game(lambda m: rho * m ** k - cost * m, params.n,
                          f"crowd CSS (n={params.n}, k={k}, rho={rho}, cost={cost})")


def closed_single(params: SingleCssParams, n: int | None = None) -> ShareReport:
    """Exact founder/member payoffs of the crowd-count game, over a crowd of
    n members (default: the params' n).

    The founder averages rho * s^k - cost * s over crowd counts s = 0..n:
    rho * powersum/(n+1) minus half the total cost. Members split the rest
    equally. With r = cost n / (rho n^k), the asymptote diagnostic is the
    large-n share (1 - (k+1) r/2) / ((k+1)(1 - r)), so 1/(k+1) without costs,
    and undefined when the grand value is not positive.
    """
    n = params.n if n is None else n
    k, rho, cost = params.k, params.rho, params.cost
    # n ** k overflows a float before the power sum does, so fail before summing
    revenue = rho * float(n ** k)
    founder = rho * (power_sum(n, k) / (n + 1)) - cost * (n / 2)
    grand = revenue - cost * n
    member = (grand - founder) / n
    r = cost * n / revenue
    asymptote = (1 - (k + 1) * r / 2) / ((k + 1) * (1 - r)) if grand > 0 else None
    return _share_report(founder, (member,), n, grand, asymptote)


# --- work-weighted revenue model --------------------------------------------

def weighted_game(params: WeightedCssParams) -> CoalitionGame:
    rho, k = params.rho, params.k
    return mass_game(
        params.work_units(), lambda total: rho * total ** k,
        f"weighted CSS (n={params.n}, alpha={params.alpha}, rho={rho})",
        crowd_players(params.n), founder=True)


def closed_weighted(params: WeightedCssParams, n: int | None = None) -> ShareReport:
    """`closed_quadratic` over the work units, for k = 2. A crowd of n members
    (default: one per weight) repeats the weights in order, so a uniform
    pattern stays uniform at every n, and a shorter crowd takes the first n."""
    refusal = closed_weighted_refusal(vars(params))
    if refusal:
        raise ParamsError([refusal])
    n = params.n if n is None else n
    return closed_quadratic(params.work_units()[:n], params.rho, n)


def closed_quadratic(units: Sequence[float], rho: float, n: int) -> ShareReport:
    """Exact payoffs of the founder-gated game rho * (sum of units present)^2,
    over a crowd of n members whose units repeat `units` in order: finite
    nonnegative units with a finite total, and a finite positive rho, which
    the caller's params checked.

    Member i earns rho * (u_i^2 / 2 + 2c * u_i * (T - u_i)) where u_i is its
    work unit, T the total, and c the exact pair coupling (identically 1/3).
    The founder keeps the remainder of rho * T^2. Limiting founder share is
    1/3 + sum(f_i^2)/6 over work shares f_i.
    """
    total = repeated_fsum(units, n)
    if total == 0.0:  # those weights are all zero: the crowd adds no value
        return _share_report(0.0, (0.0,) * len(units), n, 0.0, None)
    # A rho below 1/2 is replaced by its mantissa, and the payoffs are scaled
    # back by its power of two at the end, which is exact. So a tiny rho
    # cannot make the payoffs subnormal, and the shares imprecise.
    exponent = min(math.frexp(rho)[1], 0)
    rho = math.ldexp(rho, -exponent)
    members = tuple(rho * (u * u / 2.0 + 2.0 / 3.0 * u * (total - u)) for u in units)
    grand = rho * total * total
    founder = grand - repeated_fsum(members, n)
    shares = tuple(u / total for u in units)
    asymptote = 1.0 / 3.0 + repeated_fsum(tuple(f * f for f in shares), n) / 6.0
    return dataclasses.replace(
        _share_report(founder, members, n, grand, asymptote),
        founder_payoff=math.ldexp(founder, exponent), grand_value=math.ldexp(grand, exponent),
        member_pattern=tuple(math.ldexp(m, exponent) for m in members))


# --- profit model: the crowd-count game above, with costs -------------------

profit_game = single_game
closed_profit = closed_single


# --- convergence sweeps -------------------------------------------------------

def gaps_monotone(reports: Sequence[ShareReport]) -> bool | None:
    """Whether the distance from the founder share to its asymptote is
    nonincreasing along a sweep.

    Reported, never assumed; None when any report lacks a defined gap.
    """
    if any(r.founder_share is None or r.asymptotic_founder_share is None
           for r in reports):
        return None
    gaps = [abs(r.founder_share - r.asymptotic_founder_share) for r in reports]
    return all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def share_sweep(closed: Callable[[Any, int], ShareReport], params: Any,
                n_values: Iterable[int]) -> tuple[ShareReport, ...]:
    """`closed(params, n)` at each crowd size n, for limit diagnostics: the
    closed form of a model in `SPECS` and that model's params."""
    sizes = list(n_values)
    if not sizes:
        raise ValueError("n_values must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("n_values must be strictly ascending")
    if any(n < 1 for n in sizes):
        raise ValueError("crowd sizes must be >= 1")
    return tuple(closed(params, n) for n in sizes)


SPECS = {
    "single": ModelSpec(validate_single, SingleCssParams, dataclasses.asdict,
                        single_game, closed_single),
    "weighted": ModelSpec(validate_weighted, WeightedCssParams, dataclasses.asdict,
                          weighted_game, closed_weighted, closed_weighted_refusal),
    "profit": ModelSpec(validate_profit, ProfitCssParams, dataclasses.asdict,
                        profit_game, closed_profit),
}
