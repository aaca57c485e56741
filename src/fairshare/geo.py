"""Geographically spread crowd-sourced systems over overlapping coverage regions.

Agents 1..m each cover a region ("disk", of arbitrary shape); users may sit
in several disks at once. The census records, for every nonempty agent
subset S, how many users are covered by exactly the disks in S. Each agent's
effective size is its equal-split user mass: every user contributes 1/|S| to
each of the |S| disks covering it.

Two value functions are defined on agent coalitions: linear (rho times the
coalition's effective mass) and quadratic (rho times its square), plus
founder-gated variants where an infrastructure provider must be present for
any value to exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Mapping

from fairshare.core import (
    Allocation,
    CoalitionGame,
    Method,
    PlayerId,
    PlayerTag,
    check_roster_size,
    mass_game,
)
from fairshare.models import WeightedCssParams, closed_weighted

GeoVariant = Literal["lin", "met"]

# one user's placement: the ids of every disk covering it (empty = uncovered)
UserPlacement = Iterable[int]

GEO_VARIANTS = ("lin", "met")


@dataclass(frozen=True)
class DiskCensus:
    """Exclusive-overlap user counts: counts[S] users sit in exactly disks S.

    Sparse: absent subsets mean zero users. Keys are frozensets of 1-based
    agent ids. Users covered by no disk are excluded from the counts but
    tallied in `uncovered_users`.
    """

    num_agents: int
    counts: Mapping[frozenset[int], int] = field(default_factory=dict)
    uncovered_users: int = 0

    def __post_init__(self) -> None:
        if self.num_agents < 1:
            raise ValueError(f"need at least one agent, got {self.num_agents}")
        if self.uncovered_users < 0:
            raise ValueError("uncovered user count cannot be negative")
        clean: dict[frozenset[int], int] = {}
        for key, count in self.counts.items():
            subset = frozenset(int(i) for i in key)
            if not subset:
                raise ValueError("census keys must be nonempty agent subsets")
            for i in subset:
                if not 1 <= i <= self.num_agents:
                    raise ValueError(
                        f"agent id {i} outside 1..{self.num_agents} in census key")
            if count < 0:
                raise ValueError(f"negative user count for {sorted(subset)}")
            if count:
                clean[subset] = clean.get(subset, 0) + int(count)
        object.__setattr__(self, "counts", clean)

    @property
    def total_users(self) -> int:
        return sum(self.counts.values())


def region_census(placements: Iterable[UserPlacement], num_agents: int) -> DiskCensus:
    """Tally users by the exact set of disks covering them.

    Users covered by no disk are dropped from the counts and reported via
    `uncovered_users`.
    """
    counts: dict[frozenset[int], int] = {}
    uncovered = 0
    for placement in placements:
        subset = frozenset(int(i) for i in placement)
        for i in subset:
            if not 1 <= i <= num_agents:
                raise ValueError(f"disk id {i} outside 1..{num_agents}")
        if not subset:
            uncovered += 1
            continue
        counts[subset] = counts.get(subset, 0) + 1
    return DiskCensus(num_agents, counts, uncovered)


def effective_sizes(census: DiskCensus) -> tuple[float, ...]:
    """Every agent's equal-split user mass, the `math.fsum` of d_S / |S| over
    the subsets S containing it, from one pass over the census (`math.fsum`
    is correctly rounded in any term order)."""
    terms: dict[int, list[float]] = {}
    for subset, count in census.counts.items():
        share = count / len(subset)
        for i in subset:
            terms.setdefault(i, []).append(share)
    return tuple(math.fsum(terms.get(i, ())) for i in range(1, census.num_agents + 1))


def _worth(rho: float, variant: GeoVariant) -> Callable:
    """Linear or quadratic value of an effective mass (a float or an array):
    the one definition of the geo value and the one check of variant and rho."""
    if variant not in GEO_VARIANTS:
        raise ValueError(f"variant must be one of {GEO_VARIANTS}, got {variant!r}")
    if rho <= 0:
        raise ValueError(f"value scale must be positive, got {rho}")
    if variant == "lin":
        return lambda mass: rho * mass
    return lambda mass: rho * mass * mass


def _agent_players(census: DiskCensus, offset: int = 0) -> tuple[PlayerId, ...]:
    check_roster_size(census.num_agents + offset)
    return tuple(PlayerId(i - 1 + offset, PlayerTag.CSS_VERTEX, str(i))
                 for i in range(1, census.num_agents + 1))


def geo_game(census: DiskCensus, rho: float, variant: GeoVariant) -> CoalitionGame:
    """Agent-only game (player i-1 is agent i) for the exact engine."""
    worth = _worth(rho, variant)
    players = _agent_players(census)  # the roster check precedes the O(m) sizes
    return mass_game(effective_sizes(census), worth, f"geo {variant}", players,
                     founder=False)


def geo_shapley(census: DiskCensus, rho: float, variant: GeoVariant) -> Allocation:
    """Closed-form agent payoffs: rho * n_i (linear), rho * n_i * total (quadratic).

    The quadratic case is the complete-agreement-graph network game over the
    effective sizes, hence each agent earns its size times the total mass.
    """
    worth = _worth(rho, variant)
    sizes = effective_sizes(census)
    total = math.fsum(sizes)
    if variant == "lin":
        payoffs = tuple(worth(n) for n in sizes)
    else:
        payoffs = tuple(rho * n * total for n in sizes)
    return Allocation(payoffs, worth(total), Method.CLOSED_FORM)


# --- founder-augmented variants ----------------------------------------------

def geo_founder_game(census: DiskCensus, rho: float,
                     variant: GeoVariant) -> CoalitionGame:
    """Founder-gated game for the exact engine and the sampler: zero without
    player 0, else the agent-only value of the agents present (player i >= 1
    is agent i), from effective sizes computed once here.
    """
    worth = _worth(rho, variant)
    players = (PlayerId(0, PlayerTag.FOUNDER, "g"),) + _agent_players(census, 1)
    return mass_game(effective_sizes(census), worth, f"geo founder {variant}",
                     players, founder=True)


def geo_founder_shapley(census: DiskCensus, rho: float,
                        variant: GeoVariant) -> Allocation:
    """Closed-form founder-augmented payoffs (founder first, then agents).

    Linear: the founder takes half the total worth, each agent half its own.
    Quadratic: the founder takes rho * (total^2/3 + sum n_i^2 / 6) and agent
    i takes rho * (2 total n_i / 3 - n_i^2 / 6), which is the work-weighted
    closed form with the effective sizes as work units, so it is computed
    by `closed_weighted`.
    """
    worth = _worth(rho, variant)
    sizes = effective_sizes(census)
    if variant == "met":
        if not any(sizes):  # no users, so no positive work unit either
            return Allocation((0.0,) * (len(sizes) + 1), 0.0, Method.CLOSED_FORM)
        return closed_weighted(WeightedCssParams(sizes, rho=rho)).as_allocation()
    grand = worth(math.fsum(sizes))
    agents = tuple(worth(n) / 2 for n in sizes)
    return Allocation((grand / 2,) + agents, grand, Method.CLOSED_FORM)
