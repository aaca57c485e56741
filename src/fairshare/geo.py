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
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Literal, Mapping, Sequence

from fairshare.checks import (
    ModelSpec,
    ParamsError,
    at,
    check_choice,
    check_int,
    check_keys,
    check_num,
    check_object,
    field_names,
    is_int,
    is_list,
    raise_invalid,
    report_missing,
)
from fairshare.core import (
    Allocation,
    CoalitionGame,
    PlayerId,
    PlayerTag,
    check_roster_size,
    mass_game,
)
from fairshare.models import closed_quadratic

GeoVariant = Literal["lin", "met"]

# one user's placement: the ids of every disk covering it (empty = uncovered)
UserPlacement = Sequence[int]

GEO_VARIANTS = ("lin", "met")
MAX_CENSUS_AGENTS = 1_000_000  # effective sizes take O(m) time and memory
# Every sum of effective sizes stays in the float range for at most this many
# users: each size, and each sum of sizes, rounds up by at most 2^-53 of itself.
MAX_TOTAL_USERS = 2 ** 1023


def subset_ids(key: Any) -> tuple[int, ...] | None:
    """The agent ids of a census key: a comma-joined string like '1,3' (the
    JSON form) or a frozenset of ids. None if the key is malformed, empty or
    repeats an id."""
    if isinstance(key, str):
        try:
            ids = tuple(int(part) for part in key.split(","))
        except ValueError:
            return None
    elif isinstance(key, frozenset) and all(is_int(i) for i in key):
        ids = tuple(key)
    else:
        return None
    if not ids or len(set(ids)) != len(ids):
        return None
    return ids


def validate_census(census: Any, errors: list[str], prefix: str) -> None:
    """A census: m agents (1..MAX_CENSUS_AGENTS) and exactly one of `d`, the
    user count of each agent subset, at most MAX_TOTAL_USERS in all, or
    `placements`, each user's disk ids."""
    if not check_object(census, errors, prefix):
        return
    check_keys(census, ("m", "d", "placements"), errors, prefix)
    m = check_int(census, "m", errors, prefix=prefix, minimum=1, maximum=MAX_CENSUS_AGENTS)
    if ("d" in census) == ("placements" in census):
        errors.append(f"{prefix}: provide exactly one of 'd' or 'placements'")
        return
    if "d" in census:
        table = census["d"]
        if not isinstance(table, Mapping):
            errors.append(f"{at(prefix, 'd')}: expected an object keyed by agent subsets")
            return
        for key, count in table.items():
            where = f"{at(prefix, 'd')}[{key!r}]"
            ids = subset_ids(key)
            if ids is None:
                errors.append(f"{where}: keys must be comma-joined agent ids like '1,3'")
            elif m is not None and any(not 1 <= i <= m for i in ids):
                errors.append(f"{where}: agent ids must lie in 1..{m}")
            if not is_int(count) or count < 0:
                errors.append(f"{where}: expected a nonnegative integer count")
        counts = table.values()
        if all(is_int(count) for count in counts) and sum(counts) > MAX_TOTAL_USERS:
            errors.append(f"{at(prefix, 'd')}: the total user count must be at most "
                          "2**1023, or sums of effective sizes overflow a float")
    else:
        placements = census["placements"]
        if not is_list(placements):
            errors.append(f"{at(prefix, 'placements')}: expected a list of disk-id lists")
            return
        for pos, placement in enumerate(placements):
            where = f"{at(prefix, 'placements')}[{pos}]"
            if not is_list(placement) or not all(is_int(i) for i in placement):
                errors.append(f"{where}: expected a list of integer disk ids")
            elif m is not None and any(not 1 <= i <= m for i in placement):
                errors.append(f"{where}: disk ids must lie in 1..{m}")


@dataclass(frozen=True)
class DiskCensus:
    """Exclusive-overlap user counts: counts[S] users sit in exactly disks S.

    Sparse: absent subsets mean zero users. Keys are agent subsets, given as
    frozensets of 1-based agent ids or as comma-joined strings like '1,3',
    and stored as frozensets. The JSON form names the agent count `m` and the
    counts `d`, as `validate_census` does.
    """

    num_agents: int
    counts: Mapping[frozenset[int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        raise_invalid(validate_census, {"m": self.num_agents, "d": self.counts})
        clean: dict[frozenset[int], int] = {}
        for key, count in self.counts.items():
            if count:
                subset = frozenset(subset_ids(key))
                clean[subset] = clean.get(subset, 0) + count
        object.__setattr__(self, "counts", clean)

    @property
    def total_users(self) -> int:
        return sum(self.counts.values())


def region_census(placements: Sequence[UserPlacement], num_agents: int) -> DiskCensus:
    """Tally users by the exact set of disks covering them; users covered by
    no disk are dropped."""
    raise_invalid(validate_census, {"m": num_agents, "placements": placements})
    return DiskCensus(num_agents, Counter(frozenset(p) for p in placements if p))


def validate_geo(params: Mapping, errors: list[str], prefix: str = "") -> None:
    """The `geo` and `geo_founder` params: a census, a variant and a finite
    positive rho. A DiskCensus is not checked again: its constructor was."""
    check_keys(params, field_names(GeoParams), errors, prefix)
    if "census" not in params:
        report_missing(errors, at(prefix, "census"))
    elif not isinstance(params["census"], DiskCensus):
        validate_census(params["census"], errors, at(prefix, "census"))
    variant = params.get("variant")
    if variant is None:
        report_missing(errors, at(prefix, "variant"))
    else:
        check_choice(variant, GEO_VARIANTS, errors, at(prefix, "variant"))
    check_num(params, "rho", errors, prefix=prefix, positive=True)


@dataclass(frozen=True)
class GeoParams:
    """A census, a variant and a finite positive rho: every geo function's
    input, checked once, by this constructor."""

    census: DiskCensus
    variant: GeoVariant
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.census, DiskCensus):  # a file's census is read as one
            raise ParamsError(
                [f"census: expected a DiskCensus, got {type(self.census).__name__}"])
        raise_invalid(validate_geo, vars(self))


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


def _worth(params: GeoParams) -> Callable:
    """Linear or quadratic value of an effective mass (a float or an array):
    the one definition of the geo value."""
    rho = params.rho
    if params.variant == "lin":
        return lambda mass: rho * mass
    return lambda mass: rho * mass * mass


def _agent_players(census: DiskCensus, offset: int = 0) -> tuple[PlayerId, ...]:
    check_roster_size(census.num_agents + offset)
    return tuple(PlayerId(PlayerTag.CSS_VERTEX, str(i)) for i in range(1, census.num_agents + 1))


def geo_game(params: GeoParams) -> CoalitionGame:
    """Agent-only game (player i-1 is agent i) for the exact engine."""
    players = _agent_players(params.census)  # the roster check precedes the O(m) sizes
    return mass_game(effective_sizes(params.census), _worth(params),
                     f"geo {params.variant}", players, founder=False)


def geo_shapley(params: GeoParams) -> Allocation:
    """Closed-form agent payoffs: rho * n_i (linear), rho * n_i * total (quadratic).

    The quadratic case is the complete-agreement-graph network game over the
    effective sizes, hence each agent earns its size times the total mass.
    """
    worth, rho = _worth(params), params.rho
    sizes = effective_sizes(params.census)
    total = math.fsum(sizes)
    if params.variant == "lin":
        payoffs = tuple(worth(n) for n in sizes)
    else:
        payoffs = tuple(rho * n * total for n in sizes)
    return Allocation(payoffs, worth(total))


# --- founder-augmented variants ----------------------------------------------

def geo_founder_game(params: GeoParams) -> CoalitionGame:
    """Founder-gated game for the exact engine and the sampler: zero without
    player 0, else the agent-only value of the agents present (player i >= 1
    is agent i), from effective sizes computed once here.
    """
    players = (PlayerId(PlayerTag.FOUNDER, "g"),) + _agent_players(params.census, 1)
    return mass_game(effective_sizes(params.census), _worth(params),
                     f"geo founder {params.variant}", players, founder=True)


def geo_founder_shapley(params: GeoParams) -> Allocation:
    """Closed-form founder-augmented payoffs (founder first, then agents).

    Linear: the founder takes half the total worth, each agent half its own.
    Quadratic: the founder takes rho * (total^2/3 + sum n_i^2 / 6) and agent
    i takes rho * (2 total n_i / 3 - n_i^2 / 6), which is the work-weighted
    closed form with the effective sizes as work units, so it is computed
    by `closed_quadratic`.
    """
    sizes = effective_sizes(params.census)
    if params.variant == "met":
        return closed_quadratic(sizes, params.rho, len(sizes)).as_allocation()
    worth = _worth(params)
    grand = worth(math.fsum(sizes))
    agents = tuple(worth(n) / 2 for n in sizes)
    return Allocation((grand / 2,) + agents, grand)


# --- the JSON form and the model entries --------------------------------------

def _parse_census(m: Any, **table: Any) -> DiskCensus:
    if table.keys() == {"d"}:
        return DiskCensus(m, table["d"])
    if table.keys() == {"placements"}:
        return region_census(table["placements"], m)
    raise TypeError("a census holds exactly one of 'd' or 'placements'")


def _parse_geo(census: dict, **rest: Any) -> GeoParams:
    return GeoParams(_parse_census(**census), **rest)


def _dump_geo(params: GeoParams) -> dict:
    census = params.census
    return {"census": {"m": census.num_agents,
                       "d": {",".join(map(str, sorted(subset))): count
                             for subset, count in sorted(
                                 census.counts.items(), key=lambda kv: sorted(kv[0]))}},
            "variant": params.variant, "rho": params.rho}


SPECS = {
    "geo": ModelSpec(validate_geo, _parse_geo, _dump_geo, geo_game, geo_shapley),
    "geo_founder": ModelSpec(validate_geo, _parse_geo, _dump_geo,
                             geo_founder_game, geo_founder_shapley),
}
