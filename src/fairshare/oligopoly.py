"""Graph-structured games between crowd-sourced systems.

Vertices are systems with their own crowds; edges are bilateral agreements.
Coalition value is quadratic in crowd head counts: each present vertex
contributes the square of its present crowd, and each agreement whose two
endpoint systems are present contributes twice the product of their present
crowds (so two fully-merged systems are worth (n_u + n_w)^2).

The coarse model treats each system as a single agent; the fine model makes
every founder and every crowd member a separate agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from fairshare.core import (
    Allocation,
    Coalition,
    CoalitionGame,
    Method,
    PlayerId,
    PlayerTag,
    check_roster_size,
)


@dataclass(frozen=True)
class OligopolyGraph:
    """Bilateral-agreement graph: vertex crowd sizes plus undirected edges.

    Connectivity is not required; value and payoffs are additive across
    components. Edges are stored as sorted index pairs.
    """

    vertex_ids: tuple[str, ...]
    crowd_sizes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not self.vertex_ids:
            raise ValueError("graph needs at least one vertex")
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise ValueError("duplicate vertex ids")
        if len(self.crowd_sizes) != len(self.vertex_ids):
            raise ValueError("one crowd size per vertex required")
        if any(n < 0 for n in self.crowd_sizes):
            raise ValueError("crowd sizes must be nonnegative")
        if self.rho <= 0:
            raise ValueError(f"value scale must be positive, got {self.rho}")
        m = len(self.vertex_ids)
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"edge ({a}, {b}) references an unknown vertex")
            if a == b:
                raise ValueError(f"self-loop on vertex {self.vertex_ids[a]!r}")
            if a > b:
                raise ValueError(f"edge ({a}, {b}) must be stored sorted")
            if (a, b) in seen:
                raise ValueError(
                    f"duplicate agreement {self.vertex_ids[a]!r}-{self.vertex_ids[b]!r}")
            seen.add((a, b))

    @classmethod
    def from_spec(cls, vertices: Sequence[tuple[str, int]],
                  edges: Sequence[tuple[str, str]] = (),
                  rho: float = 1.0) -> "OligopolyGraph":
        """Build from (id, crowd size) pairs and id-labelled edges."""
        ids = tuple(str(v) for v, _ in vertices)
        sizes = tuple(int(n) for _, n in vertices)
        index = {v: i for i, v in enumerate(ids)}
        idx_edges = []
        for a, b in edges:
            if a not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex {a!r}")
            if b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex {b!r}")
            i, j = index[a], index[b]
            idx_edges.append((min(i, j), max(i, j)))
        return cls(ids, sizes, tuple(idx_edges), rho)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def vertex_index(self, vertex: str | int) -> int:
        if isinstance(vertex, str):
            try:
                return self.vertex_ids.index(vertex)
            except ValueError:
                raise ValueError(f"unknown vertex id {vertex!r}") from None
        if not 0 <= vertex < self.n_vertices:
            raise ValueError(f"vertex index out of range: {vertex}")
        return int(vertex)

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == vertex:
                out.append(b)
            elif b == vertex:
                out.append(a)
        return tuple(sorted(out))

    def vertex_set(self, members: Iterable[str | int] | Coalition) -> frozenset[int]:
        if isinstance(members, Coalition):
            if int(members) >> self.n_vertices:
                raise ValueError("coalition contains unknown vertices")
            return frozenset(members.members())
        return frozenset(self.vertex_index(v) for v in members)


# --- coarse grain: one agent per system --------------------------------------

def value_coarse(graph: OligopolyGraph, members: Iterable[str | int] | Coalition) -> float:
    """Quadratic network value of the subgraph induced by `members`."""
    s = graph.vertex_set(members)
    sizes = graph.crowd_sizes
    total = sum(sizes[v] ** 2 for v in s)
    for a, b in graph.edges:
        if a in s and b in s:
            total += 2 * sizes[a] * sizes[b]
    return graph.rho * total


def _network_table(graph: OligopolyGraph, masks: np.ndarray,
                   mass: Sequence[float | np.ndarray]) -> np.ndarray:
    """rho * (sum of mass[v]^2 over present vertices + 2 mass[a] mass[b] over
    agreements with both ends present), per mask; vertex v is present when
    bit v is set.

    `mass[v]` is a number or an array with one entry per mask. Every term is
    an integer, so the sum is exact before the one product with rho.
    """
    total = np.zeros(masks.shape)
    terms = [(v, v, 1.0) for v in range(graph.n_vertices)]
    for a, b, factor in terms + [(a, b, 2.0) for a, b in graph.edges]:
        present = np.uint64((1 << a) | (1 << b))
        term = np.multiply(mass[a], mass[b], dtype=np.float64) * factor
        total += ((masks & present) == present) * term
    total *= graph.rho
    return total


def coarse_table(graph: OligopolyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """Batch `value_coarse` over vertex-set masks: every crowd is whole."""
    mass = [float(n) for n in graph.crowd_sizes]
    return lambda masks: _network_table(graph, masks, mass)


def coarse_game(graph: OligopolyGraph) -> CoalitionGame:
    players = tuple(
        PlayerId(i, PlayerTag.CSS_VERTEX, vid) for i, vid in enumerate(graph.vertex_ids))
    return CoalitionGame(graph.n_vertices, label="coarse oligopoly", players=players,
                         table=coarse_table(graph))


def shapley_coarse(graph: OligopolyGraph) -> Allocation:
    """Closed-form system payoffs: rho * n_v * (n_v + sum of neighbor sizes)."""
    sizes = graph.crowd_sizes
    payoffs = []
    for v in range(graph.n_vertices):
        neighbor_mass = sum(sizes[w] for w in graph.neighbors(v))
        payoffs.append(graph.rho * (sizes[v] ** 2 + sizes[v] * neighbor_mass))
    grand = value_coarse(graph, range(graph.n_vertices))
    return Allocation(tuple(payoffs), grand, Method.CLOSED_FORM)


# --- fine grain: founders and crowd members as separate agents ----------------

@dataclass(frozen=True)
class FineGrainRoster:
    """Dense player indexing for the fine-grain game.

    Majors occupy indices 0..V-1 in vertex order; each vertex's minors
    follow as a contiguous block.
    """

    major_of_vertex: tuple[int, ...]
    minors_of_vertex: tuple[tuple[int, ...], ...]
    vertex_of_player: tuple[int, ...]
    is_major: tuple[bool, ...]

    @property
    def n_players(self) -> int:
        return len(self.vertex_of_player)


def fine_roster(graph: OligopolyGraph) -> FineGrainRoster:
    n_vertices = graph.n_vertices
    majors = tuple(range(n_vertices))
    minors = []
    vertex_of = list(range(n_vertices))
    next_index = n_vertices
    for v in range(n_vertices):
        block = tuple(range(next_index, next_index + graph.crowd_sizes[v]))
        minors.append(block)
        vertex_of.extend([v] * graph.crowd_sizes[v])
        next_index += graph.crowd_sizes[v]
    is_major = tuple(i < n_vertices for i in range(next_index))
    return FineGrainRoster(majors, tuple(minors), tuple(vertex_of), is_major)


def value_fine(graph: OligopolyGraph, roster: FineGrainRoster, s: Coalition) -> float:
    """Coalition value with founders and crowd members as separate agents.

    Only systems whose major is present count; each contributes the square
    of its present crowd, and each agreement between two present majors
    contributes twice the product of their present crowds.
    """
    if int(s) >> roster.n_players:
        raise ValueError("coalition contains players outside the fine-grain roster")
    present_crowd = [0] * graph.n_vertices
    majors_present = 0
    for p in s.members():
        if roster.is_major[p]:
            majors_present |= 1 << p
        else:
            present_crowd[roster.vertex_of_player[p]] += 1
    total = 0
    for v in range(graph.n_vertices):
        if (majors_present >> v) & 1:
            total += present_crowd[v] ** 2
    for a, b in graph.edges:
        if (majors_present >> a) & 1 and (majors_present >> b) & 1:
            total += 2 * present_crowd[a] * present_crowd[b]
    return graph.rho * total


def fine_table(graph: OligopolyGraph, roster: FineGrainRoster,
               masks: np.ndarray) -> np.ndarray:
    """`value_fine` of every player mask: the network value with each major as
    its system's presence bit and the popcount of its minor block as the mass."""
    blocks = [np.uint64(sum(1 << p for p in block)) for block in roster.minors_of_vertex]
    return _network_table(graph, masks, [np.bitwise_count(masks & b) for b in blocks])


def fine_game(graph: OligopolyGraph) -> tuple[CoalitionGame, FineGrainRoster]:
    check_roster_size(graph.n_vertices + sum(graph.crowd_sizes))
    roster = fine_roster(graph)
    players = []
    for v, vid in enumerate(graph.vertex_ids):
        players.append(PlayerId(v, PlayerTag.FOUNDER, vid))
    for v, vid in enumerate(graph.vertex_ids):
        for j, p in enumerate(roster.minors_of_vertex[v], start=1):
            players.append(PlayerId(p, PlayerTag.CROWD, f"{vid}/u{j}"))
    game = CoalitionGame(roster.n_players, label="fine oligopoly", players=tuple(players),
                         table=lambda m: fine_table(graph, roster, m))
    return game, roster


def shapley_fine_closed(graph: OligopolyGraph) -> Allocation:
    """Closed-form fine-grain payoffs.

    Major of vertex v: rho * (n_v (2 n_v + 1) / 6 + sum_w n_v n_w / 2);
    minor at vertex v: rho * ((4 n_v - 1) / 6 + sum_w n_w / 2), summing over
    the agreement neighbors w of v. Intra-system terms are the exact
    crowd-count averages; inter-system terms give half of each pairwise
    product to the majors and spread the rest over the minors.
    """
    sizes = graph.crowd_sizes
    if any(n == 0 for n in sizes):
        empty = [graph.vertex_ids[v] for v, n in enumerate(sizes) if n == 0]
        raise ValueError(
            f"fine-grain closed form needs every crowd nonempty; vertices {empty} "
            "have none (the exact engine still handles such rosters)")
    roster = fine_roster(graph)
    payoffs = [0.0] * roster.n_players
    for v in range(graph.n_vertices):
        n_v = sizes[v]
        neighbor_mass = sum(sizes[w] for w in graph.neighbors(v))
        payoffs[v] = graph.rho * (n_v * (2 * n_v + 1) / 6 + n_v * neighbor_mass / 2)
        minor = graph.rho * ((4 * n_v - 1) / 6 + neighbor_mass / 2)
        for p in roster.minors_of_vertex[v]:
            payoffs[p] = minor
    grand = value_coarse(graph, range(graph.n_vertices))
    return Allocation(tuple(payoffs), grand, Method.CLOSED_FORM)


def fine_major_ratio(graph: OligopolyGraph, vertex: str | int) -> float:
    """Large-crowd share of a system's payoff kept by its major.

    (n_v / 3 + sum_w n_w / 2) / (n_v + sum_w n_w); always in [1/3, 1/2],
    rising toward 1/2 as neighbor crowds dwarf the local one.
    """
    v = graph.vertex_index(vertex)
    n_v = graph.crowd_sizes[v]
    neighbor_mass = sum(graph.crowd_sizes[w] for w in graph.neighbors(v))
    denom = n_v + neighbor_mass
    if denom == 0:
        raise ValueError(
            f"ratio undefined for vertex {graph.vertex_ids[v]!r}: no crowd anywhere")
    return (n_v / 3 + neighbor_mass / 2) / denom
