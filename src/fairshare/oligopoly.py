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

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from fairshare.core import (
    Allocation,
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
        # the other end of each agreement at `vertex`
        return tuple(sorted(a + b - vertex for a, b in self.edges if vertex in (a, b)))


# --- coarse grain: one agent per system --------------------------------------

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


def _grand_value(graph: OligopolyGraph) -> float:
    """The network value with every system and crowd present, summed in exact
    integers and rounded once (a float table rounds the products first)."""
    sizes = graph.crowd_sizes
    return graph.rho * (sum(n * n for n in sizes)
                        + sum(2 * sizes[a] * sizes[b] for a, b in graph.edges))


def coarse_table(graph: OligopolyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The network value over vertex-set masks, with every crowd whole."""
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
    grand = _grand_value(graph)
    return Allocation(tuple(payoffs), grand, Method.CLOSED_FORM)


# --- fine grain: founders and crowd members as separate agents ----------------

def minor_blocks(graph: OligopolyGraph) -> tuple[range, ...]:
    """Each vertex's crowd members as a range of player indices: the V majors
    come first, then one contiguous block per vertex, in vertex order."""
    starts = itertools.accumulate(graph.crowd_sizes, initial=graph.n_vertices)
    return tuple(range(start, start + n) for start, n in zip(starts, graph.crowd_sizes))


def fine_table(graph: OligopolyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The fine-grain value over player masks: the network value with each
    major as its system's presence bit and the popcount of its minor block
    as the mass, so a crowd member without its major adds nothing."""
    blocks = [np.uint64(((1 << len(b)) - 1) << b.start) for b in minor_blocks(graph)]
    return lambda masks: _network_table(graph, masks, [np.bitwise_count(masks & b)
                                                       for b in blocks])


def fine_game(graph: OligopolyGraph) -> CoalitionGame:
    check_roster_size(graph.n_vertices + sum(graph.crowd_sizes))
    players = [PlayerId(v, PlayerTag.FOUNDER, vid) for v, vid in enumerate(graph.vertex_ids)]
    for vid, block in zip(graph.vertex_ids, minor_blocks(graph)):
        players += (PlayerId(p, PlayerTag.CROWD, f"{vid}/u{j}")
                    for j, p in enumerate(block, start=1))
    return CoalitionGame(len(players), label="fine oligopoly", players=tuple(players),
                         table=fine_table(graph))


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
    blocks = minor_blocks(graph)
    payoffs = [0.0] * blocks[-1].stop
    for v in range(graph.n_vertices):
        n_v = sizes[v]
        neighbor_mass = sum(sizes[w] for w in graph.neighbors(v))
        payoffs[v] = graph.rho * (n_v * (2 * n_v + 1) / 6 + n_v * neighbor_mass / 2)
        minor = graph.rho * ((4 * n_v - 1) / 6 + neighbor_mass / 2)
        for p in blocks[v]:
            payoffs[p] = minor
    grand = _grand_value(graph)
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
