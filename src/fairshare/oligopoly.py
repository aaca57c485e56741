"""Graph-structured games between crowd-sourced systems.

Vertices are systems with their own crowds; edges are bilateral agreements.
Coalition value is quadratic in crowd head counts: each present vertex
contributes the square of its present crowd, and each agreement whose two
endpoint systems are present contributes twice the product of their present
crowds (so two fully-merged systems are worth (n_u + n_w)^2).

The coarse model treats each system as a single agent; the fine model makes
every founder and every crowd member a separate agent. A game is built
without numpy and computed with it: its table imports numpy when called.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from fairshare.checks import (
    ModelSpec,
    at,
    check_int,
    check_keys,
    check_num,
    is_list,
    is_num,
    raise_invalid,
    report_missing,
)
from fairshare.core import (
    Allocation,
    CoalitionGame,
    PlayerId,
    PlayerTag,
    byte_sum_table,
    check_roster_size,
)

if TYPE_CHECKING:
    import numpy as np


def network_sum(sizes: Iterable[int], products: Iterable[int]) -> int:
    """The network value without rho as an exact integer: the squares of the
    crowd sizes plus twice the product n_a n_b of each agreement's two crowd
    sizes."""
    return sum(n * n for n in sizes) + 2 * sum(products)


def validate_graph(params: Mapping, errors: list[str], prefix: str = "") -> None:
    """The oligopoly params: a nonempty list of vertices with unique nonempty
    string ids and crowd sizes >= 0, agreements between two distinct known
    vertices, each at most once, a network value with every crowd present
    that a float can hold, and a finite positive rho."""
    check_keys(params, ("vertices", "edges", "rho"), errors, prefix)
    vertices = params.get("vertices")
    ids: set[str] = set()
    sizes: dict[str, int] = {}
    if vertices is None:
        report_missing(errors, at(prefix, "vertices"))
    elif not is_list(vertices) or not vertices:
        errors.append(f"{at(prefix, 'vertices')}: expected a nonempty list")
    else:
        for pos, vertex in enumerate(vertices):
            where = f"{at(prefix, 'vertices')}[{pos}]"
            if not isinstance(vertex, dict):
                errors.append(f"{where}: expected an object with id and size")
                continue
            check_keys(vertex, ("id", "size"), errors, where)
            vid = vertex.get("id")
            if not isinstance(vid, str) or not vid:
                errors.append(f"{where}.id: expected a nonempty string")
            elif vid in ids:
                errors.append(f"{where}.id: duplicate vertex id {vid!r}")
            else:
                ids.add(vid)
            size = check_int(vertex, "size", errors, prefix=where, minimum=0)
            if isinstance(vid, str) and size is not None:
                sizes[vid] = size
    edges = params.get("edges", [])
    if not is_list(edges):
        errors.append(f"{at(prefix, 'edges')}: expected a list of [id, id] pairs")
        edges = []
    seen_edges: set[frozenset[str]] = set()
    for pos, edge in enumerate(edges):
        where = f"{at(prefix, 'edges')}[{pos}]"
        if (not is_list(edge) or len(edge) != 2
                or not all(isinstance(v, str) for v in edge)):
            errors.append(f"{where}: expected a pair of vertex ids")
            continue
        a, b = edge
        for endpoint in (a, b):
            if ids and endpoint not in ids:
                errors.append(
                    f"{where}: edge [{a!r}, {b!r}] references unknown vertex "
                    f"{endpoint!r}")
        if a == b:
            errors.append(f"{where}: self-loop on {a!r}")
        elif frozenset((a, b)) in seen_edges:
            errors.append(f"{where}: duplicate agreement [{a!r}, {b!r}]")
        else:
            seen_edges.add(frozenset((a, b)))
    # the exact value of the whole network: every method's values stay below it
    value = network_sum(sizes.values(), (sizes[a] * sizes[b] for a, b in seen_edges
                                         if a in sizes and b in sizes))
    if not is_num(value):
        errors.append(f"{at(prefix, 'vertices')}: the network value "
                      "sum(size^2) + 2 sum(size_a size_b) overflows a float")
    check_num(params, "rho", errors, prefix=prefix, positive=True)


@dataclass(frozen=True)
class OligopolyGraph:
    """Bilateral-agreement graph: vertex crowd sizes plus undirected edges.

    Connectivity is not required; value and payoffs are additive across
    components. Edges are given as pairs of vertex ids or indices and stored
    as sorted index pairs.
    """

    vertex_ids: tuple[str, ...]
    crowd_sizes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rho: float = 1.0

    def __post_init__(self) -> None:
        raise_invalid(validate_graph, self.spec())
        index = {vid: v for v, vid in enumerate(self.vertex_ids)}
        pairs = ((index.get(a, a), index.get(b, b)) for a, b in self.edges)
        object.__setattr__(self, "edges", tuple((a, b) if a < b else (b, a) for a, b in pairs))

    def spec(self) -> dict:
        """The graph in its JSON form, each endpoint index written as its id."""
        names = dict(enumerate(self.vertex_ids))
        edges = self.edges
        if is_list(edges):
            edges = [[names.get(x, x) for x in edge] if is_list(edge) else edge
                     for edge in edges]
        return {"vertices": [{"id": vid, "size": n}
                             for vid, n in zip(self.vertex_ids, self.crowd_sizes, strict=True)],
                "edges": edges, "rho": self.rho}

    @classmethod
    def from_spec(cls, vertices: Sequence[tuple[str, int]],
                  edges: Sequence[tuple[str, str]] = (),
                  rho: float = 1.0) -> "OligopolyGraph":
        """Build from (id, crowd size) pairs and id-labelled edges."""
        return cls(tuple(vid for vid, _ in vertices), tuple(n for _, n in vertices),
                   tuple(edges) if is_list(edges) else edges, rho)

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

    def neighbor_masses(self) -> tuple[int, ...]:
        """Per vertex, the crowd sizes summed over its agreement neighbors,
        from one pass over the agreements."""
        masses = [0] * self.n_vertices
        for a, b in self.edges:
            masses[a] += self.crowd_sizes[b]
            masses[b] += self.crowd_sizes[a]
        return tuple(masses)


# --- coarse grain: one agent per system --------------------------------------

def _grand_value(graph: OligopolyGraph) -> float:
    """The network value with every system and crowd present, summed in exact
    integers and rounded once (a float table rounds the products first)."""
    sizes = graph.crowd_sizes
    return graph.rho * network_sum(sizes, (sizes[a] * sizes[b] for a, b in graph.edges))


def coarse_table(graph: OligopolyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The network value over vertex-set masks, with every crowd whole: one
    `byte_sum_table` gather of each byte of vertices' network sums (its
    squares and the agreements inside it, per subset), one masked term per
    agreement across a byte edge, then rho. All is built on the first call.
    Each term is an integer rounded once, so below a network sum of 2^53 no
    sum rounds; above it the nonnegative sums err by a few units of 2^-53."""
    sizes = graph.crowd_sizes

    @functools.cache
    def network() -> tuple[Callable[[np.ndarray], np.ndarray], list[tuple[np.uint64, float]]]:
        import numpy as np
        # the quadratic form: squares on the diagonal, n_a n_b inside a byte
        form = np.diag(np.array([n * n for n in sizes], dtype=np.float64))
        cross = []
        for a, b in graph.edges:
            if a >> 3 == b >> 3:
                form[a, b] = form[b, a] = sizes[a] * sizes[b]
            else:
                cross.append((np.uint64((1 << a) | (1 << b)), float(2 * sizes[a] * sizes[b])))

        def byte_sums(lo: int, hi: int) -> np.ndarray:
            bits = (np.arange(1 << (hi - lo))[:, None] >> np.arange(hi - lo)) & 1
            return ((bits @ form[lo:hi, lo:hi]) * bits).sum(axis=1)

        return byte_sum_table(graph.n_vertices, byte_sums), cross

    def table(masks: np.ndarray) -> np.ndarray:
        inner, cross = network()
        total = inner(masks)
        for present, term in cross:
            total += ((masks & present) == present) * term
        total *= graph.rho
        return total

    return table


def coarse_game(graph: OligopolyGraph) -> CoalitionGame:
    players = tuple(PlayerId(PlayerTag.CSS_VERTEX, vid) for vid in graph.vertex_ids)
    return CoalitionGame(graph.n_vertices, coarse_table(graph), "coarse oligopoly", players)


def shapley_coarse(graph: OligopolyGraph) -> Allocation:
    """Closed-form system payoffs: rho * n_v * (n_v + sum of neighbor sizes)."""
    payoffs = tuple(graph.rho * (n_v ** 2 + n_v * neighbor_mass) for n_v, neighbor_mass
                    in zip(graph.crowd_sizes, graph.neighbor_masses()))
    grand = _grand_value(graph)
    return Allocation(payoffs, grand)


# --- fine grain: founders and crowd members as separate agents ----------------

def minor_blocks(graph: OligopolyGraph) -> tuple[range, ...]:
    """Each vertex's crowd members as a range of player indices: the V majors
    come first, then one contiguous block per vertex, in vertex order."""
    starts = itertools.accumulate(graph.crowd_sizes, initial=graph.n_vertices)
    return tuple(range(start, start + n) for start, n in zip(starts, graph.crowd_sizes))


def fine_table(graph: OligopolyGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The fine-grain value over player masks: the network value with each
    major as its system's presence bit and the popcount of its minor block
    as the mass, so a crowd member without its major adds nothing.

    Per vertex, last first, x_v = popcount(mask & block_v) * (bit v) in
    `uint8`; N = sum_v x_v (x_v + 2 sum of x_w over agreements (v, w), w > v)
    in `int16` is exact, as 64 players hold at most 63 crowd members (N <=
    3969). One `float64` product with rho rounds it. Made on the first call."""
    @functools.cache
    def vertices() -> list[tuple[int, np.uint64, np.uint64, list[int]]]:
        import numpy as np
        return [(v, np.uint64(1 << v), np.uint64(((1 << len(b)) - 1) << b.start),
                 [w for a, w in graph.edges if a == v])
                for v, b in reversed(list(enumerate(minor_blocks(graph))))]

    def table(masks: np.ndarray) -> np.ndarray:
        import numpy as np
        x: dict[int, np.ndarray] = {}
        total = np.zeros(masks.shape, dtype=np.int16)
        for v, major, block, later in vertices():
            x[v] = x_v = np.bitwise_count(masks & block) * np.bitwise_count(masks & major)
            near = sum((x[w] for w in later), np.zeros(masks.shape, dtype=np.int16))
            total += (2 * near + x_v) * x_v
        return np.multiply(total, graph.rho, dtype=np.float64)

    return table


def fine_game(graph: OligopolyGraph) -> CoalitionGame:
    check_roster_size(graph.n_vertices + sum(graph.crowd_sizes))
    players = [PlayerId(PlayerTag.FOUNDER, vid) for vid in graph.vertex_ids]
    for vid, n in zip(graph.vertex_ids, graph.crowd_sizes):
        players += (PlayerId(PlayerTag.CROWD, f"{vid}/u{j}") for j in range(1, n + 1))
    return CoalitionGame(len(players), fine_table(graph), "fine oligopoly", tuple(players))


def shapley_fine_closed(graph: OligopolyGraph) -> Allocation:
    """Closed-form fine-grain payoffs.

    Major of vertex v: rho * (n_v (2 n_v + 1) / 6 + sum_w n_v n_w / 2);
    minor at vertex v: rho * ((4 n_v - 1) / 6 + sum_w n_w / 2), summing over
    the agreement neighbors w of v. Intra-system terms are the exact
    crowd-count averages; inter-system terms give half of each pairwise
    product to the majors and spread the rest over the minors. The major of
    an empty crowd is a null player, and the formula pays it 0.
    """
    blocks = minor_blocks(graph)
    payoffs = [0.0] * blocks[-1].stop
    for v, (n_v, neighbor_mass) in enumerate(zip(graph.crowd_sizes, graph.neighbor_masses())):
        payoffs[v] = graph.rho * (n_v * (2 * n_v + 1) / 6 + n_v * neighbor_mass / 2)
        minor = graph.rho * ((4 * n_v - 1) / 6 + neighbor_mass / 2)
        for p in blocks[v]:
            payoffs[p] = minor
    grand = _grand_value(graph)
    return Allocation(tuple(payoffs), grand)


def fine_major_ratio(graph: OligopolyGraph, vertex: str | int) -> float:
    """Large-crowd share of a system's payoff kept by its major.

    (n_v / 3 + sum_w n_w / 2) / (n_v + sum_w n_w); always in [1/3, 1/2],
    rising toward 1/2 as neighbor crowds dwarf the local one.
    """
    v = graph.vertex_index(vertex)
    n_v = graph.crowd_sizes[v]
    neighbor_mass = graph.neighbor_masses()[v]
    denom = n_v + neighbor_mass
    if denom == 0:
        raise ValueError(
            f"ratio undefined for vertex {graph.vertex_ids[v]!r}: no crowd anywhere")
    return (n_v / 3 + neighbor_mass / 2) / denom


# --- the JSON form and the model entries --------------------------------------

def _vertex(id: Any, size: Any) -> tuple[Any, Any]:
    return id, size


def _parse_graph(vertices: list, edges: Sequence = (), rho: Any = 1.0) -> OligopolyGraph:
    # the typed graph reads an endpoint that is no string as a vertex index
    if not is_list(edges) or not all(isinstance(x, str) for edge in edges for x in edge):
        raise TypeError("the edges do not map onto a graph")
    return OligopolyGraph.from_spec([_vertex(**vertex) for vertex in vertices], edges, rho)


SPECS = {
    "oligopoly_coarse": ModelSpec(validate_graph, _parse_graph, OligopolyGraph.spec,
                                  coarse_game, shapley_coarse),
    "oligopoly_fine": ModelSpec(validate_graph, _parse_graph, OligopolyGraph.spec,
                                fine_game, shapley_fine_closed),
}
