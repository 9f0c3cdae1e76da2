"""Resource-graph topologies for limited-visibility experiments (F9).

Builders return :class:`~repro.core.protocols.neighborhood.ResourceGraph`
objects compiled from adjacency mappings built here.  All graphs are
connected (the protocol requires it) and are deterministic in their seed.

The two seeded families port networkx 3.6.1's generators draw for draw
(``random.Random(seed)``, the same shuffles and choices in the same
order), so a seed gives the graph that
``networkx.random_regular_graph(degree, m, seed)`` and
``networkx.barabasi_albert_graph(m, attach, seed)`` give, whatever
networkx is installed, if any.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterable

from ..core.protocols.neighborhood import ResourceGraph

__all__ = [
    "complete_graph",
    "ring_graph",
    "torus_graph",
    "random_regular_graph",
    "barabasi_albert_graph",
    "star_graph",
    "TOPOLOGIES",
]


def _from_edges(m: int, edges: Iterable[tuple[int, int]]) -> ResourceGraph:
    adjacency: dict[int, set[int]] = {r: set() for r in range(m)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return ResourceGraph(adjacency, m)


def complete_graph(m: int) -> ResourceGraph:
    """Every resource sees every other — one-hop visibility is global."""
    return ResourceGraph({r: [s for s in range(m) if s != r] for r in range(m)}, m)


def ring_graph(m: int) -> ResourceGraph:
    """Cycle: diameter ``m/2``; the slowest reasonable connected topology."""
    if m < 3:
        raise ValueError("ring needs m >= 3")
    return ResourceGraph({r: [(r - 1) % m, (r + 1) % m] for r in range(m)}, m)


def torus_graph(m: int) -> ResourceGraph:
    """2-D torus grid (requires ``m`` to be a perfect square); resource
    ``i * side + j`` is grid point ``(i, j)``."""
    side = int(round(m**0.5))
    if side * side != m:
        raise ValueError("torus needs a perfect-square m")
    return ResourceGraph(
        {
            i * side + j: {
                ((i + di) % side) * side + (j + dj) % side
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
            } - {i * side + j}
            for i in range(side)
            for j in range(side)
        },
        m,
    )


def _pair_stubs(m: int, degree: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One Steger–Wormald stub-pairing attempt: the edge set, or None
    when the leftover stubs admit no new edge."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(m)) * degree
    while stubs:
        potential: defaultdict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] += 1
                potential[s2] += 1
        nodes = list(potential)
        if nodes and all(
            (min(a, b), max(a, b)) in edges for i, a in enumerate(nodes) for b in nodes[:i]
        ):
            return None
        stubs = [node for node, count in potential.items() for _ in range(count)]
    return edges


def random_regular_graph(m: int, degree: int = 4, seed: int = 0) -> ResourceGraph:
    """Random ``degree``-regular graph: logarithmic diameter w.h.p."""
    if degree < 1 or degree >= m:
        raise ValueError("degree must be in [1, m)")
    if (degree * m) % 2 != 0:
        raise ValueError("degree * m must be even")
    for attempt in range(16):
        rng = random.Random(seed + attempt)
        edges = None
        while edges is None:
            edges = _pair_stubs(m, degree, rng)
        try:
            return _from_edges(m, edges)
        except ValueError:  # disconnected: draw again from the next seed
            continue
    raise RuntimeError("failed to draw a connected random regular graph")


def barabasi_albert_graph(m: int, attach: int = 2, seed: int = 0) -> ResourceGraph:
    """Preferential-attachment graph: hub-dominated, small diameter."""
    if attach < 1 or attach >= m:
        raise ValueError("attach must be in [1, m)")
    rng = random.Random(seed)
    # Start from a star on attach + 1 nodes (hub 0); each node is listed
    # once per incident edge, so a uniform pick is degree-proportional.
    edges = [(0, leaf) for leaf in range(1, attach + 1)]
    repeated = [0] * attach + list(range(1, attach + 1))
    for source in range(attach + 1, m):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(rng.choice(repeated))
        edges += [(source, t) for t in targets]
        repeated.extend(targets)
        repeated.extend([source] * attach)
    return _from_edges(m, edges)


def star_graph(m: int) -> ResourceGraph:
    """Hub-and-spokes: diameter 2 but a single bottleneck hub."""
    if m < 2:
        raise ValueError("star needs m >= 2")
    return _from_edges(m, ((0, leaf) for leaf in range(1, m)))


#: Name -> builder registry used by the F9 bench and the CLI.  Builders
#: take (m, seed) and ignore the seed when deterministic.
TOPOLOGIES = {
    "complete": lambda m, seed=0: complete_graph(m),
    "ring": lambda m, seed=0: ring_graph(m),
    "torus": lambda m, seed=0: torus_graph(m),
    "random-regular": lambda m, seed=0: random_regular_graph(m, 4, seed),
    "barabasi-albert": lambda m, seed=0: barabasi_albert_graph(m, 2, seed),
    "star": lambda m, seed=0: star_graph(m),
}
