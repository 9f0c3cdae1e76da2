"""Sampling restricted to a resource graph (limited visibility).

In large systems a user cannot probe an arbitrary resource; it only knows
about resources "near" its current one — neighbouring cells in a wireless
deployment, adjacent racks, peered servers.  The
:class:`NeighborhoodSamplingProtocol` models this with an undirected
*resource graph* ``G`` on the resources: each round an unsatisfied user
samples uniformly among the neighbours of its **current** resource (its
visibility horizon is one hop) and applies the same conservative check and
migration-rate damping as the flat sampling protocol.

Convergence now additionally depends on ``G``'s connectivity and diameter:
a user may have to traverse several intermediate resources to reach free
capacity, paying the graph distance in rounds.  Experiment F9 sweeps graph
families (ring, random-regular, Barabási–Albert, complete) at fixed
instance parameters to expose the effect.

The graph is given as an adjacency mapping on resource indices ``0..m-1``
(``graph[r]`` iterates ``r``'s neighbours, iterating ``graph`` gives the
nodes; a networkx ``Graph`` qualifies) and compiled once into flat
CSR-style adjacency arrays so per-round sampling stays vectorized.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..memory import csr_offsets
from ..stability import best_alternative_latency
from .kernels import SampleCommitProtocol
from .rates import ConstantRate, MigrationRateRule

__all__ = ["ResourceGraph", "NeighborhoodSamplingProtocol"]


class ResourceGraph:
    """Flat adjacency view of an undirected resource graph."""

    __slots__ = (
        "n_resources", "neighbors", "offsets", "_bounds", "_degree", "_any_isolated"
    )

    def __init__(self, graph: Mapping[int, Iterable[int]], n_resources: int):
        if set(graph) != set(range(n_resources)):
            raise ValueError(
                "graph nodes must be exactly the resource indices 0..m-1"
            )
        adjacency = [sorted(set(graph[r])) for r in range(n_resources)]
        for r, nbrs in enumerate(adjacency):
            if r in nbrs:
                raise ValueError(f"resource {r} is its own neighbour (self-loop)")
        self.n_resources = n_resources
        degs = np.asarray([len(nbrs) for nbrs in adjacency], dtype=np.int64)
        if np.any(degs == 0) and n_resources > 1:
            raise ValueError("every resource needs at least one neighbour")
        self.offsets = csr_offsets(degs)
        self.neighbors = np.fromiter(
            (s for nbrs in adjacency for s in nbrs), dtype=np.int64, count=int(degs.sum())
        )
        if np.any((self.neighbors < 0) | (self.neighbors >= n_resources)):
            raise ValueError("graph nodes must be exactly the resource indices 0..m-1")
        sources = np.repeat(np.arange(n_resources, dtype=np.int64), degs)
        if not np.array_equal(
            np.sort(sources * n_resources + self.neighbors),
            np.sort(self.neighbors * n_resources + sources),
        ):
            raise ValueError("resource graph must be undirected (symmetric adjacency)")
        if n_resources > 1 and not _connected(sources, self.neighbors, n_resources):
            raise ValueError(
                "resource graph must be connected, or users can be stranded"
            )
        # Per-resource RNG bound, precomputed so the per-round sampling hot
        # path is at most two takes + one rng call.
        self._bounds = np.maximum(degs, 1)
        # On a regular graph (ring, random-regular, complete) the one
        # degree is a scalar bound: the same stream as the per-resource
        # bounds, drawn without the gather and the array-bound path.
        uniform = n_resources > 0 and bool(np.all(self._bounds == self._bounds[0]))
        self._degree = int(self._bounds[0]) if uniform else None
        self._any_isolated = bool(np.any(degs == 0))

    def sample_neighbor(
        self, resources: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform neighbour per listed resource (vectorized)."""
        resources = np.asarray(resources, dtype=np.int64)
        lo = self.offsets.take(resources)
        high = self._bounds.take(resources) if self._degree is None else self._degree
        pos = lo + rng.integers(0, high, size=resources.shape)
        if self._any_isolated:
            # Only possible when m == 1: the one resource samples itself.
            return resources.copy()
        return self.neighbors.take(pos)


def _connected(sources: np.ndarray, targets: np.ndarray, n_resources: int) -> bool:
    """Breadth-first search from resource 0 over the edge list
    ``sources[i] -> targets[i]``: one hop per pass until no resource is added."""
    seen = np.zeros(n_resources, dtype=bool)
    seen[0] = True
    reached = 1
    while True:
        seen[targets[seen[sources]]] = True
        now = int(np.count_nonzero(seen))
        if now == reached:
            return now == n_resources
        reached = now


class NeighborhoodSamplingProtocol(SampleCommitProtocol):
    """Sampling protocol with one-hop visibility on a resource graph.

    The round is the ``"neighborhood"`` kernel of
    :mod:`repro.core.protocols.kernels`.
    """

    kernel = "neighborhood"

    def __init__(self, graph: ResourceGraph, rate: MigrationRateRule | None = None):
        self.graph = graph
        self.rate = rate if rate is not None else ConstantRate(0.5)
        self.name = f"neighborhood[{self.rate.name}]"

    def reset(self, instance, rng):
        if self.graph.n_resources != instance.n_resources:
            raise ValueError("resource graph size does not match the instance")
        super().reset(instance, rng)

    def is_quiescent(self, state):
        """Quiescent iff no unsatisfied user's *one-hop* neighbourhood has a
        satisfying resource.  Weaker than global stability: a user may be
        locally stuck while distant capacity exists — then the run reports
        quiescence with unsatisfied users, the F9 failure mode.
        """
        unsat = np.nonzero(~state.satisfied_mask())[0]
        best = best_alternative_latency(state, unsat, graph=self.graph)
        return not bool(np.any(best <= state.instance.thresholds[unsat]))

    def describe(self):
        d = super().describe()
        d.update(rate=self.rate.describe())
        return d
