"""The resource-graph builders against networkx as an oracle.

``workloads.topology`` builds its graphs without networkx; the two
seeded families port networkx's generators draw for draw.  Every builder
must give the CSR arrays that ``ResourceGraph`` compiles from the
networkx graph the builders used to draw.
"""

import numpy as np
import pytest

from repro.core.protocols.neighborhood import ResourceGraph
from repro.workloads.topology import TOPOLOGIES, random_regular_graph

nx = pytest.importorskip("networkx")

SEEDS = range(6)
SIZES = (6, 9, 16, 36, 64, 100, 256, 1024)


def _connected_random_regular(degree, m, seed):
    for attempt in range(16):
        g = nx.random_regular_graph(degree, m, seed=seed + attempt)
        if nx.is_connected(g):
            return g
    return None


def _torus(m):
    side = int(round(m**0.5))
    g = nx.grid_2d_graph(side, side, periodic=True)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


ORACLES = {
    "complete": lambda m, seed: nx.complete_graph(m),
    "ring": lambda m, seed: nx.cycle_graph(m),
    "torus": lambda m, seed: _torus(m),
    "random-regular": lambda m, seed: _connected_random_regular(4, m, seed),
    "barabasi-albert": lambda m, seed: nx.barabasi_albert_graph(m, 2, seed=seed),
    "star": lambda m, seed: nx.star_graph(m - 1),
}
SEEDED = {"random-regular", "barabasi-albert"}


def _same_csr(got, want):
    return np.array_equal(got.offsets, want.offsets) and np.array_equal(
        got.neighbors, want.neighbors
    )


def _cases():
    for name in TOPOLOGIES:
        for m in SIZES:
            if name == "torus" and int(round(m**0.5)) ** 2 != m:
                continue
            for seed in SEEDS if name in SEEDED else (0,):
                yield name, m, seed


def test_oracle_covers_every_builder():
    assert set(ORACLES) == set(TOPOLOGIES)


@pytest.mark.parametrize("name,m,seed", list(_cases()))
def test_builder_matches_networkx(name, m, seed):
    got = TOPOLOGIES[name](m, seed)
    want = ResourceGraph(ORACLES[name](m, seed), m)
    assert _same_csr(got, want)


def test_degree_two_retries_match_networkx():
    """Degree-2 regular graphs are unions of cycles, often disconnected:
    the ``seed + attempt`` retry loop redraws them, and gives up alike."""
    retried = gave_up = 0
    for m in (6, 8, 10, 12, 16, 24):
        for seed in SEEDS:
            want = _connected_random_regular(2, m, seed)
            if want is None:
                gave_up += 1
                with pytest.raises(RuntimeError):
                    random_regular_graph(m, 2, seed)
                continue
            retried += not nx.is_connected(nx.random_regular_graph(2, m, seed=seed))
            assert _same_csr(random_regular_graph(m, 2, seed), ResourceGraph(want, m))
    assert retried > 0


class TestAdjacencyMapping:
    def test_dict_equals_networkx_graph(self):
        adjacency = {0: [3, 1], 1: (0, 2), 2: {1, 3}, 3: [2, 0]}
        assert _same_csr(ResourceGraph(adjacency, 4), ResourceGraph(nx.cycle_graph(4), 4))

    def test_dict_with_wrong_node_set(self):
        with pytest.raises(ValueError, match="exactly the resource indices"):
            ResourceGraph({0: [1], 1: [0, 2], 2: [1]}, 4)

    def test_dict_with_neighbour_outside_the_nodes(self):
        with pytest.raises(ValueError, match="exactly the resource indices"):
            ResourceGraph({0: [1], 1: [0, 2]}, 2)

    def test_disconnected_dict(self):
        with pytest.raises(ValueError, match="must be connected"):
            ResourceGraph({0: [1], 1: [0], 2: [3], 3: [2]}, 4)

    def test_isolated_resource(self):
        with pytest.raises(ValueError, match="at least one neighbour"):
            ResourceGraph({0: [1], 1: [0], 2: []}, 3)

    def test_asymmetric_dict(self):
        with pytest.raises(ValueError, match="undirected"):
            ResourceGraph({0: [1, 2], 1: [0], 2: [1]}, 3)

    def test_single_resource(self):
        graph = ResourceGraph({0: []}, 1)
        assert graph.offsets.tolist() == [0, 0] and graph.neighbors.size == 0
