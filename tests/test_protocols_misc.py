"""Naive/blind protocols, neighborhood sampling, and rate rules."""

import networkx as nx
import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.protocols.naive import BlindRandomProtocol, NaiveGreedyProtocol
from repro.core.protocols.neighborhood import (
    NeighborhoodSamplingProtocol,
    ResourceGraph,
)
from repro.core.protocols.rates import (
    AdaptiveBackoffRate,
    ConstantRate,
    MigrationRateRule,
    SlackProportionalRate,
)
from repro.core.protocols.sampling import QoSSamplingProtocol
from repro.core.state import State
from repro.registry import build_protocol
from repro.sim.engine import run
from repro.workloads.topology import ring_graph

from conftest import step_moves
from oracles import neighbors_of


class TestNaiveGreedy:
    def test_commits_every_eligible_probe(self, small_uniform, rng):
        state = State.worst_case_pile(small_uniform)
        proto = NaiveGreedyProtocol()
        proto.reset(small_uniform, rng)
        outcome = proto.step(state, np.ones(12, dtype=bool), rng)
        # every mover that sampled a satisfying non-self target commits;
        # with 3 empty resources of capacity 4 and 12 users, expect many.
        assert outcome.n_attempted == outcome.n_moved >= 6


class TestBlindRandom:
    def test_moves_without_checking(self, small_uniform, rng):
        state = State.worst_case_pile(small_uniform)
        proto = BlindRandomProtocol()
        proto.reset(small_uniform, rng)
        outcome = proto.step(state, np.ones(12, dtype=bool), rng)
        assert outcome.n_attempted == 12  # everyone unsatisfied jumps

    def test_satisfied_users_stay(self, small_uniform, rng):
        state = State(small_uniform, np.asarray([0, 1, 2, 3] * 3))
        proto = BlindRandomProtocol()
        assert proto.step(state, np.ones(12, dtype=bool), rng).n_attempted == 0

    def test_jump_probability(self, small_uniform):
        rng = np.random.default_rng(5)
        state = State.worst_case_pile(small_uniform)
        proto = BlindRandomProtocol(jump_p=0.25)
        total = sum(
            step_moves(proto, state, np.ones(12, dtype=bool), rng)[2].n_attempted
            for _ in range(200)
        )
        assert 300 < total < 900  # expectation 600

    def test_never_quiescent(self, trap_state):
        assert BlindRandomProtocol().is_quiescent(trap_state) is None

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BlindRandomProtocol(jump_p=0.0)


class TestResourceGraph:
    def test_requires_exact_node_set(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            ResourceGraph(g, 4)

    def test_requires_connected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            ResourceGraph(g, 4)

    def test_rejects_self_loop(self):
        g = nx.cycle_graph(4)
        g.add_edge(1, 1)
        with pytest.raises(ValueError, match="resource 1 is its own neighbour"):
            ResourceGraph(g, 4)

    def test_sample_neighbor_stays_adjacent(self, rng):
        graph = ring_graph(8)
        starts = rng.integers(0, 8, size=500)
        samples = graph.sample_neighbor(starts, rng)
        for s, t in zip(starts, samples):
            assert t in neighbors_of(graph, int(s))

    def test_neighbors_of(self):
        graph = ring_graph(5)
        assert sorted(neighbors_of(graph, 0)) == [1, 4]

    @pytest.mark.parametrize("m", [2, 7, 64])
    def test_regular_graph_scalar_bound_keeps_the_stream(self, m):
        """A regular graph draws with its degree as a scalar bound; the
        values and the stream state match the per-resource bound draw."""
        graph = ResourceGraph(nx.complete_graph(m), m) if m == 2 else ring_graph(m)
        assert graph._degree is not None
        starts = np.random.default_rng(m).integers(0, m, size=333)
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        got = graph.sample_neighbor(starts, fast)
        pos = graph.offsets.take(starts) + slow.integers(0, graph._bounds.take(starts))
        assert np.array_equal(got, graph.neighbors.take(pos))
        assert fast.random() == slow.random()

    def test_irregular_graph_keeps_per_resource_bounds(self, rng):
        graph = ResourceGraph(nx.star_graph(4), 5)
        assert graph._degree is None
        samples = graph.sample_neighbor(np.zeros(200, dtype=np.int64), rng)
        assert set(samples.tolist()) == {1, 2, 3, 4}


class TestNeighborhoodProtocol:
    def test_targets_are_one_hop(self, rng):
        inst = Instance.identical_machines([3.0] * 12, 6)
        graph = ring_graph(6)
        proto = NeighborhoodSamplingProtocol(graph, rate=ConstantRate(1.0))
        proto.reset(inst, rng)
        state = State.worst_case_pile(inst)
        for _ in range(30):
            before = state.assignment.copy()
            proto.step(state, np.ones(12, dtype=bool), rng)
            for u in np.flatnonzero(state.assignment != before):
                assert int(state.assignment[u]) in neighbors_of(graph, int(before[u]))
            if state.is_satisfying():
                break

    def test_size_mismatch_rejected(self, rng):
        inst = Instance.identical_machines([3.0] * 6, 4)
        proto = NeighborhoodSamplingProtocol(ring_graph(6))
        with pytest.raises(ValueError):
            proto.reset(inst, rng)

    def test_local_quiescence(self, rng):
        # A user stuck behind full neighbours while distant capacity exists.
        inst = Instance.identical_machines([1.0, 2.0, 2.0, 9.0, 9.0], 3)
        graph = ring_graph(3)
        proto = NeighborhoodSamplingProtocol(graph)
        proto.reset(inst, rng)
        # r0 = {q1, q9, q9} (load 3: q1 unsat), r1 = {q2, q2} (load 2),
        # r2 empty.  q1's neighbours on the ring are r1 (2+1=3 > 1) and r2
        # (0+1 = 1 <= 1): improvable -> not quiescent.
        state = State(inst, np.asarray([0, 1, 1, 0, 0]))
        assert proto.is_quiescent(state) is False
        # Fill r2 so the neighbourhood offers nothing.
        inst2 = Instance.identical_machines([1.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0], 3)
        state2 = State(inst2, np.asarray([0, 1, 1, 0, 0, 2, 2]))
        proto2 = NeighborhoodSamplingProtocol(graph)
        proto2.reset(inst2, rng)
        assert proto2.is_quiescent(state2) is True

    @pytest.mark.parametrize("topology", ["complete", "torus"])
    def test_single_resource_samples_itself(self, topology):
        """At m = 1 the one resource is isolated and samples itself, so an
        overloaded instance goes quiescent after one idle round on both
        engines (the empty neighbour list used to raise IndexError)."""
        from repro.registry import build_instance
        from repro.sim.batch import run_batch

        inst = build_instance("overloaded", n=8, m=1, q=2.0)
        seeds = [0, 1, 2]
        batch = run_batch(
            inst, build_protocol("neighborhood", topology=topology, m=1), seeds=seeds
        )
        for seed, batched in zip(seeds, batch.decompose()):
            scalar = run(inst, build_protocol("neighborhood", topology=topology, m=1), seed=seed)
            assert scalar.summary() == batched.summary()
            assert (scalar.status, scalar.rounds, scalar.total_moves) == ("quiescent", 1, 0)


def _step(rate, state, seed):
    """One synchronous sampling step under ``rate`` on a fresh stream, on a
    copy of ``state``: the movers, their targets and the outcome."""
    proto = QoSSamplingProtocol(rate)
    rng = np.random.default_rng(seed)
    proto.reset(state.instance, rng)
    return step_moves(proto, state, np.ones(state.instance.n_users, dtype=bool), rng)


def _eligible(state, seed):
    """Movers whose probe would satisfy them, from the step's own target draw."""
    users = np.flatnonzero(~state.satisfied_mask())
    targets = np.random.default_rng(seed).integers(0, state.instance.n_resources, users.size)
    ok = (targets != state.assignment[users]) & state.would_satisfy(users, targets)
    return users[ok], targets[ok]


class TestRates:
    def test_constant_rate_statistics(self, small_uniform):
        state = State.worst_case_pile(small_uniform)
        committed = eligible = 0
        for seed in range(500):
            moved, _, _ = _step(ConstantRate(0.5), state, seed)
            users, _ = _eligible(state, seed)
            assert np.isin(moved, users).all()
            committed += moved.size
            eligible += users.size
        assert 0.45 < committed / eligible < 0.55  # expectation 1/2

    def test_constant_rate_p1_commits_all(self, small_uniform):
        state = State.worst_case_pile(small_uniform)
        for seed in range(20):
            moved, moved_to, _ = _step(ConstantRate(1.0), state, seed)
            users, targets = _eligible(state, seed)
            assert np.array_equal(moved, users)
            assert np.array_equal(moved_to, targets)

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            ConstantRate(1.5)

    def test_slack_proportional_bounds(self, small_uniform):
        state = State.worst_case_pile(small_uniform)
        moved, moved_to, outcome = _step(SlackProportionalRate(floor=0.1), state, 3)
        users, targets = _eligible(state, 3)
        assert outcome.n_attempted == outcome.n_moved == moved.size > 0
        keep = np.isin(users, moved)
        assert np.array_equal(moved, users[keep])
        assert np.array_equal(moved_to, targets[keep])

    @staticmethod
    def _backoff_kernel(instance, rate, rng):
        """The kernel of a sampling protocol under ``rate``, freshly reset:
        the one owner of the backoff probabilities ``P``."""
        proto = QoSSamplingProtocol(rate)
        proto.reset(instance, rng)
        return proto, proto._compiled

    def test_adaptive_backoff_punishes_collisions(self, small_uniform, rng):
        _, kernel = self._backoff_kernel(
            small_uniform, AdaptiveBackoffRate(p0=1.0, backoff=0.5), rng
        )
        assert kernel.P.shape == (1, 12) and np.all(kernel.P == 1.0)
        state = State.worst_case_pile(small_uniform)
        # Pretend users 0..5 moved and are still unsatisfied (they are: all
        # on r0 with load 12 > 4).
        moved = np.arange(6)
        t = state.assignment[moved].astype(np.int64)
        kernel.observe_backoff(state.loads, moved, t, t)
        assert np.allclose(kernel.P[0, :6], 0.5)
        assert np.allclose(kernel.P[0, 6:], 1.0)
        # Quiet users recover toward 1.
        none = np.arange(0)
        kernel.observe_backoff(state.loads, none, none, none)
        assert np.allclose(kernel.P[0, :6], 1.0)

    def test_adaptive_backoff_step_punishes_exactly_the_collided(self, small_uniform):
        """Through ``step``: from the pile with p0 = 1, the movers left
        unsatisfied at their target back off, everyone else stays at 1."""
        rng = np.random.default_rng(2)
        proto, kernel = self._backoff_kernel(
            small_uniform, AdaptiveBackoffRate(p0=1.0, backoff=0.5), rng
        )
        state = State.worst_case_pile(small_uniform)
        before = state.assignment.copy()
        proto.step(state, np.ones(12, dtype=bool), rng)
        moved = np.flatnonzero(state.assignment != before)
        collided = moved[~state.satisfied_mask()[moved]]
        assert collided.size  # p = 1 from the pile overshoots on this stream
        expected = np.ones(12)
        expected[collided] = 0.5
        assert np.array_equal(kernel.P[0], expected)

    def test_adaptive_backoff_floor(self, small_uniform, rng):
        _, kernel = self._backoff_kernel(
            small_uniform, AdaptiveBackoffRate(p0=1.0, backoff=0.01, floor=0.25), rng
        )
        state = State.worst_case_pile(small_uniform)
        moved = np.arange(12)
        t = state.assignment.astype(np.int64)
        kernel.observe_backoff(state.loads, moved, t, t)
        assert np.all(kernel.P == 0.25)

    def test_backoff_steps_equal_run(self):
        """N Protocol.step calls on one stream equal run(max_rounds=N): same
        final assignment and the same per-user backoff vector in the kernel."""
        inst = Instance.identical_machines(np.full(48, 3.0), 16)
        n_rounds = 6

        def protocol():
            return QoSSamplingProtocol(AdaptiveBackoffRate(p0=0.9, backoff=0.5, recover=1.5))

        via_run = protocol()
        result = run(inst, via_run, seed=11, max_rounds=n_rounds, initial="pile",
                     keep_state=True)
        stepped = protocol()
        rng = np.random.default_rng(11)
        state = State.worst_case_pile(inst)
        stepped.reset(inst, rng)
        steps = 0
        while steps < n_rounds and not state.is_satisfying():
            stepped.step(state, np.ones(inst.n_users, dtype=bool), rng)
            steps += 1
        assert steps == result.rounds and steps > 1
        assert np.array_equal(state.assignment, result.final_state.assignment)
        assert np.array_equal(stepped._compiled.P, via_run._compiled.P)
        assert not np.all(stepped._compiled.P == 0.9)  # the vector did move

    def test_rate_without_kernel_rejected_at_reset(self, small_uniform, rng):
        class HalfRate(MigrationRateRule):
            name = "half"

        for name, kwargs in (
            ("qos-sampling", {}),
            ("multi-probe", {"d": 2}),
            ("neighborhood", {"topology": "ring", "m": 4}),
        ):
            proto = build_protocol(name, rate=HalfRate(), **kwargs)
            with pytest.raises(ValueError, match="'half'"):
                proto.reset(small_uniform, rng)
            with pytest.raises(ValueError, match="'half'"):
                run(small_uniform, proto, seed=0, max_rounds=3)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBackoffRate(backoff=1.5)
        with pytest.raises(ValueError):
            AdaptiveBackoffRate(recover=0.5)
        with pytest.raises(ValueError):
            SlackProportionalRate(floor=0.0)
