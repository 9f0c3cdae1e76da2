"""Recorder and Trajectory."""

import numpy as np
import pytest

from repro.core.potential import overload_potential, unsatisfied_count
from repro.core.protocols import QoSSamplingProtocol
from repro.sim.engine import run
from repro.sim.metrics import Recorder, Trajectory


class TestRecorder:
    def test_series_alignment(self, small_uniform):
        recorder = Recorder(
            potentials={"unsat": unsatisfied_count, "excess": overload_potential},
            snapshot_every=2,
        )
        result = run(
            small_uniform,
            QoSSamplingProtocol(),
            seed=3,
            initial="pile",
            recorder=recorder,
        )
        traj = result.trajectory
        assert traj.n_unsatisfied.size == traj.n_moved.size == traj.n_attempted.size
        assert traj.potentials["unsat"].size == traj.rounds
        assert traj.potentials["excess"].size == traj.rounds
        assert 0 in traj.load_snapshots
        for snap in traj.load_snapshots.values():
            assert snap.shape == (small_uniform.n_resources,)

    def test_potential_every_repeats_values(self, small_uniform, rng):
        from repro.core.state import State

        recorder = Recorder(potentials={"u": unsatisfied_count}, potential_every=3)
        state = State.worst_case_pile(small_uniform)
        for r in range(6):
            recorder.record(r, state, 0, 0)
        traj = recorder.finalize()
        # evaluated at rounds 0 and 3, repeated elsewhere
        assert np.all(traj.potentials["u"] == traj.potentials["u"][0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Recorder(potential_every=0)
        with pytest.raises(ValueError):
            Recorder(snapshot_every=-1)


class TestTrajectory:
    def make(self, unsat):
        n = len(unsat)
        return Trajectory(
            n_unsatisfied=np.asarray(unsat),
            n_moved=np.ones(n, dtype=np.int64),
            n_attempted=np.full(n, 2, dtype=np.int64),
        )

    def test_first_satisfying_round(self):
        # Entry k is the state after round k's step, so the first zero at
        # index 2 means the run satisfied after 3 executed rounds.
        assert self.make([3, 2, 0, 0]).first_satisfying_round() == 3
        assert self.make([0, 0]).first_satisfying_round() == 1
        assert self.make([3, 2, 1]).first_satisfying_round() is None

    def test_summary(self):
        s = self.make([2, 1, 0]).summary()
        assert s["rounds"] == 3
        assert s["total_moves"] == 3
        assert s["total_attempts"] == 6
        assert s["first_satisfying_round"] == 3
