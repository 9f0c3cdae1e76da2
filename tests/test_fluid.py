"""Fluid (mean-field) model."""

import numpy as np
import pytest

from repro.core.latency import (
    IdentityLatency,
    LatencyProfile,
    MM1Latency,
)
from repro.fluid.model import FluidSystem, run_fluid


def make_system(m=16, theta=0.1, p=0.5):
    return FluidSystem(
        m=m, thetas=np.asarray([theta]), masses=np.asarray([1.0]), p=p
    )


class TestFluidSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            FluidSystem(m=0, thetas=np.asarray([0.1]), masses=np.asarray([1.0]))
        with pytest.raises(ValueError):
            FluidSystem(m=4, thetas=np.asarray([-0.1]), masses=np.asarray([1.0]))
        with pytest.raises(ValueError):
            FluidSystem(m=4, thetas=np.asarray([0.1]), masses=np.asarray([0.5]))
        with pytest.raises(ValueError):
            FluidSystem(
                m=4, thetas=np.asarray([0.1]), masses=np.asarray([1.0]), p=0.0
            )

    def test_mass_conservation(self):
        system = make_system()
        x = system.pile_state()
        for _ in range(50):
            x = system.step(x)
            assert x.sum() == pytest.approx(1.0)
            assert np.all(x >= -1e-15)

    def test_satisfying_states_are_fixed_points(self):
        system = make_system(m=4, theta=0.3)
        x = system.uniform_state()  # loads 0.25 < 0.3: all satisfied
        assert system.total_unsatisfied(x) == 0.0
        assert np.allclose(system.step(x), x)

    def test_pile_drains_with_slack(self):
        # theta = 1.25 / m: 25% fluid slack.
        system = make_system(m=16, theta=1.25 / 16)
        traj = run_fluid(system, initial="pile", eps=1e-9)
        assert traj.unsatisfied[0] == pytest.approx(1.0)
        assert traj.unsatisfied[-1] <= 1e-9
        # monotone decrease (uniform threshold: no fluid overshoot can
        # increase the unsatisfied mass once accepting capacity exists)
        diffs = np.diff(traj.unsatisfied)
        assert np.all(diffs <= 1e-12)

    def test_two_classes(self):
        system = FluidSystem(
            m=8,
            thetas=np.asarray([0.2, 0.5]),
            masses=np.asarray([0.5, 0.5]),
            p=0.5,
        )
        traj = run_fluid(system, initial="pile", eps=1e-9)
        assert traj.unsatisfied[-1] <= 1e-9
        assert traj.final_state.shape == (8, 2)

    def test_run_fluid_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            run_fluid(system, initial=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            run_fluid(system, initial=np.zeros((16, 1)))  # mass 0 != 1


class TestFluidMatchesDiscrete:
    def test_trajectory_agreement_at_large_n(self):
        """The headline validation: n = 32000 matches the fluid map to
        a few parts in a thousand, round by round."""
        import math

        import repro
        from repro.sim.metrics import Recorder

        n, m, slack = 32000, 32, 0.25
        q = math.ceil(n / (m * (1 - slack)))
        system = FluidSystem(
            m=m, thetas=np.asarray([q / n]), masses=np.asarray([1.0]), p=0.5
        )
        fluid = run_fluid(system, initial="pile", eps=0.0, max_rounds=50)
        recorder = Recorder()
        repro.run(
            repro.workloads.uniform_slack(n, m, slack),
            repro.QoSSamplingProtocol(),
            seed=1,
            initial="pile",
            recorder=recorder,
        )
        discrete = recorder.finalize().n_unsatisfied / n
        horizon = min(discrete.size, fluid.rounds - 1)
        dev = np.max(
            np.abs(discrete[:horizon] - fluid.unsatisfied[1 : horizon + 1])
        )
        assert dev < 0.01
