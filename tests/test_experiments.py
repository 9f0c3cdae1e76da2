"""The experiment suite at micro scale: structure and key claims hold."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    f1_scaling_n,
    f2_slack,
    f4_hetero_users,
    f5_hetero_resources,
    f10_multi_probe,
    f6_rate_ablation,
    f7_asynchrony,
    f8_failures,
    f9_topology,
    run_experiment,
    t1_protocols,
    t2_infeasible,
    t3_msgsim,
    t4_drift_and_oblivious,
)
from repro.runs import ResultStore, run_cells, sweepable_experiments, use_store


MICRO = {
    # F1 needs a wide n range: over a narrow one, small-integer round counts
    # let a sqrt-ish power law edge out the log fit.
    "F1": dict(ns=(64, 128, 256, 512, 1024, 2048, 4096), users_per_resource=16, n_reps=5),
    "F2": dict(slacks=(0.0, 0.25, 0.5), n=256, m=16, n_reps=5),
    "F3": dict(ms=(4, 8, 16), n_reps=4),
    "F4": dict(n=256, m=16, n_reps=3, max_rounds=10_000),
    "F5": dict(n=256, m=16, n_reps=3, max_rounds=10_000),
    "F6": dict(ps=(0.25, 1.0), n=256, m=16, n_reps=4, max_rounds=10_000),
    "F7": dict(alphas=(1.0, 0.5), partitions=(2,), n=256, m=16, n_reps=4),
    "F8": dict(failure_counts=(1, 2), n=256, m=16, n_reps=3, settle_rounds=30),
    "F9": dict(topologies=("complete", "ring"), n=128, m=8, n_reps=4, max_rounds=20_000),
    "F10": dict(ds=(1, 2), n=256, m=16, n_reps=4),
    "F11": dict(ns=(250, 1000, 4000), n_reps=3),
    "F12": dict(rhos=(0.6, 1.2), m=8, q=4, rounds=150, warmup=40, n_reps=2),
    "F13": dict(p_losses=(0.0, 0.2), n=48, m=6, n_reps=2, max_time=400.0),
    "F14": dict(ns=(256, 1024, 4096), users_per_resource=32, n_reps=3),
    "T1": dict(n=256, m=16, n_reps=3, max_rounds=3_000),
    "T2": dict(overload_factors=(1.5,), m=8, q=4, n_reps=3),
    "T3": dict(n=96, m=8, n_reps=3),
    "T4": dict(n=128, m=8, n_drift_runs=3, n_reps=3, max_rounds=3_000),
    "T5": dict(slacks=(0.25,), n=256, m=8, n_reps=200, delta=0.15),
}

# Figure-sized sweeps (overrides on top of the ``ci`` preset) for the
# claims that compare points across a sweep or need points MICRO lacks:
# wide enough that a bound like F3's "at most 4x over a 16x range of m"
# can fail.  Per-row levels at points MICRO has (F1, F4, F5, F9, F12, T4)
# and T1 (~12 s at n = 2048) are checked at MICRO.
CLAIMS = {
    "F2": dict(n=2048, m=64, n_reps=9),
    "F3": dict(ms=(8, 16, 32, 64, 128), n_reps=7),
    "F6": dict(ps=(0.0625, 0.25, 0.5, 1.0), n=2048, m=64, n_reps=9),
    "F7": dict(alphas=(1.0, 0.5, 0.25), partitions=(2, 4), n=2048, m=64, n_reps=9),
    "F8": dict(failure_counts=(1, 4, 8), n=2048, m=64, settle_rounds=100, n_reps=7),
    "F10": dict(ds=(1, 2, 4, 8), n=2048, m=64, n_reps=9),
    "F11": dict(ns=(500, 2000, 8000, 32000), n_reps=7),
    "F13": dict(p_losses=(0.0, 0.05, 0.2), n=96, m=8, n_reps=3),
    "T2": dict(overload_factors=(1.25, 1.5, 2.0), m=32, q=8, n_reps=7),
    "T5": dict(slacks=(0.25, 0.05), n=1024, m=32, n_reps=300, delta=0.1),
}


def at_claim_scale(eid):
    return run_experiment(eid, "ci", **CLAIMS[eid])


def test_registry_is_complete():
    assert set(EXPERIMENTS) == set(MICRO)
    for eid, exp in EXPERIMENTS.items():
        assert exp.experiment_id == eid
        assert exp.description
        assert exp.ci and exp.full


@pytest.mark.parametrize("eid", sorted(MICRO))
def test_experiment_runs_and_is_well_formed(eid):
    result = run_experiment(eid, "ci", **MICRO[eid])
    assert result.experiment_id == eid
    assert result.rows, eid
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = result.render()
    assert eid in text


@pytest.mark.parametrize("eid", sweepable_experiments())
def test_cell_decomposition_covers_the_render(eid, tmp_path):
    """``ExperimentDef.cells`` (the default dry run, or T4's own) lists
    every cell the runner reads: a store filled from it alone renders
    under ``render_only`` to the text of a direct run."""
    exp = EXPERIMENTS[eid]
    store = ResultStore(tmp_path)
    summary = run_cells(exp.list_cells("ci", **MICRO[eid]), store=store, timeout=None)
    assert summary["run"] and not summary["failed"]
    with use_store(store, render_only=True):
        rendered = exp.run("ci", **MICRO[eid]).render()
    assert rendered == exp.run("ci", **MICRO[eid]).render()


def test_invalid_scale_and_id():
    with pytest.raises(ValueError):
        EXPERIMENTS["F1"].run("huge")
    with pytest.raises(KeyError):
        run_experiment("nope")


class TestKeyClaims:
    """The headline shape claims at micro scale, and the sweep-comparing
    bounds at figure-sized sweeps (``CLAIMS``); seeds fixed, stable."""

    def test_f1_growth_is_logarithmic(self):
        result = f1_scaling_n(**MICRO["F1"])
        assert result.extra["verdict"] == "logarithmic"
        assert all(row[2] == 100 for row in result.rows)  # every run satisfied

    def test_f2_tight_is_harder(self):
        result = f2_slack(**MICRO["F2"])
        medians = result.extra["medians"]
        assert medians[0] > medians[-1]
        medians = at_claim_scale("F2").extra["medians"]
        assert medians[0] >= 2 * medians[-1]  # tight costs at least 2x loose

    def test_f3_growth_in_m_is_sublinear(self):
        medians = at_claim_scale("F3").extra["medians"]
        # m grows 16x (four doublings); linear growth would be 16x the rounds
        assert medians[-1] <= 4 * medians[0]

    def test_f4_benign_profiles_satisfy_and_the_trap_stalls(self):
        rows = {(r[0], r[1]): r for r in f4_hetero_users(**MICRO["F4"]).rows}
        assert rows[("staggered", "permit")][2] == 100
        assert rows[("zipf(a=1.5)", "permit")][2] == 100
        for proto in ("qos-sampling", "permit", "best-response"):
            trap = rows[("two-class trap (random)", proto)]
            assert trap[3] == 100  # quiescent%
            assert trap[4] < 100  # satisfied%

    def test_f5_every_latency_family_satisfies(self):
        for row in f5_hetero_resources(**MICRO["F5"]).rows:
            assert row[2] == 100, row

    def test_t1_winners(self):
        result = t1_protocols(**MICRO["T1"])
        stats = result.extra["stats"]
        permit = stats["permit"]["rounds_median"]
        naive = stats["naive-greedy"]["rounds_median"]
        sampling = stats["qos-sampling(p=0.5)"]["rounds_median"]
        assert permit <= sampling  # no overshoot -> no slower
        assert naive >= permit  # herding pays
        assert sampling <= naive  # damping pays too
        # sequential best response needs ~n rounds (one move per round)
        br = stats["best-response"]["rounds_median"]
        assert br > 20 * sampling

    def test_f6_damping_beats_p1_in_moves(self):
        result = f6_rate_ablation(**MICRO["F6"])
        rows = {row[0]: row for row in result.rows}
        # p = 1 herds: strictly more migrations per user than p = 0.25
        assert rows["const(1)"][5] > rows["const(0.25)"][5]

    def test_f6_rounds_are_u_shaped_in_p(self):
        med = at_claim_scale("F6").extra["medians"]
        # too timid and too bold both lose to the middle
        assert med["const(0.0625)"] > med["const(0.5)"]
        assert med["const(1)"] > med["const(0.5)"]

    def test_f7_alpha_slowdown(self):
        result = f7_asynchrony(**MICRO["F7"])
        norm = result.extra["normalised"]
        sync = norm["synchronous"]
        half = norm["alpha(0.5)"]
        assert half == pytest.approx(sync, rel=1.2)  # same order after scaling
        norm = at_claim_scale("F7").extra["normalised"]
        for label, value in norm.items():
            assert value is not None and value <= 2.5 * norm["synchronous"], label

    def test_f8_recovers(self):
        result = f8_failures(**MICRO["F8"])
        for row in result.rows:
            assert row[1] == 100  # sat% — all runs re-converge
            assert row[2] is not None and row[2] >= 0
        for row in at_claim_scale("F8").rows:
            assert row[1] == 100, row
            assert row[2] is not None and row[2] < 100, row  # well under budget

    def test_f9_ring_slower_than_complete(self):
        result = f9_topology(**MICRO["F9"])
        medians = result.extra["medians"]
        assert medians["ring"] > medians["complete"]
        rows = {row[0]: row for row in result.rows}
        assert rows["complete"][1] == 100  # dense visibility always satisfies
        assert rows["ring"][1] <= rows["complete"][1]

    def test_t2_pile_beats_random_and_permit_hits_opt(self):
        result = t2_infeasible(**MICRO["T2"])
        by_key = {(row[2], row[3]): row for row in result.rows}
        permit_pile = by_key[("pile", "permit")]
        permit_rand = by_key[("random", "permit")]
        assert permit_pile[6] == pytest.approx(100.0, abs=1.0)  # % of OPT
        assert permit_rand[6] < permit_pile[6]

    def test_t2_permit_reaches_opt_from_pile_at_every_factor(self):
        result = at_claim_scale("T2")
        by_key = {(row[0], row[2], row[3]): row for row in result.rows}
        for factor in CLAIMS["T2"]["overload_factors"]:
            permit_pile = by_key[(factor, "pile", "permit")]
            permit_rand = by_key[(factor, "random", "permit")]
            assert permit_pile[6] >= 99.0, factor  # % of OPT
            assert permit_rand[6] <= permit_pile[6], factor

    def test_t3_executions_agree(self):
        result = t3_msgsim(**MICRO["T3"])
        engine_row, msg_row = result.rows
        assert engine_row[1] == pytest.approx(100.0)
        assert msg_row[1] == pytest.approx(100.0)
        # time ratio within a factor 3 either way
        assert 1 / 3 <= msg_row[2] / engine_row[2] <= 3

    def test_f11_fluid_deviation_shrinks(self):
        from repro.experiments import f11_fluid_limit

        result = f11_fluid_limit(**MICRO["F11"])
        devs = result.extra["single_devs"]
        assert devs[-1] < devs[0]
        devs = at_claim_scale("F11").extra["single_devs"]
        assert devs[-1] < 0.25 * devs[0]  # over a 64x range of n

    def test_t5_whp_bound_is_valid(self):
        from repro.experiments import t5_tail

        result = t5_tail(**MICRO["T5"])
        row = result.rows[0]
        assert row[3] >= row[1]  # whp bound at or above the median
        for row in at_claim_scale("T5").rows:
            median, whp = row[1], row[3]
            assert median <= whp <= 2.5 * median, row  # valid and concentrated
            assert row[6] is None or row[6] > 0.8, row  # geometric tail fits well

    def test_f12_underload_beats_overload(self):
        from repro.experiments import f12_churn

        result = f12_churn(**MICRO["F12"])
        stats = result.extra["stats"]
        for proto in ("qos-sampling", "permit"):
            assert stats[(0.6, proto)] > stats[(1.2, proto)]
            assert stats[(0.6, proto)] > 0.97  # headroom: near-perfect QoS
            assert 0.02 < stats[(1.2, proto)] < 0.6  # overload degrades, no collapse

    def test_f13_loss_degrades_gracefully(self):
        result = at_claim_scale("F13")
        assert result.extra["bitexact_p0"]  # p = 0 is the fault-free run
        assert result.extra["all_conserved"]
        for row in result.rows:
            assert row[1] == 100 and row[2] is not None  # no deadlocks
        ticks = [row[2] for row in result.rows]
        msgs = [row[3] for row in result.rows]
        assert ticks == sorted(ticks)  # loss costs time...
        assert msgs == sorted(msgs)  # ...and messages, monotonically

    def test_f10_structure(self):
        result = f10_multi_probe(**MICRO["F10"])
        med = result.extra["medians"]
        assert med[1] is not None and med[2] is not None
        # at micro scale only sanity: both converge; messages grow with d
        msgs = result.extra["messages"]
        assert msgs[2] > msgs[1] * 0.8

    def test_f10_two_choices_jump_then_herding_reversal(self):
        med = at_claim_scale("F10").extra["medians"]
        assert med[2] <= med[1]
        assert med[8] > med[2]

    def test_t4_drift_negative_and_oblivious_collapses(self):
        result = t4_drift_and_oblivious(**MICRO["T4"])
        rows = {row[0]: row for row in result.rows}
        assert rows["overload-potential drift"][1] < 0
        assert rows["unsatisfied-count drift"][1] < 0
        oblivious = rows[
            "overload satisfied/OPT_sat% [selfish-rebalance (QoS-oblivious)]"
        ]
        permit = rows["overload satisfied/OPT_sat% [permit]"]
        assert oblivious[1] < 5.0
        assert permit[1] > 95.0
