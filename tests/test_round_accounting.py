"""Regression tests pinning the engine's round accounting.

Three layers of pinning:

- ``RunResult.rounds`` agrees with the recorded trajectory
  (``first_satisfying_round``) for satisfying runs — the two accountings
  used to disagree by one (the trajectory reported the array index, the
  result the round boundary);
- ``recovery_rounds`` measures rounds from the last event to the first
  satisfying state;
- frozen-seed golden summaries, one cell per registered protocol, anchor
  the cached/uncached equivalence claim to concrete seed-state behaviour:
  any change to RNG stream consumption, proposal filtering, or round
  accounting shows up here as a hard diff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latency import IdentityLatency
from repro.registry import build_instance, build_protocol
from repro.sim.engine import run
from repro.sim.events import ResourceFailure, ResourceRecovery
from repro.sim.metrics import Recorder
from repro.sim.batch import run_batch
from repro.sim.parallel import RunSpec, _spec_components, run_spec
from repro.sim.rng import seed_from_key

# ---------------------------------------------------------------------------
# rounds vs. trajectory


@pytest.mark.parametrize(
    "protocol,protocol_kwargs",
    [
        ("qos-sampling", {}),
        ("multi-probe", {"d": 2}),
        ("permit", {}),
        ("sweep-best-response", {}),
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_rounds_match_trajectory_first_satisfying_round(
    protocol, protocol_kwargs, seed
):
    inst = build_instance("uniform_slack", n=64, m=8, slack=0.3)
    recorder = Recorder()
    result = run(
        inst,
        build_protocol(protocol, **protocol_kwargs),
        seed=seed,
        initial="pile",
        max_rounds=500,
        recorder=recorder,
    )
    assert result.status == "satisfying"
    assert result.rounds == result.satisfying_round
    assert result.rounds == result.trajectory.first_satisfying_round()
    assert result.trajectory.rounds == result.rounds


def test_already_satisfying_initial_state_counts_zero_rounds():
    inst = build_instance("uniform_slack", n=64, m=8, slack=0.3)
    warm = run(
        inst, build_protocol("qos-sampling"), seed=0, initial="pile", keep_state=True
    )
    assert warm.status == "satisfying"
    recorder = Recorder()
    result = run(
        inst,
        build_protocol("qos-sampling"),
        seed=1,
        initial=warm.final_state,
        recorder=recorder,
    )
    assert result.status == "satisfying"
    assert result.rounds == 0
    assert result.satisfying_round == 0
    # No round executed, so the trajectory is empty and has no first
    # satisfying round — the zero-round edge lives only on the result.
    assert result.trajectory.rounds == 0
    assert result.trajectory.first_satisfying_round() is None


def test_unsatisfying_run_has_no_satisfying_round():
    inst = build_instance("uniform_slack", n=64, m=8, slack=0.3)
    recorder = Recorder()
    result = run(
        inst,
        build_protocol("qos-sampling"),
        seed=0,
        initial="pile",
        max_rounds=1,
        recorder=recorder,
    )
    assert result.status == "max_rounds"
    assert result.satisfying_round is None
    assert result.trajectory.first_satisfying_round() is None
    assert result.recovery_rounds is None


# ---------------------------------------------------------------------------
# recovery accounting with events


def test_recovery_rounds_with_events():
    inst = build_instance("uniform_slack", n=64, m=8, slack=0.3)
    events = [
        ResourceFailure(round_index=2, resource=0),
        ResourceRecovery(round_index=6, resource=0, latency=IdentityLatency()),
    ]
    result = run(
        inst,
        build_protocol("qos-sampling"),
        seed=11,
        initial="pile",
        max_rounds=2000,
        events=events,
    )
    assert result.status == "satisfying"
    assert result.last_event_round == 6
    assert result.satisfying_round is not None
    assert result.satisfying_round >= result.last_event_round
    assert result.recovery_rounds == result.satisfying_round - result.last_event_round
    # satisfaction reached before the failure does not count: the event
    # resets satisfying_round, so recovery is measured from the last event.
    assert result.rounds == result.satisfying_round


def test_recovery_rounds_none_without_events():
    inst = build_instance("uniform_slack", n=64, m=8, slack=0.3)
    result = run(inst, build_protocol("qos-sampling"), seed=11, initial="pile")
    assert result.status == "satisfying"
    assert result.last_event_round is None
    assert result.recovery_rounds is None


# ---------------------------------------------------------------------------
# frozen-seed golden summaries (one cell per registered protocol)
#
# Cell: uniform_slack(n=64, m=8, slack=0.3), pile start, synchronous
# schedule, seed 2026, max_rounds=500.  Regenerate deliberately (never to
# silence a failure) with:
#
#   PYTHONPATH=src python - <<'EOF'
#   from repro.sim.batch import run_batch
from repro.sim.parallel import RunSpec, _spec_components, run_spec
from repro.sim.rng import seed_from_key
#   from tests.test_round_accounting import GOLDEN_CELLS
#   for name, kw, _ in GOLDEN_CELLS:
#       spec = RunSpec(generator="uniform_slack",
#                      generator_kwargs={"n": 64, "m": 8, "slack": 0.3},
#                      protocol=name, protocol_kwargs=kw,
#                      max_rounds=500, initial="pile")
#       s = run_spec(spec, 2026).summary()
#       print(name, kw, {k: s[k] for k in GOLDEN_KEYS})
#   EOF

GOLDEN_KEYS = (
    "status",
    "rounds",
    "total_moves",
    "total_attempts",
    "total_messages",
    "n_satisfied",
    "satisfying_round",
)

GOLDEN_CELLS = [
    (
        "qos-sampling",
        {},
        {
            "status": "satisfying",
            "rounds": 3,
            "total_moves": 58,
            "total_attempts": 58,
            "total_messages": 123,
            "n_satisfied": 64,
            "satisfying_round": 3,
        },
    ),
    (
        "multi-probe",
        {"d": 2},
        {
            "status": "satisfying",
            "rounds": 3,
            "total_moves": 56,
            "total_attempts": 56,
            "total_messages": 220,
            "n_satisfied": 64,
            "satisfying_round": 3,
        },
    ),
    (
        "permit",
        {},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 54,
            "total_attempts": 54,
            "total_messages": 128,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "best-response",
        {},
        {
            "status": "satisfying",
            "rounds": 52,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 2002,
            "n_satisfied": 64,
            "satisfying_round": 52,
        },
    ),
    (
        "sweep-best-response",
        {},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 64,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "naive-greedy",
        {},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 54,
            "total_attempts": 54,
            "total_messages": 64,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "blind-random",
        {},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 54,
            "total_attempts": 64,
            "total_messages": 64,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "selfish-rebalance",
        {},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 64,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "neighborhood",
        {"topology": "ring", "m": 8},
        {
            "status": "quiescent",
            "rounds": 9,
            "total_moves": 63,
            "total_attempts": 63,
            "total_messages": 373,
            "n_satisfied": 43,
            "satisfying_round": None,
        },
    ),
]


@pytest.mark.parametrize(
    "protocol,protocol_kwargs,expected",
    GOLDEN_CELLS,
    ids=[name for name, _, _ in GOLDEN_CELLS],
)
def test_frozen_seed_golden_summary(protocol, protocol_kwargs, expected):
    spec = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": 64, "m": 8, "slack": 0.3},
        protocol=protocol,
        protocol_kwargs=protocol_kwargs,
        max_rounds=500,
        initial="pile",
    )
    summary = run_spec(spec, 2026).summary()
    assert {k: summary[k] for k in GOLDEN_KEYS} == expected


def test_blind_random_golden_on_the_batched_engine():
    """The lockstep blind kernel counts self-jumps as attempts, not moves:
    the golden cell's 64 attempts against 54 moves, through ``run_batch``."""
    [(_, kwargs, expected)] = [c for c in GOLDEN_CELLS if c[0] == "blind-random"]
    spec = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": 64, "m": 8, "slack": 0.3},
        protocol="blind-random",
        protocol_kwargs=kwargs,
        max_rounds=500,
        initial="pile",
    )
    instance, protocol, schedule = _spec_components(spec)
    batch = run_batch(
        instance, protocol, seeds=[seed_from_key(2026, "run")], schedule=schedule,
        max_rounds=spec.max_rounds, initial=spec.initial,
    )
    [result] = batch.decompose()
    summary = result.summary()
    assert {k: summary[k] for k in GOLDEN_KEYS} == expected


# ---------------------------------------------------------------------------
# frozen-seed golden summaries of the sequential baselines' other variants
#
# The golden cells above pin the default greedy, polite best response on
# a uniform instance.  These pin the paths they leave out: the uniform
# pick (``greedy=False``, which draws ``rng.integers``), the selfish move
# rule (``polite=False``) and a two-class pile start, where heterogeneous
# thresholds leave the polite dynamics quiescent.  Same seed, budget and
# start as above; regenerate deliberately with the recipe above, using
# each cell's generator.

TWO_CLASS = {
    "n_demanding": 4,
    "q_demanding": 2.0,
    "n_tolerant": 60,
    "q_tolerant": 20.0,
    "m": 8,
}

VARIANT_CELLS = [
    (
        "uniform_slack",
        {"n": 64, "m": 8, "slack": 0.3},
        "best-response",
        {"greedy": False},
        {
            "status": "satisfying",
            "rounds": 52,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 2002,
            "n_satisfied": 64,
            "satisfying_round": 52,
        },
    ),
    (
        "uniform_slack",
        {"n": 64, "m": 8, "slack": 0.3},
        "best-response",
        {"polite": False},
        {
            "status": "satisfying",
            "rounds": 52,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 2002,
            "n_satisfied": 64,
            "satisfying_round": 52,
        },
    ),
    (
        "uniform_slack",
        {"n": 64, "m": 8, "slack": 0.3},
        "sweep-best-response",
        {"polite": False},
        {
            "status": "satisfying",
            "rounds": 1,
            "total_moves": 52,
            "total_attempts": 52,
            "total_messages": 64,
            "n_satisfied": 64,
            "satisfying_round": 1,
        },
    ),
    (
        "two_class",
        TWO_CLASS,
        "best-response",
        {},
        {
            "status": "quiescent",
            "rounds": 45,
            "total_moves": 44,
            "total_attempts": 44,
            "total_messages": 1873,
            "n_satisfied": 61,
            "satisfying_round": None,
        },
    ),
    (
        "two_class",
        TWO_CLASS,
        "sweep-best-response",
        {},
        {
            "status": "quiescent",
            "rounds": 2,
            "total_moves": 44,
            "total_attempts": 44,
            "total_messages": 66,
            "n_satisfied": 62,
            "satisfying_round": None,
        },
    ),
]


@pytest.mark.parametrize(
    "generator,generator_kwargs,protocol,protocol_kwargs,expected",
    VARIANT_CELLS,
    ids=[
        f"{gen}-{name}-" + ("-".join(f"{k}={v}" for k, v in kw.items()) or "default")
        for gen, _, name, kw, _ in VARIANT_CELLS
    ],
)
def test_frozen_seed_best_response_variants(
    generator, generator_kwargs, protocol, protocol_kwargs, expected
):
    spec = RunSpec(
        generator=generator,
        generator_kwargs=generator_kwargs,
        protocol=protocol,
        protocol_kwargs=protocol_kwargs,
        max_rounds=500,
        initial="pile",
    )
    summary = run_spec(spec, 2026).summary()
    assert {k: summary[k] for k in GOLDEN_KEYS} == expected
