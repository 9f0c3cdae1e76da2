"""Regenerate ``kernel_grid.json``: the frozen reference of the kernel protocols.

Each case of the grid below runs through the scalar engine
(:func:`repro.sim.engine.run`) once per seed, and the file stores every
:meth:`RunResult.summary` field plus a blake2b digest of the final
assignment.  ``tests/test_goldens.py`` replays every case through
``run()`` and, for event-free cases with a batched kernel, through
``run_batch``, both as written and under ``set_user_chunk(17)``, and
expects the stored values back bit for bit.

The grid: the four kernel protocols crossed with ``tests/test_batch.py``'s
generators and rate rules (``permit`` takes no rate), the schedules
synchronous, alpha(0.6) and partition(2), and the initials random and
pile; the staggered schedule (one user per round, so nearly every run
spends the whole round budget) with each protocol's default rate only;
plus one event-script case for each of the four (:func:`event_script`:
a resource failure and recovery, an arrival and a departure) and
``resample_on_self``; then blind-random (``jump_p`` 1 and 0.4) and
naive-greedy over the generators, all four schedules and both initials.
Two seeds per case.

Usage::

    PYTHONPATH=src python tests/goldens/regenerate.py

Regenerate deliberately, never to silence a failure: a mismatch means the
trajectories changed, and the change must be explained before the
reference moves with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_batch import GENERATORS, M, MAX_ROUNDS, N, RATES  # noqa: E402

from repro.core.latency import AffineLatency  # noqa: E402
from repro.registry import build_instance, build_protocol, build_schedule  # noqa: E402
from repro.sim.engine import run  # noqa: E402
from repro.sim.events import (  # noqa: E402
    ResourceFailure,
    ResourceRecovery,
    UserArrival,
    UserDeparture,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "kernel_grid.json"
SEEDS = (21, 22)

SCHEDULES = [
    ("synchronous", {}),
    ("alpha", {"alpha": 0.6}),
    ("partition", {"k": 2}),
    ("staggered", {}),
]
INITIALS = ("random", "pile")
#: The undamped and uninformed baselines, recorded from their scalar
#: bodies before they ran on the sampling and blind kernels.
UNINFORMED = [
    ("blind-random", {}),
    ("blind-random", {"jump_p": 0.4}),
    ("naive-greedy", {}),
]


def _protocols() -> list[tuple[str, dict]]:
    out: list[tuple[str, dict]] = []
    for name, base in (
        ("qos-sampling", {}),
        ("multi-probe", {"d": 2}),
        ("neighborhood", {"topology": "ring", "m": M}),
    ):
        out += [(name, base if rate is None else {**base, "rate": rate}) for rate in RATES]
    return out + [("permit", {})]


def _case(generator, gen_kwargs, protocol, proto_kwargs, schedule, sched_kwargs, initial, events):
    parts = [generator, protocol, json.dumps(proto_kwargs, sort_keys=True), schedule]
    parts += [json.dumps(sched_kwargs, sort_keys=True), initial] + (["events"] if events else [])
    return {
        "id": "|".join(parts),
        "generator": generator,
        "generator_kwargs": {"n": N, "m": M, **gen_kwargs},
        "protocol": protocol,
        "protocol_kwargs": proto_kwargs,
        "schedule": schedule,
        "schedule_kwargs": sched_kwargs,
        "initial": initial,
        "events": events,
    }


def grid() -> list[dict]:
    """Every case of the reference grid, in a stable order."""
    cases = [
        _case(gen, gen_kwargs, proto, proto_kwargs, sched, sched_kwargs, initial, False)
        for gen, gen_kwargs in GENERATORS
        for proto, proto_kwargs in _protocols()
        for sched, sched_kwargs in SCHEDULES
        for initial in INITIALS
        if sched != "staggered" or "rate" not in proto_kwargs
    ]
    cases += [
        _case("uniform_slack", {"slack": 0.35}, proto, proto_kwargs, "synchronous", {}, "pile", True)
        for proto, proto_kwargs in (
            ("qos-sampling", {}),
            ("multi-probe", {"d": 2}),
            ("permit", {}),
            ("neighborhood", {"topology": "ring", "m": M}),
        )
    ]
    cases += [
        _case(gen, gen_kwargs, "qos-sampling", {"resample_on_self": True}, sched, sched_kwargs,
              initial, False)
        for gen, gen_kwargs in GENERATORS
        for sched, sched_kwargs in SCHEDULES[:2]
        for initial in INITIALS
    ]
    cases += [
        _case(gen, gen_kwargs, proto, proto_kwargs, sched, sched_kwargs, initial, False)
        for gen, gen_kwargs in GENERATORS
        for proto, proto_kwargs in UNINFORMED
        for sched, sched_kwargs in SCHEDULES
        for initial in INITIALS
    ]
    return cases


def build(case: dict):
    """The case's instance plus fresh protocol, schedule and event script."""
    instance = build_instance(case["generator"], **case["generator_kwargs"])
    protocol = build_protocol(case["protocol"], **case["protocol_kwargs"])
    schedule = build_schedule(case["schedule"], **case["schedule_kwargs"])
    events = event_script() if case["events"] else ()
    return instance, protocol, schedule, events


def event_script() -> list:
    """The event cases' script: resource 1 fails and recovers, six users
    arrive, three leave."""
    return [
        ResourceFailure(3, 1),
        ResourceRecovery(7, 1, AffineLatency(1.0, 0.0)),
        UserArrival(10, thresholds=np.full(6, 28.0)),
        UserDeparture(13, users=[0, 2, 5]),
    ]


def digest(assignment) -> str:
    """blake2b of the final assignment, independent of its index dtype."""
    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def record(result, assignment) -> dict:
    """One replication's stored form: JSON-normalised summary plus digest."""
    return {**json.loads(json.dumps(result.summary())), "digest": digest(assignment)}


def run_case(case: dict) -> list[dict]:
    """Every seed of ``case`` through the scalar engine, recorded."""
    out = []
    for seed in SEEDS:
        instance, protocol, schedule, events = build(case)
        result = run(
            instance, protocol, seed=seed, schedule=schedule, max_rounds=MAX_ROUNDS,
            initial=case["initial"], events=events, keep_state=True,
        )
        out.append(record(result, result.final_state.assignment))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Rewrite kernel_grid.json from the scalar engine. Regenerate "
        "deliberately, never to silence a failure.",
    )
    parser.parse_args(argv)
    cases = grid()
    # One case per line keeps a regenerated file's diff readable.
    lines = [f"{json.dumps(c['id'])}: {json.dumps(run_case(c), sort_keys=True)}" for c in cases]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
