"""Cross-version pin of the message simulator's sampling trajectory.

The other msgsim tests compare two runs of the same build; these compare
one small run against digests recorded from an earlier version of the
code, once on the reliable network and once under message loss,
duplication and reordering.  A refactor of the agents or the transport
that changes a single RNG draw, message or move changes the digest.
"""

import hashlib
import json

import pytest

from repro.msgsim.faults import FaultPlan
from repro.msgsim.runner import run_message_sim
from repro.workloads.generators import uniform_slack

LOSSY = FaultPlan(p_drop=0.1, p_duplicate=0.02, p_reorder=0.02)


def _digest(res) -> str:
    blob = json.dumps(
        {
            "time": repr(res.time),
            "total_messages": res.total_messages,
            "moves": res.total_moves,
            "retries": res.retries,
            "positions": res.final_state.assignment.tolist(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "plan, expected",
    [
        (None, ("3.562808327093322", 455, 31, 0, "0f02531159be674b")),
        (LOSSY, ("4.8901860561077966", 753, 33, 81, "9202010a632bd9a9")),
    ],
    ids=["reliable", "lossy"],
)
def test_sampling_trajectory_matches_recorded_digest(plan, expected):
    res = run_message_sim(
        uniform_slack(40, 5, slack=0.1), seed=3, initial="pile", fault_plan=plan
    )
    assert res.converged
    got = (repr(res.time), res.total_messages, res.total_moves, res.retries, _digest(res))
    assert got == expected
