"""The frozen kernel reference: ``tests/goldens/kernel_grid.json``.

Every case replays through the scalar engine and, where it has no event
script and a batched kernel exists, through ``run_batch``, as written and
under ``set_user_chunk(17)``
(which forces the chunked code paths), and must reproduce the stored
summary and final-assignment digest exactly.  The batched replay also
runs with ``MOVER_CHUNK`` forced to 1 (one row per kernel call) and 97
(rows grouped while their movers fit).  The reference was recorded
from the scalar engine by ``tests/goldens/regenerate.py``; regenerate it
deliberately, never to silence a failure.
"""

import json

import pytest

from goldens.regenerate import (
    GOLDEN_PATH,
    MAX_ROUNDS,
    SEEDS,
    build,
    grid,
    record,
    run_case,
)
from repro.core.memory import set_user_chunk
from repro.core.memory import user_chunk as current_chunk
import repro.sim.batch as batch_module
from repro.sim.batch import _kernel_support, run_batch

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = grid()


@pytest.fixture(params=[None, 17], ids=["default-chunk", "chunk-17"])
def user_chunk(request):
    previous = set_user_chunk(request.param or current_chunk())
    yield
    set_user_chunk(previous)


def test_grid_matches_the_reference():
    assert [c["id"] for c in CASES] == list(GOLDEN), (
        "grid and kernel_grid.json disagree: regenerate deliberately"
    )


def batchable(case) -> bool:
    _, protocol, schedule, _ = build(case)
    return not (case["events"] or _kernel_support(protocol, schedule))


def replay_batched(case):
    """The case's records through ``run_batch``."""
    instance, protocol, schedule, _ = build(case)
    batch = run_batch(
        instance, protocol, seeds=list(SEEDS), schedule=schedule,
        max_rounds=MAX_ROUNDS, initial=case["initial"],
    )
    return [
        record(result, batch.final_assignment[i])
        for i, result in enumerate(batch.decompose())
    ]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_case_replays(case, user_chunk):
    expected = GOLDEN[case["id"]]
    assert run_case(case) == expected
    if batchable(case):
        assert replay_batched(case) == expected


BATCHED_CASES = [c for c in CASES if batchable(c)]


@pytest.mark.parametrize("mover_chunk", [1, 97])
@pytest.mark.parametrize("case", BATCHED_CASES, ids=[c["id"] for c in BATCHED_CASES])
def test_case_replays_in_mover_groups(case, mover_chunk, monkeypatch):
    monkeypatch.setattr(batch_module, "MOVER_CHUNK", mover_chunk)
    assert replay_batched(case) == GOLDEN[case["id"]]
