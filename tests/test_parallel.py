"""Replication runner: determinism, spec plumbing, process pools."""

import numpy as np
import pytest

from repro.registry import PROTOCOLS
from repro.sim.batch import replicate_batched
from repro.sim.parallel import (
    RunSpec,
    _run_shard,
    rep_seed,
    replicate,
    run_spec,
    spec_seed_key,
)
from repro.sim.rng import seed_from_key


def spec(**over):
    base = dict(
        generator="uniform_slack",
        generator_kwargs={"n": 128, "m": 8, "slack": 0.3},
        protocol="qos-sampling",
        initial="pile",
        max_rounds=5000,
        label="par-test",
    )
    base.update(over)
    return RunSpec(**base)


def test_serial_replication_deterministic():
    a = replicate(spec(), 4, base_seed=7, workers=0)
    b = replicate(spec(), 4, base_seed=7, workers=0)
    assert [r.rounds for r in a] == [r.rounds for r in b]
    assert [r.total_moves for r in a] == [r.total_moves for r in b]


def test_replications_are_independent():
    results = replicate(spec(), 8, base_seed=7)
    moves = {r.total_moves for r in results}
    assert len(moves) > 1  # different seeds -> different trajectories


def test_base_seed_changes_results():
    a = replicate(spec(), 4, base_seed=1)
    b = replicate(spec(), 4, base_seed=2)
    assert [r.total_moves for r in a] != [r.total_moves for r in b]


def test_run_spec_builds_everything():
    result = run_spec(
        spec(
            protocol="neighborhood",
            protocol_kwargs={"topology": "ring", "m": 8},
            schedule="alpha",
            schedule_kwargs={"alpha": 0.5},
        ),
        seed=3,
    )
    assert result.status in ("satisfying", "quiescent")
    assert result.schedule["name"] == "alpha(0.5)"


def _streams(s, n=6, base_seed=7, seed_key=None):
    key = seed_key if seed_key is not None else spec_seed_key(s)
    return [seed_from_key(base_seed, key, str(i)) for i in range(n)]


def test_unlabeled_cells_get_distinct_seed_streams():
    # The old scheme keyed seeds on `label or protocol`: every unlabeled
    # cell of a sweep sharing a protocol reused ONE stream, silently
    # correlating replications across cells.  Any differing field must now
    # yield a different stream.
    a = spec(label="", generator_kwargs={"n": 128, "m": 8, "slack": 0.3})
    b = spec(label="", generator_kwargs={"n": 128, "m": 8, "slack": 0.2})
    c = spec(label="", max_rounds=4999)
    assert _streams(a) != _streams(b)
    assert _streams(a) != _streams(c)
    assert _streams(a) == _streams(spec(label=""))  # same config -> same stream


def test_same_label_different_config_distinct_streams():
    # Sharing a label is no longer enough to collide streams.
    a = spec(label="sweep", generator_kwargs={"n": 128, "m": 8, "slack": 0.3})
    b = spec(label="sweep", generator_kwargs={"n": 256, "m": 8, "slack": 0.3})
    assert _streams(a) != _streams(b)


def test_seed_key_opt_in_common_random_numbers():
    # Paired comparisons: an explicit seed_key pins the stream regardless
    # of the spec's own fields (here: different labels).
    a, b = spec(label="arm-a"), spec(label="arm-b")
    assert _streams(a) != _streams(b)  # default: independent
    assert _streams(a, seed_key="crn") == _streams(b, seed_key="crn")
    ra = replicate(a, 3, base_seed=5, seed_key="crn")
    rb = replicate(b, 3, base_seed=5, seed_key="crn")
    assert [r.summary() for r in ra] == [r.summary() for r in rb]


def test_spec_seed_key_covers_full_config():
    key = spec_seed_key(spec())
    d = spec().describe()
    for field in d:
        assert f'"{field}"' in key


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(spec(), 0)


@pytest.mark.slow
def test_process_pool_matches_serial():
    serial = replicate(spec(), 3, base_seed=5, workers=0)
    pooled = replicate(spec(), 3, base_seed=5, workers=2)
    assert [r.rounds for r in serial] == [r.rounds for r in pooled]
    assert [r.total_moves for r in serial] == [r.total_moves for r in pooled]


def test_describe_roundtrip():
    d = spec().describe()
    assert d["generator"] == "uniform_slack"
    assert d["protocol"] == "qos-sampling"
    assert d["max_rounds"] == 5000


RATES = [{"name": "const", "p": 0.5}, {"name": "slack-proportional"}, {"name": "adaptive-backoff"}]

#: Every registered protocol, with each rate where it takes one.
SHARD_VARIANTS = (
    [("qos-sampling", {"rate": r}) for r in RATES]
    + [("multi-probe", {"d": 2, "rate": r}) for r in RATES]
    + [("neighborhood", {"topology": "ring", "rate": r}) for r in RATES]
    + [
        ("permit", {}),
        ("best-response", {}),
        ("sweep-best-response", {}),
        ("naive-greedy", {}),
        ("blind-random", {"jump_p": 0.5}),
        ("selfish-rebalance", {}),
    ]
)

SHARD_SCHEDULES = [
    ("synchronous", {}),
    ("alpha", {"alpha": 0.5}),
    ("partition", {"k": 3}),
    ("staggered", {}),
]


def test_shard_variants_cover_every_registered_protocol():
    assert {name for name, _ in SHARD_VARIANTS} == set(PROTOCOLS)


@pytest.fixture
def built(monkeypatch):
    """Names of the instances ``registry.build_instance`` builds."""
    import repro.registry as registry

    names = []
    real = registry.build_instance

    def counting(name, **kwargs):
        names.append(name)
        return real(name, **kwargs)

    monkeypatch.setattr(registry, "build_instance", counting)
    return names


@pytest.mark.parametrize(
    "name,kwargs",
    SHARD_VARIANTS,
    ids=[f"{n}-{k['rate']['name']}" if "rate" in k else n for n, k in SHARD_VARIANTS],
)
def test_scalar_shard_reuse_equals_fresh_builds(name, kwargs, built):
    """A scalar shard runs every replication on one build of the spec;
    each per-rep summary equals a run_spec loop that builds afresh."""
    for generator in ("uniform_slack", "zipf_thresholds"):
        for schedule, schedule_kwargs in SHARD_SCHEDULES:
            for initial in ("random", "pile"):
                s = spec(
                    generator=generator,
                    generator_kwargs={"n": 48, "m": 6},
                    protocol=name,
                    protocol_kwargs=kwargs,
                    schedule=schedule,
                    schedule_kwargs=schedule_kwargs,
                    initial=initial,
                    max_rounds=200,
                )
                key = spec_seed_key(s)
                built.clear()
                shard = _run_shard(s, range(3), 11, key, False)
                assert len(built) == 1
                fresh = [run_spec(s, rep_seed(11, key, i)) for i in range(3)]
                assert [r.summary() for r in shard] == [r.summary() for r in fresh], (
                    generator, schedule, initial,
                )


def test_one_instance_build_per_call(built):
    replicate(spec(protocol="best-response"), 5, base_seed=2)
    assert len(built) == 1
    built.clear()
    replicate_batched(spec(), 4, base_seed=2)
    assert len(built) == 1
