"""Simulation layer: engine, schedules, metrics, events, replication."""

from .adversary import AdversaryResult, search_worst_initial
from .batch import (
    BatchRunResult,
    batch_support,
    batch_supported,
    replicate_batched,
    run_batch,
)
from .engine import RunResult, run
from .events import (
    Event,
    ResourceFailure,
    ResourceRecovery,
    UserArrival,
    UserDeparture,
)
from .metrics import Recorder, Trajectory
from .opensystem import OpenSystemResult, run_open_system
from .parallel import RunSpec, replicate, run_spec
from .rng import derive_rng, make_rng, seed_from_key, spawn_rngs
from .schedule import (
    AlphaSchedule,
    CustomSchedule,
    PartitionSchedule,
    Schedule,
    StaggeredSchedule,
    SynchronousSchedule,
)
from .trace import Trace, write_csv_series

__all__ = [
    "run",
    "RunResult",
    "AdversaryResult",
    "search_worst_initial",
    "RunSpec",
    "replicate",
    "run_spec",
    "BatchRunResult",
    "run_batch",
    "batch_support",
    "batch_supported",
    "replicate_batched",
    "Recorder",
    "Trajectory",
    "OpenSystemResult",
    "run_open_system",
    "Trace",
    "write_csv_series",
    "Schedule",
    "SynchronousSchedule",
    "AlphaSchedule",
    "PartitionSchedule",
    "StaggeredSchedule",
    "CustomSchedule",
    "Event",
    "ResourceFailure",
    "ResourceRecovery",
    "UserArrival",
    "UserDeparture",
    "make_rng",
    "spawn_rngs",
    "derive_rng",
    "seed_from_key",
]
