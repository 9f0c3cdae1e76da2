"""Simulation layer: engine, schedules, metrics, events, replication."""

from .batch import (
    BatchRunResult,
    batch_support,
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
from .rng import make_rng, seed_from_key
from .schedule import (
    AlphaSchedule,
    PartitionSchedule,
    Schedule,
    StaggeredSchedule,
    SynchronousSchedule,
)

__all__ = [
    "run",
    "RunResult",
    "RunSpec",
    "replicate",
    "run_spec",
    "BatchRunResult",
    "run_batch",
    "batch_support",
    "replicate_batched",
    "Recorder",
    "Trajectory",
    "OpenSystemResult",
    "run_open_system",
    "Schedule",
    "SynchronousSchedule",
    "AlphaSchedule",
    "PartitionSchedule",
    "StaggeredSchedule",
    "Event",
    "ResourceFailure",
    "ResourceRecovery",
    "UserArrival",
    "UserDeparture",
    "make_rng",
    "seed_from_key",
]
