"""repro — Distributed algorithms for QoS load balancing (reproduction).

A research-grade simulation library reconstructing the model and the
distributed migration dynamics of *"Distributed algorithms for QoS load
balancing"* (Ackermann, Fischer, Hoefer, Schöngens; SPAA 2009 / Distributed
Computing 2011).  See ``DESIGN.md`` for the reconstruction notes (the
original full text was unavailable) and ``EXPERIMENTS.md`` for the
experiment suite.

Quickstart::

    import repro

    inst = repro.workloads.uniform_slack(n=2000, m=64, slack=0.25)
    protocol = repro.QoSSamplingProtocol()
    result = repro.run(inst, protocol, seed=1)
    print(result.status, result.rounds)

The subpackages ``analysis``, ``fluid``, ``msgsim`` and ``viz`` are
loaded on first attribute access (``repro.msgsim``), so importing the
package pays only for the model, the engines and the workloads.
"""

from importlib import import_module

from . import baselines, core, obs, sim, workloads
from .baselines import SelfishRebalanceProtocol, optimal_assignment
from .core import (
    AccessMap,
    AffineLatency,
    CapacityLatency,
    IdentityLatency,
    Instance,
    LatencyFunction,
    LatencyProfile,
    MM1Latency,
    PolynomialLatency,
    SpeedScaledLatency,
    State,
    TableLatency,
    UnavailableLatency,
    best_alternative_latency,
    blocked_mask,
    greedy_assignment,
    improvable_users,
    is_feasible,
    is_generous,
    is_stable,
    max_satisfied,
    multiplicative_slack,
    overload_potential,
    unsatisfied_count,
)
from .core.protocols import (
    AdaptiveBackoffRate,
    BestResponseProtocol,
    BlindRandomProtocol,
    ConstantRate,
    MultiProbeProtocol,
    NaiveGreedyProtocol,
    NeighborhoodSamplingProtocol,
    PermitProtocol,
    Protocol,
    QoSSamplingProtocol,
    ResourceGraph,
    SlackProportionalRate,
    SweepBestResponse,
)
from .registry import (
    GENERATORS,
    PROTOCOLS,
    SCHEDULES,
    build_instance,
    build_protocol,
    build_schedule,
)
from .sim import (
    AlphaSchedule,
    BatchRunResult,
    PartitionSchedule,
    Recorder,
    ResourceFailure,
    ResourceRecovery,
    RunResult,
    RunSpec,
    StaggeredSchedule,
    SynchronousSchedule,
    UserArrival,
    UserDeparture,
    batch_support,
    replicate,
    run,
    run_batch,
)

__version__ = "1.1.0"

_LAZY_SUBPACKAGES = frozenset({"analysis", "fluid", "msgsim", "viz"})


def __getattr__(name: str):
    if name in _LAZY_SUBPACKAGES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    # subpackages
    "core",
    "sim",
    "msgsim",
    "fluid",
    "obs",
    "viz",
    "workloads",
    "baselines",
    "analysis",
    # model
    "Instance",
    "State",
    "AccessMap",
    "LatencyFunction",
    "LatencyProfile",
    "IdentityLatency",
    "SpeedScaledLatency",
    "AffineLatency",
    "PolynomialLatency",
    "MM1Latency",
    "CapacityLatency",
    "UnavailableLatency",
    "TableLatency",
    # theory
    "is_feasible",
    "greedy_assignment",
    "max_satisfied",
    "multiplicative_slack",
    "is_stable",
    "is_generous",
    "blocked_mask",
    "best_alternative_latency",
    "improvable_users",
    "unsatisfied_count",
    "overload_potential",
    # protocols
    "Protocol",
    "QoSSamplingProtocol",
    "MultiProbeProtocol",
    "PermitProtocol",
    "NeighborhoodSamplingProtocol",
    "ResourceGraph",
    "BestResponseProtocol",
    "SweepBestResponse",
    "NaiveGreedyProtocol",
    "BlindRandomProtocol",
    "SelfishRebalanceProtocol",
    "ConstantRate",
    "SlackProportionalRate",
    "AdaptiveBackoffRate",
    # baselines
    "optimal_assignment",
    # simulation
    "run",
    "RunResult",
    "RunSpec",
    "replicate",
    "run_batch",
    "BatchRunResult",
    "batch_support",
    "Recorder",
    "SynchronousSchedule",
    "AlphaSchedule",
    "PartitionSchedule",
    "StaggeredSchedule",
    "ResourceFailure",
    "ResourceRecovery",
    "UserArrival",
    "UserDeparture",
    # registries
    "PROTOCOLS",
    "SCHEDULES",
    "GENERATORS",
    "build_protocol",
    "build_schedule",
    "build_instance",
]
