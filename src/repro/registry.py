"""Name-based registries for protocols, rates, schedules and generators.

Experiment specifications must be *plain data* (names + keyword arguments)
so they can cross process boundaries (:mod:`repro.sim.parallel`), be
written into traces, and be launched from the CLI.  This module is the
single mapping from those names to constructors.

Example::

    protocol = build_protocol("qos-sampling", rate={"name": "const", "p": 0.5})
    schedule = build_schedule("alpha", alpha=0.25)
    instance = build_instance("uniform_slack", n=1000, m=32, slack=0.25)
"""

from __future__ import annotations

from typing import Any, Callable

from .baselines.selfish import SelfishRebalanceProtocol
from .core.protocols import (
    AdaptiveBackoffRate,
    BestResponseProtocol,
    BlindRandomProtocol,
    ConstantRate,
    MigrationRateRule,
    MultiProbeProtocol,
    NaiveGreedyProtocol,
    NeighborhoodSamplingProtocol,
    PermitProtocol,
    Protocol,
    QoSSamplingProtocol,
    SlackProportionalRate,
    SweepBestResponse,
)
from .core.instance import Instance
from .sim.schedule import (
    AlphaSchedule,
    PartitionSchedule,
    Schedule,
    StaggeredSchedule,
    SynchronousSchedule,
)
from .workloads import generators as _generators
from .workloads.topology import TOPOLOGIES

__all__ = [
    "RATES",
    "PROTOCOLS",
    "SCHEDULES",
    "GENERATORS",
    "build_rate",
    "build_protocol",
    "build_schedule",
    "build_instance",
]

RATES: dict[str, Callable[..., MigrationRateRule]] = {
    "const": ConstantRate,
    "slack-proportional": SlackProportionalRate,
    "adaptive-backoff": AdaptiveBackoffRate,
}


def build_rate(spec: dict[str, Any] | MigrationRateRule | None) -> MigrationRateRule | None:
    """Build a rate rule from ``{"name": ..., **kwargs}`` (or pass through)."""
    if spec is None or isinstance(spec, MigrationRateRule):
        return spec
    kwargs = dict(spec)
    name = kwargs.pop("name")
    return RATES[name](**kwargs)


PROTOCOLS: dict[str, type[Protocol]] = {
    "qos-sampling": QoSSamplingProtocol,
    "multi-probe": MultiProbeProtocol,
    "permit": PermitProtocol,
    "neighborhood": NeighborhoodSamplingProtocol,
    "best-response": BestResponseProtocol,
    "sweep-best-response": SweepBestResponse,
    "naive-greedy": NaiveGreedyProtocol,
    "blind-random": BlindRandomProtocol,
    "selfish-rebalance": SelfishRebalanceProtocol,
}


def build_protocol(name: str, **kwargs: Any) -> Protocol:
    """Build ``PROTOCOLS[name]``: a ``rate`` spec becomes its rule, and
    ``topology``/``m``/``seed`` become the neighbourhood resource graph."""
    if name not in PROTOCOLS:
        raise KeyError(f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}")
    if "rate" in kwargs:
        kwargs["rate"] = build_rate(kwargs["rate"])
    if "topology" in kwargs:
        topology = TOPOLOGIES[kwargs.pop("topology")]
        kwargs["graph"] = topology(kwargs.pop("m"), kwargs.pop("seed", 0))
    return PROTOCOLS[name](**kwargs)


SCHEDULES: dict[str, Callable[..., Schedule]] = {
    "synchronous": SynchronousSchedule,
    "alpha": AlphaSchedule,
    "partition": PartitionSchedule,
    "staggered": StaggeredSchedule,
}


def build_schedule(name: str, **kwargs: Any) -> Schedule:
    if name not in SCHEDULES:
        raise KeyError(f"unknown schedule {name!r}; known: {sorted(SCHEDULES)}")
    return SCHEDULES[name](**kwargs)


GENERATORS: dict[str, Callable[..., Instance]] = {
    "uniform_slack": _generators.uniform_slack,
    "tight_uniform": _generators.tight_uniform,
    "two_class": _generators.two_class,
    "zipf_thresholds": _generators.zipf_thresholds,
    "overloaded": _generators.overloaded,
    "related_speeds": _generators.related_speeds,
    "mm1_farm": _generators.mm1_farm,
    "polynomial_farm": _generators.polynomial_farm,
    "weighted_uniform": _generators.weighted_uniform,
    "random_access": _generators.random_access,
    "sparse_access": _generators.sparse_access,
}


def build_instance(name: str, **kwargs: Any) -> Instance:
    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    return GENERATORS[name](**kwargs)
