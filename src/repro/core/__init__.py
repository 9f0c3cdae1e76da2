"""Core model of QoS load balancing: instances, states, feasibility, protocols."""

from .feasibility import (
    FeasibilityResult,
    MaxSatisfiedResult,
    greedy_assignment,
    is_feasible,
    max_satisfied,
    multiplicative_slack,
    segment_dp_assignment,
)
from .instance import AccessMap, Instance
from .latency import (
    AffineLatency,
    CapacityLatency,
    IdentityLatency,
    LatencyFunction,
    LatencyProfile,
    MM1Latency,
    PolynomialLatency,
    SpeedScaledLatency,
    TableLatency,
    UnavailableLatency,
)
from .potential import overload_potential, unsatisfied_count
from .stability import (
    best_alternative_latency,
    blocked_mask,
    deadlock_free_users,
    improvable_users,
    is_generous,
    is_stable,
    satisfied_resident_min,
)
from .state import State

__all__ = [
    # instance / state
    "AccessMap",
    "Instance",
    "State",
    # latency
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
    # feasibility
    "FeasibilityResult",
    "MaxSatisfiedResult",
    "greedy_assignment",
    "segment_dp_assignment",
    "is_feasible",
    "max_satisfied",
    "multiplicative_slack",
    # stability
    "is_stable",
    "is_generous",
    "blocked_mask",
    "best_alternative_latency",
    "improvable_users",
    "deadlock_free_users",
    "satisfied_resident_min",
    # potentials
    "unsatisfied_count",
    "overload_potential",
]
