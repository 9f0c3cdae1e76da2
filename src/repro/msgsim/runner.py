"""Build and run a message-passing execution of the sampling protocol.

:func:`run_message_sim` instantiates one resource agent per resource and
one user agent per user from an :class:`~repro.core.instance.Instance`,
wires them to a :class:`~repro.msgsim.network.Network`, and runs until the
system is globally satisfying with no migrations in flight (measured by an
external observer — agents themselves never see global state), or a time /
event budget expires.

The observer's satisfaction check reads the *authoritative* user positions
(``agent.resource``), not the resources' load views, and additionally
requires ``in_flight_moves == 0`` so transient inconsistency cannot be
mistaken for convergence.

Fault injection (experiment F13): pass a
:class:`~repro.msgsim.faults.FaultPlan` and the network executes it on
every channel transmission.  Fault decisions draw from a dedicated RNG
stream seeded by ``(plan.seed, run seed)``, so a null plan
(``is_active()`` False) reproduces the reliable execution bit-for-bit —
same delays, same trajectory, same move counts.  Under an
active plan the observer additionally refuses to declare convergence
while any move retransmission is pending, and at quiescence the run is
audited by :func:`~repro.msgsim.faults.certify_message_conservation`;
the verdict and the fault/retry counters are surfaced on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.instance import Instance
from ..core.state import State
from ..obs import HUB as _OBS
from ..sim.rng import make_rng
from .agents import ResourceAgent, UserAgent
from .faults import FaultPlan, certify_message_conservation
from .network import DelayModel, ExponentialDelay, Network

__all__ = ["MessageSimResult", "run_message_sim"]


@dataclass
class MessageSimResult:
    """Outcome of one asynchronous execution."""

    status: str  # "satisfying" | "max_time" | "max_events"
    time: float
    total_messages: int
    message_counts: dict[str, int]
    total_moves: int
    activations: int
    final_state: State
    # -- resilience accounting (zero / empty on reliable executions) --
    #: Query/move retransmissions across all users.
    retries: int = 0
    #: Activations abandoned after exhausting the query retry budget.
    gave_up: int = 0
    #: WAIT_* states force-reset by the tick watchdog.
    watchdog_resets: int = 0
    #: Duplicated/replayed moves rejected by resource-side dedup.
    stale_moves: int = 0
    #: Transport fault counters (``Network.fault_counts``).
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: Load-conservation audit at quiescence: True/False, or None when the
    #: run ended mid-flight (budget expiry with messages still moving).
    conservation_ok: bool | None = None
    conservation_issues: tuple[str, ...] = ()

    @property
    def n_satisfied(self) -> int:
        return self.final_state.n_satisfied

    @property
    def converged(self) -> bool:
        return self.status == "satisfying"


def _snapshot_state(instance: Instance, users: list[UserAgent]) -> State:
    assignment = np.asarray([u.resource for u in users], dtype=np.int64)
    return State(instance, assignment)


def run_message_sim(
    instance: Instance,
    *,
    seed: int = 0,
    migrate_p: float = 0.5,
    delay_model: DelayModel | None = None,
    tick_interval: float = 1.0,
    tick_jitter: float = 0.25,
    max_time: float = 10_000.0,
    max_events: int = 5_000_000,
    initial: str = "random",
    fault_plan: FaultPlan | None = None,
    rto: float | None = None,
    max_retries: int = 3,
) -> MessageSimResult:
    """One asynchronous distributed execution of the sampling protocol.

    Users probe their own resource's load and, when unsatisfied, one
    uniformly sampled resource, migrating with probability ``migrate_p``
    (the paper's dynamic).  ``initial`` is ``"random"`` or ``"pile"``,
    mirroring the engine.  The instance must have complete accessibility
    (users sample resources uniformly).

    ``fault_plan`` makes the transport drop, duplicate and reorder
    messages (see :class:`~repro.msgsim.network.Network`); ``rto`` (default
    ``tick_interval / 2``) and ``max_retries`` tune the agents'
    retransmission layer.  Both are inert while the plan is null or
    absent.
    """
    if instance.access is not None and not instance.access.is_complete():
        raise NotImplementedError("message simulator requires complete accessibility")
    root = make_rng(seed)
    net_seed = root.integers(2**63)
    net_delay = delay_model or ExponentialDelay(mean=tick_interval / 20.0)
    # The fault stream never touches ``root``: same run seed => same
    # delays and same protocol trajectory whenever the plan is null.
    fault_seed = None
    if fault_plan is not None:
        fault_seed = [fault_plan.seed & 0xFFFFFFFF, seed % 2**32, 0x0F417]
    net = Network(
        delay_model=net_delay, seed=net_seed, plan=fault_plan, fault_seed=fault_seed
    )

    if initial == "random":
        positions = root.integers(0, instance.n_resources, size=instance.n_users)
    elif initial == "pile":
        positions = np.zeros(instance.n_users, dtype=np.int64)
    else:
        raise ValueError("initial must be 'random' or 'pile'")

    resources = [
        ResourceAgent(r, instance.latencies[r]) for r in range(instance.n_resources)
    ]
    for agent in resources:
        net.register(agent)
    users = [
        UserAgent(
            u,
            threshold=float(instance.thresholds[u]),
            weight=float(instance.weights[u]),
            initial_resource=int(positions[u]),
            n_resources=instance.n_resources,
            migrate_p=migrate_p,
            tick_interval=tick_interval,
            tick_jitter=tick_jitter,
            rng=np.random.default_rng(root.integers(2**63)),
            rto=rto,
            max_retries=max_retries,
            # Dedicated backoff-jitter stream per user, derived from the run
            # seed but separate from both the protocol and the fault streams.
            retry_rng=np.random.default_rng([seed % 2**32, 0x7E7, u]),
        )
        for u in range(instance.n_users)
    ]
    for agent in users:
        net.register(agent)
        agent.start(net)

    def quiescent(network: Network) -> bool:
        if network.in_flight_moves != 0:
            return False
        if network.lossy and any(u.pending_moves for u in users):
            return False
        return True

    def satisfied(network: Network) -> bool:
        if not quiescent(network):
            return False
        return _snapshot_state(instance, users).is_satisfying()

    with _OBS.span("msgsim.run"):
        reason = net.run(
            max_time=max_time, max_events=max_events, stop_condition=satisfied
        )
    final = _snapshot_state(instance, users)
    status = "satisfying" if (reason == "stopped" or final.is_satisfying()) else (
        "max_time" if reason == "max_time" else "max_events"
    )
    if quiescent(net):
        conservation_ok, issues = certify_message_conservation(resources, users)
    else:
        conservation_ok, issues = None, ["run ended with moves still in flight"]
    if _OBS.active:
        _OBS.count("msgsim.runs")
        _OBS.count("msgsim.messages", net.total_messages)
        _OBS.count("msgsim.moves", sum(u.moves for u in users))
        _OBS.count("msgsim.retries", sum(u.retries for u in users))
        _OBS.count("msgsim.faults", sum(net.fault_counts.values()))
        _OBS.event(
            "msgsim",
            {
                "status": status,
                "time": net.now,
                "n_users": instance.n_users,
                "n_resources": instance.n_resources,
                "messages": net.total_messages,
                "message_counts": dict(net.message_counts),
                "fault_counts": dict(net.fault_counts),
                "conservation_ok": conservation_ok,
                "seed": seed,
            },
        )
    return MessageSimResult(
        status=status,
        time=net.now,
        total_messages=net.total_messages,
        message_counts=dict(net.message_counts),
        total_moves=sum(u.moves for u in users),
        activations=sum(u.activations for u in users),
        final_state=final,
        retries=sum(u.retries for u in users),
        gave_up=sum(u.gave_up for u in users),
        watchdog_resets=sum(u.watchdog_resets for u in users),
        stale_moves=sum(r.stale_moves for r in resources),
        fault_counts=dict(net.fault_counts),
        conservation_ok=conservation_ok,
        conservation_issues=tuple(issues),
    )
