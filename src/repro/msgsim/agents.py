"""User and resource agents implementing the sampling protocol over messages.

The agents realise :class:`~repro.core.protocols.sampling.QoSSamplingProtocol`
with *no shared state*: a resource agent knows only its own latency
function and the join/leave traffic it has received; a user agent knows its
own threshold, weight, current resource id, and whatever the last replies
told it.  The round-based engine's state arrays are a global view that
simply does not exist here — agreement between the two executions
(experiment T3) is therefore meaningful evidence that the fast engine
simulates the distributed protocol faithfully.

User state machine (one activation per self-scheduled tick):

    IDLE --tick--> query own resource (probe=False) --reply-->
        satisfied?   -> IDLE (next tick)
        unsatisfied? -> query one uniformly sampled resource (probe=True)
            --reply--> quoted latency <= threshold and coin(p):
                           Leave(old), Join(new), adopt new -> IDLE
                       else -> IDLE

Stale information is handled the way real systems do: replies quote the
resource index, and a user acts on the quote it has even if the load has
moved on — overshoot from simultaneous arrivals is possible, exactly as in
the concurrent round model.

Resilience (the self-healing layer, experiment F13): when the transport
admits it is ``lossy`` (a :class:`~repro.msgsim.network.Network` with an
active :class:`~repro.msgsim.faults.FaultPlan`), the same agents switch on
a hardening layer —

- every query carries a fresh ``req_id``; replies that do not match the
  outstanding request are rejected exactly (no stale/duplicate confusion);
- outstanding queries are guarded by a retransmission timer with
  exponential backoff and jitter; after ``max_retries`` the activation is
  abandoned and the user returns to ``IDLE`` (the next tick starts fresh),
  so no user can deadlock waiting for a lost reply;
- Join/Leave moves carry a per-user monotone ``seq``; resources
  deduplicate replayed moves through a resident *set* and acknowledge
  with :class:`~repro.msgsim.messages.MoveAck`; unacknowledged moves are
  retransmitted (capped backoff, never abandoned — moves carry state, so
  at-least-once plus idempotence gives exactly-once effect);
- a tick-driven watchdog force-resets any ``WAIT_*`` state stuck longer
  than the whole retransmission budget — the last-ditch liveness backstop.

On a reliable network (``lossy`` False) none of this machinery runs — no
acks, no timers, no extra RNG draws — so the execution is bit-for-bit the
original protocol.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.latency import LatencyFunction
from .messages import Join, Leave, LoadQuery, LoadReply, Message, MoveAck, RetryTimer, Tick
from .network import Network

__all__ = ["ResourceAgent", "UserAgent", "user_id", "resource_id"]


def user_id(u: int) -> str:
    return f"user:{u}"


def resource_id(r: int) -> str:
    return f"res:{r}"


class ResourceAgent:
    """Tracks its own congestion; answers load queries; applies joins/leaves.

    Alongside the incremental ``load`` scalar, the agent keeps its
    resident *set* (``residents``: user id -> weight).  On a reliable
    network joins/leaves are applied unconditionally (the original
    semantics, asserted never to underflow); on a lossy network they are
    deduplicated by per-user sequence number and applied through the
    resident set — a replayed Join cannot double-count and a replayed
    Leave cannot underflow — and every move is acknowledged so the sender
    can stop retransmitting.
    """

    def __init__(self, index: int, latency: LatencyFunction, initial_load: float = 0.0):
        self.index = int(index)
        self.agent_id = resource_id(index)
        self.latency = latency
        self.load = float(initial_load)
        #: Resident record: user id -> weight (authoritative under faults).
        self.residents: dict[str, float] = {}
        #: Highest move seq applied per user (lossy-mode dedup).
        self._last_seq: dict[str, int] = {}
        #: Duplicated/replayed moves rejected by the dedup layer.
        self.stale_moves = 0

    def handle(self, msg: Message, network: Network) -> None:
        if isinstance(msg, LoadQuery):
            at = self.load + (msg.weight if msg.probe else 0.0)
            network.send(
                msg.sender,
                LoadReply(
                    sender=self.agent_id,
                    resource=self.index,
                    load=self.load,
                    latency=float(self.latency(at)),
                    probe=msg.probe,
                    req_id=msg.req_id,
                ),
            )
        elif isinstance(msg, Join):
            if network.lossy:
                self._apply_move(msg, network, joining=True)
            else:
                self.load += msg.weight
                self.residents[msg.sender] = msg.weight
        elif isinstance(msg, Leave):
            if network.lossy:
                self._apply_move(msg, network, joining=False)
            else:
                self.load -= msg.weight
                self.residents.pop(msg.sender, None)
                if self.load < -1e-9:
                    raise AssertionError(
                        f"resource {self.index} got a Leave below zero load"
                    )
        else:
            raise TypeError(f"resource agent cannot handle {type(msg).__name__}")

    def _apply_move(self, msg: Join | Leave, network: Network, *, joining: bool) -> None:
        """Idempotent join/leave: seq-deduplicated, set-based, acknowledged."""
        if msg.seq <= self._last_seq.get(msg.sender, 0):
            self.stale_moves += 1  # duplicate or overtaken replay
        else:
            self._last_seq[msg.sender] = msg.seq
            if joining:
                if msg.sender not in self.residents:
                    self.residents[msg.sender] = msg.weight
                    self.load += msg.weight
            else:
                weight = self.residents.pop(msg.sender, None)
                if weight is not None:
                    self.load -= weight
        # Ack even stale moves: a later move superseded them, so the
        # sender must stop retransmitting either way.
        network.send(msg.sender, MoveAck(self.agent_id, resource=self.index, seq=msg.seq))


class UserAgent:
    """One QoS user running the sampling protocol.

    Alongside the protocol logic the agent carries its self-healing
    machinery: tick scheduling, reliable move dispatch, query
    retransmission bookkeeping and the watchdog.  All resilience state
    only ever changes on a lossy network; backoff jitter draws from a
    dedicated ``retry_rng`` so the protocol RNG stream (and hence the
    fault-free trajectory) is untouched.
    """

    IDLE = "idle"
    WAIT_OWN = "wait-own"
    WAIT_TARGET = "wait-target"

    def __init__(
        self,
        index: int,
        threshold: float,
        weight: float,
        initial_resource: int,
        n_resources: int,
        *,
        migrate_p: float = 0.5,
        tick_interval: float = 1.0,
        tick_jitter: float = 0.1,
        rng: np.random.Generator,
        rto: float | None = None,
        max_retries: int = 3,
        retry_rng: np.random.Generator | None = None,
    ):
        self.index = int(index)
        self.agent_id = user_id(index)
        self.threshold = float(threshold)
        self.weight = float(weight)
        self.resource = int(initial_resource)
        self.n_resources = int(n_resources)
        self.migrate_p = float(migrate_p)
        self.tick_interval = float(tick_interval)
        self.tick_jitter = float(tick_jitter)
        self.rng = rng
        self.state = self.IDLE
        self.moves = 0
        #: Monotone per-user activation counter (diagnostics).
        self.activations = 0
        # Resource the outstanding query asks, and whether it is a probe.
        self._probe = False
        self._target = self.resource
        # -- resilience knobs and state (inert on a reliable network) --
        #: Base retransmission timeout (time units); doubles per attempt.
        self.rto = float(rto) if rto is not None else 0.5 * self.tick_interval
        self.max_retries = int(max_retries)
        self.retry_rng = (
            retry_rng
            if retry_rng is not None
            else np.random.default_rng(0x5EED ^ (index + 1))
        )
        #: Simulation time the current state was entered (watchdog input).
        self.state_since = 0.0
        self._req_counter = itertools.count(1)
        self._req_id = 0  # outstanding query id; 0 = none
        self._req_attempts = 0
        self._move_seq = itertools.count(1)
        #: Unacknowledged moves: seq -> (destination, message).
        self.pending_moves: dict[int, tuple[str, Message]] = {}
        self._move_attempts: dict[int, int] = {}
        # -- resilience counters (surfaced through the runner) --
        self.retries = 0
        self.gave_up = 0
        self.watchdog_resets = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self, network: Network) -> None:
        """Announce the initial position and schedule the first tick."""
        self._dispatch_move(
            network,
            resource_id(self.resource),
            Join(self.agent_id, self.weight, seq=next(self._move_seq)),
        )
        self._schedule_tick(network)

    def _schedule_tick(self, network: Network) -> None:
        jitter = float(self.rng.uniform(-self.tick_jitter, self.tick_jitter))
        delay = max(1e-6, self.tick_interval + jitter)
        network.schedule_timer(self.agent_id, delay, Tick(self.agent_id))

    # -- protocol ----------------------------------------------------------------

    def handle(self, msg: Message, network: Network) -> None:
        if isinstance(msg, Tick):
            if not self._tick_gate(network):
                return
            self._enter(self.WAIT_OWN, network)
            self._probe = False
            self._target = self.resource
            self._req_attempts = 0
            self._send_query(network)
        elif isinstance(msg, LoadReply):
            self._on_reply(msg, network)
        elif isinstance(msg, MoveAck):
            self._handle_move_ack(msg)
        elif isinstance(msg, RetryTimer):
            self._handle_retry(msg, network)
        else:
            raise TypeError(f"user agent cannot handle {type(msg).__name__}")

    def _send_query(self, network: Network) -> None:
        self._req_id = next(self._req_counter)
        network.send(
            resource_id(self._target),
            LoadQuery(
                self.agent_id, weight=self.weight, probe=self._probe, req_id=self._req_id
            ),
        )
        if network.lossy:
            self._arm_query_timer(network)

    def _on_reply(self, msg: LoadReply, network: Network) -> None:
        if self.state == self.IDLE:
            return  # late duplicate of an already-settled conversation
        expected = (self.state == self.WAIT_OWN and not msg.probe) or (
            self.state == self.WAIT_TARGET and msg.probe
        )
        # Exact matching: only the reply to the outstanding request counts;
        # anything else is a duplicate or a replay.  Liveness is the
        # retransmission timer's job, not this path's.
        if not expected or msg.req_id != self._req_id:
            return
        self._req_id = 0
        if not msg.probe:
            self._on_own_reply(msg, network)
        else:
            self._on_probe_reply(msg, network)

    def _on_own_reply(self, msg: LoadReply, network: Network) -> None:
        if msg.latency <= self.threshold:
            self._reset(network)
            return
        target = int(self.rng.integers(0, self.n_resources))
        if target == self.resource:
            self._reset(network)  # wasted probe, as in the round model
            return
        self._enter(self.WAIT_TARGET, network)
        self._probe = True
        self._target = target
        self._req_attempts = 0
        self._send_query(network)

    def _on_probe_reply(self, msg: LoadReply, network: Network) -> None:
        self._reset(network)
        if msg.resource == self.resource:
            return
        if msg.latency <= self.threshold and self.rng.random() < self.migrate_p:
            self._dispatch_move(
                network,
                resource_id(self.resource),
                Leave(self.agent_id, self.weight, seq=next(self._move_seq)),
            )
            self.resource = msg.resource
            self._dispatch_move(
                network,
                resource_id(self.resource),
                Join(self.agent_id, self.weight, seq=next(self._move_seq)),
            )
            self.moves += 1

    # -- resilience plumbing ------------------------------------------------------

    def _reset(self, network: Network) -> None:
        """Terminate the current activation; the next tick starts fresh."""
        self.state = self.IDLE
        self.state_since = network.now
        self._req_id = 0

    def _enter(self, state: str, network: Network) -> None:
        self.state = state
        self.state_since = network.now

    def _jitter(self) -> float:
        return float(self.retry_rng.uniform(0.9, 1.3))

    def _query_backoff(self) -> float:
        return self.rto * (2.0 ** self._req_attempts) * self._jitter()

    def _move_backoff(self, seq: int) -> float:
        attempts = self._move_attempts.get(seq, 0)
        return min(self.rto * (2.0 ** attempts), 8.0 * self.rto) * self._jitter()

    def _stuck_bound(self) -> float:
        """Time after which a WAIT_* state is declared dead (watchdog)."""
        return self.rto * (2.0 ** (self.max_retries + 2))

    def _arm_query_timer(self, network: Network) -> None:
        network.schedule_timer(
            self.agent_id,
            self._query_backoff(),
            RetryTimer(self.agent_id, kind="query", token=self._req_id),
        )

    def _dispatch_move(self, network: Network, dst: str, msg: Message) -> None:
        """Send a Join/Leave, reliably when the network is lossy."""
        network.send(dst, msg)
        if network.lossy:
            seq = msg.seq
            self.pending_moves[seq] = (dst, msg)
            self._move_attempts[seq] = 0
            network.schedule_timer(
                self.agent_id,
                self._move_backoff(seq),
                RetryTimer(self.agent_id, kind="move", token=seq),
            )

    def _handle_move_ack(self, msg: MoveAck) -> None:
        self.pending_moves.pop(msg.seq, None)
        self._move_attempts.pop(msg.seq, None)

    def _handle_retry(self, msg: RetryTimer, network: Network) -> None:
        if msg.kind == "query":
            if self._req_id != msg.token or self.state == self.IDLE:
                return  # answered, superseded, or already reset
            if self._req_attempts >= self.max_retries:
                self.gave_up += 1
                self._reset(network)
                return
            self._req_attempts += 1
            self.retries += 1
            self._send_query(network)
        else:  # "move"
            pending = self.pending_moves.get(msg.token)
            if pending is None:
                return  # acknowledged in the meantime
            dst, move = pending
            self._move_attempts[msg.token] = self._move_attempts.get(msg.token, 0) + 1
            self.retries += 1
            network.send(dst, move)
            network.schedule_timer(
                self.agent_id,
                self._move_backoff(msg.token),
                RetryTimer(self.agent_id, kind="move", token=msg.token),
            )

    def _tick_gate(self, network: Network) -> bool:
        """Tick prologue; True when a new activation may start.

        Re-arms the tick chain; while a previous activation is still
        outstanding the tick is skipped (no pipelining), except that on a
        lossy network a state stuck past the whole retransmission budget
        is force-reset by the watchdog — the next tick then starts fresh.
        """
        self._schedule_tick(network)
        if self.state != self.IDLE:
            if network.lossy and network.now - self.state_since > self._stuck_bound():
                self.watchdog_resets += 1
                self._reset(network)
            return False
        self.activations += 1
        return True
