"""Two-phase probe/grant protocol ("permit" protocol).

A coordination-light way to eliminate overshoot entirely: resources, not
users, resolve contention.

    Round structure:

    1. **Probe.**  Every unsatisfied user sends a probe carrying its QoS
       threshold to one accessible resource sampled uniformly at random.
    2. **Grant.**  Each resource ``r`` looks at its probes, sorts them by
       threshold (largest first), and grants the longest prefix ``g`` such
       that admitting those ``g`` users keeps *everyone* relevant
       satisfied:  ``ell_r(x_r + g) <= min(resident_min, q_(g))`` where
       ``resident_min`` is the smallest threshold among ``r``'s currently
       satisfied residents and ``q_(g)`` the ``g``-th largest probing
       threshold.  Granted users migrate; the rest stay.

    Everything a resource needs is local: its own load, its residents'
    thresholds, and the probes it received this round.

The protocol has a monotonicity invariant the sampling protocol lacks
(property-tested in the suite): **the set of satisfied users never
shrinks.**  Grants are sized so that no satisfied resident of the target is
dissatisfied, granted users become satisfied on arrival, and departures
only lower the loads of source resources.  Consequently the number of
satisfied users is non-decreasing and strictly increases whenever any grant
is issued, which yields fast, oscillation-free convergence — at the cost of
one extra communication phase per round (counted in the message-complexity
columns of the tables).

Granting the *largest-threshold* probers first maximises the number of
grants (the group constraint binds at the minimum granted threshold), at
the price of favouring flexible users; low-threshold users are served once
contention clears.  **[reconstruction]** — the grant rule is our design,
motivated by the balls-into-bins literature's two-choice/committee tricks.
"""

from __future__ import annotations

from ..state import State
from .kernels import SampleCommitProtocol

__all__ = ["PermitProtocol"]


class PermitProtocol(SampleCommitProtocol):
    """Probe/grant protocol with resource-side contention resolution.

    The round is the ``"permit"`` kernel of
    :mod:`repro.core.protocols.kernels`: one sort of the probes by
    (target, threshold descending) and segment arithmetic find each
    resource's granted prefix.
    """

    name = "permit"
    kernel = "permit"

    #: Communication rounds per protocol round (probe + grant).
    phases = 2

    def is_quiescent(self, state: State) -> bool:
        """Grants are polite moves, so the protocol is silent exactly at
        polite-stable states."""
        from ..stability import is_stable

        return is_stable(state, polite=True)
