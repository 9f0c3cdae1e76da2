"""Overload scenario: QoS protection vs fair balancing (congestion collapse).

Demand exceeds QoS capacity by 50%: n = 1.5 * m * q users, each needing a
congestion of at most q.  At most OPT_sat = (m-1) * q users can be
satisfied simultaneously (one resource must absorb the surplus).

Two philosophies compete:

- **fair balancing** (`SelfishRebalanceProtocol`): spread the load evenly.
  Every resource ends at ~1.5q > q, so *nobody* meets its QoS — the
  classic congestion collapse of fair-share systems under overload.
- **QoS-aware dynamics** (`PermitProtocol`, `QoSSamplingProtocol`): fill
  resources up to their QoS capacity, then stop admitting.  The permit
  protocol protects exactly OPT_sat users; damped sampling gets close
  (overshoot costs some seats).

The comparison is also the cleanest demonstration that *balanced* and
*satisfying* are different objectives: minimizing the maximum latency is
optimal only when everyone shares one threshold **and** demand fits.

Run:  python examples/overload_admission.py
"""

from __future__ import annotations

import numpy as np

import repro


def main() -> None:
    m, q = 32, 16
    n = int(1.5 * m * q)  # 768 users on 512 QoS slots
    inst = repro.workloads.overloaded(n, m, float(q))
    opt = repro.max_satisfied(inst)
    print(
        f"{n} users, {m} resources, threshold {q}: capacity {m * q} "
        f"< demand {n}"
    )
    print(f"OPT_sat (exact) = {opt.n_satisfied}  [= (m-1)*q = {(m - 1) * q}]")

    print(f"\n{'protocol':34s} {'satisfied':>9s} {'% of OPT':>9s} {'status':>11s}")
    for protocol in (
        repro.PermitProtocol(),
        repro.QoSSamplingProtocol(),
        repro.SelfishRebalanceProtocol(),
    ):
        result = repro.run(
            inst, protocol, seed=5, initial="pile", max_rounds=20_000,
            keep_state=True,
        )
        pct = 100.0 * result.n_satisfied / opt.n_satisfied
        print(
            f"{protocol.name:34s} {result.n_satisfied:9d} {pct:8.1f}% "
            f"{result.status:>11s}"
        )

    # Show what balancing actually does to the load profile.
    balanced = repro.run(
        inst, repro.SelfishRebalanceProtocol(), seed=5, initial="pile",
        max_rounds=20_000, keep_state=True,
    ).final_state
    protected = repro.run(
        inst, repro.PermitProtocol(), seed=5, initial="pile",
        max_rounds=20_000, keep_state=True,
    ).final_state
    print(
        f"\nload profile under balancing: min={int(balanced.loads.min())} "
        f"max={int(balanced.loads.max())} (threshold {q}: everyone over)"
    )
    at_cap = int(np.count_nonzero(protected.loads == q))
    print(
        f"load profile under permits:   {at_cap} resources pinned at "
        f"exactly q={q}, surplus parked on the rest"
    )


if __name__ == "__main__":
    main()
