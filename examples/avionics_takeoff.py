#!/usr/bin/env python
"""Avionics take-off: inter-object temporal consistency plus failover.

The paper's motivating example (Section 3): during take-off, the
*acceleration* and *altitude* readings are related — the runway is finite,
so the time between accelerating and lifting off is bounded.  The replicated
state serving the cockpit must therefore keep the two images mutually fresh:
``|T_alt(t) - T_accel(t)| ≤ δ_ij``.

This example registers the two objects, admits an inter-object constraint of
80 ms between them, crashes the primary mid-run, and then *audits the whole
timeline* with the inter-object checker — including across the failover.

Run:  python examples/avionics_takeoff.py
"""

from repro import (
    InterObjectConstraint,
    ObjectSpec,
    RTPBService,
    ms,
    to_ms,
)
from repro.consistency import InterObjectConsistencyChecker
from repro.core.service import PRIMARY_ADDRESS
from repro.faults import FaultInjector, FaultSchedule
from repro.metrics import failover_latency

HORIZON = 20.0
CRASH_AT = 8.0
DELTA_IJ = ms(80.0)

ACCEL = ObjectSpec(object_id=0, name="acceleration", size_bytes=32,
                   client_period=ms(20.0), delta_primary=ms(40.0),
                   delta_backup=ms(150.0))
ALTITUDE = ObjectSpec(object_id=1, name="altitude", size_bytes=32,
                      client_period=ms(20.0), delta_primary=ms(40.0),
                      delta_backup=ms(150.0))


def main() -> None:
    service = RTPBService(seed=7, n_spares=1)
    for spec in (ACCEL, ALTITUDE):
        decision = service.register(spec)
        print(f"register {spec.name:12s}: accepted={decision.accepted} "
              f"(update period "
              f"{to_ms(decision.update_period or 0):.1f} ms)")

    decision = service.add_constraint(
        InterObjectConstraint(ACCEL.object_id, ALTITUDE.object_id, DELTA_IJ))
    print(f"inter-object constraint δ_ij={to_ms(DELTA_IJ):.0f} ms: "
          f"accepted={decision.accepted}")

    service.create_client(service.registered_specs())
    service.start()
    FaultInjector(service,
                  FaultSchedule().crash(CRASH_AT, PRIMARY_ADDRESS)).arm()
    service.run(HORIZON)

    latency = failover_latency(service)
    print(f"\nprimary crashed at t={CRASH_AT:.1f}s; "
          f"failover took {to_ms(latency):.0f} ms")
    survivor = service.current_primary()
    print(f"service now primary on '{survivor.host.name}', "
          f"new backup: "
          f"{service.current_backup().host.name if service.current_backup() else 'none'}")

    # Audit |T_i(t) - T_j(t)| <= delta_ij on the surviving primary's history.
    checker = InterObjectConsistencyChecker(DELTA_IJ)
    history_i = survivor.store.get(ACCEL.object_id).history
    history_j = survivor.store.get(ALTITUDE.object_id).history
    # Skip warm-up and the detection gap around the crash (the paper treats
    # the failover window as unavailable, not inconsistent).
    audit_windows = [(2.0, CRASH_AT),
                     (CRASH_AT + latency + 1.0, HORIZON - 0.5)]
    for start, end in audit_windows:
        worst = checker.max_divergence(history_i, history_j, start, end)
        violations = checker.check(history_i, history_j, start, end)
        print(f"audit [{start:5.1f}s, {end:5.1f}s): "
              f"max |T_alt - T_accel| = {to_ms(worst):.1f} ms, "
              f"violations: {len(violations)}")


if __name__ == "__main__":
    main()
