#!/usr/bin/env python
"""Quickstart: a primary/backup pair replicating eight sensor objects.

Builds the paper's deployment — a primary and a backup on a LAN with a
bounded delay, a sensing client co-located with the primary — registers
eight objects with a 200 ms primary/backup consistency window, runs 20
virtual seconds under 2% message loss, and prints the paper's three
performability metrics.

Run:  python examples/quickstart.py
"""

from repro import RTPBService, Scenario, build_scenario, ms, to_ms
from repro.metrics import backup_external_violations, collect_metrics

HORIZON = 20.0


def main() -> None:
    scenario = Scenario(
        n_objects=8,
        window=ms(200.0),          # δ = δ^B - δ^P
        client_period=ms(100.0),   # p_i: the client writes 10 times a second
        loss_probability=0.02,     # 2% of update messages vanish
        horizon=HORIZON,
        seed=42,
    )
    service = build_scenario(scenario)
    service.run(HORIZON)

    metrics = collect_metrics(service, HORIZON, warmup=2.0)
    response = metrics.response
    print("RTPB quickstart")
    print(f"  objects admitted        : {metrics.admitted}")
    print(f"  client writes handled   : {service.current_primary().writes_handled}")
    print(f"  updates sent to backup  : "
          f"{service.current_primary().transmitter.updates_sent}")
    print(f"  updates applied         : {service.current_backup().updates_applied}")
    print(f"  mean response time      : {to_ms(response.mean):.3f} ms "
          f"(p95 {to_ms(response.p95):.3f} ms)")
    print(f"  avg max P/B distance    : "
          f"{to_ms(metrics.avg_max_distance):.1f} ms")
    print(f"  avg inconsistency burst : "
          f"{to_ms(metrics.avg_inconsistency):.1f} ms")

    violations = backup_external_violations(service, 2.0, HORIZON - 1.0)
    total = sum(len(per_object) for per_object in violations.values())
    print(f"  δ^B violations at backup: {total}")


if __name__ == "__main__":
    main()
