#!/usr/bin/env python
"""Patient life-support monitoring under a lossy network.

Replicates a bedside monitor's vitals with *heterogeneous* QoS: ECG needs a
tight window, temperature tolerates a loose one.  The network loses 8% of
update messages; the example shows the two mechanisms the paper uses to
cope — the built-in transmission slack (sending at ``(δ-ℓ)/2``, i.e. twice
as often as strictly necessary) and backup-initiated retransmission — and
reports per-object staleness at the backup.

Run:  python examples/patient_monitoring.py
"""

from repro import ObjectSpec, RTPBService, ms, to_ms
from repro.metrics import (
    backup_external_violations,
    collect_metrics,
    max_distance_per_object,
)
from repro.net.link import BernoulliLoss

HORIZON = 30.0

VITALS = [
    ObjectSpec(0, "ecg-waveform", size_bytes=512, client_period=ms(25.0),
               delta_primary=ms(25.0), delta_backup=ms(125.0)),
    ObjectSpec(1, "heart-rate", size_bytes=16, client_period=ms(100.0),
               delta_primary=ms(100.0), delta_backup=ms(300.0)),
    ObjectSpec(2, "blood-pressure", size_bytes=32, client_period=ms(200.0),
               delta_primary=ms(200.0), delta_backup=ms(600.0)),
    ObjectSpec(3, "spo2", size_bytes=16, client_period=ms(100.0),
               delta_primary=ms(100.0), delta_backup=ms(400.0)),
    ObjectSpec(4, "temperature", size_bytes=16, client_period=ms(500.0),
               delta_primary=ms(500.0), delta_backup=ms(1500.0)),
]


def main() -> None:
    service = RTPBService(seed=11, loss_model=BernoulliLoss(0.08))
    decisions = service.register_all(VITALS)
    for spec, decision in zip(VITALS, decisions):
        print(f"register {spec.name:15s}: accepted={decision.accepted} "
              f"window={to_ms(spec.window):6.0f} ms  "
              f"tx period={to_ms(decision.update_period or 0):6.1f} ms")

    service.create_client(service.registered_specs())
    service.run(HORIZON)

    primary = service.current_primary()
    backup = service.current_backup()
    print(f"\n8% message loss; delivery rate observed: "
          f"{collect_metrics(service, HORIZON).delivery_rate:.3f}")
    print(f"retransmission requests from backup: {backup.retx_requests_sent} "
          f"(served: {primary.retx_requests_served})")

    distances = max_distance_per_object(service, HORIZON, start=2.0)
    violations = backup_external_violations(service, 2.0, HORIZON - 1.0)
    print("\nper-vital backup health:")
    by_id = {spec.object_id: spec for spec in VITALS}
    for object_id, distance in sorted(distances.items()):
        spec = by_id[object_id]
        print(f"  {spec.name:15s} max P/B distance {to_ms(distance):7.1f} ms "
              f"(window {to_ms(spec.window):6.0f} ms)  "
              f"δ^B violations: {len(violations.get(object_id, []))}")


if __name__ == "__main__":
    main()
