#!/usr/bin/env python
"""Replication showdown: RTPB vs the classical alternatives.

Runs the same sensor workload (six objects, fast writers) under five
replication disciplines and prints the trade-off table the paper's
introduction argues from:

- **active** (state-machine): atomic ordered delivery, response waits for
  group agreement — tight consistency, slow responses.
- **eager** (synchronous passive): response waits for the backup's ack.
- **window-consistent** (Mehra et al.): asynchronous, but one transmission
  per client write.
- **RTPB**: decoupled periodic transmission sized by the consistency window
  — fast responses and bounded transmission load, at the price of bounded
  (not zero) staleness.

Run:  python examples/replication_showdown.py
"""

from repro import ms, to_ms
from repro.baselines import DISCIPLINES
from repro.core.service import RTPBService
from repro.metrics import Table, collect_metrics
from repro.workload.generator import homogeneous_specs

HORIZON = 10.0

#: Table label -> discipline name (a key of ``DISCIPLINES``; the same names
#: ``Scenario.replication`` takes).
SYSTEMS = [
    ("active (state machine)", "active"),
    ("semi-active (hybrid)", "semi_active"),
    ("eager (sync passive)", "eager"),
    ("window-consistent", "window_consistent"),
    ("RTPB", "rtpb"),
]


def main() -> None:
    table = Table(
        "Six objects, 20 ms writers, 200 ms window, 10 virtual seconds",
        ["system", "mean resp (ms)", "p95 resp (ms)", "msgs on fabric"])
    for label, name in SYSTEMS:
        service = RTPBService(server_class=DISCIPLINES[name], seed=21)
        specs = homogeneous_specs(6, window=ms(200), client_period=ms(20))
        service.register_all(specs)
        service.create_client(specs)
        service.run(HORIZON)
        stats = collect_metrics(service, HORIZON, warmup=2.0).response
        table.add_row(label, to_ms(stats.mean), to_ms(stats.p95),
                      service.fabric.messages_sent)
    print(table.render())
    print("\nRTPB's bet: if the application tolerates a bounded consistency "
          "window,\nyou get the response time of the asynchronous schemes "
          "with transmission load\nset by the window, not the write rate.")


if __name__ == "__main__":
    main()
