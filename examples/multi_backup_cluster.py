#!/usr/bin/env python
"""Multiple backups (the paper's future-work item, implemented).

A telemetry service replicates to a chain of three backups.  We kill the
primary, then kill its successor, and watch leadership walk down the
succession line while clients keep writing and every surviving backup keeps
applying updates.

Run:  python examples/multi_backup_cluster.py
"""

from repro import ms, to_ms
from repro.baselines import MultiBackupServer
from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS, RTPBService
from repro.faults import FaultInjector, FaultSchedule
from repro.workload.generator import homogeneous_specs

HORIZON = 25.0


def main() -> None:
    service = RTPBService(server_class=MultiBackupServer, n_backups=3,
                          seed=13)
    specs = homogeneous_specs(4, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()

    # Kill the original primary, then the original first backup: fabric
    # addresses name the machines, whatever role they hold by then.
    FaultInjector(service, FaultSchedule()
                  .crash(6.0, PRIMARY_ADDRESS)
                  .crash(14.0, BACKUP_ADDRESS)).arm()
    service.run(HORIZON)

    print("failover history:")
    for record in service.trace.select("failover"):
        print(f"  t={record.time:6.2f}s  {record['new_primary']} took over")
    for record in service.trace.select("reattached"):
        print(f"  t={record.time:6.2f}s  {record['server']} re-attached to "
              f"address {record['primary']}")

    final = service.current_primary()
    print(f"\nfinal primary: {final.host.name}")
    print(f"surviving backups: "
          f"{[backup.host.name for backup in service.current_backups()]}")

    writes = service.trace.select("client_response")
    final_window = [record for record in writes
                    if record["issue"] > 16.0]
    print(f"writes answered after the second failover: {len(final_window)}")

    for backup in service.current_backups():
        freshest = max(backup.store.get(spec.object_id).seq
                       for spec in specs)
        print(f"{backup.host.name}: freshest version seq {freshest}")


if __name__ == "__main__":
    main()
