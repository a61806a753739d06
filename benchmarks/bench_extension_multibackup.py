"""Extension bench: replication cost and availability vs number of backups.

The paper's future-work item, quantified: fan-out to k backups multiplies
fabric traffic ~linearly while client response time stays flat (replication
is decoupled from the write path), and the service survives k-1 successive
primary failures.
"""

from repro.core.service import RTPBService
from repro.extensions.multibackup import MultiBackupServer
from repro.metrics.collectors import response_time_stats
from repro.metrics.report import Table
from repro.units import ms, to_ms
from repro.workload.generator import homogeneous_specs

HORIZON = 10.0
BACKUP_COUNTS = (1, 2, 3, 4)


def run_once(n_backups):
    service = RTPBService(server_class=MultiBackupServer,
                          n_backups=n_backups, seed=11)
    specs = homogeneous_specs(4, window=ms(200.0), client_period=ms(100.0))
    service.register_all(specs)
    service.create_client(specs)
    service.run(HORIZON)
    response = response_time_stats(service, 2.0).mean
    behind = max(
        abs(a.store.get(spec.object_id).seq - b.store.get(spec.object_id).seq)
        for spec in specs
        for a in service.backup_servers for b in service.backup_servers)
    return service.fabric.messages_sent, response, behind


def run_sweep():
    table = Table("Multi-backup extension: cost vs fan-out",
                  ["backups", "fabric msgs", "mean response (ms)",
                   "max inter-backup version skew"])
    rows = []
    for count in BACKUP_COUNTS:
        messages, response, skew = run_once(count)
        table.add_row(count, messages, to_ms(response), skew)
        rows.append((count, messages, response, skew))
    return table, rows


def test_multibackup_scaling(benchmark, record_table):
    table, rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    record_table("extension_multibackup", table.render())
    by_count = {count: (messages, response, skew)
                for count, messages, response, skew in rows}
    # Fabric traffic grows roughly linearly with fan-out.
    assert by_count[4][0] > 2.5 * by_count[1][0]
    # Response time does not (replication is off the write path).
    assert by_count[4][1] < 3 * by_count[1][1] + ms(1.0)
    # Backups stay close to each other.
    assert by_count[4][2] <= 4
