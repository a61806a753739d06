"""Online invariant monitor: catches violations as they happen.

The deliberate-violation tests are the chaos layer's negative controls: a
fault pattern engineered to break a specific invariant must produce exactly
that violation kind, online, at a sensible virtual time.
"""

import ast
import inspect
import textwrap

import pytest

from repro.cluster.monitor import ClusterInvariantMonitor
from repro.core.service import (
    BACKUP_ADDRESS,
    PRIMARY_ADDRESS,
    RTPBService,
)
from repro.core.spec import ServiceConfig
from repro.elastic.migration import MigrationWindowInvariant
from repro.faults import monitor as monitor_module
from repro.faults.injector import FaultInjector
from repro.faults.monitor import (
    MISSED_FAILOVER,
    SPLIT_BRAIN,
    TEMPORAL_WINDOW,
    InvariantMonitor,
)
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.cluster import ClusterScenario, build_cluster
from repro.workload.generator import homogeneous_specs


def make_service(seed=5, n_spares=0, **config_overrides):
    service = RTPBService(seed=seed, n_spares=n_spares,
                          config=ServiceConfig(**config_overrides))
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    return service


def run_monitored(service, schedule, horizon, **monitor_kwargs):
    injector = FaultInjector(service, schedule)
    injector.arm()
    monitor = InvariantMonitor(service, **monitor_kwargs)
    monitor.attach()
    service.run(horizon)
    return monitor


def test_healthy_run_has_no_violations():
    service = make_service()
    monitor = InvariantMonitor(service)
    monitor.attach()
    service.run(10.0)
    assert monitor.violations == []


def test_monitor_sees_records_despite_storage_filter():
    """The storage filter must not blind the online monitor."""
    service = make_service(failover_enabled=False)
    service.trace.enable_only("client_response")  # store almost nothing
    schedule = FaultSchedule().partition(2.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
    monitor = run_monitored(service, schedule, 6.0)
    assert monitor.violation_counts().get(TEMPORAL_WINDOW, 0) >= 1


def test_deliberate_temporal_window_violation_is_caught():
    """Negative control: cut the replication link with failover disabled.

    The backup stays alive but receives nothing, so every primary write
    eventually breaks W_B(t) >= W_P(t - delta_i); the monitor must flag it
    online, shortly after the partition (write window + grace), and trace
    the detection.
    """
    service = make_service(failover_enabled=False)
    schedule = FaultSchedule().partition(3.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
    monitor = run_monitored(service, schedule, 8.0)
    window_violations = [violation for violation in monitor.violations
                         if violation.kind == TEMPORAL_WINDOW]
    assert window_violations, "monitor missed the deliberate violation"
    first = window_violations[0]
    assert 3.0 < first.time < 3.0 + 1.0
    assert first.details["object"] in (0, 1, 2)
    assert first.details["lateness"] > 0
    assert service.trace.select("invariant_violation", kind=TEMPORAL_WINDOW)


def test_split_brain_detected_under_partition():
    """With failover on, a partition makes the backup promote while the old
    primary still runs: two live primaries, flagged online."""
    service = make_service()
    schedule = FaultSchedule().partition(3.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
    monitor = run_monitored(service, schedule, 10.0)
    split = [violation for violation in monitor.violations
             if violation.kind == SPLIT_BRAIN]
    assert len(split) == 1  # flagged once, not on every subsequent event
    assert sorted(split[0].details["primaries"]) == ["backup", "primary"]
    assert split[0].time > 3.0


def test_missed_failover_deadline_detected():
    """A deaf backup (heartbeat stopped) never promotes after the primary
    crash; the monitor flags the blown deadline."""
    service = make_service()
    service.run(2.0)
    service.backup_server.ping.stop()  # backup goes deaf, stays alive
    service.injector.crash_at(3.0, service.primary_server)
    monitor = InvariantMonitor(service)
    monitor.attach()
    service.run(10.0)
    missed = [violation for violation in monitor.violations
              if violation.kind == MISSED_FAILOVER]
    assert len(missed) == 1
    deadline = (3.0 + service.config.failure_detection_latency()
                + monitor.failover_margin)
    assert missed[0].time == pytest.approx(deadline, abs=ms(1))
    assert missed[0].details["backup"] == "backup"


def test_clean_failover_is_not_flagged():
    service = make_service(n_spares=1)
    schedule = FaultSchedule().crash(3.0, "primary")
    monitor = run_monitored(service, schedule, 12.0)
    assert monitor.violation_counts().get(MISSED_FAILOVER, 0) == 0
    assert monitor.violation_counts().get(SPLIT_BRAIN, 0) == 0


def test_window_invariant_vacuous_without_backup():
    """After the backup dies (no spares) there is nobody to be consistent
    with: pending writes must not be flagged."""
    service = make_service()
    schedule = FaultSchedule().crash(3.0, "backup")
    monitor = run_monitored(service, schedule, 10.0)
    assert monitor.violation_counts().get(TEMPORAL_WINDOW, 0) == 0


def test_on_violation_callback_fires_at_detection_time():
    service = make_service(failover_enabled=False)
    detected = []
    schedule = FaultSchedule().partition(3.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
    monitor = run_monitored(
        service, schedule, 8.0,
        on_violation=lambda violation: detected.append(violation))
    assert detected == monitor.violations
    assert detected[0].time < 8.0  # seen during the run, not after


def test_detach_stops_observation():
    service = make_service(failover_enabled=False)
    injector = FaultInjector(
        service,
        FaultSchedule().partition(3.0, PRIMARY_ADDRESS, BACKUP_ADDRESS))
    injector.arm()
    monitor = InvariantMonitor(service)
    monitor.attach()
    monitor.detach()
    service.run(8.0)
    assert monitor.violations == []


def test_violation_to_dict_round_trips_details():
    service = make_service(failover_enabled=False)
    schedule = FaultSchedule().partition(3.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
    monitor = run_monitored(service, schedule, 8.0)
    as_dict = monitor.violations[0].to_dict()
    assert as_dict["kind"] == TEMPORAL_WINDOW
    assert as_dict["time"] == monitor.violations[0].time
    assert "object" in as_dict


def _stale_read(cluster):
    cluster.trace.record("read_served", service=cluster.groups[0].name,
                         object=0, server="replica", staleness=1.0,
                         bound=0.5)


def _unbarriered_commit(cluster):
    source, dest = cluster.groups
    ids = str(source.registered_specs()[0].object_id)
    for category in ("migration_freeze", "migration_commit"):
        cluster.trace.record(category, source=source.name, dest=dest.name,
                             ids=ids)


#: Each monitor class with a record sequence that makes it emit one finding.
MONITORS = {
    "group": (lambda cluster: InvariantMonitor(cluster.groups[0]),
              _stale_read),
    "cluster": (ClusterInvariantMonitor, _stale_read),
    "migration": (MigrationWindowInvariant, _unbarriered_commit),
}


@pytest.mark.parametrize("name", sorted(MONITORS))
def test_attach_and_detach_are_idempotent_for_every_monitor(name):
    build_monitor, provoke = MONITORS[name]
    cluster = build_cluster(ClusterScenario(n_shards=2, n_hosts=4,
                                            n_objects=4, seed=0))
    cluster.start()
    monitor = build_monitor(cluster)
    provoke(cluster)
    assert monitor.violations == []  # never attached: sees nothing
    monitor.attach()
    monitor.attach()
    provoke(cluster)
    assert len(monitor.violations) == 1  # one subscription, not two
    assert len(cluster.trace.select("invariant_violation")) == 1
    monitor.detach()
    monitor.detach()
    provoke(cluster)
    assert len(monitor.violations) == 1  # detached: sees nothing
    monitor.attach()
    provoke(cluster)
    assert len(monitor.violations) == 2


def test_early_return_set_names_exactly_the_dispatched_categories():
    # `_on_record` returns at once for a category outside `_WATCHED`; a
    # branch added to its chain without a matching entry would be dead.
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(InvariantMonitor._on_record)))
    namespace = vars(monitor_module)
    compared = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "category"
                and isinstance(node.ops[0], (ast.Eq, ast.In))):
            value = eval(compile(ast.Expression(node.comparators[0]),
                                 "<chain>", "eval"), namespace)
            compared.update([value] if isinstance(value, str) else value)
    assert compared == monitor_module._WATCHED


def test_degraded_finding_owns_its_details():
    # The details of a degraded finding are the record's fields at that
    # instant; later edits to either must not reach the other.
    service = make_service()
    monitor = InvariantMonitor(service)
    monitor.attach()
    seen = []
    service.trace.subscribe(seen.append)
    service.trace.record("replication_degraded",
                         server=service.primary_server.name, object=0)
    (finding,) = monitor.degraded
    assert finding.details == seen[0].fields
    finding.details["object"] = 99
    assert seen[0]["object"] == 0
    assert service.trace.select("replication_degraded")[0]["object"] == 0
