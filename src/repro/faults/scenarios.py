"""The chaos scenario catalogue.

Each scenario bundles a workload (:class:`~repro.workload.scenarios.Scenario`)
with a :class:`~repro.faults.schedule.FaultSchedule` and the violation kinds
the fault pattern is *expected* to provoke — chaos runs distinguish "the
monitor flagged what we deliberately broke" from "something else broke".

Every factory takes the root seed, so the whole catalogue is a deterministic
function of ``(name, seed)``; ``python -m repro chaos`` runs it as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS
from repro.faults.monitor import SPLIT_BRAIN, TEMPORAL_WINDOW
from repro.faults.schedule import FaultSchedule
from repro.net.link import GilbertElliottLoss
from repro.units import ms
from repro.workload.scenarios import BaseScenario, Scenario


@dataclass
class ChaosScenario:
    """A workload plus the faults thrown at it."""

    name: str
    description: str
    workload: BaseScenario
    schedule: FaultSchedule
    #: Violation kinds this fault pattern is designed to provoke; kinds the
    #: monitor flags beyond these deserve attention.
    expected_violations: Tuple[str, ...] = ()


def primary_crash_burst_loss(seed: int = 0) -> ChaosScenario:
    """Primary crashes in the middle of a bursty-loss episode.

    A Gilbert-Elliott bad spell (the paper's "most of the message losses
    occur when the network is overloaded") opens at t=3; at t=5, with the
    link still bad, the primary dies.  Burst loss makes missed update
    rounds — temporal-window violations — likely, and correlated loss can
    swallow enough consecutive ping rounds that the detector falsely
    declares a live peer dead (timeout-based detection cannot tell burst
    loss from a crash), so transient split brain is an expected finding
    here too.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=20.0, seed=seed, n_spares=1)
    schedule = (FaultSchedule()
                .loss_burst(3.0, 4.0, GilbertElliottLoss(
                    p_gb=0.4, p_bg=0.2, loss_good=0.05, loss_bad=0.7))
                .crash(5.0, PRIMARY_ADDRESS))
    return ChaosScenario(
        name="primary_crash_burst_loss",
        description="primary fail-stop during a Gilbert-Elliott loss burst",
        workload=workload,
        schedule=schedule,
        expected_violations=(TEMPORAL_WINDOW, SPLIT_BRAIN),
    )


def partition_heal_rejoin(seed: int = 0) -> ChaosScenario:
    """Partition → split brain → heal → deposed primary rejoins as spare.

    The partition violates Section 4.1's no-partition assumption, so both
    sides claim the primary role (the monitor must flag split brain).  After
    the heal, the deposed primary is crash-cycled: it reboots as a spare and
    the promoted primary recruits it, restoring a replica pair.

    While partitioned, the backup is alive but unreachable, so its image
    goes stale past δ_i; whether the monitor flags that before the backup
    promotes itself (making the check vacuous) is a seed-dependent race
    against the detection latency, so temporal_window is expected too.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=25.0, seed=seed, n_spares=0)
    schedule = (FaultSchedule()
                .partition_window(4.0, 10.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
                .crash_cycle(14.0, 2.0, PRIMARY_ADDRESS))
    return ChaosScenario(
        name="partition_heal_rejoin",
        description="split brain under partition, then heal and rejoin",
        workload=workload,
        schedule=schedule,
        expected_violations=(SPLIT_BRAIN, TEMPORAL_WINDOW),
    )


def backup_flapping(seed: int = 0) -> ChaosScenario:
    """The backup host crash-recovers repeatedly (seeded random flapping).

    Every outage makes the primary declare the backup lost and tear down
    transmission; every recovery re-runs recruitment and state transfer.
    Exercises the rejoin path under churn — no invariant should break,
    because window consistency is vacuous while the backup is down.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=25.0, seed=seed, n_spares=0)
    schedule = FaultSchedule.flapping(
        seed=seed, target=BACKUP_ADDRESS, start=3.0, end=20.0,
        mean_uptime=3.0, mean_outage=1.5)
    return ChaosScenario(
        name="backup_flapping",
        description="backup crash/recover churn with re-recruitment",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def crash_plus_partition(seed: int = 0) -> ChaosScenario:
    """Compound fault: partition first, then the deposed primary dies.

    The partition promotes the backup (split brain); the old primary then
    crashes while still partitioned, the network heals, and the crashed
    host later reboots into the new deployment as a spare.

    As in :func:`partition_heal_rejoin`, the partitioned backup goes stale
    past δ_i, and the monitor may catch that before the backup's own
    promotion makes the check vacuous — temporal_window is expected.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=25.0, seed=seed, n_spares=1)
    schedule = (FaultSchedule()
                .partition(4.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
                .crash(6.0, PRIMARY_ADDRESS)
                .heal(8.0, PRIMARY_ADDRESS, BACKUP_ADDRESS)
                .recover(12.0, PRIMARY_ADDRESS))
    return ChaosScenario(
        name="crash_plus_partition",
        description="primary crash inside a partition, heal, late rejoin",
        workload=workload,
        schedule=schedule,
        expected_violations=(SPLIT_BRAIN, TEMPORAL_WINDOW),
    )


def degraded_network(seed: int = 0) -> ChaosScenario:
    """Non-crash link pathologies: delay spike, duplication, corruption,
    plus bounded clock drift on the backup's timers.

    None of these are fail-stop faults; the protocol is expected to ride
    them out (sequence guards absorb duplicates, the decode path rejects
    corrupted messages, the watchdog tolerates drift), so the expected
    violation set is empty.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=20.0, seed=seed, n_spares=0)
    schedule = (FaultSchedule()
                .delay_spike(3.0, 3.0, factor=3.0)
                .clock_drift(5.0, BACKUP_ADDRESS, scale=1.4, duration=6.0)
                .duplicate(8.0, 3.0, probability=0.3)
                # Corrupted messages fail decode and are dropped, so for the
                # ping detector corruption *is* loss; 5% keeps the chance of
                # ping_max_misses consecutive failed rounds negligible.
                .corrupt(12.0, 3.0, probability=0.05))
    return ChaosScenario(
        name="degraded_network",
        description="delay spike, duplication, corruption, clock drift",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def fastpath_backup_crash(seed: int = 0) -> ChaosScenario:
    """Fast-path eager pair loses its backup mid-run, then re-pairs.

    The eager+fastpath primary is answering most writes before the backup
    ack when the backup fail-stops at t=5.  Every pending deferred write
    must flush as a traced degraded response (no callback may leak), the
    witness set must drain before fast replies resume against the
    recruited spare, and no *invariant* may break — degraded states are
    expected operator-visible findings, not violations.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=20.0, seed=seed, n_spares=1,
                        replication="eager_fastpath")
    schedule = FaultSchedule().crash(5.0, BACKUP_ADDRESS)
    return ChaosScenario(
        name="fastpath_backup_crash",
        description="fast-path eager: backup fail-stop, degraded flush, "
                    "witness drain on re-pair",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def fastpath_primary_failover(seed: int = 0) -> ChaosScenario:
    """Fast-path eager primary fail-stops; the backup promotes and drains.

    The promoted backup must reseed its witness set from its own store,
    push state to the recruited spare, and keep the fast path off until
    every reseeded version is acked — only then may it answer clients
    before the ack again.  At t=12 that promoted primary is itself
    crash-cycled: the recruited spare promotes in turn (second failover,
    second drain), runs unpaired with the fast path off until the rebooted
    host rejoins as a spare at t=14, and drains once more on re-pairing.
    No invariant violations are expected; the monitor's split-brain and
    temporal-window checks must stay silent through every transition.
    """
    workload = Scenario(n_objects=4, window=ms(200.0), client_period=ms(100.0),
                        horizon=25.0, seed=seed, n_spares=1,
                        replication="eager_fastpath")
    schedule = (FaultSchedule()
                .crash(5.0, PRIMARY_ADDRESS)
                .crash_cycle(12.0, 2.0, BACKUP_ADDRESS))
    return ChaosScenario(
        name="fastpath_primary_failover",
        description="fast-path eager: primary fail-stop, witness drain on "
                    "failover, second churn round",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def cluster_group_outage(seed: int = 0) -> ChaosScenario:
    """Sharded cluster under compound faults, one blast radius at a time.

    A 4-shard/4-host cluster takes three hits: at t=3 one group's primary
    fail-stops (per-group failover promotes its backup, the manager sweep
    recruits a spare); at t=6 the host of another group's backup is cut
    off the fabric for 5 seconds (the isolated backup cannot hear pings,
    declares its primary dead, and self-promotes — split brain in that
    group); at t=14 the deposed primary left behind by that split is
    crashed, collapsing the group back to a single authority.

    Hosts are shared, so the isolation also severs co-located replicas of
    *other* groups — their backups miss updates past δ_i (temporal-window
    violations) and may promote too.  The invariant monitor keeps each
    finding attributed to the shard it happened in.
    """
    from repro.workload.cluster import ClusterScenario

    workload = ClusterScenario(n_shards=4, n_hosts=4, n_objects=8,
                               horizon=20.0, seed=seed)
    schedule = (FaultSchedule()
                .crash(3.0, "g00/primary")
                .isolate(6.0, 5.0, "g01/backup")
                .crash(14.0, "g01/deposed"))
    return ChaosScenario(
        name="cluster_group_outage",
        description="sharded cluster: one primary crash plus a host "
                    "isolation splitting a second group",
        workload=workload,
        schedule=schedule,
        expected_violations=(TEMPORAL_WINDOW, SPLIT_BRAIN),
    )


def cluster_replica_outage(seed: int = 0) -> ChaosScenario:
    """Read-heavy cluster: replica crash plus host isolation mid-sweep.

    A 2-shard/5-host cluster serves a read-heavy workload through one read
    replica per group.  At t=3 g00's replica fail-stops — until the
    manager sweep recruits and syncs a fresh seat, every g00 read falls
    back to the primary.  At t=5 g01's replica host is cut off the fabric
    for 4 seconds: the replica stays *alive* (so the sweep recruits no
    replacement) but stops hearing updates, its provable staleness grows
    past δ^B, and it refuses reads rather than serve stale data — the
    router falls back to the primary for the whole isolation window, and
    the replica rejoins via its own resubscribe loop after the heal.  The
    pass condition is the tentpole's acceptance criterion: primary
    fallback engages (``fallback_rate > 0``) while the
    ``replica_staleness`` invariant stays silent — no served read ever
    exceeded its window.  Temporal-window noise from co-located member
    seats on the isolated host is expected; replica_staleness is not.
    """
    from repro.workload.cluster import ClusterScenario

    workload = ClusterScenario(n_shards=2, n_hosts=5, n_objects=8,
                               horizon=20.0, seed=seed,
                               n_replicas=1, read_period=ms(20.0))
    schedule = (FaultSchedule()
                .crash(3.0, "g00/replica0")
                .isolate(5.0, 4.0, "g01/replica0"))
    return ChaosScenario(
        name="cluster_replica_outage",
        description="read-heavy cluster: replica crash + host isolation, "
                    "staleness SLO must hold via refusal and fallback",
        workload=workload,
        schedule=schedule,
        expected_violations=(TEMPORAL_WINDOW,),
    )


def flash_crowd(seed: int = 0) -> ChaosScenario:
    """Elastic cluster absorbs a write burst by scaling out, live.

    A 2-shard/4-host elastic cluster runs calm until t=3, when every
    sensor's write rate multiplies by 8 for two seconds.  Planned
    utilization — an admission-time quantity — never moves, so only the
    autoscaler's p99 latency trigger can see the crowd: it must recruit
    hosts, grow a third group, and populate it by live migration while
    the burst is still in flight.  The pass condition is the tentpole's
    acceptance criterion: at least one ``autoscale`` action and one
    ``migration_commit`` mid-traffic, with the temporal-window,
    split-brain and migration invariants all silent.
    """
    from repro.workload.elastic import ElasticScenario

    workload = ElasticScenario(n_shards=2, n_hosts=4, n_objects=12,
                               horizon=20.0, seed=seed,
                               latency_red=0.003, low_watermark=0.0,
                               max_groups=3, max_hosts=6)
    schedule = FaultSchedule().flash_crowd(3.0, 2.0, 8.0)
    return ChaosScenario(
        name="flash_crowd",
        description="elastic cluster: 8x write burst, latency-triggered "
                    "scale-out with live migration mid-burst",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def rolling_decommission(seed: int = 0) -> ChaosScenario:
    """Two hosts drained back-to-back; every seat walks off cleanly.

    A 2-shard/5-host elastic cluster has the host of one group's primary
    marked draining at t=3 and the host of the other group's primary at
    t=9.  Draining hosts take no new placement; the elastic controller
    evacuates one seat per tick — backups and spares crash outright (the
    sweep recruits replacements elsewhere), a primary only once its group
    has a live backup to fail over to.  Both hosts must end the run
    empty with zero invariant violations: every hand-off is a clean,
    in-order failover, never a split brain.
    """
    from repro.workload.elastic import ElasticScenario

    workload = ElasticScenario(n_shards=2, n_hosts=5, n_objects=8,
                               horizon=20.0, seed=seed,
                               low_watermark=0.0, max_groups=0, max_hosts=0)
    schedule = (FaultSchedule()
                .drain_host(3.0, "g00/primary")
                .drain_host(9.0, "g01/primary"))
    return ChaosScenario(
        name="rolling_decommission",
        description="elastic cluster: two hosts drained in sequence, "
                    "seats evacuated one clean failover at a time",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


def scaleup_race_with_failover(seed: int = 0) -> ChaosScenario:
    """A host dies while a scale-out migration is mid-flight.

    A single-shard elastic cluster under standing utilization pressure
    (the high watermark sits below its packed load) scales out at
    t≈1.5: a new group is placed and a migration wave starts moving
    objects into it.  At t=1.62 — freeze done, transfer racing the
    barrier — the new group's primary is crashed.  The migration must
    abort cleanly (destination charges refunded, source client
    unfrozen, not a double-place: the wave still holds both groups'
    reconfiguration tokens, so the manager sweep may not re-place the
    destination mid-abort).  After the group fails over, the still-
    standing pressure must re-trigger the wave and the second attempt
    must commit — the run ends scaled out with zero invariant
    violations.
    """
    from repro.workload.elastic import ElasticScenario

    workload = ElasticScenario(n_shards=1, n_hosts=4, n_objects=16,
                               horizon=20.0, seed=seed,
                               high_watermark=0.05, low_watermark=0.0,
                               max_groups=2, max_hosts=6)
    schedule = FaultSchedule().crash(1.62, "g01/primary")
    return ChaosScenario(
        name="scaleup_race_with_failover",
        description="elastic cluster: dest primary crash mid-migration, "
                    "clean abort, retry commits after failover",
        workload=workload,
        schedule=schedule,
        expected_violations=(),
    )


#: The catalogue: name -> factory(seed).
SCENARIOS: Dict[str, Callable[[int], ChaosScenario]] = {
    factory.__name__: factory
    for factory in (
        primary_crash_burst_loss,
        partition_heal_rejoin,
        backup_flapping,
        crash_plus_partition,
        degraded_network,
        fastpath_backup_crash,
        fastpath_primary_failover,
        cluster_group_outage,
        cluster_replica_outage,
        flash_crowd,
        rolling_decommission,
        scaleup_race_with_failover,
    )
}


def build(name: str, seed: int = 0) -> ChaosScenario:
    """Instantiate a catalogue scenario by name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; known: "
            f"{', '.join(sorted(SCENARIOS))}") from None
    return factory(seed)
