"""ReaderClient: closed-loop issue discipline, fallback, and starvation."""

from repro.core.service import PRIMARY_ADDRESS, RTPBService
from repro.core.spec import ServiceConfig
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.metrics.summary import collect_metrics
from repro.replicas.reader import LEASE_PERIODS, attach_reader
from repro.units import ms
from repro.workload.generator import homogeneous_specs
from repro.workload.scenarios import Scenario, build_scenario


def find_reader(service):
    assert service.readers, "no reader attached"
    return service.readers[0]


def test_zero_replica_baseline_falls_back_on_every_read():
    scenario = Scenario(n_objects=2, horizon=4.0, seed=3,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    service.run(scenario.horizon)
    reader = find_reader(service)
    assert reader.reads_issued > 0
    assert reader.reads_fallback == reader.reads_issued
    assert reader.reads_unserved == 0
    assert collect_metrics(service, service.sim.now, 0.0).fallback_rate == 1.0
    assert service.trace.select("client_read")
    assert not service.trace.select("read_served")


def test_replica_tier_serves_without_slo_violations():
    scenario = Scenario(n_objects=2, horizon=6.0, seed=3, n_replicas=2,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    service.run(scenario.horizon)
    reader = find_reader(service)
    assert reader.reads_completed > 0
    assert service.trace.select("read_served")
    assert collect_metrics(service, service.sim.now).slo_violations == 0
    # Warm steady state: the replica tier carries (nearly) all traffic.
    assert collect_metrics(service, service.sim.now, 2.0).fallback_rate < 0.05


def test_lease_bounds_the_wait_on_a_lost_reply():
    scenario = Scenario(n_objects=1, horizon=4.0, seed=3,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    reader = find_reader(service)

    def lose_a_reply():
        # Model a reply that will never arrive: an outstanding entry with
        # no completion callback pending anywhere.
        reader._outstanding[0] = service.sim.now

    service.sim.schedule(1.0, lose_a_reply)
    service.run(scenario.horizon)
    # The loop skipped while the lease ran (~LEASE_PERIODS ticks), then
    # resumed issuing for the rest of the horizon.
    assert reader.reads_skipped >= LEASE_PERIODS - 2
    assert reader.reads_skipped <= LEASE_PERIODS + 2
    assert not reader._outstanding
    issued_late = [record.time for record in
                   service.trace.select("read_fallback", object=0)
                   if record.time > 1.0 + (LEASE_PERIODS + 2) * ms(10.0)]
    assert issued_late, "loop never resumed after the lease expired"


def test_reads_are_unserved_when_nobody_can_serve():
    service = RTPBService(seed=6,
                          config=ServiceConfig(failover_enabled=False))
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    reader = attach_reader(service, service.fabric, specs, ms(10.0),
                           "round_robin")
    service.start()
    # No replicas, failover disabled: once the primary dies the name file
    # keeps pointing at a dead address and every read is unservable.
    FaultInjector(service, FaultSchedule().crash(1.0, PRIMARY_ADDRESS)).arm()
    service.run(2.0)
    assert reader.reads_unserved > 0
    assert service.trace.select("read_unserved")
    # Unserved reads release the closed loop immediately (no lease wait).
    assert reader.reads_skipped == 0


def test_a_late_reply_does_not_reopen_the_loop():
    """Regression: a reply arriving after its read's lease expired cleared
    the entry of the read issued after it, so the loop issued again with
    that read still in flight — up to dozens at once per object."""
    scenario = Scenario(n_objects=8, window=ms(200), read_period=ms(0.5),
                        horizon=4.0, seed=1)
    service = build_scenario(scenario)
    service.run(scenario.horizon)
    lease = LEASE_PERIODS * scenario.read_period
    served = service.trace.select("client_read")
    assert len(served) > 10_000
    early = 0
    for object_id in range(scenario.n_objects):
        spans = sorted((record["issue"], record["issue"] + record["response"])
                       for record in served if record["object"] == object_id)
        # The loop issues at most once a period, so only the last
        # LEASE_PERIODS reads can have been issued within one lease.
        for index, (issue, _) in enumerate(spans):
            recent = spans[max(0, index - LEASE_PERIODS):index]
            early += any(issue - before < lease and issue < end
                         for before, end in recent)
    assert early == 0
