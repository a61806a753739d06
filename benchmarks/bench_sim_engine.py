"""Substrate microbenchmarks: DES throughput and protocol-stack cost.

Sanity that the figure sweeps are tractable and a regression guard for the
event loop, the queue's liveness accounting, the tracer's category index,
the preemptive processor, and the UDP/IP encode-decode path.  The
machine-readable counterpart of these benches lives in ``repro.bench``
(``python -m repro bench --only sim_engine,queue_churn,tracer_select``).
"""

from repro.bench.registry import SCENARIOS
from repro.net.ip import Host
from repro.net.link import NetworkFabric
from repro.sched import EDFScheduler, Processor, Task
from repro.sim.engine import Simulator


def test_event_loop_throughput(benchmark, record_counters):
    def run():
        sim = Simulator()
        count = 20_000
        state = {"fired": 0}

        def tick():
            state["fired"] += 1
            if state["fired"] < count:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return state["fired"], sim.events_executed

    fired, events = benchmark(run)
    assert fired == 20_000
    assert events == 20_000
    record_counters("sim_event_loop", {"fired": fired, "events": events})


def test_cancel_heavy_event_loop(benchmark, record_counters):
    """The watchdog pattern: every tick cancels and re-arms a deadline timer."""

    def run():
        sim = Simulator()
        stats = SCENARIOS["sim_engine"](True)
        del sim
        return stats

    stats = benchmark(run)
    assert stats.events_executed > 20_000
    record_counters("sim_cancel_heavy", {
        "events_executed": stats.events_executed,
        "peak_live_events": stats.peak_live_events,
        "extra": stats.extra,
    })


def test_queue_churn_liveness(benchmark, record_counters):
    """Raw EventQueue churn: lazy cancellation must not leak live counts."""

    stats = benchmark(SCENARIOS["queue_churn"], True)
    assert stats.extra["final_len"] == 0
    record_counters("sim_queue_churn", {"extra": stats.extra})


def test_tracer_indexed_select(benchmark, record_counters):
    """Metrics-style per-object selects must not scan unrelated categories."""

    stats = benchmark(SCENARIOS["tracer_select"], True)
    assert stats.trace_records == 20_000
    record_counters("sim_tracer_select", {
        "digest": stats.digest,
        "trace_records": stats.trace_records,
        "extra": stats.extra,
    })


def test_processor_preemption_throughput(benchmark):
    def run():
        sim = Simulator()
        cpu = Processor(sim, EDFScheduler())
        cpu.add_task(Task("fast", period=0.001, wcet=0.0004))
        cpu.add_task(Task("slow", period=0.01, wcet=0.005))
        sim.run(until=5.0)
        return cpu.jobs_completed

    completed = benchmark(run)
    assert completed > 5_000


def test_udp_stack_round_trips(benchmark):
    def run():
        sim = Simulator(seed=1)
        fabric = NetworkFabric(sim, delay_bound=0.001)
        sender_host = Host(sim, fabric, "a", 1)
        receiver_host = Host(sim, fabric, "b", 2)
        received = []
        receiver_host.udp_endpoint(
            9000, on_receive=lambda data, src, info: received.append(data))
        endpoint = sender_host.udp_endpoint(8000)
        payload = b"x" * 128
        for index in range(2_000):
            sim.schedule(index * 0.0005,
                         endpoint.send, 2, 9000, payload)
        sim.run(until=5.0)
        return len(received)

    delivered = benchmark(run)
    assert delivered == 2_000
