"""Sorted ready queue vs a ``min()`` scan: the same dispatch order.

:class:`~repro.sched.processor.Processor` keeps its ready list sorted by
the policy's key, runs the head, and starts a job on an idle CPU with an
empty queue at once.  The reference below queues every job, idle CPU or
not, and decides every dispatch and preemption by scanning the list for
its minimum, the way the processor did before; list order is immaterial
to it.  Both must produce the same full trace (releases, preemptions,
replacements, finishes) under every policy, with overload backlogs,
aperiodic jobs in both bands, ``replace_pending`` tasks and tasks removed
and re-added mid-run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.edf import EDFScheduler
from repro.sched.processor import Processor
from repro.sched.rm import FIFOScheduler, RateMonotonicScheduler
from repro.sched.task import BAND_BACKGROUND, BAND_REALTIME, Task
from repro.sim.engine import Simulator

HORIZON = 2.0
POLICIES = {"edf": EDFScheduler, "rm": RateMonotonicScheduler,
            "fifo": FIFOScheduler}


class ScanProcessor(Processor):
    """Reference: every job goes through the ready list, and the next job
    is whatever a ``min()`` scan finds."""

    def _enqueue(self, job):
        trace = self.sim.trace
        if trace.enabled("job_release"):
            trace.record("job_release", cpu=self.name, job=job.name,
                         index=job.index, band=job.band)
        self._ready.append(job)
        self._reschedule()

    def _best(self):
        return min(self._ready, key=self._key)

    def _reschedule(self):
        running = self._running
        if running is not None:
            if not self._preemptive or not self._ready:
                return
            if not self._key(self._best()) < self._key(running):
                return
            self._preempt(running)
        self._dispatch()

    def _dispatch(self):
        if self._running is None and self._ready:
            best = self._best()
            self._ready.remove(best)
            self._ready.insert(0, best)
        super()._dispatch()


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for index in range(n):
        period = draw(st.sampled_from([0.05, 0.08, 0.1, 0.13, 0.2]))
        # Shares may sum past 1: a backlog is where order matters.
        share = draw(st.floats(min_value=0.02, max_value=1.5 / n))
        tasks.append(Task(
            f"t{index}", period=period,
            wcet=max(1e-4, min(period, period * share)),
            phase=draw(st.sampled_from([0.0, 0.01, 0.1])),
            release_jitter=draw(st.sampled_from([0.0, 0.0, 0.01])),
            replace_pending=draw(st.booleans())))
    submits = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=HORIZON - 0.1),
        st.sampled_from([0.001, 0.004, 0.02]),
        st.sampled_from([BAND_BACKGROUND, BAND_REALTIME]),
        st.sampled_from([0.01, 0.05, float("inf")])), max_size=25))
    churn = draw(st.none() | st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.floats(min_value=0.1, max_value=1.0)))
    return tasks, submits, churn


def _run(cls, policy, workload):
    tasks, submits, churn = workload
    sim = Simulator(seed=5)
    cpu = cls(sim, POLICIES[policy](), name="cpu")
    for task in tasks:
        cpu.add_task(task)
    for at, cost, band, deadline in submits:
        sim.schedule_at(at, lambda cost=cost, band=band, deadline=deadline:
                        cpu.submit("rpc", cost, sim.now + deadline, band))
    if churn is not None:
        index, at = churn
        sim.schedule_at(at, cpu.remove_task, tasks[index].name)
        sim.schedule_at(at + 0.3, cpu.add_task, tasks[index])
    sim.run(until=HORIZON)
    return sim, cpu


@given(workloads(), st.sampled_from(sorted(POLICIES)))
@settings(max_examples=60, deadline=None)
def test_sorted_ready_queue_dispatches_like_a_min_scan(workload, policy):
    sim, cpu = _run(Processor, policy, workload)
    ref_sim, ref_cpu = _run(ScanProcessor, policy, workload)
    assert sim.trace.digest() == ref_sim.trace.digest()
    assert sim.events_executed == ref_sim.events_executed
    assert cpu.finish_times == ref_cpu.finish_times
    assert cpu.jobs_completed == ref_cpu.jobs_completed


def test_the_workloads_do_queue_preempt_and_replace():
    """The property above is not vacuous: a fixed overloaded workload
    builds a backlog, preempts and replaces pending jobs."""
    tasks = [Task("fast", period=0.05, wcet=0.03),
             Task("mid", period=0.1, wcet=0.05),
             Task("starved", period=0.2, wcet=0.01, replace_pending=True)]
    submits = [(0.01 * step, 0.004, BAND_BACKGROUND, float("inf"))
               for step in range(20)]
    sim, cpu = _run(Processor, "rm", (tasks, submits, (0, 0.5)))
    ref_sim, _ref_cpu = _run(ScanProcessor, "rm", (tasks, submits, (0, 0.5)))
    assert sim.trace.digest() == ref_sim.trace.digest()
    assert sim.trace.select("job_preempt")
    assert sim.trace.select("job_replaced")
    assert cpu.backlog > 5


def _job_log(cls, policy):
    """A run whose jobs start on an idle CPU from an ``on_idle`` hook, from
    inside another job's action, and right before a higher-priority job
    preempts them; returns every job's life, in submission order."""
    sim = Simulator(seed=9)
    cpu = cls(sim, POLICIES[policy](), name="cpu")
    jobs = []

    def submit(name, cost, deadline, band=BAND_BACKGROUND, action=None):
        jobs.append(cpu.submit(name, cost, sim.now + deadline, band, action))

    idle_budget = [6]

    def on_idle():
        if idle_budget[0]:
            idle_budget[0] -= 1
            submit(f"idle{idle_budget[0]}", 0.003, 0.05)

    def chain(_job):
        if sum(job.name == "chain" for job in jobs) < 4:
            submit("chain", 0.002, 0.04, BAND_REALTIME, chain)

    cpu.on_idle = on_idle
    cpu.add_task(Task("periodic", period=0.1, wcet=0.01, phase=0.05))

    def preempted_start():
        submit("slow", 0.02, 1.0)  # idle CPU: starts at once
        submit("urgent", 0.001, 0.002, BAND_REALTIME)

    sim.schedule_at(0.2, preempted_start)
    sim.schedule_at(0.4, submit, "chain", 0.002, 0.04, BAND_REALTIME, chain)
    sim.schedule_at(0.6, submit, "late", 0.01, 0.5)
    sim.run(until=1.0)
    lives = [(job.name, job.index, job.release_time, job.start_time,
              job.finish_time, job.preemptions) for job in jobs]
    return sim, cpu, lives


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_idle_cpu_start_matches_the_queue_round_trip(policy):
    sim, cpu, lives = _job_log(Processor, policy)
    ref_sim, ref_cpu, ref_lives = _job_log(ScanProcessor, policy)
    assert lives == ref_lives
    assert sim.trace.digest() == ref_sim.trace.digest()
    assert sim.events_executed == ref_sim.events_executed
    assert cpu.finish_times == ref_cpu.finish_times
    names = [life[0] for life in lives]
    assert names.count("chain") == 4
    assert sum(name.startswith("idle") for name in names) == 6
    if POLICIES[policy]().preemptive:
        slow = next(life for life in lives if life[0] == "slow")
        assert slow[3] == 0.2 and slow[5] == 1  # started, then preempted
