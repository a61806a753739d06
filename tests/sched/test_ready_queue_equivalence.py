"""Sorted ready queue vs a ``min()`` scan: the same dispatch order.

:class:`~repro.sched.processor.Processor` keeps its ready list sorted by
the policy's key and runs the head.  The reference below decides every
dispatch and preemption by scanning the list for its minimum, the way the
processor did before; list order is immaterial to it.  Both must produce
the same full trace (releases, preemptions, replacements, finishes) under
every policy, with overload backlogs, aperiodic jobs in both bands,
``replace_pending`` tasks and tasks removed and re-added mid-run.
"""

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
    """Reference: the next job is whatever a ``min()`` scan finds."""

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
