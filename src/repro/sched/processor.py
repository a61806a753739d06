"""Preemptive single-CPU execution model.

The paper runs update-transmission tasks, ping threads, and client request
handling on the primary's CPU under a priority-based kernel scheduler.  This
module simulates that CPU: periodic tasks release jobs, a pluggable policy
(:class:`~repro.sched.edf.EDFScheduler`,
:class:`~repro.sched.rm.RateMonotonicScheduler`, ...) picks what runs, and
preemption is modelled exactly, so job *finish times* — the quantity phase
variance is defined over — come out of real interleavings rather than
formulas.

Trace categories emitted (on ``sim.trace``):

- ``job_release`` — a job entered the ready queue.
- ``job_replaced`` — a stale pending job was superseded (``replace_pending``).
- ``job_preempt`` — the running job was preempted.
- ``job_finish`` — a job completed (fields include release/finish/response).
- ``deadline_miss`` — a job finished after its absolute deadline.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional

from repro.errors import DeadlineMissError, InvalidTaskError
from repro.sched.edf import EDFScheduler
from repro.sched.task import BAND_BACKGROUND, BAND_REALTIME, Job, Task, TaskSet
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Default for :class:`Processor`'s ``batch_releases`` parameter.  The
#: batched path coalesces each task's periodic releases into one
#: self-rescheduling macro-event (see :class:`_ReleaseLoop`); it is
#: digest-identical to the unbatched path by construction and verified so
#: by the equivalence property tests, so it is on by default.  Flip to
#: ``False`` to force every processor in the process onto the one-event-
#: per-release reference path.
BATCH_RELEASES = True


class _ReleaseLoop:
    """Self-rescheduling macro-event driving one task's periodic releases.

    The unbatched reference path allocates a fresh engine event (record,
    args tuple, bound method) for *every* release of every task.  This loop
    object owns a single event record for the task's whole lifetime and
    re-arms it each period via :meth:`EventQueue.rearm`, so a release costs
    one heap push and nothing else — the macro-event "expands lazily" into
    individual releases as virtual time reaches them.

    Digest equivalence is by construction: :meth:`arm` draws the same
    jitter stream and consumes one engine sequence number at exactly the
    same program point as the unbatched ``_schedule_release``, so the heap
    keys ``(time, seq)`` — and therefore the pop order, the trace, and
    ``events_executed`` — are identical in both modes.
    """

    __slots__ = ("processor", "task", "base_time", "event")

    def __init__(self, processor: "Processor", task: Task) -> None:
        self.processor = processor
        self.task = task
        self.base_time = 0.0
        self.event: Optional[Event] = None

    def arm(self, base_time: float) -> None:
        """Point the macro-event at the release for ``base_time``."""
        processor = self.processor
        task = self.task
        jitter = 0.0
        if task.release_jitter > 0:
            rng = processor.sim.random.stream(
                f"{processor.name}.jitter.{task.name}")
            jitter = rng.uniform(0.0, task.release_jitter)
        self.base_time = base_time
        when = max(processor.sim.now, base_time + jitter)
        if self.event is None:
            self.event = processor.sim.schedule_at(when, self.fire)
        else:
            # The record just fired (fire() is the only caller once armed),
            # so it is re-armable: not queued, not cancelled.
            processor.sim.reschedule_at(self.event, when)
        processor._release_events[task.name] = self.event

    def fire(self) -> None:
        self.processor._release(self.task, self.base_time, self)


class Processor:
    """A preemptive CPU executing periodic tasks and aperiodic jobs.

    Parameters
    ----------
    sim:
        The simulator this CPU lives in.
    scheduler:
        Policy object with a ``key(job)`` method (lower runs first) and a
        ``preemptive`` flag.  Defaults to EDF.
    name:
        Label used in traces, letting several CPUs share one simulator.
    hard_deadlines:
        When True a deadline miss raises
        :class:`~repro.errors.DeadlineMissError`; otherwise it is traced and
        execution continues (the paper treats missed message deadlines as
        performance failures, not crashes).
    batch_releases:
        ``True`` coalesces each task's periodic releases into one
        re-armed macro-event (:class:`_ReleaseLoop`); ``False`` allocates a
        fresh engine event per release (the reference path).  ``None``
        (default) follows the module-level :data:`BATCH_RELEASES` flag.
        Both modes are digest-identical.
    """

    def __init__(self, sim: Simulator, scheduler: Optional[object] = None,
                 name: str = "cpu", hard_deadlines: bool = False,
                 batch_releases: Optional[bool] = None) -> None:
        self.sim = sim
        self.scheduler = scheduler if scheduler is not None else EDFScheduler()
        # Resolved once: the policy is fixed for the processor's lifetime.
        self._key: Callable[[Job], object] = self.scheduler.key
        self._preemptive: bool = getattr(self.scheduler, "preemptive", True)
        self.name = name
        self.hard_deadlines = hard_deadlines
        self.batch_releases = (BATCH_RELEASES if batch_releases is None
                               else batch_releases)
        self.tasks = TaskSet()
        #: Completed-job finish instants per task name (phase-variance input).
        self.finish_times: Dict[str, List[float]] = {}
        #: Called with no arguments whenever the CPU goes idle; compressed
        #: update scheduling hooks in here to submit the next transmission.
        self.on_idle: Optional[Callable[[], None]] = None
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.deadline_misses = 0
        #: Ready jobs sorted by the policy's key (static, and unique through
        #: ``jid``): the head is always the next to run.
        self._ready: List[Job] = []
        self._running: Optional[Job] = None
        self._run_started_at = 0.0
        self._completion_event: Optional[Event] = None
        self._release_events: Dict[str, Event] = {}
        self._release_loops: Dict[str, _ReleaseLoop] = {}
        self._pending_jobs: Dict[str, Job] = {}  # latest unstarted job per task

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------

    def add_task(self, task: Task) -> None:
        """Install a periodic task; its first job releases ``task.phase``
        seconds from now (the phase is relative to installation time, since
        RTPB registers update tasks dynamically at admission)."""
        self.tasks.add(task)
        self.finish_times.setdefault(task.name, [])
        self._schedule_release(task, self.sim.now + task.phase)

    def remove_task(self, name: str) -> None:
        """Uninstall a task: cancel its next release and discard queued jobs.

        A job of the task that is *currently running* is allowed to finish
        (its CPU time is already committed), matching how a kernel would
        behave when a thread is descheduled.
        """
        self.tasks.remove(name)
        event = self._release_events.pop(name, None)
        if event is not None:
            event.cancel()
        # A cancelled record cannot be re-armed; re-adding the task builds
        # a fresh loop.
        self._release_loops.pop(name, None)
        self._pending_jobs.pop(name, None)
        self._ready = [job for job in self._ready
                       if job.task is None or job.task.name != name]

    def has_task(self, name: str) -> bool:
        return name in self.tasks

    # ------------------------------------------------------------------
    # Aperiodic work
    # ------------------------------------------------------------------

    def submit(self, name: str, cost: float,
               deadline: float = float("inf"),
               band: int = BAND_BACKGROUND,
               action: Optional[Callable[[Job], None]] = None) -> Job:
        """Submit a one-shot job (e.g. handling one client RPC).

        Background-band jobs never delay real-time jobs; they soak up slack,
        which is exactly how the paper keeps client request handling from
        jeopardising update-task deadlines.
        """
        if cost <= 0:
            raise InvalidTaskError(f"job cost must be > 0, got {cost}")
        job = Job(name=name, release_time=self.sim.now, cost=cost,
                  absolute_deadline=deadline, band=band, action=action)
        self._enqueue(job)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is running and nothing is ready."""
        return self._running is None and not self._ready

    @property
    def backlog(self) -> int:
        """Number of ready (not running) jobs."""
        return len(self._ready)

    def utilization_planned(self) -> float:
        """Σ e/p over installed periodic tasks (the admission-time view)."""
        return self.tasks.utilization

    # ------------------------------------------------------------------
    # Release machinery
    # ------------------------------------------------------------------

    def _schedule_release(self, task: Task, base_time: float) -> None:
        if self.batch_releases:
            # Installation entry point of the batched path: one loop (and
            # one event record) per installed task; _release re-arms it
            # directly every period afterwards.
            loop = _ReleaseLoop(self, task)
            self._release_loops[task.name] = loop
            loop.arm(base_time)
            return
        jitter = 0.0
        if task.release_jitter > 0:
            rng = self.sim.random.stream(f"{self.name}.jitter.{task.name}")
            jitter = rng.uniform(0.0, task.release_jitter)
        event = self.sim.schedule_at(
            max(self.sim.now, base_time + jitter),
            self._release, task, base_time)
        self._release_events[task.name] = event

    def _release(self, task: Task, base_time: float,
                 loop: Optional[_ReleaseLoop] = None) -> None:
        # One body for both modes (``loop`` is the batched one's): every
        # side effect — jitter draw, sequence number, trace record,
        # enqueue — happens at the same program point in each.
        if task.name not in self.tasks:
            return  # removed while the release event was in flight
        index = len(self.finish_times.get(task.name, ()))
        if task.replace_pending:
            stale = self._pending_jobs.get(task.name)
            if stale is not None and not stale.started and not stale.finished:
                if stale in self._ready:
                    self._ready.remove(stale)
                    trace = self.sim.trace
                    if trace.enabled("job_replaced"):
                        trace.record("job_replaced", cpu=self.name,
                                     task=task.name, index=stale.index)
        job = Job(name=task.name, release_time=self.sim.now, cost=task.wcet,
                  absolute_deadline=self.sim.now + task.deadline,
                  task=task, index=index, band=BAND_REALTIME,
                  action=task.action)
        self._pending_jobs[task.name] = job
        # Next release keeps the nominal grid (jitter does not accumulate).
        if loop is None:
            self._schedule_release(task, base_time + task.period)
        else:
            loop.arm(base_time + task.period)
        self._enqueue(job)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------

    def _enqueue(self, job: Job) -> None:
        trace = self.sim.trace
        if trace.enabled("job_release"):
            trace.record("job_release", cpu=self.name, job=job.name,
                         index=job.index, band=job.band)
        if self._running is None and not self._ready:
            # Idle CPU: queued, it would be popped again at once.
            self._start(job)
            return
        insort(self._ready, job, key=self._key)
        self._reschedule()

    def _reschedule(self) -> None:
        running = self._running
        if running is not None:
            ready = self._ready
            if not self._preemptive or not ready:
                return
            key = self._key
            if key(ready[0]) < key(running):
                self._preempt(running)
            else:
                return
        self._dispatch()

    def _preempt(self, job: Job) -> None:
        elapsed = self.sim.now - self._run_started_at
        # Clamp: float summation can leave a ~1e-17 negative residue.
        job.remaining = max(0.0, job.remaining - elapsed)
        job.preemptions += 1
        self.busy_time += elapsed
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self._running = None
        insort(self._ready, job, key=self._key)
        trace = self.sim.trace
        if trace.enabled("job_preempt"):
            trace.record("job_preempt", cpu=self.name, job=job.name,
                         index=job.index, remaining=job.remaining)

    def _dispatch(self) -> None:
        if self._running is not None:
            return
        if not self._ready:
            if self.on_idle is not None:
                self.on_idle()
            return
        self._start(self._ready.pop(0))

    def _start(self, job: Job) -> None:
        now = self.sim.now
        if job.start_time is None:
            job.start_time = now
        self._running = job
        self._run_started_at = now
        self._completion_event = self.sim.schedule(
            max(0.0, job.remaining), self._complete, job)

    def _complete(self, job: Job) -> None:
        now = job.finish_time = self.sim.now
        self.busy_time += now - self._run_started_at
        job.remaining = 0.0
        self._running = None
        self._completion_event = None
        self.jobs_completed += 1
        if job.task is not None:
            self.finish_times[job.task.name].append(now)
            if self._pending_jobs.get(job.task.name) is job:
                del self._pending_jobs[job.task.name]
        trace = self.sim.trace
        if trace.enabled("job_finish"):
            trace.record(
                "job_finish", cpu=self.name, job=job.name, index=job.index,
                release=job.release_time, finish=job.finish_time,
                response=job.response_time, band=job.band)
        if now > job.absolute_deadline + 1e-12:
            self.deadline_misses += 1
            trace.record(
                "deadline_miss", cpu=self.name, job=job.name, index=job.index,
                deadline=job.absolute_deadline, finish=job.finish_time)
            if self.hard_deadlines:
                raise DeadlineMissError(
                    f"{self.name}: job {job.name}#{job.index} finished at "
                    f"{job.finish_time:.6f}, deadline {job.absolute_deadline:.6f}",
                    task_name=job.name, job_index=job.index,
                    deadline=job.absolute_deadline, finish_time=job.finish_time)
        if job.action is not None:
            job.action(job)
        self._dispatch()
