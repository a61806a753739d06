"""Deterministic fault injection, chaos orchestration, invariant checking.

The chaos layer drives the RTPB simulator through adverse conditions while
an online monitor checks the paper's guarantees as they are supposed to
hold — all in virtual time, so every run is a pure function of
``(scenario, seed)``:

- :mod:`repro.faults.actions` — the fault vocabulary (crash/recover,
  partition/heal, loss bursts, delay spikes, duplication, corruption,
  clock drift);
- :mod:`repro.faults.schedule` — :class:`FaultSchedule`, a declarative,
  composable timeline of faults;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, arming a schedule
  onto a live deployment with fire-time target resolution;
- :mod:`repro.faults.monitor` — :class:`InvariantMonitor`, flagging
  temporal-window violations, split brain, and missed failover deadlines
  online;
- :mod:`repro.faults.scenarios` — the chaos scenario catalogue;
- :mod:`repro.faults.report` — chaos runs with deterministic JSON reports
  (also the ``python -m repro chaos`` CLI).
"""

from repro.faults.actions import (
    ClockDrift,
    CorruptMessages,
    CrashServer,
    DelaySpike,
    DuplicateMessages,
    FaultAction,
    Heal,
    HealAll,
    IsolateHost,
    KillHost,
    LossBurst,
    Partition,
    PartitionAll,
    RecoverServer,
)
from repro.faults.injector import FaultInjector
from repro.faults.monitor import (
    MISSED_FAILOVER,
    SPLIT_BRAIN,
    TEMPORAL_WINDOW,
    InvariantMonitor,
    InvariantViolation,
)
from repro.faults.report import (
    ChaosRunResult,
    report_dict,
    run_chaos,
    run_matrix,
)
from repro.faults.scenarios import SCENARIOS, ChaosScenario, build
from repro.faults.schedule import FaultSchedule, TimedFault

__all__ = [
    "FaultAction",
    "CrashServer",
    "RecoverServer",
    "Partition",
    "Heal",
    "PartitionAll",
    "HealAll",
    "KillHost",
    "IsolateHost",
    "LossBurst",
    "DelaySpike",
    "DuplicateMessages",
    "CorruptMessages",
    "ClockDrift",
    "FaultSchedule",
    "TimedFault",
    "FaultInjector",
    "InvariantMonitor",
    "InvariantViolation",
    "TEMPORAL_WINDOW",
    "SPLIT_BRAIN",
    "MISSED_FAILOVER",
    "ChaosScenario",
    "SCENARIOS",
    "build",
    "ChaosRunResult",
    "run_chaos",
    "run_matrix",
    "report_dict",
]
