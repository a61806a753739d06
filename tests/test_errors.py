"""The exception hierarchy: catchability contracts."""

import pytest

from repro import errors


def test_everything_derives_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError) or \
                obj is errors.ReproError


def test_subsystem_bases():
    assert issubclass(errors.SimTimeError, errors.SimulationError)
    assert issubclass(errors.ProcessInterrupt, errors.SimulationError)
    assert issubclass(errors.DeadlineMissError, errors.SchedulingError)
    assert issubclass(errors.NotSchedulableError, errors.SchedulingError)
    assert issubclass(errors.MessageFormatError, errors.ProtocolError)
    assert issubclass(errors.PortInUseError, errors.ProtocolError)
    assert issubclass(errors.NotPrimaryError, errors.ReplicationError)


def test_process_interrupt_carries_cause():
    interrupt = errors.ProcessInterrupt(cause={"reason": "peer-dead"})
    assert interrupt.cause == {"reason": "peer-dead"}
    assert "peer-dead" in str(interrupt)


def test_deadline_miss_carries_context():
    miss = errors.DeadlineMissError("late", task_name="tx-1", job_index=4,
                                    deadline=1.0, finish_time=1.2)
    assert miss.task_name == "tx-1"
    assert miss.job_index == 4
    assert miss.deadline == 1.0
    assert miss.finish_time == 1.2


def test_one_except_clause_catches_the_world():
    for exc in (errors.SimTimeError("x"), errors.NotSchedulableError("x"),
                errors.MessageFormatError("x"), errors.NoRouteError("x"),
                errors.UnknownObjectError("x")):
        with pytest.raises(errors.ReproError):
            raise exc
