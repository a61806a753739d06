"""Unit tests for admission control (Section 4.2)."""

import pytest

from repro.core.admission import (
    REASON_CLIENT_PERIOD,
    REASON_INTEROBJECT_PERIOD,
    REASON_UNKNOWN_OBJECT,
    REASON_UNSCHEDULABLE,
    REASON_WINDOW_TOO_SMALL,
    AdmissionController,
)
from repro.core.spec import InterObjectConstraint, ObjectSpec, ServiceConfig
from repro.errors import UnknownObjectError
from repro.units import ms, utilization_bound_rm


def make_spec(object_id=0, client_period=ms(100), delta_primary=ms(100),
              window=ms(200), size=64):
    return ObjectSpec(object_id=object_id, name=f"o{object_id}",
                      size_bytes=size, client_period=client_period,
                      delta_primary=delta_primary,
                      delta_backup=delta_primary + window)


def make_controller(**config_overrides):
    return AdmissionController(ServiceConfig(**config_overrides))


def test_accepts_reasonable_object():
    controller = make_controller()
    decision = controller.admit(make_spec())
    assert decision.accepted
    assert decision.update_period == pytest.approx(ms(97.5))
    assert controller.admitted_count == 1


def test_rejects_client_period_exceeding_primary_constraint():
    controller = make_controller()
    decision = controller.admit(make_spec(client_period=ms(150),
                                          delta_primary=ms(100)))
    assert not decision.accepted
    assert decision.reason == REASON_CLIENT_PERIOD
    assert decision.suggestion["client_period"] == pytest.approx(ms(100))
    assert controller.admitted_count == 0


def test_rejects_window_not_exceeding_delay_bound():
    controller = make_controller(ell=ms(5))
    decision = controller.admit(make_spec(window=ms(4)))
    assert not decision.accepted
    assert decision.reason == REASON_WINDOW_TOO_SMALL
    assert decision.suggestion["delta_backup"] > ms(100) + ms(5)


def test_rejects_when_update_tasks_unschedulable():
    controller = make_controller()
    decision = None
    object_id = 0
    while True:
        decision = controller.admit(make_spec(object_id, window=ms(60),
                                              client_period=ms(50),
                                              delta_primary=ms(50)))
        if not decision.accepted:
            break
        object_id += 1
    assert decision.reason == REASON_UNSCHEDULABLE
    assert object_id > 5  # a healthy number got in first
    # The utilisation stays under the Liu-Layland bound.
    n = controller.admitted_count
    assert controller.planned_utilization() <= utilization_bound_rm(n) + 1e-9


def test_rejection_suggestion_is_admittable():
    controller = make_controller()
    object_id = 0
    while True:
        decision = controller.admit(make_spec(object_id, window=ms(60),
                                              client_period=ms(50),
                                              delta_primary=ms(50)))
        if not decision.accepted:
            break
        object_id += 1
    assert decision.suggestion is not None
    retry = ObjectSpec(object_id=object_id, name="retry", size_bytes=64,
                       client_period=ms(50), delta_primary=ms(50),
                       delta_backup=decision.suggestion["delta_backup"])
    assert controller.admit(retry).accepted


def test_client_period_suggestion_round_trips_to_acceptance():
    # The negotiation loop the cluster's shedder rides: apply the rejection
    # verbatim and the retry must be admitted.
    controller = make_controller()
    decision = controller.admit(make_spec(client_period=ms(150),
                                          delta_primary=ms(100)))
    assert not decision.accepted
    retry = make_spec(client_period=decision.suggestion["client_period"],
                      delta_primary=ms(100))
    assert controller.admit(retry).accepted


def test_window_too_small_suggestion_is_exact_and_admittable():
    controller = make_controller(ell=ms(5))
    decision = controller.admit(make_spec(window=ms(4)))
    assert not decision.accepted
    assert decision.reason == REASON_WINDOW_TOO_SMALL
    # δ^B = δ^P + 2ℓ: the smallest window strictly clearing the bound.
    assert decision.suggestion["delta_backup"] == \
        pytest.approx(ms(100) + 2 * ms(5))
    retry = ObjectSpec(object_id=1, name="retry", size_bytes=64,
                       client_period=ms(100), delta_primary=ms(100),
                       delta_backup=decision.suggestion["delta_backup"])
    assert controller.admit(retry).accepted


def test_saturated_controller_offers_no_window_suggestion():
    # Under the exact RM test, harmonic update tasks push planned
    # utilization past the Liu-Layland bound — at that point no window
    # widening helps and the rejection carries no suggestion (the
    # "negotiation is hopeless" signal the shedder must tolerate).
    controller = make_controller(admission_test="exact")
    object_id = 0
    while True:
        decision = controller.admit(make_spec(object_id, window=ms(100)))
        if not decision.accepted:
            break
        object_id += 1
    assert decision.reason == REASON_UNSCHEDULABLE
    assert decision.suggestion is None
    n = controller.admitted_count
    assert controller.planned_utilization() > utilization_bound_rm(n + 1)


def test_larger_windows_admit_more_objects():
    def capacity(window):
        controller = make_controller()
        object_id = 0
        while controller.admit(make_spec(object_id, window=window)).accepted:
            object_id += 1
            if object_id > 500:
                break
        return object_id

    assert capacity(ms(100)) < capacity(ms(200)) < capacity(ms(400))


def test_admission_disabled_accepts_everything():
    controller = make_controller(admission_enabled=False)
    for object_id in range(200):
        decision = controller.admit(make_spec(object_id, window=ms(60),
                                              client_period=ms(50),
                                              delta_primary=ms(50)))
        assert decision.accepted
        assert decision.reason == "admission-disabled"


def test_exact_test_admits_more_than_utilization_test():
    """Harmonic update periods: the exact RM test accepts past the LL bound."""
    def capacity(test):
        controller = make_controller(admission_test=test)
        object_id = 0
        while controller.admit(make_spec(object_id, window=ms(100))).accepted:
            object_id += 1
            if object_id > 500:
                break
        return object_id

    assert capacity("exact") >= capacity("utilization")


def test_remove_frees_capacity():
    controller = make_controller()
    object_id = 0
    while controller.admit(make_spec(object_id, window=ms(60),
                                     client_period=ms(50),
                                     delta_primary=ms(50))).accepted:
        object_id += 1
    controller.remove(0)
    retry = make_spec(object_id + 1, window=ms(60), client_period=ms(50),
                      delta_primary=ms(50))
    assert controller.admit(retry).accepted


def test_update_period_of_unknown_raises():
    with pytest.raises(UnknownObjectError):
        make_controller().update_period_of(42)


# ---------------------------------------------------------------------------
# Inter-object constraints
# ---------------------------------------------------------------------------


def test_constraint_requires_admitted_objects():
    controller = make_controller()
    controller.admit(make_spec(0))
    decision = controller.add_constraint(InterObjectConstraint(0, 1, ms(80)))
    assert not decision.accepted
    assert decision.reason == REASON_UNKNOWN_OBJECT


def test_constraint_tightens_update_periods():
    controller = make_controller()
    # Clients fast enough for the constraint (Theorem 6 needs p <= δ_ij).
    controller.admit(make_spec(0, client_period=ms(40),
                               delta_primary=ms(40)))
    controller.admit(make_spec(1, client_period=ms(40),
                               delta_primary=ms(40)))
    before = controller.update_period_of(0)
    decision = controller.add_constraint(InterObjectConstraint(0, 1, ms(80)))
    assert decision.accepted
    after = controller.update_period_of(0)
    assert after < before
    assert after == pytest.approx(ms(80) / 2.0)


def test_constraint_rejected_when_client_periods_too_slow():
    controller = make_controller()
    controller.admit(make_spec(0, client_period=ms(100)))
    controller.admit(make_spec(1, client_period=ms(100)))
    decision = controller.add_constraint(InterObjectConstraint(0, 1, ms(50)))
    assert not decision.accepted
    assert decision.reason == REASON_INTEROBJECT_PERIOD


def test_constraint_does_not_tighten_already_tight_periods():
    controller = make_controller()
    # Window 60 ms -> transmission period 27.5 ms; clients at 50 ms satisfy
    # the 90 ms constraint, whose cap (45 ms) is looser than 27.5 ms.
    controller.admit(make_spec(0, window=ms(60), client_period=ms(50),
                               delta_primary=ms(50)))
    controller.admit(make_spec(1, window=ms(60), client_period=ms(50),
                               delta_primary=ms(50)))
    before = controller.update_period_of(0)
    decision = controller.add_constraint(InterObjectConstraint(0, 1, ms(90)))
    assert decision.accepted
    assert controller.update_period_of(0) == pytest.approx(before)


def test_constraint_caps_readmission_period():
    controller = make_controller()
    controller.admit(make_spec(0, client_period=ms(40),
                               delta_primary=ms(40)))
    controller.admit(make_spec(1, client_period=ms(40),
                               delta_primary=ms(40)))
    assert controller.add_constraint(
        InterObjectConstraint(0, 1, ms(80))).accepted
    # A later registration involved in a live constraint gets the cap too.
    controller._admitted.pop(0)  # simulate re-admission without dropping
    decision = controller.admit(make_spec(0, client_period=ms(40),
                                          delta_primary=ms(40)))
    assert decision.accepted
    assert controller.update_period_of(0) <= ms(80) / 2.0 + 1e-12


def test_remove_object_drops_its_constraints():
    controller = make_controller()
    controller.admit(make_spec(0))
    controller.admit(make_spec(1))
    controller.add_constraint(InterObjectConstraint(0, 1, ms(80)))
    controller.remove(0)
    assert controller.constraints() == []
