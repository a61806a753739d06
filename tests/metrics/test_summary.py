"""Unit tests for the one-call run summary."""

import pytest

from repro.metrics.summary import summarize_run
from repro.units import ms
from repro.workload.scenarios import Scenario, build_scenario


def test_summary_collects_everything():
    service = build_scenario(Scenario(n_objects=3, horizon=6.0, seed=4))
    service.run(6.0)
    summary = summarize_run(service, horizon=6.0)
    assert summary.admitted == 3
    assert summary.response.count > 80
    assert summary.delivery_rate > 0.9
    assert summary.avg_max_distance == 0.0  # no loss
    assert summary.backup_violations == 0
    assert summary.failover is None


def test_summary_reports_failover():
    from repro.core.service import RTPBService
    from repro.workload.generator import homogeneous_specs

    service = RTPBService(seed=4)
    specs = homogeneous_specs(2, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.start()
    service.injector.crash_at(3.0, service.primary_server)
    service.run(8.0)
    summary = summarize_run(service, horizon=8.0)
    assert summary.failover is not None
    assert summary.failover > 0


def test_summary_renders_as_table():
    service = build_scenario(Scenario(n_objects=2, horizon=4.0, seed=4))
    service.run(4.0)
    rendered = summarize_run(service, horizon=4.0).render()
    assert "Run summary" in rendered
    assert "mean response (ms)" in rendered
    assert "delta_B violations at backup" in rendered


def test_summary_with_no_responses_shows_dashes():
    from repro.core.service import RTPBService
    from repro.workload.generator import homogeneous_specs

    service = RTPBService(seed=4)
    service.register_all(homogeneous_specs(1, window=ms(200),
                                           client_period=ms(100)))
    service.run(1.0)  # no client: no writes, no responses
    summary = summarize_run(service, horizon=1.0, warmup=0.0)
    assert summary.response.count == 0
    assert "-" in summary.render()


def test_summary_table_includes_tail_percentile_rows():
    service = build_scenario(Scenario(n_objects=2, horizon=4.0, seed=4))
    service.run(4.0)
    rendered = summarize_run(service, horizon=4.0).render()
    assert "p99 response (ms)" in rendered
    assert "p999 response (ms)" in rendered
    # No readers ran: the read block stays out of the table entirely.
    assert "read staleness" not in rendered


def test_summary_read_block_appears_when_readers_ran():
    scenario = Scenario(n_objects=2, horizon=4.0, seed=4, n_replicas=1,
                        read_period=ms(10.0))
    service = build_scenario(scenario)
    service.run(4.0)
    summary = summarize_run(service, horizon=4.0)
    assert summary.read_staleness.count > 0
    rendered = summary.render()
    assert "p50 read staleness (ms)" in rendered
    assert "p99 read staleness (ms)" in rendered
    assert "p999 read staleness (ms)" in rendered
    assert "primary fallback rate" in rendered
