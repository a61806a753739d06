"""Ablation C: RTPB vs window-consistent vs eager vs active replication.

The comparison the paper's related-work discussion implies:

- **active** (state-machine, the MARS/RTCAST style) — every write runs an
  agreement round; response waits for the whole group;
- **eager** (synchronous passive) — response waits for the backup's ack;
- **window-consistent** [22] — fast responses, but transmission load is
  coupled to the write rate;
- **RTPB** — fast responses AND transmission load capped by the window.
"""

from repro.baselines import DISCIPLINES
from repro.core.service import RTPBService
from repro.core.spec import ServiceConfig
from repro.metrics.collectors import response_time_stats
from repro.metrics.report import Table
from repro.units import ms, to_ms
from repro.workload.generator import homogeneous_specs

HORIZON = 10.0
WRITE_PERIODS = (ms(20.0), ms(100.0))

SYSTEMS = ("rtpb", "window_consistent", "eager", "active", "semi_active")


def run_once(name, write_period):
    service = RTPBService(server_class=DISCIPLINES[name], seed=6,
                          config=ServiceConfig())
    specs = homogeneous_specs(6, window=ms(200.0),
                              client_period=write_period)
    service.register_all(specs)
    service.create_client(specs)
    service.run(HORIZON)
    stats = response_time_stats(service, 2.0)
    sends = len(service.trace.select("update_sent"))
    return stats.mean, sends


def run_comparison():
    table = Table("RTPB vs baselines (6 objects, 200 ms window)",
                  ["system", "write period (ms)", "mean response (ms)",
                   "updates sent"])
    results = {}
    for write_period in WRITE_PERIODS:
        for name in SYSTEMS:
            mean_response, sends = run_once(name, write_period)
            table.add_row(name, to_ms(write_period), to_ms(mean_response),
                          sends)
            results[(name, write_period)] = (mean_response, sends)
    return table, results


def test_baseline_comparison(benchmark, record_table):
    table, results = benchmark.pedantic(run_comparison, rounds=1,
                                        iterations=1)
    record_table("ablation_baselines", table.render())
    for write_period in WRITE_PERIODS:
        rtpb_response, rtpb_sends = results[("rtpb", write_period)]
        wc_response, wc_sends = results[("window_consistent", write_period)]
        eager_response, _ = results[("eager", write_period)]
        active_response, _ = results[("active", write_period)]
        semi_response, _ = results[("semi_active", write_period)]
        # Eager pays the round trip on every write.
        assert eager_response > 3 * rtpb_response
        # Active replication pays agreement: at least as slow as eager - ε.
        assert active_response > 3 * rtpb_response
        # The hybrid answers locally: passive-grade response times.
        assert semi_response < active_response / 3
        # Window-consistent responds as fast as RTPB...
        assert wc_response < 3 * rtpb_response + ms(1.0)
    # ...but under fast writers sends far more updates than RTPB.
    _, rtpb_fast_sends = results[("rtpb", WRITE_PERIODS[0])]
    _, wc_fast_sends = results[("window_consistent", WRITE_PERIODS[0])]
    assert wc_fast_sends > 2 * rtpb_fast_sends
