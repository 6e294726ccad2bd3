from __future__ import annotations

import csv
import filecmp

import numpy as np
import pytest

from ewansim.campaign import (
    CampaignResult,
    aggregate_network,
    aggregate_per_node,
    run_campaign,
    write_campaign_csvs,
)
from ewansim.metrics import (
    EVENT_FORMATS,
    NodeMetrics,
    compute_all_metrics,
    compute_node_metrics,
    event_line,
    write_events_log,
    write_metrics_csv,
    write_rounds_csv,
)
from ewansim.protocol.params import ProtocolParams
from ewansim.protocol.records import NodeRoundStats, RoundRecord, RunEvent
from ewansim.protocol.run import PROTOCOLS, RunHooks, RunResult, simulate_run
from ewansim.scenario import build_scenario

from helpers import flat_scenario
from oracles import intersection_length, union_length

METRICS_HEADER = ["node", "e_in_j", "packets", "t_active_s", "t_com_s",
                  "t_sim_s", "efficiency", "liveness", "downtime"]
ROUNDS_HEADER = ["vsn", "round_index", "round_start_s", "node",
                 "received_first_schedule", "packets_delivered",
                 "packets_attempted", "energy_tx_j", "energy_listen_j",
                 "energy_idle_j"]


def synthetic_result(records, active, horizon_s=2000.0, e_in=4.0,
                     n_nodes=1) -> RunResult:
    return RunResult(
        protocol="ewan",
        horizon_s=horizon_s,
        n_nodes=n_nodes,
        params=ProtocolParams(),
        records=records,
        ledgers={n: {"e_in": e_in} for n in range(1, n_nodes + 1)},
        active_intervals={n: list(active.get(n, ()))
                          for n in range(1, n_nodes + 1)},
        events=[],
        initial_charge_j=0.0,
        final_storage_j={n: 0.0 for n in range(1, n_nodes + 1)},
        conservation_j={n: 0.0 for n in range(1, n_nodes + 1)},
    )


def round_rec(vsn, k, start, node, received, delivered):
    return RoundRecord(vsn=vsn, round_index=k, round_start_s=start, nodes={
        node: NodeRoundStats(received_first_schedule=received,
                             packets_delivered=delivered,
                             packets_attempted=delivered),
    })


class TestMetricDefinitions:
    def test_ratios_follow_their_definitions(self):
        m = NodeMetrics(node=1, e_in_j=5.0, packets=40, t_active_s=900.0,
                        t_com_s=600.0, t_sim_s=2000.0)
        assert m.efficiency == pytest.approx(8.0)
        assert m.liveness == pytest.approx(0.3)
        assert m.downtime == pytest.approx(0.15)
        assert m.value("efficiency") == m.efficiency
        with pytest.raises(ValueError):
            m.value("throughput")

    def test_zero_input_energy_means_zero_efficiency(self):
        m = NodeMetrics(node=1, e_in_j=0.0, packets=0, t_active_s=0.0,
                        t_com_s=0.0, t_sim_s=2000.0)
        assert m.efficiency == 0.0
        assert m.liveness == 0.0
        assert m.downtime == 0.0

    def test_each_received_round_covers_one_period(self):
        res = synthetic_result(
            [round_rec("multi_hop", 3, 900.0, 1, True, 1)],
            {1: [(0.0, 2000.0)]})
        m = compute_node_metrics(res, 1)
        assert m.t_com_s == pytest.approx(300.0)
        assert m.t_active_s == pytest.approx(2000.0)
        assert m.packets == 1

    def test_same_cycle_fallback_rounds_are_not_double_counted(self):
        # a multi-hop and a single-hop round of the same cycle overlap
        # for all but delta_t; the union spans 305 s, not 600
        res = synthetic_result(
            [round_rec("multi_hop", 3, 900.0, 1, True, 0),
             round_rec("single_hop", 3, 905.0, 1, True, 1)],
            {1: [(0.0, 2000.0)]})
        m = compute_node_metrics(res, 1)
        assert m.t_com_s == pytest.approx(305.0)

    def test_round_span_clipped_at_energy_death(self):
        res = synthetic_result(
            [round_rec("multi_hop", 3, 900.0, 1, True, 1)],
            {1: [(0.0, 1000.0)]})
        m = compute_node_metrics(res, 1)
        assert m.t_com_s == pytest.approx(100.0)
        assert m.t_active_s == pytest.approx(1000.0)

    def test_round_span_clipped_at_the_horizon(self):
        res = synthetic_result(
            [round_rec("multi_hop", 6, 1800.0, 1, True, 1)],
            {1: [(0.0, 2000.0)]})
        m = compute_node_metrics(res, 1)
        assert m.t_com_s == pytest.approx(200.0)

    def test_unreceived_rounds_contribute_packets_only(self):
        res = synthetic_result(
            [round_rec("multi_hop", 3, 900.0, 1, False, 0)],
            {1: [(0.0, 2000.0)]})
        m = compute_node_metrics(res, 1)
        assert m.t_com_s == 0.0


class TestMetricsAgainstIntervalOracle:
    def test_live_run_matches_independent_interval_arithmetic(self):
        sc = flat_scenario(2, horizon_s=2400.0)
        res = simulate_run(sc, "ewan", master_seed=11)
        period = sc.params.period_t
        for node in (1, 2):
            m = compute_node_metrics(res, node)
            active = [(a, min(b, sc.horizon_s))
                      for a, b in res.active_intervals[node]]
            spans = [
                (r.round_start_s, min(r.round_start_s + period, sc.horizon_s))
                for r in res.records
                if node in r.nodes and r.nodes[node].received_first_schedule
            ]
            assert m.t_active_s == pytest.approx(union_length(active))
            assert m.t_com_s == pytest.approx(
                intersection_length(spans, active))
            assert m.packets == res.delivered_by_node().get(node, 0)
            assert m.e_in_j == res.ledgers[node]["e_in"]
            assert 0.0 <= m.t_com_s <= m.t_active_s <= m.t_sim_s

    def test_host_log_totals_match_per_node_metrics(self):
        sc = flat_scenario(3, horizon_s=2400.0)
        res = simulate_run(sc, "ewan", master_seed=23)
        metrics = compute_all_metrics(res)
        host_total = sum(r.delivered_total for r in res.records)
        assert host_total == sum(m.packets for m in metrics.values())
        assert host_total > 0


class TestCsvWriters:
    def test_metrics_csv_schema_and_float_round_trip(self, tmp_path):
        sc = flat_scenario(2)
        res = simulate_run(sc, "ewan", master_seed=11)
        metrics = compute_all_metrics(res)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), metrics)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + sc.n_nodes
        for row in rows[1:]:
            node = int(row[0])
            assert float(row[1]) == metrics[node].e_in_j
            assert int(row[2]) == metrics[node].packets
            assert float(row[6]) == metrics[node].efficiency

    def test_rounds_csv_schema(self, tmp_path):
        sc = flat_scenario(2)
        res = simulate_run(sc, "ewan", master_seed=11)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(str(path), res)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ROUNDS_HEADER
        assert len(rows) == 1 + sum(len(r.nodes) for r in res.records)
        assert {row[0] for row in rows[1:]} <= {"multi_hop", "single_hop"}

    def test_events_log_is_time_sorted(self, tmp_path):
        sc = flat_scenario(2)
        res = simulate_run(sc, "ewan", master_seed=11)
        path = tmp_path / "events.log"
        write_events_log(str(path), res)
        lines = path.read_text().splitlines()
        stamps = [float(line.split(" ", 1)[0]) for line in lines]
        assert stamps == sorted(stamps)
        assert any("transition" in line for line in lines)
        assert any("power_on" in line for line in lines)


# one RunEvent of each kind and the line the run wrote for it before
# events were typed records
EVENT_LINES = [
    (RunEvent(12.5, "power_on", 3, (0.12345678,)),
     "12.500000 power_on node=3 e=0.123457"),
    (RunEvent(4000.0000004, "death", 2, ()), "4000.000000 death node=2"),
    (RunEvent(31.25, "sync_ok", 1, ("mh", 2, 285.83791)),
     "31.250000 sync_ok node=1 mh_round=2 tau1=285.838"),
    (RunEvent(31.25, "sync_ok", 1, ("sh", 4)),
     "31.250000 sync_ok node=1 sh_round=4"),
    (RunEvent(7.1234565, "sync_fail", 2, ()), "7.123456 sync_fail node=2"),
    (RunEvent(905.0, "join", 1, ("sh", "mh_exit", 3)),
     "905.000000 join node=1 vsn=sh via=mh_exit k=3"),
    (RunEvent(600.0, "sched_miss", 1, ("mh", 2, 1)),
     "600.000000 sched_miss node=1 vsn=mh k=2 missed=1"),
    (RunEvent(1500.0, "contend_won", 2, ("sh", 5)),
     "1500.000000 contend_won node=2 vsn=sh k=5"),
    (RunEvent(2100.0, "round", 0, ("mh", 7, 3, 4, 2)),
     "2100.000000 round mh k=7 slots=3 present=4 delivered=2"),
    (RunEvent(905.0, "transition", 1,
              ("multi_hop", "single_hop", "received_sh_schedule")),
     "905.000000 transition node=1 multi_hop->single_hop "
     "(received_sh_schedule)"),
]


class TestEventLog:
    @pytest.mark.parametrize("ev, line", EVENT_LINES,
                             ids=[ev.kind for ev, _ in EVENT_LINES])
    def test_event_line_matches_the_log_text(self, ev, line):
        assert event_line(ev) == line

    def test_every_kind_has_a_case(self):
        assert {ev.kind for ev, _ in EVENT_LINES} == set(EVENT_FORMATS)

    def test_event_comes_before_transition_at_one_printed_time(self,
                                                               tmp_path):
        # emitted transition first, and 0.1 us later than the event; both
        # print as 5.000000
        events = [
            RunEvent(5.0000004, "transition", 1,
                     ("bootstrapping", "multi_hop", "received_mh_schedule")),
            RunEvent(5.0000001, "death", 2, ()),
            RunEvent(4.5, "transition", 2,
                     ("off", "bootstrapping", "energy_start")),
            RunEvent(5.0, "death", 3, ()),
        ]
        res = synthetic_result([], {})
        res.events = events
        path = tmp_path / "events.log"
        write_events_log(str(path), res)
        assert path.read_text().splitlines() == [
            "4.500000 transition node=2 off->bootstrapping (energy_start)",
            "5.000000 death node=2",
            "5.000000 death node=3",
            "5.000000 transition node=1 bootstrapping->multi_hop "
            "(received_mh_schedule)",
        ]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_runs_emit_only_kinds_the_renderer_knows(self, protocol):
        hooks = RunHooks(blocked_multi_hop={1: [(2, 10 ** 6)]},
                         blocked_single_hop={2: [(3, 4)]})
        res = simulate_run(flat_scenario(3, harvest_w=5e-3), protocol,
                           master_seed=11, hooks=hooks)
        kinds = {ev.kind for ev in res.events}
        assert {"power_on", "round", "transition"} <= kinds
        assert kinds <= set(EVENT_FORMATS)
        for ev in res.events:
            event_line(ev)


class TestCampaign:
    def test_sample_layout_and_mean(self):
        sc = flat_scenario(2)
        camp = run_campaign(sc, ("ewan",), n_runs=3, master_seed=9)
        samples = camp.metric_samples("ewan", "efficiency")
        assert len(samples) == 3 * sc.n_nodes
        assert camp.mean("ewan", "efficiency") == pytest.approx(
            float(np.mean(samples)))
        assert len(camp.node_samples("ewan", 1, "liveness")) == 3
        # runs outer, nodes inner
        expected = [camp.runs[("ewan", i)][n].value("efficiency")
                    for i in range(3) for n in (1, 2)]
        assert samples == expected

    def test_input_validation(self):
        sc = flat_scenario(1)
        with pytest.raises(ValueError, match="unknown protocol"):
            run_campaign(sc, ("lorawan",), n_runs=1, master_seed=9)
        with pytest.raises(ValueError, match="at least one run"):
            run_campaign(sc, ("ewan",), n_runs=0, master_seed=9)

    def test_duplicate_protocol_is_rejected(self):
        with pytest.raises(ValueError, match="ewan is given twice"):
            run_campaign(flat_scenario(1), ("ewan", "ewan"), n_runs=1,
                         master_seed=9)

    def test_shared_traces_match_runs_drawing_their_own(self, tmp_path):
        # the campaign draws each run's traces once for all protocols; a
        # reference built from lone runs, each drawing its own, must give
        # byte-identical CSVs
        sc = build_scenario("fh", rho=0.0, stream=np.random.default_rng(7),
                            days=1)
        protocols = ("ewan", "single_hop")
        camp = run_campaign(sc, protocols, n_runs=2, master_seed=9)
        ref = CampaignResult(protocols=protocols, n_runs=2, master_seed=9,
                             n_nodes=sc.n_nodes)
        for p in protocols:
            for i in range(2):
                ref.runs[(p, i)] = compute_all_metrics(
                    simulate_run(sc, p, 9, run_index=i))
        paths = write_campaign_csvs(camp, str(tmp_path / "camp"))
        ref_paths = write_campaign_csvs(ref, str(tmp_path / "ref"))
        for pa, pb in zip(paths, ref_paths):
            assert filecmp.cmp(pa, pb, shallow=False)

        # a protocol run first must leave the shared traces untouched
        swapped = run_campaign(sc, protocols[::-1], n_runs=2, master_seed=9)
        assert swapped.runs == camp.runs

    def test_campaigns_with_equal_seeds_are_identical(self):
        sc = flat_scenario(2)
        a = run_campaign(sc, ("ewan", "single_hop"), n_runs=2, master_seed=9)
        b = run_campaign(sc, ("ewan", "single_hop"), n_runs=2, master_seed=9)
        assert a.runs == b.runs

    def test_aggregate_rows_from_hand_built_campaign(self):
        def nm(node, packets, e_in):
            return NodeMetrics(node=node, e_in_j=e_in, packets=packets,
                               t_active_s=50.0, t_com_s=25.0, t_sim_s=100.0)

        camp = CampaignResult(protocols=("ewan",), n_runs=2, master_seed=0,
                              n_nodes=2)
        camp.runs[("ewan", 0)] = {1: nm(1, 4, 2.0), 2: nm(2, 9, 3.0)}
        camp.runs[("ewan", 1)] = {1: nm(1, 8, 2.0), 2: nm(2, 3, 3.0)}
        rows = {r["metric"]: r for r in aggregate_network(camp)}
        assert rows["efficiency"]["n_samples"] == 4
        assert rows["efficiency"]["mean"] == pytest.approx(
            (2.0 + 3.0 + 4.0 + 1.0) / 4.0)
        assert rows["liveness"]["mean"] == pytest.approx(0.25)
        per = aggregate_per_node(camp)
        eff1 = next(r for r in per
                    if r["node"] == 1 and r["metric"] == "efficiency")
        assert eff1["mean"] == pytest.approx(3.0)
        assert eff1["median"] == pytest.approx(3.0)

    def test_campaign_csvs_schema_and_determinism(self, tmp_path):
        sc = flat_scenario(2)
        camp = run_campaign(sc, ("ewan",), n_runs=2, master_seed=9)
        paths_a = write_campaign_csvs(camp, str(tmp_path / "a"))
        paths_b = write_campaign_csvs(
            run_campaign(sc, ("ewan",), n_runs=2, master_seed=9),
            str(tmp_path / "b"))
        for pa, pb in zip(paths_a, paths_b):
            assert filecmp.cmp(pa, pb, shallow=False)
        with open(paths_a[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["protocol", "metric", "mean", "q1", "median", "q3",
                           "n_samples"]
        assert len(rows) == 1 + 3
        with open(paths_a[1], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["protocol", "node", "metric", "mean", "q1",
                           "median", "q3"]
        assert len(rows) == 1 + sc.n_nodes * 3
