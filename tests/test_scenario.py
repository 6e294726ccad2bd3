from __future__ import annotations

import filecmp
import math
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from ewansim.protocol.params import default_vsn_configs
from ewansim.radio import time_on_air
from ewansim.scenario import (
    Scenario,
    ScenarioError,
    TraceGenParams,
    build_scenario,
    case_study_scenario,
    generate_topology,
    generate_traces,
    hop_depths,
    load_scenario,
    save_scenario,
    special_mh_traces,
    verify_scenario,
)

import oracles
from oracles import bfs_depths, edges_from_losses

KINDS = ("ob", "bn", "fh", "mh")
FSK_TX_DBM = 14.0
FSK_SENS_DBM = -104.0
LORA_TX_DBM = 14.0
LORA_SENS_DBM = -124.0
DAY_SAMPLES = 1440


def oracle_depths(links) -> dict[int, int]:
    edges = edges_from_losses(links.loss.tolist(), FSK_TX_DBM, FSK_SENS_DBM)
    found = bfs_depths(links.n, edges)
    return {v: found.get(v, -1) for v in range(1, links.n)}


class TestTopologyContracts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_package_depths_match_bfs_oracle(self, kind):
        mh_cfg = default_vsn_configs().multi_hop
        for seed in range(10):
            topo = generate_topology(kind, np.random.default_rng(seed))
            assert hop_depths(topo.links_multi_hop, mh_cfg) == oracle_depths(
                topo.links_multi_hop)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("blocked", [{1, 2}, {3}, {1, 4, 5}])
    def test_depths_around_blocked_nodes_match_bfs_oracle(self, kind,
                                                          blocked):
        mh_cfg = default_vsn_configs().multi_hop
        for seed in range(5):
            links = generate_topology(kind, np.random.default_rng(seed)
                                      ).links_multi_hop
            edges = edges_from_losses(links.loss.tolist(), FSK_TX_DBM,
                                      FSK_SENS_DBM)
            found = bfs_depths(links.n, {e for e in edges if not e & blocked})
            assert hop_depths(links, mh_cfg, blocked=blocked) == {
                v: found.get(v, -1) for v in range(1, links.n)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_node_reaches_the_host_over_short_links(self, kind):
        for seed in range(10):
            topo = generate_topology(kind, np.random.default_rng(seed))
            depths = oracle_depths(topo.links_multi_hop)
            assert all(d >= 1 for d in depths.values()), (kind, seed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_long_range_host_links_are_guaranteed(self, kind):
        for seed in range(10):
            topo = generate_topology(kind, np.random.default_rng(seed))
            links = topo.links_single_hop
            for v in range(1, links.n):
                # 2 dB above sensitivity ends the lossy ramp, so each
                # host link must clear the budget by at least that margin
                assert links.loss_db(0, v) <= (
                    LORA_TX_DBM - LORA_SENS_DBM) - 2.0

    def test_ob_has_at_least_ten_host_adjacent_nodes(self):
        for seed in range(20):
            topo = generate_topology("ob", np.random.default_rng(seed))
            depths = oracle_depths(topo.links_multi_hop)
            assert sum(1 for d in depths.values() if d == 1) >= 10

    def test_fh_is_at_most_two_hops_deep(self):
        for seed in range(20):
            topo = generate_topology("fh", np.random.default_rng(seed))
            depths = oracle_depths(topo.links_multi_hop)
            assert max(depths.values()) <= 2

    def test_bn_routes_everything_through_the_designated_pair(self):
        for seed in range(20):
            topo = generate_topology("bn", np.random.default_rng(seed))
            assert topo.bottleneck == (1, 2)
            losses = topo.links_multi_hop.loss.tolist()
            edges = edges_from_losses(losses, FSK_TX_DBM, FSK_SENS_DBM)
            adjacent = sorted(
                v for v in range(1, topo.links_multi_hop.n)
                if frozenset((0, v)) in edges)
            assert adjacent == [1, 2]
            pruned = {e for e in edges if not (e & {1, 2})}
            reachable = bfs_depths(topo.links_multi_hop.n, pruned)
            assert set(reachable) == {0}

    def test_mh_covers_depths_one_through_five(self):
        for seed in range(20):
            topo = generate_topology("mh", np.random.default_rng(seed))
            depths = oracle_depths(topo.links_multi_hop)
            histogram: dict[int, int] = {}
            for d in depths.values():
                histogram[d] = histogram.get(d, 0) + 1
            assert histogram == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}, seed

    def test_short_links_have_no_probabilistic_gray_zone(self):
        # every short-range pair is either firmly decodable or firmly
        # severed, so flood outcomes cannot depend on the random stream
        for kind in KINDS:
            topo = generate_topology(kind, np.random.default_rng(3))
            budget = FSK_TX_DBM - FSK_SENS_DBM
            loss = topo.links_multi_hop.loss
            n = topo.links_multi_hop.n
            for i in range(n):
                for j in range(i + 1, n):
                    assert (loss[i][j] <= budget - 2.0
                            or loss[i][j] > budget)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ScenarioError):
            generate_topology("ring", np.random.default_rng(0))


class TestTraceGenerator:
    GEN = TraceGenParams(rho=0.0, days=7)

    def test_samples_non_negative_and_night_is_dark(self):
        traces = generate_traces(self.GEN, 4, np.random.default_rng(1))
        for trace in traces.values():
            arr = trace.samples
            assert arr.shape == (7 * DAY_SAMPLES,)
            assert np.all(arr >= 0.0)
            for day in range(7):
                sl = arr[day * DAY_SAMPLES:(day + 1) * DAY_SAMPLES]
                assert np.all(sl[: 5 * 60] == 0.0)
                assert np.all(sl[21 * 60:] == 0.0)
                assert sl.sum() > 0.0

    def test_daily_energy_within_the_configured_range(self):
        traces = generate_traces(self.GEN, 4, np.random.default_rng(2))
        for trace in traces.values():
            days = trace.samples.reshape(7, DAY_SAMPLES)
            totals = days.sum(axis=1) * 60.0
            # hourly noise perturbs the nominal 1..10 J by a few percent
            assert np.all(totals > 0.5) and np.all(totals < 15.0)

    def test_full_correlation_gives_identical_windows(self):
        gen = replace(self.GEN, rho=1.0)
        traces = generate_traces(gen, 3, np.random.default_rng(3))
        masks = [t.samples > 0 for t in traces.values()]
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_zero_correlation_gives_distinct_windows(self):
        traces = generate_traces(self.GEN, 3, np.random.default_rng(3))
        masks = [t.samples > 0 for t in traces.values()]
        assert not np.array_equal(masks[0], masks[1])

    @staticmethod
    def _daily_energy_correlation(rho: float, seed: int) -> float:
        gen = TraceGenParams(rho=rho, days=1000)
        traces = generate_traces(gen, 2, np.random.default_rng(seed))
        totals = [t.samples.reshape(1000, DAY_SAMPLES).sum(axis=1)
                  for t in traces.values()]
        return float(np.corrcoef(totals[0], totals[1])[0, 1])

    def test_copula_correlation_extremes(self):
        assert abs(self._daily_energy_correlation(0.0, 5)) < 0.1
        assert self._daily_energy_correlation(0.95, 5) > 0.8

    def test_parameter_validation(self):
        with pytest.raises(ScenarioError):
            TraceGenParams(rho=1.5)
        with pytest.raises(ScenarioError):
            TraceGenParams(rho=0.0, days=0)
        with pytest.raises(ScenarioError):
            TraceGenParams(rho=0.0, e_avg_range_j=(0.0, 10.0))
        with pytest.raises(ScenarioError):
            TraceGenParams(rho=0.0, start_window_h=(5.0, 17.0))


class TestDeepNodeTraces:
    DEPTHS = {1: 1, 2: 1, 3: 2, 4: 4}

    def test_deep_tier_scaled_sixfold_before_noise(self):
        gen = TraceGenParams(rho=0.0, days=5, special_deep=True,
                             noise_sigma=0.0)
        traces = special_mh_traces(gen, self.DEPTHS, np.random.default_rng(4))
        near = traces[1].samples.reshape(5, DAY_SAMPLES).sum(axis=1) * 60.0
        deep = traces[3].samples.reshape(5, DAY_SAMPLES).sum(axis=1) * 60.0
        # the recipe scales the continuous window; 60 s discretization
        # moves each daily total by less than a sample on either edge
        assert np.all(np.abs(deep / near - 6.0) < 6.0 * 0.02)

    def test_same_tier_shares_the_daily_draw(self):
        gen = TraceGenParams(rho=0.0, days=5, special_deep=True,
                             noise_sigma=0.0)
        traces = special_mh_traces(gen, self.DEPTHS, np.random.default_rng(4))
        assert np.array_equal(traces[1].samples, traces[2].samples)
        assert np.array_equal(traces[3].samples, traces[4].samples)

    def test_deep_window_widens_around_the_near_window(self):
        gen = TraceGenParams(rho=0.0, days=5, special_deep=True,
                             noise_sigma=0.0)
        traces = special_mh_traces(gen, self.DEPTHS, np.random.default_rng(4))
        near_mask = traces[1].samples > 0
        deep_mask = traces[3].samples > 0
        assert np.all(deep_mask[near_mask])
        assert deep_mask.sum() > near_mask.sum()
        for day in range(5):
            sl = slice(day * DAY_SAMPLES, (day + 1) * DAY_SAMPLES)
            near_idx = np.flatnonzero(near_mask[sl])
            deep_idx = np.flatnonzero(deep_mask[sl])
            assert near_idx[0] - deep_idx[0] <= 3 * 60
            assert deep_idx[-1] - near_idx[-1] <= 3 * 60

    def test_build_scenario_rescales_the_base_range(self):
        sc = build_scenario("mh", rho=0.0, stream=np.random.default_rng(6),
                            special_deep=True)
        lo, hi = sc.trace_gen.e_avg_range_j
        assert lo == pytest.approx(1.0 / 6.0)
        assert hi == pytest.approx(10.0 / 6.0)

    def test_special_shaping_is_mh_only(self):
        with pytest.raises(ScenarioError):
            build_scenario("ob", rho=0.0, stream=np.random.default_rng(6),
                           special_deep=True)


class TestTracesMatchReference:
    """The one-array recipe against the per-sample generators it replaced:
    equal samples bit for bit, and the stream left in the same state."""

    @staticmethod
    def _check(make, reference, seed):
        g, g_ref = (np.random.default_rng(seed) for _ in range(2))
        got, want = make(g), reference(g_ref)
        assert list(got) == list(want)
        for n, trace in want.items():
            assert got[n].samples.tobytes() == trace.samples.tobytes()
            assert got[n].resolution_s == trace.resolution_s
        assert g.bit_generator.state == g_ref.bit_generator.state

    @pytest.mark.parametrize("sigma", (0.0, 0.1))
    @pytest.mark.parametrize("days", (1, 3))
    @pytest.mark.parametrize("n", (1, 4, 15))
    @pytest.mark.parametrize("rho", (0.0, 0.5, 1.0))
    def test_copula_traces(self, rho, n, days, sigma):
        gen = TraceGenParams(rho=rho, days=days, noise_sigma=sigma)
        self._check(lambda g: generate_traces(gen, n, g),
                    lambda g: oracles.reference_generate_traces(gen, n, g),
                    seed=n * 10 + days)

    @pytest.mark.parametrize("sigma", (0.0, 0.1))
    @pytest.mark.parametrize("days", (1, 3))
    def test_deep_tier_traces(self, days, sigma):
        # near (depth 1), deep (2 and 4) and unreachable (-1) nodes
        depths = {2: 1, 3: -1, 5: 2, 6: 4, 7: 1}
        gen = TraceGenParams(rho=0.0, days=days, noise_sigma=sigma,
                             special_deep=True)
        self._check(lambda g: special_mh_traces(gen, depths, g),
                    lambda g: oracles.reference_special_mh_traces(
                        gen, depths, g),
                    seed=days)


class TestBuildAndVerify:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rho", (0.0, 0.95))
    def test_evaluation_scenarios_verify_clean(self, kind, rho):
        sc = build_scenario(kind, rho=rho, stream=np.random.default_rng(9))
        assert verify_scenario(sc) == []
        assert sc.horizon_s == 7 * 86400.0
        assert sc.trace_gen.rho == rho

    def test_scenario_needs_exactly_one_trace_source(self):
        sc = build_scenario("fh", rho=0.0, stream=np.random.default_rng(9))
        with pytest.raises(ScenarioError):
            replace(sc, traces={}, trace_gen=sc.trace_gen)
        with pytest.raises(ScenarioError):
            replace(sc, traces=None, trace_gen=None)

    def test_short_recipe_cannot_cover_a_long_horizon(self):
        sc = build_scenario("fh", rho=0.0, stream=np.random.default_rng(9),
                            days=1)
        bad = replace(sc, horizon_s=2 * 86400.0)
        problems = verify_scenario(bad)
        assert any("horizon" in p for p in problems)


class TestCaseStudyScenario:
    def test_structure(self):
        sc = case_study_scenario()
        assert sc.n_nodes == 2
        assert verify_scenario(sc) == []
        assert sc.params.period_t == 180.0
        assert sc.params.delta_t == 5.0
        assert sc.horizon_s == 12 * 3600.0
        assert sc.energy_params.charge_efficiency == 0.85
        assert sc.hop_depths() == {1: 1, 2: 2}

    def test_node_two_harvests_more_and_starts_earlier(self):
        sc = case_study_scenario()
        e1 = sc.traces[1].samples.sum() * 60.0
        e2 = sc.traces[2].samples.sum() * 60.0
        assert e2 > e1
        first1 = np.flatnonzero(sc.traces[1].samples > 0)[0]
        first2 = np.flatnonzero(sc.traces[2].samples > 0)[0]
        assert first2 < first1

    def test_traces_cover_the_horizon(self):
        sc = case_study_scenario()
        for trace in sc.traces.values():
            assert trace.samples.size * trace.resolution_s >= sc.horizon_s


class TestPersistence:
    def test_generated_scenario_round_trips(self, tmp_path):
        sc = build_scenario("bn", rho=0.95, stream=np.random.default_rng(12))
        path = save_scenario(sc, str(tmp_path / "bn"))
        loaded = load_scenario(path)
        assert loaded.kind == sc.kind
        assert loaded.n_nodes == sc.n_nodes
        assert np.array_equal(loaded.links_multi_hop.loss,
                              sc.links_multi_hop.loss)
        assert np.array_equal(loaded.links_single_hop.loss,
                              sc.links_single_hop.loss)
        assert loaded.params == sc.params
        assert loaded.trace_gen == sc.trace_gen
        assert loaded.bottleneck == sc.bottleneck
        assert loaded.energy_params == sc.energy_params
        assert loaded.horizon_s == sc.horizon_s

    def test_radio_framing_fields_round_trip(self, tmp_path):
        # every framing field sets a time on air, and with it the slot
        # lengths of every round on that channel
        sc = build_scenario("fh", rho=0.0, stream=np.random.default_rng(12))
        cfgs = sc.vsn_configs
        sc.vsn_configs = replace(
            cfgs,
            single_hop=replace(cfgs.single_hop, coding_rate=4,
                               preamble_symbols=12, explicit_header=False),
            multi_hop=replace(cfgs.multi_hop, preamble_bytes=6))
        loaded = load_scenario(save_scenario(sc, str(tmp_path / "fh")))
        assert loaded.vsn_configs == sc.vsn_configs
        assert (time_on_air(loaded.vsn_configs.single_hop, 20)
                == time_on_air(sc.vsn_configs.single_hop, 20))

    def test_fixed_traces_round_trip_bit_identically(self, tmp_path):
        sc = case_study_scenario()
        path = save_scenario(sc, str(tmp_path / "case"))
        loaded = load_scenario(path)
        for v in (1, 2):
            assert np.array_equal(loaded.traces[v].samples,
                                  sc.traces[v].samples)
            assert loaded.traces[v].resolution_s == sc.traces[v].resolution_s

    def test_saving_twice_writes_identical_bytes(self, tmp_path):
        sc = case_study_scenario()
        p1 = save_scenario(sc, str(tmp_path / "a"))
        p2 = save_scenario(sc, str(tmp_path / "b"))
        assert filecmp.cmp(p1, p2, shallow=False)
        assert filecmp.cmp(os.path.join(tmp_path, "a", "traces", "node01.csv"),
                           os.path.join(tmp_path, "b", "traces", "node01.csv"),
                           shallow=False)

    def test_missing_file_is_named(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such scenario"):
            load_scenario(str(tmp_path / "nowhere"))

    @staticmethod
    def _tamper(tmp_path, mutate) -> str:
        sc = build_scenario("mh", rho=0.0, stream=np.random.default_rng(12))
        path = save_scenario(sc, str(tmp_path / "mh"))
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        mutate(doc)
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        return path

    def test_broken_long_range_link_is_named(self, tmp_path):
        def mutate(doc):
            doc["links_single_hop"][0][5] = 150.0
            doc["links_single_hop"][5][0] = 150.0

        path = self._tamper(tmp_path, mutate)
        with pytest.raises(ScenarioError, match="long-range host link"):
            load_scenario(path)

    def test_unreachable_node_is_named(self, tmp_path):
        def mutate(doc):
            for j in range(len(doc["links_multi_hop"])):
                if j != 15:
                    doc["links_multi_hop"][15][j] = 140.0
                    doc["links_multi_hop"][j][15] = 140.0

        path = self._tamper(tmp_path, mutate)
        with pytest.raises(ScenarioError, match="unreachable"):
            load_scenario(path)

    def test_missing_key_reports_a_malformed_file(self, tmp_path):
        def mutate(doc):
            del doc["params"]

        path = self._tamper(tmp_path, mutate)
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario(path)

    def test_bottleneck_contract_checked_on_load(self, tmp_path):
        sc = build_scenario("bn", rho=0.0, stream=np.random.default_rng(12))
        path = save_scenario(sc, str(tmp_path / "bn"))
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["bottleneck"] = [1, 3]
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        with pytest.raises(ScenarioError, match="bottleneck") as exc:
            load_scenario(path)
        assert str(exc.value) == (
            "bn contract: host neighbors [1, 2] are not the designated "
            "bottleneck pair [1, 3]; bn contract: removing the bottleneck "
            "pair leaves [2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15] "
            "connected to the host")

    def test_trace_csv_header_is_checked(self, tmp_path):
        sc = case_study_scenario()
        save_scenario(sc, str(tmp_path / "case"))
        csv_path = tmp_path / "case" / "traces" / "node01.csv"
        body = csv_path.read_text().splitlines()
        body[0] = "seconds,watts"
        csv_path.write_text("\n".join(body) + "\n")
        with pytest.raises(ScenarioError, match="header"):
            load_scenario(str(tmp_path / "case"))
