from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewansim.energy import (
    LEDGER_CATEGORIES,
    EnergyParams,
    HarvestTrace,
    NodeAccount,
)
from ewansim.engine import RandomStreams
from ewansim.protocol.run import ProtocolRun, simulate_run

import oracles
from helpers import flat_scenario, transitions

PARAMS = EnergyParams()


def account(samples, e0=0.35, capacity_b=0.7, params=PARAMS,
            resolution_s=60.0) -> NodeAccount:
    return NodeAccount(1, e0, capacity_b, params,
                       HarvestTrace(samples, resolution_s))


class TestStepStorage:
    """NodeAccount's storage step: charge, discharge, clamp to [0, B]."""

    def test_upper_clamp(self):
        acct = account(np.full(10, 1e-2), e0=0.6)
        assert acct.integrate(60.0, 0.0, "sleep", True) is None
        assert acct.e_cap == 0.7
        assert acct.e_wasted == pytest.approx(0.6 + 0.6 - 0.7)

    def test_lower_clamp(self):
        # die=False is the off-state monitor: it clamps at zero and the
        # clock keeps moving
        acct = account(np.zeros(10), e0=0.1)
        assert acct.integrate(60.0, 0.9e-2, "boot", False) is None
        assert acct.e_cap == 0.0
        assert acct.clock_s == 60.0
        assert acct.drawn("boot") == pytest.approx(0.1)

    def test_empty_store_returns_the_death_time(self):
        # 0.1 J against a 10 mW draw and 2 mW harvest empties at 12.5 s
        acct = account(np.full(10, 2e-3), e0=0.1)
        died = acct.integrate(60.0, 0.9e-2, "tx", True)
        assert died == pytest.approx(12.5)
        assert acct.clock_s == died
        assert acct.e_cap == 0.0
        assert acct.drawn("tx") == pytest.approx(0.1 + 2e-3 * 12.5)

    def test_interior(self):
        acct = account(np.full(10, 1e-3), e0=0.2)
        assert acct.integrate(60.0, 0.9 * 5e-4, "idle", True) is None
        assert acct.e_cap == pytest.approx(0.2 + 0.06 - 0.03)

    @given(
        e=st.floats(min_value=0, max_value=0.7),
        p_in=st.floats(min_value=0, max_value=2e-2),
        p_load=st.floats(min_value=0, max_value=2e-2),
        gap=st.floats(min_value=0, max_value=200.0),
        die=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_result_always_in_bounds(self, e, p_in, p_load, gap, die):
        acct = account([p_in, p_in / 2, 0.0, p_in], e0=e)
        acct.integrate(gap, p_load, "tx", die)
        assert 0.0 <= acct.e_cap <= 0.7


class TestHarvestTrace:
    """Harvest integrals as NodeAccount books them in the ledger's e_in."""

    def test_constant_trace_integral(self):
        acct = account(np.full(10, 1e-3))
        acct.integrate(100.0, 0.0, "sleep", True)
        assert acct.e_in == pytest.approx(0.1)

    def test_empty_interval(self):
        acct = account(np.full(10, 1e-3))
        acct.integrate(42.0, 0.0, "sleep", True)
        before = acct.e_in
        assert acct.integrate(42.0, 0.0, "sleep", True) is None
        assert acct.e_in == before
        assert acct.clock_s == 42.0

    def test_zero_trace_any_window(self):
        acct = account(np.zeros(100))
        acct.integrate(6000.0, 0.0, "sleep", True)
        assert acct.e_in == 0.0

    def test_charge_efficiency_scales(self):
        acct = account(np.full(10, 1e-3),
                       params=EnergyParams(charge_efficiency=0.85))
        acct.integrate(100.0, 0.0, "sleep", True)
        assert acct.e_in == pytest.approx(0.085)

    def test_no_harvest_beyond_the_span(self):
        acct = account(np.full(10, 1e-3))
        acct.integrate(1000.0, 0.0, "sleep", True)
        assert acct.e_in == pytest.approx(0.6)

    def test_piecewise_constant_partial_samples(self):
        acct = account([1e-3, 3e-3])
        acct.integrate(30.0, 0.0, "sleep", True)
        before = acct.e_in
        # 30 s of the first sample, 30 s of the second
        acct.integrate(90.0, 0.0, "sleep", True)
        assert acct.e_in - before == pytest.approx(
            1e-3 * 30 + 3e-3 * 30
        )

    def test_interval_energies_partition_the_span(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0, 5e-3, size=123)
        whole = account(samples, e0=0.0, capacity_b=1e3)
        whole.integrate(123 * 60.0, 0.0, "sleep", True)
        steps = account(samples, e0=0.0, capacity_b=1e3)
        steps.integrate(30.0, 0.0, "sleep", True)
        assert steps.e_in == pytest.approx(samples[0] * 30.0)
        for k in range(2, 247):
            steps.integrate(k * 30.0, 0.0, "sleep", True)
        assert steps.e_in == pytest.approx(whole.e_in,
                                                  rel=1e-12)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            HarvestTrace([-1e-3], resolution_s=60.0)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HarvestTrace([1e-3, bad], resolution_s=60.0)


class TestSpend:
    """NodeAccount.spend: a fixed cost drawn through the 0.9 converter."""

    def test_sleep_thousand_seconds(self):
        acct = account(np.zeros(10), e0=0.5)
        at_load = PARAMS.p_sleep * 1000.0
        died = acct.spend(at_load, "sleep")
        assert not died
        assert acct.drawn("sleep") == pytest.approx(0.02981, abs=5e-6)
        assert acct.e_cap == pytest.approx(0.47019, abs=5e-6)

    def test_com_init_exceeding_storage_kills(self):
        acct = account(np.zeros(10), e0=0.010)
        at_load = PARAMS.e_com_init
        died = acct.spend(at_load, "com_init")
        assert died
        assert acct.e_cap == 0.0
        # only the energy that existed was drawn
        assert acct.drawn("com_init") == pytest.approx(0.010)

    def test_zero_amount_is_noop(self):
        acct = account(np.zeros(10), e0=0.3)
        assert not acct.spend(0.0, "idle")
        assert acct.e_cap == 0.3
        assert all(acct.drawn(c) == 0.0 for c in LEDGER_CATEGORIES)

    def test_negative_amount_rejected(self):
        acct = account(np.zeros(10), e0=0.3)
        with pytest.raises(ValueError):
            acct.spend(-1e-3, "tx")
        assert acct.e_cap == 0.3

    @given(
        e0=st.floats(min_value=0.0, max_value=0.1),
        draws=st.lists(st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05),
                      st.sampled_from([PARAMS.e_boot, PARAMS.e_com_init])),
            st.sampled_from(LEDGER_CATEGORIES),
        ), max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_consume_bit_for_bit(self, e0, draws):
        got, ref = (account(np.zeros(4), e0=e0, capacity_b=0.1)
                    for _ in range(2))
        for joules, category in draws:
            died = got.spend(joules, category)
            want = oracles.reference_consume(
                oracles.AccountLedger(ref), ref, category, joules,
                PARAMS.buck_efficiency)
            assert died == want
            assert _ledger_state(got) == _ledger_state(ref)


def _one_node_run(initial_j, harvest_w=0.0, horizon_s=1800.0):
    sc = replace(flat_scenario(1, harvest_w=harvest_w, horizon_s=horizon_s),
                 initial_charge_j=initial_j)
    return simulate_run(sc, "ewan", master_seed=11)


class TestReactiveDecision:
    """The reactive energy manager as ProtocolRun runs it: the default
    start threshold is 0.115 J."""

    def test_surpassing_threshold_starts(self):
        res = _one_node_run(0.116)
        assert transitions(res)[0] == (0.0, 1, "off", "bootstrapping",
                                      "energy_start")

    def test_below_threshold_stays_off(self):
        res = _one_node_run(0.114)
        assert transitions(res) == []
        assert res.active_intervals[1] == []

    def test_threshold_comparison_is_strict(self):
        # a charge exactly at the threshold with no harvest never starts
        res = _one_node_run(0.115)
        assert transitions(res) == []
        assert res.active_intervals[1] == []

    def test_depletion_powers_off(self):
        res = _one_node_run(0.116, horizon_s=6 * 3600.0)
        offs = [(t, why) for t, _, _, new, why in transitions(res)
                if new == "off"]
        assert offs and all(why == "energy_depleted" for _, why in offs)
        assert res.final_storage_j[1] == 0.0
        assert res.active_intervals[1] == [(0.0, offs[0][0])]

    def test_keeps_communicating_above_zero(self):
        res = _one_node_run(0.7, harvest_w=2e-3)
        assert all(new != "off" for _, _, _, new, _ in transitions(res))
        assert res.active_intervals[1] == [(0.0, 1800.0)]


def _unstarted_run() -> ProtocolRun:
    """A one-node ewan run without harvest that has not started yet."""
    sc = flat_scenario(1, harvest_w=0.0)
    return ProtocolRun(sc, "ewan", RandomStreams(11, 0), sc.traces)


class TestPerActivityEnergy:
    """What ProtocolRun draws per activity, booked through NodeAccount
    on a trace without harvest."""

    def test_idle_one_second(self):
        run = _unstarted_run()
        acct = run.accounts[1]
        assert acct.advance(1.0, run.load_idle) is None
        assert acct.drawn("idle") * 0.9 == pytest.approx(10.516e-3)

    def test_sleep_one_second(self):
        run = _unstarted_run()
        acct = run.accounts[1]
        assert acct.advance(1.0, run.load_sleep) is None
        assert acct.drawn("sleep") * 0.9 == pytest.approx(26.831e-6)

    def test_zero_toa_tx(self):
        run = _unstarted_run()
        acct = run.accounts[1]
        # +14 dBm on the multi-hop channel
        assert run.load_mh.tx == (0.090, "tx")
        assert acct.advance(0.0, run.load_mh.tx) is None
        assert acct.drawn("tx") == 0.0

    def test_boot_wait_uses_boot_power(self):
        # below the start threshold the node waits off for the 30 s horizon
        res = _one_node_run(0.1, horizon_s=30.0)
        assert res.ledgers[1]["boot"] * 0.9 == pytest.approx(27.254e-6 * 30)

    def test_fixed_energies(self):
        # a node that powers on at t=0 and stays on pays each fixed cost
        # exactly once
        led = _one_node_run(0.7, horizon_s=60.0).ledgers[1]
        assert led["boot"] == 13.655e-6 / 0.9
        assert led["com_init"] == 17.25e-3 / 0.9

    def test_listen_uses_rx_power(self):
        run = _unstarted_run()
        acct = run.accounts[1]
        assert acct.advance(2.0, run.load_mh.listen) is None
        assert acct.drawn("listen") * 0.9 == pytest.approx(2 * 0.0164)


class TestLedgerConservation:
    """NodeAccount's ledger closes: e_in = storage delta + drawn + waste."""

    def test_week_of_steps_conserves_to_nanojoule(self):
        # 7 days of 30 s steps: harvest, sleep draw, occasional tx bursts
        # that may empty the store
        rng = np.random.default_rng(11)
        acct = account(rng.uniform(0, 2e-3, size=7 * 24 * 60), e0=0.3)
        for k in range(7 * 24 * 3600 // 30):
            if k % 10 == 0:
                acct.integrate(acct.clock_s + float(rng.uniform(0, 0.5)),
                               0.09, "tx", True)
            acct.integrate((k + 1) * 30.0, PARAMS.p_sleep, "sleep", False)
        assert acct.clock_s == 7 * 24 * 3600.0
        assert abs(acct.conservation_error(0.3)) < 1e-9

    def test_waste_recorded_on_overflow(self):
        acct = account(np.full(10, 1e-3), e0=0.65)
        acct.integrate(100.0, 0.0, "sleep", True)
        assert acct.e_cap == 0.7
        assert acct.e_wasted == pytest.approx(0.05)
        assert acct.e_in == pytest.approx(0.1)
        assert abs(acct.conservation_error(0.65)) < 1e-15

    @given(
        samples=st.lists(st.floats(min_value=0, max_value=2e-2),
                         min_size=1, max_size=12),
        # an integrate op is (gap, load, category, die); a spend op is
        # (joules, category), a fixed cost that may empty the store
        ops=st.lists(st.one_of(
            st.tuples(
                st.floats(min_value=0, max_value=120.0),
                st.sampled_from([0.0, PARAMS.p_sleep, PARAMS.p_idle, 0.09]),
                st.sampled_from(["tx", "sleep", "idle"]),
                st.booleans()),
            st.tuples(
                st.floats(min_value=0, max_value=0.5),
                st.sampled_from(["boot", "com_init"])),
        ), max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_storage_stays_bounded_and_conserves(self, samples, ops):
        acct = account(samples)
        for op in ops:
            if len(op) == 2:
                acct.spend(*op)
            else:
                gap, p_load, category, die = op
                acct.integrate(acct.clock_s + gap, p_load, category, die)
            assert 0.0 <= acct.e_cap <= acct.capacity_b
        assert abs(acct.conservation_error(0.35)) < 1e-12

    def test_richer_trace_never_leaves_less_energy(self):
        # same consumption schedule, pointwise-greater harvest
        rng = np.random.default_rng(5)
        draws = rng.uniform(0, 4e-3, size=500)
        lo_trace = rng.uniform(0, 2e-3, size=500)
        hi_trace = lo_trace + rng.uniform(0, 1e-3, size=500)
        lo = account(lo_trace, e0=0.2)
        hi = account(hi_trace, e0=0.2)
        for k in range(500):
            # 45 s steps straddle the 60 s trace segments
            for acct in (lo, hi):
                acct.integrate((k + 1) * 45.0, float(draws[k]), "tx", False)
            assert hi.e_cap >= lo.e_cap - 1e-15


class TestParamValidation:
    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            EnergyParams(buck_efficiency=0.0)
        with pytest.raises(ValueError):
            EnergyParams(charge_efficiency=1.5)

    def test_bad_storage(self):
        trace = HarvestTrace([1e-3], 60.0)
        with pytest.raises(ValueError, match="capacity_b"):
            NodeAccount(1, 0.8, 0.7, PARAMS, trace)
        with pytest.raises(ValueError, match="capacity_b"):
            NodeAccount(1, -0.1, 0.7, PARAMS, trace)


def _ledger_state(acct):
    return (list(acct._sums), list(acct._comps), acct.e_cap, acct.clock_s)


class TestNodeAccountKernel:
    @given(
        samples=st.lists(st.sampled_from([0.0, 1e-5, 3e-4, 2e-3, 5e-2]),
                         min_size=1, max_size=12),
        e0=st.floats(min_value=0.0, max_value=0.1),
        steps=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=150.0),
            st.sampled_from([0.0, 2.7e-5, 1.05e-2, 0.09]),
            st.sampled_from(["tx", "listen", "idle", "sleep", "boot"]),
            st.booleans(),
        ), max_size=25),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_ledger_method_walk_bit_for_bit(self, samples, e0,
                                                        steps):
        trace = HarvestTrace(samples, 60.0)
        kernel, ref = (NodeAccount(1, e0, 0.1, PARAMS, trace)
                       for _ in range(2))
        for gap, p_load, category, die in steps:
            t1 = kernel.clock_s + gap
            got = kernel.integrate(t1, p_load, category, die)
            want = oracles.reference_integrate(ref, t1, p_load, category, die)
            assert got == want
            assert _ledger_state(kernel) == _ledger_state(ref)

    # a 1e-2 J start threshold, 30 s sampling and a 1e-4 W boot-state draw
    SCAN = replace(PARAMS, start_threshold=1e-2, sample_interval=30.0,
                   p_boot=1e-4)

    def test_scan_start_skips_the_dark_and_stops_at_a_sample(self):
        # power arrives at 180 s; 30 s steps then cross the threshold at
        # the first sample after it, 210 s
        acct = account([0.0, 0.0, 0.0, 1e-3], e0=0.0, capacity_b=0.1,
                       params=self.SCAN)
        assert acct.scan_start(600.0) == 210.0
        assert acct.clock_s == 210.0
        assert acct.e_in == pytest.approx(1e-3 * 30.0)
        assert acct.drawn("boot") == pytest.approx(
            1e-4 / PARAMS.buck_efficiency * 30.0)
        # already above the threshold: the clock is the crossing
        assert acct.scan_start(600.0) == 210.0

    @pytest.mark.parametrize("horizon, e_in", [(150.0, 0.0), (200.0, 2e-2)])
    def test_scan_start_stops_at_the_horizon(self, horizon, e_in):
        acct = account([0.0, 0.0, 0.0, 1e-3], e0=0.0, capacity_b=0.1,
                       params=self.SCAN)
        assert acct.scan_start(horizon) is None
        assert acct.clock_s == horizon
        assert acct.e_in == pytest.approx(e_in)
