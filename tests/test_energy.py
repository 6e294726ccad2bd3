from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewansim.energy import (
    Activity,
    EnergyLedger,
    EnergyParams,
    EnergyStorage,
    HarvestTrace,
    ReactiveAction,
    apply_harvest,
    consume,
    energy_from_voltage,
    harvest_energy,
    per_activity_energy,
    reactive_decision,
    step_storage,
)
from ewansim.protocol.run import NodeAccount
from ewansim.radio import RadioConfig, RadioPowerTable

import oracles

PARAMS = EnergyParams()
TABLE = RadioPowerTable()
FSK = RadioConfig(
    modulation="fsk",
    datarate_bps=250e3,
    bandwidth_hz=312e3,
    center_frequency_hz=864.6875e6,
    tx_power_dbm=14.0,
    sensitivity_dbm=-104.0,
)


class TestStepStorage:
    def test_upper_clamp(self):
        assert step_storage(0.6, 0.3, 0.1, 0.7) == 0.7

    def test_lower_clamp(self):
        assert step_storage(0.1, 0.0, 0.2, 0.7) == 0.0

    def test_interior(self):
        assert step_storage(0.2, 0.05, 0.03, 0.7) == pytest.approx(0.22)

    @given(
        e=st.floats(min_value=0, max_value=0.7),
        h=st.floats(min_value=0, max_value=1),
        u=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=300, deadline=None)
    def test_result_always_in_bounds(self, e, h, u):
        out = step_storage(e, h, u, 0.7)
        assert 0.0 <= out <= 0.7


class TestVoltageRelation:
    def test_zero_voltage(self):
        assert energy_from_voltage(0.35, 0.0) == 0.0

    def test_unit_case(self):
        assert energy_from_voltage(1.0, 1.0) == 0.5

    def test_platform_capacity_pair(self):
        # 0.35 F at 2.0 V holds exactly the usable capacity of 0.7 J
        assert energy_from_voltage(0.35, 2.0) == pytest.approx(0.7)
        assert EnergyStorage(e_cap=0.7).voltage == pytest.approx(2.0)


class TestHarvestTrace:
    def test_constant_trace_integral(self):
        tr = HarvestTrace(np.full(10, 1e-3), resolution_s=60.0)
        assert harvest_energy(tr, 0.0, 100.0, 1.0) == pytest.approx(0.1)

    def test_empty_interval(self):
        tr = HarvestTrace(np.full(10, 1e-3), resolution_s=60.0)
        assert harvest_energy(tr, 42.0, 42.0, 1.0) == 0.0

    def test_zero_trace_any_window(self):
        tr = HarvestTrace(np.zeros(100), resolution_s=60.0)
        assert harvest_energy(tr, 0.0, 6000.0, 1.0) == 0.0

    def test_charge_efficiency_scales(self):
        tr = HarvestTrace(np.full(10, 1e-3), resolution_s=60.0)
        assert harvest_energy(tr, 0.0, 100.0, 0.85) == pytest.approx(0.085)

    def test_outside_span_rejected(self):
        tr = HarvestTrace(np.full(10, 1e-3), resolution_s=60.0)
        with pytest.raises(ValueError):
            harvest_energy(tr, 0.0, 601.0, 1.0)
        with pytest.raises(ValueError):
            harvest_energy(tr, -1.0, 10.0, 1.0)

    def test_piecewise_constant_partial_samples(self):
        tr = HarvestTrace([1e-3, 3e-3], resolution_s=60.0)
        # 30 s of the first sample, 30 s of the second
        assert tr.energy_between(30.0, 90.0) == pytest.approx(
            1e-3 * 30 + 3e-3 * 30
        )

    def test_interval_energies_partition_the_span(self):
        rng = np.random.default_rng(3)
        tr = HarvestTrace(rng.uniform(0, 5e-3, size=123), resolution_s=60.0)
        parts = tr.interval_energies(30.0)
        assert parts.sum() == pytest.approx(tr.energy_between(0, tr.span_s))
        assert parts[0] == pytest.approx(tr.energy_between(0, 30.0))

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            HarvestTrace([-1e-3], resolution_s=60.0)


class TestConsume:
    def test_sleep_thousand_seconds(self):
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.5)
        at_load = per_activity_energy(Activity.SLEEP, PARAMS, duration_s=1000.0)
        died = consume(led, sto, "sleep", at_load, 0.9)
        assert not died
        assert led.drawn("sleep") == pytest.approx(0.02981, abs=5e-6)
        assert sto.e_cap == pytest.approx(0.47019, abs=5e-6)

    def test_com_init_exceeding_storage_kills(self):
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.010)
        at_load = per_activity_energy(Activity.COM_INIT, PARAMS)
        died = consume(led, sto, "com_init", at_load, 0.9)
        assert died
        assert sto.e_cap == 0.0
        # only the energy that existed was drawn
        assert led.drawn("com_init") == pytest.approx(0.010)

    def test_zero_amount_is_noop(self):
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.3)
        assert not consume(led, sto, "idle", 0.0, 0.9)
        assert sto.e_cap == 0.3
        assert led.total_drawn == 0.0


class TestReactiveDecision:
    def test_surpassing_threshold_starts(self):
        sto = EnergyStorage(e_cap=0.116)
        assert (
            reactive_decision(sto, PARAMS, False)
            is ReactiveAction.START_COMMUNICATING
        )

    def test_below_threshold_stays_off(self):
        sto = EnergyStorage(e_cap=0.114)
        assert reactive_decision(sto, PARAMS, False) is ReactiveAction.STAY_OFF

    def test_threshold_comparison_is_strict(self):
        sto = EnergyStorage(e_cap=0.115)
        assert reactive_decision(sto, PARAMS, False) is ReactiveAction.STAY_OFF

    def test_depletion_powers_off(self):
        sto = EnergyStorage(e_cap=0.0)
        assert reactive_decision(sto, PARAMS, True) is ReactiveAction.POWER_OFF

    def test_keeps_communicating_above_zero(self):
        sto = EnergyStorage(e_cap=0.01)
        assert (
            reactive_decision(sto, PARAMS, True)
            is ReactiveAction.KEEP_COMMUNICATING
        )


class TestPerActivityEnergy:
    def test_idle_one_second(self):
        got = per_activity_energy(Activity.IDLE, PARAMS, duration_s=1.0)
        assert got == pytest.approx(10.516e-3)

    def test_sleep_one_second(self):
        got = per_activity_energy(Activity.SLEEP, PARAMS, duration_s=1.0)
        assert got == pytest.approx(26.831e-6)

    def test_zero_toa_tx(self):
        got = per_activity_energy(
            Activity.TX, PARAMS, TABLE, duration_s=0.0, config=FSK
        )
        assert got == 0.0

    def test_boot_wait_uses_boot_power(self):
        got = per_activity_energy(Activity.BOOT_WAIT, PARAMS, duration_s=30.0)
        assert got == pytest.approx(27.254e-6 * 30)

    def test_fixed_energies(self):
        assert per_activity_energy(Activity.BOOT_SAMPLE, PARAMS) == 13.655e-6
        assert per_activity_energy(Activity.COM_INIT, PARAMS) == 17.25e-3

    def test_listen_uses_rx_power(self):
        got = per_activity_energy(
            Activity.LISTEN, PARAMS, TABLE, duration_s=2.0, config=FSK
        )
        assert got == pytest.approx(2 * 0.0164)


class TestLedgerConservation:
    def test_week_of_steps_conserves_to_nanojoule(self):
        # 7 days of 30 s steps: harvest, sleep draw, occasional bursts
        rng = np.random.default_rng(11)
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.3)
        initial = sto.e_cap
        n_steps = 7 * 24 * 3600 // 30
        died_count = 0
        for k in range(n_steps):
            apply_harvest(led, sto, float(rng.uniform(0, 2e-3)) * 30)
            consume(led, sto, "sleep", PARAMS.p_sleep * 30, 0.9)
            if k % 10 == 0:
                if consume(led, sto, "tx", float(rng.uniform(0, 5e-3)), 0.9):
                    died_count += 1
        assert abs(led.conservation_error(initial, sto.e_cap)) < 1e-9

    def test_waste_recorded_on_overflow(self):
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.65)
        wasted = apply_harvest(led, sto, 0.1)
        assert sto.e_cap == pytest.approx(0.7)
        assert wasted == pytest.approx(0.05)
        assert led.e_wasted == pytest.approx(0.05)
        assert led.e_in == pytest.approx(0.1)
        assert abs(led.conservation_error(0.65, sto.e_cap)) < 1e-15

    @given(st.lists(
        st.tuples(
            st.sampled_from(["harvest", "tx", "sleep", "idle"]),
            st.floats(min_value=0, max_value=0.2),
        ),
        max_size=60,
    ))
    @settings(max_examples=200, deadline=None)
    def test_storage_stays_bounded_and_conserves(self, ops):
        led = EnergyLedger()
        sto = EnergyStorage(e_cap=0.35)
        for kind, amount in ops:
            if kind == "harvest":
                apply_harvest(led, sto, amount)
            else:
                consume(led, sto, kind, amount, 0.9)
            assert 0.0 <= sto.e_cap <= sto.capacity_b
        assert abs(led.conservation_error(0.35, sto.e_cap)) < 1e-12

    def test_richer_trace_never_leaves_less_energy(self):
        # same consumption schedule, pointwise-greater harvest
        rng = np.random.default_rng(5)
        draws = rng.uniform(0, 4e-3, size=500)
        lo_trace = rng.uniform(0, 2e-3, size=500)
        hi_trace = lo_trace + rng.uniform(0, 1e-3, size=500)
        lo = EnergyStorage(e_cap=0.2)
        hi = EnergyStorage(e_cap=0.2)
        led_lo, led_hi = EnergyLedger(), EnergyLedger()
        for k in range(500):
            apply_harvest(led_lo, lo, float(lo_trace[k]))
            apply_harvest(led_hi, hi, float(hi_trace[k]))
            consume(led_lo, lo, "tx", float(draws[k]), 0.9)
            consume(led_hi, hi, "tx", float(draws[k]), 0.9)
            assert hi.e_cap >= lo.e_cap - 1e-15


class TestParamValidation:
    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            EnergyParams(buck_efficiency=0.0)
        with pytest.raises(ValueError):
            EnergyParams(charge_efficiency=1.5)

    def test_bad_storage(self):
        with pytest.raises(ValueError):
            EnergyStorage(e_cap=0.8, capacity_b=0.7)
        with pytest.raises(ValueError):
            EnergyStorage(e_cap=-0.1)


def _ledger_state(acct):
    led = acct.ledger
    sums = [led._e_in, led._e_wasted, *led._cats.values()]
    return ([(k.total, k.comp) for k in sums], acct.storage.e_cap,
            acct.clock_s)


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
        kernel, ref = (NodeAccount(1, EnergyStorage(e0, capacity_b=0.1),
                                   PARAMS, trace) for _ in range(2))
        for gap, p_load, category, die in steps:
            t1 = kernel.clock_s + gap
            got = kernel.integrate(t1, p_load, category, die)
            want = oracles.reference_integrate(ref, t1, p_load, category, die)
            assert got == want
            assert _ledger_state(kernel) == _ledger_state(ref)
