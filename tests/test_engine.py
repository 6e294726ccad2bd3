from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewansim.engine import (
    Draws,
    EventQueue,
    RandomStreams,
    SimulationError,
    draw_uniform,
    to_us,
)
from ewansim.energy import EnergyParams
from ewansim.protocol.params import ProtocolParams, default_vsn_configs
from ewansim.scenario import TraceGenParams, case_study_scenario


def noop() -> None:
    pass


class TestEventQueue:
    def test_single_event_dequeues(self):
        q = EventQueue()
        seen = []
        q.schedule(5_000_000, lambda: seen.append(q.now_us))
        n = q.run_until(10_000_000)
        assert n == 1
        assert seen == [5_000_000]

    def test_scheduled_call_gets_its_arguments(self):
        q = EventQueue()
        seen = []
        q.schedule(5, lambda *a: seen.append(a), 1, "x", (2, 3))
        q.schedule(5, lambda *a: seen.append(a))
        q.run_until(5)
        assert seen == [(1, "x", (2, 3)), ()]

    def test_equal_time_dequeues_in_insertion_order(self):
        q = EventQueue()
        seen = []
        q.schedule(5_000_000, seen.append, 1)
        q.schedule(5_000_000, seen.append, 2)
        q.run_until(6_000_000)
        assert seen == [1, 2]

    def test_past_event_rejected(self):
        q = EventQueue()
        q.run_until(5_000_000)
        with pytest.raises(SimulationError):
            q.schedule(4_000_000, noop)

    def test_run_until_empty_queue(self):
        q = EventQueue()
        assert q.run_until(10_000_000) == 0
        assert q.now_us == 10_000_000

    def test_events_beyond_t_end_stay_queued(self):
        q = EventQueue()
        for t in (1, 2, 3, 9):
            q.schedule(t * 1_000_000, noop)
        assert q.run_until(3_000_000) == 3
        assert len(q) == 1

    def test_handler_scheduling_past_event_propagates(self):
        q = EventQueue()

        def handler():
            q.schedule(1_000_000, noop)

        q.schedule(3_000_000, handler)
        with pytest.raises(SimulationError):
            q.run_until(5_000_000)

    def test_clock_monotone_over_processing(self):
        q = EventQueue()
        times = [7, 3, 5, 3, 9, 1]
        seen = []
        for t in times:
            q.schedule(t * 1000, lambda: seen.append(q.now_us))
        q.run_until(10_000)
        assert seen == sorted(seen)
        assert seen == sorted(t * 1000 for t in times)

    def test_run_until_backwards_rejected(self):
        q = EventQueue()
        q.run_until(10)
        with pytest.raises(SimulationError):
            q.run_until(5)


class TestToUs:
    def test_exact_second(self):
        assert to_us(5.0) == 5_000_000

    def test_rounds_up(self):
        assert to_us(0.0000011) == 2

    def test_zero(self):
        assert to_us(0.0) == 0


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(1234).stream("reception")
        b = RandomStreams(1234).stream("reception")
        assert list(a.random(10)) == list(b.random(10))

    def test_streams_are_isolated(self):
        # consuming the capture stream must not perturb the traces stream
        plain = RandomStreams(42)
        interleaved = RandomStreams(42)
        interleaved.stream("capture").random(1000)
        assert list(plain.stream("traces").random(5)) == list(
            interleaved.stream("traces").random(5)
        )

    def test_run_index_changes_streams(self):
        a = RandomStreams(7, run_index=0).stream("traces")
        b = RandomStreams(7, run_index=1).stream("traces")
        assert list(a.random(4)) != list(b.random(4))

    def test_unknown_stream_rejected(self):
        with pytest.raises(SimulationError):
            RandomStreams(1).stream("nope")

    def test_uniform_degenerate_interval(self):
        g = RandomStreams(1).stream("backoff")
        assert draw_uniform(g, 3.5, 3.5) == 3.5

    def test_uniform_reversed_bounds(self):
        g = RandomStreams(1).stream("backoff")
        with pytest.raises(ValueError):
            draw_uniform(g, 2.0, 1.0)

    def test_uniform_mean_statistical(self):
        # statistical oracle: 1e5 draws from U(0,1) has mean within 0.01 of 0.5
        g = RandomStreams(2024).stream("reception")
        xs = np.array([draw_uniform(g, 0.0, 1.0) for _ in range(100_000)])
        assert abs(xs.mean() - 0.5) < 0.01
        assert xs.min() >= 0.0 and xs.max() <= 1.0


class TestDraws:
    @pytest.mark.parametrize("block", [1, 3, None])
    def test_gives_the_scalar_doubles_across_refills(self, monkeypatch,
                                                     block):
        if block is not None:
            monkeypatch.setattr(Draws, "BLOCK", block)
        n = 2 * Draws.BLOCK + 5  # two refills and part of a third
        scalar = RandomStreams(9).stream("reception")
        draws = Draws(RandomStreams(9).stream("reception"))
        got = [draws.random() for _ in range(n)]
        assert got == [scalar.random() for _ in range(n)]
        assert all(type(x) is float for x in got)

    def test_draws_nothing_before_the_first_read(self):
        g = RandomStreams(9).stream("reception")
        before = g.bit_generator.state
        Draws(g)
        assert g.bit_generator.state == before


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_queue_processes_any_batch_in_time_order(times):
    q = EventQueue()
    seen = []
    for i, t in enumerate(times):
        q.schedule(t, lambda t=t, i=i: seen.append((q.now_us, t, i)))
    assert q.run_until(max(times)) == len(times)
    # the clock reads each entry's own time when it is called, and equal
    # times keep their insertion order
    assert [(now, i) for now, _, i in seen] == sorted(
        (t, i) for i, t in enumerate(times))
    assert all(now == t for now, t, _ in seen)


# -- check_fields over every scenario dataclass -----------------------------

# the annotations check_fields checks, and the wrong values each must refuse
_WRONG = {
    "int": (True, "1", math.nan, math.inf, 1.5),
    "float": (True, "1", math.nan, math.inf),
    "bool": ("1", 1, math.nan, math.inf),
    "Tuple[float, float]": (True, "1", math.nan, math.inf, [1.0],
                            [1.0, math.nan]),
}
# annotations check_fields leaves to the class itself or to
# verify_scenario: names, nested configs, link matrices and fixed traces
_NOT_SCALAR = {
    "str", "LinkMatrix", "ProtocolParams", "VsnConfigs", "EnergyParams",
    "Optional[Dict[int, HarvestTrace]]", "Optional[TraceGenParams]",
    "Optional[Tuple[int, int]]",
}


def _scenario_configs():
    """One valid instance of each class that calls check_fields."""
    return (default_vsn_configs().multi_hop, ProtocolParams(),
            EnergyParams(), TraceGenParams(rho=0.5), case_study_scenario())


def _checked_fields():
    for obj in _scenario_configs():
        for f in dataclasses.fields(obj):
            kind = f.type
            if kind.startswith("Optional[") and kind not in _NOT_SCALAR:
                kind = kind[len("Optional["):-1]
            yield obj, f.name, kind


class TestCheckFields:
    def test_every_annotation_is_checked_or_listed(self):
        # a field with a new annotation must join the rule or the list
        for obj, name, kind in _checked_fields():
            assert kind in _WRONG or kind in _NOT_SCALAR, (
                f"{type(obj).__name__}.{name}: {kind}")

    def test_wrong_values_are_refused_by_name(self):
        n = 0
        for obj, name, kind in _checked_fields():
            for bad in _WRONG.get(kind, ()):
                with pytest.raises(ValueError, match=rf"^{name} must be"):
                    dataclasses.replace(obj, **{name: bad})
                n += 1
        assert n > 150

    def test_an_int_is_stored_as_a_float(self):
        # so horizon_s: 86400 loads, runs and writes as 86400.0 does
        n = 0
        for obj, name, kind in _checked_fields():
            value = getattr(obj, name)
            if kind == "float" and value == int(value):
                got = getattr(dataclasses.replace(obj, **{name: int(value)}),
                              name)
                assert type(got) is float and got == value, name
                n += 1
            elif kind == "Tuple[float, float]":
                ints = [int(value[0]), int(value[1])]
                if ints == list(value):
                    got = getattr(dataclasses.replace(obj, **{name: ints}),
                                  name)
                    assert type(got) is tuple, name
                    assert all(type(x) is float for x in got), name
                    n += 1
        assert n >= 15
