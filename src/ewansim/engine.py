"""Deterministic discrete-event core: simulated clock, a queue of plain
scheduled calls, and seeded random streams shared by every protocol
implementation.

Reception and capture read their doubles one at a time through Draws,
which takes them from the stream in blocks: a PCG64 generator gives the
same doubles in one block call as in as many scalar calls, so a run's
outcomes do not depend on the block size.

Time is integer microseconds throughout the engine. Durations entering the
engine are rounded up to the next microsecond, which keeps event comparisons
exact and runs bit-for-bit reproducible.
"""
from __future__ import annotations

import dataclasses
import heapq
import math
from typing import Any, Callable

import numpy as np

US_PER_S = 1_000_000


class SimulationError(Exception):
    """Internal inconsistency in engine or protocol state (a bug, not a
    modeled failure)."""


def _real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _int(value) -> bool:
    return type(value) is int


def _pair(ok):
    return lambda v: type(v) in (tuple, list) and len(v) == 2 and all(
        map(ok, v))


# per annotation: what a value must be, its test, and the form it is stored in
_FIELD_KINDS = {
    "int": ("an integer", _int, int),
    "float": ("a finite number", _real, float),
    "bool": ("true or false", lambda v: type(v) is bool, bool),
    "Tuple[float, float]": ("a pair of finite numbers", _pair(_real),
                            lambda v: tuple(map(float, v))),
    "Tuple[int, int]": ("a pair of integers", _pair(_int), tuple),
}


def check_fields(obj) -> None:
    """Check a dataclass's int, float, bool and pair fields by their string
    annotations, with None allowed where Optional, and store floats as
    float and pairs as tuples. Other fields are skipped. Raises ValueError
    naming the first field that fails."""
    for f in dataclasses.fields(obj):
        kind, value = f.type, getattr(obj, f.name)
        if kind.startswith("Optional["):
            if value is None:
                continue
            kind = kind[len("Optional["):-1]
        if kind in _FIELD_KINDS:
            what, ok, store = _FIELD_KINDS[kind]
            if not ok(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            object.__setattr__(obj, f.name, store(value))


def to_us(seconds: float) -> int:
    """Duration in seconds -> integer microseconds, rounded up."""
    if seconds < 0:
        raise SimulationError(f"negative duration: {seconds}")
    return math.ceil(seconds * US_PER_S)


def to_s(time_us: int) -> float:
    return time_us / US_PER_S


class EventQueue:
    """Min-heap of scheduled calls ordered by (time, insertion sequence).

    The insertion sequence is the tiebreaker, so two entries never compare
    equal, their callables are never compared, and dequeue order is
    deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        self.now_us = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_us: int, fn: Callable[..., Any], *args) -> None:
        """Call fn(*args) when the clock reaches time_us."""
        if time_us < self.now_us:
            raise SimulationError(
                f"event scheduled in the past: t={time_us} < now={self.now_us}"
            )
        heapq.heappush(self._heap, (time_us, self._seq, fn, args))
        self._seq += 1

    def run_until(self, t_end_us: int) -> int:
        """Make every call scheduled at or before t_end_us in order, then
        advance the clock to t_end_us. Returns the count of calls made."""
        if t_end_us < self.now_us:
            raise SimulationError(
                f"run_until target {t_end_us} precedes clock {self.now_us}"
            )
        processed = 0
        while self._heap and self._heap[0][0] <= t_end_us:
            time_us, _, fn, args = heapq.heappop(self._heap)
            self.now_us = time_us
            fn(*args)
            processed += 1
        self.now_us = t_end_us
        return processed


# one stream per stochastic concern; trace draws must never be perturbed by
# protocol-side draws, so each name gets an independent generator. Capture
# draws use "reception"; "capture" is never drawn, but its index fixes the
# seeds of "traces" and "backoff"
STREAM_NAMES = ("reception", "capture", "traces", "backoff")


class RandomStreams:
    """Named, mutually independent random streams split from a master seed.

    Each (master_seed, run_index, stream name) triple maps to its own
    PCG64 generator via SeedSequence spawn keys, so the value sequence of a
    stream is identical across runs and platforms and consuming one stream
    never shifts another.
    """

    def __init__(self, master_seed: int, run_index: int = 0):
        self.master_seed = master_seed
        self.run_index = run_index
        self._gens: dict[str, np.random.Generator] = {}
        for idx, name in enumerate(STREAM_NAMES):
            seq = np.random.SeedSequence(
                entropy=master_seed, spawn_key=(run_index, idx)
            )
            self._gens[name] = np.random.Generator(np.random.PCG64(seq))

    def stream(self, name: str) -> np.random.Generator:
        try:
            return self._gens[name]
        except KeyError:
            raise SimulationError(f"unknown random stream: {name!r}") from None


class Draws:
    """The doubles of one generator, one per random() call, in order.

    They are drawn BLOCK at a time with one Generator.random(BLOCK) call,
    which gives the same doubles as BLOCK scalar Generator.random() calls.
    The generator itself runs ahead of the doubles read so far, so it must
    not be drawn from directly while a Draws reads it.
    """

    BLOCK = 4096

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._next = iter(()).__next__  # empty: the first read draws a block

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._gen.random(self.BLOCK).tolist()).__next__
            return self._next()


def draw_uniform(stream: np.random.Generator, lo: float, hi: float) -> float:
    if lo > hi:
        raise ValueError(f"uniform bounds reversed: {lo} > {hi}")
    if lo == hi:
        return lo
    return float(stream.uniform(lo, hi))
