"""Deterministic discrete-event core: simulated clock, ordered event queue,
and seeded random streams shared by every protocol implementation.

Time is integer microseconds throughout the engine. Durations entering the
engine are rounded up to the next microsecond, which keeps event comparisons
exact and runs bit-for-bit reproducible.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable

import numpy as np

US_PER_S = 1_000_000


class SimulationError(Exception):
    """Internal inconsistency in engine or protocol state (a bug, not a
    modeled failure)."""


def to_us(seconds: float) -> int:
    """Duration in seconds -> integer microseconds, rounded up."""
    if seconds < 0:
        raise SimulationError(f"negative duration: {seconds}")
    return math.ceil(seconds * US_PER_S)


def to_s(time_us: int) -> float:
    return time_us / US_PER_S


class EventKind(IntEnum):
    ROUND_START = 0
    WAKE_UP = 1
    SYNC_REQUEST = 2
    CUSTOM = 3


@dataclass(frozen=True)
class SimEvent:
    time_us: int
    target: int
    kind: EventKind
    payload: Any = None


class EventQueue:
    """Min-heap of events ordered by (time, insertion sequence).

    The insertion sequence is the tiebreaker, so two events never compare
    equal and dequeue order is deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
        self.now_us = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event: SimEvent) -> None:
        if event.time_us < self.now_us:
            raise SimulationError(
                f"event scheduled in the past: t={event.time_us} < now={self.now_us}"
            )
        heapq.heappush(self._heap, (event.time_us, self._seq, event))
        self._seq += 1

    def run_until(self, t_end_us: int, handler: Callable[[SimEvent], None]) -> int:
        """Process every event with time <= t_end_us in order, then advance
        the clock to t_end_us. Returns the processed count."""
        if t_end_us < self.now_us:
            raise SimulationError(
                f"run_until target {t_end_us} precedes clock {self.now_us}"
            )
        processed = 0
        while self._heap and self._heap[0][0] <= t_end_us:
            time_us, _, event = heapq.heappop(self._heap)
            self.now_us = time_us
            handler(event)
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


def draw_uniform(stream: np.random.Generator, lo: float, hi: float) -> float:
    if lo > hi:
        raise ValueError(f"uniform bounds reversed: {lo} > {hi}")
    if lo == hi:
        return lo
    return float(stream.uniform(lo, hi))
