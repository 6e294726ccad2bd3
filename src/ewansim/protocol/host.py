"""Host-side scheduling: per-VSN slot books and the sync handshake.

The host is the single mains-powered gateway. It keeps one schedule book
per VSN, drops nodes that stay dataless for p consecutive rounds,
appends newly demanded slots in arrival order, and answers asynchronous
synchronization requests whenever it is not inside a round.
"""
from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .params import ProtocolParams


@dataclass(frozen=True)
class SyncResponse:
    tau1: float  # seconds until the next multi-hop round
    tau2: float  # seconds until the single-hop round following that round

    def __post_init__(self):
        if not 0 < self.tau1 < self.tau2:
            raise ValueError("sync response requires 0 < tau1 < tau2")


def host_handle_sync_request(now_s: float, next_mh_round_start_s: float,
                             params: ProtocolParams) -> SyncResponse:
    """Answer one sync request heard while idle-listening.

    tau2 points at the single-hop round that follows the next multi-hop
    round, never at an earlier single-hop round that may be imminent.
    """
    if next_mh_round_start_s <= now_s:
        raise ValueError("next round start must lie in the future")
    tau1 = next_mh_round_start_s - now_s
    return SyncResponse(tau1=tau1, tau2=tau1 + params.delta_t)


@dataclass(frozen=True)
class Schedule:
    """One round's first-slot broadcast."""

    assignments: tuple[int, ...]  # slot i belongs to assignments[i]
    sample_multihop: bool = False

    def __post_init__(self):
        if len(set(self.assignments)) != len(self.assignments):
            raise ValueError("a node cannot hold two slots in one round")

    def slot_of(self, node: int) -> Optional[int]:
        try:
            return self.assignments.index(node)
        except ValueError:
            return None


class ScheduleBook:
    """Per-VSN slot ownership with dataless-round pruning.

    Assignment order is stable: existing owners keep their relative
    order, new demands are appended in arrival order, and demands beyond
    the slot limit wait in a FIFO for the next round.
    """

    def __init__(self, max_slots: int, p: int):
        self.max_slots = max_slots
        self.p = p
        self._dataless: "OrderedDict[int, int]" = OrderedDict()
        self._waiting: deque[int] = deque()

    @property
    def assigned(self) -> tuple[int, ...]:
        return tuple(self._dataless.keys())

    @property
    def waiting(self) -> tuple[int, ...]:
        return tuple(self._waiting)

    def enqueue_demand(self, node: int):
        if node not in self._dataless and node not in self._waiting:
            self._waiting.append(node)

    def observe_round(self, delivered: Iterable[int]):
        """Update dataless counters after a round's data slots."""
        got = set(delivered)
        for node in self._dataless:
            self._dataless[node] = 0 if node in got else self._dataless[node] + 1

    def prune_and_fill(self) -> tuple[int, ...]:
        """Drop exhausted owners, admit waiting demands, return slots."""
        for node in [n for n, c in self._dataless.items() if c >= self.p]:
            del self._dataless[node]
        while self._waiting and len(self._dataless) < self.max_slots:
            self._dataless[self._waiting.popleft()] = 0
        return self.assigned


def host_build_schedule(
    book: ScheduleBook,
    params: ProtocolParams,
    vsn: str,
    round_index: int,
) -> Schedule:
    """Produce round round_index's schedule of one VSN from its book.

    Every m-th single-hop schedule tells its members to sample the
    multi-hop VSN in the next multi-hop round.
    """
    sample = vsn == "single_hop" and round_index % params.m == 0
    return Schedule(assignments=book.prune_and_fill(), sample_multihop=sample)
