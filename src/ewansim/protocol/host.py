"""Host-side slot books, one per VSN.

The host is the single mains-powered gateway. Its book for a VSN drops
nodes that stay dataless for p consecutive rounds and appends newly
demanded slots in arrival order. ProtocolRun._handle_sync answers the
asynchronous synchronization requests, and ProtocolRun._handle_round
broadcasts each round's slots from the book.
"""
from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterable


class ScheduleBook:
    """Per-VSN slot ownership with dataless-round pruning.

    Assignment order is stable: existing owners keep their relative
    order, new demands are appended in arrival order, and demands beyond
    the slot limit wait in a FIFO for the next round. A node holds at
    most one slot: owners are dict keys and repeated demands are dropped.
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
