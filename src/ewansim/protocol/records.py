"""Result records shared by the protocols and the metrics: per-round
statistics and the run's typed event record."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class RunEvent(NamedTuple):
    """What a run did at t seconds to node (0, the host, for a round
    summary); data holds the kind's fields, as metrics.event_line reads."""

    t: float
    kind: str
    node: int
    data: tuple


@dataclass
class NodeRoundStats:
    received_first_schedule: bool = False
    packets_delivered: int = 0
    packets_attempted: int = 0
    energy_by_category: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.packets_delivered > self.packets_attempted:
            raise ValueError("cannot deliver more packets than attempted")


@dataclass
class RoundRecord:
    vsn: str
    round_index: int
    round_start_s: float
    nodes: dict[int, NodeRoundStats] = field(default_factory=dict)

    @property
    def delivered_total(self) -> int:
        return sum(s.packets_delivered for s in self.nodes.values())

    def participants(self) -> list[int]:
        return [n for n, s in self.nodes.items() if s.received_first_schedule]
