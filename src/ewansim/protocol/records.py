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


class NodeRoundStats(NamedTuple):
    """One participant's round: whether it received the first schedule,
    its data packet (1 or 0) delivered and attempted, and the joules its
    ledger drew for tx, listen and idle during the round."""

    received_first_schedule: bool
    packets_delivered: int
    packets_attempted: int
    energy_tx_j: float
    energy_listen_j: float
    energy_idle_j: float


@dataclass(slots=True)
class RoundRecord:
    vsn: str
    round_index: int
    round_start_s: float
    nodes: dict[int, NodeRoundStats] = field(default_factory=dict)
