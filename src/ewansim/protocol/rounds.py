"""Slot geometry of communication rounds.

A round is: first schedule slot, data slots, contention slot, second
schedule slot, with a fixed gap after every slot. Both VSNs run this one
sequence; slot_plan lists what follows the first schedule. Multi-hop slots are
whole floods; single-hop slots are point-to-point exchanges with the
host (packet plus its repetition or echo). Schedule packets carry a
fixed header plus one byte per allowed slot, so the first slot has the
same duration every round and joiners can listen for it without knowing
the current assignment count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ..flood import FLOOD_GUARD_S
from ..radio import RadioConfig, time_on_air
from .params import (
    CONTENTION_BYTES,
    INTER_SLOT_GAP_S,
    TURNAROUND_S,
    ProtocolParams,
)


class _RoundLayout:
    """The slot sequence both layouts share."""

    gap = INTER_SLOT_GAP_S

    def round_duration(self, n_data_slots: int) -> float:
        slots = (
            self.schedule_slot
            + n_data_slots * self.data_slot
            + self.contention_slot
            + self.schedule_slot
        )
        return slots + (n_data_slots + 3) * self.gap

    def slot_plan(self, assignments: Sequence[int]
                  ) -> list[tuple[Union[int, str], float]]:
        """(owner or kind, span) of each slot after the first schedule:
        one data slot per owner, then "contention", then "schedule". A
        span includes the slot's trailing gap."""
        data = self.data_slot + self.gap
        return [(owner, data) for owner in assignments] + [
            ("contention", self.contention_slot + self.gap),
            ("schedule", self.schedule_slot + self.gap)]


@dataclass(frozen=True)
class MhRoundLayout(_RoundLayout):
    """Timing of one multi-hop round; every slot is a flood."""

    n_sub_slots: int
    toa_schedule: float
    toa_data: float
    toa_contention: float

    @classmethod
    def build(cls, params: ProtocolParams, config: RadioConfig) -> "MhRoundLayout":
        return cls(
            n_sub_slots=params.flood_hops + params.flood_retx,
            toa_schedule=time_on_air(config, params.schedule_payload_mh),
            toa_data=time_on_air(config, params.data_payload),
            toa_contention=time_on_air(config, CONTENTION_BYTES),
        )

    def flood_duration(self, toa: float) -> float:
        return self.n_sub_slots * (toa + FLOOD_GUARD_S)

    @property
    def schedule_slot(self) -> float:
        return self.flood_duration(self.toa_schedule)

    @property
    def data_slot(self) -> float:
        return self.flood_duration(self.toa_data)

    @property
    def contention_slot(self) -> float:
        return self.flood_duration(self.toa_contention)

    def max_round_duration(self, params: ProtocolParams) -> float:
        return self.round_duration(params.max_data_slots_mh)


@dataclass(frozen=True)
class ShRoundLayout(_RoundLayout):
    """Timing of one single-hop round; every slot is host point-to-point."""

    host_copies: int  # schedule transmissions per schedule slot
    toa_schedule: float
    toa_data: float
    toa_contention: float
    turnaround = TURNAROUND_S

    @classmethod
    def build(cls, params: ProtocolParams, config: RadioConfig) -> "ShRoundLayout":
        return cls(
            host_copies=params.sh_retx_host + 1,
            toa_schedule=time_on_air(config, params.schedule_payload_sh),
            toa_data=time_on_air(config, params.data_payload),
            toa_contention=time_on_air(config, CONTENTION_BYTES),
        )

    @property
    def schedule_slot(self) -> float:
        c = self.host_copies
        return c * self.toa_schedule + (c - 1) * self.turnaround

    @property
    def data_slot(self) -> float:
        # node packet, turnaround, host repetition
        return 2 * self.toa_data + self.turnaround

    @property
    def contention_slot(self) -> float:
        return 2 * self.toa_contention + self.turnaround

    def schedule_listen_until_copy(self, copy: int) -> float:
        """Receiver listen time when the copy-th transmission lands."""
        return copy * self.toa_schedule + (copy - 1) * self.turnaround

    def max_round_duration(self, params: ProtocolParams) -> float:
        return self.round_duration(params.max_data_slots_sh)
