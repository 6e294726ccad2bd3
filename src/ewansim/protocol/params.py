"""Protocol timing, packet sizing, and per-VSN radio configurations."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..radio import RadioConfig

# packet payload sizes (bytes)
SCHEDULE_HEADER_BYTES = 16
SLOT_ENTRY_BYTES = 1
CONTENTION_BYTES = 4
SYNC_BYTES = 8

# intra-round timing
INTER_SLOT_GAP_S = 0.001
TURNAROUND_S = 0.002       # rx/tx switch inside point-to-point slots
SYNC_RESPONSE_DELAY_S = 0.005


@dataclass(frozen=True)
class ProtocolParams:
    """Round timing and transition thresholds.

    Defaults: 5 min period, 5 s single-hop offset, p = m = 2 rounds,
    one requested slot per node, 6-hop floods with 2 retransmissions,
    20 byte data payload.
    """

    period_t: float = 300.0
    delta_t: float = 5.0
    p: int = 2
    m: int = 2
    max_data_slots_mh: int = 15
    max_data_slots_sh: int = 15
    flood_hops: int = 6
    flood_retx: int = 2
    sh_retx_host: int = 1
    data_payload: int = 20
    backoff_window: float = 60.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and not isinstance(getattr(self, f.name), int):
                raise ValueError(f"{f.name} must be an integer")
        if self.p < 1 or self.m < 1:
            raise ValueError("p and m must be >= 1")
        if not (0 < self.period_t < math.inf and 0 < self.delta_t < math.inf):
            raise ValueError("period_t and delta_t must be finite and positive")
        if self.delta_t >= self.period_t:
            raise ValueError("delta_t must be smaller than period_t")
        if self.flood_hops < 1 or self.flood_retx < 0:
            raise ValueError("flood geometry out of range")
        if self.sh_retx_host < 0:
            raise ValueError("sh_retx_host must be >= 0")
        if self.max_data_slots_mh < 1 or self.max_data_slots_sh < 1:
            raise ValueError("need at least one data slot per round")
        if not 0 < self.backoff_window < math.inf:
            raise ValueError("backoff_window must be finite and positive")

    @property
    def schedule_payload_mh(self) -> int:
        # fixed-size schedules keep the first slot predictable for joiners
        return SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * self.max_data_slots_mh

    @property
    def schedule_payload_sh(self) -> int:
        return SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * self.max_data_slots_sh

    def mh_round_start(self, k: int) -> float:
        return k * self.period_t

    def sh_round_start(self, k: int) -> float:
        return k * self.period_t + self.delta_t

    def next_mh_round_after(self, now_s: float) -> tuple[int, float]:
        """Index and start of the first multi-hop round strictly after now."""
        k = int(now_s // self.period_t) + 1
        return k, self.mh_round_start(k)

    def next_sh_round_after(self, now_s: float) -> tuple[int, float]:
        k = int((now_s - self.delta_t) // self.period_t) + 1
        if self.sh_round_start(k) <= now_s:
            k += 1
        return k, self.sh_round_start(k)


@dataclass(frozen=True)
class VsnConfigs:
    """Radio configuration of each virtual sub-network."""

    bootstrap: RadioConfig
    single_hop: RadioConfig
    multi_hop: RadioConfig

    def __post_init__(self):
        fcs = {
            self.bootstrap.center_frequency_hz,
            self.single_hop.center_frequency_hz,
            self.multi_hop.center_frequency_hz,
        }
        if len(fcs) != 3:
            raise ValueError("the three VSNs must use distinct channels")


def default_vsn_configs() -> VsnConfigs:
    """Long-range chirp for bootstrapping and single-hop (distinct
    channels), 250 kbit/s FSK for multi-hop, all at +14 dBm. Sensitivities
    are nominal: -124 dBm for SF7 at 125 kHz, -104 dBm for 250 kbit/s FSK."""
    return VsnConfigs(
        bootstrap=RadioConfig(
            modulation="lora",
            spreading_factor=7,
            bandwidth_hz=125e3,
            center_frequency_hz=866.3125e6,
            tx_power_dbm=14.0,
            sensitivity_dbm=-124.0,
        ),
        single_hop=RadioConfig(
            modulation="lora",
            spreading_factor=7,
            bandwidth_hz=125e3,
            center_frequency_hz=863.3125e6,
            tx_power_dbm=14.0,
            sensitivity_dbm=-124.0,
        ),
        multi_hop=RadioConfig(
            modulation="fsk",
            datarate_bps=250e3,
            bandwidth_hz=312e3,
            center_frequency_hz=864.6875e6,
            tx_power_dbm=14.0,
            sensitivity_dbm=-104.0,
        ),
    )
