"""Packet-level RF model: time-on-air per radio configuration, link-budget
reception, probabilistic loss near sensitivity, and concurrent-transmission
capture.

Sensitivities and radio supply powers are nominal transceiver-class
constants; comparisons in the evaluation depend on orderings and ratios,
not on absolute dBm or milliwatts. Every run uses one reception ramp
(DEFAULT_RAMP_DB) and one capture sigma (DEFAULT_CAPTURE_SIGMA_DB).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

# supply power drawn from the node's regulated rail while transmitting,
# keyed by configured output power (dBm) -> watts
TX_SUPPLY_W = {
    0.0: 0.055,
    10.0: 0.075,
    14.0: 0.090,
    22.0: 0.120,
}

# supply power while the receiver is on, per modulation -> watts
RX_SUPPLY_W = {
    "lora": 0.0158,
    "fsk": 0.0164,
}

DEFAULT_RAMP_DB = 2.0
DEFAULT_CAPTURE_SIGMA_DB = 3.0

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RadioConfig:
    """One VSN's physical-layer configuration.

    Exactly one of spreading_factor (lora) / datarate_bps (fsk) is set.
    Distinct VSNs use distinct center frequencies, and transmissions on
    different center frequencies never interact.
    """

    modulation: str  # "lora" | "fsk"
    bandwidth_hz: float
    center_frequency_hz: float
    tx_power_dbm: float
    sensitivity_dbm: float
    spreading_factor: Optional[int] = None
    datarate_bps: Optional[float] = None
    preamble_symbols: int = 8  # lora
    coding_rate: int = 1  # lora, 4/(4+coding_rate)
    preamble_bytes: int = 4  # fsk
    sync_bytes: int = 3  # fsk
    length_bytes: int = 1  # fsk
    crc_bytes: int = 2  # fsk
    has_crc: bool = True
    explicit_header: bool = True

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if "int" in f.type and v is not None and not isinstance(v, int):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.modulation == "lora":
            if self.spreading_factor is None or self.datarate_bps is not None:
                raise ValueError("lora config needs spreading_factor and no datarate")
            if not 5 <= self.spreading_factor <= 12:
                raise ValueError(f"spreading factor out of range: {self.spreading_factor}")
        elif self.modulation == "fsk":
            if self.datarate_bps is None or self.spreading_factor is not None:
                raise ValueError("fsk config needs datarate_bps and no spreading factor")
            if not self.datarate_bps > 0:
                raise ValueError("datarate_bps must be positive")
        else:
            raise ValueError(f"unknown modulation: {self.modulation!r}")
        if self.tx_power_dbm not in TX_SUPPLY_W:
            raise ValueError(
                f"tx_power_dbm must be one of {sorted(TX_SUPPLY_W)} (the "
                f"powers with a known supply draw), got {self.tx_power_dbm}")

    @property
    def tx_watts(self) -> float:
        """Supply power drawn while transmitting."""
        return TX_SUPPLY_W[self.tx_power_dbm]

    @property
    def rx_watts(self) -> float:
        """Supply power drawn while the receiver is on."""
        return RX_SUPPLY_W[self.modulation]


def time_on_air(config: RadioConfig, payload_bytes: int) -> float:
    """Transmission duration in seconds for one packet.

    LoRa follows the standard symbol-time construction: preamble plus header
    plus coded payload symbols at 2^SF / BW per symbol, with low-data-rate
    optimization whenever the symbol time exceeds 16 ms. FSK is byte-linear:
    (preamble + sync + length + payload + crc) * 8 / datarate.
    """
    if payload_bytes < 0 or payload_bytes > 255:
        raise ValueError(f"payload out of range: {payload_bytes}")
    if config.modulation == "fsk":
        frame_bytes = (
            config.preamble_bytes
            + config.sync_bytes
            + config.length_bytes
            + payload_bytes
            + config.crc_bytes
        )
        return frame_bytes * 8.0 / config.datarate_bps

    sf = config.spreading_factor
    t_sym = (2.0 ** sf) / config.bandwidth_hz
    crc_bits = 16 if config.has_crc else 0
    if sf >= 7:
        # header costs 20 bits when explicit; the +8 is the PHY's fixed
        # payload offset for SF7 and above
        bits = 8 * payload_bytes - 4 * sf + 8 + crc_bits
        if config.explicit_header:
            bits += 20
        low_data_rate = t_sym > 0.016
        bits_per_symbol = 4 * (sf - 2) if low_data_rate else 4 * sf
        preamble = (config.preamble_symbols + 4.25) * t_sym
    else:
        # short spreading factors use a longer preamble overhead, drop the
        # +8 offset, and never enable low-data-rate optimization
        bits = 8 * payload_bytes - 4 * sf + crc_bits
        if config.explicit_header:
            bits += 20
        bits_per_symbol = 4 * sf
        preamble = (config.preamble_symbols + 6.25) * t_sym
    coded_blocks = max(0, math.ceil(bits / bits_per_symbol))
    payload_symbols = 8 + coded_blocks * (4 + config.coding_rate)
    return preamble + payload_symbols * t_sym


def received_power(tx_power_dbm: float, loss_db: float) -> float:
    return tx_power_dbm - loss_db


def reception_probability(
    rx_power_dbm: float, sensitivity_dbm: float, ramp_width_db: float = DEFAULT_RAMP_DB
) -> float:
    """0 below sensitivity, 1 at sensitivity + ramp_width, linear between."""
    if ramp_width_db <= 0:
        raise ValueError("ramp width must be positive")
    if rx_power_dbm < sensitivity_dbm:
        return 0.0
    if rx_power_dbm >= sensitivity_dbm + ramp_width_db:
        return 1.0
    return (rx_power_dbm - sensitivity_dbm) / ramp_width_db


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


class ConcurrentAttempt(NamedTuple):
    """One transmission as seen by a listener during an overlap."""

    packet_id: int
    sender: int
    rx_power_dbm: float


def resolve_concurrent(
    attempts: Sequence[ConcurrentAttempt],
    sensitivity_dbm: float,
    ramp_width_db: float,
    capture_sigma_db: float,
    stream: np.random.Generator,
) -> Optional[int]:
    """Outcome of temporally overlapping transmissions at one listener.

    Attempts carrying the same packet_id are synchronous retransmissions of
    the same data and combine constructively: the group acts as one signal
    whose power is the linear sum of its members and whose decodable
    candidate is the strongest member. Groups with distinct payloads
    compete: the strongest group is captured with probability
    Phi(delta / sigma), where delta is its power advantage in dB over the
    linear-watt sum of every other group. With exactly two competing
    payloads the weaker one gets the complementary capture probability;
    with more than two, a failed capture means nothing is decodable.
    Reception of the winning candidate is then scaled by its own
    reception_probability. Returns the received packet_id or None.
    """
    if not attempts:
        raise ValueError("resolve_concurrent requires at least one attempt")

    groups: dict[int, list[ConcurrentAttempt]] = {}
    for att in attempts:
        groups.setdefault(att.packet_id, []).append(att)

    def group_power_mw(members: list[ConcurrentAttempt]) -> float:
        return sum(dbm_to_mw(a.rx_power_dbm) for a in members)

    def candidate(members: list[ConcurrentAttempt]) -> ConcurrentAttempt:
        return max(members, key=lambda a: a.rx_power_dbm)

    def bernoulli(p: float) -> bool:
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return stream.random() < p

    if len(groups) == 1:
        best = candidate(next(iter(groups.values())))
        p = reception_probability(best.rx_power_dbm, sensitivity_dbm, ramp_width_db)
        return best.packet_id if bernoulli(p) else None

    ranked = sorted(
        groups.items(), key=lambda kv: group_power_mw(kv[1]), reverse=True
    )
    strongest_id, strongest_members = ranked[0]
    rest_mw = sum(group_power_mw(members) for _, members in ranked[1:])
    strong_dbm = mw_to_dbm(group_power_mw(strongest_members))
    delta_db = strong_dbm - mw_to_dbm(rest_mw)
    capture_p = normal_cdf(delta_db / capture_sigma_db)

    if len(ranked) == 2:
        winner_id, winner_members = ranked[0] if bernoulli(capture_p) else ranked[1]
    else:
        if not bernoulli(capture_p):
            return None
        winner_id, winner_members = strongest_id, strongest_members
    winner_cand = candidate(winner_members)
    p = reception_probability(
        winner_cand.rx_power_dbm, sensitivity_dbm, ramp_width_db
    )
    return winner_id if bernoulli(p) else None

