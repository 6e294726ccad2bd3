"""Packet-level RF model: time-on-air per radio configuration, link-budget
reception, probabilistic loss near sensitivity, and concurrent-transmission
capture.

Sensitivities, radio supply powers, the reception ramp (RAMP_DB above
sensitivity) and the capture sigma (CAPTURE_SIGMA_DB) are nominal
transceiver-class constants that every run shares; comparisons in the
evaluation depend on orderings and ratios, not on absolute dBm or
milliwatts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .engine import check_fields

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

# the largest payload a packet's one length byte can announce
MAX_PAYLOAD_BYTES = 255

RAMP_DB = 2.0
CAPTURE_SIGMA_DB = 3.0

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
        check_fields(self)
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
    if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
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


def reception_probability(rx_power_dbm: float, sensitivity_dbm: float) -> float:
    """0 below sensitivity, 1 at sensitivity + RAMP_DB, linear between."""
    if rx_power_dbm < sensitivity_dbm:
        return 0.0
    if rx_power_dbm >= sensitivity_dbm + RAMP_DB:
        return 1.0
    return (rx_power_dbm - sensitivity_dbm) / RAMP_DB


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def resolve_concurrent(
    attempts: Sequence[tuple[int, int, float]],
    sensitivity_dbm: float,
    stream,
) -> Optional[int]:
    """Outcome of temporally overlapping transmissions at one listener.

    Each attempt is a (packet_id, sender, rx_power_dbm) tuple. Attempts
    carrying the same packet_id are synchronous retransmissions of the
    same data and combine constructively: the group acts as one signal
    whose power is the linear sum of its members and whose decodable
    candidate is the strongest member. Groups with distinct payloads
    compete: the strongest group is captured with probability
    Phi(delta / CAPTURE_SIGMA_DB), where delta is its power advantage in
    dB over the linear-watt sum of every other group. With
    exactly two competing payloads the weaker one gets the complementary
    capture probability; with more than two, a failed capture means
    nothing is decodable. Reception of the winning candidate is then
    scaled by its own reception_probability. Each draw is one
    stream.random() call, made only for a probability strictly between 0
    and 1; stream is a numpy Generator or an engine.Draws. Returns the
    received packet_id or None.
    """
    if not attempts:
        raise ValueError("resolve_concurrent requires at least one attempt")

    # packet_id -> [strongest member's dBm, every member's mW in order]
    groups: dict[int, list] = {}
    for packet_id, _, dbm in attempts:
        group = groups.get(packet_id)
        if group is None:
            groups[packet_id] = [dbm, [10.0 ** (dbm / 10.0)]]
        else:
            if dbm > group[0]:
                group[0] = dbm
            group[1].append(10.0 ** (dbm / 10.0))

    if len(groups) == 1:
        ((winner_id, (best_dbm, _)),) = groups.items()
    else:
        # (power mW, packet_id, strongest dBm), strongest first; the sort
        # is stable, so equal powers keep their first-seen order
        ranked = sorted([(sum(mws), packet_id, best)
                         for packet_id, (best, mws) in groups.items()],
                        key=itemgetter(0), reverse=True)
        strong_mw = ranked[0][0]
        rest_mw = sum([mw for mw, _, _ in ranked[1:]])
        delta_db = 10.0 * math.log10(strong_mw) - 10.0 * math.log10(rest_mw)
        captured = bernoulli(stream, normal_cdf(delta_db / CAPTURE_SIGMA_DB))
        if captured:
            _, winner_id, best_dbm = ranked[0]
        elif len(ranked) == 2:
            _, winner_id, best_dbm = ranked[1]
        else:
            return None
    p = reception_probability(best_dbm, sensitivity_dbm)
    return winner_id if bernoulli(stream, p) else None


def bernoulli(stream, p: float) -> bool:
    """True with probability p; draws one stream.random() only when
    0 < p < 1."""
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return stream.random() < p
