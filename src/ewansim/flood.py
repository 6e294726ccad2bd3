"""Synchronous-transmission flooding.

A flood disseminates one packet through the whole virtual sub-network in
``hops + retransmissions`` equal sub-slots: every node that already holds
the packet retransmits it simultaneously (until its per-node budget of
``retransmissions + 1`` transmissions is spent), every node without it
listens, and concurrent copies of the same payload combine constructively
at the receiver. Contention floods follow identical slot mechanics but
start from several initiators carrying distinct payloads, so capture
decides which packet, if any, each listener ends up with.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .links import LinkMatrix
from .radio import (
    DEFAULT_CAPTURE_SIGMA_DB,
    DEFAULT_RAMP_DB,
    ConcurrentAttempt,
    RadioConfig,
    resolve_concurrent,
    time_on_air,
)

# clock-offset allowance appended to every sub-slot
FLOOD_GUARD_S = 0.0005


@dataclass(frozen=True)
class FloodNodeResult:
    received: bool
    packet_id: Optional[int]
    first_slot: Optional[int]  # 1-based sub-slot of first reception, 0 = initiator
    radio_on_s: float
    tx_count: int


@dataclass(frozen=True)
class FloodResult:
    nodes: dict[int, FloodNodeResult]
    n_slots: int
    toa_s: float
    slot_s: float

    @property
    def duration_s(self) -> float:
        return self.n_slots * self.slot_s


def simulate_flood(
    initiator: int,
    payload_bytes: int,
    participants: set[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator,
    ramp_width_db: float = DEFAULT_RAMP_DB,
    capture_sigma_db: float = DEFAULT_CAPTURE_SIGMA_DB,
) -> FloodResult:
    """Flood one packet from a single initiator to all participants.

    A fully failed flood (initiator-only delivery) is a valid outcome,
    not an error.
    """
    if initiator not in participants:
        raise ValueError("initiator must be a participant")
    return _run_flood(
        {initiator: initiator},
        payload_bytes,
        participants,
        links,
        config,
        hops,
        retransmissions,
        stream,
        ramp_width_db,
        capture_sigma_db,
    )


def simulate_contention_flood(
    initiators: Mapping[int, int],
    payload_bytes: int,
    participants: set[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator,
    ramp_width_db: float = DEFAULT_RAMP_DB,
    capture_sigma_db: float = DEFAULT_CAPTURE_SIGMA_DB,
) -> FloodResult:
    """Flood with several initiators carrying distinct packets.

    ``initiators`` maps node id to the packet id it injects. Listeners
    resolve overlapping distinct payloads by capture, so different parts
    of the network may end up holding different packets; the packet held
    by the designated receiver (usually the host) is the slot's winner.
    """
    if not initiators:
        raise ValueError("contention flood requires at least one initiator")
    if not set(initiators) <= participants:
        raise ValueError("initiators must be participants")
    return _run_flood(
        dict(initiators),
        payload_bytes,
        participants,
        links,
        config,
        hops,
        retransmissions,
        stream,
        ramp_width_db,
        capture_sigma_db,
    )


def _run_flood(
    holders: dict[int, int],
    payload_bytes: int,
    participants: set[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator,
    ramp_width_db: float,
    capture_sigma_db: float,
) -> FloodResult:
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if retransmissions < 0:
        raise ValueError("retransmissions must be >= 0")

    toa = time_on_air(config, payload_bytes)
    slot_s = toa + FLOOD_GUARD_S
    n_slots = hops + retransmissions
    budget = retransmissions + 1

    packet: dict[int, Optional[int]] = {node: None for node in participants}
    first_slot: dict[int, Optional[int]] = {node: None for node in participants}
    tx_left: dict[int, int] = {node: 0 for node in participants}
    tx_count: dict[int, int] = {node: 0 for node in participants}

    for node, pkt in holders.items():
        packet[node] = pkt
        first_slot[node] = 0
        tx_left[node] = budget

    table = links.reception_table(config, ramp_width_db)
    order = sorted(participants)
    for slot in range(1, n_slots + 1):
        transmitters = [
            u for u in order
            if packet[u] is not None and tx_left[u] > 0 and first_slot[u] < slot
        ]
        for u in transmitters:
            tx_left[u] -= 1
            tx_count[u] += 1
        if not transmitters:
            continue
        listeners = [v for v in order if packet[v] is None]
        heard: list[tuple[int, int]] = []
        sent = {packet[u] for u in transmitters}
        if len(sent) == 1:
            # One payload: resolve_concurrent's single-group case. Its
            # candidate is the strongest copy and the ramp is monotone, so
            # the candidate's probability is the best link's; the draws are
            # the same, in the same order.
            (pkt,) = sent
            best = list(map(max, zip(*[table[u] for u in transmitters])))
            for v in listeners:
                p = best[v]
                if p >= 1.0 or (p > 0.0 and stream.random() < p):
                    heard.append((v, pkt))
        else:
            for v in listeners:
                attempts = [
                    ConcurrentAttempt(
                        packet_id=packet[u],
                        sender=u,
                        rx_power_dbm=config.tx_power_dbm - links.loss_db(u, v),
                    )
                    for u in transmitters
                ]
                won = resolve_concurrent(
                    attempts, config.sensitivity_dbm, ramp_width_db,
                    capture_sigma_db, stream,
                )
                if won is not None:
                    heard.append((v, won))
        for v, pkt in heard:
            packet[v] = pkt
            first_slot[v] = slot
            tx_left[v] = budget

    # a node listens in every sub-slot up to and including the one it first
    # receives in, transmits in tx_count more, and keeps its radio off after
    nodes = {
        node: FloodNodeResult(
            received=packet[node] is not None,
            packet_id=packet[node],
            first_slot=first_slot[node],
            radio_on_s=((n_slots if packet[node] is None else first_slot[node])
                        + tx_count[node]) * slot_s,
            tx_count=tx_count[node],
        )
        for node in participants
    }
    return FloodResult(nodes=nodes, n_slots=n_slots, toa_s=toa, slot_s=slot_s)
