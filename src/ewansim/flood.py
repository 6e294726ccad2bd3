"""Synchronous-transmission flooding.

A flood disseminates one packet through the whole virtual sub-network in
``hops + retransmissions`` equal sub-slots: every node that already holds
the packet retransmits it simultaneously (until its per-node budget of
``retransmissions + 1`` transmissions is spent), every node without it
listens, and concurrent copies of the same payload combine constructively
at the receiver. Contention floods follow identical slot mechanics but
start from several initiators carrying distinct payloads, so capture
decides which packet, if any, each listener ends up with.

The kernel runs wave by wave. Wave ``s`` is the set of nodes that first
hold the packet in sub-slot ``s`` (wave 0 are the initiators). A holder
transmits in the ``retransmissions + 1`` sub-slots after its own, so the
transmitters of sub-slot ``s`` are exactly waves ``s - retransmissions - 1``
to ``s - 1``, and a node of wave ``s`` transmits
``min(retransmissions + 1, n_slots - s)`` times. The flood stops as soon
as no listener is left or the transmit window is empty, and also after a
one-payload sub-slot that reaches no listener: no wave formed, so every
later window is a subset of that one and can reach no listener either.

In a one-payload sub-slot each listener receives with the best lone-packet
probability among the transmitters that reach it: the first of its
senders, ranked by that probability, that transmits. It draws only when
the probability is strictly between 0 and 1, in ascending node order. A
sub-slot with distinct payloads calls ``resolve_concurrent`` once per
listener, in ascending node order, with plain ``(packet, sender, rx_dbm)``
attempts from the link matrix's cached received powers. Node sets are
bitmasks (bit ``j`` for node ``j``) over its cached ``reach_masks``.

Every draw is one ``stream.random()`` call, so the stream may be a numpy
Generator or an ``engine.Draws`` over one, with the same outcome.
"""
from __future__ import annotations

from typing import AbstractSet, Mapping, NamedTuple, Optional

import numpy as np

from .engine import Draws
from .links import LinkMatrix, mask_nodes, node_mask
from .radio import RadioConfig, resolve_concurrent, time_on_air

# clock-offset allowance appended to every sub-slot
FLOOD_GUARD_S = 0.0005


class FloodNodeResult(NamedTuple):
    received: bool
    packet_id: Optional[int]
    first_slot: Optional[int]  # 1-based sub-slot of first reception, 0 = initiator
    radio_on_s: float
    tx_count: int


class FloodResult(NamedTuple):
    """A node transmits for tx_count * toa_s seconds and listens for the
    rest of its radio_on_s."""

    nodes: dict[int, FloodNodeResult]
    n_slots: int
    toa_s: float
    slot_s: float


def simulate_flood(
    initiator: int,
    payload_bytes: int,
    participants: AbstractSet[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator | Draws,
) -> FloodResult:
    """Flood one packet from a single initiator to all participants.

    A fully failed flood (initiator-only delivery) is a valid outcome,
    not an error.
    """
    if initiator not in participants:
        raise ValueError("initiator must be a participant")
    return simulate_contention_flood(
        {initiator: initiator}, payload_bytes, participants, links, config,
        hops, retransmissions, stream)


def simulate_contention_flood(
    initiators: Mapping[int, int],
    payload_bytes: int,
    participants: AbstractSet[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator | Draws,
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
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if retransmissions < 0:
        raise ValueError("retransmissions must be >= 0")

    toa = time_on_air(config, payload_bytes)
    slot_s = toa + FLOOD_GUARD_S
    n_slots = hops + retransmissions
    budget = retransmissions + 1

    reach, sure, senders = links.reach_masks(config)

    payloads = set(initiators.values())
    contention = len(payloads) > 1
    listening = node_mask(participants)
    # a node that never receives listens through the whole flood
    nodes = dict.fromkeys(
        participants, FloodNodeResult(False, None, None, n_slots * slot_s, 0))
    # per wave: packet -> the bitmask of the wave's nodes holding it; and
    # as bitmasks the wave itself, the nodes its members reach, and the
    # nodes they reach with certainty
    waves: list[dict[int, int]] = []
    fronts: list[tuple[int, int, int]] = []
    wave: dict[int, int] = {}
    for u, pkt in initiators.items():
        wave[pkt] = wave.get(pkt, 0) | 1 << u
    got = node_mask(initiators)
    slot = 0
    while True:
        listening &= ~got
        # a node of this wave listened in sub-slots 1 to slot, transmits in
        # the tx_count after, and then turns its radio off; the wave's
        # nodes holding one packet share one record
        tx_count = budget if slot + budget <= n_slots else n_slots - slot
        radio_on_s = (slot + tx_count) * slot_s
        r = s = 0
        for pkt, bits in wave.items():
            rec = FloodNodeResult(True, pkt, slot, radio_on_s, tx_count)
            while bits:
                low = bits & -bits
                bits ^= low
                u = low.bit_length() - 1
                nodes[u] = rec
                r |= reach[u]
                s |= sure[u]
        waves.append(wave)
        fronts.append((got, r, s))
        slot += 1
        if slot > n_slots or not listening:
            break
        lo = slot - budget if slot > budget else 0
        if contention:
            sent = {pkt for w in waves[lo:slot] for pkt in w}
            if not sent:
                break  # every later window is empty too
        else:
            sent = payloads
        if len(sent) == 1:
            # One payload: resolve_concurrent's single-group case. Its
            # candidate is the strongest copy and the ramp is monotone, so
            # the candidate's probability is the best link's; the draws are
            # the same, in the same order.
            tx = r = s = 0
            for bits, wave_r, wave_s in fronts[lo:slot]:
                tx |= bits
                r |= wave_r
                s |= wave_s
            reached = listening & r
            if not reached:
                break  # later windows are subsets of this one
            got = reached & s
            unsure = reached & ~s
            while unsure:
                bit = unsure & -unsure  # the lowest node left
                unsure ^= bit
                # the best p over the transmitters that reach this node
                for p, sender in senders[bit.bit_length() - 1]:
                    if tx & sender:
                        break
                if stream.random() < p:
                    got |= bit
            (pkt,) = sent
            wave = {pkt: got} if got else {}
        else:
            rx = links.rx_dbm(config)
            signals = sorted((u, pkt) for w in waves[lo:slot]
                             for pkt, bits in w.items()
                             for u in mask_nodes(bits))
            signals = [(pkt, u, rx[u]) for u, pkt in signals]
            wave = {}
            got = 0
            for v in mask_nodes(listening):
                won = resolve_concurrent(
                    [(pkt, u, row[v]) for pkt, u, row in signals],
                    config.sensitivity_dbm, stream)
                if won is not None:
                    bit = 1 << v
                    wave[won] = wave.get(won, 0) | bit
                    got |= bit
    return FloodResult(nodes=nodes, n_slots=n_slots, toa_s=toa, slot_s=slot_s)
