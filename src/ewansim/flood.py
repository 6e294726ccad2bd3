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
probability among the transmitters that reach it, drawing only when that
probability is strictly between 0 and 1, in ascending node order. Node sets
are bitmasks (bit ``j`` for node ``j``) over the link matrix's cached
``reach_masks``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .links import LinkMatrix, mask_nodes, node_mask
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


class FloodNodeResult(NamedTuple):
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
    # span -> per-node radio time split, see radio_times
    _times: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def duration_s(self) -> float:
        return self.n_slots * self.slot_s

    def radio_times(self, span: float) -> dict[int, tuple[float, float, float]]:
        """node -> (listen s, transmit s, idle s) within a slot of ``span``
        seconds carrying this flood; computed once per span, so a memoized
        flood reuses it."""
        times = self._times.get(span)
        if times is None:
            times = self._times[span] = {}
            split: dict[FloodNodeResult, tuple[float, float, float]] = {}
            for node, r in self.nodes.items():
                t = split.get(r)
                if t is None:
                    tx_s = r.tx_count * self.toa_s
                    t = split[r] = (r.radio_on_s - tx_s, tx_s,
                                    span - r.radio_on_s)
                times[node] = t
        return times


def simulate_flood(
    initiator: int,
    payload_bytes: int,
    participants: set[int],
    links: LinkMatrix,
    config: RadioConfig,
    hops: int,
    retransmissions: int,
    stream: np.random.Generator,
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
) -> FloodResult:
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if retransmissions < 0:
        raise ValueError("retransmissions must be >= 0")

    toa = time_on_air(config, payload_bytes)
    slot_s = toa + FLOOD_GUARD_S
    n_slots = hops + retransmissions
    budget = retransmissions + 1

    reach, sure, heard, p_to = links.reach_masks(config)

    packet = dict(holders)
    payloads = set(holders.values())
    listening = node_mask(participants)
    # per wave: its nodes in id order, and as bitmasks the wave itself, the
    # nodes its members reach, and the nodes they reach with certainty
    waves: list[list[int]] = []
    fronts: list[tuple[int, int, int]] = []
    wave, got = sorted(holders), node_mask(holders)
    slot = 0
    while True:
        listening &= ~got
        r = s = 0
        for u in wave:
            r |= reach[u]
            s |= sure[u]
        waves.append(wave)
        fronts.append((got, r, s))
        slot += 1
        if slot > n_slots or not listening:
            break
        lo = slot - budget if slot > budget else 0
        if len(payloads) > 1:
            transmitters = sorted(u for w in waves[lo:slot] for u in w)
            if not transmitters:
                break  # every later window is empty too
            sent = {packet[u] for u in transmitters}
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
            if unsure:
                # one batched call gives the doubles, and leaves the
                # generator state, of k scalar calls in ascending node order
                k = unsure.bit_count()
                draws = iter(stream.random(k).tolist() if k > 1
                             else (stream.random(),))
                while unsure:
                    bit = unsure & -unsure  # the lowest node left
                    unsure ^= bit
                    v = bit.bit_length() - 1
                    # the best p over the transmitters that reach v
                    p_from = p_to[v]
                    p = 0.0
                    senders = tx & heard[v]
                    while senders:
                        low = senders & -senders
                        senders ^= low
                        q = p_from[low.bit_length() - 1]
                        if q > p:
                            p = q
                    if next(draws) < p:
                        got |= bit
            wave = mask_nodes(got)
            (pkt,) = sent
            for v in wave:
                packet[v] = pkt
        else:
            rows = links.loss_rows
            tx_power = config.tx_power_dbm
            signals = [(packet[u], u, rows[u]) for u in transmitters]
            wave = []
            for v in mask_nodes(listening):
                won = resolve_concurrent(
                    [ConcurrentAttempt(pkt, u, tx_power - row[v])
                     for pkt, u, row in signals],
                    config.sensitivity_dbm, DEFAULT_RAMP_DB,
                    DEFAULT_CAPTURE_SIGMA_DB, stream,
                )
                if won is not None:
                    packet[v] = won
                    wave.append(v)
            got = node_mask(wave)

    # a node listens in every sub-slot up to and including the one it first
    # receives in, transmits in the window after it, and keeps its radio off
    # after; the nodes of one wave holding one packet share one record
    nodes = dict.fromkeys(
        participants, FloodNodeResult(False, None, None, n_slots * slot_s, 0))
    for first, wave in enumerate(waves):
        tx_count = min(budget, n_slots - first)
        radio_on_s = (first + tx_count) * slot_s
        shared: dict[int, FloodNodeResult] = {}
        for v in wave:
            pkt = packet[v]
            rec = shared.get(pkt)
            if rec is None:
                rec = shared[pkt] = FloodNodeResult(
                    True, pkt, first, radio_on_s, tx_count)
            nodes[v] = rec
    return FloodResult(nodes=nodes, n_slots=n_slots, toa_s=toa, slot_s=slot_s)
