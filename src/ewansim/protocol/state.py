"""Node-side VSN membership state machine.

Each node is in exactly one state at any instant. Powered nodes move
between bootstrapping, multi-hop, and single-hop membership based on
received and missed schedules; energy events move nodes between off
and bootstrapping.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class Vsn(enum.Enum):
    OFF = "off"
    BOOTSTRAPPING = "bootstrapping"
    MULTI_HOP = "multi_hop"
    SINGLE_HOP = "single_hop"


class TransitionEvent(enum.Enum):
    MISSED_SCHEDULE = "missed_schedule"
    RECEIVED_MH_SCHEDULE = "received_mh_schedule"
    RECEIVED_SH_SCHEDULE = "received_sh_schedule"
    SAMPLED_MH_SUCCESS = "sampled_mh_success"
    SAMPLED_MH_FAILURE = "sampled_mh_failure"
    ENERGY_START = "energy_start"
    ENERGY_DEPLETED = "energy_depleted"


@dataclass(frozen=True)
class NodeState:
    vsn: Vsn = Vsn.OFF
    missed_schedules: int = 0


def _with_missed(state: NodeState, missed: int) -> NodeState:
    if missed == state.missed_schedules:
        return state
    return NodeState(state.vsn, missed)


class TransitionError(Exception):
    """Illegal event/state pair: indicates a state-machine bug."""


def node_transition(state: NodeState, event: TransitionEvent, p: int,
                    single_hop_enabled: bool = True) -> NodeState:
    """Apply one membership event and return the successor state.

    ``p`` is the missed-schedule threshold. With ``single_hop_enabled``
    false (the bootstrapping-plus-multi-hop ablation), a node that
    exhausts its multi-hop misses goes straight back to bootstrapping
    and single-hop events become illegal.
    """
    v = state.vsn

    if event is TransitionEvent.ENERGY_DEPLETED:
        if v is Vsn.OFF:
            raise TransitionError("already off")
        return NodeState(vsn=Vsn.OFF)

    if event is TransitionEvent.ENERGY_START:
        if v is not Vsn.OFF:
            raise TransitionError(f"energy_start while {v.value}")
        return NodeState(vsn=Vsn.BOOTSTRAPPING)

    if event is TransitionEvent.MISSED_SCHEDULE:
        if v is Vsn.MULTI_HOP:
            if state.missed_schedules >= p:
                # the pending single-hop join attempt failed as well
                return NodeState(vsn=Vsn.BOOTSTRAPPING)
            missed = state.missed_schedules + 1
            if missed == p and not single_hop_enabled:
                return NodeState(vsn=Vsn.BOOTSTRAPPING)
            # at missed == p the node is about to attempt the single-hop
            # schedule slot; the attempt outcome arrives as a later event
            return _with_missed(state, missed)
        if v is Vsn.SINGLE_HOP:
            missed = state.missed_schedules + 1
            if missed >= p:
                return NodeState(vsn=Vsn.BOOTSTRAPPING)
            return _with_missed(state, missed)
        if v is Vsn.BOOTSTRAPPING:
            return state  # failed bootstrap listen: stay, retry later
        raise TransitionError(f"missed_schedule while {v.value}")

    if event is TransitionEvent.RECEIVED_MH_SCHEDULE:
        if v is Vsn.MULTI_HOP:
            return _with_missed(state, 0)
        if v is Vsn.BOOTSTRAPPING:
            return NodeState(vsn=Vsn.MULTI_HOP)
        raise TransitionError(f"received_mh_schedule while {v.value}")

    if event is TransitionEvent.RECEIVED_SH_SCHEDULE:
        if not single_hop_enabled:
            raise TransitionError("single-hop VSN disabled")
        if v is Vsn.SINGLE_HOP:
            return _with_missed(state, 0)
        if v is Vsn.BOOTSTRAPPING:
            return NodeState(vsn=Vsn.SINGLE_HOP)
        if v is Vsn.MULTI_HOP and state.missed_schedules >= p:
            # exit attempt after p multi-hop misses succeeded
            return NodeState(vsn=Vsn.SINGLE_HOP)
        raise TransitionError(f"received_sh_schedule while {v.value}")

    if event is TransitionEvent.SAMPLED_MH_SUCCESS:
        if not single_hop_enabled:
            raise TransitionError("single-hop VSN disabled")
        if v is Vsn.SINGLE_HOP:
            return NodeState(vsn=Vsn.MULTI_HOP)
        raise TransitionError(f"sampled_mh_success while {v.value}")

    if event is TransitionEvent.SAMPLED_MH_FAILURE:
        if v is Vsn.SINGLE_HOP:
            return state
        raise TransitionError(f"sampled_mh_failure while {v.value}")

    raise TransitionError(f"unknown event {event!r}")
