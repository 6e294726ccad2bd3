from .params import (
    CONTENTION_BYTES,
    INTER_SLOT_GAP_S,
    SCHEDULE_HEADER_BYTES,
    SLOT_ENTRY_BYTES,
    SYNC_BYTES,
    SYNC_RESPONSE_DELAY_S,
    TURNAROUND_S,
    ProtocolParams,
    VsnConfigs,
    default_vsn_configs,
)
from .state import NodeState, TransitionEvent, Vsn, node_transition
from .host import ScheduleBook
from .records import NodeRoundStats, RoundRecord
from .rounds import MhRoundLayout, ShRoundLayout
from .run import PROTOCOLS, ProtocolRun, RunHooks, RunResult, simulate_run

__all__ = [
    "CONTENTION_BYTES",
    "INTER_SLOT_GAP_S",
    "SCHEDULE_HEADER_BYTES",
    "SLOT_ENTRY_BYTES",
    "SYNC_BYTES",
    "SYNC_RESPONSE_DELAY_S",
    "TURNAROUND_S",
    "ProtocolParams",
    "VsnConfigs",
    "default_vsn_configs",
    "NodeState",
    "TransitionEvent",
    "Vsn",
    "node_transition",
    "ScheduleBook",
    "NodeRoundStats",
    "RoundRecord",
    "MhRoundLayout",
    "ShRoundLayout",
    "PROTOCOLS",
    "ProtocolRun",
    "RunHooks",
    "RunResult",
    "simulate_run",
]
