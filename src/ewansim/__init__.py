"""Deterministic simulator and evaluation harness for energy-harvesting
low-power wide-area networks built around virtual sub-networks."""

from .campaign import CampaignResult, run_campaign
from .metrics import NodeMetrics, compute_all_metrics
from .protocol.run import PROTOCOLS, RunHooks, RunResult, simulate_run
from .scenario import (Scenario, ScenarioError, TraceGenParams, build_scenario,
                       case_study_scenario, generate_topology, generate_traces,
                       load_scenario, save_scenario, special_mh_traces)

__all__ = [
    "CampaignResult",
    "NodeMetrics",
    "PROTOCOLS",
    "RunHooks",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "TraceGenParams",
    "build_scenario",
    "case_study_scenario",
    "compute_all_metrics",
    "generate_topology",
    "generate_traces",
    "load_scenario",
    "run_campaign",
    "save_scenario",
    "simulate_run",
    "special_mh_traces",
]

__version__ = "0.1.0"
