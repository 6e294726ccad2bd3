"""Monte Carlo campaigns: repeated runs, shared traces, aggregation.

The harvesting traces of run i depend only on (master_seed, i). A
campaign draws them once per run index and simulates every protocol on
them, so protocols compared at the same run index experience identical
harvesting conditions. Every other random stream of a run is seeded
afresh per protocol, exactly as a lone simulate_run would seed it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import RandomStreams
from .metrics import METRIC_NAMES, NodeMetrics, compute_all_metrics
from .protocol.run import PROTOCOLS, simulate_run


@dataclass
class CampaignResult:
    protocols: Tuple[str, ...]
    n_runs: int
    master_seed: int
    n_nodes: int
    # (protocol, run_index) -> {node: NodeMetrics}
    runs: Dict[Tuple[str, int], Dict[int, NodeMetrics]] = field(default_factory=dict)

    def metric_samples(self, protocol: str, metric: str) -> List[float]:
        """One value per (run, node), runs outer, nodes inner."""
        out = []
        for i in range(self.n_runs):
            per_node = self.runs[(protocol, i)]
            for node in sorted(per_node):
                out.append(per_node[node].value(metric))
        return out

    def node_samples(self, protocol: str, node: int, metric: str) -> List[float]:
        return [self.runs[(protocol, i)][node].value(metric)
                for i in range(self.n_runs)]

    def mean(self, protocol: str, metric: str) -> float:
        return float(np.mean(self.metric_samples(protocol, metric)))


def run_campaign(scenario, protocols: Sequence[str], n_runs: int,
                 master_seed: int,
                 on_run_done: Optional[Callable[[int, int], None]] = None,
                 ) -> CampaignResult:
    """Simulate every protocol n_runs times and keep only the metrics.

    Run indices are the outer loop: the traces of run i are drawn once
    and shared by every protocol. on_run_done(i, n_runs) is called after
    the last protocol of run i.
    """
    protocols = tuple(protocols)
    if not protocols:
        raise ValueError("no protocols given")
    for j, p in enumerate(protocols):
        if p not in PROTOCOLS:
            raise ValueError(f"unknown protocol {p!r}; choose from "
                             f"{', '.join(PROTOCOLS)}")
        if p in protocols[:j]:
            raise ValueError(f"protocol {p} is given twice")
    if n_runs < 1:
        raise ValueError("a campaign needs at least one run")
    out = CampaignResult(protocols=protocols, n_runs=n_runs,
                         master_seed=master_seed, n_nodes=scenario.n_nodes)
    for i in range(n_runs):
        traces = scenario.traces_for_run(
            RandomStreams(master_seed, i).stream("traces"))
        for protocol in protocols:
            # no name holds the RunResult, so it is freed once its metrics
            # are read, before the next protocol's run builds its own
            out.runs[(protocol, i)] = compute_all_metrics(simulate_run(
                scenario, protocol, master_seed, run_index=i, traces=traces))
        if on_run_done is not None:
            on_run_done(i, n_runs)
    return out


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def aggregate_network(result: CampaignResult) -> List[dict]:
    """One row per (protocol, metric) over all run x node samples."""
    rows = []
    for protocol in result.protocols:
        for metric in METRIC_NAMES:
            vals = result.metric_samples(protocol, metric)
            q1, q2, q3 = _quartiles(vals)
            rows.append({
                "protocol": protocol, "metric": metric,
                "mean": float(np.mean(vals)),
                "q1": q1, "median": q2, "q3": q3,
                "n_samples": len(vals),
            })
    return rows


def aggregate_per_node(result: CampaignResult) -> List[dict]:
    """One row per (protocol, node, metric), distribution over runs."""
    rows = []
    for protocol in result.protocols:
        for node in range(1, result.n_nodes + 1):
            for metric in METRIC_NAMES:
                vals = result.node_samples(protocol, node, metric)
                q1, q2, q3 = _quartiles(vals)
                rows.append({
                    "protocol": protocol, "node": node, "metric": metric,
                    "mean": float(np.mean(vals)),
                    "q1": q1, "median": q2, "q3": q3,
                })
    return rows


def write_campaign_csvs(result: CampaignResult, out_dir: str) -> List[str]:
    """Write aggregate.csv and pernode.csv; returns the paths."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rows in (("aggregate.csv", aggregate_network(result)),
                       ("pernode.csv", aggregate_per_node(result))):
        paths.append(os.path.join(out_dir, name))
        # a row's keys are its columns, in order; str of a float is its repr
        with open(paths[-1], "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return paths
