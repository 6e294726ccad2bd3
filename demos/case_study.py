#!/usr/bin/env python3
"""Replay the two-node deployment scenario.

Two nodes sit behind short relay links, harvest indoor light on very
different schedules, and report every 3 minutes for 12 hours. The script
sketches both harvest traces and prints what each node delivered.
"""
from __future__ import annotations

import numpy as np

from ewansim.metrics import compute_all_metrics
from ewansim.protocol.run import simulate_run
from ewansim.scenario import case_study_scenario

BAR = " .:-=+*#"


def sparkline(samples: np.ndarray, width: int = 72) -> str:
    edges = np.linspace(0, len(samples), width + 1).astype(int)
    buckets = [samples[a:b].mean() if b > a else 0.0
               for a, b in zip(edges, edges[1:])]
    top = max(buckets) or 1.0
    idx = [min(int(v / top * (len(BAR) - 1) + 0.5), len(BAR) - 1)
           for v in buckets]
    return "".join(BAR[i] for i in idx)


def main() -> None:
    sc = case_study_scenario()
    traces = sc.traces_for_run(np.random.default_rng(0))
    print(f"{sc.n_nodes} nodes, period {sc.params.period_t:.0f} s, "
          f"horizon {sc.horizon_s / 3600:.0f} h\n")
    for v in sorted(traces):
        tr = traces[v]
        avg_uw = tr.samples.mean() * 1e6
        print(f"node {v} harvest ({avg_uw:5.1f} uW mean over the horizon)")
        print("  " + sparkline(tr.samples) + "\n")

    metrics = compute_all_metrics(simulate_run(sc, "ewan", 7))
    for v in sorted(metrics):
        m = metrics[v]
        print(f"node {v}: {m.packets} packets delivered, "
              f"liveness {m.liveness:.2f}, "
              f"efficiency {m.efficiency:.0f} packets/J")


if __name__ == "__main__":
    main()
