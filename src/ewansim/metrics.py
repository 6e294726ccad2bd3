"""Per-node evaluation metrics derived from one finished run.

Three headline metrics per node:

- efficiency: data packets the host received from the node per joule of
  harvested input energy,
- liveness: fraction of simulated time covered by rounds the node
  received the first schedule of and took part in,
- downtime: fraction of simulated time the node was powered and willing
  to communicate but not covered by such rounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .protocol.records import RunEvent
from .protocol.run import RunResult

METRIC_NAMES = ("efficiency", "liveness", "downtime")


@dataclass(frozen=True)
class NodeMetrics:
    node: int
    e_in_j: float
    packets: int
    t_active_s: float
    t_com_s: float
    t_sim_s: float

    @property
    def efficiency(self) -> float:
        return self.packets / self.e_in_j if self.e_in_j > 0 else 0.0

    @property
    def liveness(self) -> float:
        return self.t_com_s / self.t_sim_s

    @property
    def downtime(self) -> float:
        return (self.t_active_s - self.t_com_s) / self.t_sim_s

    def value(self, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric: {metric}")
        return getattr(self, metric)


def _merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _intersect(xs: Sequence[Tuple[float, float]],
               ys: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            out.append((a, b))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def _total(intervals: Sequence[Tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


def compute_node_metrics(result: RunResult, node: int) -> NodeMetrics:
    """Derive one node's metrics from the run's records and ledgers.

    Each round the node received the first schedule of spans one full
    period from its start; spans are unioned (so a same-cycle fallback
    from one sub-network to the other is not counted twice) and clipped
    to the node's powered intervals, which end at energy depletion.
    """
    t_sim = result.horizon_s
    period = result.params.period_t
    active = _merge((a, min(b, t_sim)) for a, b in
                    result.active_intervals.get(node, ()))
    spans = []
    packets = 0
    for rec in result.records:
        st = rec.nodes.get(node)
        if st is None:
            continue
        packets += st.packets_delivered
        if st.received_first_schedule:
            spans.append((rec.round_start_s,
                          min(rec.round_start_s + period, t_sim)))
    t_com = _total(_intersect(_merge(spans), active))
    return NodeMetrics(
        node=node,
        e_in_j=result.ledgers[node]["e_in"],
        packets=packets,
        t_active_s=_total(active),
        t_com_s=t_com,
        t_sim_s=t_sim,
    )


def compute_all_metrics(result: RunResult) -> Dict[int, NodeMetrics]:
    return {n: compute_node_metrics(result, n)
            for n in range(1, result.n_nodes + 1)}


def write_metrics_csv(path: str, metrics: Dict[int, NodeMetrics]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "e_in_j", "packets", "t_active_s", "t_com_s",
                         "t_sim_s", "efficiency", "liveness", "downtime"])
        for node in sorted(metrics):
            m = metrics[node]
            writer.writerow([node, repr(m.e_in_j), m.packets,
                             repr(m.t_active_s), repr(m.t_com_s),
                             repr(m.t_sim_s), repr(m.efficiency),
                             repr(m.liveness), repr(m.downtime)])


def write_rounds_csv(path: str, result: RunResult):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vsn", "round_index", "round_start_s", "node",
                         "received_first_schedule", "packets_delivered",
                         "packets_attempted", "energy_tx_j",
                         "energy_listen_j", "energy_idle_j"])
        for rec in result.records:
            for node in sorted(rec.nodes):
                st = rec.nodes[node]
                e = st.energy_by_category
                writer.writerow([
                    rec.vsn, rec.round_index, repr(rec.round_start_s), node,
                    int(st.received_first_schedule), st.packets_delivered,
                    st.packets_attempted, repr(e.get("tx", 0.0)),
                    repr(e.get("listen", 0.0)), repr(e.get("idle", 0.0)),
                ])


# events.log text per RunEvent kind: {node} is the event's node, {0}, {1},
# ... its data; event_line appends a multi-hop sync_ok's tau1
EVENT_FORMATS = {
    "power_on": "power_on node={node} e={0:.6f}",
    "death": "death node={node}",
    "sync_ok": "sync_ok node={node} {0}_round={1}",
    "sync_fail": "sync_fail node={node}",
    "join": "join node={node} vsn={0} via={1} k={2}",
    "sched_miss": "sched_miss node={node} vsn={0} k={1} missed={2}",
    "contend_won": "contend_won node={node} vsn={0} k={1}",
    "round": "round {0} k={1} slots={2} present={3} delivered={4}",
    "transition": "transition node={node} {0}->{1} ({2})",
}


def event_line(ev: RunEvent) -> str:
    """One events.log line: the time to the microsecond, then the text."""
    text = EVENT_FORMATS[ev.kind].format(*ev.data, node=ev.node)
    if ev.kind == "sync_ok" and ev.data[0] == "mh":
        text += f" tau1={ev.data[2]:.3f}"
    return f"{ev.t:.6f} {text}"


def write_events_log(path: str, result: RunResult):
    # at one printed time, other events precede transitions (a stable sort)
    events = sorted(result.events, key=lambda ev: (
        float(f"{ev.t:.6f}"), ev.kind == "transition"))
    with open(path, "w") as fh:
        for ev in events:
            fh.write(event_line(ev) + "\n")
