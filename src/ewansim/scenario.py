"""Evaluation scenarios: network topologies, harvesting traces, persistence.

A scenario bundles everything one simulation run needs: the two link
matrices (short-range flooding channel and long-range point-to-point
channel), protocol and energy parameters, the horizon, and either
fixed harvesting traces or a generator recipe that draws fresh traces
per run from a dedicated random stream.
"""

from __future__ import annotations

import csv
import math
import os
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .energy import EnergyParams, HarvestTrace
from .links import LinkMatrix
from .radio import DEFAULT_RAMP_DB, RadioConfig
from .protocol.params import ProtocolParams, VsnConfigs, default_vsn_configs
from .protocol.rounds import MhRoundLayout, ShRoundLayout

TOPOLOGY_KINDS = ("ob", "bn", "fh", "mh")

TRACE_RESOLUTION_S = 60.0
DAY_S = 86400.0
HOUR_S = 3600.0

# log-distance propagation; nudged afterwards so every link is either
# comfortably decodable or comfortably severed
PATH_LOSS_REF_DB = 40.0
PATH_LOSS_EXPONENT = 3.0
ADJACENCY_RANGE_M = 250.0
SEVERED_FLOOR_DB = 126.0
LONG_HOST_CAP_DB = 130.0
COORD_JITTER_M = 5.0


class ScenarioError(Exception):
    """A scenario failed validation or could not be loaded."""


# ---------------------------------------------------------------------------
# harvesting traces


@dataclass(frozen=True)
class TraceGenParams:
    """Recipe for synthetic day-night harvesting traces.

    Daily energy, window start, and window end are drawn per node per
    day through a Gaussian copula with pairwise correlation rho across
    nodes, then mapped onto the configured uniform ranges. Hourly
    multiplicative noise is independent across nodes and hours.
    """

    rho: float
    days: int = 7
    e_avg_range_j: Tuple[float, float] = (1.0, 10.0)
    start_window_h: Tuple[float, float] = (5.0, 10.0)
    end_window_h: Tuple[float, float] = (16.0, 21.0)
    noise_sigma: float = 0.1
    special_deep: bool = False
    deep_energy_factor: float = 6.0
    deep_window_extension_h: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ScenarioError(f"rho must lie in [0, 1], got {self.rho}")
        if self.days < 1:
            raise ScenarioError("need at least one day of traces")
        lo, hi = self.e_avg_range_j
        if not 0 < lo <= hi:
            raise ScenarioError("daily energy range must be positive and ordered")
        if not self.start_window_h[0] <= self.start_window_h[1]:
            raise ScenarioError("start window must be ordered")
        if not self.end_window_h[0] <= self.end_window_h[1]:
            raise ScenarioError("end window must be ordered")
        if self.start_window_h[1] >= self.end_window_h[0]:
            raise ScenarioError("start window must end before end window begins")
        if self.noise_sigma < 0:
            raise ScenarioError("noise_sigma must be non-negative")


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _copula_day(gen: TraceGenParams, n_nodes: int,
                stream: np.random.Generator) -> List[Tuple[float, float, float]]:
    """One day's (e_avg_j, start_s, end_s) per node, correlation rho."""
    w_common = math.sqrt(gen.rho)
    w_own = math.sqrt(1.0 - gen.rho)
    z_common = stream.standard_normal(3)
    triples = []
    for _ in range(n_nodes):
        z_own = stream.standard_normal(3)
        u = [_phi(w_common * z_common[k] + w_own * z_own[k]) for k in range(3)]
        e_lo, e_hi = gen.e_avg_range_j
        s_lo, s_hi = gen.start_window_h
        t_lo, t_hi = gen.end_window_h
        e_avg = e_lo + (e_hi - e_lo) * u[0]
        start_s = (s_lo + (s_hi - s_lo) * u[1]) * HOUR_S
        end_s = (t_lo + (t_hi - t_lo) * u[2]) * HOUR_S
        triples.append((e_avg, start_s, end_s))
    return triples


def _fill_day(samples: np.ndarray, day: int, e_avg_j: float, start_s: float,
              end_s: float, factors: Sequence[float]):
    """Write one node-day of power samples given its hourly noise factors."""
    base_w = e_avg_j / (end_s - start_s)
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    i0 = day * per_day
    first = i0 + int(math.ceil(start_s / TRACE_RESOLUTION_S))
    last = i0 + int(math.ceil(end_s / TRACE_RESOLUTION_S))  # exclusive
    for i in range(first, min(last, i0 + per_day)):
        hour = int(((i - i0) * TRACE_RESOLUTION_S) // HOUR_S)
        samples[i] = base_w * factors[hour]


def _noise_factors(gen: TraceGenParams, stream: np.random.Generator) -> np.ndarray:
    # one factor per hour of day, always 24 draws so stream use is fixed
    raw = 1.0 + stream.normal(0.0, gen.noise_sigma, 24)
    return np.maximum(raw, 0.0)


def generate_traces(gen: TraceGenParams, n_nodes: int,
                    stream: np.random.Generator) -> Dict[int, HarvestTrace]:
    """Synthesize per-node day-night harvesting traces at 60 s resolution."""
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    arrays = {n: np.zeros(gen.days * per_day) for n in range(1, n_nodes + 1)}
    for day in range(gen.days):
        triples = _copula_day(gen, n_nodes, stream)
        for n in range(1, n_nodes + 1):
            e_avg, start_s, end_s = triples[n - 1]
            factors = _noise_factors(gen, stream)
            _fill_day(arrays[n], day, e_avg, start_s, end_s, factors)
    return {n: HarvestTrace(arrays[n], TRACE_RESOLUTION_S)
            for n in range(1, n_nodes + 1)}


def special_mh_traces(gen: TraceGenParams, depths: Mapping[int, int],
                      stream: np.random.Generator) -> Dict[int, HarvestTrace]:
    """Traces that starve the host-adjacent relays.

    Every day one (e_avg, start, end) triple is drawn; nodes one hop
    from the host receive it as is, deeper nodes receive the daily
    energy scaled up and the harvesting window widened on both sides,
    so the deep/near daily-energy ratio is exact before noise.
    """
    nodes = sorted(depths)
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    arrays = {n: np.zeros(gen.days * per_day) for n in nodes}
    ext_s = gen.deep_window_extension_h * HOUR_S
    for day in range(gen.days):
        u = stream.uniform(0.0, 1.0, 3)
        e_lo, e_hi = gen.e_avg_range_j
        s_lo, s_hi = gen.start_window_h
        t_lo, t_hi = gen.end_window_h
        e_near = e_lo + (e_hi - e_lo) * u[0]
        start_s = (s_lo + (s_hi - s_lo) * u[1]) * HOUR_S
        end_s = (t_lo + (t_hi - t_lo) * u[2]) * HOUR_S
        for n in nodes:
            factors = _noise_factors(gen, stream)
            if depths[n] <= 1:
                _fill_day(arrays[n], day, e_near, start_s, end_s, factors)
            else:
                _fill_day(arrays[n], day, e_near * gen.deep_energy_factor,
                          max(start_s - ext_s, 0.0),
                          min(end_s + ext_s, DAY_S), factors)
    return {n: HarvestTrace(arrays[n], TRACE_RESOLUTION_S) for n in nodes}


# ---------------------------------------------------------------------------
# topologies


def _path_loss_db(distance_m: float) -> float:
    return PATH_LOSS_REF_DB + 10.0 * PATH_LOSS_EXPONENT * math.log10(
        max(distance_m, 1.0))


def _coordinate_template(kind: str) -> Tuple[List[Tuple[float, float]],
                                             Optional[Tuple[int, int]]]:
    """Host-first coordinate list in meters, plus bottleneck ids if any."""
    coords: List[Tuple[float, float]] = [(0.0, 0.0)]
    bottleneck = None
    if kind == "ob":
        # dense single-floor layout: eleven nodes ring the host inside
        # direct range, four sit one hop beyond
        for k in range(7):
            a = 2.0 * math.pi * k / 7.0
            coords.append((150.0 * math.cos(a), 150.0 * math.sin(a)))
        for k in range(4):
            a = math.pi * k / 2.0
            coords.append((215.0 * math.cos(a), 215.0 * math.sin(a)))
        for k in range(4):
            a = math.pi * k / 2.0
            coords.append((430.0 * math.cos(a), 430.0 * math.sin(a)))
    elif kind == "bn":
        # all traffic from the far cluster funnels through two relays
        coords.append((200.0, 40.0))
        coords.append((200.0, -40.0))
        bottleneck = (1, 2)
        xs = (330.0, 360.0, 390.0, 420.0)
        ys = (-55.0, -18.0, 18.0, 55.0)
        cells = [(x, y) for x in xs for y in ys]
        for x, y in cells[:13]:
            coords.append((x, y))
    elif kind == "fh":
        # eight spokes in direct range, seven leaves one hop further out
        for k in range(8):
            a = math.pi * k / 4.0
            coords.append((200.0 * math.cos(a), 200.0 * math.sin(a)))
        for k in range(7):
            a = math.pi * k / 4.0
            coords.append((390.0 * math.cos(a), 390.0 * math.sin(a)))
    elif kind == "mh":
        # a fan of five spokes: the central spokes mesh at each tier, so
        # every core node sees two upstream neighbors, while the two rim
        # spokes are bare radial chains; the network thins from redundant
        # paths near the host to single threads at the far end
        for deg in (-80.0, -40.0, 0.0, 40.0, 80.0):
            a = math.radians(deg)
            coords.append((210.0 * math.cos(a), 210.0 * math.sin(a)))
        for r, deg in ((420.0, -80.0), (415.0, -20.0),
                       (415.0, 20.0), (420.0, 80.0)):
            a = math.radians(deg)
            coords.append((r * math.cos(a), r * math.sin(a)))
        for r, deg in ((630.0, -80.0), (570.0, 0.0), (630.0, 80.0),
                       (840.0, 80.0), (840.0, -80.0), (1050.0, 80.0)):
            a = math.radians(deg)
            coords.append((r * math.cos(a), r * math.sin(a)))
    else:
        raise ScenarioError(f"unknown topology kind: {kind}")
    return coords, bottleneck


@dataclass(frozen=True)
class Topology:
    links_multi_hop: LinkMatrix
    links_single_hop: LinkMatrix
    bottleneck: Optional[Tuple[int, int]]


def generate_topology(kind: str, stream: np.random.Generator) -> Topology:
    """Build one of the four evaluation topologies.

    Nodes sit on a hand-placed coordinate template with a small random
    jitter; losses follow a log-distance model and are then nudged so
    every short-range pair is either firmly decodable or firmly severed
    (no probabilistic gray zone), which is what pins the hop structure.
    """
    coords, bottleneck = _coordinate_template(kind)
    n = len(coords)
    jitter = stream.uniform(-COORD_JITTER_M, COORD_JITTER_M, (n, 2))
    pts = np.asarray(coords) + jitter

    short = np.zeros((n, n))
    long_range = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(pts[i] - pts[j])))
            loss = _path_loss_db(d)
            if d <= ADJACENCY_RANGE_M:
                short_loss = loss
            else:
                short_loss = max(loss, SEVERED_FLOOR_DB)
            short[i][j] = short[j][i] = short_loss
            if i == 0:
                loss = min(loss, LONG_HOST_CAP_DB)
            long_range[i][j] = long_range[j][i] = loss
    return Topology(LinkMatrix(n, short), LinkMatrix(n, long_range), bottleneck)


def _short_edges(links: LinkMatrix, config: RadioConfig) -> List[List[int]]:
    budget = config.tx_power_dbm - config.sensitivity_dbm
    n = links.n
    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if links.loss_db(i, j) <= budget:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def hop_depths(links: LinkMatrix, config: RadioConfig) -> Dict[int, int]:
    """BFS hop distance from the host over decodable short-range links.

    Unreachable nodes get depth -1.
    """
    adj = _short_edges(links, config)
    depth = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return {v: depth.get(v, -1) for v in range(1, links.n)}


# ---------------------------------------------------------------------------
# the scenario bundle


@dataclass
class Scenario:
    """Everything one run needs, minus the protocol choice and the seed."""

    kind: str
    n_nodes: int
    links_multi_hop: LinkMatrix
    links_single_hop: LinkMatrix
    params: ProtocolParams
    vsn_configs: VsnConfigs
    energy_params: EnergyParams
    horizon_s: float
    storage_capacity_j: float = 0.7
    initial_charge_j: float = 0.0
    traces: Optional[Dict[int, HarvestTrace]] = None
    trace_gen: Optional[TraceGenParams] = None
    bottleneck: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if (self.traces is None) == (self.trace_gen is None):
            raise ScenarioError(
                "exactly one of fixed traces or a trace recipe is required")

    def hop_depths(self) -> Dict[int, int]:
        return hop_depths(self.links_multi_hop, self.vsn_configs.multi_hop)

    def traces_for_run(self, stream: np.random.Generator) -> Dict[int, HarvestTrace]:
        if self.traces is not None:
            return self.traces
        if self.trace_gen.special_deep:
            return special_mh_traces(self.trace_gen, self.hop_depths(), stream)
        return generate_traces(self.trace_gen, self.n_nodes, stream)


def verify_scenario(scenario: Scenario) -> List[str]:
    """Check every structural contract; returns violation descriptions."""
    out: List[str] = []
    if not 0.0 < scenario.horizon_s < math.inf:
        out.append(f"horizon_s must be finite and positive, got "
                   f"{scenario.horizon_s}")
    cap = scenario.storage_capacity_j
    if not 0.0 < cap < math.inf:
        out.append(f"storage_capacity_j must be finite and positive, got {cap}")
    elif not 0.0 <= scenario.initial_charge_j <= cap:
        out.append(f"initial_charge_j must lie in [0, {cap}], got "
                   f"{scenario.initial_charge_j}")
    n = scenario.n_nodes
    if scenario.links_multi_hop.n != n + 1 or scenario.links_single_hop.n != n + 1:
        out.append(f"link matrices must be {n + 1}x{n + 1} including the host")
        return out

    cfg_long = scenario.vsn_configs.single_hop
    budget_long = cfg_long.tx_power_dbm - cfg_long.sensitivity_dbm
    for v in range(1, n + 1):
        loss = scenario.links_single_hop.loss_db(0, v)
        if loss > budget_long - DEFAULT_RAMP_DB:
            out.append(
                f"node {v} lacks a guaranteed long-range host link "
                f"(loss {loss:.1f} dB, needs <= {budget_long - DEFAULT_RAMP_DB:.1f})")

    depths = scenario.hop_depths()
    kind = scenario.kind
    if kind in TOPOLOGY_KINDS:
        unreachable = [v for v, d in depths.items() if d < 0]
        if unreachable:
            out.append(f"nodes unreachable over short-range links: {unreachable}")
    elif kind != "case_study":
        out.append(f"unknown scenario kind {kind!r}; expected one of "
                   f"{', '.join(TOPOLOGY_KINDS)} or case_study")
    if kind == "ob":
        direct = sum(1 for d in depths.values() if d == 1)
        if direct < 10:
            out.append(f"ob contract: only {direct} of {n} nodes are host-adjacent")
    elif kind == "bn":
        if scenario.bottleneck is None:
            out.append("bn contract: bottleneck node pair not designated")
        else:
            adj = _short_edges(scenario.links_multi_hop,
                               scenario.vsn_configs.multi_hop)
            if sorted(adj[0]) != sorted(scenario.bottleneck):
                out.append(
                    f"bn contract: host neighbors {sorted(adj[0])} are not the "
                    f"designated bottleneck pair {sorted(scenario.bottleneck)}")
            blocked = set(scenario.bottleneck)
            seen = {0}
            queue = deque([0])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in blocked and v not in seen:
                        seen.add(v)
                        queue.append(v)
            extra = seen - {0}
            if extra:
                out.append(
                    f"bn contract: removing the bottleneck pair leaves "
                    f"{sorted(extra)} connected to the host")
    elif kind == "fh":
        worst = max(depths.values())
        if worst > 2:
            out.append(f"fh contract: deepest node is {worst} hops out")
    elif kind == "mh":
        reached = sorted(set(d for d in depths.values() if d > 0))
        if max(depths.values()) != 5 or reached != [1, 2, 3, 4, 5]:
            out.append(f"mh contract: hop depths {reached} must cover 1..5 "
                       f"with maximum exactly 5")

    mh_layout = MhRoundLayout.build(scenario.params, scenario.vsn_configs.multi_hop)
    sh_layout = ShRoundLayout.build(scenario.params, scenario.vsn_configs.single_hop)
    if mh_layout.max_round_duration(scenario.params) > scenario.params.delta_t:
        out.append("delta_t is too small: a full multi-hop round would overrun "
                   "the single-hop round start")
    sh_end = scenario.params.delta_t + sh_layout.max_round_duration(scenario.params)
    if sh_end > scenario.params.period_t:
        out.append("period is too small: a full single-hop round would overrun "
                   "the next multi-hop round start")

    if scenario.traces is not None:
        for v in range(1, n + 1):
            if v not in scenario.traces:
                out.append(f"missing harvesting trace for node {v}")
                continue
            tr = scenario.traces[v]
            if np.any(tr.samples < 0):
                out.append(f"trace for node {v} has negative power samples")
            span = tr.samples.size * tr.resolution_s
            if span < scenario.horizon_s:
                out.append(f"trace for node {v} covers {span:.0f} s but the "
                           f"horizon is {scenario.horizon_s:.0f} s")
    else:
        span = scenario.trace_gen.days * DAY_S
        if span < scenario.horizon_s:
            out.append(f"trace recipe covers {span:.0f} s but the horizon "
                       f"is {scenario.horizon_s:.0f} s")
    return out


def build_scenario(kind: str, rho: float, stream: np.random.Generator,
                   days: int = 7, special_deep: bool = False,
                   horizon_s: Optional[float] = None) -> Scenario:
    """One of the four evaluation scenarios with a generated trace recipe."""
    if special_deep and kind != "mh":
        raise ScenarioError("deep-node trace shaping is defined for mh only")
    topo = generate_topology(kind, stream)
    gen = TraceGenParams(rho=rho, days=days, special_deep=special_deep)
    if special_deep:
        # anchor the DEEP tier on the standard daily-energy range, which
        # puts the host-adjacent relays at a sixth of it: they stay in
        # chronic deficit instead of merely being the poorer tier
        lo, hi = gen.e_avg_range_j
        gen = replace(gen, e_avg_range_j=(lo / gen.deep_energy_factor,
                                          hi / gen.deep_energy_factor))
    scenario = Scenario(
        kind=kind,
        n_nodes=topo.links_multi_hop.n - 1,
        links_multi_hop=topo.links_multi_hop,
        links_single_hop=topo.links_single_hop,
        params=ProtocolParams(),
        vsn_configs=default_vsn_configs(),
        energy_params=EnergyParams(),
        horizon_s=days * DAY_S if horizon_s is None else horizon_s,
        trace_gen=gen,
        bottleneck=topo.bottleneck,
    )
    problems = verify_scenario(scenario)
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario


# ---------------------------------------------------------------------------
# the two-node indoor deployment replay


def _case_study_trace_node1() -> HarvestTrace:
    """Blocky artificial-light profile: two lit stretches with a dark gap."""
    samples = np.zeros(720)
    windows = ((1.3, 4.6, 65e-6), (6.3, 9.6, 65e-6))
    for start_h, end_h, level_w in windows:
        a = int(start_h * 60)
        b = int(end_h * 60)
        samples[a:b] = level_w
    return HarvestTrace(samples, TRACE_RESOLUTION_S)


def _case_study_trace_node2() -> HarvestTrace:
    """Smooth daylight profile: a broad morning arc and an afternoon bump."""
    samples = np.zeros(720)
    t_h = np.arange(720) / 60.0
    for start_h, end_h, peak_w in ((0.2, 7.2, 120e-6), (8.3, 10.4, 118e-6)):
        m = (t_h >= start_h) & (t_h <= end_h)
        samples[m] += peak_w * np.sin(
            math.pi * (t_h[m] - start_h) / (end_h - start_h)) ** 2
    return HarvestTrace(samples, TRACE_RESOLUTION_S)


def case_study_scenario() -> Scenario:
    """Two harvesting nodes and a host forming a two-hop short-range chain.

    Node 1 reaches the host directly over the flooding channel; node 2
    only reaches node 1. Both have long-range host links. The period is
    shortened to 3 minutes for the small network, the horizon is 12
    hours, and the traces mimic the measured indoor profiles (scaled by
    the 0.85 charging efficiency inside the energy model).
    """
    n = 3
    short = np.full((n, n), SEVERED_FLOOR_DB + 14.0)
    np.fill_diagonal(short, 0.0)
    short[0][1] = short[1][0] = 104.0
    short[1][2] = short[2][1] = 106.0
    long_range = np.full((n, n), 128.0)
    np.fill_diagonal(long_range, 0.0)
    long_range[0][1] = long_range[1][0] = 124.0
    return Scenario(
        kind="case_study",
        n_nodes=2,
        links_multi_hop=LinkMatrix(n, short),
        links_single_hop=LinkMatrix(n, long_range),
        params=replace(ProtocolParams(), period_t=180.0),
        vsn_configs=default_vsn_configs(),
        energy_params=EnergyParams(charge_efficiency=0.85),
        horizon_s=12 * HOUR_S,
        traces={1: _case_study_trace_node1(), 2: _case_study_trace_node2()},
    )


# ---------------------------------------------------------------------------
# persistence


def _to_dict(obj) -> dict:
    """A config dataclass, nested ones included, as YAML fields: tuples
    become lists and unset (None) fields are left out."""
    return asdict(obj, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in items if v is not None})


def _from_dict(cls, d: dict):
    """The inverse of _to_dict for a flat config dataclass."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in dict(d).items()})


# the top-level keys save_scenario writes; load_scenario rejects any other
_SCENARIO_KEYS = frozenset((
    "format", "kind", "n_nodes", "horizon_s", "storage_capacity_j",
    "initial_charge_j", "params", "energy", "radio", "links_multi_hop",
    "links_single_hop", "bottleneck", "trace_gen", "traces"))


def save_scenario(scenario: Scenario, out_dir: str) -> str:
    """Write scenario.yaml plus one trace CSV per node; returns the yaml path."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "format": 1,
        "kind": scenario.kind,
        "n_nodes": scenario.n_nodes,
        "horizon_s": scenario.horizon_s,
        "storage_capacity_j": scenario.storage_capacity_j,
        "initial_charge_j": scenario.initial_charge_j,
        "params": _to_dict(scenario.params),
        "energy": _to_dict(scenario.energy_params),
        "radio": _to_dict(scenario.vsn_configs),
        "links_multi_hop": [[float(x) for x in row]
                            for row in scenario.links_multi_hop.loss],
        "links_single_hop": [[float(x) for x in row]
                             for row in scenario.links_single_hop.loss],
    }
    if scenario.bottleneck is not None:
        doc["bottleneck"] = list(scenario.bottleneck)
    if scenario.trace_gen is not None:
        doc["trace_gen"] = _to_dict(scenario.trace_gen)
    if scenario.traces is not None:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        refs = {}
        for node in sorted(scenario.traces):
            rel = os.path.join("traces", f"node{node:02d}.csv")
            _write_trace_csv(os.path.join(out_dir, rel), scenario.traces[node])
            refs[node] = rel
        doc["traces"] = refs
    path = os.path.join(out_dir, "scenario.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _write_trace_csv(path: str, trace: HarvestTrace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "power_w"])
        for i, value in enumerate(trace.samples):
            writer.writerow([repr(i * trace.resolution_s), repr(float(value))])


def _read_trace_csv(path: str) -> HarvestTrace:
    if not os.path.exists(path):
        raise ScenarioError(f"missing trace file: {path}")
    times: List[float] = []
    values: List[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time_s", "power_w"]:
            raise ScenarioError(f"{path}: expected header time_s,power_w")
        for row in reader:
            if len(row) != 2:
                raise ScenarioError(
                    f"{path}: line {reader.line_num}: expected two fields "
                    f"time_s,power_w, got {len(row)}")
            try:
                t, power = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ScenarioError(
                    f"{path}: line {reader.line_num}: {exc}") from exc
            if not (math.isfinite(t) and math.isfinite(power)):
                raise ScenarioError(
                    f"{path}: line {reader.line_num}: time_s and power_w "
                    f"must be finite, got {row[0]},{row[1]}")
            times.append(t)
            values.append(power)
    if len(times) < 2:
        raise ScenarioError(f"{path}: a trace needs at least two samples")
    res = times[1] - times[0]
    for i in range(1, len(times)):
        if abs(times[i] - i * res) > 1e-9:
            raise ScenarioError(f"{path}: samples must be uniformly spaced")
    return HarvestTrace(np.asarray(values), res)


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario; raises ScenarioError naming any violation."""
    if os.path.isdir(path):
        path = os.path.join(path, "scenario.yaml")
    if not os.path.exists(path):
        raise ScenarioError(f"no such scenario file: {path}")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(
                f"malformed scenario file {path}: {exc}") from exc
    base = os.path.dirname(path)
    try:
        fmt = doc["format"] if "format" in doc else "missing"
        if type(fmt) is not int or fmt != 1:
            raise ScenarioError(f"{path}: scenario format {fmt} is not "
                                f"supported; this version reads format 1")
        unknown = sorted(str(key) for key in doc if key not in _SCENARIO_KEYS)
        if unknown:
            raise ScenarioError(f"{path}: unknown top-level keys: "
                                f"{', '.join(unknown)}")
        n_nodes = int(doc["n_nodes"])
        short = np.asarray(doc["links_multi_hop"], dtype=float)
        long_range = np.asarray(doc["links_single_hop"], dtype=float)
        traces = None
        trace_gen = None
        if "traces" in doc:
            if not isinstance(doc["traces"], dict):
                raise ScenarioError(
                    f"malformed scenario file {path}: traces must map node "
                    f"ids to trace files")
            traces = {int(node): _read_trace_csv(os.path.join(base, rel))
                      for node, rel in doc["traces"].items()}
        if "trace_gen" in doc:
            trace_gen = _from_dict(TraceGenParams, doc["trace_gen"])
        scenario = Scenario(
            kind=doc["kind"],
            n_nodes=n_nodes,
            links_multi_hop=LinkMatrix(n_nodes + 1, short),
            links_single_hop=LinkMatrix(n_nodes + 1, long_range),
            params=ProtocolParams(**doc["params"]),
            vsn_configs=VsnConfigs(**{
                vsn: RadioConfig(**doc["radio"][vsn])
                for vsn in ("bootstrap", "single_hop", "multi_hop")}),
            energy_params=EnergyParams(**doc["energy"]),
            horizon_s=float(doc["horizon_s"]),
            storage_capacity_j=float(doc["storage_capacity_j"]),
            initial_charge_j=float(doc["initial_charge_j"]),
            traces=traces,
            trace_gen=trace_gen,
            bottleneck=tuple(doc["bottleneck"]) if "bottleneck" in doc else None,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    problems = verify_scenario(scenario)
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario
