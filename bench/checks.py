"""Output checks, computed apart from the program.

Each check returns a list of failure strings; an empty list is a pass.
The references are the benchmark's own: harvest traces rebuilt from the
scenario recipe with numpy, the reception ramp recomputed from the link
matrix, and the properties the method must have (rounds per horizon,
delivered <= attempted, liveness + downtime <= 1, quartile order, ...).
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

import numpy as np

# the trace recipe's fixed layout (60 s samples, per-day copula draws)
TRACE_RESOLUTION_S = 60.0
DAY_S = 86400.0
HOUR_S = 3600.0
# width of the linear reception ramp above sensitivity, in dB
RAMP_DB = 2.0
# VSNs (virtual sub-networks) whose rounds each protocol runs
PROTOCOL_VSNS = {
    "ewan": ("multi_hop", "single_hop"),
    "single_hop": ("single_hop",),
}
REL_TOL = 1e-9


def _phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def recipe_traces(recipe, n_nodes, stream):
    """Per-node power samples (n_nodes x samples) from the scenario recipe.

    Per day: three common and 3 x n own standard normals for the
    Gaussian copula, then 24 hourly noise factors per node, drawn from
    the run's trace stream in that order.
    """
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    days = int(recipe["days"])
    rho = float(recipe["rho"])
    e_lo, e_hi = recipe["e_avg_range_j"]
    s_lo, s_hi = recipe["start_window_h"]
    t_lo, t_hi = recipe["end_window_h"]
    sigma = float(recipe["noise_sigma"])
    w_common, w_own = math.sqrt(rho), math.sqrt(1.0 - rho)
    out = np.zeros((n_nodes, days * per_day))
    for day in range(days):
        z_common = stream.standard_normal(3)
        z_own = stream.standard_normal((n_nodes, 3))
        noise = np.maximum(1.0 + stream.normal(0.0, sigma, (n_nodes, 24)), 0.0)
        u = np.vectorize(_phi)(w_common * z_common + w_own * z_own)
        e_avg = e_lo + (e_hi - e_lo) * u[:, 0]
        start_s = (s_lo + (s_hi - s_lo) * u[:, 1]) * HOUR_S
        end_s = (t_lo + (t_hi - t_lo) * u[:, 2]) * HOUR_S
        for i in range(n_nodes):
            first = int(math.ceil(start_s[i] / TRACE_RESOLUTION_S))
            last = min(int(math.ceil(end_s[i] / TRACE_RESOLUTION_S)), per_day)
            idx = np.arange(first, last)
            base_w = e_avg[i] / (end_s[i] - start_s[i])
            out[i, day * per_day + idx] = base_w * noise[i, idx // 60]
    return out


def harvest_in_j(samples, charge_efficiency, horizon_s):
    """Energy delivered to storage over the horizon: integral times eta."""
    n = int(round(horizon_s / TRACE_RESOLUTION_S))
    return samples[:, :n].sum(axis=1) * TRACE_RESOLUTION_S * charge_efficiency


def check_traces(program_traces, reference, recipe):
    """Program traces equal the recipe, are >= 0 and dark outside windows."""
    bad = []
    per_day = int(DAY_S / TRACE_RESOLUTION_S)
    first_lit = int(math.ceil(recipe["start_window_h"][0] * HOUR_S
                              / TRACE_RESOLUTION_S))
    last_lit = int(math.ceil(recipe["end_window_h"][1] * HOUR_S
                             / TRACE_RESOLUTION_S))
    day_index = np.arange(reference.shape[1]) % per_day
    dark = (day_index < first_lit) | (day_index >= last_lit)
    for node in range(1, reference.shape[0] + 1):
        samples = np.asarray(program_traces[node].samples)
        if samples.shape != reference[node - 1].shape:
            bad.append(f"node {node}: trace has {samples.shape} samples, "
                       f"recipe gives {reference[node - 1].shape}")
            continue
        if np.any(samples < 0):
            bad.append(f"node {node}: negative trace sample")
        if np.any(samples[dark] != 0):
            bad.append(f"node {node}: harvest outside the recipe's windows")
        if not np.allclose(samples, reference[node - 1], rtol=REL_TOL,
                           atol=0.0):
            bad.append(f"node {node}: trace differs from the recipe")
    return bad


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run_outputs(out_dir, e_in_ref, printed):
    """metrics.csv and rounds.csv of one `ewansim run` against references."""
    bad = []
    metrics = read_csv(os.path.join(out_dir, "metrics.csv"))
    rounds = read_csv(os.path.join(out_dir, "rounds.csv"))
    delivered = defaultdict(int)
    for row in rounds:
        got = int(row["packets_delivered"])
        tried = int(row["packets_attempted"])
        heard = int(row["received_first_schedule"])
        where = f"{out_dir} round {row['vsn']}/{row['round_index']} " \
                f"node {row['node']}"
        if not 0 <= got <= tried <= 1:
            bad.append(f"{where}: delivered {got}, attempted {tried}")
        if got and not heard:
            bad.append(f"{where}: delivery without the first schedule")
        for key in ("energy_tx_j", "energy_listen_j", "energy_idle_j"):
            if float(row[key]) < 0.0:
                bad.append(f"{where}: {key} < 0")
        delivered[int(row["node"])] += got
    if len(metrics) != len(e_in_ref):
        bad.append(f"{out_dir}: {len(metrics)} metric rows for "
                   f"{len(e_in_ref)} nodes")
    for row in metrics:
        node = int(row["node"])
        e_in = float(row["e_in_j"])
        packets = int(row["packets"])
        if node - 1 >= len(e_in_ref) or not _close(e_in, e_in_ref[node - 1]):
            bad.append(f"{out_dir} node {node}: e_in_j {e_in!r} is not the "
                       f"trace integral times the charge efficiency")
        if packets != delivered[node]:
            bad.append(f"{out_dir} node {node}: {packets} packets in "
                       f"metrics.csv, {delivered[node]} in rounds.csv")
        if not _close(float(row["efficiency"]),
                      packets / e_in if e_in > 0 else 0.0):
            bad.append(f"{out_dir} node {node}: efficiency != packets/e_in_j")
        bad += _liveness(f"{out_dir} node {node}", float(row["liveness"]),
                         float(row["downtime"]))
    total = sum(int(row["packets"]) for row in metrics)
    if f": {total} packets delivered" not in printed:
        bad.append(f"{out_dir}: printed summary {printed.strip()!r} does not "
                   f"name {total} packets")
    return bad


def _liveness(where, liveness, downtime):
    if liveness < 0.0 or downtime < 0.0 or liveness + downtime > 1.0 + 1e-12:
        return [f"{where}: liveness {liveness!r}, downtime {downtime!r}"]
    return []


def check_round_counts(label, protocol, counts, horizon_s, period_s):
    """Every VSN the protocol runs has ceil(horizon / period) rounds."""
    want = math.ceil(horizon_s / period_s)
    bad = []
    for vsn in ("multi_hop", "single_hop"):
        expected = want if vsn in PROTOCOL_VSNS[protocol] else 0
        if counts.get(vsn, 0) != expected:
            bad.append(f"{label}: {counts.get(vsn, 0)} {vsn} rounds, "
                       f"expected {expected}")
    return bad


def check_e_in(label, e_in, e_in_ref):
    bad = []
    for node, ref in enumerate(e_in_ref, start=1):
        if not _close(e_in.get(node, float("nan")), ref):
            bad.append(f"{label} node {node}: e_in {e_in.get(node)!r} is not "
                       f"the trace integral times the charge efficiency")
    return bad


def link_probabilities(loss_db, tx_power_dbm, sensitivity_dbm):
    """Reception probability of every short-range pair, from the ramp."""
    rx = tx_power_dbm - np.asarray(loss_db, float)
    p = np.clip((rx - sensitivity_dbm) / RAMP_DB, 0.0, 1.0)
    return p[np.triu_indices(p.shape[0], k=1)]


def check_links(scenario, lossy):
    """Lossless-or-severed links (the memo applies) or all-ramp links.

    Reads the matrix the program loaded, so a fault in loading shows too.
    """
    cfg = scenario.vsn_configs.multi_hop
    p = link_probabilities(scenario.links_multi_hop.loss, cfg.tx_power_dbm,
                           cfg.sensitivity_dbm)
    decodable = p[p > 0.0]
    if lossy:
        if decodable.size == 0 or np.any(decodable >= 1.0):
            return ["lossy scenario: a decodable multi-hop link is outside "
                    "the reception ramp"]
    elif np.any(decodable < 1.0):
        return ["scenario: a multi-hop link has reception probability "
                "strictly between 0 and 1"]
    return []


def check_campaign_outputs(out_dir, runs, n_nodes):
    """aggregate.csv and pernode.csv of one `ewansim campaign`."""
    bad = []
    agg = read_csv(os.path.join(out_dir, "aggregate.csv"))
    per = read_csv(os.path.join(out_dir, "pernode.csv"))
    for label, rows in (("aggregate", agg), ("pernode", per)):
        for row in rows:
            q1, q2, q3 = (float(row[k]) for k in ("q1", "median", "q3"))
            if not q1 <= q2 <= q3:
                bad.append(f"{label} {row['protocol']}/{row['metric']}: "
                           f"quartiles out of order")
    node_means = defaultdict(list)
    by_node = defaultdict(dict)
    for row in per:
        node_means[(row["protocol"], row["metric"])].append(float(row["mean"]))
        by_node[(row["protocol"], row["node"])][row["metric"]] = \
            float(row["mean"])
    for row in agg:
        if int(row["n_samples"]) != runs * n_nodes:
            bad.append(f"aggregate {row['protocol']}/{row['metric']}: "
                       f"n_samples {row['n_samples']}, expected "
                       f"{runs * n_nodes}")
        means = node_means[(row["protocol"], row["metric"])]
        if len(means) != n_nodes or not _close(float(row["mean"]),
                                               float(np.mean(means))):
            bad.append(f"aggregate {row['protocol']}/{row['metric']}: mean "
                       f"is not the mean of the per-node means")
    for (protocol, node), values in by_node.items():
        bad += _liveness(f"pernode {protocol} node {node}",
                         values["liveness"], values["downtime"])
    return bad
