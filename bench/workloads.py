"""The two workloads: their inputs, their timed operations, their checks.

Inputs come from the benchmark seed alone. The program sees only the
scenario directories generated here and the command lines below, which
go through ``ewansim.cli.main`` exactly as a user's would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import yaml

import checks

# every multi-hop link the generator makes decodable is moved to this many
# dB above sensitivity, the middle of the 2 dB reception ramp (p = 0.5)
LOSSY_LINK_MARGIN_DB = 1.0
CAMPAIGN_RUNS = 3
CAMPAIGN_PROTOCOLS = ("ewan", "single_hop")
LOSSY_PROTOCOLS = ("ewan",)
SECONDS_PER_WEEK = 7 * 86400.0


class Workload:
    """One workload bound to a seed and a work directory."""

    # name -> (scenario rho, lossy links?, protocols, campaign?)
    SPECS = {
        "week-mh-lossy": (0.0, True, LOSSY_PROTOCOLS, False),
        "campaign-mh": (0.95, False, CAMPAIGN_PROTOCOLS, True),
    }

    def __init__(self, name, seed, work_dir, src_dir):
        self.name = name
        self.seed = seed
        self.rho, self.lossy, self.protocols, self.campaign = self.SPECS[name]
        self.src_dir = src_dir
        self.work_dir = work_dir
        self.scen_dir = os.path.join(work_dir, "scenario", "mh")
        self.lossy_dir = os.path.join(work_dir, "scenario", "mh-lossy")
        self.out_dir = os.path.join(work_dir, "out")
        # (protocol, run_index) -> (rounds per VSN, e_in per node), read
        # off each RunResult of the latest pass as the program returns it;
        # the checks and the traced pass's round counts use it
        self.runs = {}
        self.printed = {}

    # -- set-up -------------------------------------------------------------

    def import_seconds(self):
        """Time to import ewansim in a fresh interpreter, as a user pays it."""
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ewansim.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code, self.src_dir],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        return float(out.stdout.strip().splitlines()[-1])

    def generate(self, cli):
        """Generate and save the scenario directories; returns seconds."""
        t0 = time.perf_counter()
        _call(cli, ["scenario", "gen", "--kind", "mh", "--rho", str(self.rho),
                    "--seed", str(self.seed), "--out", self.scen_dir])
        if self.lossy:
            derive_lossy(self.scen_dir, self.lossy_dir)
        return time.perf_counter() - t0

    # -- the timed operations -------------------------------------------------

    def operations(self):
        """The command lines of one pass and the protocol-weeks each runs."""
        if self.campaign:
            return [(["campaign", "--scenario-template", self.scen_dir,
                      "--protocols", ",".join(self.protocols),
                      "--runs", str(CAMPAIGN_RUNS), "--seed", str(self.seed),
                      "--out", self.out_dir],
                     len(self.protocols) * CAMPAIGN_RUNS)]
        scen = self.lossy_dir if self.lossy else self.scen_dir
        return [(["run", "--scenario", scen, "--protocol", p,
                  "--seed", str(self.seed),
                  "--out", os.path.join(self.out_dir, p)], 1)
                for p in self.protocols]

    def weeks_per_pass(self, horizon_s):
        return sum(w for _, w in self.operations()) * horizon_s \
            / SECONDS_PER_WEEK

    def run_pass(self, cli):
        """One pass of the workload; returns (seconds, attempted, failed)."""
        ops = self.operations()
        failed = 0
        self.runs.clear()
        t0 = time.perf_counter()
        for argv, _ in ops:
            try:
                printed = _call(cli, argv)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                print(f"operation {argv[:1]} failed: {exc!r}",
                      file=sys.stderr)
                failed += 1
                continue
            if printed is None:
                failed += 1
            else:
                self.printed[tuple(argv)] = printed
        return time.perf_counter() - t0, len(ops), failed

    def install_tap(self, ewansim_modules):
        """Record round counts and e_in of every RunResult the program makes.

        The summary is taken inside the timed section, at about 0.5 ms per
        simulated week against more than a second for the week itself.
        Keeping the RunResults instead, to summarise them afterwards, would
        add their records to peak_rss_mb (about 20 MB on campaign-mh).
        Returns a function that removes the tap again.
        """
        runs = self.runs
        restore = []
        for mod in ewansim_modules:
            original = mod.simulate_run

            def tapped(scenario, protocol, master_seed, run_index=0,
                       *args, _original=original, **kwargs):
                result = _original(scenario, protocol, master_seed,
                                   run_index, *args, **kwargs)
                runs[(protocol, run_index)] = (
                    Counter(rec.vsn for rec in result.records),
                    {n: led["e_in"] for n, led in result.ledgers.items()})
                return result

            mod.simulate_run = tapped
            restore.append((mod, original))

        def remove():
            for mod, original in restore:
                mod.simulate_run = original
        return remove

    def round_counts(self):
        """Rounds per VSN, summed over the runs of the latest pass."""
        return sum((counts for counts, _ in self.runs.values()), Counter())

    # -- outputs --------------------------------------------------------------

    def digest(self):
        """sha256 over every output file, in path order."""
        h = hashlib.sha256()
        for base, _, files in sorted(os.walk(self.out_dir)):
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, self.out_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def check(self, load_scenario, random_streams):
        """All output checks of the workload's latest pass.

        Returns failure strings.
        """
        scen = self.lossy_dir if self.lossy else self.scen_dir
        with open(os.path.join(scen, "scenario.yaml")) as fh:
            doc = yaml.safe_load(fh)
        scenario = load_scenario(scen)
        bad = checks.check_links(scenario, self.lossy)
        recipe = doc["trace_gen"]
        n_nodes = int(doc["n_nodes"])
        horizon = float(doc["horizon_s"])
        period = float(doc["params"]["period_t"])
        ceff = float(doc["energy"]["charge_efficiency"])
        runs = CAMPAIGN_RUNS if self.campaign else 1
        e_in_ref = {}
        for i in range(runs):
            reference = checks.recipe_traces(
                recipe, n_nodes, random_streams(self.seed, i).stream("traces"))
            e_in_ref[i] = checks.harvest_in_j(reference, ceff, horizon)
            try:
                program = scenario.traces_for_run(
                    random_streams(self.seed, i).stream("traces"))
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                bad.append(f"run {i}: the program's traces fail: {exc!r}")
                continue
            bad += [f"run {i}: {b}"
                    for b in checks.check_traces(program, reference, recipe)]
        for protocol in self.protocols:
            for i in range(runs):
                label = f"{protocol} run {i}"
                if (protocol, i) not in self.runs:
                    bad.append(f"{label}: the program returned no result")
                    continue
                counts, e_in = self.runs[(protocol, i)]
                bad += checks.check_round_counts(label, protocol, counts,
                                                 horizon, period)
                bad += checks.check_e_in(label, e_in, e_in_ref[i])
        if self.campaign:
            bad += checks.check_campaign_outputs(self.out_dir, runs, n_nodes)
        else:
            for argv, _ in self.operations():
                out = argv[argv.index("--out") + 1]
                bad += checks.check_run_outputs(
                    out, e_in_ref[0], self.printed.get(tuple(argv), ""))
        return bad

    def clean(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)


def _call(cli, argv):
    """Run one ewansim command in process; its stdout, or None on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue() if code == 0 else None


def derive_lossy(src_dir, dst_dir):
    """Copy a scenario with every decodable multi-hop link inside the ramp.

    A link is decodable when its loss is within the multi-hop link budget
    (tx power minus sensitivity). Each such link gets the loss that leaves
    LOSSY_LINK_MARGIN_DB above sensitivity; severed links stay severed, so
    the hop structure, and with it the scenario's contract, is unchanged.
    """
    with open(os.path.join(src_dir, "scenario.yaml")) as fh:
        doc = yaml.safe_load(fh)
    radio = doc["radio"]["multi_hop"]
    budget = radio["tx_power_dbm"] - radio["sensitivity_dbm"]
    loss = doc["links_multi_hop"]
    for i, row in enumerate(loss):
        for j, value in enumerate(row):
            if i != j and value <= budget:
                row[j] = float(budget - LOSSY_LINK_MARGIN_DB)
    os.makedirs(dst_dir, exist_ok=True)
    with open(os.path.join(dst_dir, "scenario.yaml"), "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
