"""Two sets of benchmark runs, judged against the bounds in BENCHMARK.json.

Each set is STEADY_REPS runs, each a fresh process of ``bench/run.py``
with its own seed: seeds 1-10 for the first set and 11-20 for the
second. The pairs alternate which set runs first, so drift of the host
over a pair falls on both sets alike. For every workload and end-to-end
metric the report gives each set's median and quartiles, the spread
(q3 - q1) / median, and whether

- each spread is within the metric's bound,
- the second set's median is no worse than the first's by more than
  the bound, and
- the share of failed operations is the same in both sets.

With ``--against DIR`` the first set runs DIR/src (say, the parent
commit) and the second this checkout's src, both on seeds 1-10, and
the report adds how many pairs the second side won.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

CHILD_TIMEOUT_S = 600
STEADY_REPS = 10


def _run(script, workload, seed, seconds, src):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = [ln for ln in lines if ln.startswith("digest ")]
    if not result["correct"]:
        print(proc.stderr[-2000:], file=sys.stderr)
    return result


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def _worse(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(args, script, workloads, bench):
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = [os.path.join(args.against, "src"), args.src] if args.against \
        else [args.src, args.src]
    report = {}
    ok = True
    for workload in workloads:
        runs = [[], []]
        for i in range(STEADY_REPS):
            for s in ((1, 0) if i % 2 else (0, 1)):
                seed = 1 + i + (0 if args.against else s * STEADY_REPS)
                res = _run(script, workload, seed, seconds, sides[s])
                runs[s].append(res)
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in
                    res["metrics"].items()) + f" correct={res['correct']}",
                    file=sys.stderr)
        rows = {}
        for name, spec in metrics.items():
            sets = [_stats([r["metrics"][name]["value"] for r in side])
                    for side in runs]
            row = {"sets": sets, "bound": spec["bound"],
                   "spread_ok": all(s["spread"] <= spec["bound"]
                                    for s in sets),
                   "worse_by": _worse(sets[0]["median"], sets[1]["median"],
                                      spec["better"])}
            row["median_ok"] = row["worse_by"] <= spec["bound"]
            if args.against:
                a = [r["metrics"][name]["value"] for r in runs[0]]
                b = [r["metrics"][name]["value"] for r in runs[1]]
                sign = 1 if spec["better"] == "lower" else -1
                row["second_wins"] = sum(sign * (x - y) > 0
                                         for x, y in zip(a, b))
            ok &= row["spread_ok"] and row["median_ok"]
            rows[name] = row
        shares = [sum(r["failed"] for r in side)
                  / sum(r["attempted"] for r in side) for side in runs]
        correct = all(r["correct"] for side in runs for r in side)
        ok &= correct and len(set(shares)) == 1
        report[workload] = {"metrics": rows, "failed_share": shares,
                            "correct": correct}
        if args.against:
            # same seed on both sides: equal digests mean equal outputs
            report[workload]["digests_differ"] = sum(
                a["digest"] != b["digest"] for a, b in zip(*runs))
        _print_rows(workload, report[workload])
    out = os.path.join(os.path.dirname(os.path.dirname(script)),
                       ".bench_out", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"{'within' if ok else 'NOT within'} the bounds; report in {out}")
    return 0 if ok else 1


def _print_rows(workload, rep):
    print(f"\n{workload}: correct={rep['correct']} "
          f"failed share per set={rep['failed_share']}")
    if "digests_differ" in rep:
        print(f"  output digests differ between the sides on "
              f"{rep['digests_differ']} seeds")
    for name, row in rep["metrics"].items():
        cells = "  ".join(
            f"set{k + 1} median={s['median']:.4g} q1={s['q1']:.4g} "
            f"q3={s['q3']:.4g} spread={s['spread']:.3f}"
            for k, s in enumerate(row["sets"]))
        verdict = [
            "spread ok" if row["spread_ok"] else "SPREAD > bound",
            f"second worse by {row['worse_by']:+.3f} "
            + ("ok" if row["median_ok"] else "> bound")]
        if "second_wins" in row:
            verdict.append(f"second won {row['second_wins']} pairs")
        print(f"  {name} (bound {row['bound']}): {cells}  "
              + "; ".join(verdict))
