"""Steadiness evidence: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--out FILE]

For run i, every workload is run once per set, each time with its own seed
(set A uses seeds 1.., set B 101..), and the order of the sets alternates
with i, so slow drift of the host falls on both sets alike.  For each
workload and end-to-end metric it reports each set's median and
interquartile spread (as a share of the median) and the shift of set B's
median from set A's, against the bounds in BENCHMARK.json: every spread
and the size of every shift must stay within the metric's bound.  The raw
wall and set-up times that run.py prints are summarized too, without a
bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import report

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SEED_BASE = (1, 101)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    shown = dict(bounds, wall_s=None, raw_setup_s=None)
    values = {(w, s, m): [] for w in names for s in range(2) for m in shown}
    failed = {(w, s): 0 for w in names for s in range(2)}
    started = time.time()
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in names:
            for s in order:
                result, lines = report.run(w, SEED_BASE[s] + i, BENCH["run_seconds"])
                failed[w, s] += result["failed"]
                got = {m: v["value"] for m, v in result["metrics"].items()}
                got["wall_s"] = report.raw(lines)
                got["raw_setup_s"] = report.raw(lines, "raw setup_s = ")
                for m in shown:
                    values[w, s, m].append(got[m])
                print(f"run {i + 1} set {'AB'[s]} {w}: " + ", ".join(
                    f"{m} {got[m]:.4g}" for m in shown), flush=True)
    out = {"runs": args.runs, "run_seconds": BENCH["run_seconds"],
           "elapsed_s": time.time() - started, "workloads": {}}
    ok = True
    for w in names:
        rows = out["workloads"][w] = {}
        for m, bound in shown.items():
            sets = [summary(values[w, s, m]) for s in range(2)]
            shift = sets[1]["median"] / sets[0]["median"] - 1
            rows[m] = {"bound": bound, "sets": sets, "shift": shift}
            line = f"{w:<14}{m:<13} " + "  ".join(
                f"{'AB'[s]}: median {x['median']:.4g} spread {x['spread']:.3f}"
                for s, x in enumerate(sets)) + f"  shift {shift:+.3f}"
            if bound is None:
                print(line + "  (no bound)")
                continue
            ok &= all(x["spread"] <= bound for x in sets) and abs(shift) <= bound
            print(line + f"  (bound {bound}, target spread < {bound / 3:.3f})")
        rows["failed"] = [failed[w, s] for s in range(2)]
    out["within_bounds"] = ok
    print("within bounds: " + str(ok))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
