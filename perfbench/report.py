"""One table of the end-to-end metrics and fail_frac for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload, one after the other, including mahler-cert:
the known-defect inputs (clustered polynomials, --tol 1e-30) that
BENCHMARK.json leaves out because they are expected to fail.  fail_frac is
failed / attempted operations.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def raw(lines, prefix="wall_s = ") -> float:
    """A raw median that run.py prints on the line starting with prefix
    ("wall_s = " or "raw setup_s = ")."""
    return next(float(line[len(prefix):].split()[0]) for line in lines
                if line.startswith(prefix))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    print(f"{'workload':<15}{'wall_s':>10}{'norm_wall_s':>13}{'setup_s':>10}{'peak_rss_mb':>13}"
          f"{'fail_frac':>11}  failed/attempted")
    for name in workloads.ALL:
        result, lines = run(name, args.seed, args.seconds)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name:<15}{raw(lines):>8.3f} s{m['norm_wall_s']:>11.3f} s{m['setup_s']:>8.3f} s"
              f"{m['peak_rss_mb']:>10.1f} MB"
              f"{result['failed'] / result['attempted']:>11.3f}  "
              f"{result['failed']}/{result['attempted']}")
        for line in lines:
            if line.startswith("FAILED"):
                print("    " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
