"""Correctness-checked benchmark of the entrokit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass starts one single-threaded
workload process (worker.py) that imports entrokit from ``src``, builds
the seeded inputs and calls ``entrokit.cli.dispatch([..., "--json"])`` in
process, with cold caches.  Passes run one at a time, for about S seconds
(at least MIN_PASSES of them).  This process times every pass from outside
and checks every report against an independent reference (checks.py),
outside the timed region.

--trace 0 reports the medians over passes of
  norm_wall_s  the timed phase (all of the workload's calls, in order) in
               reference seconds: wall time scaled by the host's speed
               during the pass, which worker.py samples (see normalized)
  setup_s      process start to ready (interpreter, import, input
               generation) in reference seconds, over SETUP_SAMPLES
               start-ups, half before the passes and half after, each
               scaled by the host's speed that this process samples just
               before and after it
  peak_rss_mb  peak resident memory of the workload process
and prints the raw medians of wall_s and setup_s alongside.
--trace 1 alternates traced and untraced passes (at least two of each) and
reports the layer metrics of tracer.py, its self times in reference
seconds too, after checking that their counts repeat exactly, and the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  An
operation fails when it raises, exits non-zero or disagrees with the
reference; fail_frac = failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
SETUP_SAMPLES = 25
SETUP_CAL = 3               # kernel samples taken before and after a start-up
PASS_TIMEOUT = 150.0        # seconds before a workload process is killed


@dataclass
class Pass:
    setup_s: float
    wall_s: float = 0.0
    norm_wall_s: float = 0.0
    rate: float = 1.0             # reference seconds per wall second
    kernel_ms: float = 0.0        # median calibration sample
    peak_rss_mb: float = 0.0
    results: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def normalized(wall_s, samples, spent_s) -> float:
    """Wall time at the reference speed.  Each calibration sample stands for
    an equal slice of the pass, so the work done is the sum over slices of
    slice / kernel time; the handler's own time is taken out first."""
    return (wall_s - spent_s) * calibration.rate(samples)


def _worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"          # set_maps points are strings
    env.pop("ENTROKIT_TOL", None)        # every call uses its own tolerance
    return env


def run_worker(workload, seed, trace=False, setup_only=False) -> Pass:
    """One workload process, timed from here by its READY and DONE lines."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if not setup_only and line == "READY\n":
            line = proc.stdout.readline()
            done = time.perf_counter()
        tail = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or (line != ("READY\n" if setup_only else "DONE\n")):
        raise RuntimeError(f"workload process for {workload} exited with "
                           f"{proc.returncode} after {line.strip()!r}")
    p = Pass(setup_s=ready - start, peak_rss_mb=usage.ru_maxrss / 1024)
    if not setup_only:
        payload = json.loads(tail)
        p.wall_s, p.results, p.layers = done - ready, payload["results"], payload.get("layers", {})
        p.norm_wall_s = normalized(p.wall_s, payload["calibration"], payload["calibration_s"])
        p.rate = calibration.rate(payload["calibration"])
        p.layers = {k: v * p.rate if k.endswith(".self_s") else v
                    for k, v in p.layers.items()}
        if payload["calibration"]:
            p.kernel_ms = 1000 * statistics.median(payload["calibration"])
    return p


def setup_sample(workload, seed):
    """(raw, normalized) set-up time of one start-up.  The host's speed is
    sampled here, in this otherwise idle process, just before and after;
    the median sample sets the scale."""
    before = [calibration.timed_kernel() for _ in range(SETUP_CAL)]
    raw = run_worker(workload, seed, setup_only=True).setup_s
    after = [calibration.timed_kernel() for _ in range(SETUP_CAL)]
    return raw, raw * calibration.KERNEL_REF_S / statistics.median(before + after)


def environment() -> str:
    import mpmath
    return (f"python {platform.python_version()}, mpmath {mpmath.__version__} "
            f"({mpmath.libmp.BACKEND} backend), nproc {os.cpu_count()}, "
            f"load {' '.join(f'{x:.2f}' for x in os.getloadavg())}")


def spread(values) -> float:
    """Interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


class Checker:
    def __init__(self, workload, seed):
        import checks
        import workloads
        self.ops = workloads.operations(workload, seed)
        self.refs = checks.References(workload, self.ops)
        self._check = checks.check
        self.attempted = 0
        self.failures = []

    def check(self, p: Pass, label: str):
        for i, (op, r) in enumerate(zip(self.ops, p.results)):
            self.attempted += 1
            reason = self._check(self.refs, i, op, r["rc"], r["out"], r["error"])
            if reason:
                self.failures.append(f"{label} {' '.join(op.argv)[:90]}: {reason}")


def measure(args, checker):
    # set-up samples on both sides of the passes, so that their median
    # covers the host's state over the whole run
    setups = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    start = time.perf_counter()
    while True:
        p = run_worker(args.workload, args.seed)
        checker.check(p, f"pass {len(passes) + 1}")
        passes.append(p)
        print(f"pass {len(passes)}: setup {p.setup_s:.3f} s, wall {p.wall_s:.3f} s, "
              f"kernel {p.kernel_ms:.3f} ms, normalized wall {p.norm_wall_s:.3f} s, "
              f"peak rss {p.peak_rss_mb:.1f} MB")
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + (p.setup_s + p.wall_s) / 2 > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args.workload, args.seed))
    raw_setups, setups = zip(*setups)
    walls = [p.wall_s for p in passes]
    norms = [p.norm_wall_s for p in passes]
    print(f"wall_s = {statistics.median(walls):.6g} s (raw median, spread within the run "
          f"{spread(walls):.3f}; normalized {spread(norms):.3f})")
    print(f"raw setup_s = {statistics.median(raw_setups):.6g} s (median, spread within the "
          f"run {spread(raw_setups):.3f}; normalized {spread(setups):.3f})")
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    return {
        "norm_wall_s": (statistics.median(norms), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }


def measure_layers(args, checker):
    import tracer
    traced, plain = [], []
    start = time.perf_counter()
    while len(plain) < 2 or time.perf_counter() - start < args.seconds:
        trace = len(traced) == len(plain)          # traced, untraced, traced, ...
        out = traced if trace else plain
        p = run_worker(args.workload, args.seed, trace=trace)
        label = f"{'traced' if trace else 'untraced'} pass {len(out) + 1}"
        checker.check(p, label)
        out.append(p)
        print(f"{label}: wall {p.wall_s:.3f} s, kernel {p.kernel_ms:.3f} ms, "
              f"normalized {p.norm_wall_s:.3f} s")
    counts = [{k: p.layers[k] for k in tracer.COUNTS} for p in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        checker.failures.append(f"layer counts differ between traced runs: {counts}")
    overhead = (statistics.median(p.norm_wall_s for p in traced)
                - statistics.median(p.norm_wall_s for p in plain))
    print(f"layer counts repeat exactly over {len(traced)} traced runs: {repeat}")
    print(f"tracing overhead: {overhead:+.3f} s on an untraced normalized wall of "
          f"{statistics.median(p.norm_wall_s for p in plain):.3f} s")
    metrics = {}
    for name in tracer.SELF_TIMES:
        key = f"{name}.self_s"
        metrics[key] = (statistics.median(p.layers[key] for p in traced), "s")
    for key in tracer.COUNTS:
        metrics[key] = (counts[0][key], "ratio" if key.endswith("_frac") else "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "entrokit" / "__init__.py").is_file():
        print(f"error: no entrokit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment at start: " + environment())
    checker = Checker(args.workload, args.seed)
    run_worker(args.workload, args.seed, trace=bool(args.trace), setup_only=True)  # warm-up
    if args.trace:
        metrics = measure_layers(args, checker)
    else:
        metrics = measure(args, checker)
    print("environment at end: " + environment())

    failed = len(checker.failures)
    for line in checker.failures[:20]:
        print("FAILED " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / checker.attempted:.4g} ({failed} of {checker.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
