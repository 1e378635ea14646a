"""One workload process: import entrokit, build the inputs, run the calls.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Protocol on standard output, read by run.py: the line ``READY`` once set-up
is done (interpreter, ``import entrokit``, input generation), the line
``DONE`` right after the last call returns, then one JSON line with every
call's exit code, captured report and exception, the calibration samples,
and the layer metrics when ``--trace`` is given.  run.py times the process
from outside by these lines.

While the calls run, a SIGALRM handler times a fixed pure-Python kernel
every calibration.PERIOD seconds of wall time on this same thread.  The
host's speed drifts by up to a factor of two on a scale of seconds; the
samples tell run.py how fast the host was while this pass ran.  The tracer
times its spans on a clock that leaves the handler's time out.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from entrokit import cli  # noqa: E402

import workloads  # noqa: E402
from calibration import Sampler  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.operations(args.workload, args.seed)
    workloads.write_inputs(ops)
    cal, tracer = Sampler(), None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=cal.clock)
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        return

    results = []
    with cal:
        for op in ops:
            out, error, rc = io.StringIO(), None, None
            with contextlib.redirect_stdout(out):
                try:
                    rc = cli.dispatch(list(op.argv) + ["--json"])
                except Exception as exc:  # a traceback is a failed operation
                    error = f"{type(exc).__name__}: {exc}"
            results.append({"rc": rc, "out": out.getvalue(), "error": error})
    print("DONE", flush=True)
    payload = {"results": results, "calibration": cal.samples, "calibration_s": cal.spent}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
    print(json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
