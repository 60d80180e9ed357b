"""One workload process: set up, warm up, then run ops in a closed loop.

    PYTHONPATH=src python3 perfbench/worker.py --workload scan --seed 1 \
        --ops 72 --trace 0 --out .perfbench_runs/scan/plain

Prints one JSON line with the raw per-op records; `run.py` turns those into
metrics.  With --setup-only it stops after set-up and reports when set-up
ended, so `run.py` can time fresh-process set-up on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import scatsplit
import scatsplit.cli

import workloads


def _digest(out: Path) -> dict:
    files = sorted(p for p in out.iterdir() if p.is_file() and p.suffix != ".ini")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=1, help="timed ops to run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.draw_inputs(args.workload, args.seed, args.ops)
    warm = workloads.draw_inputs(args.workload, args.seed, 1, stream=1)[0]
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    out = Path(args.out)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            workloads.run_op(args.workload, warm, out / "warmup", scatsplit,
                             scatsplit.cli.main, stderr)
        except workloads.OpFailed:
            pass
    shutil.rmtree(out / "warmup")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(scatsplit)

    ops = []
    for i, inp in enumerate(inputs):
        op_dir = out / f"op{i:04d}"
        if tracer:
            tracer.op = i
        rec = {"op": i, "n_k": inp.get("n_k"), "segments": workloads.segments(inp)}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                workloads.run_op(args.workload, inp, op_dir, scatsplit, scatsplit.cli.main, stderr)
            rec["seconds"] = time.perf_counter() - t0
            rec["code"] = 0
            rec["bad_checks"] = workloads.check_op(args.workload, inp, op_dir)
            rec["bytes_written"] = sum(p.stat().st_size for p in op_dir.iterdir()
                                       if p.suffix != ".ini")
            rec["artifacts"] = _digest(op_dir)
        except workloads.OpFailed as exc:
            rec.update(seconds=time.perf_counter() - t0, step=exc.step, code=exc.code,
                       message=exc.message.splitlines()[-1][:300] if exc.message else "")
        except Exception as exc:  # noqa: BLE001 - an unnamed failure is reported, not fatal
            rec.setdefault("seconds", time.perf_counter() - t0)
            rec.update(step="unnamed", code=-1, message=f"{type(exc).__name__}: {exc}"[:300])
        shutil.rmtree(op_dir, ignore_errors=True)
        # the process's peak so far, which shows the op that set the run's peak
        rec["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops.append(rec)

    report = {
        "setup_end": setup_end,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        report["layers"] = tracer.layer_totals()
        tracer.write_spans(out / "spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
