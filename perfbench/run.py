"""scatsplit benchmark: seeded CLI studies in a closed loop, one workload per run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` (PYTHONPATH=src), never installed.  Each run starts fresh worker
processes (`worker.py`), so set-up time and peak memory belong to the
workload.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up, per-op median,
throughput, peak memory).  With --trace 1 the same ops run twice, untraced
and then traced, and the metrics are per layer; the two runs' artifacts must
be byte-identical.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# One BLAS thread in every process.  On a 2-core machine the op times are the
# same as with the default two threads, and a second thread that has to wait
# for a core another process holds makes the run measure the scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, op_count  # noqa: E402
from tracing import LAYERS  # noqa: E402

# fresh processes timed for set-up besides the workload process itself
SETUP_PROBES = 4
# every worker is stopped by then, so a run ends within 180 s
RUN_LIMIT_S = 170
# Exit 3 is a typed refusal (ToleranceError and subclasses) and an op whose
# artifacts miss an acceptance tolerance is a measured miss: both count as
# failed ops.  Anything else (exit 2 on a valid generated config, exit 4, an
# unexpected exception, a missing or malformed artifact) is a failure the
# program does not name, and makes the run incorrect.
NAMED_FAILURE = 3

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its report and the monotonic spawn time.

    The worker is killed if it is still running at `deadline` (monotonic clock).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running at the {RUN_LIMIT_S} s limit: "
                         f"{' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1]), spawned


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

def _passed(op: dict) -> bool:
    return op["code"] == 0 and not op["bad_checks"]


def _tally(ops: list[dict]) -> dict:
    passed = [o for o in ops if _passed(o)]
    by_code, by_check = {}, {}
    for o in ops:
        if o["code"] != 0:
            by_code[str(o["code"])] = by_code.get(str(o["code"]), 0) + 1
            cause = f"{o['step']}: {o['message'][:120]}"
            by_check[cause] = by_check.get(cause, 0) + 1
        for name in o.get("bad_checks", ()):
            by_check[name] = by_check.get(name, 0) + 1
    wrong = [o["op"] for o in ops if o["code"] not in (0, NAMED_FAILURE)]
    return {"passed": len(passed), "failed": len(ops) - len(passed),
            "by_exit_code": by_code, "by_check": by_check, "wrong_ops": wrong}


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    import ctypes
    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                info["threads"] = int(getattr(dll, fn)())
                break
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    return info


def _metadata(args, ops: list[dict]) -> dict:
    import numpy
    import platform
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    sizes = sorted({o["n_k"] for o in ops if o["n_k"] is not None})
    segs = sorted({o["segments"] for o in ops})
    return {
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "ops": len(ops),
        "input_sizes": {"packet_n_k": sizes, "barrier_segments": segs},
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _base_args(args, out: Path, ops: int) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
            "--ops", str(ops)]


def run_plain(args, run_dir: Path, deadline: float):
    n = op_count(args.workload, args.seconds)

    def probe() -> float:
        rep, spawned = _worker(_base_args(args, run_dir, n) + ["--setup-only"], deadline)
        return rep["setup_end"] - spawned

    # half the probes before the workload process and half after it, so the
    # median spans the run rather than one moment of the machine
    setup = [probe() for _ in range(SETUP_PROBES // 2)]
    rep, spawned = _worker(_base_args(args, run_dir / "plain", n), deadline)
    setup.append(rep["setup_end"] - spawned)
    setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    ops = rep["ops"]
    tally = _tally(ops)
    # a refused op usually ends early, so the median is over ops that passed;
    # if none did, it falls back to all ops
    p50_ops = [o["seconds"] for o in ops if _passed(o)] or [o["seconds"] for o in ops]
    timed_s = sum(o["seconds"] for o in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(p50_ops),
        "ops_per_s": tally["passed"] / timed_s,
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_s": f"median of {len(p50_ops)} passed ops",
        "ops_per_s": f"{tally['passed']} of {len(ops)} ops passed, in {timed_s:.1f} s",
        "peak_rss_mb": "workload process, ru_maxrss",
    }
    units = END_TO_END_UNITS
    return ops, tally, metrics, notes, units, {"setup_samples_s": setup}


def run_traced(args, run_dir: Path, deadline: float):
    n = op_count(args.workload, args.seconds / 2)
    plain, _ = _worker(_base_args(args, run_dir / "plain", n), deadline)
    traced, _ = _worker(_base_args(args, run_dir / "traced", n) + ["--trace", "1"], deadline)
    ops = plain["ops"]
    tally = _tally(ops)
    mismatched = [a["op"] for a, b in zip(ops, traced["ops"])
                  if (a["code"], a.get("artifacts")) != (b["code"], b.get("artifacts"))]
    if len(traced["ops"]) != n:
        mismatched.append("op_count")
    tally["trace_mismatch"] = mismatched

    layers = traced["layers"]
    per_op = 1.0 / n
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers["self_s"].get(layer, 0.0) * per_op
        metrics[f"{layer}.calls"] = layers["calls"].get(layer, 0) * per_op
    counts = layers["counts"]
    metrics["wavepacket.basis_cells"] = counts.get("wavepacket.basis_cells", 0) * per_op
    metrics["wavepacket.snapshot_retries"] = (
        counts.get("wavepacket.auto_grids", 0) - counts.get("wavepacket.auto_snapshots", 0)
    ) * per_op
    solves = counts.get("stationary.solve_calls", 0)
    metrics["stationary.useful_ratio"] = (
        counts["stationary.distinct_solves"] / solves if solves else 1.0)
    metrics["larmor.spin_solves"] = counts.get("larmor.spin_solves", 0) * per_op
    metrics["oracle.numerov_solves"] = counts.get("oracle.numerov_solves", 0) * per_op
    metrics["oracle.cn_cell_steps"] = counts.get("oracle.cn_cell_steps", 0) * per_op
    metrics["cli.bytes_written"] = statistics.fmean(o.get("bytes_written", 0) for o in ops)
    metrics["trace.overhead_frac"] = (
        statistics.median(o["seconds"] for o in traced["ops"])
        / statistics.median(o["seconds"] for o in ops) - 1.0)
    units = {name: _layer_unit(name) for name in metrics}
    notes = {name: f"mean per op over {n} traced ops" for name in metrics}
    notes["stationary.useful_ratio"] = "distinct (barrier, k) / solve_stationary calls"
    notes["trace.overhead_frac"] = f"traced vs untraced median op time, {n} ops each"
    _write_layer_table(run_dir / "layers.txt", args.workload, metrics, units)
    return ops, tally, metrics, notes, units, {}


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("useful_ratio", "overhead_frac")):
        return "ratio"
    return "count"


def _write_layer_table(path: Path, workload: str, metrics: dict, units: dict) -> None:
    lines = [f"per-layer metrics, workload {workload} (mean per op)",
             f"{'layer':<14}{'self_s':>12}{'calls':>12}"]
    for layer in LAYERS:
        lines.append(f"{layer:<14}{metrics[layer + '.self_s']:>12.5f}"
                     f"{metrics[layer + '.calls']:>12.1f}")
    lines.append("")
    lines += [f"{name:<30}{value:>16.6g} {units[name]}" for name, value in metrics.items()
              if not name.endswith((".self_s", ".calls"))]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "scatsplit" / "__init__.py").is_file():
        print(f"perfbench: no scatsplit package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ops, tally, metrics, notes, units, extra = (run_traced if args.trace else run_plain)(
            args, run_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    meta = _metadata(args, ops)
    correct = not tally["wrong_ops"] and not tally.get("trace_mismatch")
    record = {"meta": meta, "tally": tally, "metrics": metrics, "notes": notes, **extra,
              "ops": [{k: v for k, v in o.items() if k != "artifacts"} for o in ops]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {meta['git_sha'][:12]}  src_lines {meta['src_lines']}")
    print(f"python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}  "
          f"blas {meta['blas']['library']} threads {meta['blas']['threads']}  "
          f"nproc {meta['nproc']}")
    print(f"ops_attempted {len(ops)}  ops_failed {tally['failed']}  "
          f"by exit code {tally['by_exit_code']}  by check {tally['by_check']}")
    if not correct:
        print(f"INCORRECT: wrong ops {tally['wrong_ops']}, "
              f"traced/untraced mismatch {tally.get('trace_mismatch')}")
    for name, value in metrics.items():
        print(f"  {name:<30}{value:>14.6g} {units[name]:<6} ({notes[name]})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
