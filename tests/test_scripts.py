"""Smoke runs of the example scripts: each exits 0 and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, code=0):
    """Run a script; check its exit code and return its stdout lines (or its
    stderr when the exit code is nonzero)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return (proc.stdout if code == 0 else proc.stderr).splitlines()


def test_barrier_report():
    out = run_script("barrier_report.py", "--n-k", "128")
    assert out[0].startswith("barrier [0.0, 1.0], V0=2.0, k0=1.0")
    assert any(ln.strip().startswith("presence, transmission   route A") for ln in out)
    assert any(ln.strip().startswith("presence, reflection     route A") for ln in out)
    assert any(ln.strip().startswith("phase delay near k0") for ln in out)
    assert out[-1].strip().startswith("clock / presence-time ratio:")


def test_barrier_report_names_a_refusal():
    # 48 k points repeat the packet's passage after 113 time units, before
    # it ends: the k grid is refused by name, with the size it needs,
    # and the script says so without a traceback
    err = run_script("barrier_report.py", "--n-k", "48", code=1)
    assert len(err) == 1
    assert err[0].startswith("refused: GridRefinementError: the event spans 189.5 in time")
    assert err[0].endswith("recurrence time 2 pi/(k dk) = 113.2 at k=1.605; "
                           "needs n_k >= 88 (now 48)")
    assert run_script("barrier_report.py", "--n-k", "88")[-1].strip().startswith(
        "clock / presence-time ratio:")


def test_hartman_scan():
    out = run_script("hartman_scan.py")
    header = out.index(f"{'L':>6}  {'phase':>12}  {'dwell':>12}")
    rows = [ln.split() for ln in out[header + 1:]]
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    dwell = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(dwell, dwell[1:]))


def test_transient_trace(tmp_path):
    csv = tmp_path / "trace.csv"
    out = run_script("transient_trace.py", "--n-t", "3", "--out", str(csv))
    assert out[0].startswith("event window: [")
    assert sum(ln.startswith("t=") for ln in out) == 3
    assert out[-1] == f"wrote {csv}"
    assert len(csv.read_text().splitlines()) == 4
