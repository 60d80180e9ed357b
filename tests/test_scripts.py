"""Smoke runs of the example scripts: each exits 0 and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_barrier_report():
    out = run_script("barrier_report.py", "--n-k", "128")
    assert out[0].startswith("barrier [0.0, 1.0], V0=2.0, k0=1.0")
    assert any(ln.strip().startswith("presence, transmission   route A") for ln in out)
    assert any(ln.strip().startswith("presence, reflection     route A") for ln in out)
    assert any(ln.strip().startswith("phase delay near k0") for ln in out)
    assert out[-1].strip().startswith("clock / presence-time ratio:")


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
