"""End-to-end runs of the command-line driver on temp configs."""

import importlib
import json
import math

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import cli, stationary
from scatsplit.cli import main

CANONICAL = """
[barrier]
kind = rectangular
a = 0.0
b = 1.0
v0 = 2.0
"""

PACKET = """
[packet]
x0 = -40.0
sigma = 8.0
k0 = 1.0
n_k = 256
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    """Data rows of a CSV artifact, skipping the # provenance header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    return cols, [ln.split(",") for ln in lines[1:]]


def test_solve_roundtrip(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\nk_min = 0.5\nk_max = 2.0\nn_k = 16\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", ini, "--out", str(out)]) == 0
    cols, rows = read_rows(out / "solve.csv")
    assert cols[0] == "k" and cols[-1] == "unitarity_residual"
    assert len(rows) == 16
    assert all(abs(float(r[-1])) < 1e-12 for r in rows)
    meta = json.loads((out / "solve.json").read_text())
    assert meta["n_k"] == 16
    assert "config_sha256" in meta and "units" in meta


def test_byte_identical_reruns(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\nk_min = 0.5\nk_max = 2.0\nn_k = 8\n")
    outs = []
    for name in ("o1", "o2"):
        d = tmp_path / name
        d.mkdir()
        assert main(["solve", "--config", ini, "--out", str(d)]) == 0
        outs.append(d)
    for art in ("solve.csv", "solve.json"):
        assert (outs[0] / art).read_bytes() == (outs[1] / art).read_bytes()


def test_unknown_key_is_named(tmp_path, capsys):
    ini = write(tmp_path, "run.ini",
                CANONICAL.replace("v0 = 2.0", "v0 = 2.0\nheigth = 3.0"))
    assert main(["solve", "--config", ini, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "heigth" in err and "barrier" in err


def test_invalid_barrier_exit2(tmp_path):
    ini = write(tmp_path, "run.ini", "[barrier]\nkind = rectangular\na = 1.0\nb = 0.0\nv0 = 2.0\n")
    assert main(["solve", "--config", ini, "--out", str(tmp_path)]) == 2


def test_solve_oracle_crosscheck(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\nk_min = 0.6\nk_max = 1.8\nn_k = 5\n")
    assert main(["solve", "--config", ini, "--out", str(tmp_path), "--oracle",
                 "--tolerance-profile", "strict"]) == 0
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["oracle"]["max_abs_diff_A_T"] < 1e-6
    assert meta["oracle"]["max_abs_diff_A_R"] < 1e-6


@pytest.mark.parametrize("barrier, run", [
    # a segment narrower than five default steps
    ("kind = symmetric\na = 0.0\nhalf_profile = 0.01:1.0, 0.5:2.0\n",
     "k_min = 0.5\nk_max = 3.0\nn_k = 32\n"),
    # k high enough that the step must shrink below 0.005
    ("kind = rectangular\na = 0.0\nb = 1.0\nv0 = 2.0\n",
     "k_min = 0.5\nk_max = 20.0\nn_k = 64\n"),
], ids=["narrow_segment", "high_k"])
def test_solve_oracle_strict_passes(tmp_path, barrier, run):
    ini = write(tmp_path, "run.ini", "[barrier]\n" + barrier + "[run]\n" + run)
    assert main(["solve", "--config", ini, "--out", str(tmp_path), "--oracle",
                 "--tolerance-profile", "strict"]) == 0
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["oracle"]["max_abs_diff_A_T"] < 1e-6
    assert meta["oracle"]["max_abs_diff_A_R"] < 1e-6


def test_decompose_branch_column(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\nk_min = 0.5\nk_max = 2.0\nn_k = 8\n")
    assert main(["decompose", "--config", ini, "--out", str(tmp_path)]) == 0
    cols, rows = read_rows(tmp_path / "decompose.csv")
    assert cols[-1] == "branch"
    assert all(r[-1] == "odd" for r in rows)
    assert all(abs(float(r[cols.index("amp_sum_residual")])) == 0.0 for r in rows)

    free = write(tmp_path, "free.ini",
                 "[barrier]\nkind = rectangular\na = 0.0\nb = 2.0\nv0 = 0.0\n"
                 "[run]\nk_min = 0.5\nk_max = 2.0\nn_k = 4\n")
    outd = tmp_path / "free"
    outd.mkdir()
    assert main(["decompose", "--config", free, "--out", str(outd)]) == 0
    _, rows = read_rows(outd / "decompose.csv")
    assert all(r[-1] == "degenerate" for r in rows)
    meta = json.loads((outd / "decompose.json").read_text())
    assert meta["degenerate_count"] == 4


def test_evolve_sorts_times_and_reports_scalars(tmp_path):
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET + "[run]\ntimes = 30.0 0.0 80.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "evolve.json").read_text())
    ts = [s["t"] for s in meta["snapshots"]]
    assert ts == sorted(ts) == [0.0, 30.0, 80.0]
    for i, snap in enumerate(meta["snapshots"]):
        assert snap["file"] == f"evolve_{i:03d}.csv"
        assert (tmp_path / snap["file"]).exists()
        assert abs(snap["norm_full"] - 1.0) < 1e-6


def test_evolve_strict_rejects_midevent_sample(tmp_path):
    # t=57 is mid-crossing: the masked-state identities are transiently 1e-4
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET + "[run]\ntimes = 57.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path),
                 "--tolerance-profile", "strict"]) == 3


def test_evolve_needs_packet(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\ntimes = 0.0\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path)]) == 2


def test_evolve_oracle_agrees(tmp_path):
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET.replace("n_k = 256", "n_k = 192")
                + "[run]\ntimes = 0.0 4.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle"]) == 0
    meta = json.loads((tmp_path / "evolve.json").read_text())
    assert meta["oracle"]["l2_vs_synthesis"] < 1e-4


def test_times_payload(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\nphase_points = 33\n")
    assert main(["times", "--config", ini, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "times.json").read_text())
    assert abs(meta["tau_L_tr"]["routeA"] - meta["tau_L_tr"]["routeB"]) < 1e-6
    assert meta["residuals"]["route_tr"] < 1e-3
    assert meta["routeB_literal_diagnostic"]["im"] != 0.0
    assert len(meta["tau_phase"]["k"]) >= 33


def test_larmor_run_and_ladder_validation(tmp_path):
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET + "[run]\nomega_ladder = 0.0005 0.00025\n")
    assert main(["larmor", "--config", ini, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "larmor.json").read_text())
    assert abs(meta["extrapolated"]["tau_clock_tr"] - 0.3156753608) < 1e-4
    assert meta["comparison"]["clock_minus_routeB_tr"] < -0.5  # the discrepancy

    bad = write(tmp_path, "bad.ini",
                CANONICAL + PACKET + "[run]\nomega_ladder = 0.0005\n")
    assert main(["larmor", "--config", bad, "--out", str(tmp_path)]) == 2
    neg = write(tmp_path, "neg.ini",
                CANONICAL + PACKET + "[run]\nomega_ladder = 0.0005 -0.1\n")
    assert main(["larmor", "--config", neg, "--out", str(tmp_path)]) == 2


OPAQUE = CANONICAL.replace("b = 1.0", "b = 16.0").replace("v0 = 2.0", "v0 = 1000.0")


def test_larmor_opaque_barrier_is_refused_by_name(tmp_path, capsys):
    # T underflows to 0 over the whole packet: the clock has no transmitted
    # norm to divide by, and the refusal must say so instead of crashing
    ini = write(tmp_path, "run.ini", OPAQUE + PACKET + "[run]\nomega_ladder = 0.0005 0.00025\n")
    assert main(["larmor", "--config", ini, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("undefined time: ")
    assert "transmitted spectral norm underflows to 0" in err


def test_times_opaque_barrier_is_refused_by_name(tmp_path, capsys):
    # the dwell table marks the underflowed k undefined without a divide
    # warning, and route A refuses by name instead of searching for a window
    ini = write(tmp_path, "run.ini", OPAQUE + PACKET)
    assert main(["times", "--config", ini, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("undefined time: ")
    assert "transmitted spectral norm underflows to 0" in err


@pytest.mark.parametrize("command, run", [
    ("solve", "k_min = abc"),
    ("solve", "k_max = 2.0.0"),
    ("decompose", "n_k = 1.5"),
    ("evolve", "times = 0.0\ndx = x"),
    ("times", "phase_points = many"),
])
def test_malformed_run_value_exit2(tmp_path, capsys, command, run):
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\n" + run + "\n")
    assert main([command, "--config", ini, "--out", str(tmp_path)]) == 2
    assert "[run]" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[extra]\nfoo = 1\n")
    assert main(["solve", "--config", ini, "--out", str(tmp_path)]) == 2


def test_csv_rows_render_as_per_value_floats(tmp_path):
    class Cfg:
        sha256 = "0" * 64
        tolerance_profile = "strict"

    x = np.array([-0.0, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1e300, 3.0])
    y = np.array([1.0, -2.5e-310, 7.0, math.nan, 2.0, -0.0, 1 / 3, -math.inf])
    label = np.array(["odd", "degenerate", "odd", "odd", "odd", "odd", "odd", "odd"])
    n = np.arange(8)
    cli._write_csv(tmp_path / "t.csv", Cfg, ["x", "y", "n", "branch"], [x, y, n, label])
    lines = cli._csv_header_lines(Cfg) + ["x,y,n,branch"] + [
        ",".join(v if isinstance(v, str) else cli._fmt_float(float(v)) for v in row)
        for row in zip(x, y, n, label)
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"
    assert (tmp_path / "t.csv").read_text().splitlines()[5] == "-0,1,0,odd"


def test_unknown_command_and_missing_config_exit2(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL)
    for argv in (["bogus", "--config", ini], ["solve"], ["solve", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_json_float_arrays_render_as_per_value_floats():
    finite = np.array([-0.0, 5e-324, -2.5e-310, 0.1, 1 / 3, 1e300, -7.0, 3.0])
    special = np.array([1.0, math.nan, math.inf, -math.inf, -0.0])
    for arr in (finite, special, finite[:1], finite[3:5].astype(np.float32)):
        per_value = cli._render_json(list(arr), 2)
        assert cli._render_json(arr, 2) == per_value
        assert cli._render_json({"k": arr}) == cli._render_json({"k": list(arr)})
    assert cli._render_json(finite[:2], 1) == "[\n    -0,\n    4.9406564584124654e-324\n  ]"
    assert cli._render_json(special) == (
        '[\n  1,\n  NaN,\n  "Infinity",\n  "-Infinity",\n  -0\n]')
    assert cli._render_json([0.25, None, np.float64(-0.0)]) == "[\n  0.25,\n  null,\n  -0\n]"
    assert cli._render_json(np.array([])) == "[]"
    # tau_dwell_ref at a transmission resonance: the undefined entry is null
    kres = math.sqrt(2 * 2.0 + math.pi**2)
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(bar, [1.0, kres, 1.5]))
    masked = np.ma.masked_array(tau_ref, mask=~defined)
    per_value = [t if d else None for t, d in zip(tau_ref, defined)]
    assert cli._render_json(masked, 2) == cli._render_json(per_value, 2)
    assert cli._render_json(masked).count("null") == 1


LADDER = "[run]\nomega_ladder = 0.0005 0.00025 0.000125\n"


def test_larmor_solves_each_rung_once(tmp_path, monkeypatch):
    # three user rungs (two spin families each) and one field-free family,
    # which alone gives the zero-field clock
    calls = []

    def counted(barrier, ks):
        calls.append(len(ks))
        return stationary.solve_family(barrier, ks)

    for name in ("cli", "larmor", "times", "wavepacket"):
        monkeypatch.setattr(importlib.import_module(f"scatsplit.{name}"),
                            "solve_family", counted)
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + LADDER)
    assert main(["larmor", "--config", ini, "--out", str(tmp_path)]) == 0
    assert calls == [256] * 7
    meta = json.loads((tmp_path / "larmor.json").read_text())
    assert meta["omega_ladder"] == [0.0005, 0.00025, 0.000125]
    assert len(meta["diagnostics"]["sigma_z_T"]) == len(meta["diagnostics"]["sigma_z_R"]) == 3
