"""End-to-end runs of the command-line driver on temp configs."""

import importlib
import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from scatsplit import cli, stationary
from scatsplit.cli import main
from scatsplit.wavepacket import auto_grid, check_alias

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
    # Numerov's work: one segment of width 1 at its longest step, 0.005
    assert meta["oracle"]["numerov_steps"] == 200


@pytest.mark.parametrize("barrier, run", [
    # a segment narrower than five default steps
    ("kind = symmetric\na = 0.0\nhalf_profile = 0.01:1.0, 0.5:2.0\n",
     "k_min = 0.5\nk_max = 3.0\nn_k = 32\n"),
    # k high enough that the step must shrink below 0.005
    ("kind = rectangular\na = 0.0\nb = 1.0\nv0 = 2.0\n",
     "k_min = 0.5\nk_max = 20.0\nn_k = 64\n"),
    # kappa w ~ 715: an unscaled march overflows and reads NaN
    ("kind = rectangular\na = 0.0\nb = 16.0\nv0 = 1000.0\n",
     "k_min = 0.5\nk_max = 3.0\nn_k = 8\n"),
], ids=["narrow_segment", "high_k", "opaque"])
def test_solve_oracle_strict_passes(tmp_path, barrier, run):
    ini = write(tmp_path, "run.ini", "[barrier]\n" + barrier + "[run]\n" + run)
    assert main(["solve", "--config", ini, "--out", str(tmp_path), "--oracle",
                 "--tolerance-profile", "strict"]) == 0
    meta = json.loads((tmp_path / "solve.json").read_text())
    assert meta["oracle"]["max_abs_diff_A_T"] < 1e-6
    assert meta["oracle"]["max_abs_diff_A_R"] < 1e-6


def test_solve_oracle_strict_refuses_nan(tmp_path, monkeypatch, capsys):
    # a NaN difference must fail the 1e-6 gate, not pass it
    monkeypatch.setattr(cli, "numerov_solve",
                        lambda barrier, ks: (np.full(len(ks), np.nan + 0j),) * 2)
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\nk_min = 0.6\nk_max = 1.8\nn_k = 5\n")
    assert main(["solve", "--config", ini, "--out", str(tmp_path), "--oracle",
                 "--tolerance-profile", "strict"]) == 3
    assert "independent-solver cross-check exceeded 1e-6" in capsys.readouterr().err


def test_solve_oracle_beyond_its_step_budget_refuses_at_once(tmp_path, capsys):
    # 64 k up to 2e5: Numerov's phase budget asks 1.07e8 steps, some 6 min,
    # refused by name before marching; up to 2000 (339 809 steps) it runs
    run = "[run]\nk_min = 0.5\nk_max = {}\nn_k = 64\n"
    argv = ["solve", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path), "--oracle"]
    write(tmp_path, "run.ini", CANONICAL + run.format(2e5))
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "tolerance failure: the Numerov oracle needs 107456994 steps for 64 k up to "
        "k=200000: 107456994 x (64 + 1000) = 1.14e+11, beyond the budget of 2e+09; "
        "lower the largest k\n")
    assert not (tmp_path / "solve.json").exists()
    write(tmp_path, "run.ini", CANONICAL + run.format(2000.0))
    assert main(argv) == 0
    assert (tmp_path / "solve.json").exists()


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
    dk = 13.0 / 8.0 / 255  # n_k = 256 over k0 +/- 6.5/sigma
    assert meta["alias_period"] == pytest.approx(2 * np.pi / dk, rel=1e-12)
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=256)
    fam = ss.solve_family(bar, pk.ks)
    spans = []
    for i, snap in enumerate(meta["snapshots"]):
        assert snap["file"] == f"evolve_{i:03d}.csv"
        assert (tmp_path / snap["file"]).exists()
        assert abs(snap["norm_full"] - 1.0) < 1e-6
        # the recorded grid reproduces the x column
        _, rows = read_rows(tmp_path / snap["file"])
        x = np.array([float(r[0]) for r in rows])
        assert snap["dx"] == 0.05 and snap["n"] == len(x)
        assert snap["n"] * snap["dx"] < meta["alias_period"]
        grid = snap["x_min"] + snap["dx"] * np.arange(snap["n"])
        assert np.max(np.abs(x - grid)) < 1e-9 * snap["dx"]
        assert "guard_span" not in snap
        spans.append(check_alias(pk, fam, auto_grid(pk, bar, (snap["t"],), 0.05), snap["t"]))
    # the widest span the alias rule judged, under the period
    assert meta["alias_span"] == max(spans) < meta["alias_period"]


def test_evolve_strict_rejects_midevent_sample(tmp_path):
    # t=57 is mid-crossing: the masked-state identities are transiently 1e-4
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET + "[run]\ntimes = 57.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path),
                 "--tolerance-profile", "strict"]) == 3


def test_evolve_follows_the_packet_backward_in_time(tmp_path):
    # at t = -30 the packet sits near x0 - 30 k0, spread wider than at t = 0:
    # the snapshot grid spans it there, not around x0 (t = 20 is mid-event,
    # so this runs on the default profile)
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET.replace("n_k = 256", "n_k = 192")
                + "[run]\ntimes = -30.0 20.0\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "evolve.json").read_text())["snapshots"][0]
    assert snap["t"] == -30.0 and snap["x_min"] < -40.0 - 30.0 * (1.0 + 6.5 / 8.0)
    assert abs(snap["norm_full"] - 1.0) < 1e-6


def test_evolve_needs_packet(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[run]\ntimes = 0.0\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path)]) == 2


def test_evolve_oracle_agrees(tmp_path):
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET.replace("n_k = 256", "n_k = 192")
                + "[run]\ntimes = 0.0 4.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle"]) == 0
    meta = json.loads((tmp_path / "evolve.json").read_text())
    orc = meta["oracle"]
    assert orc["l2_vs_synthesis"] < 1e-4
    # the run's grid is auto_grid's over both times at dx = 0.02, and its
    # steps cover the span with the step error within the oracle's budget
    from scatsplit import oracle

    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=192)
    xs = auto_grid(pk, bar, (0.0, 4.0), dx=oracle.CROSS_CHECK_DX)
    assert (orc["x_min"], orc["n"]) == (xs[0], len(xs)) and "guard_span" not in orc
    # the cross-check's grid is held to the alias period at both times
    fam = ss.solve_family(bar, pk.ks)
    assert meta["alias_span"] >= max(check_alias(pk, fam, xs, t) for t in (0.0, 4.0))
    assert orc["dx"] == pytest.approx(0.02, rel=1e-12)
    assert orc["steps"] * orc["dt"] == pytest.approx(4.0, rel=1e-15)
    assert 0 < orc["time_error_estimate"] <= oracle._TIME_ERROR


def test_evolve_oracle_runs_on_the_hull_of_both_snapshot_grids(tmp_path):
    # from t = -8 to 2 the earlier snapshot grid reaches further left and
    # the later one further right; the oracle runs on the hull of the two at
    # dx = 0.02
    from scatsplit import oracle

    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET.replace("n_k = 256", "n_k = 192")
                + "[run]\ntimes = -8.0 2.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle"]) == 0
    orc = json.loads((tmp_path / "evolve.json").read_text())["oracle"]
    assert orc["l2_vs_synthesis"] < 1e-5
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=192)
    grids = [auto_grid(pk, bar, (t,), dx=oracle.CROSS_CHECK_DX) for t in (-8.0, 2.0)]
    lo, hi = min(g[0] for g in grids), max(g[-1] for g in grids)
    assert orc["x_min"] == lo and orc["n"] == round((hi - lo) / oracle.CROSS_CHECK_DX) + 1


def test_evolve_oracle_strict_gates_l2(tmp_path, monkeypatch, capsys):
    # a Crank-Nicolson field off by 1e-3 everywhere, or NaN: reported under
    # the default profile, refused with exit 3 under strict
    from scatsplit import oracle

    evolve = oracle.CrankNicolson.evolve
    ini = write(tmp_path, "run.ini",
                CANONICAL + PACKET.replace("n_k = 256", "n_k = 192")
                + "[run]\ntimes = 0.0 1.0\ndx = 0.05\n")
    for factor in (1 + 1e-3, math.nan):
        monkeypatch.setattr(oracle.CrankNicolson, "evolve",
                            lambda *args, factor=factor: evolve(*args) * factor)
        assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle"]) == 0
        meta = json.loads((tmp_path / "evolve.json").read_text())
        assert not meta["oracle"]["l2_vs_synthesis"] <= 1e-4
        capsys.readouterr()
        assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle",
                     "--tolerance-profile", "strict"]) == 3
        err = capsys.readouterr().err
        assert "l2_vs_synthesis" in err and "dt = 0.5, 2 steps" in err and "dx = 0.02" in err


def test_evolve_oracle_beyond_its_step_budget_refuses_at_once(tmp_path, capsys):
    # 2.6e6 nodes x 46990 steps: refused by name before any snapshot is written
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\ntimes = 0 1e4\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle"]) == 3
    err = capsys.readouterr().err
    assert "nodes x 46990 steps x 3 solves" in err and "budget of 2e+08" in err
    assert not list(tmp_path.glob("evolve_*.csv"))


@pytest.mark.parametrize("x0, times, profile", [
    # across the barrier; strict refuses the mid-crossing sample at t = 6
    # for its conservation identities, whatever the oracle reads
    ("-15.0", "6.0 12.0", "default"),
    # the same packet in free flight, quiet at both samples
    ("-40.0", "0.0 6.0", "strict"),
], ids=["crossing", "free_flight_strict"])
def test_evolve_oracle_fast_packet(tmp_path, x0, times, profile):
    # k0 = 2.2, sigma = 2.5 over 6 time units: the implicit midpoint rule at
    # dt = 0.004 read 1.8e-4 on both, above the 1e-4 gate
    ini = write(tmp_path, "run.ini",
                "[barrier]\nkind = rectangular\na = 0.0\nb = 1.0\nv0 = 2.0\n"
                f"[packet]\nx0 = {x0}\nsigma = 2.5\nk0 = 2.2\nn_k = 512\n"
                f"[run]\ntimes = {times}\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path), "--oracle",
                 "--tolerance-profile", profile]) == 0
    meta = json.loads((tmp_path / "evolve.json").read_text())
    assert meta["oracle"]["l2_vs_synthesis"] < 1e-5


def test_times_payload(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\nphase_points = 33\n")
    assert main(["times", "--config", ini, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "times.json").read_text())
    assert abs(meta["tau_L_tr"]["routeA"] - meta["tau_L_tr"]["routeB"]) < 1e-6
    assert meta["residuals"]["route_tr"] < 1e-3
    assert meta["routeB_literal_diagnostic"]["im"] != 0.0
    assert len(meta["tau_phase"]["k"]) >= 33
    assert 1 < meta["quadrature"]["routeA_time_nodes"] < 2049


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


@pytest.mark.parametrize("width", ["8.0", "8.25"])
def test_times_with_subnormal_transmission(tmp_path, width):
    # T is subnormal on part of the packet (on all of it at 8.25, where k T
    # also underflows to 0 on the slowest k): the literal diagnostic must not
    # overflow, and route B must keep the underflowed k, which route A keeps
    bar = OPAQUE.replace("b = 16.0", f"b = {width}")
    ini = write(tmp_path, "run.ini", bar + PACKET.replace("n_k = 256", "n_k = 128"))
    assert main(["times", "--config", ini, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "times.json").read_text())
    assert meta["residuals"]["route_tr"] < 1e-3
    assert all(math.isfinite(v) for v in meta["routeB_literal_diagnostic"].values())


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


@pytest.mark.parametrize("command, line", [
    ("times", "phase_points = 0"),
    ("times", "phase_points = -3"),
    ("evolve", "dx = 0"),
    ("evolve", "dx = nan"),
    ("evolve", "dx = -0.02"),
    ("evolve", "times = nan"),
    ("evolve", "times = inf"),
    ("evolve", "times = 0 inf"),
    ("times", "x0 = nan"),
    ("larmor", "omega_ladder = nan 0.001"),
])
def test_out_of_range_value_exit2_names_its_key(tmp_path, capsys, command, line):
    key = line.split(" = ")[0]
    packet, run = PACKET, line
    if key == "x0":
        packet, run = PACKET.replace("x0 = -40.0", line), ""
    elif key == "dx":
        run = "times = 0.0\n" + line
    ini = write(tmp_path, "run.ini", CANONICAL + packet + "[run]\n" + run + "\n")
    assert main([command, "--config", ini, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{key}'" in err, err


def test_unknown_section_rejected(tmp_path):
    ini = write(tmp_path, "run.ini", CANONICAL + "[extra]\nfoo = 1\n")
    assert main(["solve", "--config", ini, "--out", str(tmp_path)]) == 2


class _Cfg:
    sha256 = "0" * 64
    tolerance_profile = "strict"


def test_csv_rows_render_as_per_value_floats(tmp_path):
    x = np.array([-0.0, 5e-324, math.nan, math.inf, -math.inf, 0.1, 1e300, 3.0])
    y = np.array([1.0, -2.5e-310, 7.0, math.nan, 2.0, -0.0, 1 / 3, -math.inf])
    label = np.array(["odd", "degenerate", "odd", "odd", "odd", "odd", "odd", "odd"])
    n = np.arange(8)
    cli._write_csv(tmp_path / "t.csv", _Cfg, ["x", "y", "n", "branch"], [x, y, n, label])
    lines = cli._csv_header_lines(_Cfg) + ["x,y,n,branch"] + [
        ",".join(v if isinstance(v, str) else cli._fmt_float(float(v)) for v in row)
        for row in zip(x, y, n, label)
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"
    assert (tmp_path / "t.csv").read_text().splitlines()[5] == "-0,1,0,odd"


def test_csv_blocks_join_as_per_row_floats(tmp_path):
    # a body of three blocks and part of a fourth, with a text column: the
    # file is the per-row join of _fmt_float cells
    rows = 3 * (cli._CSV_BLOCK // 4) + 7
    rng = np.random.default_rng(11)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[::97] = 0.0
    x[[5, 6000, rows - 1]] = math.nan, math.inf, -0.0
    y = np.abs(rng.standard_normal(rows)) ** 9
    n = np.arange(rows)
    branch = np.where(rng.random(rows) < 0.1, "degenerate", "odd")
    cli._write_csv(tmp_path / "t.csv", _Cfg, ["x", "y", "n", "branch"], [x, y, n, branch])
    lines = cli._csv_header_lines(_Cfg) + ["x,y,n,branch"] + [
        ",".join([cli._fmt_float(a), cli._fmt_float(b), cli._fmt_float(float(c)), d])
        for a, b, c, d in zip(x.tolist(), y.tolist(), n.tolist(), branch.tolist())]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    # the body goes out block by block: ten times the rows, about the same
    # traced peak (the columns themselves are allocated before tracing)
    import tracemalloc

    cli._float_tables()
    peaks = []
    for rows in (20_000, 200_000):
        cols = [np.linspace(-50.0, 50.0, rows)] + [np.random.default_rng(rows).random(rows) ** 8
                                                   for _ in range(3)]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "m.csv", _Cfg, ["x", "a", "b", "c"], cols)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def _cell_text(values):
    """_float_cells as one string per value: each row's bytes without NULs."""
    return [bytes(c[c != 0]).decode() for c in cli._float_cells(np.asarray(values, float))]


_any_double = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | _any_double.filter(math.isfinite), min_size=1, max_size=64))
def test_float_cells_are_format_g17(values):
    assert _cell_text(values) == [format(v, ".17g") for v in values]


def test_float_cells_on_a_fixed_battery():
    rng = np.random.default_rng(5)
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    edges = [1e-280, 1e280]
    battery = (
        powers + [math.nextafter(p, 0.0) for p in powers]
        + [math.nextafter(p, math.inf) for p in powers]
        + (rng.integers(10**15, 10**17, 5000) + 0.5).tolist()
        + (rng.integers(1, 2**56, 5000, endpoint=True) / 8).tolist()
        # k / 2^j: exact ties where 10^(16-E) is no double, so only the
        # fallback decides them (3 / 2^24 = 1.78813934326171875e-07 exactly)
        + [k * 2.0**-j for j in range(1, 1075) for k in range(1, 64, 2)]
        + [0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf]
        + edges + [math.nextafter(b, 0.0) for b in edges]
        + [math.nextafter(b, math.inf) for b in edges]
    )
    battery += [-v for v in battery]
    assert _cell_text(battery) == [cli._fmt_float(v) for v in battery]
    # a power of ten just below 10^k; exact ties round half to even
    assert _cell_text([1e-277, 1234567890123456.25, 1234567890123456.75, 3 * 2.0**-24, -0.0]) == [
        "9.9999999999999997e-278", "1234567890123456.2", "1234567890123456.8",
        "1.7881393432617188e-07", "-0"]


def test_evolve_csv_is_a_per_row_g17_join(tmp_path):
    # t = 120 at dx = 0.05: more rows than one block of the body holds
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\ntimes = 120.0\ndx = 0.05\n")
    assert main(["evolve", "--config", ini, "--out", str(tmp_path)]) == 0
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    snap = ss.snapshot(ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=256), bar,
                       120.0, dx=0.05)
    cols = [snap.x_grid] + [np.abs(p) ** 2 for p in (snap.psi_full, snap.psi_tr, snap.psi_ref)]
    rows = ["%.17g,%.17g,%.17g,%.17g" % row for row in zip(*(c.tolist() for c in cols))]
    lines = (tmp_path / "evolve_000.csv").read_text().splitlines()
    assert lines[4:] == ["x,density_full,density_tr,density_ref"] + rows
    cells = ",".join(rows).split(",")
    assert len(rows) > max(5000, cli._CSV_BLOCK // 4)
    assert "0" in cells  # exact zeros, fixed and scientific cells
    assert any("e-" in c for c in cells) and any(c.startswith("0.0") for c in cells)


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
    # tau_dwell_ref at a transmission resonance, as `times` lists it: the
    # undefined entry is null, the others render as the array does
    kres = math.sqrt(2 * 2.0 + math.pi**2)
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(bar, [1.0, kres, 1.5]))[:3]
    listed = cli._render_json([t if d else None for t, d in zip(tau_ref.tolist(), defined)], 2)
    assert listed.count("null") == 1 and not defined[1]
    assert listed.replace(",\n      null", "") == cli._render_json(tau_ref[defined], 2)


LADDER = "[run]\nomega_ladder = 0.0005 0.00025 0.000125\n"


def _count_solves(monkeypatch):
    """The k-grid lengths of every solve_family call, however it is reached."""
    calls = []

    def counted(barrier, ks):
        calls.append(len(ks))
        return stationary.solve_family(barrier, ks)

    for name in ("cli", "times", "wavepacket"):
        monkeypatch.setattr(importlib.import_module(f"scatsplit.{name}"),
                            "solve_family", counted)
    return calls


def test_larmor_solves_each_rung_once(tmp_path, monkeypatch):
    # one field-free family, which alone gives the zero-field clock, and one
    # stacked sweep holding the two spin channels of each of three rungs
    calls = _count_solves(monkeypatch)
    sweeps = []

    def stacked(barrier, ks, shifts):
        sweeps.append((len(ks), list(shifts)))
        return stationary._shifted_amplitudes(barrier, ks, shifts)

    monkeypatch.setattr(importlib.import_module("scatsplit.larmor"), "_shifted_amplitudes", stacked)
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + LADDER)
    assert main(["larmor", "--config", ini, "--out", str(tmp_path)]) == 0
    assert calls == [256]
    rungs = (0.0005, 0.00025, 0.000125)
    assert sweeps == [(256, [s * w / 2 for w in rungs for s in (-1, 1)])]
    meta = json.loads((tmp_path / "larmor.json").read_text())
    assert meta["omega_ladder"] == [0.0005, 0.00025, 0.000125]
    assert len(meta["diagnostics"]["sigma_z_T"]) == len(meta["diagnostics"]["sigma_z_R"]) == 3


def test_times_solves_one_family(tmp_path, monkeypatch):
    # the packet grid only: the phase table is a strided slice of it, and the
    # phase times need no stencil families
    calls = _count_solves(monkeypatch)
    ini = write(tmp_path, "run.ini", CANONICAL + PACKET + "[run]\nphase_points = 33\n")
    assert main(["times", "--config", ini, "--out", str(tmp_path)]) == 0
    assert calls == [256]
    meta = json.loads((tmp_path / "times.json").read_text())
    assert meta["quadrature"]["routeA_subpieces"] == 2
