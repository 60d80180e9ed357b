"""Seeded inputs, the op each workload runs, and the checks on its artifacts.

An input is a plain dict (barrier half-profile, packet, grids) drawn from a
NumPy generator; the program only ever sees it as an INI file.  The op is
one study of one input through `scatsplit.cli.main`, plus
`scatsplit.quiet_times` on `evolve`.  Every check reads the artifacts the CLI
wrote, at the acceptance-suite tolerances.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve", "times", "scan", "oracle")

# Mean wall time per op of the study set, failed ops included, at the commit
# that defined the benchmark, on 2 cores with one BLAS thread (scan's is from
# independent draws).  A run's op count is set from
# these and --seconds, not from a clock, so two runs of one seed attempt, and
# fail, the same ops.
NOMINAL_OP_S = {"evolve": 0.91, "times": 1.14, "scan": 0.38, "oracle": 4.9}

# acceptance tolerances (tests/test_acceptance.py criteria 1, 5 and 8)
UNITARITY_TOL = 1e-10
ROUTE_TOL = 1e-3
NUMEROV_TOL = 1e-6
CN_L2_TOL = 1e-4

SCAN_K = (0.2, 4.0, 2048)
ORACLE_K = (0.2, 4.0, 256)
ORACLE_NK = 192
ORACLE_SPAN = 1.0
ORACLE_WIDTH_GRID = 0.05
EVOLVE_NK = (256, 384, 512)
EVOLVE_DX = 0.05
EVOLVE_TIMES = 1
TIMES_NK = 192
SIGMA = 8.0

# The study set a run perturbs is drawn once, from this seed; --seed only
# perturbs it (by up to JITTER of each height, width and k0).
DESIGN_SEED = 0
JITTER = 0.02

# tests/test_acceptance.py criterion 5: barrier, k0, sigma
CRITERION5 = (
    ({"kind": "rectangular", "a": 0.0, "b": 1.0, "v0": 2.0}, 1.0, 8.0),
    ({"kind": "rectangular", "a": 0.0, "b": 2.0, "v0": 8.0}, 1.2, 8.0),
    ({"kind": "symmetric", "a": -0.5, "profile": ((0.4, 3.0), (0.35, 1.0))}, 1.4, 8.0),
    ({"kind": "rectangular", "a": 0.0, "b": 1.0, "v0": 2.0}, 2.5, 8.0),
    ({"kind": "rectangular", "a": 0.0, "b": 2.0, "v0": 0.0}, 1.0, 6.0),
)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _acceptance_barrier(rng, n_half, width_grid=None):
    """A symmetric barrier drawn as tests/conftest.py random_symmetric_barrier draws it,
    with the number of half segments given.  With width_grid the half widths are
    whole multiples of it."""
    if width_grid is None:
        widths = rng.uniform(0.2, 1.5, size=n_half)
    else:
        widths = width_grid * rng.integers(round(0.2 / width_grid), round(1.5 / width_grid) + 1,
                                           size=n_half)
    heights = rng.uniform(0.1, 6.0, size=n_half)
    a = float(rng.uniform(-3.0, 1.0))
    return {"kind": "symmetric", "a": a,
            "profile": tuple((float(w), float(h)) for w, h in zip(widths, heights))}


def _design(rng, blocks, count):
    """`count` (cell, u) pairs.  Blocks follow one another in turn; each holds
    its cells once, in seeded order, with u uniform on [0, 1) and one draw in
    each of len(cells) equal strata per block.

    The marginals are those of independent draws; the balance keeps the study
    set's mix of input sizes that of the distribution, even over a few dozen ops.
    """
    out = []
    while len(out) < count:
        for cells in blocks:
            n = len(cells)
            for c, s in zip(rng.permutation(n), rng.permutation(n)):
                out.append((cells[c], float((s + rng.uniform()) / n)))
    return out[:count]


# A cell fixes what sets an op's cost: (packet n_k or criterion-5 config,
# half segments, k0 stratum).  None leaves it to the draw: half segments
# uniform on 1..3, k0 from the block-stratified u.  A workload's design is a
# cycle of blocks of equal size.
_K0_STRATA = 3
_CELLS = {
    # three Latin squares: each block of 9 holds every n_k, every k0 stratum
    # and every half-segment count three times, and the three blocks together
    # hold every combination once.  Half segments set most of the refusals
    # (nearly all are 3-half-segment barriers), so their count is fixed too.
    "evolve": [[(n_k, 1 + (a + s + r) % 3, s) for a, n_k in enumerate(EVOLVE_NK)
                for s in range(_K0_STRATA)] for r in range(3)],
    # the five criterion-5 configs and one acceptance draw per half-segment count;
    # most configs cost about as much as a one-half-segment draw, so this keeps
    # the median op inside that cluster instead of in the gap above it
    "times": [[(None, h, None) for h in (1, 2, 3)]
              + [(i, None, None) for i in range(len(CRITERION5))]],
    "scan": [[(None, h, None) for h in (1, 2, 3)]],
    "oracle": [[(None, h, None) for h in (1, 2, 3)]],
}


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run meant to measure about `seconds` at the nominal op time."""
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def _base_inputs(workload: str, count: int, stream: int) -> list[dict]:
    """The first `count` inputs of the workload's study set: the same for every seed."""
    key = [DESIGN_SEED, stream, WORKLOADS.index(workload)]
    design = _design(np.random.default_rng(key + [0]), _CELLS[workload], count)
    rng = np.random.default_rng(key + [1])
    out = []
    for (size, n_half, stratum), u in design:
        if stratum is not None:
            u = (stratum + float(rng.uniform())) / _K0_STRATA
        k0 = 0.9 + 1.3 * u
        n_half = n_half or int(rng.integers(1, 4))
        if workload == "times" and size is not None:
            bar, k0, sigma = CRITERION5[size]
            bar = dict(bar)
            if "v0" in bar:
                bar["v0"] *= float(rng.uniform(0.9, 1.1))
            else:
                bar["profile"] = tuple((w, h * float(rng.uniform(0.9, 1.1)))
                                       for w, h in bar["profile"])
            out.append({"barrier": bar, "k0": k0 * float(rng.uniform(0.95, 1.05)),
                        "sigma": sigma, "x0": bar["a"] - 5 * sigma, "n_k": TIMES_NK})
        elif workload in ("evolve", "times"):
            bar = _acceptance_barrier(rng, n_half)
            out.append({"barrier": bar, "k0": k0, "sigma": SIGMA, "x0": bar["a"] - 40.0,
                        "n_k": size or TIMES_NK})
        elif workload == "scan":
            out.append({"barrier": _acceptance_barrier(rng, n_half), "k_grid": SCAN_K})
        else:
            bar = _acceptance_barrier(rng, n_half, width_grid=ORACLE_WIDTH_GRID)
            out.append({"barrier": bar, "k0": k0, "sigma": SIGMA, "x0": bar["a"] - 40.0,
                        "n_k": ORACLE_NK, "k_grid": ORACLE_K})
    return out


def _perturb(workload: str, inp: dict, rng) -> dict:
    """`inp` with its heights, widths and k0 each scaled by its own factor in
    [1 - JITTER, 1 + JITTER].  On `oracle` a width instead moves by -1, 0 or
    +1 steps of its 0.05 grid, within the drawn range."""
    def scale(value):
        return value * float(rng.uniform(1 - JITTER, 1 + JITTER))

    def width(w):
        if workload != "oracle":
            return scale(w)
        steps = round(w / ORACLE_WIDTH_GRID) + int(rng.integers(-1, 2))
        return ORACLE_WIDTH_GRID * min(max(steps, 4), 30)

    bar = dict(inp["barrier"])
    if "v0" in bar:
        bar["v0"] = scale(bar["v0"])
    else:
        bar["profile"] = tuple((width(w), scale(h)) for w, h in bar["profile"])
    out = dict(inp, barrier=bar)
    if "k0" in inp:
        out["k0"] = scale(inp["k0"])
    return out


def draw_inputs(workload: str, seed: int, count: int, stream: int = 0) -> list[dict]:
    """`count` inputs for `workload`, a pure function of (seed, stream).

    Every seed perturbs the same study set (`_base_inputs`), so each seed's
    inputs are new while the run's cost, and so its figures, do not move
    with the seed.  Stream 0 feeds the timed ops and stream 1 the warm-up op,
    so the warm-up input is never reused.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    key = [seed, stream, WORKLOADS.index(workload)]
    return [_perturb(workload, inp, np.random.default_rng(key + [i]))
            for i, inp in enumerate(_base_inputs(workload, count, stream))]


# ---------------------------------------------------------------------------
# the op: INI in, exit codes and artifacts out
# ---------------------------------------------------------------------------

def render_config(inp: dict, run: dict) -> str:
    """INI text for one CLI command; floats are written with repr so they round-trip."""
    bar = inp["barrier"]
    lines = ["[barrier]", f"kind = {bar['kind']}", f"a = {bar['a']!r}"]
    if bar["kind"] == "rectangular":
        lines += [f"b = {bar['b']!r}", f"v0 = {bar['v0']!r}"]
    else:
        lines.append("half_profile = " + ", ".join(f"{w!r}:{h!r}" for w, h in bar["profile"]))
    if "k0" in inp:
        lines += ["[packet]", f"x0 = {inp['x0']!r}", f"sigma = {inp['sigma']!r}",
                  f"k0 = {inp['k0']!r}", f"n_k = {inp['n_k']}"]
    lines.append("[run]")
    lines += [f"{key} = {value}" for key, value in run.items()]
    return "\n".join(lines) + "\n"


def _k_run(grid) -> dict:
    lo, hi, n = grid
    return {"k_min": repr(lo), "k_max": repr(hi), "n_k": str(n)}


def segments(inp: dict) -> int:
    bar = inp["barrier"]
    return 2 * len(bar["profile"]) if "profile" in bar else 1


def build_barrier(ss, inp: dict):
    bar = inp["barrier"]
    if bar["kind"] == "rectangular":
        return ss.make_rectangular(bar["a"], bar["b"], bar["v0"])
    return ss.make_symmetric(bar["a"], bar["profile"])


class OpFailed(Exception):
    """A step of the op did not succeed: a CLI command exited non-zero, or
    quiet_times raised a ToleranceError (reported as exit 3)."""

    def __init__(self, step: str, code: int, message: str):
        super().__init__(f"{step}: exit {code}: {message}")
        self.step, self.code, self.message = step, code, message


def run_op(workload: str, inp: dict, out: Path, ss, cli_main, stderr) -> None:
    """One study of one input.  Raises OpFailed when a step is refused.

    `stderr` receives the CLI's error lines so a refusal can be tallied by cause.
    """
    out.mkdir(parents=True)

    def cli(command: str, run: dict, *flags: str) -> None:
        cfg = out / f"{command}.ini"
        cfg.write_text(render_config(inp, run))
        mark = stderr.tell()
        code = cli_main([command, "--config", str(cfg), "--out", str(out), *flags])
        if code != 0:
            stderr.seek(mark)
            raise OpFailed(command, code, stderr.read().strip())

    if workload == "evolve":
        bar = build_barrier(ss, inp)
        packet = ss.make_gaussian_packet(inp["x0"], inp["sigma"], inp["k0"], barrier=bar,
                                         n=inp["n_k"])
        try:
            ts = ss.quiet_times(packet, bar, n_pre=0, n_post=EVOLVE_TIMES)
        except ss.ToleranceError as exc:
            raise OpFailed("quiet_times", 3, f"{type(exc).__name__}: {exc}") from None
        cli("evolve", {"times": " ".join(repr(float(t)) for t in ts), "dx": repr(EVOLVE_DX)},
            "--tolerance-profile", "strict")
    elif workload == "times":
        omega = 1e-3 * inp["k0"] ** 2 / 2
        cli("times", {})
        cli("larmor", {"omega_ladder": " ".join(repr(omega / d) for d in (1, 2, 4))})
    elif workload == "scan":
        cli("decompose", _k_run(inp["k_grid"]))
        cli("solve", _k_run(inp["k_grid"]))
    else:
        cli("solve", _k_run(inp["k_grid"]), "--oracle", "--tolerance-profile", "strict")
        cli("evolve", {"times": f"0.0 {ORACLE_SPAN!r}", "dx": repr(EVOLVE_DX)}, "--oracle")


# ---------------------------------------------------------------------------
# checks on the artifacts
# ---------------------------------------------------------------------------

def _csv_column(path: Path, name: str) -> np.ndarray:
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    col = rows[0].split(",").index(name)
    return np.array([float(r.split(",")[col]) for r in rows[1:]])


class ArtifactError(Exception):
    """An artifact is missing or malformed: the op failed in a way the program does not name."""


def check_op(workload: str, inp: dict, out: Path) -> list[str]:
    """Names of the acceptance tolerances the artifacts in `out` miss (empty when all hold).

    Raises ArtifactError (or the parse error) when an artifact is missing or malformed.
    """
    bad = []
    if workload == "evolve":
        snaps = json.loads((out / "evolve.json").read_text())["snapshots"]
        if len(snaps) != EVOLVE_TIMES or not all((out / s["file"]).is_file() for s in snaps):
            raise ArtifactError(f"evolve: expected {EVOLVE_TIMES} snapshots, each with its CSV")
        worst = max(abs(s[k]) for s in snaps for k in (
            "residual_norm_minus_1", "residual_T_plus_R_minus_1", "residual_overlap_re"))
        if not worst <= 1e-6:
            bad.append("evolve.conservation_1e-6")
    elif workload == "times":
        res = json.loads((out / "times.json").read_text())["residuals"]
        if not max(res["route_tr"], res["route_ref"] or 0.0) <= ROUTE_TOL:
            bad.append("times.route_A_vs_B_1e-3")
        ext = json.loads((out / "larmor.json").read_text())["extrapolated"]
        if not math.isfinite(ext["tau_clock_tr"]):
            raise ArtifactError("larmor: tau_clock_tr is not finite")
    elif workload == "scan":
        n = inp["k_grid"][2]
        resid = _csv_column(out / "solve.csv", "unitarity_residual")
        if len(resid) != n or len(_csv_column(out / "decompose.csv", "k")) != n:
            raise ArtifactError(f"scan: expected {n} rows in solve.csv and decompose.csv")
        if not float(resid.max()) <= UNITARITY_TOL:
            bad.append("solve.unitarity_1e-10")
    else:
        orc = json.loads((out / "solve.json").read_text())["oracle"]
        if not max(orc["max_abs_diff_A_T"], orc["max_abs_diff_A_R"]) <= NUMEROV_TOL:
            bad.append("solve.numerov_1e-6")
        if not json.loads((out / "evolve.json").read_text())["oracle"]["l2_vs_synthesis"] <= CN_L2_TOL:
            bad.append("evolve.cn_l2_1e-4")
    return bad
