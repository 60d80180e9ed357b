"""The exit-code contract under a seeded fuzz of the command line.

Every run of the five commands either succeeds or refuses by name: it exits
0, 2 (bad config or an undefined time) or 3 (a numerical tolerance the run
cannot meet), never 4, and every refusal's stderr starts with one of the
CLI's labels and names one of a closed set of causes.  RuntimeWarning is an
error in this suite, so a stray overflow or division reads as exit 4 too.
`solve` runs with `--oracle --tolerance-profile strict`, so every solve draw
also meets the Numerov cross-check at 1e-6.

Barriers are rectangles (30 %; V0 from U(-5, 60), 10^U(-3, 3) or
-10^U(-1, 2), width 10^U(-2, 1.2)), opaque rectangles (10 %) and symmetric
profiles of 1-4 half segments (60 %; width 10^U(-2, 0.5), height U(-8, 60));
packets have k0 = 10^U(-0.5, 1), sigma above 5/k0, x0 = a - 5 sigma - 5 -
U(0, 20) and n_k in {64, 128, 256}.  Refusals are expected (most are k grids
too coarse for the packet); their counts per command and cause are printed
and bounded by the counts at seed 1, so a new refusal fails the test.

A run that exits 0 is checked against the test side: `solve`'s A_T and A_R
against plain transfer matrices, and `evolve`'s t = 0 density left of a - 1
against the free Gaussian.  `--fuzz-seeds N` runs seeds 1 .. N; the contract
and these checks hold at every seed, the per-cause bounds at seed 1.
"""

import collections
import configparser
import math
import re

import numpy as np

from analytic import free_gaussian, transfer_amplitudes
from scatsplit import make_gaussian_packet, solve_family
from scatsplit.cli import _parse_barrier, main
from scatsplit.wavepacket import _full_fields, auto_grid

DRAWS = 100
COMMANDS = ("solve", "decompose", "evolve", "times", "larmor")

LABELS = {2: ("config error: ", "undefined time: "), 3: ("tolerance failure: ",)}

# every message a refusal may carry, by cause
CAUSES = {
    "unresolved_resonance": r"unresolved resonance near k=.* needs n_k >= ",
    "recurrence": r"at least the k grid's recurrence time .* needs n_k >= ",
    "alias_period": r"at least the k grid's alias period .* needs n_k >= ",
    "route_a_window": r"route A's window \[.*\] does not bracket",
    "snapshot_window": r"snapshot grid \[.*\] truncates the support",
    "event_window": r"event window: the barrier is not quiet|no quiet pre-arrival regime",
    "route_disagreement": r"route A and route B disagree beyond 1e-3",
    "unitarity": r"unitarity violated by .* narrow resonance",
    "route_a_half_step": r"route A's \w+ trapezoid and midpoint sums .* disagree",
    "phase_grid": r"transmitted phase jumps by >= pi/2",
    "opaque": r"transmitted spectral norm underflows to 0",
    "no_reflection": r"reflected spectral norm vanishes",
    "packet_config": r"invalid \[packet\]|packet must start well left",
    "oracle": r"independent-solver cross-check exceeded",
    "numerov_budget": r"the Numerov oracle needs \d+ steps .* beyond the budget",
}


# the accepted runs' misses: solve's |A - transfer matrices| reads at most
# 1.8e-15 at seed 1 (1.2e-14 over seeds 1-10), 55 times under its bound;
# evolve's |density - free Gaussian's| at t = 0, over the free peak density,
# 2.4e-8 at seed 1 (4.3e-8 over seeds 1-10, all on k grids clamped at 1e-3
# k0, which cut a tail of 3e-6 of the peak amplitude), 4 times under its bound
ANSWER_TOL = {"solve": 1e-13, "evolve": 1e-7}

# refusals per (command, cause) at seed 1; every other pair refuses none
BOUNDS = {
    ("evolve", "alias_period"): 7,
    ("times", "recurrence"): 6,
    ("times", "route_a_window"): 1,
    ("times", "opaque"): 3,
    ("larmor", "opaque"): 1,
}


def _barrier(rng) -> str:
    """[barrier] text: 30 % rectangles, 10 % opaque rectangles, 60 %
    symmetric profiles of 1-4 half segments."""
    u = rng.uniform()
    a = rng.uniform(-3.0, 1.0)
    if u < 0.4:
        if u < 0.1:
            width, v0 = rng.uniform(4.0, 16.0), 10 ** rng.uniform(2.5, 3.0)
        else:
            width = 10 ** rng.uniform(-2.0, 1.2)
            v0 = [rng.uniform(-5.0, 60.0), 10 ** rng.uniform(-3.0, 3.0),
                  -(10 ** rng.uniform(-1.0, 2.0))][rng.integers(3)]
        return (f"[barrier]\nkind = rectangular\na = {a!r}\nb = {a + width!r}\n"
                f"v0 = {v0!r}\n")
    half = ", ".join(f"{10 ** rng.uniform(-2.0, 0.5)!r}:{rng.uniform(-8.0, 60.0)!r}"
                     for _ in range(rng.integers(1, 5)))
    return f"[barrier]\nkind = symmetric\na = {a!r}\nhalf_profile = {half}\n"


def _config(rng, command: str) -> str:
    text = _barrier(rng)
    a = float(re.search(r"^a = (.*)$", text, re.M).group(1))
    k0 = 10 ** rng.uniform(-0.5, 1.0)
    lo = 5.0 / k0 + 0.1  # above 15 for the slowest packets: widen the range there
    sigma = rng.uniform(lo, max(15.0, lo + 1.0))
    x0 = a - 5 * sigma - 5.0 - rng.uniform(0.0, 20.0)
    n_k = int(rng.choice([64, 128, 256]))
    text += f"[packet]\nx0 = {x0!r}\nsigma = {sigma!r}\nk0 = {k0!r}\nn_k = {n_k}\n"
    if command in ("solve", "decompose"):
        k_min = 10 ** rng.uniform(-1.5, 0.0)
        run = f"k_min = {k_min!r}\nk_max = {k_min * 10 ** rng.uniform(0.2, 1.3)!r}\nn_k = 64\n"
    elif command == "evolve":
        run = f"times = 0.0 {rng.uniform(10.0, 80.0)!r}\ndx = 0.05\n"
    elif command == "larmor":
        omega = 1e-3 * k0**2 / 2
        run = f"omega_ladder = {omega!r} {omega / 2!r}\n"
    else:
        run = ""
    return text + "[run]\n" + run


def _rows(path) -> dict:
    """A CLI CSV artifact as {column: float array}."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    head, body = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return {h: np.array([float(r[j]) for r in body]) for j, h in enumerate(head)}


def _answer_miss(command: str, text: str, out) -> float | None:
    """The accepted run's miss against the test side, None for a command
    without a check.  The barrier is read back from the config text."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    sec = cp["barrier"]
    a = float(sec["a"])
    if command == "solve":
        if sec["kind"] == "rectangular":
            edges, heights = [a, float(sec["b"])], [float(sec["v0"])]
        else:
            half = [tuple(map(float, p.split(":"))) for p in sec["half_profile"].split(",")]
            segs = half + half[::-1]
            edges = [a + w for w in np.cumsum([0.0] + [w for w, _ in segs])]
            heights = [h for _, h in segs]
        r = _rows(out / "solve.csv")
        want = np.array([transfer_amplitudes(edges, heights, k) for k in r["k"]])
        return max(np.abs(r["re_A_T"] + 1j * r["im_A_T"] - want[:, 0]).max(),
                   np.abs(r["re_A_R"] + 1j * r["im_A_R"] - want[:, 1]).max())
    if command == "evolve":
        x0, sigma, k0 = (float(cp["packet"][k]) for k in ("x0", "sigma", "k0"))
        r = _rows(out / "evolve_000.csv")  # t = 0, the earlier of the two times
        left = r["x"] < a - 1
        want = np.array([abs(free_gaussian(x, 0.0, x0, sigma, k0)) ** 2 for x in r["x"][left]])
        return np.abs(r["density_full"][left] - want).max() * sigma * math.sqrt(math.pi)
    return None


def _fuzz(seed, tmp_path, capsys):
    """Run the seed's draws, asserting the exit-code contract and the
    accepted answers on each; returns the runs per (command, cause or "ok")
    and the worst miss per checked command."""
    rng = np.random.default_rng(seed)
    counts, worst = collections.Counter(), {}
    for i in range(DRAWS):
        command = COMMANDS[i % len(COMMANDS)]
        text = _config(rng, command)
        ini = tmp_path / f"run{seed}_{i}.ini"
        ini.write_text(text)
        out = tmp_path / f"out{seed}_{i}"
        capsys.readouterr()
        flags = ["--oracle", "--tolerance-profile", "strict"] if command == "solve" else []
        code = main([command, "--config", str(ini), "--out", str(out), *flags])
        err = capsys.readouterr().err.strip()
        where = f"seed {seed} draw {i} ({command}): exit {code}, {err!r}\n{text}"
        assert code in (0, 2, 3), where
        if code == 0:
            counts[command, "ok"] += 1
            miss = _answer_miss(command, text, out)
            if miss is not None:
                assert miss <= ANSWER_TOL[command], f"{where}\nmiss {miss:.3g}"
                worst[command] = max(worst.get(command, 0.0), miss)
            continue
        label = next((p for p in LABELS[code] if err.startswith(p)), None)
        assert label is not None, where
        cause = [c for c, pattern in CAUSES.items() if re.search(pattern, err)]
        assert len(cause) == 1, where
        counts[command, cause[0]] += 1
    assert sum(counts.values()) == DRAWS
    return counts, worst


def test_every_refusal_is_named(tmp_path, capsys, request):
    for seed in range(1, request.config.getoption("fuzz_seeds") + 1):
        counts, worst = _fuzz(seed, tmp_path, capsys)
        with capsys.disabled():
            print(f"\nrefusal fuzz, seed {seed}, runs per command and cause:",
                  dict(sorted(counts.items())), "; worst accepted miss:",
                  {c: f"{m:.2g}" for c, m in sorted(worst.items())})
        if seed == 1:
            over = {key: n for key, n in counts.items()
                    if key[1] != "ok" and n > BOUNDS.get(key, 0)}
            assert not over, over


def test_an_aliased_reflection_is_refused(tmp_path, capsys):
    # seed 9 draw 22: on 64 k the synthesized density at t = 0 misses the
    # free packet's by 4.0e-7 of its peak left of the barrier (1.9e-10 on
    # 128 k, so the miss is aliasing).  The reflected packet, delayed and
    # ringing, and the rows left of a span more than the alias period, with
    # and without the cross-check
    text = (
        "[barrier]\nkind = symmetric\na = -1.785672848838217\nhalf_profile = "
        "2.1593094086694795:0.29500779779614916, 0.01629451556539142:36.74960756008596, "
        "0.02956330244899464:-7.496603520664456, 0.4117112972323485:-1.0589311898074625\n"
        "[packet]\nx0 = -90.48942370209805\nsigma = 12.909428598641373\n"
        "k0 = 0.7071266393114756\nn_k = 64\n"
        "[run]\ntimes = 0.0 41.709490482075864\ndx = 0.05\n")
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    for flags in ([], ["--oracle"]):
        capsys.readouterr()
        assert main(["evolve", "--config", str(ini), "--out", str(tmp_path), *flags]) == 3
        assert capsys.readouterr().err.strip() == (
            "tolerance failure: the reflected packet and its rows at t=0.0 span 399.7, at "
            "least the k grid's alias period 2 pi/dk = 393.1; needs n_k >= 72 (now 64)")
    # on the 72 k asked for, the full state at t = 0 matches the free packet
    # within the fuzz's bound (1.1e-8).  psi_tr and psi_ref reach past the
    # grid's left end at 3.5e-7 on any k grid, which the end check refuses
    ini.write_text(text.replace("n_k = 64", "n_k = 72"))
    capsys.readouterr()
    assert main(["evolve", "--config", str(ini), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.strip() == (
        "tolerance failure: snapshot grid [-163.819, -11.9188] truncates the support at "
        "t=0.0: end density 3.53e-07")
    cp = configparser.ConfigParser()
    cp.read_string(text)
    bar = _parse_barrier(cp)
    x0, sigma, k0 = -90.48942370209805, 12.909428598641373, 0.7071266393114756
    pk = make_gaussian_packet(x0, sigma, k0, barrier=bar, n=72)
    xs = auto_grid(pk, bar, (0.0,), 0.05)
    full = _full_fields(pk, solve_family(bar, pk.ks), (0.0,), xs)[:, 0]
    left = xs < bar.a - 1
    want = np.array([abs(free_gaussian(x, 0.0, x0, sigma, k0)) ** 2 for x in xs[left]])
    miss = np.abs(np.abs(full[left]) ** 2 - want).max() * sigma * math.sqrt(math.pi)
    assert miss <= ANSWER_TOL["evolve"]
