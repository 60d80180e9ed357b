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
"""

import collections
import re

import numpy as np

from scatsplit.cli import main

SEED = 1
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
}


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


def test_every_refusal_is_named(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    counts = collections.Counter()
    for i in range(DRAWS):
        command = COMMANDS[i % len(COMMANDS)]
        ini = tmp_path / f"run{i}.ini"
        ini.write_text(_config(rng, command))
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        flags = ["--oracle", "--tolerance-profile", "strict"] if command == "solve" else []
        code = main([command, "--config", str(ini), "--out", str(out), *flags])
        err = capsys.readouterr().err.strip()
        where = f"draw {i} ({command}): exit {code}, {err!r}\n{ini.read_text()}"
        assert code in (0, 2, 3), where
        if code == 0:
            counts[command, "ok"] += 1
            continue
        label = next((p for p in LABELS[code] if err.startswith(p)), None)
        assert label is not None, where
        cause = [c for c, pattern in CAUSES.items() if re.search(pattern, err)]
        assert len(cause) == 1, where
        counts[command, cause[0]] += 1
    assert sum(counts.values()) == DRAWS
    with capsys.disabled():
        print("\nrefusal fuzz, runs per command and cause:",
              dict(sorted(counts.items())))
    over = {key: n for key, n in counts.items()
            if key[1] != "ok" and n > BOUNDS.get(key, 0)}
    assert not over, over
