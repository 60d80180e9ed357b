"""Command-line front end.

Subcommands
    solve      amplitude/coefficient table over a k grid            -> CSV + JSON
    decompose  sub-process amplitude table with identity residuals  -> CSV + JSON
    evolve     packet snapshots at requested times                  -> CSVs + JSON
    times      dwell / packet-route / phase time report             -> JSON
    larmor     spin-clock readings and zero-field clock times       -> JSON

Config files are INI with sections [barrier], [packet], [run]; unknown keys
are rejected by name.  Artifacts embed the config echo, its SHA-256, the tool
version, units convention and tolerance profile; floats are printed with 17
significant digits and keys in fixed order, so identical configs produce
byte-identical outputs.

Exit codes: 0 success, 2 config/usage error or undefined time, 3 numerical
tolerance failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError, DomainError, ScatsplitError, ToleranceError, UndefinedTimeError,
)
from .larmor import clock_times, make_spin_run
from .oracle import numerov_solve
from .potentials import BarrierSpec, make_rectangular, make_symmetric
from .stationary import solve_family
from .times import build_time_report, dwell_tables, route_b
from .wavepacket import (
    make_gaussian_packet,
    norms_and_overlap,
    snapshot,
    snapshot_residuals,
)

_UNITS = "hbar = m = 1; E = k^2/2"

_BARRIER_KEYS = {"kind", "a", "b", "v0", "half_profile"}
_PACKET_KEYS = {"x0", "sigma", "k0", "n_k"}
_RUN_KEYS = {
    "solve": {"k_min", "k_max", "n_k"},
    "decompose": {"k_min", "k_max", "n_k"},
    "evolve": {"times", "dx"},
    "times": {"phase_points"},
    "larmor": {"omega_ladder"},
}


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _render_json(obj, indent=0) -> str:
    """Minimal JSON writer with fixed key order and 17-significant-digit floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return _render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{k}": {_render_json(obj[k], indent + 1)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" and len(obj):
        # "%.17g" writes the bytes of format(x, ".17g") for finite floats; a
        # masked entry (np.ma) is an undefined value, listed as None
        fmt = "%.17g".__mod__ if np.isfinite(obj).all() else _fmt_float
        items = ["null" if v is None else fmt(v) for v in obj.tolist()]
        return "[\n" + pad_in + (",\n" + pad_in).join(items) + "\n" + pad + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


def _config_echo(cp: configparser.ConfigParser) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _config_hash(cp: configparser.ConfigParser) -> str:
    canon = "\n".join(
        f"[{s}]\n" + "\n".join(f"{k}={v}" for k, v in sorted(cp.items(s)))
        for s in sorted(cp.sections())
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _meta(cfg: "RunConfig") -> dict:
    return {
        "version": __version__,
        "config_sha256": cfg.sha256,
        "config": cfg.echo,
        "units": _UNITS,
        "tolerance_profile": cfg.tolerance_profile,
    }


def _csv_header_lines(cfg: "RunConfig") -> list[str]:
    return [
        f"# version={__version__}",
        f"# config_sha256={cfg.sha256}",
        f"# units={_UNITS}",
        f"# tolerance_profile={cfg.tolerance_profile}",
    ]


def _write_csv(path: Path, cfg, columns: list[str], data):
    """One sequence per column.  Rows of finite numbers take one "%.17g" row
    format (the bytes of format(x, ".17g")); the rest go through _fmt_float."""
    data = [np.asarray(c) for c in data]
    text = [c.dtype.kind in "US" for c in data]
    finite = np.all([np.isfinite(c.astype(float))
                     for c, t in zip(data, text) if not t], axis=0)
    fmt = ",".join("%s" if t else "%.17g" for t in text)
    lines = _csv_header_lines(cfg) + [",".join(columns)]
    for ok, row in zip(finite.tolist(), zip(*(c.tolist() for c in data))):
        lines.append(fmt % row if ok else ",".join(
            v if isinstance(v, str) else _fmt_float(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(_render_json(payload) + "\n")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    barrier: BarrierSpec
    packet_params: dict | None
    run: dict
    echo: dict
    sha256: str
    command: str
    out_dir: Path
    oracle: bool
    tolerance_profile: str


def _getfloat(sec, key, where, default=None):
    raw = sec.get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"missing key '{key}' in [{where}]")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' in [{where}] is not a number: {raw!r}") from None


def _getint(sec, key, where, default=None):
    raw = sec.get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"missing key '{key}' in [{where}]")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' in [{where}] is not an integer: {raw!r}") from None


def _check_keys(sec, allowed, where):
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in [{where}]")


def _parse_barrier(cp) -> BarrierSpec:
    if "barrier" not in cp:
        raise ConfigError("config must contain a [barrier] section")
    sec = cp["barrier"]
    _check_keys(sec, _BARRIER_KEYS, "barrier")
    kind = sec.get("kind", "rectangular").strip()
    a = _getfloat(sec, "a", "barrier")
    if kind == "rectangular":
        b = _getfloat(sec, "b", "barrier")
        v0 = _getfloat(sec, "v0", "barrier")
        try:
            return make_rectangular(a, b, v0)
        except (DomainError, ValueError) as exc:
            raise ConfigError(f"invalid [barrier]: {exc}") from exc
    if kind == "symmetric":
        raw = sec.get("half_profile")
        if raw is None:
            raise ConfigError("missing key 'half_profile' in [barrier]")
        pairs = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                w, h = item.split(":")
                pairs.append((float(w), float(h)))
            except ValueError:
                raise ConfigError(
                    f"half_profile entries must be 'width:height', got {item!r}"
                ) from None
        if not pairs:
            raise ConfigError("half_profile in [barrier] is empty")
        try:
            return make_symmetric(a, pairs)
        except (DomainError, ValueError) as exc:
            raise ConfigError(f"invalid [barrier]: {exc}") from exc
    raise ConfigError(f"unknown barrier kind {kind!r} (use rectangular|symmetric)")


def _parse_packet(cp) -> dict | None:
    if "packet" not in cp:
        return None
    sec = cp["packet"]
    _check_keys(sec, _PACKET_KEYS, "packet")
    return {
        "x0": _getfloat(sec, "x0", "packet"),
        "sigma": _getfloat(sec, "sigma", "packet"),
        "k0": _getfloat(sec, "k0", "packet"),
        "n": _getint(sec, "n_k", "packet", default=2048),
    }


def load_config(path: str, command: str, out_dir: str, oracle: bool,
                workers, profile: str) -> RunConfig:
    """Parse and validate an INI run configuration.

    `workers` is ignored.  It stays in the signature only because
    perfbench/tests/test_perfbench.py calls this function positionally.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cp.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    for s in cp.sections():
        if s not in ("barrier", "packet", "run"):
            raise ConfigError(f"unknown section [{s}]")
    barrier = _parse_barrier(cp)
    packet_params = _parse_packet(cp)
    run_sec = cp["run"] if "run" in cp else {}
    if "run" in cp:
        _check_keys(cp["run"], _RUN_KEYS[command], "run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return RunConfig(
        barrier=barrier, packet_params=packet_params, run=dict(run_sec),
        echo=_config_echo(cp), sha256=_config_hash(cp),
        command=command, out_dir=out, oracle=oracle, tolerance_profile=profile,
    )


def _need_packet(cfg: RunConfig):
    if cfg.packet_params is None:
        raise ConfigError(f"command '{cfg.command}' requires a [packet] section")
    try:
        return make_gaussian_packet(
            cfg.packet_params["x0"], cfg.packet_params["sigma"],
            cfg.packet_params["k0"], barrier=cfg.barrier,
            n=cfg.packet_params["n"],
        )
    except DomainError as exc:
        raise ConfigError(f"invalid [packet]: {exc}") from exc


def _k_grid(cfg: RunConfig) -> np.ndarray:
    lo = _getfloat(cfg.run, "k_min", "run", default=0.5)
    hi = _getfloat(cfg.run, "k_max", "run", default=2.0)
    n = _getint(cfg.run, "n_k", "run", default=64)
    if not (0 < lo < hi) or n < 2:
        raise ConfigError(f"bad k grid in [run]: k_min={lo}, k_max={hi}, n_k={n}")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> None:
    ks = _k_grid(cfg)
    fam = solve_family(cfg.barrier, ks)
    _write_csv(
        cfg.out_dir / "solve.csv", cfg,
        ["k", "re_A_T", "im_A_T", "re_A_R", "im_A_R", "T", "R",
         "unitarity_residual"],
        [ks, fam.A_T.real, fam.A_T.imag, fam.A_R.real, fam.A_R.imag,
         fam.T, fam.R, np.abs(fam.T + fam.R - 1.0)],
    )
    payload = _meta(cfg)
    payload["n_k"] = len(ks)
    payload["k_range"] = [float(ks[0]), float(ks[-1])]
    if cfg.oracle:
        a_t, a_r = numerov_solve(cfg.barrier, ks)
        diff_T = float(np.max(np.abs(a_t - fam.A_T)))
        diff_R = float(np.max(np.abs(a_r - fam.A_R)))
        payload["oracle"] = {"max_abs_diff_A_T": diff_T, "max_abs_diff_A_R": diff_R}
        if cfg.tolerance_profile == "strict" and max(diff_T, diff_R) > 1e-6:
            raise ToleranceError(
                f"independent-solver cross-check exceeded 1e-6: {payload['oracle']}"
            )
    _write_json(cfg.out_dir / "solve.json", payload)


def cmd_decompose(cfg: RunConfig) -> None:
    ks = _k_grid(cfg)
    fam = solve_family(cfg.barrier, ks)
    tr_in = 1.0 - fam.z
    _write_csv(
        cfg.out_dir / "decompose.csv", cfg,
        ["k", "re_A_tr_In", "im_A_tr_In", "re_A_ref_In", "im_A_ref_In",
         "amp_sum_residual", "mod_T_residual", "mod_R_residual", "branch"],
        [ks, tr_in.real, tr_in.imag, fam.z.real, fam.z.imag,
         np.abs(tr_in + fam.z - 1.0),
         np.abs(np.abs(tr_in) - np.abs(fam.A_T)),
         np.abs(np.abs(fam.z) - np.abs(fam.A_R)),
         np.where(fam.degenerate, "degenerate", "odd")],
    )
    payload = _meta(cfg)
    payload["n_k"] = len(ks)
    payload["degenerate_count"] = int(np.sum(fam.degenerate))
    _write_json(cfg.out_dir / "decompose.json", payload)


def cmd_evolve(cfg: RunConfig) -> None:
    packet = _need_packet(cfg)
    raw = cfg.run.get("times")
    if raw is None:
        raise ConfigError("missing key 'times' in [run]")
    try:
        ts = sorted(float(t) for t in raw.split())
    except ValueError:
        raise ConfigError(f"'times' in [run] must be numbers, got {raw!r}") from None
    if not ts:
        raise ConfigError("'times' in [run] is empty")
    dx = _getfloat(cfg.run, "dx", "run", default=0.02)

    scalars = []
    strict = cfg.tolerance_profile == "strict"
    for i, t in enumerate(ts):
        snap = snapshot(packet, cfg.barrier, t, dx=dx)
        norms_and_overlap(snap, strict=strict)
        _write_csv(
            cfg.out_dir / f"evolve_{i:03d}.csv", cfg,
            ["x", "density_full", "density_tr", "density_ref"],
            [snap.x_grid, np.abs(snap.psi_full) ** 2,
             np.abs(snap.psi_tr) ** 2, np.abs(snap.psi_ref) ** 2],
        )
        entry = {
            "t": t,
            "file": f"evolve_{i:03d}.csv",
            "norm_full": snap.norm_full,
            "T_t": snap.T_t,
            "R_t": snap.R_t,
            "overlap_re": snap.overlap_re,
            "overlap_im": snap.overlap_im,
        }
        entry.update(
            {f"residual_{k}": v for k, v in snapshot_residuals(snap).items()}
        )
        scalars.append(entry)
    payload = _meta(cfg)
    payload["snapshots"] = scalars
    payload["packet_warnings"] = list(packet.warnings)
    if cfg.oracle:
        payload["oracle"] = _evolve_oracle(cfg, packet, ts)
    _write_json(cfg.out_dir / "evolve.json", payload)


def _evolve_oracle(cfg, packet, ts) -> dict:
    from .oracle import GridSpec, crank_nicolson_evolve

    t0, t1 = ts[0], ts[-1]
    if t1 <= t0:
        return {"skipped": "need at least two distinct times"}
    s0 = snapshot(packet, cfg.barrier, t0, dx=0.004)
    xs = s0.x_grid
    # widen so nothing reaches the hard-wall edges over the comparison window
    k_hi = float(packet.ks[-1])
    pad = k_hi * (t1 - t0) + 30.0
    dx = float(xs[1] - xs[0])
    n_pad = int(pad / dx) + 1
    lo = float(xs[0]) - n_pad * dx
    n = len(xs) + 2 * n_pad
    grid = GridSpec(x_min=lo, x_max=lo + (n - 1) * dx, n=n, dt=dx)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n_pad : n_pad + len(xs)] = s0.psi_full
    nsteps = max(1, round((t1 - t0) / grid.dt))
    psi1 = crank_nicolson_evolve(cfg.barrier, grid, psi0, nsteps * grid.dt)
    ref = snapshot(packet, cfg.barrier, t0 + nsteps * grid.dt, xs=grid.xs)
    l2 = float(np.sqrt(np.sum(np.abs(psi1 - ref.psi_full) ** 2) * grid.dx))
    return {"l2_vs_synthesis": l2, "dt": grid.dt, "dx": grid.dx,
            "steps": nsteps}


def cmd_times(cfg: RunConfig) -> None:
    packet = _need_packet(cfg)
    phase_points = _getint(cfg.run, "phase_points", "run", default=65)
    report = build_time_report(packet, cfg.barrier, phase_points=phase_points)
    payload = _meta(cfg)
    payload["tau_dwell_tr"] = {
        "k": report.ks, "tau": report.tau_dwell_tr,
    }
    payload["tau_dwell_ref"] = {
        "k": report.ks,
        "tau": np.ma.masked_array(report.tau_dwell_ref, mask=~report.dwell_ref_defined),
    }
    payload["tau_L_tr"] = {
        "routeA": report.tau_L_tr_routeA, "routeB": report.tau_L_tr_routeB,
    }
    payload["tau_L_ref"] = {
        "routeA": report.tau_L_ref_routeA, "routeB": report.tau_L_ref_routeB,
    }
    payload["tau_phase"] = {
        "k": report.phase.ks,
        "delay": report.phase.delay,
        "traversal": report.phase.traversal,
    }
    payload["residuals"] = report.residuals
    payload["quadrature"] = {
        k: v for k, v in report.metadata.items() if not isinstance(v, complex)
    }
    payload["routeB_literal_diagnostic"] = report.metadata["literal_routeB_tr"]
    _write_json(cfg.out_dir / "times.json", payload)


def cmd_larmor(cfg: RunConfig) -> None:
    packet = _need_packet(cfg)
    raw = cfg.run.get("omega_ladder")
    if raw is None:
        raise ConfigError("missing key 'omega_ladder' in [run]")
    try:
        ladder = [float(w) for w in raw.split()]
    except ValueError:
        raise ConfigError(f"'omega_ladder' must be numbers, got {raw!r}") from None
    if len(ladder) < 2:
        raise ConfigError("omega_ladder needs at least 2 entries")
    if any(w <= 0 for w in ladder):
        raise ConfigError("omega_ladder entries must be positive")

    runs = [make_spin_run(cfg.barrier, w, packet) for w in sorted(ladder, reverse=True)]
    fam = solve_family(cfg.barrier, packet.ks)
    clock = clock_times(packet, fam)
    table = dwell_tables(fam)
    tau_B_tr = route_b(packet, fam, table, "tr")["density"]
    try:
        tau_B_ref = route_b(packet, fam, table, "ref")["density"]
    except UndefinedTimeError:
        tau_B_ref = None

    payload = _meta(cfg)
    payload["omega_ladder"] = [r.omega for r in runs]
    payload["theta_T"] = [r.theta_T for r in runs]
    payload["theta_R"] = [r.theta_R for r in runs]
    payload["per_omega_tau_tr"] = [r.tau_clock_tr for r in runs]
    payload["per_omega_tau_ref"] = [r.tau_clock_ref for r in runs]
    payload["extrapolated"] = {
        "tau_clock_tr": clock.tau_tr,
        "tau_clock_ref": clock.tau_ref,
    }
    payload["comparison"] = {
        "tau_L_tr_routeB": tau_B_tr,
        "tau_L_ref_routeB": tau_B_ref,
        "clock_minus_routeB_tr": clock.tau_tr - tau_B_tr,
    }
    payload["diagnostics"] = {
        "sigma_z_T": [r.sigma_z_T for r in runs],
        "sigma_z_R": [r.sigma_z_R for r in runs],
    }
    _write_json(cfg.out_dir / "larmor.json", payload)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "decompose": cmd_decompose,
    "evolve": cmd_evolve,
    "times": cmd_times,
    "larmor": cmd_larmor,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scatsplit",
        description="Scattering sub-process toolkit (see README for units).",
    )
    ap.add_argument("command", choices=_COMMANDS, help="what to compute")
    ap.add_argument("--config", required=True, help="INI run configuration")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--oracle", action="store_true",
                    help="run independent-solver cross-checks")
    ap.add_argument("--tolerance-profile", choices=("strict", "default"),
                    default="default")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.out, args.oracle,
                          None, args.tolerance_profile)
        _COMMANDS[args.command](cfg)
    except UndefinedTimeError as exc:
        print(f"undefined time: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except ScatsplitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
