"""Command-line front end.

Subcommands
    solve      amplitude/coefficient table over a k grid            -> CSV + JSON
    decompose  sub-process amplitude table with identity residuals  -> CSV + JSON
    evolve     packet snapshots at requested times                  -> CSVs + JSON
    times      dwell / packet-route / phase time report             -> JSON
    larmor     spin-clock readings and zero-field clock times       -> JSON

Config files are INI with sections [barrier], [packet], [run]; unknown keys
are rejected by name.  Artifacts embed the config echo, its SHA-256, the tool
version, units convention and tolerance profile; keys come in fixed order and
every float is the bytes of format(x, ".17g"), with NaN written NaN and the
infinities "Infinity" and "-Infinity" (quotes included), so identical configs
produce byte-identical outputs.  CSV bodies go out in blocks of _CSV_BLOCK
cells, the float columns of a block rendered in one vectorized pass
(_float_cells), so the writer's memory does not grow with the file.

Exit codes: 0 success, 2 config/usage error or undefined time, 3 numerical
tolerance failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError, DomainError, ScatsplitError, ToleranceError, UndefinedTimeError,
)
from .larmor import clock_times, spin_ladder
from .oracle import (
    CROSS_CHECK_DX, CrankNicolson, _segment_steps, cross_check_plan, numerov_solve,
)
from .potentials import BarrierSpec, make_rectangular, make_symmetric
from .stationary import solve_family
from .times import build_time_report, dwell_tables, route_b
from .wavepacket import (
    _full_fields,
    auto_grid,
    check_alias,
    make_gaussian_packet,
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


# Decimal exponents E = floor(log10|x|) that _float_cells renders itself: its
# fast path takes 1e-280 < |x| < 1e280, and E may move by one either way.
_E_LO, _E_HI = -281, 281
# bytes per cell: sign, d0, ".", d1..d16, "e", exponent sign, up to 3 digits
_CELL = 24
# cells per block of a CSV body: the writer's temporaries scale with this,
# not with the file
_CSV_BLOCK = 2**14


@functools.cache
def _float_tables():
    """Tables for _float_cells, built on first use (not at import).

    For E in [_E_LO, _E_HI]: 10^(16-E) as a double-double (hi, lo), with hi's
    Veltkamp halves, and the exponent bytes [sign, hundreds or NUL, tens,
    units] as one little-endian word.  For g < 10^4: the four ASCII digits of
    g, then (at g + 10^4) the same with trailing zeros as NUL, as words.
    """
    tens = [1]  # 10^n for n = 0 .. max |16 - E|, by repeated multiplication
    for _ in range(max(16 - _E_LO, _E_HI - 16)):
        tens.append(tens[-1] * 10)
    hi, lo = [], []
    for e in range(_E_LO, _E_HI + 1):
        p = 16 - e
        if p >= 0:
            h = float(tens[p])
            lo.append(float(tens[p] - int(h)))
        else:
            h = 1 / tens[-p]  # correctly rounded, as every int / int
            num, den = h.as_integer_ratio()
            lo.append((den - num * tens[-p]) / (den * tens[-p]))
        hi.append(h)
    hi = np.array(hi)
    c = 134217729.0 * hi  # 2^27 + 1
    big = c - (c - hi)
    # format(E, "+03d") with the hundreds NUL below 100
    e = np.arange(_E_LO, _E_HI + 1)
    ae = np.abs(e)
    word = np.stack([np.where(e < 0, 45, 43), (ae // 100 + 48) * (ae >= 100),
                     ae // 10 % 10 + 48, ae % 10 + 48], axis=1).astype(np.uint8)
    digits = np.stack(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1), axis=1) + np.uint8(48)
    shown = np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    four = np.concatenate([digits, digits * shown])
    return (hi, big, hi - big, np.array(lo), word.view("<u4").ravel(),
            four.view("<u4").ravel())


def _scaled(ax, i, tables):
    """ax * 10^(16-E) as h + t, where i = E - _E_LO: h is the rounded product
    and t the rest, exact when 10^(16-E) is a double (Dekker, Numer. Math.
    18, 224 (1971)), else within 2^-47 for ax * 10^(16-E) < 1e17."""
    hi, big, small, lo = (a[i] for a in tables[:4])
    h = ax * hi
    c = 134217729.0 * ax
    ah = c - (c - ax)
    al = ax - ah
    return h, ((ah * big - h) + ah * small + al * big) + al * small + ax * lo


def _float_digits(x):
    """(q, E, slow) for a float64 array: x = +-q 10^(E-16) to 17 digits.

    q = round-half-even(|x| 10^(16-E)) in [1e16, 1e17), from a double-double
    product (exact when 0 <= 16-E <= 22).  E starts at floor(log10|x|) and
    moves by one when the product falls outside [1e16, 1e17) before rounding
    (1e-277 is 9.9999999999999997e-278), or when q rounds up to 1e17.  slow
    marks what the caller must format one by one, as in Grisu3's exact
    fallback (Loitsch, PLDI 2010): |x| outside (1e-280, 1e280), non-finite x,
    inexact products within 2^-30 of a tie, and any q that one move of E
    left outside [1e16, 1e17].
    """
    tables = _float_tables()
    ax = np.abs(x)
    fast = (ax > 1e-280) & (ax < 1e280)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    h, t = _scaled(ax, e - _E_LO, tables)
    move = np.flatnonzero((h < 1e16) | ((h == 1e16) & (t < 0))
                          | (h > 1e17) | ((h == 1e17) & (t >= 0)))
    if len(move):
        e[move] += np.where(h[move] > 5e16, 1, -1)
        h[move], t[move] = _scaled(ax[move], e[move] - _E_LO, tables)
    r = np.rint(t)
    q = h.astype(np.int64) + r.astype(np.int64)
    slow = ~fast | (q < 10**16) | (q > 10**17) | (
        (np.abs(np.abs(t - r) - 0.5) < 2.0**-30) & ((e < -6) | (e > 16)))
    carry = q == 10**17
    q[carry] = 10**16
    e[carry] += 1
    return q, e, slow


def _float_cells(x) -> np.ndarray:
    """(n, _CELL) uint8 for a float array: the bytes of row i that are not
    NUL, in order, are _fmt_float(x[i]).  NULs also sit inside a row."""
    x = np.asarray(x, dtype=np.float64)
    q, e, slow = _float_digits(x)
    exponent, four = _float_tables()[4:]

    # q as d0 and four groups of four digits; a group followed by zeros only
    # is looked up with its trailing zeros as NUL
    top, low = np.divmod(q, 10**8)
    g = np.empty((len(x), 5), np.int32)
    g[:, 0], rest = np.divmod(top.astype(np.int32), 10**8)
    g[:, 1], g[:, 2] = np.divmod(rest, 10**4)
    g[:, 3], g[:, 4] = np.divmod(low.astype(np.int32), 10**4)
    tail = g[:, 4] == 0
    g[:, 4] += 10000
    for j in (3, 2, 1):
        zero = g[:, j] == 0
        g[:, j] += tail * np.int32(10000)
        tail &= zero
    dig = four[g].view(np.uint8)[:, 3:]  # d0..d16, trailing zeros NUL

    # scientific: [-]d0[.d1..d16]e(+|-)dd[d]
    out = np.zeros((len(x), _CELL), np.uint8)
    out[:, 0] = np.signbit(x) * np.uint8(45)
    out[:, 1] = dig[:, 0]
    out[:, 2] = (dig[:, 1] != 0) * np.uint8(46)
    out[:, 3:19] = dig[:, 1:]
    out[:, 19] = 101
    out.view("<u4")[:, 5] = exponent[e - _E_LO]
    # fixed, -4 <= E <= 16: one block of rows per E
    f = np.flatnonzero((e >= -4) & (e <= 16))
    f = f[np.argsort(e[f], kind="stable")]
    ef, d = e[f], dig[f]
    fixed = np.zeros((len(f), _CELL), np.uint8)
    fixed[:, 0] = out[f, 0]
    starts = np.flatnonzero(np.diff(ef, prepend=_E_LO - 1)).tolist()
    for a, b in zip(starts, starts[1:] + [len(f)]):
        k, blk, s = int(ef[a]), fixed[a:b], d[a:b]
        if k >= 0:  # d0..dk[.dk+1..d16]; integer digits keep their zeros
            blk[:, 1:k + 2] = np.maximum(s[:, :k + 1], 48)
            if k < 16:
                blk[:, k + 2] = (s[:, k + 1] != 0) * np.uint8(46)
                blk[:, k + 3:19] = s[:, k + 1:]
        else:  # 0.0..0d0..d16
            blk[:, 1:3] = (48, 46)
            blk[:, 3:2 - k] = 48
            blk[:, 2 - k:19 - k] = s
    out[f] = fixed

    zero = np.flatnonzero(x == 0)
    out[zero, 1:] = 0
    out[zero, 1] = 48
    other = np.flatnonzero(slow & (x != 0))
    if len(other):
        text = [_fmt_float(v).encode() for v in x[other].tolist()]
        out[other] = np.array(text, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return out


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
        # "%.17g" writes the bytes of format(x, ".17g") for finite floats
        fmt = "%.17g".__mod__ if np.isfinite(obj).all() else _fmt_float
        items = list(map(fmt, obj.tolist()))
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
    """One sequence per column.  Text columns pass through; all the others
    are rendered by _float_cells (the bytes of _fmt_float).  The body goes
    out in blocks of _CSV_BLOCK cells: a block's cells go into one
    NUL-padded byte matrix, each followed by "," or a newline, and are
    written with the NULs dropped."""
    data = [np.asarray(c) for c in data]
    nums = [i for i, c in enumerate(data) if c.dtype.kind not in "US"]
    step = max(1, _CSV_BLOCK // len(data))
    with open(path, "wb") as fh:
        fh.write(("\n".join(_csv_header_lines(cfg) + [",".join(columns)]) + "\n").encode())
        for r in range(0, len(data[0]), step):
            fh.write(_csv_block([c[r:r + step] for c in data], nums))


def _csv_block(data, nums) -> np.ndarray:
    """The bytes of the rows of data (one sequence per column, nums the
    indices of the float ones), NULs dropped."""
    rows = len(data[0])
    cells = {}
    if nums:
        block = _float_cells(np.stack([data[i] for i in nums], axis=1).ravel())
        cells = dict(zip(nums, block.reshape(rows, len(nums), _CELL).swapaxes(0, 1)))
    for i, c in enumerate(data):
        if i not in cells:  # text, as UTF-8
            c = np.char.encode(c) if c.dtype.kind == "U" else c
            cells[i] = np.ascontiguousarray(c).view(np.uint8).reshape(rows, c.dtype.itemsize)
    width = max(c.shape[1] for c in cells.values()) + 1
    body = np.zeros((rows, len(data), width), np.uint8)
    for i, c in cells.items():
        body[:, i, :c.shape[1]] = c
    body[:, :, -1] = ord(",")
    body[:, -1, -1] = ord("\n")
    return body[body != 0]


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


def _getnum(sec, key, where, default=None, kind=float):
    raw = sec.get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"missing key '{key}' in [{where}]")
    try:
        value = kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"key '{key}' in [{where}] is not {noun}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in [{where}] is not finite: {raw!r}")
    return value


def _getnums(sec, key, where) -> list[float]:
    """The whitespace-separated numbers of a required key, each read as
    _getnum reads one."""
    raw = sec.get(key)
    if raw is None:
        raise ConfigError(f"missing key '{key}' in [{where}]")
    return [_getnum({key: v}, key, where) for v in raw.split()]


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
    a = _getnum(sec, "a", "barrier")
    if kind == "rectangular":
        b = _getnum(sec, "b", "barrier")
        v0 = _getnum(sec, "v0", "barrier")
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
        "x0": _getnum(sec, "x0", "packet"),
        "sigma": _getnum(sec, "sigma", "packet"),
        "k0": _getnum(sec, "k0", "packet"),
        "n": _getnum(sec, "n_k", "packet", default=2048, kind=int),
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
    lo = _getnum(cfg.run, "k_min", "run", default=0.5)
    hi = _getnum(cfg.run, "k_max", "run", default=2.0)
    n = _getnum(cfg.run, "n_k", "run", default=64, kind=int)
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
        payload["oracle"] = {"max_abs_diff_A_T": diff_T, "max_abs_diff_A_R": diff_R,
                             "numerov_steps": int(_segment_steps(cfg.barrier, ks).sum())}
        if cfg.tolerance_profile == "strict" and not max(diff_T, diff_R) <= 1e-6:
            raise ToleranceError(
                f"independent-solver cross-check exceeded 1e-6: {payload['oracle']}"
            )
    _write_json(cfg.out_dir / "solve.json", payload)


def cmd_decompose(cfg: RunConfig) -> None:
    ks = _k_grid(cfg)
    fam = solve_family(cfg.barrier, ks)
    tr_in = fam.A_tr_In
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
    ts = sorted(_getnums(cfg.run, "times", "run"))
    if not ts:
        raise ConfigError("'times' in [run] is empty")
    dx = _getnum(cfg.run, "dx", "run", default=0.02)
    if not dx > 0:
        raise ConfigError(f"key 'dx' in [run] must be positive, got {dx!r}")

    # the cross-check's step budget is held before the solve, its alias period after
    plan = _oracle_plan(cfg, packet, ts) if cfg.oracle else None
    fam = solve_family(cfg.barrier, packet.ks)
    spans = [check_alias(packet, fam, plan[0], t) for t in (ts[0], ts[-1])] if plan else []
    scalars = []
    strict = cfg.tolerance_profile == "strict"
    for i, t in enumerate(ts):
        snap = snapshot(packet, cfg.barrier, t, dx=dx, fam=fam, strict=strict)
        _write_csv(
            cfg.out_dir / f"evolve_{i:03d}.csv", cfg,
            ["x", "density_full", "density_tr", "density_ref"],
            [snap.x_grid, np.abs(snap.psi_full) ** 2,
             np.abs(snap.psi_tr) ** 2, np.abs(snap.psi_ref) ** 2],
        )
        entry = {
            "t": t,
            "file": f"evolve_{i:03d}.csv",
            "x_min": snap.x_grid[0],  # the CSV's x column is x_min + dx * (0 .. n - 1)
            "dx": dx,
            "n": len(snap.x_grid),
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
        spans.append(snap.alias_span)
    payload = _meta(cfg)
    payload["snapshots"] = scalars
    payload["alias_period"] = 2 * np.pi / packet.dk
    payload["alias_span"] = max(spans)  # the widest that `wavepacket.check_alias` judged
    payload["packet_warnings"] = list(packet.warnings)
    if cfg.oracle:
        payload["oracle"] = _evolve_oracle(cfg, packet, fam, ts[0], plan)
    _write_json(cfg.out_dir / "evolve.json", payload)


def _oracle_plan(cfg, packet, ts):
    """(xs, dt, nsteps, time_error) of the time-domain cross-check from
    ts[0] to ts[-1], or None with fewer than two distinct times.  xs is
    `auto_grid`'s over both times at CROSS_CHECK_DX; `cmd_evolve` holds it to
    the alias period at both times (`check_alias`), as a snapshot is."""
    if ts[-1] <= ts[0]:
        return None
    xs = auto_grid(packet, cfg.barrier, (ts[0], ts[-1]), CROSS_CHECK_DX)
    return (xs, *cross_check_plan(xs, packet.ks, packet.spectral_weight, ts[-1] - ts[0]))


def _evolve_oracle(cfg, packet, fam, t0, plan) -> dict:
    if plan is None:
        return {"skipped": "need at least two distinct times"}
    xs, dt, nsteps, time_error = plan
    dx = float((xs[-1] - xs[0]) / (len(xs) - 1))
    psi0, ref = _full_fields(packet, fam, (t0, t0 + nsteps * dt), xs).T
    psi1 = CrankNicolson(cfg.barrier, xs, dt).evolve(psi0, nsteps)
    l2 = float(np.sqrt(np.sum(np.abs(psi1 - ref) ** 2) * dx))
    if cfg.tolerance_profile == "strict" and not l2 <= 1e-4:
        raise ToleranceError(
            f"time-domain cross-check exceeded 1e-4: l2_vs_synthesis = {l2:.3e} "
            f"(dt = {dt:.6g}, {nsteps} steps, dx = {dx:.6g})"
        )
    return {"l2_vs_synthesis": l2, "dt": dt, "dx": dx, "steps": nsteps,
            "time_error_estimate": time_error, "x_min": float(xs[0]), "n": len(xs)}


def cmd_times(cfg: RunConfig) -> None:
    packet = _need_packet(cfg)
    phase_points = _getnum(cfg.run, "phase_points", "run", default=65, kind=int)
    if phase_points < 1:
        raise ConfigError(f"key 'phase_points' in [run] must be at least 1, got {phase_points}")
    report = build_time_report(packet, cfg.barrier, phase_points=phase_points)
    payload = _meta(cfg)
    payload["tau_dwell_tr"] = {
        "k": report.ks, "tau": report.tau_dwell_tr,
    }
    payload["tau_dwell_ref"] = {
        "k": report.ks,
        "tau": [v if ok else None  # None: undefined
                for v, ok in zip(report.tau_dwell_ref.tolist(), report.dwell_ref_defined)],
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
    ladder = _getnums(cfg.run, "omega_ladder", "run")
    if len(ladder) < 2:
        raise ConfigError("omega_ladder needs at least 2 entries")
    if any(w <= 0 for w in ladder):
        raise ConfigError("omega_ladder entries must be positive")

    runs = spin_ladder(cfg.barrier, sorted(ladder, reverse=True), packet)
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
