"""Characteristic times of the two scattering sub-processes.

Three independent notions of time are computed and cross-compared:

* dwell times per wavenumber: interior norm of a sub-process state divided by
  its incident flux, tau = I / (k * C) with C the transmission or reflection
  coefficient (hbar = m = 1);
* packet-level times via two routes that must agree: route A integrates the
  sub-process density over space and time directly, route B averages the per-k
  dwell times with spectral weights;
* stationary-phase (group-delay) times from the energy derivative of the
  transmitted amplitude's phase, reported both as a delay and as an effective
  traversal time (delay + free flight).

The traversal phase time saturates with barrier length for opaque barriers
while the transmission dwell time grows like the inverse tunneling
probability — the package's headline contrast between the two families.

Route-B weighting: the normalized density weights |G(k)|^2 C(k) / C_bar make
route B equal route A identically (both are quadratic functionals of the
field).  A linear-in-G weighting is also emitted as a diagnostic
(`route_b`); it is complex-valued and fails the weight-normalization
identity, which the report flags rather than hides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    GridRefinementError,
    ToleranceError,
    UndefinedTimeError,
    WindowError,
)
from .potentials import BarrierSpec, make_rectangular
from .stationary import SolutionFamily, solve_family
from .wavepacket import SpectralPacket, _density_scan, _trap_w

_R_DEFINED = 1e-12

_ROUTE_A_TAIL = 1e-10
_ROUTE_A_RTOL = 1e-6
_PIECE_NODES = 24


# ---------------------------------------------------------------------------
# dwell times (per wavenumber)
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre():
    """The _PIECE_NODES-point Gauss-Legendre rule on [-1, 1], built once per
    process (read-only; numpy.polynomial is imported on first use)."""
    nodes, weights = np.polynomial.legendre.leggauss(_PIECE_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _piece_grid(barrier: BarrierSpec, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi], 24 per piece between
    height jumps and the mask point x_c (the integrands are analytic within
    each piece; nodes are ascending and never on a piece end)."""
    cuts = sorted({lo, hi} | {float(e) for e in barrier.edges if lo < e < hi}
                  | ({barrier.x_c} if lo < barrier.x_c < hi else set()))
    nodes, weights = _gauss_legendre()
    mid = (np.array(cuts[1:]) + np.array(cuts[:-1])) / 2
    half = (np.array(cuts[1:]) - np.array(cuts[:-1])) / 2
    xs = (mid[:, None] + half[:, None] * nodes).ravel()
    wx = (half[:, None] * weights).ravel()
    return xs, wx


class DwellTable(NamedTuple):
    """Per-k dwell times and interior norms over a family's k grid."""

    tau_tr: np.ndarray       # NaN where the flux k T underflows to 0
    tau_ref: np.ndarray      # NaN where R <= 1e-12
    ref_defined: np.ndarray  # R > 1e-12
    norm_tr: np.ndarray      # interior norm over k, I / k = C tau, at every k
    norm_ref: np.ndarray     # 0 where R < 1e-12


def dwell_tables(fam: SolutionFamily) -> DwellTable:
    """Per-k dwell times over the family's k grid.

    Interior norm I of each masked sub-state (`SolutionFamily.split_basis`)
    per unit incident flux, tau = I / (k C), integrated by 24-node
    Gauss-Legendre per constant piece of [a, b] split at x_c.  The test suite
    checks it against adaptive quadrature (tests/analytic.py) to 1e-12
    relative on ordinary, stepped, wide and well barriers and to 2e-8 on an
    opaque one (T ~ 1e-53).  I / k itself is kept too: it stays defined
    where the flux k T underflows to 0.
    """
    bar = fam.barrier
    xs, wx = _piece_grid(bar, bar.a, bar.b)
    Mt, Mr = fam.split_basis(xs)
    I_tr, I_ref = wx @ np.abs(Mt) ** 2, wx @ np.abs(Mr) ** 2
    flux = fam.ks * fam.T
    tau_tr = np.divide(I_tr, flux, out=np.full(len(fam.ks), np.nan), where=flux > 0)
    defined = fam.R > _R_DEFINED
    tau_ref = np.full(len(fam.ks), np.nan)
    tau_ref[defined] = I_ref[defined] / (fam.ks * fam.R)[defined]
    return DwellTable(tau_tr, tau_ref, defined, I_tr / fam.ks, I_ref / fam.ks)


# ---------------------------------------------------------------------------
# packet-level times, route A (space-time double integral)
# ---------------------------------------------------------------------------

def _spectral_coef_norm(packet, fam, component):
    """(C_bar, C): per-k transmission or reflection coefficient on the packet
    grid and its spectral average.

    Raises UndefinedTimeError when C_bar vanishes: for "ref" at or below
    1e-12, for "tr" when it underflows to 0 (an opaque barrier).
    """
    C = fam.T if component == "tr" else fam.R
    C_bar = float(np.sum(np.abs(packet.G) ** 2 * C * _trap_w(len(C))) * packet.dk)
    if component == "ref" and C_bar <= _R_DEFINED:
        raise UndefinedTimeError("reflected spectral norm vanishes")
    if not C_bar > 0:
        raise UndefinedTimeError(
            "transmitted spectral norm underflows to 0: the barrier is opaque "
            "to this packet and the transmission time is undefined"
        )
    return C_bar, C


def _routeA(packet, fam, component):
    """Packet time from the space-time integral of the sub-process density.

    tau = (1/C_bar) * int dt int |psi_c(x, t)|^2 dx over [a, b] for
    transmission and [a, x_c] for reflection, with C_bar the spectral
    transmitted/reflected norm.  The time window [0, t_hi] is grown until the
    space integrand falls below 1e-10 of its peak at both ends.
    """
    barrier = fam.barrier
    C_bar, _ = _spectral_coef_norm(packet, fam, component)
    hi = barrier.b if component == "tr" else barrier.x_c
    xs, wx = _piece_grid(barrier, barrier.a, hi)
    tr, ref = fam.split_basis(xs)
    M = tr if component == "tr" else ref

    t_hi = 3.0 * (barrier.b - packet.x0) / packet.k0 + 40.0 / packet.k0
    for _ in range(5):
        probe = _density_scan(M, packet, wx, 0.0, t_hi / 239, 240)
        pk = float(probe.max())
        if probe[0] < _ROUTE_A_TAIL * pk and probe[-1] < _ROUTE_A_TAIL * pk:
            break
        t_hi *= 1.5
    else:
        raise WindowError("could not bracket the scattering event in time")

    # composite Simpson with interval halving until the value settles
    prev = None
    for I in _simpson_levels(functools.partial(_density_scan, M, packet, wx), 0.0, t_hi):
        if prev is not None and abs(I - prev) <= max(_ROUTE_A_RTOL * abs(I), 1e-12):
            return I / C_bar
        prev = I
    raise ConvergenceError(
        f"route-A time quadrature did not settle to rtol={_ROUTE_A_RTOL} by n=2049"
    )


def _simpson_levels(scan, t_lo, t_hi):
    """Composite Simpson values of a time integrand on [t_lo, t_hi] with
    n = 129, 257, ..., 2049 nodes.  scan(t0, dt, n) samples the integrand on
    t0 + j dt, j < n; each halving samples only the new odd nodes."""
    n, h = 129, (t_hi - t_lo) / 128
    fs = scan(t_lo, h, n)
    while True:
        yield h / 3 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum() + 2 * fs[2:-2:2].sum())
        if n == 2049:
            return
        h /= 2
        finer = np.empty(2 * n - 1)
        finer[::2] = fs
        finer[1::2] = scan(t_lo + h, 2 * h, n - 1)
        fs, n = finer, 2 * n - 1


# ---------------------------------------------------------------------------
# packet-level times, route B (spectrally weighted dwell average)
# ---------------------------------------------------------------------------

def route_b(packet: SpectralPacket, fam: SolutionFamily, table: DwellTable,
            component: str) -> dict:
    """Packet time as the spectral average of the per-k dwell times.

    `fam` is the family on the packet grid and `table` its `dwell_tables`.

    * "density": tau = sum |G|^2 C tau_dwell dk / sum |G|^2 C dk, the
      weighting that reproduces route A identically; C tau_dwell is taken as
      the interior norm I / k, so a k whose flux k C underflows keeps its
      weight, as it does in route A;
    * "literal": linear-in-G weights G C / int(G C dk) — complex-valued;
    * "literal_identity_residual": |int G(k) C(k) dk − C_bar| / C_bar, the
      normalization identity the linear form would need; nonzero in general,
      so a large residual flags that the density weighting is the operative
      one (route A agrees with it).

    Raises UndefinedTimeError when the spectral norm C_bar vanishes: for
    "ref" below 1e-12, for "tr" when it underflows to 0 (an opaque barrier).
    """
    if component not in ("tr", "ref"):
        raise DomainError(f"component must be tr|ref, got {component!r}")
    C_bar, C = _spectral_coef_norm(packet, fam, component)
    # norm_ref is 0 where R < 1e-12: the family's z is exactly 0 there
    tau, norm = ((table.tau_tr, table.norm_tr) if component == "tr"
                 else (table.tau_ref, table.norm_ref))
    tw = _trap_w(len(packet.ks)) * packet.dk
    # the linear form with C scaled by the power of two above its largest
    # value, so a subnormal C neither loses its digits nor overflows the
    # quotient; k without a dwell time carry no weight
    scale = 2.0 ** np.frexp(C.max())[1]
    lin = packet.G * (C / scale) * tw
    den = complex(np.sum(lin))
    lit = (complex(np.sum(lin * np.where(np.isnan(tau), 0.0, tau))) / den
           if den != 0 else complex("nan"))
    lit_norm = den * scale
    return {
        "density": float(np.sum(np.abs(packet.G) ** 2 * norm * tw) / C_bar),
        "literal": lit,
        "literal_normalizer": lit_norm,
        "literal_identity_residual": abs(lit_norm - C_bar) / C_bar,
    }


# ---------------------------------------------------------------------------
# stationary-phase (group-delay) times
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhaseTimes:
    ks: np.ndarray
    delay: np.ndarray       # d arg(A_full_T) / dE
    traversal: np.ndarray   # delay + (b - a)/k


def phase_time(fam: SolutionFamily) -> PhaseTimes:
    """Group-delay table from the energy derivative of the transmitted phase.

    Fourth-order accuracy via Richardson over two central stencils, whose
    amplitudes at E +/- h and E +/- 2h are four more families on the same
    barrier; phase differences enter as arguments of amplitude ratios, which
    stay on the principal branch for the small steps used.  The family itself
    must be dense enough that neighboring phases differ by < pi/2, otherwise
    any consumer unwrapping the table would alias — violations raise.
    """
    ks = fam.ks
    steps = np.angle(fam.A_T[1:] * np.conj(fam.A_T[:-1]))
    if np.any(np.abs(steps) >= math.pi / 2):
        raise GridRefinementError(
            "transmitted phase jumps by >= pi/2 between neighboring k; "
            "densify the k grid for an unambiguous phase table"
        )
    E = ks**2 / 2
    h = np.minimum(np.maximum(1e-7, 1e-5 * E), E / 8)
    p1, m1, p2, m2 = (solve_family(fam.barrier, np.sqrt(2 * (E + n * h))).A_T
                      for n in (1, -1, 2, -2))
    d1 = np.angle(p1 * np.conj(m1)) / (2 * h)
    d2 = np.angle(p2 * np.conj(m2)) / (4 * h)
    delay = (4 * d1 - d2) / 3
    traversal = delay + (fam.barrier.b - fam.barrier.a) / ks
    return PhaseTimes(ks=ks, delay=delay, traversal=traversal)


def hartman_scan(V0: float, k: float, lengths, a: float = 0.0):
    """Phase traversal vs transmission dwell time across barrier lengths.

    For opaque rectangular barriers the phase traversal saturates with length
    while the dwell time grows exponentially; returns (lengths, tau_phase,
    tau_dwell_tr).
    """
    lengths = np.asarray(lengths, dtype=float)
    tau_ph = np.empty(len(lengths))
    tau_dw = np.empty(len(lengths))
    for j, L in enumerate(lengths):
        fam = solve_family(make_rectangular(a, a + float(L), V0), k)
        tau_ph[j] = float(phase_time(fam).traversal[0])
        tau_dw[j] = float(dwell_tables(fam)[0][0])
    return lengths, tau_ph, tau_dw


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeReport:
    ks: np.ndarray
    tau_dwell_tr: np.ndarray
    tau_dwell_ref: np.ndarray        # NaN where reflection vanishes
    dwell_ref_defined: np.ndarray
    tau_L_tr_routeA: float
    tau_L_tr_routeB: float
    tau_L_ref_routeA: float | None
    tau_L_ref_routeB: float | None
    phase: PhaseTimes
    residuals: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def build_time_report(packet: SpectralPacket, barrier: BarrierSpec,
                      phase_points: int = 65) -> TimeReport:
    """Every time family on one packet/barrier pair, with route residuals.

    The packet grid is solved once, and one dwell table serves route B for
    both sub-processes and its diagnostic variant.
    """
    fam = solve_family(barrier, packet.ks)
    table = dwell_tables(fam)
    tau_tr, tau_ref, defined = table.tau_tr, table.tau_ref, table.ref_defined
    if np.any(tau_tr < -1e-12) or np.any(tau_ref[defined] < -1e-12):
        raise DomainError("negative dwell time — integration fault")

    A_tr = _routeA(packet, fam, "tr")
    variants = route_b(packet, fam, table, "tr")
    B_tr = variants["density"]
    try:
        B_ref = route_b(packet, fam, table, "ref")["density"]
    except UndefinedTimeError:
        A_ref = B_ref = ref_resid = None
    else:
        A_ref = _routeA(packet, fam, "ref")
        ref_resid = abs(A_ref - B_ref) / abs(B_ref)

    stride = max(1, len(packet.ks) // phase_points)
    ph = phase_time(solve_family(barrier, packet.ks[::stride]))

    residuals = {
        "route_tr": abs(A_tr - B_tr) / abs(B_tr),
        "route_ref": ref_resid,
        "literal_weight_identity": variants["literal_identity_residual"],
    }
    if residuals["route_tr"] > 1e-3 or (ref_resid is not None and ref_resid > 1e-3):
        raise ToleranceError(
            f"route A and route B disagree beyond 1e-3: {residuals}"
        )
    meta = {
        "piece_points": _PIECE_NODES,
        "routeA_tail_threshold": _ROUTE_A_TAIL,
        "literal_routeB_tr": variants["literal"],
    }
    return TimeReport(
        ks=packet.ks, tau_dwell_tr=tau_tr, tau_dwell_ref=tau_ref,
        dwell_ref_defined=defined,
        tau_L_tr_routeA=A_tr, tau_L_tr_routeB=B_tr,
        tau_L_ref_routeA=A_ref, tau_L_ref_routeB=B_ref,
        phase=ph, residuals=residuals, metadata=meta,
    )
