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

The dwell times, route B and the phase times read the closed-form kernel
`SolutionFamily.interior_integrals`, computed once per family; the phase
table is a strided slice of the packet family.  Route A stays numerical, on
a Gauss-Legendre grid of its own, so it checks the kernel instead of sharing
it.  One route-A pass serves both sub-processes: one grid, one sub-state
basis over the stacked rows, and one time scan at the packet's band rate
(`wavepacket._density_scan`, the scan `event_window` runs too) read as a
trapezoid and a midpoint sum.

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
    DomainError,
    GridRefinementError,
    ToleranceError,
    UndefinedTimeError,
    WindowError,
)
from .potentials import BarrierSpec, make_rectangular, potential_at
from .stationary import SolutionFamily, solve_family
from .wavepacket import SpectralPacket, _density_scan, _event_spans, _spectral_mean, _trap_w

_R_DEFINED = 1e-12

_ROUTE_A_TAIL = 1e-10
_ROUTE_A_RTOL = 1e-6
_PIECE_NODES = 24
_SUBPIECE_QL = 16.0  # route A's sub-pieces span at most 16 / |q| or 16 / kappa


# ---------------------------------------------------------------------------
# dwell times (per wavenumber)
# ---------------------------------------------------------------------------

class DwellTable(NamedTuple):
    """Per-k dwell times and interior norms over a family's k grid."""

    tau_tr: np.ndarray       # NaN where the flux k T underflows to 0
    tau_ref: np.ndarray      # NaN where R < 1e-12
    ref_defined: np.ndarray  # R >= 1e-12: not the family's `degenerate`
    norm_tr: np.ndarray      # interior norm over k, I / k = C tau, at every k
    norm_ref: np.ndarray     # 0 where R < 1e-12


def dwell_tables(fam: SolutionFamily) -> DwellTable:
    """Per-k dwell times over the family's k grid.

    Interior norm I of each masked sub-state (`SolutionFamily.split_basis`)
    per unit incident flux, tau = I / (k C).  With H, H', X and D the
    family's `interior_integrals` left, right, cross and odd, neither form
    below cancels (H + H' - 2 Re X, equal to D, would near narrow resonances):

        I_tr  = |A_tr_In|^2 H + (1 + |z|^2) H' + 2 Re(conj(A_tr_In) z X)
        I_ref = |z|^2 D

    I / k itself is kept too: it stays defined where k T underflows to 0.
    """
    H, H_right, X, D = fam.interior_integrals()[:4]
    tr_in, z = fam.A_tr_In, fam.z
    I_tr = (np.abs(tr_in) ** 2 * H + (1 + np.abs(z) ** 2) * H_right
            + 2 * (np.conj(tr_in) * z * X).real)
    I_ref = np.abs(z) ** 2 * D
    flux = fam.ks * fam.T
    tau_tr = np.divide(I_tr, flux, out=np.full(len(fam.ks), np.nan), where=flux > 0)
    defined = ~fam.degenerate
    tau_ref = np.divide(I_ref, fam.ks * fam.R, out=np.full(len(fam.ks), np.nan), where=defined)
    return DwellTable(tau_tr, tau_ref, defined, I_tr / fam.ks, I_ref / fam.ks)


# ---------------------------------------------------------------------------
# packet-level times, route A (space-time double integral)
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre():
    """The _PIECE_NODES-point Gauss-Legendre rule on [-1, 1], built once per
    process (read-only; numpy.polynomial is imported on first use)."""
    nodes, weights = np.polynomial.legendre.leggauss(_PIECE_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _piece_grid(barrier: BarrierSpec, ks):
    """Gauss-Legendre nodes and weights on [a, b], 24 per sub-piece.

    Pieces end at height jumps and x_c (the integrands are analytic within
    each; x_c is no cut where an edge rounds to it) and are cut into equal
    sub-pieces with q * length <= _SUBPIECE_QL, q = sqrt|k^2 - 2V| largest
    over ks, which resolves densities decaying as exp(-2 kappa x) or
    oscillating as exp(2iqx).  Nodes ascend, off the ends of every piece.
    """
    edges = barrier.edges
    cuts = np.array(sorted({float(e) for e in edges}
                           | ({barrier.x_c} if np.abs(edges - barrier.x_c).min()
                              > 1e-12 * (barrier.b - barrier.a) else set())))
    V = potential_at(barrier, (cuts[1:] + cuts[:-1]) / 2)
    q = np.sqrt(np.maximum(np.abs(ks[0] ** 2 - 2 * V), np.abs(ks[-1] ** 2 - 2 * V)))
    n = np.maximum(1, np.ceil(q * np.diff(cuts) / _SUBPIECE_QL)).astype(int)
    ends = np.concatenate([np.linspace(l, r, m + 1)[:-1]
                           for l, r, m in zip(cuts[:-1], cuts[1:], n)] + [cuts[-1:]])
    nodes, weights = _gauss_legendre()
    mid, half = (ends[1:] + ends[:-1]) / 2, (ends[1:] - ends[:-1]) / 2
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def _spectral_coef_norm(packet, fam, component):
    """(C_bar, C): per-k transmission or reflection coefficient on the packet
    grid and its spectral average.

    Raises UndefinedTimeError when C_bar vanishes: for "ref" at or below
    1e-12, for "tr" when it underflows to 0 (an opaque barrier).
    """
    C = fam.T if component == "tr" else fam.R
    C_bar = _spectral_mean(packet, C)
    if component == "ref" and C_bar <= _R_DEFINED:
        raise UndefinedTimeError("reflected spectral norm vanishes")
    if not C_bar > 0:
        raise UndefinedTimeError(
            "transmitted spectral norm underflows to 0: the barrier is opaque "
            "to this packet and the transmission time is undefined"
        )
    return C_bar, C


def _routeA(packet, fam, components, window, xs, wx) -> tuple[dict, int]:
    """({component: tau}, n): packet time from the space-time integral of
    each sub-process density, and the n time nodes sampled.

    tau = (1/C_bar) * int dt int |psi_c(x, t)|^2 dx over [a, b] for "tr" and
    [a, x_c] for "ref", with C_bar the spectral transmitted/reflected norm,
    over the window (t_lo, t_hi) of `_event_spans` (t_lo < 0 covers a
    precursor), on the grid (xs, wx) of `_piece_grid`.  One pass serves
    every component: the "tr" rows and the "ref" rows at or left of x_c are
    stacked into one matrix, scanned once (`_density_scan`) with one weighted
    sum per component.  The value is the mean of the trapezoid on the scan's
    even nodes and the midpoint sum on its odd ones.  Each component has its
    own checks: WindowError unless both ends are below 1e-10 of its peak,
    ToleranceError unless its two sums agree to _ROUTE_A_RTOL.
    """
    C_bar = [_spectral_coef_norm(packet, fam, c)[0] for c in components]
    n_ref = int(np.searchsorted(xs, fam.barrier.x_c, side="right"))
    tr, ref = fam.split_basis(xs)
    rows = [len(xs) if c == "tr" else n_ref for c in components]  # a prefix of the grid each
    M = np.concatenate([(tr if c == "tr" else ref)[:n] for c, n in zip(components, rows)])
    W = np.zeros((len(components), len(M)))  # each component's weights on its own rows
    for i, (start, n) in enumerate(zip(np.cumsum([0, *rows]), rows)):
        W[i, start:start + n] = wx[:n]
    t_lo, t_hi = window
    dt, s = _density_scan(M, packet, W, t_lo, t_hi)
    ends, h = s[:, [0, -1]], 2 * dt
    tail = ends.max(axis=1) / s.max(axis=1)
    trap = h * (s[:, ::2].sum(axis=1) - ends.sum(axis=1) / 2)
    mid = h * s[:, 1::2].sum(axis=1)
    taus = {}
    for i, c in enumerate(components):
        if not tail[i] < _ROUTE_A_TAIL:
            raise WindowError(
                f"route A's window [{t_lo:.6g}, {t_hi:.6g}] does not bracket the {c} "
                f"event: ends at {tail[i]:.2e} of the peak")
        I = (trap[i] + mid[i]) / 2
        if not abs(trap[i] - mid[i]) <= max(_ROUTE_A_RTOL * abs(I), 1e-12):
            raise ToleranceError(
                f"route A's {c} trapezoid and midpoint sums at time step {h:.4g} "
                f"disagree beyond rtol={_ROUTE_A_RTOL}: {trap[i]:.10g} vs {mid[i]:.10g}")
        taus[c] = I / C_bar[i]
    return taus, s.shape[1]


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
        "density": float(np.sum(packet.spectral_weight * norm) / C_bar),
        "literal": lit,
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

    In closed form (`SolutionFamily.traversal_time`, Winful's split) and
    delay = traversal - (b - a)/k.  The family must be dense enough that
    neighboring phases differ by < pi/2, otherwise any consumer unwrapping
    the table would alias — violations raise.
    """
    ks = fam.ks
    steps = np.angle(fam.A_T[1:] * np.conj(fam.A_T[:-1]))
    if np.any(np.abs(steps) >= math.pi / 2):
        raise GridRefinementError(
            "transmitted phase jumps by >= pi/2 between neighboring k; "
            "densify the k grid for an unambiguous phase table"
        )
    bar = fam.barrier
    traversal = fam.traversal_time()
    return PhaseTimes(ks=ks, delay=traversal - (bar.b - bar.a) / ks, traversal=traversal)


def hartman_scan(V0: float, k: float, lengths):
    """Phase traversal vs transmission dwell time across barrier lengths.

    For opaque rectangular barriers the phase traversal saturates with length
    while the dwell time grows exponentially; returns (lengths, tau_phase,
    tau_dwell_tr).  The rectangles are [0, L]: neither time depends on where
    the barrier sits.
    """
    lengths = np.asarray(lengths, dtype=float)
    tau_ph = np.empty(len(lengths))
    tau_dw = np.empty(len(lengths))
    for j, L in enumerate(lengths):
        fam = solve_family(make_rectangular(0.0, float(L), V0), k)
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

    The packet grid is solved once.  One dwell table serves route B for
    both sub-processes and its diagnostic variant, one route-A pass both
    sub-processes, and the phase table is a strided slice of the family.
    """
    if not phase_points >= 1:
        raise DomainError(f"phase_points must be at least 1, got {phase_points}")
    fam = solve_family(barrier, packet.ks)
    table = dwell_tables(fam)
    tau_tr, tau_ref, defined = table.tau_tr, table.tau_ref, table.ref_defined
    if np.any(tau_tr < -1e-12) or np.any(tau_ref[defined] < -1e-12):
        raise DomainError("negative dwell time — integration fault")

    variants = route_b(packet, fam, table, "tr")
    B_tr = variants["density"]
    t_lo, t_hi, recurrence = _event_spans(packet, fam)
    try:
        B_ref = route_b(packet, fam, table, "ref")["density"]
    except UndefinedTimeError:
        B_ref = None
    xs, wx = _piece_grid(barrier, packet.ks)
    routeA, n_t = _routeA(packet, fam, ("tr",) if B_ref is None else ("tr", "ref"),
                          (t_lo, t_hi), xs, wx)
    A_tr, A_ref = routeA["tr"], routeA.get("ref")
    ref_resid = None if B_ref is None else abs(A_ref - B_ref) / abs(B_ref)

    ph = phase_time(fam.take(slice(None, None, max(1, len(packet.ks) // phase_points))))

    residuals = {
        "route_tr": abs(A_tr - B_tr) / abs(B_tr),
        "route_ref": ref_resid,
        "literal_weight_identity": variants["literal_identity_residual"],
    }
    if not residuals["route_tr"] <= 1e-3 or (ref_resid is not None and not ref_resid <= 1e-3):
        raise ToleranceError(
            f"route A and route B disagree beyond 1e-3: {residuals}"
        )
    meta = {
        "routeA_subpieces": len(xs) // _PIECE_NODES,
        "routeA_tail_threshold": _ROUTE_A_TAIL,
        "routeA_window": [t_lo, t_hi],
        "routeA_time_nodes": n_t,
        "kgrid_recurrence_time": recurrence,
        "literal_routeB_tr": variants["literal"],
    }
    return TimeReport(
        ks=packet.ks, tau_dwell_tr=tau_tr, tau_dwell_ref=tau_ref,
        dwell_ref_defined=defined,
        tau_L_tr_routeA=A_tr, tau_L_tr_routeB=B_tr,
        tau_L_ref_routeA=A_ref, tau_L_ref_routeB=B_ref,
        phase=ph, residuals=residuals, metadata=meta,
    )
