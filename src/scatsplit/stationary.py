"""Stationary scattering states for piecewise-constant barriers.

For each wavenumber k > 0 (unit incidence from the left) the full scattering
state is

    psi(x) = exp(ikx) + A_R exp(-ikx)   for x <= a
    psi(x) = A_T exp(ikx)               for x >= b

with the interior written per segment in a local basis: complex exponentials
where E > V, real growing/decaying exponentials where E < V, and {1, x} at the
removable degeneracy E = V.

The solver propagates (psi, psi') from b to a, right to left, factoring the
growing exponential's magnitude out of every under-barrier segment, so opaque
barriers (kappa * width of hundreds) never overflow: the accumulated log-scale
S only ever appears as exp(-S) or exp(S_partial - S) with nonpositive
exponents.  There is no unscaled code path.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError
from .potentials import BarrierSpec

# |E - V| below this (scaled) threshold uses the linear {1, x} basis
_DEG_TOL = 1e-12

_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class SegmentWave:
    """Interior solution on one segment, in a bounded local basis.

    kind "osc":   c_plus * exp(i q (x - x_left)) + c_minus * exp(-i q (x - x_left))
    kind "evan":  c_plus * exp(kappa (x - x_right)) + c_minus * exp(-kappa (x - x_left))
                  (both exponents are <= 0 inside the segment)
    kind "deg":   c_plus + c_minus * (x - x_left)
    """

    kind: str
    x_left: float
    x_right: float
    wavenumber: float  # q for "osc", kappa for "evan", 0 for "deg"
    c_plus: complex
    c_minus: complex


@dataclass(frozen=True)
class ScatteringSolution:
    k: float
    E: float
    A_full_T: complex
    A_full_R: complex
    segment_coeffs: tuple[SegmentWave, ...]
    barrier: BarrierSpec

    @property
    def T_coef(self) -> float:
        return abs(self.A_full_T) ** 2

    @property
    def R_coef(self) -> float:
        return abs(self.A_full_R) ** 2


def _segment_kind(k, V):
    E = k * k / 2
    if abs(E - V) < _DEG_TOL * max(1.0, abs(V)):
        return "deg", 0.0
    D = k * k - 2 * V
    if D > 0:
        return "osc", math.sqrt(D)
    return "evan", math.sqrt(-D)


def solve_stationary(barrier: BarrierSpec, k: float) -> ScatteringSolution:
    """Solve for the full stationary state at wavenumber k (left incidence)."""
    if not (isinstance(k, (int, float)) and math.isfinite(k)) or k <= 0:
        raise DomainError(f"wavenumber must be a positive finite number, got {k!r}")
    k = float(k)

    cached = _cache_get(barrier, k)
    if cached is not None:
        return cached

    edges = barrier.edges
    heights = barrier.heights
    nseg = len(barrier.segments)

    # backward sweep, tracking scaled (u, v) ~ (psi, psi') / exp(S)
    u = cmath.exp(1j * k * barrier.b)
    v = 1j * k * u
    S = 0.0
    # per segment, remember the right-edge state and frame for the coefficients
    seg_records = [None] * nseg  # (kind, wn, uR, vR, S_R, uL, vL, S_L)
    for j in range(nseg - 1, -1, -1):
        w = edges[j + 1] - edges[j]
        kind, wn = _segment_kind(k, heights[j])
        uR, vR, S_R = u, v, S
        if kind == "osc":
            c, s = math.cos(wn * w), math.sin(wn * w)
            u, v = c * u - (s / wn) * v, wn * s * u + c * v
        elif kind == "evan":
            e2 = math.exp(-2 * wn * w)
            ch, sh = (1 + e2) / 2, (1 - e2) / 2
            u, v = ch * u - (sh / wn) * v, -wn * sh * u + ch * v
            S += wn * w
        else:  # degenerate: psi'' = 0
            u, v = u - w * v, v
        seg_records[j] = (kind, wn, uR, vR, S_R, u, v, S)

    # match to exp(ikx) + A_R exp(-ikx) at a; the transmitted normalization is
    # A_T = exp(-S) / P0 for P0 computed in the scaled frame
    ika = 1j * k * barrier.a
    P0 = 0.5 * (u + v / (1j * k)) * cmath.exp(-ika)
    Q0 = 0.5 * (u - v / (1j * k)) * cmath.exp(ika)
    A_T = cmath.exp(-S) / P0
    A_R = Q0 / P0

    unit = abs(A_T) ** 2 + abs(A_R) ** 2 - 1.0
    if abs(unit) > _UNITARITY_TOL:
        raise ToleranceError(
            f"unitarity violated by {unit:.3e} at k={k} (internal; please report)"
        )

    segs = []
    for j in range(nseg):
        kind, wn, uR, vR, S_R, uL, vL, S_L = seg_records[j]
        if kind == "osc":
            cp = 0.5 * (uL + vL / (1j * wn))
            cm = 0.5 * (uL - vL / (1j * wn))
            cp_n = cp * cmath.exp(S_L - S) / P0
            cm_n = cm * cmath.exp(S_L - S) / P0
        elif kind == "evan":
            # growing part anchored at the right edge (frame S_R), decaying at
            # the left edge (frame S_L); both normalized exponents are <= 0
            cp = 0.5 * (uR + vR / wn)
            cm = 0.5 * (uL - vL / wn)
            cp_n = cp * cmath.exp(S_R - S) / P0
            cm_n = cm * cmath.exp(S_L - S) / P0
        else:
            cp_n = uL * cmath.exp(S_L - S) / P0
            cm_n = vL * cmath.exp(S_L - S) / P0
        segs.append(
            SegmentWave(kind, float(edges[j]), float(edges[j + 1]), wn, cp_n, cm_n)
        )

    sol = ScatteringSolution(
        k=k,
        E=k * k / 2,
        A_full_T=A_T,
        A_full_R=A_R,
        segment_coeffs=tuple(segs),
        barrier=barrier,
    )
    _cache_put(barrier, k, sol)
    return sol


def evaluate_full(sol: ScatteringSolution, xs) -> np.ndarray:
    """Sample the full stationary state on a sorted grid (scalars allowed)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise DomainError("position grid must be one-dimensional")
    if len(xs) > 1 and np.any(np.diff(xs) < 0):
        raise DomainError("position grid must be sorted ascending")
    out = np.empty(len(xs), dtype=complex)
    b = sol.barrier
    k = sol.k

    left = xs < b.a
    right = xs >= b.b
    out[left] = np.exp(1j * k * xs[left]) + sol.A_full_R * np.exp(-1j * k * xs[left])
    out[right] = sol.A_full_T * np.exp(1j * k * xs[right])

    inside = ~(left | right)
    if np.any(inside):
        xi = xs[inside]
        vals = np.empty(len(xi), dtype=complex)
        for seg in sol.segment_coeffs:
            m = (xi >= seg.x_left) & (xi < seg.x_right)
            if not np.any(m):
                continue
            vals[m] = _segment_values(seg, xi[m])
        out[inside] = vals
    return out


def _segment_values(seg: SegmentWave, x):
    if seg.kind == "osc":
        d = x - seg.x_left
        return seg.c_plus * np.exp(1j * seg.wavenumber * d) + seg.c_minus * np.exp(
            -1j * seg.wavenumber * d
        )
    if seg.kind == "evan":
        return seg.c_plus * np.exp(seg.wavenumber * (x - seg.x_right)) + seg.c_minus * np.exp(
            -seg.wavenumber * (x - seg.x_left)
        )
    return seg.c_plus + seg.c_minus * (x - seg.x_left)


def _segment_derivatives(seg: SegmentWave, x):
    if seg.kind == "osc":
        d = x - seg.x_left
        iq = 1j * seg.wavenumber
        return iq * seg.c_plus * np.exp(iq * d) - iq * seg.c_minus * np.exp(-iq * d)
    if seg.kind == "evan":
        ka = seg.wavenumber
        return ka * seg.c_plus * np.exp(ka * (x - seg.x_right)) - ka * seg.c_minus * np.exp(
            -ka * (x - seg.x_left)
        )
    return np.broadcast_to(seg.c_minus, np.shape(x)).astype(complex)


def evaluate_full_deriv(sol: ScatteringSolution, xs) -> np.ndarray:
    """First derivative of the full state (same region conventions)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(len(xs), dtype=complex)
    b = sol.barrier
    k = sol.k
    left = xs < b.a
    right = xs >= b.b
    out[left] = 1j * k * (
        np.exp(1j * k * xs[left]) - sol.A_full_R * np.exp(-1j * k * xs[left])
    )
    out[right] = 1j * k * sol.A_full_T * np.exp(1j * k * xs[right])
    inside = ~(left | right)
    if np.any(inside):
        xi = xs[inside]
        vals = np.empty(len(xi), dtype=complex)
        for seg in sol.segment_coeffs:
            m = (xi >= seg.x_left) & (xi < seg.x_right)
            if np.any(m):
                vals[m] = _segment_derivatives(seg, xi[m])
        out[inside] = vals
    return out


def probability_current(field, dx: float) -> np.ndarray:
    """j = Im(conj(psi) psi') by central differences, at interior grid points.

    The finite-difference error is multiplicative per constant-potential piece
    (factor 1 + (dx k_loc)^2/6), so sample away from potential jumps when
    checking constancy across pieces.
    """
    field = np.asarray(field, dtype=complex)
    if field.ndim != 1 or len(field) < 3:
        raise DomainError("need a 1D field with at least 3 samples")
    if not dx > 0:
        raise DomainError("dx must be positive")
    dpsi = (field[2:] - field[:-2]) / (2 * dx)
    return np.imag(np.conj(field[1:-1]) * dpsi)


def solve_family(barrier: BarrierSpec, ks):
    """Solve for every k in ks; returns a list ordered like ks.

    Solutions are memoized per (barrier, k), so repeated packet synthesis over
    the same grid hits the cache.
    """
    ks = np.asarray(ks, dtype=float)
    return [solve_stationary(barrier, kk) for kk in ks]


# -- memo cache ---------------------------------------------------------------

_cache_lock = threading.Lock()
_cache: dict = {}
_CACHE_MAX = 200_000


def _cache_get(barrier, k):
    with _cache_lock:
        return _cache.get((barrier, k))


def _cache_put(barrier, k, sol):
    with _cache_lock:
        if len(_cache) >= _CACHE_MAX:
            _cache.clear()
        _cache[(barrier, k)] = sol


def clear_cache():
    with _cache_lock:
        _cache.clear()
