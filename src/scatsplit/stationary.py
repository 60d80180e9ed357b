"""Stationary scattering states for piecewise-constant barriers.

For each wavenumber k > 0 (unit incidence from the left) the full scattering
state is

    psi(x) = exp(ikx) + A_R exp(-ikx)   for x <= a
    psi(x) = A_T exp(ikx)               for x >= b

with the interior written per segment in a local basis: complex exponentials
where E > V, real growing/decaying exponentials where E < V, and {1, x} at the
removable degeneracy E = V.

One solver, `solve_family`, handles a whole k grid at once.  It propagates
(psi, psi') from b to a, right to left, factoring the growing exponential's
magnitude out of every under-barrier segment, so opaque barriers (kappa *
width of hundreds) never overflow: the accumulated log-scale S only ever
appears as exp(-S) or exp(S_partial - S) with nonpositive exponents.  The
transfer coefficients of all segments are (segments, k) arrays computed at
once, and the Python loop over segments carries only the scaled (psi,
psi').  Everything is elementwise over k, so the spin clock's channels ride
the same sweep as extra columns with their own heights
(`_shifted_amplitudes`).  There is no unscaled code path; one k is a grid
of length one.

The tests check the family against plain unscaled 2x2 transfer matrices
(tests/analytic.py) to 1e-12 absolute in the amplitudes, on random barriers
with wells, on E = V exactly and across the evanescent/oscillatory switch,
and against 50-digit closed forms for rectangles to 1e-13; the interior
integrals against adaptive quadrature to 1e-12, up to kappa * width = 400.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ToleranceError
from .potentials import BarrierSpec, shifted

# |E - V| below this (scaled) threshold uses the linear {1, x} basis
_DEG_TOL = 1e-12

_UNITARITY_TOL = 1e-10

# R_coef below this is treated as an exact resonance: Psi_ref identically zero
DEGENERATE_R = 1e-12

# segment kinds, indexed by osc + 2 * evan
_KINDS = np.array(["deg", "osc", "evan"])


class InteriorIntegrals(NamedTuple):
    """Integrals of the full state Psi over the barrier, arrays over k, with
    Psi~(x) = Psi(2 x_c - x) its mirror image."""

    left: np.ndarray    # int_a^x_c |Psi|^2
    right: np.ndarray   # int_x_c^b |Psi|^2
    cross: np.ndarray   # int_a^x_c conj(Psi) Psi~
    odd: np.ndarray     # int_a^x_c |Psi - Psi~|^2
    square: np.ndarray  # int_a^b Psi^2
    mirror: np.ndarray  # int_a^b Psi Psi~


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Full stationary states over a k grid, as arrays over k.

    Per-segment arrays have shape (segments, k).  On segment j and column k
    the interior is, by kind[j, k],

      "osc":  c_plus exp(i q (x - x_j)) + c_minus exp(-i q (x - x_j))
      "evan": c_plus exp(kappa (x - x_{j+1})) + c_minus exp(-kappa (x - x_j))
              (both exponents are <= 0 inside the segment)
      "deg":  c_plus + c_minus (x - x_j)

    with q or kappa in wn (0 for "deg").

    The sub-state split.  At each k the full state splits as
    Psi_full = Psi_tr + Psi_ref, where both parts share the left-incidence
    structure:

      Psi_tr:  A_tr_In exp(ikx) incoming, A_T exp(ikx) transmitted, nothing reflected
      Psi_ref: A_ref_In exp(ikx) incoming, A_R exp(-ikx) reflected, nothing transmitted

    with A_tr_In + A_ref_In = 1 and |A_tr_In| = |A_T|, |A_ref_In| = |A_R|.
    The reflection sub-state is the part of Psi_full that is odd about the
    barrier midpoint x_c (it never crosses the midpoint).  Every barrier here
    is mirror symmetric, so Psi_full(2 x_c - x) solves the same equation and

      Psi_ref(x) = z [Psi_full(x) - Psi_full(2 x_c - x)]

    is odd about x_c on the whole line.  Left of a the mirrored term is the
    purely left-moving A_T exp(ik(2 x_c - x)), so requiring the reflected
    amplitude of Psi_ref to be A_R fixes

      z = A_ref_In = A_R / (A_R - A_T exp(2ik x_c)),
      A_tr_In = -A_T exp(2ik x_c) / (A_R - A_T exp(2ik x_c)).

    The denominator has modulus 1 by unitarity and mirror symmetry, so both
    are defined for every barrier, opaque ones included.  The smaller share
    is kept as computed, the larger (modulus >= 1/sqrt(2)) is 1 minus it, so
    the sum is exact.  z = 0 and A_tr_In = 1 where R < 1e-12 (`degenerate`).

    The masked sub-states (`split_basis`) split the line at x_c:
    psi_ref = Psi_ref for x <= x_c and 0 beyond, psi_tr = Psi_full - psi_ref.
    Both carry spatially constant probability current (T k for psi_tr,
    exactly 0 for psi_ref) at the price of a derivative kink at x_c.
    """

    barrier: BarrierSpec
    ks: np.ndarray
    A_T: np.ndarray
    A_R: np.ndarray
    z: np.ndarray
    A_tr_In: np.ndarray
    degenerate: np.ndarray
    kind: np.ndarray
    wn: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray

    @property
    def T(self) -> np.ndarray:
        return np.abs(self.A_T) ** 2

    @property
    def R(self) -> np.ndarray:
        return np.abs(self.A_R) ** 2

    def take(self, cols) -> SolutionFamily:
        """The family on the k columns that cols (a slice or index array)
        selects.  The solve works elementwise over k, so this equals the
        family solved on ks[cols]; interior integrals already computed are
        sliced too."""
        sub = SolutionFamily(self.barrier, *(getattr(self, f.name)[..., cols]
                                             for f in fields(self)[1:]))
        if "_interior" in self.__dict__:
            sub.__dict__["_interior"] = InteriorIntegrals(*(a[cols] for a in self._interior))
        return sub

    def basis(self, xs) -> np.ndarray:
        """x-by-k matrix of the full states on the ascending grid xs."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.ndim != 1:
            raise DomainError("position grid must be one-dimensional")
        if len(xs) > 1 and np.any(np.diff(xs) < 0):
            raise DomainError("position grid must be sorted ascending")
        edges = self.barrier.edges
        cut = np.searchsorted(xs, edges)  # first row at or right of each edge
        out = np.empty((len(xs), len(self.ks)), dtype=complex)

        left = _expi(xs[: cut[0]], self.ks, out[: cut[0]])
        reflected = np.conj(left)
        reflected *= self.A_R
        left += reflected
        _expi(xs[cut[-1]:], self.ks, out[cut[-1]:])
        out[cut[-1]:] *= self.A_T

        for j in range(len(edges) - 1):
            if cut[j] == cut[j + 1]:
                continue
            x = xs[cut[j] : cut[j + 1]]
            d = x - edges[j]
            blk = out[cut[j] : cut[j + 1]]
            # the kinds form runs in k (one each on an ascending grid)
            kind = self.kind[j]
            runs = np.flatnonzero(kind[1:] != kind[:-1]) + 1
            for lo, hi in zip([0, *runs], [*runs, len(kind)]):
                m = slice(lo, hi)
                q, cp, cm = self.wn[j, m], self.c_plus[j, m], self.c_minus[j, m]
                if kind[lo] == "osc":
                    e = _expi(d, q)
                    blk[:, m] = cp * e + cm * np.conj(e)
                elif kind[lo] == "evan":
                    blk[:, m] = (cp * np.exp(np.multiply.outer(x - edges[j + 1], q))
                                 + cm * np.exp(-np.multiply.outer(d, q)))
                else:
                    blk[:, m] = cp + cm * d[:, None]
        return out

    def split_basis(self, xs):
        """(tr, ref): x-by-k masked sub-state matrices on the ascending grid xs.

        Rows with x <= x_c: ref = z [Psi(x) - Psi(2 x_c - x)] and tr =
        A_tr_In Psi(x) + z Psi(2 x_c - x); beyond, ref = 0 and tr = Psi.  The
        mirrored rows are one more basis evaluation, on the reversed grid.
        """
        tr = self.basis(xs)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        x_c = self.barrier.x_c
        n = int(np.searchsorted(xs, x_c, side="right"))
        mirror = self.basis((2 * x_c - xs[:n])[::-1])[::-1] * self.z
        ref = np.zeros_like(tr)
        ref[:n] = tr[:n] * self.z - mirror
        tr[:n] = tr[:n] * self.A_tr_In + mirror
        return tr, ref

    def interior_integrals(self) -> InteriorIntegrals:
        """Per-k integrals of the full state over the barrier, in closed form,
        computed once per family (read-only arrays)."""
        return self._interior

    @functools.cached_property
    def _interior(self) -> InteriorIntegrals:
        """The closed forms behind `interior_integrals`.

        With u = x - x_j on segment j of width w, Psi and its mirror image
        (on segment n - 1 - j, at offset w - u) are pairs on the basis
        (exp(iqu), exp(-iqu)), (exp(-kappa (w - u)), exp(-kappa u)) or (1, u).
        Each integral sums pair products against bounded closed-form basis
        integrals over the pieces of [a, x_c], an odd count's middle segment
        cut at x_c; opaque barriers do not overflow.
        """
        n = len(self.barrier.segments)
        j = np.arange((n + 1) // 2)
        w = np.diff(self.barrier.edges)[j, None]
        q, osc, evan = self.wn[j], self.kind[j] == "osc", self.kind[j] == "evan"
        u = np.where((2 * j == n - 1)[:, None], w / 2, w) + 0 * q  # piece lengths, per k
        cp, cm, ph = self.c_plus[n - 1 - j], self.c_minus[n - 1 - j], np.exp(1j * q * w)
        f = np.array([self.c_plus[j], self.c_minus[j]])
        g = np.array([np.where(osc, cm / ph, np.where(evan, cm, cp + cm * w)),
                      np.where(osc, cp * ph, np.where(evan, cp, -cm))])
        # B[a, b] = int phi_a phi_b and C[a, b] = int conj(phi_a) phi_b on [0, u]
        qs = np.where(osc | evan, q, 1.0)
        E = np.exp(1j * q * u) * np.sin(q * u) / qs  # int exp(2iqu)
        F = -np.expm1(-2 * q * u) / (2 * qs)         # int exp(-2 kappa u)
        B12 = np.where(osc, u, np.where(evan, np.exp(-q * w) * u, u**2 / 2))
        B = np.array([[np.where(osc, E, np.where(evan, F * np.exp(-2 * q * (w - u)), u)), B12],
                      [B12, np.where(osc, np.conj(E), np.where(evan, F, u**3 / 3))]])
        C = np.where(osc, np.array([[u, np.conj(E)], [E, u]]), B)

        def form(M, a, b):
            return np.einsum("ajk,abjk,bjk->k", a, M, b)

        I = InteriorIntegrals(
            left=form(C, f.conj(), f).real, right=form(C, g.conj(), g).real,
            cross=form(C, f.conj(), g), odd=form(C, (f - g).conj(), f - g).real,
            square=form(B, f, f) + form(B, g, g), mirror=2 * form(B, f, g),
        )
        for a in I:
            a.setflags(write=False)
        return I

    def traversal_time(self) -> np.ndarray:
        """d arg(A_T) / dE + (b - a) / k per k by Winful's split (Phys. Rev.
        Lett. 91, 260401 (2003)): int_a^b |Psi|^2 dx / k - Im(A_R e^-2ika) / k^2."""
        I, ks = self.interior_integrals(), self.ks
        return ((I.left + I.right) / ks
                - (self.A_R * np.exp(-2j * ks * self.barrier.a)).imag / ks**2)


def _expi(x, q, out=None):
    """exp(i x q) as an x-by-q outer product, written into out."""
    if out is None:
        out = np.empty((len(x), len(q)), dtype=complex)
    np.multiply.outer(x, q, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


class _Sweep(NamedTuple):
    """The scaled backward sweep over columns (heights, k), the last axis of
    every array; per-edge arrays have shape (segments + 1, columns), edge j
    the left edge of segment j."""

    ks: np.ndarray
    is_osc: np.ndarray   # (segments, columns)
    is_evan: np.ndarray
    wn: np.ndarray
    u: np.ndarray        # (psi, psi') / exp(S) at every edge
    v: np.ndarray
    S: np.ndarray        # log-scale grown from b down to each edge
    P0: np.ndarray       # incident amplitude at a, in the frame exp(S[0])
    A_T: np.ndarray
    A_R: np.ndarray


def _sweep(barrier: BarrierSpec, heights, ks) -> _Sweep:
    """One scaled backward transfer sweep from b to a over every column.

    heights is (segments, columns) or (segments, 1), ks is (columns,): a
    column is one k on one set of heights over the barrier's edges.  The
    transfer coefficients of every segment are computed at once; the loop
    over segments carries only (u, v), and S is the running sum of the
    under-barrier growth.
    """
    edges = barrier.edges
    w = np.diff(edges)[:, None]
    V = np.asarray(heights, dtype=float)
    E = ks * ks / 2
    D = ks * ks - 2 * V
    deg = np.abs(E - V) < _DEG_TOL * np.maximum(1.0, np.abs(V))
    osc = ~deg & (D > 0)
    evan = ~deg & ~osc
    q = np.where(deg, 0.0, np.sqrt(np.abs(D)))
    qs = np.where(deg, 1.0, q)  # divisor that is safe on every column
    c, s = np.cos(q * w), np.sin(q * w)
    e2 = np.exp(-2 * q * w)
    ch, sh = (1 + e2) / 2, (1 - e2) / 2
    m11 = np.where(osc, c, np.where(evan, ch, 1.0))
    m12 = np.where(osc, -s / qs, np.where(evan, -sh / qs, -w))
    m21 = np.where(osc, q * s, np.where(evan, -q * sh, 0.0))

    # backward sweep, tracking scaled (u, v) ~ (psi, psi') / exp(S)
    nseg = len(w)
    u, v = (np.empty((nseg + 1, len(ks)), dtype=complex) for _ in range(2))
    u[-1] = np.exp(1j * ks * barrier.b)
    v[-1] = 1j * ks * u[-1]
    for j in range(nseg - 1, -1, -1):
        u[j] = m11[j] * u[j + 1] + m12[j] * v[j + 1]
        v[j] = m21[j] * u[j + 1] + m11[j] * v[j + 1]
    S = np.zeros((nseg + 1, len(ks)))
    S[-2::-1] = np.cumsum(np.where(evan, q * w, 0.0)[::-1], axis=0)

    # match to exp(ikx) + A_R exp(-ikx) at a; the transmitted normalization is
    # A_T = exp(-S) / P0 for P0 computed in the scaled frame
    P0 = 0.5 * (u[0] + v[0] / (1j * ks)) * np.exp(-1j * ks * barrier.a)
    Q0 = 0.5 * (u[0] - v[0] / (1j * ks)) * np.exp(1j * ks * barrier.a)
    return _Sweep(ks, osc, evan, q, u, v, S, P0, np.exp(-S[0]) / P0, Q0 / P0)


def _family(barrier: BarrierSpec, sw: _Sweep) -> SolutionFamily:
    """The family of the sweep, whose heights are barrier's; refused
    (ToleranceError) unless every k passes the unitarity check."""
    ks, is_osc, is_evan, wn, u, v, S, P0, A_T, A_R = sw
    # growing parts are anchored at the right edge (frame S_R), everything
    # else at the left edge (frame S_L); all normalized exponents are <= 0
    uL, vL, uR, vR = u[:-1], v[:-1], u[1:], v[1:]
    fL = np.exp(S[:-1] - S[0]) / P0
    fR = np.exp(S[1:] - S[0]) / P0
    qs = np.where(is_osc | is_evan, wn, 1.0)
    c_plus = np.where(is_osc, 0.5 * (uL + vL / (1j * qs)) * fL,
                      np.where(is_evan, 0.5 * (uR + vR / qs) * fR, uL * fL))
    c_minus = np.where(is_osc, 0.5 * (uL - vL / (1j * qs)) * fL,
                       np.where(is_evan, 0.5 * (uL - vL / qs) * fL, vL * fL))

    degenerate = np.abs(A_R) ** 2 < DEGENERATE_R
    mirrored = A_T * np.exp(2j * ks * barrier.x_c)
    z, tr_in = A_R / (A_R - mirrored), -mirrored / (A_R - mirrored)
    # the smaller share as computed, the larger as 1 minus it (class docstring)
    big_z = np.abs(A_R) > np.abs(A_T)
    z, tr_in = np.where(big_z, 1 - tr_in, z), np.where(big_z, tr_in, 1 - z)
    z[degenerate] = 0.0
    tr_in[degenerate] = 1.0
    fam = SolutionFamily(
        barrier=barrier, ks=ks, A_T=A_T, A_R=A_R, z=z, A_tr_In=tr_in,
        degenerate=degenerate,
        kind=_KINDS[is_osc + 2 * is_evan], wn=wn, c_plus=c_plus, c_minus=c_minus,
    )
    bad = _nonunitary(A_T, A_R)
    if bad.any():
        # plain transfer matrices miss by as much: this is conditioning
        i, I = int(np.argmax(bad)), fam.interior_integrals()
        raise ToleranceError(
            f"unitarity violated by {fam.T[i] + fam.R[i] - 1.0:.3e} at k={ks[i]}: a narrow "
            f"resonance there (dwell time {(I.left[i] + I.right[i]) / ks[i]:.3g}) leaves the "
            "transfer sweep ill-conditioned beyond the 1e-10 gate; move k off it")
    return fam


def _nonunitary(A_T, A_R) -> np.ndarray:
    return ~(np.abs(np.abs(A_T) ** 2 + np.abs(A_R) ** 2 - 1.0) <= _UNITARITY_TOL)


def solve_family(barrier: BarrierSpec, ks) -> SolutionFamily:
    """Solve for the full stationary states at every k in ks (left incidence).

    One scaled backward transfer sweep runs over the whole grid; every k must
    pass the unitarity check |T + R - 1| <= 1e-10.  The amplitudes match plain
    transfer matrices to 1e-12 in the tests (see the module docstring).
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if ks.ndim != 1 or len(ks) == 0:
        raise DomainError("k grid must be a non-empty one-dimensional array")
    ok = np.isfinite(ks) & (ks > 0)
    if not ok.all():
        raise DomainError(
            f"wavenumbers must be positive finite numbers, got {ks[~ok][0]!r}"
        )
    return _family(barrier, _sweep(barrier, barrier.heights[:, None], ks))


def _shifted_amplitudes(barrier: BarrierSpec, ks, shifts):
    """(A_T, A_R), each (len(shifts), len(ks)): the amplitudes of the barrier
    with every height shifted by each of shifts, from one sweep over the
    stacked columns, for a k grid solve_family accepts.  Each row equals
    solve_family(shifted(barrier, dV), ks)'s bit for bit, and a row that
    fails the unitarity check is refused as solve_family refuses it.
    """
    ks, shifts = np.asarray(ks, dtype=float), np.asarray(shifts, dtype=float)
    nk = len(ks)
    heights = barrier.heights[:, None] + np.repeat(shifts, nk)
    sw = _sweep(barrier, heights, np.tile(ks, len(shifts)))
    bad = _nonunitary(sw.A_T, sw.A_R)
    if bad.any():
        # the first failing channel's own family raises its named refusal
        r = int(np.argmax(bad)) // nk
        cols = slice(r * nk, (r + 1) * nk)
        _family(shifted(barrier, float(shifts[r])), _Sweep(*(a[..., cols] for a in sw)))
    return sw.A_T.reshape(len(shifts), nk), sw.A_R.reshape(len(shifts), nk)


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
