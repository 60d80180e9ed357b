"""Stationary scattering states for piecewise-constant barriers.

For each wavenumber k > 0 (unit incidence from the left) the full scattering
state is

    psi(x) = exp(ikx) + A_R exp(-ikx)   for x <= a
    psi(x) = A_T exp(ikx)               for x >= b

and a segment of height V has one wavenumber q = sqrt(k^2 - 2V), Im q >= 0
(real above V, i kappa below, 0 on it); its interior takes one of two forms,
chosen by |q| w against 1 (`SolutionFamily`), neither cancelling at E = V.

One solver, `solve_family`, handles a whole k grid at once.  It propagates
(psi, psi') from b to a with one formula for every segment's transfer
coefficients, in phi(z) = expm1(z) / z at z = 2iqw, with no tolerance at
E = V.  Each segment's growth exp(Im q w) is factored out, so opaque
barriers (kappa * width of hundreds) never overflow.  Everything is
elementwise over k, so the spin clock's channels are extra columns of the
same sweep, with their own heights (`_shifted_amplitudes`).

The tests check the amplitudes against plain 2x2 transfer matrices
(tests/analytic.py) to 1e-12 on random barriers with wells, 1e-13 at k
planted within 1e-6 of each height, and the interior integrals against
quadrature to 1e-12, up to kappa * width = 400.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ToleranceError
from .potentials import BarrierSpec, shifted

_UNITARITY_TOL = 1e-10

# R_coef below this is treated as an exact resonance: Psi_ref identically zero
DEGENERATE_R = 1e-12

# segments take the exponential pair above this |q| w, the local form below,
# whose Taylor coefficients are 1 / n!
_PAIR_QW = 1.0
_INV_FACT = np.array([1 / math.factorial(n) for n in range(30)])
_SERIES_TERMS = 14  # terms of `_series`, m <= 3: its last coefficient is 1 / 29!


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

    Per-segment arrays q, c1, c2 have shape (segments, k).  On segment j of
    width w, with d = x - x_j, the interior takes one of two forms:

      |q| w > 1, the pair:  c1 exp(iqd) + c2 exp(iq(w - d))
      |q| w <= 1, local:    c1 cos(qd) + c2 sin(qd) / q  (c1, c2 = psi, psi' at x_j)

    Neither cancels near E = V: the pair's factors are at most 1 in modulus,
    and the local form is entire in q^2.  The mirror image Psi(2 x_c - x) on
    segment j is the mirror segment's pair with c1 and c2 swapped, or its
    local form read back from that segment's right edge.

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
    q: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

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
            d, blk = xs[cut[j] : cut[j + 1]] - edges[j], out[cut[j] : cut[j + 1]]
            q, c1, c2, w = self.q[j], self.c1[j], self.c2[j], edges[j + 1] - edges[j]
            # q is real or imaginary, so the pair's exponentials are unimodular
            # or real: runs in k of one of these or of the local form
            pair = np.abs(q) * w > _PAIR_QW
            unit = pair & (q.imag == 0)
            runs = np.flatnonzero((pair[1:] != pair[:-1]) | (unit[1:] != unit[:-1])) + 1
            for m in map(slice, [0, *runs], [*runs, len(pair)]):
                if unit[m.start]:  # exp(iq(w - d)) = exp(iqw) conj(exp(iqd))
                    e = _expi(d, q[m].real, blk[:, m])
                    blk[:, m] = c1[m] * e + c2[m] * np.exp(1j * w * q[m].real) * np.conj(e)
                elif pair[m.start]:
                    kap = q[m].imag
                    blk[:, m] = (c1[m] * np.exp(-np.multiply.outer(d, kap))
                                 + c2[m] * np.exp(np.multiply.outer(d - w, kap)))
                else:  # |qd| <= 1: 10 Taylor terms, one product of row by column powers
                    P = np.vander(-(d / w) ** 2, 10, increasing=True)
                    Y = np.vander((q[m] * q[m]).real * w * w, 10, increasing=True).T
                    blk[:, m] = (P @ (_INV_FACT[0:20:2, None] * Y * c1[m])
                                 + d[:, None] * (P @ (_INV_FACT[1:20:2, None] * Y * c2[m])))
        return out

    def split_basis(self, xs):
        """(tr, ref): x-by-k masked sub-state matrices on the ascending grid xs:
        for x <= x_c ref = z [Psi(x) - Psi(2 x_c - x)] and tr = A_tr_In Psi(x)
        + z Psi(2 x_c - x) (`_mirrored`), beyond ref = 0 and tr = Psi."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        tr = self.basis(xs)
        mirror = _mirrored(self.barrier, xs, tr, self.basis) * self.z
        n, ref = len(mirror), np.zeros_like(tr)
        ref[:n] = tr[:n] * self.z - mirror
        tr[:n] = tr[:n] * self.A_tr_In + mirror
        return tr, ref

    def interior_integrals(self) -> InteriorIntegrals:
        """Per-k integrals of the full state over the barrier, in closed form,
        computed once per family (read-only arrays)."""
        return self._interior

    @functools.cached_property
    def _interior(self) -> InteriorIntegrals:
        """The closed forms behind `interior_integrals`: Psi and its mirror
        image as coefficients of each segment's two functions (class
        docstring) on the pieces [0, L] of [a, x_c], an odd count's middle
        segment cut at x_c.  The pair's integrals are a phase times L phi(z),
        Re z <= 0; the local form's are Taylor series in (2qL)^2 <= 4."""
        n = len(self.barrier.segments)
        j = np.arange((n + 1) // 2)
        q, m, w = self.q[j], n - 1 - j, np.diff(self.barrier.edges)[j, None]
        L = w / (1 + (2 * j == n - 1))[:, None]  # piece lengths
        pair, q2 = np.abs(q) * w > _PAIR_QW, (q * q).real
        # the mirror image: the pair swapped, or the local form from the right edge
        y = np.where(pair, 0.0, q2 * w * w)
        cw, sw = _series(y, 0), w * _series(y, 1)
        f = np.array([self.c1[j], self.c2[j]])
        g = np.array([np.where(pair, self.c2[m], self.c1[m] * cw + self.c2[m] * sw),
                      np.where(pair, self.c1[m], q2 * sw * self.c1[m] - cw * self.c2[m])])
        # B[a, b] = int f_a f_b and C[a, b] = int conj(f_a) f_b on [0, L]
        X = np.where(pair, 0.0, 4 * q2 * L * L)
        cs = L * L * _series(X, 2)
        local = np.array([[L / 2 * (1 + _series(X, 1)), cs], [cs, 2 * L**3 * _series(X, 3)]])
        ph, p, pc = np.exp(1j * q * w), L * _phi(2j * q * L), L * _phi(-2 * q.imag * L)
        c12 = ph * L * _phi(-2j * q.real * L)
        B = np.where(pair, [[p, L * ph], [L * ph, np.exp(2j * q * (w - L)) * p]], local)
        C = np.where(pair, [[pc, c12], [np.conj(c12), np.exp(-2 * q.imag * (w - L)) * pc]], local)

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


def _expi(x, q, out):
    """exp(i x q) as an x-by-q outer product, written into out."""
    np.multiply.outer(x, q, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _phi(z):
    """expm1(z) / z, with phi(0) = 1."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)


def _series(x, m):
    """sum_{i < _SERIES_TERMS} (-x)^i / (2i + m)! by Horner: cos(qd) is
    _series((qd)^2, 0) and sin(qd) / q is d _series((qd)^2, 1); rounding for
    |x| <= 4."""
    out = np.full(np.shape(x), _INV_FACT[2 * _SERIES_TERMS - 2 + m])
    for i in range(_SERIES_TERMS - 2, -1, -1):
        out *= x
        np.subtract(_INV_FACT[2 * i + m], out, out=out)
    return out


def _mirrored(barrier: BarrierSpec, xs, vals, evaluate):
    """Rows at the mirror points 2 x_c - x of the nodes x <= x_c of the
    ascending grid xs, whose rows are vals: a node's row within 1e-12 (b - a)
    of the point, else evaluate(points) on the rest, ascending, once."""
    tol, m = 1e-12 * (barrier.b - barrier.a), 2 * barrier.x_c - xs[xs <= barrier.x_c]
    i = np.minimum(np.searchsorted(xs, m - tol), len(xs) - 1)  # first node from m - tol
    out, miss = vals[i], np.abs(xs[i] - m) > tol
    if miss.any():
        out[miss] = evaluate(m[miss][::-1])[::-1]
    return out


class _Sweep(NamedTuple):
    """The scaled backward sweep over columns (heights, k), the last axis of
    every array; per-edge arrays are (segments + 1, columns), from a to b."""

    ks: np.ndarray
    q: np.ndarray        # (segments, columns)
    u: np.ndarray        # (psi, psi') / exp(S) at every edge
    v: np.ndarray
    S: np.ndarray        # log-scale grown from b down to each edge
    P0: np.ndarray       # incident amplitude at a, in the frame exp(S[0])
    A_T: np.ndarray
    A_R: np.ndarray


def _sweep(barrier: BarrierSpec, heights, ks) -> _Sweep:
    """One scaled backward transfer sweep from b to a over every column.

    heights is (segments, columns) or (segments, 1), ks is (columns,).  Over
    exp(Im q w), cos(qw), sin(qw) / q and q sin(qw) are h (1 + iqw p), h w p
    and h q^2 w p for h = exp(-i Re q w) and p = phi(2iqw); as q is real or
    imaginary, with th = Re q w and tau = -2 Im q w these are real: h p =
    sinc(th) phi(tau) and h (1 + iqw p) = cos(th) + expm1(tau) / 2.
    """
    w = np.diff(barrier.edges)[:, None]
    q2 = ks * ks - 2 * np.asarray(heights, dtype=float)
    q = np.sqrt(q2.astype(complex))  # the principal root: Im q >= 0
    th, tau = q.real * w, -2 * q.imag * w
    hp = np.sinc(th / np.pi) * _phi(tau)
    m11, m12, m21 = np.cos(th) + np.expm1(tau) / 2, -hp * w, hp * q2 * w

    # backward sweep, tracking scaled (u, v) ~ (psi, psi') / exp(S)
    nseg = len(w)
    u, v = (np.empty((nseg + 1, len(ks)), dtype=complex) for _ in range(2))
    u[-1] = np.exp(1j * ks * barrier.b)
    v[-1] = 1j * ks * u[-1]
    for j in range(nseg - 1, -1, -1):
        u[j] = m11[j] * u[j + 1] + m12[j] * v[j + 1]
        v[j] = m21[j] * u[j + 1] + m11[j] * v[j + 1]
    S = np.zeros((nseg + 1, len(ks)))
    S[-2::-1] = np.cumsum((q.imag * w)[::-1], axis=0)

    # match to exp(ikx) + A_R exp(-ikx) at a; the transmitted normalization is
    # A_T = exp(-S) / P0 for P0 computed in the scaled frame
    P0 = 0.5 * (u[0] + v[0] / (1j * ks)) * np.exp(-1j * ks * barrier.a)
    Q0 = 0.5 * (u[0] - v[0] / (1j * ks)) * np.exp(1j * ks * barrier.a)
    return _Sweep(ks, q, u, v, S, P0, np.exp(-S[0]) / P0, Q0 / P0)


def _family(barrier: BarrierSpec, sw: _Sweep) -> SolutionFamily:
    """The family of the sweep, whose heights are barrier's; refused
    (ToleranceError) unless every k passes the unitarity check."""
    ks, q, u, v, S, P0, A_T, A_R = sw
    # the pair's second term is anchored at the right edge (frame S_R),
    # everything else at the left edge (frame S_L); all exponents are <= 0
    fL, fR = np.exp(S[:-1] - S[0]) / P0, np.exp(S[1:] - S[0]) / P0
    pair = np.abs(q) * np.diff(barrier.edges)[:, None] > _PAIR_QW
    iq = np.where(pair, 1j * q, 1.0)  # a divisor that is safe on every column
    c1 = np.where(pair, 0.5 * (u[:-1] + v[:-1] / iq), u[:-1]) * fL
    c2 = np.where(pair, 0.5 * (u[1:] - v[1:] / iq) * fR, v[:-1] * fL)

    degenerate = np.abs(A_R) ** 2 < DEGENERATE_R
    mirrored = A_T * np.exp(2j * ks * barrier.x_c)
    z, tr_in = A_R / (A_R - mirrored), -mirrored / (A_R - mirrored)
    # the smaller share as computed, the larger as 1 minus it (class docstring)
    big_z = np.abs(A_R) > np.abs(A_T)
    z, tr_in = np.where(big_z, 1 - tr_in, z), np.where(big_z, tr_in, 1 - z)
    z[degenerate] = 0.0
    tr_in[degenerate] = 1.0
    fam = SolutionFamily(barrier, ks, A_T, A_R, z, tr_in, degenerate, q, c1, c2)
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
        raise DomainError(f"wavenumbers must be positive finite numbers, got {ks[~ok][0]!r}")
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
