"""Spectral wave packets and their sub-process components.

A packet is defined by complex spectral samples on a uniform k > 0 grid, for
the Gaussian n_k points over k0 +/- 6.5/sigma floored at 1e-3 k0:
g(k) is the Fourier transform of the initial condition and G(k) = g(k) - g(-k)
its odd-projected form, renormalized so the grid trapezoid of |G|^2 is exactly
one.  Time-dependent fields are superpositions of stationary states,

    field_c(x, t) = (2 pi)^(-1/2) * integral G(k) phi_c(x; k) exp(-i E(k) t) dk,

where phi_c is the full state or one of the masked sub-process states.  The
(2 pi)^(-1/2) prefactor pairs with the continuum normalization of the
stationary states (<phi_k|phi_k'> = 2 pi delta(k - k')) to make
<Psi_full|Psi_full> = 1 given the G normalization above.

`snapshot` is the one public route to the fields: all three on one uniform
x grid, the caller's or `auto_grid`'s, with their conservation scalars.  No
x-by-k basis is built.  Outside [a, b] each sub-state is a plane-wave pair
with the family's amplitudes, so each field there is a chirp-z transform of
the weights (`_plane_sum`); only the rows inside [a, b) use the family's
basis, with the mirror identity on fields giving the reflection field on
those left of x_c (`_split`, which also gives the full field alone at
several times in one pass: `_full_fields`, the time-domain cross-check's).
An automatic grid spans the packet's support: its free centre and its
sub-packets' fronts, each widened until the free density is four decades
under the end-density gate.  Each plane-wave sum repeats its packet with
the k grid's alias period 2 pi / dk, so a grid is refused where a copy would
reach its rows (`check_alias`), or where its end densities show it
truncates a field.

Conservation scalars: the full norm and the reflection norm R_t are constant
in t to quadrature accuracy at every instant (the reflection sub-state
vanishes at the mask point x_c, so no probability crosses it).  T_t and
Re<psi_tr|psi_ref> are constant/zero only up to a genuine transient of order
1e-3 while the packet overlaps the barrier: the masked transmission state has
a derivative kink at x_c that sources the overlap until the interior empties.
Post-event the identities hold to ~1e-9.  Use event_window/quiet_times to
sample in the regime where the sharp statements apply.  Each time scan takes
its window from the spectrum (`_event_spans`), its step from the energy band
(`_density_scan`).  A k grid too coarse for the window or for a snapshot grid
is refused by name with the n_k it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DomainError, GridRefinementError, ToleranceError, WindowError,
)
from .potentials import BarrierSpec
from .stationary import SolutionFamily, _mirrored, solve_family

_TWO_PI = 2 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - _TWO_PI: the pair holds 2 pi to 1e-32

# default spectral grid: 2048 points over k0 +/- 6.5/sigma (6.5 keeps the
# Gaussian cutoff tails under the 1e-8 relative bound; 6.0 would leave 1.5e-8)
DEFAULT_NK = 2048
DEFAULT_HALF_WIDTH = 6.5

# the default k grid's lower edge is clamped to this fraction of k0 (k > 0)
_K_FLOOR_FRAC = 1e-3

_TAIL_REL = 1e-8
_NEG_K_FRACTION = 1e-10

_EDGE_DENSITY = 1e-10  # snapshot grids must suppress end densities below this
_CONSERVATION_TOL = 1e-6  # strict snapshots hold the conservation identities to this
_SIGNIFICANT = 1e-10   # a k counts in a time scan above this share of the peak
_BAND_OVERSAMPLE = 2.0  # time scans sample the packet's energy band at twice its rate
_SCAN_BLOCK = 128       # time nodes per GEMM of a scan at most: bounds its phase matrix

# rows per chirp-z block (and per block of interior basis rows); each chirp-z
# block is re-anchored at its first node to bound its rounding
_X_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class SpectralPacket:
    ks: np.ndarray
    g: np.ndarray
    G: np.ndarray
    x0: float
    sigma: float
    k0: float
    warnings: tuple[str, ...] = ()

    @property
    def dk(self) -> float:
        return float(self.ks[1] - self.ks[0])

    @property
    def spectral_weight(self) -> np.ndarray:
        """|G|^2 trap dk per k: the grid trapezoid weights of the density."""
        return np.abs(self.G) ** 2 * _trap_w(len(self.ks)) * self.dk

    @property
    def norm_G(self) -> float:
        """Grid trapezoid of |G|^2 (1 by construction)."""
        return float(np.sum(self.spectral_weight))


def _trap_w(n):
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _gauss_g(ks, x0, sigma, k0):
    pref = (sigma**2 / math.pi) ** 0.25
    return pref * np.exp(-(sigma**2) * (ks - k0) ** 2 / 2) * np.exp(-1j * ks * x0)


def make_gaussian_packet(
    x0: float,
    sigma: float,
    k0: float,
    barrier: BarrierSpec | None = None,
    n: int = DEFAULT_NK,
) -> SpectralPacket:
    """Gaussian packet centered at x0 with spatial width sigma, mean momentum k0.

    Far-start preconditions: x0 + 5 sigma < a (when a barrier is given) and
    k0 >= 5/sigma, i.e. negligible initial barrier overlap and negligible
    negative-momentum content.  The k grid is n uniform points over
    k0 +/- 6.5/sigma; where that would start below 1e-3 k0 it is clamped to
    that floor and the packet carries a "k_grid_clamped" warning (and a
    "cutoff_tail_*" one when the cut tail exceeds 1e-8 of the peak); the
    on-grid renormalization keeps every norm identity exact regardless.  A
    packet on another grid is a SpectralPacket built directly.
    """
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0}")
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    if not 0 < k0 < math.inf:
        raise ConfigError(f"k0 must be positive and finite, got {k0}")
    if k0 - 5.0 / sigma < -1e-12 * k0:
        raise ConfigError(
            f"k0 = {k0} < 5/sigma = {5.0 / sigma:.6g}: the spectrum straddles "
            "k = 0 and the packet is not a clean rightward scattering state"
        )
    if barrier is not None and x0 + 5 * sigma > barrier.a + 1e-12:
        raise ConfigError(
            f"packet must start well left of the barrier: need x0 + 5 sigma <= a, "
            f"got x0={x0}, sigma={sigma}, a={barrier.a}"
        )

    h = DEFAULT_HALF_WIDTH / sigma
    k_lo, k_hi = max(k0 - h, _K_FLOOR_FRAC * k0), k0 + h
    if n < 16:
        raise DomainError("k grid needs at least 16 points")
    if not k_hi > k_lo:
        raise DomainError(f"the k grid k0 +/- {DEFAULT_HALF_WIDTH}/sigma collapses to k0 = {k0}")
    ks = np.linspace(k_lo, k_hi, n)
    g = _gauss_g(ks, x0, sigma, k0)
    G = g - _gauss_g(-ks, x0, sigma, k0)

    # only a clamped grid can cut the tail above _TAIL_REL: the symmetric one
    # ends at exp(-6.5^2 / 2) = 6.7e-10 of the peak
    warnings = []
    if k_lo > k0 - h:
        warnings.append("k_grid_clamped")
        tail = max(abs(g[0]), abs(g[-1])) / float(np.max(np.abs(g)))
        if tail > _TAIL_REL:
            warnings.append(f"cutoff_tail_{tail:.1e}")
    # fraction of |g|^2 mass at k <= 0, analytic for the Gaussian
    neg_fraction = 0.5 * math.erfc(k0 * sigma)
    if neg_fraction > _NEG_K_FRACTION:
        raise ConfigError(
            f"negative-momentum fraction {neg_fraction:.2e} exceeds {_NEG_K_FRACTION}"
        )

    nrm = math.sqrt(float(np.sum(np.abs(G) ** 2 * _trap_w(n)) * ((k_hi - k_lo) / (n - 1))))
    G = G / nrm
    for arr in (ks, g, G):
        arr.setflags(write=False)
    return SpectralPacket(
        ks=ks, g=g, G=G, x0=float(x0), sigma=float(sigma), k0=float(k0),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True, eq=False)
class PacketSnapshot:
    t: float
    x_grid: np.ndarray
    psi_full: np.ndarray
    psi_tr: np.ndarray
    psi_ref: np.ndarray
    norm_full: float
    T_t: float
    R_t: float
    overlap_re: float
    overlap_im: float
    alias_span: float  # the widest span `check_alias` judged


def _coef(packet):
    """Trapezoid weights of the field integral: G dk / sqrt(2 pi) per k."""
    return packet.G * _trap_w(len(packet.ks)) * packet.dk / math.sqrt(_TWO_PI)


def _weights(packet, t):
    """Spectral weights at the time t."""
    return _coef(packet) * np.exp(-1j * _phase(packet.ks, t))


def _two_prod(a, b):
    """(p, e) with p = a b rounded and a b = p + e exactly, from Veltkamp's
    halves (Dekker, Numer. Math. 18, 224 (1971))."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _phase(ks, t, n=1):
    """E t n mod 2 pi per k, E = k^2 / 2, for times t and integers n (arrays
    of them broadcast together in front of the k axis), within a few ulp of
    pi.  k^2, E t and E t n are exact two-products and their sum is reduced
    once against 2 pi to 1e-32: a double product E t alone rounds by 1e-12
    rad at 1e4 rad."""
    t, n = (np.asarray(v, dtype=float)[..., None] for v in (t, n))
    e, de = _two_prod(ks, ks)
    p, dp = _two_prod(0.5 * e, t)
    dp = dp + 0.5 * de * t
    p, dq = _two_prod(p, n)
    r = np.rint(p / _TWO_PI)
    u, du = _two_prod(r, _TWO_PI)
    return ((p - u) - du) + (dq + dp * n - r * _TWO_PI_LO)


def _density_scan(M, packet, wx, t_lo, t_hi):
    """(dt, s): s_j = sum_x wx |M @ w(t_j)|^2 at t_j = t_lo + j dt, j = 0 ..
    m - 1, m odd and t_(m-1) = t_hi; wx weighs the rows of the x-by-k basis
    M, or each row of a matrix wx does (one sum each).

    On the k grid the density is a finite sum of exp(-i (E_k - E_k') t),
    band-limited to Omega = (k_hi^2 - k_lo^2) / 2, so the trapezoid rule at a
    step h < 2 pi / Omega is exact up to the window's tails (Trefethen and
    Weideman, SIAM Rev. 56, 385 (2014)).  h is 2 pi / (_BAND_OVERSAMPLE
    Omega), shrunk to fit the window, and dt = h / 2: the even and the odd
    nodes are each a grid of step h.  With j = B^2 P + B p + q, B =
    isqrt(_SCAN_BLOCK), exp(-i E t_j) is a row at t_lo + B^2 P dt times a
    mid-block phase at B p dt (weights folded in) times an in-block phase at
    q dt: two tables per scan and, per GEMM, one row, a time-major phase
    matrix at a complex multiply per entry, and one GEMM.  The rows and the
    step's phase E dt are reduced exactly (`_phase`, B^2 rows at a time), so
    no time node t_lo + j dt is rounded; the tables are powers of
    exp(-i E dt), within about B^2 ulp of their phases whatever E t.
    """
    ks, E, B = packet.ks, 0.5 * packet.ks**2, math.isqrt(_SCAN_BLOCK)
    n = math.ceil((t_hi - t_lo) * _BAND_OVERSAMPLE * (E[-1] - E[0]) / _TWO_PI) + 1
    m, dt = 2 * n - 1, (t_hi - t_lo) / (2 * n - 2)
    lo, step = _phase(ks, np.array([t_lo, dt]))

    def powers(first, z):  # first * z^p for p = 0 .. B - 1, C-ordered as W needs
        zs = np.tile(z, (B, 1))
        zs[0] = first
        return np.cumprod(zs, axis=0)

    inb = powers(np.ones(len(ks)), np.exp(-1j * step))
    mid = powers(_coef(packet), inb[-1] * np.exp(-1j * step))
    s = np.empty(np.shape(wx)[:-1] + (m,))
    for j in range(0, m, B * B):
        if j % B**4 == 0:
            rows = np.exp(-1j * (lo + _phase(ks, dt, np.arange(j, min(j + B**4, m), B * B))))
        blk = rows[j // (B * B) % (B * B)] * mid[:-(-(m - j) // B)]
        W = (blk[:, None, :] * inb[None, :, :]).reshape(-1, len(E))
        s[..., j:j + B * B] = (wx @ np.abs(M @ W.T) ** 2)[..., :m - j]
    return dt, s


def _uniform_grid(xs) -> np.ndarray:
    """xs as a float array, refused unless it is ascending with uniform steps
    and every node within 1e-9 dx of x0 + n dx, dx = (x_last - x0) / (n - 1),
    where the chirp-z evaluates (uniform steps alone let the drift grow)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise DomainError("position grid must be one-dimensional")
    if len(xs) < 2:
        return xs
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    dev = np.max(np.abs(xs - (xs[0] + dx * np.arange(len(xs)))))
    if not (dx > 0 and np.ptp(np.diff(xs)) <= 1e-9 * dx and dev <= 1e-9 * dx):
        raise DomainError("position grid must be uniform and ascending")
    return xs


def _split(fam: SolutionFamily, W, xs, ref: bool = True):
    """(psi_full, psi_ref) on the uniform grid xs, a column for each column
    of the weights W (n_k by m); psi_ref is None unless ref.  Left of a
    psi_full = sum w (e^{ikx} + A_R e^{-ikx}) and psi_ref = sum w (z e^{ikx}
    + A_R e^{-ikx}) over the non-degenerate k; from b on psi_ref = 0.  On
    the rows in [a, x_c] psi_ref is the mirror identity F(x) - F(2 x_c - x),
    F the field of weights w z (`_mirrored`)."""
    bar, m = fam.barrier, W.shape[1]
    i_a, i_b = np.searchsorted(xs, [bar.a, bar.b])
    Wz, cR = W * fam.z[:, None], np.conj(W * fam.A_R[:, None])
    # Psi_ref = 0 at an exact resonance (z = 0), so its A_R e^{-ikx} is psi_tr's
    cols = [W, cR] + ([Wz, np.where(fam.degenerate[:, None], 0, cR)] if ref else [])
    P = _plane_sum(np.concatenate(cols, axis=1), fam.ks, xs[:i_a])

    def fields(x, V):  # fam.basis(x) @ V in blocks of _X_CHUNK rows
        return np.concatenate([fam.basis(x[i:i + _X_CHUNK]) @ V
                               for i in range(0, max(len(x), 1), _X_CHUNK)])

    full = np.empty((len(xs), m), dtype=complex)
    full[:i_a] = P[:, :m] + np.conj(P[:, m:2 * m])
    F = fields(xs[i_a:i_b], np.concatenate([W, Wz], axis=1) if ref else W)
    full[i_a:i_b] = F[:, :m]
    full[i_b:] = _plane_sum(W * fam.A_T[:, None], fam.ks, xs[i_b:])
    if not ref:
        return full, None
    i_c = int(np.searchsorted(xs, bar.x_c, side="right"))
    psi_ref = np.zeros_like(full)
    psi_ref[:i_a] = P[:, 2 * m:3 * m] + np.conj(P[:, 3 * m:])
    psi_ref[i_a:i_c] = F[:i_c - i_a, m:] - _mirrored(bar, xs[i_a:i_b], F[:, m:],
                                                     lambda x: fields(x, Wz))
    return full, psi_ref


def _plane_sum(C, ks, xs):
    """sum_k C[k, :] exp(i k x) for uniform ks and a uniform ascending xs.

    A Bluestein chirp-z on numpy.fft: with x = x0 + m dx and k = k0 + j dk,
    exp(i j m dk dx) = chirp(j) chirp(m) / chirp(m - j) for
    chirp(n) = exp(i dk dx n^2 / 2), so each column is one FFT convolution.
    Rows go in blocks of _X_CHUNK, each re-anchored at its first node, which
    keeps the rounding of the n^2 dk dx chirp phase small.
    """
    nk, n = len(ks), len(xs)
    dx = (xs[-1] - xs[0]) / (n - 1) if n > 1 else 0.0
    m = min(n, _X_CHUNK)
    L = _fft_len(nk + m - 1)
    half = 0.5 * dx * (ks[-1] - ks[0]) / (nk - 1)
    s = np.arange(L, dtype=float)
    s[m:] -= L  # circular lags m - j in [-(nk - 1), m - 1]
    kernel = np.fft.fft(np.exp(-1j * half * s**2))[:, None]
    pre = C * np.exp(1j * half * np.arange(nk, dtype=float) ** 2)[:, None]
    mm = np.arange(m, dtype=float)
    post = np.exp(1j * (ks[0] * dx * mm + half * mm**2))[:, None]
    out = np.empty((n, C.shape[1]), dtype=complex)
    for i0 in range(0, n, _X_CHUNK):
        b = min(m, n - i0)
        A = np.fft.fft(pre * np.exp(1j * ks * xs[i0])[:, None], n=L, axis=0)
        out[i0 : i0 + b] = np.fft.ifft(A * kernel, axis=0)[:b] * post[:b]
    return out


def _fft_len(n):
    """The least 2^a 3^b 5^c >= n: a length numpy.fft transforms at full speed."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def auto_grid(packet: SpectralPacket, barrier: BarrierSpec, times,
              dx: float = 0.02) -> np.ndarray:
    """Uniform grid x_c + dx * (-n_lo .. n_hi) covering the packet at each of
    the times: on each side the most nodes any one time needs.

    At t the free packet is centred at c = x0 + k0 t with width sigma_t =
    sigma sqrt(1 + (t / sigma^2)^2).  The grid spans its support: from the
    reflected front 2 a - c - (b - a) - D sigma_t, or the free tail c - D
    sigma_t if that lies further left, to the transmitted front c + (b - a)
    + D sigma_t, where (b - a) bounds a sub-packet's advance and the free
    density at D sigma_t from c is exp(-D^2) = 1e-4 of the 1e-10
    end-density gate.  Uniformity matters: trapezoid norms on
    piecewise-stitched grids pick up spurious boundary terms at spacing
    jumps.  The grid is anchored so the mask point x_c falls exactly on a
    node of its lattice (the densities kink there).
    """
    if not 0 < dx < math.inf:
        raise DomainError(f"dx must be positive and finite, got {dx}")
    x_c, a, b = barrier.x_c, barrier.a, barrier.b
    ends = [(min(2 * a - c - (b - a) - d, c - d), c + (b - a) + d)
            for c, d in (_support(packet, t) for t in times)]
    return x_c + dx * np.arange(-max(math.ceil((x_c - lo) / dx) for lo, _ in ends),
                                max(math.ceil((hi - x_c) / dx) for _, hi in ends) + 1)


# D of `auto_grid`: exp(-D^2) = 1e-4 _EDGE_DENSITY, so D is about 5.68
_SUPPORT_D = math.sqrt(math.log(1e4 / _EDGE_DENSITY))


def _support(packet, t):
    """(c, D sigma_t): the free packet's centre x0 + k0 t at the time t and
    the half-width of its support (`auto_grid`)."""
    spread = math.sqrt(1 + (t / packet.sigma**2) ** 2)  # sigma_t / sigma
    return packet.x0 + packet.k0 * t, _SUPPORT_D * packet.sigma * spread


def snapshot(packet: SpectralPacket, barrier: BarrierSpec, t: float,
             xs=None, dx: float = 0.02, fam: SolutionFamily | None = None,
             strict: bool = False) -> PacketSnapshot:
    """All three fields plus conservation scalars at one time.

    The grid is xs, or `auto_grid`'s at dx when xs is None, refused where a
    copy of a packet one alias period away reaches its rows (`check_alias`)
    and (WindowError) unless all three fields' end densities are at most
    1e-10.  strict=True also holds the conservation identities
    (`snapshot_residuals`) to 1e-6, or raises ToleranceError; they are
    transiently violated at the 1e-3 level while the packet crosses the
    barrier (see the module docstring), so strict mode is meant for
    quiet-time samples.  fam is the packet's family over barrier, solved
    here when not given.
    """
    xs = auto_grid(packet, barrier, (t,), dx) if xs is None else _uniform_grid(xs)
    if len(xs) < 2:
        raise DomainError("snapshot grid needs at least 2 points")
    fam = fam or solve_family(barrier, packet.ks)
    snap = _snapshot_on(xs, fam, _weights(packet, t), t, check_alias(packet, fam, xs, t))
    _check_ends(xs, t, snap.psi_full, snap.psi_tr, snap.psi_ref)
    if strict:
        bad = {k: v for k, v in snapshot_residuals(snap).items()
               if not abs(v) <= _CONSERVATION_TOL}
        if bad:
            raise ToleranceError(f"conservation identities out of tolerance: {bad}")
    return snap


def _full_fields(packet: SpectralPacket, fam: SolutionFamily, times, xs):
    """psi_full on the grid xs at each of the times, one column each, from
    one synthesis (`_split` without psi_ref), its ends held as a snapshot's."""
    full = _split(fam, np.stack([_weights(packet, t) for t in times], axis=1), xs, ref=False)[0]
    for t, col in zip(times, full.T):
        _check_ends(xs, t, col)
    return full


def _check_ends(xs, t, *fields):
    """WindowError unless every field's density at both ends of xs is at most 1e-10."""
    edge = float(np.max(np.abs([f[[0, -1]] for f in fields]))) ** 2
    if not edge <= _EDGE_DENSITY:
        raise WindowError(f"snapshot grid [{xs[0]:.6g}, {xs[-1]:.6g}] truncates "
                          f"the support at t={t}: end density {edge:.2e}")


def check_alias(packet: SpectralPacket, fam: SolutionFamily, xs, t: float) -> float:
    """The widest span judged, or GridRefinementError naming the n_k needed:
    each plane-wave column `_split` sums on rows of the grid xs must span,
    with those rows, less than the alias period 2 pi / dk with which the k
    sum repeats its packet.  Left of a the columns are the incident packet w
    at c = x0 + k0 t, the reflected conj(w A_R) at 2 a - c and psi_ref's
    incident part w z at c - d arg(z)/dk; right of b the transmitted w A_T
    at c + (b - a).  Each spans D sigma_t (`auto_grid`) beyond the positions
    of its k that count (`_event_spans`' rule), a sub-packet trailing by k
    delay (`_delays`) and, behind that, ringing k delay / 2 ln(s^2 C /
    1e-10), s the k's share of the peak amplitude and C = T or R.
    """
    bar, ks, period = fam.barrier, fam.ks, _TWO_PI / packet.dk
    rel, delay = _delays(packet, fam)
    c, d = _support(packet, t)
    amp = np.abs(packet.G) * _trap_w(len(ks))
    ring = [ks * np.maximum(delay, 0.0) / 2 * np.log(np.maximum(
        (amp / amp.sum()) ** 2 * C / _EDGE_DENSITY, 1.0)) for C in (fam.T, fam.R)]
    # arg z = atan(v / T) up to steps of pi where R = 0, v = Im(A_R e^{-2ik x_c} A_T*)
    v = (fam.A_R * np.exp(-2j * ks * bar.x_c) * np.conj(fam.A_T)).imag
    left, right = np.split(xs, np.searchsorted(xs, [bar.a, bar.b]))[::2]
    on = rel >= _SIGNIFICANT
    columns = {  # rows, each k's position, its extent below and above it, the k that count
        "incident": (left, np.full_like(ks, c), 0, 0, ks > 0),
        "reflected": (left, 2 * bar.a - c + ks * delay, 0, ring[1], on[1]),
        "reflection's incident": (left, c - np.gradient(np.arctan2(v, fam.T), ks), 0, 0, on[1]),
        "transmitted": (right, c + bar.b - bar.a - ks * delay, ring[0], 0, on[0]),
    }
    spans = {n: max(np.max((x + d + hi)[m]), rows[-1]) - min(np.min((x - d - lo)[m]), rows[0])
             for n, (rows, x, lo, hi, m) in columns.items() if len(rows) and m.any()}
    span, name = max(((float(s), n) for n, s in spans.items()), default=(0.0, ""))
    if not span < period:
        raise _refine(packet, span / period, f"the {name} packet and its rows at t={t} span "
                      f"{span:.4g}, at least the k grid's alias period 2 pi/dk = {period:.4g}")
    return span


def _snapshot_on(xs, fam, w, t, alias_span):
    full, ref = (f[:, 0] for f in _split(fam, w[:, None], xs))
    tr = full - ref
    tw = _trap_w(len(xs)) * float(xs[1] - xs[0])
    norm_full = float(np.sum(np.abs(full) ** 2 * tw))
    R_t = float(np.sum(np.abs(ref) ** 2 * tw))
    ov = complex(np.sum(np.conj(tr) * ref * tw))
    return PacketSnapshot(
        t=float(t), x_grid=xs, psi_full=full, psi_tr=tr, psi_ref=ref,
        norm_full=norm_full, T_t=norm_full - R_t - 2 * ov.real, R_t=R_t,
        overlap_re=ov.real, overlap_im=ov.imag, alias_span=alias_span,
    )


def snapshot_residuals(snap: PacketSnapshot) -> dict:
    return {
        "norm_minus_1": snap.norm_full - 1.0,
        "T_plus_R_minus_1": snap.T_t + snap.R_t - 1.0,
        "overlap_re": snap.overlap_re,
    }


def _event_spans(packet: SpectralPacket, fam: SolutionFamily):
    """(t_lo, t_hi, recurrence): the window every time scan of the passage
    integrates over, from the spectrum once, and the time 2 pi / (k dk) at
    the fastest counting k after which the k sum repeats the passage.

    A k counts when its share of the passage (`_delays`) is 1e-10 of the
    largest or more.  The window is the free flight to within 1 of the
    barrier at the fastest and slowest counting k, 6.5 sigma / k0 for the
    Gaussian tails, and tau / 2 ln(w / 1e-10) at each end for a k of share
    w and delay tau: its Wigner lifetime tau / 2 (Phys. Rev. 98, 145 (1955))
    sets a decay and a sub-process precursor.  Refused (GridRefinementError,
    naming the resonance and the n_k needed) when A_T's phase steps by pi/2
    or more between k that count in T, or the window reaches the recurrence
    time.
    """
    ks, bar, (rel, delay) = fam.ks, fam.barrier, _delays(packet, fam)
    sig, delay = rel >= _SIGNIFICANT, np.maximum(delay, 0.0)
    decay = delay / 2 * np.log(np.maximum(rel.max(axis=0) / _SIGNIFICANT, 1.0))
    # T > 0 wherever it counts, so there A_T is a normal number, its phase sharp
    step = np.abs(np.angle(fam.A_T[1:] * np.conj(fam.A_T[:-1]))) * (sig[0, 1:] & sig[0, :-1])
    i = int(np.argmax(step))
    if step[i] >= math.pi / 2:
        k = (ks[i] + ks[i + 1]) / 2
        # Breit-Wigner, T = 1 / (1 + x^2) with x = 2 (E - E_r) / width: the
        # neighbours lie |x_i| + |x_i+1| half-widths apart, and at tan(pi/8)
        # widths apart A_T's phase steps by at most pi/4 across the peak
        x = np.sqrt(np.maximum(1.0 / fam.T[i:i + 2] - 1.0, 0.0)).sum()
        width = (ks[i + 1] ** 2 - ks[i] ** 2) / x
        raise _refine(packet, max(step[i] / (math.pi / 4), x / (2 * math.tan(math.pi / 8))), (
            f"unresolved resonance near k={k:.6g}: A_T's phase steps by {step[i]:.3g} rad "
            f"(>= pi/2) between neighbouring k, so its delay of at least "
            f"{step[i] / (k * packet.dk):.4g} (Breit-Wigner width {width:.3g}) is not resolved"))
    k_lo, k_hi = ks[sig.any(axis=0)][[0, -1]]
    tail = DEFAULT_HALF_WIDTH * packet.sigma / packet.k0 + decay.max()
    t_lo = (bar.a - 1.0 - packet.x0) / k_hi - tail
    t_hi = (bar.b + 1.0 - packet.x0) / k_lo + tail
    recurrence = _TWO_PI / (k_hi * packet.dk)
    if t_hi - t_lo >= recurrence:
        j = int(np.argmax(decay))
        raise _refine(packet, (t_hi - t_lo) / recurrence, (
            f"the event spans {t_hi - t_lo:.4g} in time (slowest k={k_lo:.4g}; longest-lived "
            f"k={ks[j]:.6g}, group delay {delay[j]:.4g}), at least the k grid's recurrence "
            f"time 2 pi/(k dk) = {recurrence:.4g} at k={k_hi:.4g}"))
    return float(t_lo), float(t_hi), float(recurrence)


def _delays(packet: SpectralPacket, fam: SolutionFamily):
    """(rel, delay) per k: its share |G|^2 C / k of the passage (a crossing
    takes ~ 1 / k) over the largest, C = T in row 0 and R in row 1, and its
    delay beyond free flight, `SolutionFamily.traversal_time` - (b - a) / k."""
    G2 = np.abs(packet.G) ** 2 / fam.ks
    rel = np.array([w / w.max() if w.max() > 0 else w for w in (G2 * fam.T, G2 * fam.R)])
    return rel, fam.traversal_time() - (fam.barrier.b - fam.barrier.a) / fam.ks


def _refine(packet, factor, why):
    """GridRefinementError for a k grid `factor` times too coarse, 10 % spared."""
    n = len(packet.ks)
    return GridRefinementError(f"{why}; needs n_k >= {math.ceil((n - 1) * factor * 1.1) + 1} "
                               f"(now {n})")


def event_window(packet: SpectralPacket, barrier: BarrierSpec):
    """(t_quiet_until, t_quiet_from): times bracketing the barrier crossing.

    Probes the full-state density on a line across the barrier on the
    band-rate grid of `_density_scan` over [0, t_hi] (`_event_spans`); quiet
    means below 1e-9 of the peak.  The conservation identities for the
    masked sub-states hold to ~1e-9 inside the returned quiet regions,
    versus O(1e-3) transients in between.
    """
    fam = solve_family(barrier, packet.ks)
    t_hi = _event_spans(packet, fam)[1]
    # a sparse line of probes across the whole barrier region: single points
    # can sit on nodes of trapped cavity modes and miss persistent density;
    # sorted and distinct without np.unique, which imports numpy.ma
    probe_x = np.sort(np.concatenate([np.linspace(barrier.a - 1.0, barrier.b + 1.0, 33),
                                      barrier.edges]))
    probe_x = probe_x[np.concatenate([[True], probe_x[1:] != probe_x[:-1]])]
    dt, s = _density_scan(fam.basis(probe_x), packet, np.ones(len(probe_x)), 0.0, t_hi)
    pk = int(np.argmax(s))
    quiet = s < 1e-9 * s[pk]
    if not s[-1] < 0.25e-9 * s[pk]:
        raise WindowError(f"event window: the barrier is not quiet by t_hi={t_hi:.6g} "
                          f"(probe at {s[-1] / s[pk]:.2e} of its peak)")
    pre = np.flatnonzero(quiet[:pk])
    if not len(pre):
        raise WindowError("no quiet pre-arrival regime found; the packet starts too "
                          "close to the barrier")
    i_post = pk + int(np.argmax(quiet[pk:]))  # quiet[-1] holds
    return float(dt * pre[-1]), float(dt * i_post)


def quiet_times(packet: SpectralPacket, barrier: BarrierSpec,
                n_pre: int = 5, n_post: int = 5) -> np.ndarray:
    """Sample times bracketing the scattering event (quiescent regime only)."""
    t_pre, t_post = event_window(packet, barrier)
    return np.concatenate([np.linspace(0.0, t_pre, n_pre),
                           np.linspace(t_post, t_post + 0.4 * max(t_post, 1.0), n_post)])


def spectral_transmitted_norm(packet: SpectralPacket, barrier: BarrierSpec) -> float:
    """T from the spectrum: trapezoid of |G|^2 T(k) (the asymptotic value of T_t)."""
    return _spectral_mean(packet, solve_family(barrier, packet.ks).T)


def _spectral_mean(packet: SpectralPacket, C) -> float:
    """Trapezoid of |G|^2 C(k), C scaled so that a subnormal C keeps its digits."""
    scale = 2.0 ** np.frexp(C.max())[1]
    return float(np.sum(packet.spectral_weight * (C / scale))) * scale
