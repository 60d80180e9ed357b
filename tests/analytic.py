"""Independent oracles used by the tests.

Everything here is derived from textbook matching conditions, deliberately
NOT reusing any package code, so that agreement is evidence and not
tautology.  The closed forms use mpmath high-precision arithmetic; the branch
sweep is the float midpoint test for the reflection sub-state; the plain
transfer matrices, the plane-wave sum and the adaptive integral at the end are
the references for the vectorized solver, the chirp-z field synthesis and the
dwell-time quadrature.
"""

import cmath
import math

import mpmath as mp
from scipy.integrate import quad

mp.mp.dps = 50


def _rect_amps_mp(L, V0, kk):
    """Full-precision amplitude pair (mpc, mpc) for the [0, L] barrier."""
    E = kk**2 / 2
    V = mp.mpf(V0)
    LL = mp.mpf(L)
    if abs(E - V) < mp.mpf("1e-30"):
        # linear interior: psi = alpha + beta (x - a)
        den = 1 + 1j * kk * LL / 2
        t0 = 1 / den
        r0 = (1j * kk * LL / 2) / den * mp.mpf(-1)
        # matching: den = 1 - i k L / 2 is for a well; redo directly
        # psi_in = alpha + beta x (x from 0); at 0: alpha = 1 + r, beta = ik(1 - r)
        # at L: alpha + beta L = t e^{ikL}(in local frame), beta = ik t e^{ikL}
        # solve: 1 + r + ik(1 - r) L = t', ik(1 - r) = ik t'  => t' = 1 - r
        # 1 + r + ik(1-r)L = 1 - r  =>  r(2 + ikL)= -ikL ... careful:
        # 1 + r + ikL - ikLr = 1 - r  ->  2r + ikL(1 - r) = 0 -> r = -ikL/(2 - ikL)
        r0 = -1j * kk * LL / (2 - 1j * kk * LL)
        t0 = (1 - r0) * mp.e ** (-1j * kk * LL)
    elif E < V:
        kap = mp.sqrt(2 * V - kk**2)
        den = mp.cosh(kap * LL) + 0.5j * (kap / kk - kk / kap) * mp.sinh(kap * LL)
        t0 = mp.e ** (-1j * kk * LL) / den
        r0 = -0.5j * (kap / kk + kk / kap) * mp.sinh(kap * LL) / den
    else:
        q = mp.sqrt(kk**2 - 2 * V)
        den = mp.cos(q * LL) - 0.5j * (kk / q + q / kk) * mp.sin(q * LL)
        t0 = mp.e ** (-1j * kk * LL) / den
        r0 = 0.5j * (q / kk - kk / q) * mp.sin(q * LL) / den
    return t0, r0


def rect_amplitudes(L, V0, k, a=0.0):
    """Transmitted/reflected amplitudes for a rectangular bump of height V0 on
    [a, a+L], unit incidence from the left, E = k^2/2.

    Returns (A_T, A_R) as python complex.  Handles tunneling (E < V0),
    overhead (E > V0) and the degenerate E = V0 case.
    """
    kk = mp.mpf(k)
    t0, r0 = _rect_amps_mp(L, V0, kk)
    # shift from [0, L] to [a, a+L]: A_T invariant, A_R picks up e^{2ika}
    shift = mp.e ** (2j * kk * mp.mpf(a))
    return complex(t0), complex(r0 * shift)


def rect_T(L, V0, k):
    t, _ = rect_amplitudes(L, V0, k)
    return abs(t) ** 2


def resonance_k(V0, L, n=1):
    """Wavenumber of the n-th transmission resonance of an overhead barrier."""
    return math.sqrt(2 * V0 + (n * math.pi / L) ** 2)


def rect_interior(L, V0, k, a=0.0):
    """Interior representation of the full state: (c1, c2, kappa_or_q, kind).

    kind "evan": psi(x) = c1 e^{kappa (x-a)} + c2 e^{-kappa (x-a)};
    kind "osc":  psi(x) = c1 e^{i q (x-a)} + c2 e^{-i q (x-a)}.
    """
    kk = mp.mpf(k)
    V = mp.mpf(V0)
    A_T, A_R = rect_amplitudes(L, V0, k, a)
    sh = mp.e ** (1j * kk * mp.mpf(a))
    p0 = sh + mp.mpc(A_R) / sh            # psi(a)
    dp0 = 1j * kk * (sh - mp.mpc(A_R) / sh)
    if kk**2 / 2 < V:
        kap = mp.sqrt(2 * V - kk**2)
        c1 = (p0 + dp0 / kap) / 2
        c2 = (p0 - dp0 / kap) / 2
        return c1, c2, kap, "evan"
    q = mp.sqrt(kk**2 - 2 * V)
    c1 = (p0 + dp0 / (1j * q)) / 2
    c2 = (p0 - dp0 / (1j * q)) / 2
    return c1, c2, q, "osc"


def rect_full_value(L, V0, k, x, a=0.0):
    """Full stationary state anywhere on the line (python complex)."""
    kk = mp.mpf(k)
    A_T, A_R = rect_amplitudes(L, V0, k, a)
    xm = mp.mpf(x)
    if x < a:
        return complex(mp.e ** (1j * kk * xm) + mp.mpc(A_R) * mp.e ** (-1j * kk * xm))
    if x >= a + L:
        return complex(mp.mpc(A_T) * mp.e ** (1j * kk * xm))
    c1, c2, w, kind = rect_interior(L, V0, k, a)
    if kind == "evan":
        return complex(c1 * mp.e ** (w * (xm - a)) + c2 * mp.e ** (-w * (xm - a)))
    return complex(c1 * mp.e ** (1j * w * (xm - a)) + c2 * mp.e ** (-1j * w * (xm - a)))


def rect_ref_state(L, V0, k, a=0.0):
    """Odd-branch reflection sub-state of a rectangular barrier.

    Returns (z, f) where z is the incident-share amplitude and f(x) evaluates
    the sub-state for x <= midpoint (beyond which the odd continuation is
    -f(2 x_c - x)).  Chooses the branch minimizing |psi(x_c)|.
    """
    kk = mp.mpf(k)
    V = mp.mpf(V0)
    LL = mp.mpf(L)
    A_T, A_R = rect_amplitudes(L, V0, k, a)
    T = abs(A_T) ** 2
    R = abs(A_R) ** 2
    s = mp.sqrt(mp.mpf(T) * mp.mpf(R))
    x_c = mp.mpf(a) + LL / 2
    evan = kk**2 / 2 < V
    w = mp.sqrt(2 * V - kk**2) if evan else mp.sqrt(kk**2 - 2 * V)
    wdiv = w if evan else 1j * w

    def interior_coeffs(z):
        ea = mp.e ** (1j * kk * mp.mpf(a))
        p0 = z * ea + mp.mpc(A_R) / ea
        dp0 = 1j * kk * (z * ea - mp.mpc(A_R) / ea)
        return (p0 + dp0 / wdiv) / 2, (p0 - dp0 / wdiv) / 2

    def mkeval(z, d1, d2):
        def f(x):
            xm = mp.mpf(x)
            if x < a:
                return complex(
                    z * mp.e ** (1j * kk * xm) + mp.mpc(A_R) * mp.e ** (-1j * kk * xm)
                )
            return complex(d1 * mp.e ** (wdiv * (xm - a)) + d2 * mp.e ** (-wdiv * (xm - a)))
        return f

    best = None
    for z in (mp.mpf(R) + 1j * s, mp.mpf(R) - 1j * s):
        d1, d2 = interior_coeffs(z)
        mid = abs(d1 * mp.e ** (wdiv * (x_c - a)) + d2 * mp.e ** (-wdiv * (x_c - a)))
        if best is None or mid < best[0]:
            best = (mid, z, mkeval(z, d1, d2))
    _, z_sel, f = best
    return complex(z_sel), f


def rect_masked_dwell_tr(L, V0, k, a=0.0, n=40001):
    """Riemann-sum dwell time of the masked transmission sub-state (mpmath)."""
    z, fref = rect_ref_state(L, V0, k, a)
    x_c = a + L / 2
    T = rect_T(L, V0, k)
    total = mp.mpf(0)
    h = mp.mpf(L) / (n - 1)
    for i in range(n):
        x = mp.mpf(a) + i * h
        fx = rect_full_value(L, V0, k, float(x), a)
        if x <= x_c:
            val = fx - fref(float(x))
        else:
            val = fx
        wgt = mp.mpf(1) if 0 < i < n - 1 else mp.mpf(0.5)
        total += wgt * abs(mp.mpc(val)) ** 2
    return float(total * h / (mp.mpf(k) * mp.mpf(T)))


def rect_phase_delay(L, V0, k):
    """d arg(A_T)/dE by high-precision differentiation (mpmath throughout)."""
    def phase(E):
        t, _ = _rect_amps_mp(L, V0, mp.sqrt(2 * E))
        return mp.arg(t)

    E0 = mp.mpf(k) ** 2 / 2
    h = mp.mpf("1e-10")
    # central difference at 50 digits: truncation ~ h^2, rounding negligible
    return float((phase(E0 + h) - phase(E0 - h)) / (2 * h))


def free_gaussian(x, t, x0, sigma, k0):
    """Free-space Gaussian packet, unit L2 norm, analytic evolution."""
    al = sigma**2 + 1j * t
    pref = (sigma**2 / math.pi) ** 0.25 / cmath.sqrt(al)
    ph = cmath.exp(
        1j * (k0 * (x - x0) - k0**2 * t / 2)
        - (x - x0 - k0 * t) ** 2 / (2 * al)
    )
    return pref * ph


# ---------------------------------------------------------------------------
# float branch sweep: the midpoint test that selects the reflection sub-state
# ---------------------------------------------------------------------------

# |E - V| below this (scaled) threshold uses the linear {1, x} basis
_DEG_TOL = 1e-12


def _transfer(k, V, w, u, v):
    """Carry (psi, psi') across width w at height V, scaling out the growth of
    under-barrier segments; returns (u, v, dS) with the true state exp(dS)
    times (u, v)."""
    if abs(k * k / 2 - V) < _DEG_TOL * max(1.0, abs(V)):
        return u + w * v, v, 0.0
    D = k * k - 2 * V
    if D > 0:
        q = math.sqrt(D)
        c, s = math.cos(q * w), math.sin(q * w)
        return c * u + (s / q) * v, -q * s * u + c * v, 0.0
    kap = math.sqrt(-D)
    e2 = math.exp(-2 * kap * w)
    ch, sh = (1 + e2) / 2, (1 - e2) / 2
    return ch * u + (sh / kap) * v, kap * sh * u + ch * v, kap * w


def branch_candidates(A_T, A_R):
    """The two incoming amplitudes z = R +/- i sqrt(T R) with |z| = |A_R| and
    |1 - z| = |A_T|."""
    T, R = abs(A_T) ** 2, abs(A_R) ** 2
    s = math.sqrt(max(T * R, 0.0))
    return complex(R, s), complex(R, -s)


def branch_sweep(edges, heights, k, A_T, A_R, xs=()):
    """Select the reflection sub-state by sweeping both candidates to x_c.

    Each candidate z seeds psi = z exp(ikx) + A_R exp(-ikx) at a, and a float
    forward sweep carries (psi, psi') to the midpoint through every height
    jump.  The midpoint residual is |psi(x_c)| over the largest |psi| at the
    piece edges.  Returns [(z, residual, psi at xs), ...] with the smaller
    residual (the odd branch) first; xs must lie left of the midpoint.
    """
    edges = [float(e) for e in edges]
    a, x_c = edges[0], (edges[0] + edges[-1]) / 2
    xs = [float(x) for x in xs]
    out = []
    for z in branch_candidates(A_T, A_R):
        ein, eout = cmath.exp(1j * k * a), cmath.exp(-1j * k * a)
        u = z * ein + A_R * eout
        v = 1j * k * (z * ein - A_R * eout)
        S = 0.0
        samples = [(abs(u), S)]
        field = [z * cmath.exp(1j * k * x) + A_R * cmath.exp(-1j * k * x)
                 for x in xs]
        for j, V in enumerate(heights):
            xL = edges[j]
            if xL >= x_c:
                break
            xR = min(edges[j + 1], x_c)
            for i, x in enumerate(xs):
                if xL <= x <= xR:
                    ux, _, dS = _transfer(k, V, x - xL, u, v)
                    field[i] = ux * math.exp(S + dS)
            u, v, dS = _transfer(k, V, xR - xL, u, v)
            S += dS
            samples.append((abs(u), S))
        S_max = max(s for _, s in samples)
        peak = max(m * math.exp(s - S_max) for m, s in samples)
        resid = abs(u) * math.exp(S - S_max) / peak if peak else 0.0
        out.append((z, resid, field))
    return sorted(out, key=lambda c: c[1])


# ---------------------------------------------------------------------------
# plain transfer matrices and adaptive quadrature
# ---------------------------------------------------------------------------


def transfer_amplitudes(edges, heights, k):
    """(A_T, A_R) for unit incidence from the left, by plain unscaled 2x2
    transfer matrices: the transmitted wave exp(ikx) at b is carried back to
    a, where it reads alpha exp(ikx) + beta exp(-ikx); then A_T = 1/alpha and
    A_R = beta/alpha.  Every regime uses one complex q = sqrt(k^2 - 2V), with
    the linear limit at q = 0.  Good while exp(kappa * width) stays finite."""
    edges = [float(e) for e in edges]
    b = edges[-1]
    u = cmath.exp(1j * k * b)
    v = 1j * k * u
    for j in range(len(heights) - 1, -1, -1):
        w = edges[j + 1] - edges[j]
        q = cmath.sqrt(k * k - 2 * float(heights[j]))
        if q == 0:
            u, v = u - w * v, v
        else:
            c, s = cmath.cos(q * w), cmath.sin(q * w)
            u, v = c * u - s / q * v, q * s * u + c * v
    a = edges[0]
    alpha = (u + v / (1j * k)) / 2 * cmath.exp(-1j * k * a)
    beta = (u - v / (1j * k)) / 2 * cmath.exp(1j * k * a)
    return 1 / alpha, beta / alpha


def ladder_clock(edges, heights, ks, weights, omega):
    """Zero-field spin-clock times (tau_tr, tau_ref) by Richardson over the
    finite-field readings at omega, omega/2 and omega/4.

    At field w the two spin components see every height shifted by -/+ w/2
    (amplitudes from `transfer_amplitudes`); the reading is
    arg(sum weights A_up conj A_dn) / w, for the transmitted and the reflected
    amplitudes.  tau(w) = tau0 + c2 w^2 + c4 w^4 + ..., so (4 tau(w/2) -
    tau(w)) / 3 removes the w^2 term from each pair of rungs and
    (16 r(w/2) - r(w)) / 15 the w^4 term from the two results."""
    rungs = []
    for w in (omega, omega / 2, omega / 4):
        up = [transfer_amplitudes(edges, [h - w / 2 for h in heights], k) for k in ks]
        dn = [transfer_amplitudes(edges, [h + w / 2 for h in heights], k) for k in ks]
        rungs.append([
            cmath.phase(sum(c * u[i] * d[i].conjugate()
                            for c, u, d in zip(weights, up, dn))) / w
            for i in (0, 1)])
    r01, r12 = ([(4 * t2 - t1) / 3 for t1, t2 in zip(lo, hi)]
                for lo, hi in zip(rungs, rungs[1:]))
    return tuple((16 * b - a) / 15 for a, b in zip(r01, r12))


def plane_wave_sum(ks, coeffs, xs):
    """[sum_k c_k exp(i k x) for x in xs] by direct summation, one complex
    exponential per (k, x)."""
    ks = [float(k) for k in ks]
    coeffs = [complex(c) for c in coeffs]
    return [sum(c * cmath.exp(1j * k * float(x)) for k, c in zip(ks, coeffs))
            for x in xs]


def adaptive_integral(f, lo, hi, points=(), epsrel=1e-8):
    """Adaptive (QUADPACK) integral of the real function f over [lo, hi],
    with breakpoints at `points`."""
    inner = sorted(p for p in points if lo < p < hi)
    value, _ = quad(f, lo, hi, points=inner or None, limit=200,
                    epsabs=epsrel * 1e-2, epsrel=epsrel)
    return value
