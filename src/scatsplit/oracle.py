"""Independent verification engines: Numerov and Crank-Nicolson.

These exist to check the closed-form transfer-matrix and spectral-synthesis
paths by a completely different numerical route (finite differences), so they
deliberately share no code with them.  They live in the library rather than in
the test tree so the CLI can run the same cross-checks via --oracle.

Numerov integrates psi'' = -f psi right-to-left at O(h^6) local accuracy per
constant-potential region.  A potential jump breaks the smoothness the scheme
relies on, so integration restarts at each jump: the derivative is
reconstructed by a 6-point one-sided difference on the finished side and the
next region is entered by a local Taylor step.  This keeps amplitude errors at
the 1e-10 level for ordinary barriers, versus only O(h) for the naive
averaged-potential-node treatment.  A whole k grid is marched at once, with
NumPy arrays over k and only the last six rows kept, from the transmitted
wave's (psi, psi') at b to (psi, psi') at a.  Each segment takes its own step,
the coarsest whole fraction of its width at or below the step that keeps the
most demanding k's summed phase error (or, under the barrier, growth-rate
error) and its exit stencil's error within budget, so any widths are
accepted; a k grid whose steps exceed NUMEROV_BUDGET is refused before
marching.  The rows are rescaled as
they grow, and the log scale is carried into A_T, so opaque barriers neither
overflow nor lose the reflected amplitude.

Crank-Nicolson, `CrankNicolson(barrier, xs, dt).evolve(psi0, nsteps)`, steps
the time-dependent equation on an ascending uniform grid xs with reflecting
ends, in space with the compact fourth-order (Numerov) Laplacian,
which keeps both sides of the step tridiagonal (Moyer, Am. J. Phys. 72, 351
(2004)), and in time with the diagonal Pade (3,3) approximant of
exp(-i H dt), sixth order and unitary.  It factors into three Crank-Nicolson
steps with complex time steps (van Dijk and Toyama, Phys. Rev. E 75, 036707
(2007)); each one's right-hand side is M psi with the Numerov mass matrix M, so
a step is three LAPACK tridiagonal solves, each followed by an axpy.  The
step's phase error is E^7 dt^7 / 100800 at energy E, whatever the potential,
so the cross-check takes dt from the packet's spectrum: the largest whole
fraction of the span whose summed error, weighted by |G|^2, stays within a
fixed budget (`cross_check_plan` returns that dt and the number of steps).
A potential jump sampled at the nodes would cap the order at one (two where
it sits midway between nodes), so the four nodes around each jump take
moment-matched potential shifts, which keep the Hamiltonian real symmetric
and the step unitary.  SciPy, which provides
the solve, is imported only when a propagator is built.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, GridRefinementError, ToleranceError
from .potentials import BarrierSpec, potential_at


# -- Numerov stationary oracle -------------------------------------------------

_H_MAX = 5e-3  # the step wherever the phase budget allows it

# bound on the march's summed phase error and on each exit stencil's error:
# the oracle's own error, |A - transfer-matrix A| over 2100 `solve` draws of
# the CLI refusal fuzz (seeds 1-7), peaks at 6.0e-8, 16 times under the 1e-6
# cross-check gate
_PHASE_BUDGET = 5e-9

_MIN_SEGMENT_STEPS = 5  # the 6-point derivative at a jump needs 5 steps behind it

_RING = 6  # rows kept while marching: the derivative stencil's width

_RESCALE = 256  # steps between rescalings of the ring

# Most work one Numerov solve may take, in steps x (n_k + _STEP_OVERHEAD_K):
# a step costs about 3 us plus 2.5 ns per k (NumPy 2.4, one core), so the
# budget is some 6 s, as CROSS_CHECK_BUDGET's
NUMEROV_BUDGET = 2e9
_STEP_OVERHEAD_K = 1000  # a step's fixed cost, in k columns


def _march(rows, n, f, h, nsteps):
    """March the 3-term recurrence nsteps further (constant f), leftward.

    rows is the ring of the last _RING rows over k, with rows[n % _RING] the
    newest; f is per k.  Numerov's w psi_n+1 = c psi_n - w psi_n-1 has the
    same w on both sides within a region, so a step is psi_n+1 = (c / w)
    psi_n - psi_n-1.  Returns the index of the new newest row.
    """
    w = 1 + h * h * f / 12
    c_w = 2 * (1 - 5 * h * h * f / 12) / w
    for _ in range(nsteps):
        new = rows[(n + 1) % _RING]
        np.multiply(c_w, rows[n % _RING], out=new)
        new -= rows[(n - 1) % _RING]
        n += 1
    return n


def _one_sided_deriv(rows, n, h):
    # 6-point forward difference at the newest row; the rows before it lie
    # at +h, +2h, ... on the already-integrated (right) side
    p, p1, p2, p3, p4, p5 = (rows[(n - j) % _RING] for j in range(_RING))
    return (-137 * p + 300 * p1 - 300 * p2 + 200 * p3 - 75 * p4 + 12 * p5) / (60 * h)


def _taylor_back(p, dp, f, h):
    # psi(x - h) from (psi, psi') at x with constant f (series valid for both
    # oscillatory f > 0 and evanescent f < 0)
    cos_ser = 1 - h * h * f / 2 + h**4 * f * f / 24 - h**6 * f**3 / 720
    sin_ser = h * (1 - h * h * f / 6 + h**4 * f * f / 120 - h**6 * f**3 / 5040)
    return p * cos_ser - dp * sin_ser


def numerov_step_size(barrier: BarrierSpec, ks) -> float:
    """The largest step the k grid's phase budget allows, at most _H_MAX.

    Numerov's phase error per step is (q h)^5 / 480 at local wavenumber q,
    and an evanescent region's error in the growth rate is the same with
    the decay rate kappa for q.  Summed over every segment it must stay
    within _PHASE_BUDGET at the most demanding k.
    """
    k2 = np.asarray(ks, dtype=float) ** 2
    f = np.subtract.outer(k2, 2 * barrier.heights)
    worst = float((np.abs(f) ** 2.5 @ barrier.widths).max())
    if worst * _H_MAX**4 <= 480 * _PHASE_BUDGET:
        return _H_MAX
    return (480 * _PHASE_BUDGET / worst) ** 0.25


def _segment_steps(barrier: BarrierSpec, ks) -> np.ndarray:
    """Steps per segment: the least whole number, at least
    _MIN_SEGMENT_STEPS, whose step h_j is at most `numerov_step_size` and
    keeps the exit stencil's miss in psi', |f|^3 h_j^5 psi / 6, within
    _PHASE_BUDGET of k psi, the free wave's slope (which binds only where a
    few-step segment is steep at low k).  A quotient a rounding error above
    an integer (170.00000000000003 for width 0.8500000000000001 at h = 0.005)
    adds no step."""
    ks, h = np.asarray(ks, dtype=float), numerov_step_size(barrier, ks)
    f = np.subtract.outer(ks * ks, 2 * barrier.heights)
    steep = (np.abs(f) ** 3 / ks[:, None]).max(axis=0)
    hs = np.full(len(steep), h)
    fine = steep * h**5 > 6 * _PHASE_BUDGET
    hs[fine] = (6 * _PHASE_BUDGET / steep[fine]) ** 0.2
    return np.maximum(np.ceil(barrier.widths / hs - 1e-9), _MIN_SEGMENT_STEPS).astype(int)


def numerov_solve(barrier: BarrierSpec, ks):
    """Finite-difference amplitudes (A_T, A_R) over a k grid.

    Every k is marched together, right to left from the transmitted wave's
    (psi, psi') at b, each segment on its own `_segment_steps` step: it is
    entered by a Taylor step from (psi, psi') and left with psi' from the
    one-sided stencil.  The ring is rescaled by its newest rows every
    _RESCALE steps and the log scale S enters A_T = exp(-S) / P, so an
    opaque barrier neither overflows nor loses A_R.  At a, (psi, psi') give
    the incident and reflected amplitudes P and Q.  GridRefinementError,
    before marching, when the steps exceed NUMEROV_BUDGET.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise DomainError("numerov_solve needs a non-empty 1-D k grid")
    if not np.all(ks > 0):
        raise DomainError("k must be positive")
    E = ks * ks / 2
    steps = _segment_steps(barrier, ks)
    total = int(steps.sum())
    cost = total * (len(ks) + _STEP_OVERHEAD_K)
    if cost > NUMEROV_BUDGET:
        raise GridRefinementError(
            f"the Numerov oracle needs {total} steps for {len(ks)} k up to k={ks.max():.6g}: "
            f"{total} x ({len(ks)} + {_STEP_OVERHEAD_K}) = {cost:.3g}, beyond the budget of "
            f"{NUMEROV_BUDGET:.3g}; lower the largest k")

    rows = np.empty((_RING, len(ks)), dtype=complex)
    n = 0
    rows[0] = np.cos(ks * barrier.b) + 1j * np.sin(ks * barrier.b)
    dp = 1j * ks * rows[0]
    S = np.zeros(len(ks))
    for w, V, m in zip(barrier.widths[::-1], barrier.heights[::-1], steps[::-1]):
        f, hj = 2 * (E - V), w / m
        rows[(n + 1) % _RING] = _taylor_back(rows[n % _RING], dp, f, hj)
        n += 1
        for done in range(1, m, _RESCALE):
            n = _march(rows, n, f, hj, min(_RESCALE, m - done))
            scale = np.maximum(np.abs(rows[n % _RING]), np.abs(rows[(n - 1) % _RING]))
            rows /= scale
            S += np.log(scale)
        dp = _one_sided_deriv(rows, n, hj)

    p = rows[n % _RING]
    P = 0.5 * (p + dp / (1j * ks)) * np.exp(-1j * ks * barrier.a)
    Q = 0.5 * (p - dp / (1j * ks)) * np.exp(1j * ks * barrier.a)
    return np.exp(-S) / P, Q / P


# -- Crank-Nicolson time-domain oracle ----------------------------------------

_EDGE_DENSITY_TOL = 1e-10

_NORM_DRIFT_PER_STEP = 1e-12

_CHECK_INTERVAL = 0.8  # time between boundary and norm checks

# The roots of the Pade (3,3) denominator 1 - z/2 + z^2/10 - z^3/120.  With
# z = 4 + y it reads y^3 + 12 y - 8 = 0, so (Cardano) the real root is
# 4 + y_1, y_1 = cbrt(4 sqrt(5) + 4) - cbrt(4 sqrt(5) - 4), and the pair is
# 4 - y_1 / 2 -+ i sqrt(3 y_1^2 + 48) / 2.
_PADE_ROOTS = (4.644370709252171, complex(3.6778146453739144, -3.5087619195674433),
               complex(3.6778146453739144, 3.5087619195674433))
# factor j's time step is dt times i / z_j
_PADE_STEPS = tuple(1j / z for z in _PADE_ROOTS)


def _lapack():
    """LAPACK's complex tridiagonal factor and solve (zgttrf, zgttrs).

    Imported on first use, so importing the package does not load SciPy.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    return zgttrf, zgttrs


class CrankNicolson:
    """Sixth-order (Pade (3,3)) propagator with a compact (Numerov)
    Laplacian on a fixed grid with reflecting ends.

    With M = tridiag(1, 10, 1) / 12 and L = tridiag(1, -2, 1) / dx^2 the
    Hamiltonian is H = -M^-1 L / 2 + V, real symmetric because M and L
    commute.  The step is R(z) = D(-z) / D(z) at z = -i dt H, with
    D(z) = 1 - z/2 + z^2/10 - z^3/120, unitary because D's roots z_j (one
    real, one conjugate pair) are closed under conjugation.  It factors as
    the product over j of (1 + z/z_j) / (1 - z/z_j) = 2 (M + c_j K)^-1 M - 1,
    with K = -L/2 + M V and c_j = i dt / z_j; the single root z = 2
    (c = i dt / 2) would be the implicit midpoint rule.  LAPACK's zgttrf
    factors the three M + c_j K once, and each factor of a step is one
    zgttrs solve of (M + c_j K) y = M psi followed by 2y - psi.  M + c_j K is
    not symmetric: its lower entry in row j + 1 carries V_j / 12 and its
    upper entry in row j carries V_{j+1} / 12.

    V is the potential at the nodes plus the shifts of `_jump_shifts` around
    each jump; the shifts of neighbouring jumps add.
    """

    def __init__(self, barrier: BarrierSpec, xs, dt: float):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or len(xs) < 3:
            raise DomainError("grid needs at least 3 points")
        if not 0 < dt < math.inf:
            raise DomainError(f"dt must be positive and finite, got {dt}")
        # every node within 1e-9 dx of x0 + j dx, or the stencils do not hold
        dx = (xs[-1] - xs[0]) / (len(xs) - 1)
        if not (dx > 0 and np.max(np.abs(xs - (xs[0] + dx * np.arange(len(xs))))) <= 1e-9 * dx):
            raise DomainError("grid must be uniform and ascending")
        # a node within 1e-6 dx of a jump counts as right of it, as does a
        # node exactly on it
        V = potential_at(barrier, xs + 1e-6 * dx)
        sides = np.concatenate([[0.0], barrier.heights, [0.0]])  # edge i lies between i, i + 1
        for xe, vm, vp in zip(barrier.edges, sides[:-1], sides[1:]):
            pos = (xe - xs[0]) / dx
            j = math.ceil(pos - 1e-6) - 1  # the last node left of the jump
            b = min(pos - j, 1.0)
            shifts = _jump_shifts(b, vm, vp, dx)
            for i, shift in zip(range(j - 1, j + 3), shifts):
                if 0 <= i < len(xs):
                    V[i] += shift
        zgttrf, self._zgttrs = _lapack()
        self._factors = []
        for c in (dt * s for s in _PADE_STEPS):
            main = 10 / 12 + c * (1 / (dx * dx) + V * (10 / 12))
            off = 1 / 12 + c * (-0.5 / (dx * dx) + V / 12)
            *lu, info = zgttrf(off[:-1], main, off[1:])
            if info != 0:
                raise ToleranceError(
                    f"Crank-Nicolson system matrix is singular (zgttrf info={info})"
                )
            self._factors.append(lu)
        self._n, self._dx, self._dt = len(xs), dx, dt

    def step(self, psi: np.ndarray) -> np.ndarray:
        for lu in self._factors:
            # M psi by multiplications only: a division per node costs more
            # than the tridiagonal solve's own arithmetic
            rhs = np.empty((len(psi), 1), dtype=complex, order="F")
            m = rhs[:, 0]
            np.multiply(psi, 10 / 12, out=m)
            m[1:] += psi[:-1] * (1 / 12)
            m[:-1] += psi[1:] * (1 / 12)
            x, _ = self._zgttrs(*lu, rhs, overwrite_b=1)
            y = x[:, 0]
            y *= 2
            y -= psi
            psi = y
        return psi

    def evolve(self, psi0: np.ndarray, nsteps: int) -> np.ndarray:
        """Run nsteps, watching for boundary contamination and norm drift
        every _CHECK_INTERVAL of time and at the last step."""
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (self._n,):
            raise DomainError("initial field does not match the grid")
        check_every = max(1, round(_CHECK_INTERVAL / self._dt))
        norm0 = _grid_norm(psi, self._dx)
        for i in range(nsteps):
            psi = self.step(psi)
            if (i + 1) % check_every == 0 or i + 1 == nsteps:
                edge = max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2)
                if not edge <= _EDGE_DENSITY_TOL:
                    raise ToleranceError(
                        f"boundary contamination at step {i + 1}: edge density "
                        f"{edge:.2e} > {_EDGE_DENSITY_TOL}; widen the grid"
                    )
                drift = abs(_grid_norm(psi, self._dx) - norm0)
                if not drift <= _NORM_DRIFT_PER_STEP * (i + 1) + 1e-9:
                    raise ToleranceError(
                        f"norm drift {drift:.2e} after {i + 1} steps exceeds budget"
                    )
        return psi


def _jump_shifts(b, vm, vp, dx):
    """Potential shifts at nodes j-1 .. j+2 around a jump from vm to vp that
    lies b steps (0 < b <= 1) right of node j.

    With the step sampled at the nodes, the two rows astride the jump carry
    an O(1) residual rho_i = (H psi)_i - E psi(x_i) on a stationary state of
    the true step.  That costs O(dx) globally, or O(dx^2) where the jump sits
    midway between nodes (or on one that takes the mean of both sides).  The
    shifts make sum rho_i vanish through O(dx^2) and sum (x_i - x_jump) rho_i
    through O(dx^3), for every E and both sides' potentials, except one term
    E (vp - vm) b (b-1) (2b-1) dx^2 / 6 in the first sum that no
    energy-independent shift can cancel (it vanishes at b = 1/2 and 1).  The
    coefficients solve those moment equations from the Taylor series of the
    two one-sided solutions.
    """
    D, mean = vp - vm, (vm + vp) / 2
    h2 = dx * dx * D * (2 * b - 1) / 72
    return (
        -D * (6 * b**3 - 9 * b**2 + 2) / 72,
        D * (2 * b**3 + 9 * b**2 - 24 * b + 11) / 24
        - h2 * (D * (3 * b**4 - 12 * b**3 + 21 * b**2 - 10 * b - 4) - 12 * mean * b * (b - 1) ** 2),
        D * (2 * b**3 - 15 * b**2 + 2) / 24
        + h2 * (D * (3 * b**4 + 3 * b**2 - 8 * b - 2) - 12 * mean * b * b * (b - 1)),
        -D * (6 * b**3 - 9 * b**2 + 1) / 72,
    )


def _grid_norm(psi, dx):
    w = np.ones(len(psi))
    w[0] = w[-1] = 0.5
    return float(np.sum(np.abs(psi) ** 2 * w) * dx)


# The time-domain cross-check's grid step
CROSS_CHECK_DX = 0.02
# Most node solves (grid nodes x steps x 3 solves per step) one cross-check
# may take: about 2900 times a 7.5k-node, 3-step run, some 6 s at 30 ns each
CROSS_CHECK_BUDGET = 2e8
# The Pade step's own share of the cross-check's l2, 400 times under its
# 1e-4 gate
_TIME_ERROR = 2.5e-7


def cross_check_plan(xs, ks, weights, span: float):
    """(dt, nsteps, time_error) for a Crank-Nicolson run over `span` on xs,
    a uniform grid, of a field with spectral weight `weights` (|G|^2 dk, sum
    1) on the wavenumbers ks.

    Each step puts a phase error E^7 dt^7 / 100800 on the energy E = k^2 / 2
    (the Pade (3,3) remainder (3!)^2 / (6! 7!) z^7), so over the span the
    field is off by about time_error = span dt^6 sqrt(sum weights E^14) /
    100800 in l2, whatever the potential.  nsteps is the least whole number (at least one) whose step
    dt = span / nsteps keeps that within _TIME_ERROR.  GridRefinementError,
    before anything is allocated, when nodes x steps x 3 solves exceeds
    CROSS_CHECK_BUDGET.
    """
    n = len(xs)
    E = 0.5 * np.asarray(ks, dtype=float) ** 2
    rate = span * math.sqrt(float(np.sum(weights * E**14))) / 100800
    nsteps = max(1, math.ceil(span * (rate / _TIME_ERROR) ** (1 / 6)))
    solves = n * nsteps * len(_PADE_STEPS)
    if solves > CROSS_CHECK_BUDGET:
        raise GridRefinementError(
            f"the time-domain cross-check over {span:.6g} needs {n} nodes x {nsteps} steps "
            f"x {len(_PADE_STEPS)} solves = {solves:.3g}, beyond the budget of "
            f"{CROSS_CHECK_BUDGET:.3g}; shorten the span between the first and last times")
    dt = span / nsteps
    return dt, nsteps, rate * dt**6
