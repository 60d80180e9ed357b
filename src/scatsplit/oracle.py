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
averaged-potential-node treatment.  A whole k grid is marched at once, on one
step that divides every segment width and keeps the most demanding k's phase
error (or, under the barrier, growth-rate error) within budget, with NumPy
arrays over k and only the last six rows kept.

Crank-Nicolson steps the time-dependent equation with the unconditionally
stable implicit midpoint scheme on a uniform grid with reflecting ends.  Nodes
that fall exactly on a potential jump are assigned the mean of the two sides;
this restores clean O(dx^2) convergence against the spectral reference.  The
right-hand matrix is 2I minus the system matrix, so a step is one LAPACK
tridiagonal solve and an axpy.  SciPy, which provides that solve, is imported
only when a propagator is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridRefinementError, ToleranceError
from .potentials import BarrierSpec, potential_at


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n: int
    dt: float = 1e-3

    def __post_init__(self):
        if self.n < 3:
            raise DomainError("grid needs at least 3 points")
        if not self.x_max > self.x_min:
            raise DomainError("need x_max > x_min")
        if not self.dt > 0:
            raise DomainError("dt must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


# -- Numerov stationary oracle -------------------------------------------------

_PAD = 8  # free-region nodes kept on each side for derivative stencils and fits

_H_MAX = 5e-3  # the step wherever the phase budget allows it

# bound on the march's summed phase error: it keeps the oracle's own error
# under 1e-8, two orders below the 1e-6 cross-check gate
_PHASE_BUDGET = 5e-9

_MIN_SEGMENT_STEPS = 5  # the 6-point derivative at a jump needs 5 steps behind it

_STEP_SEARCH = 16  # try w_min / n for n up to this multiple of the least n

_RING = 6  # rows kept while marching: the derivative stencil's width


def _march(rows, n, f, h, nsteps):
    """March the 3-term recurrence nsteps further (constant f), leftward.

    rows is the ring of the last _RING rows over k, with rows[n % _RING] the
    newest; f is per k.  Returns the index of the new newest row.
    """
    w = 1 + h * h * f / 12
    c = 2 * (1 - 5 * h * h * f / 12)
    inv_w = 1 / w
    for _ in range(nsteps):
        new = rows[(n + 1) % _RING]
        np.multiply(c, rows[n % _RING], out=new)
        new -= w * rows[(n - 1) % _RING]
        new *= inv_w
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
    """One step for the whole k grid.

    The wanted step is _H_MAX, or less where the most demanding k needs
    it: Numerov's phase error per step is (q h)^5 / 480 at local wavenumber
    q, and an evanescent region's error in the growth rate is the same with
    the decay rate kappa for q.  Summed over the whole march (the pads at
    _H_MAX included) it must stay within _PHASE_BUDGET.  The step taken is
    the coarsest whole fraction w_min / n of the narrowest segment at or
    below that which leaves at least _MIN_SEGMENT_STEPS steps in it and
    divides every other width, since restarts must land on the jumps.
    """
    k2 = np.asarray(ks, dtype=float) ** 2
    f = np.subtract.outer(k2, 2 * barrier.heights)
    phase = np.abs(f) ** 2.5 @ barrier.widths + 2 * _PAD * _H_MAX * k2**2.5
    h_want = min(_H_MAX, (480 * _PHASE_BUDGET / phase.max()) ** 0.25)
    widths = barrier.widths
    w_min = widths.min()
    # a quotient a rounding error above an integer (170.00000000000003 for
    # width 0.8500000000000001) must not add a step
    n_lo = max(math.ceil(w_min / h_want - 1e-9), _MIN_SEGMENT_STEPS)
    hs = w_min / np.arange(n_lo, _STEP_SEARCH * n_lo + 1)
    steps = np.divide.outer(widths, hs)
    fits = np.all(np.abs(steps - np.round(steps)) <= 1e-9 * np.maximum(1.0, steps), axis=0)
    if not fits.any():
        raise GridRefinementError(
            f"segment widths {widths.tolist()} share no uniform step at or below "
            f"{h_want:.6g} (tried {w_min!r}/n for n = {n_lo}..{_STEP_SEARCH * n_lo}); "
            "choose commensurate widths for the finite-difference oracle"
        )
    return float(hs[np.argmax(fits)])


def numerov_solve(barrier: BarrierSpec, ks):
    """Finite-difference amplitudes (A_T, A_R) over a k grid.

    Every k is marched together, right to left from the transmitted plane
    wave at b + PAD h to a - PAD h, on the one step numerov_step_size
    chooses; only the last six rows are kept.  Segment widths without a
    common step are rejected (the restart scheme needs jumps on nodes).
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise DomainError("numerov_solve needs a non-empty 1-D k grid")
    if not np.all(ks > 0):
        raise DomainError("k must be positive")
    h = numerov_step_size(barrier, ks)
    steps = np.round(barrier.widths / h).astype(int)
    E = ks * ks / 2

    rows = np.empty((_RING, len(ks)), dtype=complex)
    x0 = barrier.b + _PAD * h
    rows[0] = np.cos(ks * x0) + 1j * np.sin(ks * x0)
    rows[1] = np.cos(ks * (x0 - h)) + 1j * np.sin(ks * (x0 - h))
    n = _march(rows, 1, 2 * E, h, _PAD - 1)
    heights = barrier.heights
    regions = [(heights[j], int(steps[j])) for j in range(len(steps) - 1, -1, -1)]
    regions.append((0.0, _PAD))
    for V, nst in regions:
        f = 2 * (E - V)
        dp = _one_sided_deriv(rows, n, h)
        rows[(n + 1) % _RING] = _taylor_back(rows[n % _RING], dp, f, h)
        n = _march(rows, n + 1, f, h, nst - 1)

    x_left = barrier.a - _PAD * h
    pa, pam = rows[(n - 1) % _RING], rows[n % _RING]  # at x_left + h and x_left
    det = 2j * np.sin(ks * h)
    P = (pa * np.exp(-1j * ks * x_left) - pam * np.exp(-1j * ks * (x_left + h))) / det
    Q = (pam * np.exp(1j * ks * (x_left + h)) - pa * np.exp(1j * ks * x_left)) / det
    return 1.0 / P, Q / P


# -- Crank-Nicolson time-domain oracle ----------------------------------------

_EDGE_DENSITY_TOL = 1e-10

_NORM_DRIFT_PER_STEP = 1e-12


def _lapack():
    """LAPACK's complex tridiagonal factor and solve (zgttrf, zgttrs).

    Imported on first use, so importing the package does not load SciPy.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    return zgttrf, zgttrs


class CrankNicolson:
    """Implicit-midpoint propagator on a fixed grid with reflecting ends.

    The system matrix A = I + i dt H / 2 is constant and tridiagonal, so
    LAPACK's zgttrf factors it once.  The right-hand matrix is
    I - i dt H / 2 = 2I - A, so each step A^-1 (2I - A) psi is one zgttrs
    solve and an axpy: 2 A^-1 psi - psi.
    """

    def __init__(self, barrier: BarrierSpec, grid: GridSpec):
        self.grid = grid
        xs = grid.xs
        dx, dt = grid.dx, grid.dt
        V = potential_at(barrier, xs)
        # nodes exactly on a jump take the mean of the one-sided limits
        for xe in barrier.edges:
            j = int(round((xe - grid.x_min) / dx))
            if 0 <= j < grid.n and abs(xs[j] - xe) < 1e-9 * max(1.0, abs(xe)):
                V[j] = (_v_limit(barrier, xe, -1) + _v_limit(barrier, xe, +1)) / 2
        lam = 1j * dt / (4 * dx * dx)
        main = 1 + 2 * lam + 1j * dt * V / 2
        off = np.full(grid.n - 1, -lam)
        zgttrf, self._zgttrs = _lapack()
        *self._lu, info = zgttrf(off, main, off)
        if info != 0:
            raise ToleranceError(
                f"Crank-Nicolson system matrix is singular (zgttrf info={info})"
            )
        self._dx = dx

    def step(self, psi: np.ndarray) -> np.ndarray:
        x, _ = self._zgttrs(*self._lu, psi[:, None])
        y = x[:, 0]
        y *= 2
        y -= psi
        return y

    def evolve(self, psi0: np.ndarray, nsteps: int, check_every: int = 200) -> np.ndarray:
        """Run nsteps, watching for boundary contamination and norm drift."""
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (self.grid.n,):
            raise DomainError("initial field does not match the grid")
        norm0 = _grid_norm(psi, self._dx)
        for i in range(nsteps):
            psi = self.step(psi)
            if (i + 1) % check_every == 0 or i + 1 == nsteps:
                edge = max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2)
                if edge > _EDGE_DENSITY_TOL:
                    raise ToleranceError(
                        f"boundary contamination at step {i + 1}: edge density "
                        f"{edge:.2e} > {_EDGE_DENSITY_TOL}; widen the grid"
                    )
                drift = abs(_grid_norm(psi, self._dx) - norm0)
                if drift > _NORM_DRIFT_PER_STEP * (i + 1) + 1e-9:
                    raise ToleranceError(
                        f"norm drift {drift:.2e} after {i + 1} steps exceeds budget"
                    )
        return psi


def _v_limit(barrier, x, side):
    eps = 1e-9 * max(1.0, abs(x)) * side
    return float(potential_at(barrier, np.array([x + eps]))[0])


def _grid_norm(psi, dx):
    w = np.ones(len(psi))
    w[0] = w[-1] = 0.5
    return float(np.sum(np.abs(psi) ** 2 * w) * dx)


def crank_nicolson_evolve(
    barrier: BarrierSpec, grid: GridSpec, psi0: np.ndarray, t_span: float
) -> np.ndarray:
    """Convenience wrapper: evolve psi0 over t_span (rounded to whole steps)."""
    nsteps = int(round(t_span / grid.dt))
    if abs(nsteps * grid.dt - t_span) > 1e-9:
        raise DomainError(
            f"t_span {t_span} is not a whole number of dt={grid.dt} steps"
        )
    return CrankNicolson(barrier, grid).evolve(psi0, nsteps)
