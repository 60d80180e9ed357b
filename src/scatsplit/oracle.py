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
averaged-potential-node treatment.

Crank-Nicolson steps the time-dependent equation with the unconditionally
stable implicit midpoint scheme on a uniform grid with reflecting ends.  Nodes
that fall exactly on a potential jump are assigned the mean of the two sides;
this restores clean O(dx^2) convergence against the spectral reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import DomainError, GridRefinementError, ToleranceError
from .potentials import BarrierSpec, potential_at
from .stationary import ScatteringSolution


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

_POINTS_PER_WAVELENGTH = 50


def _numerov_region(psi0, psi1, f, h, nsteps):
    """March the 3-term recurrence nsteps further (constant f), leftward."""
    out = [psi0, psi1]
    w = 1 + h * h * f / 12
    c = 2 * (1 - 5 * h * h * f / 12)
    for _ in range(nsteps):
        out.append((c * out[-1] - w * out[-2]) / w)
    return out

def _one_sided_deriv(vals, h):
    # 6-point forward difference; vals[-1] is the evaluation point, the rest
    # lie at +h, +2h, ... on the already-integrated (right) side
    p, p1, p2, p3, p4, p5 = vals[-1], vals[-2], vals[-3], vals[-4], vals[-5], vals[-6]
    return (-137 * p + 300 * p1 - 300 * p2 + 200 * p3 - 75 * p4 + 12 * p5) / (60 * h)

def _taylor_back(p, dp, f, h):
    # psi(x - h) from (psi, psi') at x with constant f (series valid for both
    # oscillatory f > 0 and evanescent f < 0)
    cos_ser = 1 - h * h * f / 2 + h**4 * f * f / 24 - h**6 * f**3 / 720
    sin_ser = h * (1 - h * h * f / 6 + h**4 * f * f / 120 - h**6 * f**3 / 5040)
    return p * cos_ser - dp * sin_ser


def numerov_step_size(barrier: BarrierSpec, k: float, h_target: float = 5e-3) -> float:
    """Step honoring both the target and the points-per-wavelength floor,
    chosen as a whole fraction of the narrowest segment.  Restarts must land
    on the jumps, so numerov_solve rejects barriers whose other widths are
    not whole multiples of it."""
    q_max = math.sqrt(max(k * k, max(abs(k * k - 2 * v) for v in barrier.heights)))
    h_wave = 2 * math.pi / q_max / _POINTS_PER_WAVELENGTH
    h_want = min(h_target, h_wave)
    widths = barrier.widths
    w_min = widths.min()
    # a quotient a rounding error above an integer (170.00000000000003 for
    # width 0.8500000000000001) must not add a step
    return w_min / math.ceil(w_min / h_want - 1e-9)


def numerov_solve(barrier: BarrierSpec, k: float, h_target: float = 5e-3):
    """Finite-difference amplitudes and field for the full stationary state.

    Returns (xs, psi, A_T, A_R); xs runs left to right over
    [a - PAD h, b + PAD h].  Segment widths that are not near-multiples of a
    common step are rejected (the restart scheme needs jumps on nodes).
    """
    if k <= 0:
        raise DomainError("k must be positive")
    h = numerov_step_size(barrier, k, h_target)
    widths = barrier.widths
    steps = widths / h
    if np.any(np.abs(steps - np.round(steps)) > 1e-9 * np.maximum(1.0, steps)):
        raise GridRefinementError(
            f"segment widths {widths.tolist()} share no uniform step near {h_target}; "
            "choose commensurate widths for the finite-difference oracle"
        )
    steps = np.round(steps).astype(int)
    E = k * k / 2

    x0 = barrier.b + _PAD * h
    cur = _numerov_region(
        complex(math.cos(k * x0), math.sin(k * x0)),
        complex(math.cos(k * (x0 - h)), math.sin(k * (x0 - h))),
        2 * E,
        h,
        _PAD - 1,
    )
    psi_all = list(cur)
    heights = barrier.heights
    regions = [(heights[j], int(steps[j])) for j in range(len(steps) - 1, -1, -1)]
    regions.append((0.0, _PAD))
    for V, nst in regions:
        f = 2 * (E - V)
        p = cur[-1]
        dp = _one_sided_deriv(cur, h)
        cur = _numerov_region(p, _taylor_back(p, dp, f, h), f, h, nst - 1)
        psi_all.extend(cur[1:])

    x_left = barrier.a - _PAD * h
    pa, pam = cur[-2], cur[-1]  # at x_left + h and x_left
    det = 2j * math.sin(k * h)
    P = (pa * np.exp(-1j * k * x_left) - pam * np.exp(-1j * k * (x_left + h))) / det
    Q = (pam * np.exp(1j * k * (x_left + h)) - pa * np.exp(1j * k * x_left)) / det
    A_T = 1.0 / P
    A_R = Q / P

    psi = np.array(psi_all[::-1]) * A_T  # normalize to unit incidence
    xs = x_left + h * np.arange(len(psi))
    return xs, psi, complex(A_T), complex(A_R)


# -- Crank-Nicolson time-domain oracle ----------------------------------------

_EDGE_DENSITY_TOL = 1e-10

_NORM_DRIFT_PER_STEP = 1e-12


class CrankNicolson:
    """Implicit-midpoint propagator on a fixed grid with reflecting ends.

    The system matrix is constant and tridiagonal, so LAPACK's zgttrf factors
    it once; each step is a tridiagonal matvec plus one zgttrs solve.
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
        *self._lu, info = zgttrf(off, main, off)
        if info != 0:
            raise ToleranceError(
                f"Crank-Nicolson system matrix is singular (zgttrf info={info})"
            )
        self._mainB = 2 - main
        self._lam = lam
        self._dx = dx

    def step(self, psi: np.ndarray) -> np.ndarray:
        rhs = self._mainB * psi
        rhs[:-1] += self._lam * psi[1:]
        rhs[1:] += self._lam * psi[:-1]
        x, _ = zgttrs(*self._lu, rhs[:, None], overwrite_b=1)
        return x[:, 0]

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
