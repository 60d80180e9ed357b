"""Splitting the full scattering state into sub-process states.

The full state at one k splits as Psi_full = Psi_tr + Psi_ref, where both parts
share the left-incidence structure:

    Psi_tr:  A_tr_In exp(ikx)  incoming, A_full_T exp(ikx) transmitted, nothing reflected
    Psi_ref: A_ref_In exp(ikx) incoming, A_full_R exp(-ikx) reflected, nothing transmitted

with A_tr_In + A_ref_In = 1 and |A_tr_In| = |A_full_T|, |A_ref_In| = |A_full_R|.

The reflection sub-state is the part of Psi_full that is odd about the barrier
midpoint x_c (it never crosses the midpoint).  Every barrier here is mirror
symmetric, so Psi_full(2 x_c - x) solves the same equation and

    Psi_ref(x) = z [Psi_full(x) - Psi_full(2 x_c - x)]

is odd about x_c on the whole line.  Left of a the mirrored term is the purely
left-moving A_full_T exp(ik(2 x_c - x)), so requiring the reflected amplitude
of Psi_ref to be A_full_R fixes

    z = A_ref_In = A_full_R / (A_full_R - A_full_T exp(2ik x_c)).

The denominator has modulus 1 by unitarity and mirror symmetry, so z is
defined for every barrier, opaque ones included.  A_tr_In = 1 - z makes the
amplitude sum exact.  `solve_family` computes z over a whole k grid (the
family's `z`); `decompose` reads it at one k.

Masked sub-process fields then split the line at x_c:

    psi_ref = Psi_ref for x <= x_c, 0 beyond;  psi_tr = Psi_full - psi_ref.

Both masked fields carry spatially constant probability current (T_coef * k
for psi_tr, exactly 0 for psi_ref) at the price of a derivative kink at x_c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potentials import BarrierSpec
from .stationary import ScatteringSolution, evaluate_full, solve_stationary


@dataclass(frozen=True)
class Decomposition:
    A_tr_In: complex
    A_ref_In: complex
    A_tr_R: complex
    A_ref_R: complex
    degenerate: bool
    solution: ScatteringSolution  # the full state the split is taken from

    @property
    def k(self) -> float:
        return self.solution.k

    @property
    def barrier(self) -> BarrierSpec:
        return self.solution.barrier

    @property
    def x_c(self) -> float:
        return self.barrier.x_c


@dataclass(frozen=True)
class MaskedSubstates:
    x_grid: np.ndarray
    psi_tr: np.ndarray
    psi_ref: np.ndarray


def decompose(barrier: BarrierSpec, k: float) -> Decomposition:
    """Split the full state at k into its transmission and reflection parts."""
    sol = solve_stationary(barrier, k)
    z = complex(sol.family.z[0])
    return Decomposition(
        A_tr_In=1.0 - z,
        A_ref_In=z,
        A_tr_R=0j,
        A_ref_R=sol.A_full_R,
        degenerate=bool(sol.family.degenerate[0]),
        solution=sol,
    )


def evaluate_ref(dec: Decomposition, xs) -> np.ndarray:
    """Sample Psi_ref = z [Psi_full(x) - Psi_full(2 x_c - x)] on any grid."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if dec.degenerate:
        return np.zeros(len(xs), dtype=complex)
    pts = np.concatenate([xs, 2 * dec.x_c - xs])
    order = np.argsort(pts)
    vals = np.empty(len(pts), dtype=complex)
    vals[order] = evaluate_full(dec.solution, pts[order])
    return dec.A_ref_In * (vals[: len(xs)] - vals[len(xs):])


def evaluate_tr(dec: Decomposition, sol: ScatteringSolution, xs) -> np.ndarray:
    """Sample Psi_tr = Psi_full - Psi_ref on the full line."""
    return evaluate_full(sol, xs) - evaluate_ref(dec, xs)


def masked_substates(dec: Decomposition, sol: ScatteringSolution, xs) -> MaskedSubstates:
    """Masked sub-process fields psi_tr, psi_ref on a grid spanning [a, b].

    psi_ref is Psi_ref up to x_c and identically zero beyond; psi_tr is the
    pointwise complement, so psi_tr + psi_ref reproduces Psi_full exactly.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs[0] > dec.barrier.a or xs[-1] < dec.barrier.b:
        raise DomainError(
            f"grid [{xs[0]}, {xs[-1]}] must cover the barrier "
            f"[{dec.barrier.a}, {dec.barrier.b}]"
        )
    full = evaluate_full(sol, xs)
    ref = evaluate_ref(dec, xs)
    ref = np.where(xs <= dec.x_c, ref, 0.0)
    return MaskedSubstates(x_grid=xs, psi_tr=full - ref, psi_ref=ref)
