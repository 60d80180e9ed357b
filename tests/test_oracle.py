"""Finite-difference cross-checks: stationary restart integrator and CN stepper."""

import math

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import oracle as orc
from analytic import free_gaussian, rect_amplitudes


def test_gridspec_validation():
    with pytest.raises(ss.DomainError):
        orc.GridSpec(0.0, 1.0, 2, 0.01)
    with pytest.raises(ss.DomainError):
        orc.GridSpec(1.0, 1.0, 100, 0.01)
    with pytest.raises(ss.DomainError):
        orc.GridSpec(0.0, 1.0, 100, 0.0)


def test_numerov_matches_closed_form(canonical_barrier):
    for k in (0.6, 1.0, 2.5):
        _, _, A_T, A_R = orc.numerov_solve(canonical_barrier, k)
        t_ref, r_ref = rect_amplitudes(1.0, 2.0, k)
        assert abs(A_T - t_ref) < 1e-9
        assert abs(A_R - r_ref) < 1e-9


def test_numerov_matches_solver_multisegment():
    bar = ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)])
    for k in (0.9, 1.7):
        _, _, A_T, A_R = orc.numerov_solve(bar, k)
        sol = ss.solve_stationary(bar, k)
        assert abs(A_T - sol.A_full_T) < 1e-8
        assert abs(A_R - sol.A_full_R) < 1e-8


def test_numerov_step_survives_width_rounding():
    # 0.8500000000000001 / 0.005 is 170.00000000000003 in floats; the step
    # must stay width/170 so the 0.9 segments remain whole multiples of it
    bar = ss.make_symmetric(0.0, [(0.8500000000000001, 2.0), (0.9, 1.0)])
    _, _, A_T, A_R = orc.numerov_solve(bar, 1.0)
    sol = ss.solve_stationary(bar, 1.0)
    assert abs(A_T - sol.A_full_T) < 1e-8
    assert abs(A_R - sol.A_full_R) < 1e-8


def test_numerov_free_identity():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    _, _, A_T, A_R = orc.numerov_solve(free, 1.3)
    assert abs(A_T - 1.0) < 1e-9
    assert abs(A_R) < 1e-9


def test_numerov_rejects_bad_k(canonical_barrier):
    with pytest.raises(ss.DomainError):
        orc.numerov_solve(canonical_barrier, 0.0)


def test_numerov_rejects_incommensurate_widths():
    bar = ss.make_symmetric(0.0, [(0.3, 2.0), (0.2 * math.sqrt(2.0), 1.0)])
    with pytest.raises(ss.GridRefinementError):
        orc.numerov_solve(bar, 1.0)


def test_cn_free_gaussian():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    grid = orc.GridSpec(-45.0, 25.0, 7001, 0.005)
    xs = grid.xs
    psi0 = np.array([free_gaussian(x, 0.0, -15.0, 4.0, 1.0) for x in xs])
    out = orc.crank_nicolson_evolve(free, grid, psi0, 4.0)
    ref = np.array([free_gaussian(x, 4.0, -15.0, 4.0, 1.0) for x in xs])
    l2 = math.sqrt(float(np.sum(np.abs(out - ref) ** 2) * grid.dx))
    assert l2 < 1e-4
    drift = abs(
        float(np.sum(np.abs(out) ** 2) * grid.dx)
        - float(np.sum(np.abs(psi0) ** 2) * grid.dx)
    )
    assert drift < 1e-10  # the scheme is unitary up to roundoff


def test_cn_detects_boundary_contamination():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    grid = orc.GridSpec(-30.0, 0.0, 601, 0.01)
    psi0 = np.array([free_gaussian(x, 0.0, -12.0, 3.0, 1.5) for x in grid.xs])
    with pytest.raises(ss.ToleranceError):
        orc.crank_nicolson_evolve(free, grid, psi0, 12.0)


def test_cn_input_checks():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    grid = orc.GridSpec(-30.0, 10.0, 801, 0.01)
    with pytest.raises(ss.DomainError):
        orc.crank_nicolson_evolve(free, grid, np.zeros(17, dtype=complex), 1.0)
    psi0 = np.array([free_gaussian(x, 0.0, -15.0, 3.0, 1.0) for x in grid.xs])
    with pytest.raises(ss.DomainError):
        orc.crank_nicolson_evolve(free, grid, psi0, 0.123)


def test_cn_step_matches_dense_solve():
    # (1 + i dt H / 2) psi1 = (1 - i dt H / 2) psi0 with the 3-point
    # Laplacian and hard walls; no node sits on a potential jump
    bar = ss.make_symmetric(0.0, [(0.33, 2.0), (0.41, -1.0)])
    grid = orc.GridSpec(-2.03, 3.0, 41, 0.01)
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    assert np.min(np.abs(np.subtract.outer(xs, bar.edges))) > 1e-3
    H = (np.diag(1.0 / dx**2 + ss.potential_at(bar, xs))
         - np.diag(np.full(40, 0.5 / dx**2), 1) - np.diag(np.full(40, 0.5 / dx**2), -1))
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    want = np.linalg.solve(np.eye(41) + 0.5j * dt * H, (np.eye(41) - 0.5j * dt * H) @ psi0)
    got = orc.CrankNicolson(bar, grid).step(psi0)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_cn_singular_factor_is_typed(monkeypatch):
    # the LAPACK factorization reports an exactly zero pivot through info
    def singular(dl, d, du):
        return dl, d, du, du[:-1], np.arange(len(d), dtype=np.int32), 5
    monkeypatch.setattr(orc, "zgttrf", singular)
    with pytest.raises(ss.ToleranceError, match="singular"):
        orc.CrankNicolson(ss.make_rectangular(0.0, 1.0, 0.0),
                          orc.GridSpec(-5.0, 5.0, 11, 0.01))
