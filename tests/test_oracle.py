"""Finite-difference cross-checks: stationary restart integrator and CN stepper."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import oracle as orc
from analytic import free_gaussian, rect_amplitudes, transfer_amplitudes


def test_gridspec_validation():
    with pytest.raises(ss.DomainError):
        orc.GridSpec(0.0, 1.0, 2, 0.01)
    with pytest.raises(ss.DomainError):
        orc.GridSpec(1.0, 1.0, 100, 0.01)
    with pytest.raises(ss.DomainError):
        orc.GridSpec(0.0, 1.0, 100, 0.0)


def test_numerov_matches_closed_form(canonical_barrier):
    ks = [0.6, 1.0, 2.5]
    A_T, A_R = orc.numerov_solve(canonical_barrier, ks)
    for k, a_t, a_r in zip(ks, A_T, A_R):
        t_ref, r_ref = rect_amplitudes(1.0, 2.0, k)
        assert abs(a_t - t_ref) < 1e-9
        assert abs(a_r - r_ref) < 1e-9


def test_numerov_matches_solver_multisegment():
    bar = ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)])
    ks = np.array([0.9, 1.7])
    A_T, A_R = orc.numerov_solve(bar, ks)
    fam = ss.solve_family(bar, ks)
    assert np.max(np.abs(A_T - fam.A_T)) < 1e-8
    assert np.max(np.abs(A_R - fam.A_R)) < 1e-8


def test_numerov_grid_matches_transfer_oracle():
    # unsorted ks from evanescent to oscillatory up to k = 30, where the
    # highest k, not the 0.005 default, sets the one step of the whole grid
    ks = np.random.default_rng(5).permutation(
        np.concatenate([np.linspace(0.3, 3.0, 12), np.linspace(3.0, 30.0, 10)]))
    barriers = (
        ss.make_rectangular(0.0, 1.0, 2.0),
        ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)]),
        ss.make_symmetric(0.0, [(0.3, -4.0), (0.2, 2.0)]),
        ss.make_symmetric(0.0, [(0.25, 4.0), (0.5, -30.0)]),
        ss.make_symmetric(-1.0, [(1.5, 0.5), (1.5, 0.3)]),
    )
    for bar in barriers:
        assert orc.numerov_step_size(bar, ks) < 0.2 * orc.numerov_step_size(bar, ks[ks < 3.5])
        A_T, A_R = orc.numerov_solve(bar, ks)
        for k, a_t, a_r in zip(ks, A_T, A_R):
            t_ref, r_ref = transfer_amplitudes(bar.edges, bar.heights, k)
            assert abs(a_t - t_ref) < 1e-8
            assert abs(a_r - r_ref) < 1e-8


def test_numerov_opaque_barrier_within_1e8():
    # kappa ~ 10 over a width of 6 (T ~ 1e-53): the growth-rate error under
    # the barrier, not the phase error outside it, sets the step here
    bar = ss.make_rectangular(0.0, 6.0, 50.0)
    ks = np.linspace(2.0, 5.0, 7)
    assert orc.numerov_step_size(bar, ks) < 0.5 * orc.numerov_step_size(
        ss.make_rectangular(0.0, 6.0, 0.0), ks)
    A_T, A_R = orc.numerov_solve(bar, ks)
    for k, a_t, a_r in zip(ks, A_T, A_R):
        t_ref, r_ref = transfer_amplitudes(bar.edges, bar.heights, k)
        assert abs(a_t - t_ref) < 1e-8
        assert abs(a_r - r_ref) < 1e-8


def test_numerov_step_survives_width_rounding():
    # 0.8500000000000001 / 0.005 is 170.00000000000003 in floats; the step
    # must stay width/170 so the 0.9 segments remain whole multiples of it
    bar = ss.make_symmetric(0.0, [(0.8500000000000001, 2.0), (0.9, 1.0)])
    assert orc.numerov_step_size(bar, [1.0]) == bar.widths[0] / 170
    A_T, A_R = orc.numerov_solve(bar, [1.0])
    fam = ss.solve_family(bar, [1.0])
    assert abs(A_T[0] - fam.A_T[0]) < 1e-8
    assert abs(A_R[0] - fam.A_R[0]) < 1e-8


def test_numerov_step_divides_every_width():
    # at k = 25.5 the wanted step is 0.3/496, which does not divide 0.5; the
    # next whole fraction of 0.3 that does is taken instead of a refusal
    bar = ss.make_symmetric(0.0, ((0.3, 1.0), (0.5, 2.0)))
    h = orc.numerov_step_size(bar, [25.5])
    steps = bar.widths / h
    assert np.max(np.abs(steps - np.round(steps))) < 1e-9 * steps.max()
    A_T, A_R = orc.numerov_solve(bar, [25.5])
    t_ref, r_ref = transfer_amplitudes(bar.edges, bar.heights, 25.5)
    assert abs(A_T[0] - t_ref) < 1e-8
    assert abs(A_R[0] - r_ref) < 1e-8


def test_numerov_free_identity():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    A_T, A_R = orc.numerov_solve(free, [1.3])
    assert abs(A_T[0] - 1.0) < 1e-9
    assert abs(A_R[0]) < 1e-9


def test_numerov_rejects_bad_k(canonical_barrier):
    for ks in ([0.0], [1.0, -0.5, 2.0], [], [float("nan")]):
        with pytest.raises(ss.DomainError):
            orc.numerov_solve(canonical_barrier, ks)


def test_numerov_rejects_incommensurate_widths():
    bar = ss.make_symmetric(0.0, [(0.3, 2.0), (0.2 * math.sqrt(2.0), 1.0)])
    with pytest.raises(ss.GridRefinementError, match="at or below 0.005"):
        orc.numerov_solve(bar, [1.0])


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
    monkeypatch.setattr(orc, "_lapack", lambda: (singular, None))
    with pytest.raises(ss.ToleranceError, match="singular"):
        orc.CrankNicolson(ss.make_rectangular(0.0, 1.0, 0.0),
                          orc.GridSpec(-5.0, 5.0, 11, 0.01))


def test_package_import_does_not_load_scipy():
    # SciPy is loaded only when a Crank-Nicolson propagator is built
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(ss.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, scatsplit, scatsplit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
