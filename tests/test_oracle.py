"""Finite-difference cross-checks: stationary restart integrator and CN stepper."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import oracle as orc
from scatsplit.wavepacket import auto_grid
from analytic import free_gaussian, rect_amplitudes, transfer_amplitudes


def test_cn_grid_validation():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs = np.linspace(0.0, 1.0, 100)
    bent = xs.copy()
    bent[50] += 1e-6
    for grid, dt in ((np.linspace(0.0, 1.0, 2), 0.01),  # under 3 nodes
                     (np.full(100, 1.0), 0.01),          # no extent
                     (xs[::-1], 0.01),                   # descending
                     (xs ** 2, 0.01),                    # steps not uniform
                     (bent, 0.01),                       # one node 1e-4 dx off
                     (xs, 0.0), (xs, -0.01), (xs, math.nan), (xs, math.inf)):
        with pytest.raises(ss.DomainError):
            orc.CrankNicolson(free, grid, dt)


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
    # 0.8500000000000001 / 0.005 is 170.00000000000003 in floats; the
    # segment must still take 170 steps, not 171
    bar = ss.make_symmetric(0.0, [(0.8500000000000001, 2.0), (0.9, 1.0)])
    h = orc.numerov_step_size(bar, [1.0])
    assert h == 0.005
    assert orc._segment_steps(bar, [1.0]).tolist() == [170, 180, 180, 170]
    A_T, A_R = orc.numerov_solve(bar, [1.0])
    fam = ss.solve_family(bar, [1.0])
    assert abs(A_T[0] - fam.A_T[0]) < 1e-8
    assert abs(A_R[0] - fam.A_R[0]) < 1e-8


def test_numerov_takes_incommensurate_widths():
    # no step divides both 0.3 and 0.2 sqrt 2, nor 0.4137 and 0.2281 below
    # 0.005, and at k = 25.5 0.3/496 does not divide 0.5: each segment steps
    # on its own whole fraction of its width
    for half in ([(0.3, 2.0), (0.2 * math.sqrt(2.0), 1.0)], [(0.4137, 2.0), (0.2281, 1.0)],
                 [(0.3, 1.0), (0.5, 2.0)]):
        bar = ss.make_symmetric(0.0, half)
        for k in (1.0, 25.5):
            h = orc.numerov_step_size(bar, [k])
            steps = orc._segment_steps(bar, [k])
            assert np.all(bar.widths / steps <= h * (1 + 1e-9))
            A_T, A_R = orc.numerov_solve(bar, [k])
            t_ref, r_ref = transfer_amplitudes(bar.edges, bar.heights, k)
            assert abs(A_T[0] - t_ref) < 1e-8
            assert abs(A_R[0] - r_ref) < 1e-8


def test_numerov_refines_a_steep_narrow_segment_at_low_k():
    # a 0.024-wide wall of height 32 between two wells: at k = 0.129 its
    # five phase-budget steps leave the exit stencil off by 1e-7 psi, and
    # the amplitudes off by 6.3e-7; the stencil's own bound takes 14 steps
    # there and 222 in the wells, and the amplitudes read 1.3e-8
    bar = ss.make_symmetric(0.0, [(0.8869389407384182, -7.777999280123533),
                                  (0.023782932543673814, 31.93471009854384)])
    k = 0.12889861242497666
    assert orc._segment_steps(bar, [k]).tolist() == [222, 14, 14, 222]
    A_T, A_R = orc.numerov_solve(bar, [k])
    t_ref, r_ref = transfer_amplitudes(bar.edges, bar.heights, k)
    assert abs(A_T[0] - t_ref) < 5e-8
    assert abs(A_R[0] - r_ref) < 5e-8


def test_numerov_opaque_beyond_float_range():
    # kappa w ~ 715 > 709: psi grows past the float range under the barrier,
    # so the march rescales and A_T ~ 1e-311 comes from the log scale
    bar = ss.make_rectangular(0.0, 16.0, 1000.0)
    ks = [1.0, 3.0, 10.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        A_T, A_R = orc.numerov_solve(bar, ks)
    assert np.all(np.isfinite(A_T)) and np.all(np.isfinite(A_R))
    for k, a_t, a_r in zip(ks, A_T, A_R):
        t_ref, r_ref = rect_amplitudes(16.0, 1000.0, k)
        assert 0 < abs(t_ref) < 1e-300
        assert abs(a_t - t_ref) < 1e-8 * abs(t_ref)
        assert abs(a_r - r_ref) < 1e-8


def test_numerov_free_identity():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    A_T, A_R = orc.numerov_solve(free, [1.3])
    assert abs(A_T[0] - 1.0) < 1e-9
    assert abs(A_R[0]) < 1e-9


def test_numerov_rejects_bad_k(canonical_barrier):
    for ks in ([0.0], [1.0, -0.5, 2.0], [], [float("nan")]):
        with pytest.raises(ss.DomainError):
            orc.numerov_solve(canonical_barrier, ks)


def test_cn_free_gaussian():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs, dx = np.linspace(-45.0, 25.0, 7001), 0.01
    psi0 = np.array([free_gaussian(x, 0.0, -15.0, 4.0, 1.0) for x in xs])
    out = orc.CrankNicolson(free, xs, 0.005).evolve(psi0, 800)
    ref = np.array([free_gaussian(x, 4.0, -15.0, 4.0, 1.0) for x in xs])
    l2 = math.sqrt(float(np.sum(np.abs(out - ref) ** 2) * dx))
    assert l2 < 1e-4
    drift = abs(
        float(np.sum(np.abs(out) ** 2) * dx)
        - float(np.sum(np.abs(psi0) ** 2) * dx)
    )
    assert drift < 1e-10  # the scheme is unitary up to roundoff


def test_cn_detects_boundary_contamination():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs = np.linspace(-30.0, 0.0, 601)
    psi0 = np.array([free_gaussian(x, 0.0, -12.0, 3.0, 1.5) for x in xs])
    with pytest.raises(ss.ToleranceError):
        orc.CrankNicolson(free, xs, 0.01).evolve(psi0, 1200)


def test_cn_refuses_a_nan_field():
    # a NaN density must fail the edge check, not pass it
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs = np.linspace(-30.0, 10.0, 801)
    psi0 = np.array([free_gaussian(x, 0.0, -10.0, 3.0, 1.0) for x in xs])
    psi0[400] = np.nan
    with pytest.raises(ss.ToleranceError, match="edge density nan"):
        orc.CrankNicolson(free, xs, 0.01).evolve(psi0, 1)


def test_cn_input_checks():
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    cn = orc.CrankNicolson(free, np.linspace(-30.0, 10.0, 801), 0.01)
    with pytest.raises(ss.DomainError, match="does not match the grid"):
        cn.evolve(np.zeros(17, dtype=complex), 100)


def test_cn_step_matches_dense_solve():
    # the Pade (3,3) step as three dense factors (M + c_j K)^-1 (M - c_j K),
    # c_j = i dt / z_j at the roots z_j of D(z) = 1 - z/2 + z^2/10 - z^3/120
    # (found here by numpy), with K = -L/2 + M V, the Numerov mass matrix
    # M = tridiag(1, 10, 1) / 12, the 3-point L and hard walls, and as
    # R33 = D(Z)^-1 D(-Z) at Z = -i dt M^-1 K, at a small dt and at one the
    # cross-check takes; every node is at least 1e-3 from a jump, and the
    # four nodes around each jump carry its shifts
    bar = ss.make_symmetric(0.0, [(0.33, 2.0), (0.41, -1.0)])
    roots = np.roots([-1 / 120, 1 / 10, -1 / 2, 1])
    assert np.max(np.abs(np.sort_complex(roots) - np.sort_complex(np.array(orc._PADE_ROOTS)))) < 1e-14
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    xs = np.linspace(-2.03, 3.0, 41)
    dx = (xs[-1] - xs[0]) / 40
    for dt in (0.01, 0.3):
        assert np.min(np.abs(np.subtract.outer(xs, bar.edges))) > 1e-3
        V = ss.potential_at(bar, xs)
        for xe, vm, vp in zip(bar.edges, np.r_[0.0, bar.heights], np.r_[bar.heights, 0.0]):
            j = int(np.searchsorted(xs, xe)) - 1
            V[j - 1:j + 3] += orc._jump_shifts((xe - xs[j]) / dx, vm, vp, dx)
        ones = np.ones(40)
        M = (10 * np.eye(41) + np.diag(ones, 1) + np.diag(ones, -1)) / 12
        L = (np.diag(ones, 1) + np.diag(ones, -1) - 2 * np.eye(41)) / dx**2
        K = -L / 2 + M @ np.diag(V)
        got = orc.CrankNicolson(bar, xs, dt).step(psi0)
        want = psi0
        for z in roots:
            c = 1j * dt / z
            want = np.linalg.solve(M + c * K, (M - c * K) @ want)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        Z = -1j * dt * np.linalg.solve(M, K)
        I = np.eye(41)
        Z2 = Z @ Z
        D = I - Z / 2 + Z2 / 10 - Z2 @ Z / 120
        r33 = np.linalg.solve(D, (I + Z / 2 + Z2 / 10 + Z2 @ Z / 120) @ psi0)
        assert np.max(np.abs(got - r33)) < 1e-13 * np.max(np.abs(r33))
        assert abs(np.linalg.norm(got) - np.linalg.norm(psi0)) < 1e-13 * np.linalg.norm(psi0)


def test_cn_time_order():
    # a free Gaussian on a fine grid (dx = 0.005), so the time error
    # dominates: the Pade (3,3) step's error against the exact packet falls
    # about 64x per halving of dt (measured 62x; the Pade (2,2) step's would
    # fall 16x, the midpoint rule's 4x)
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs = np.linspace(-30.0, 30.0, 12001)
    psi0 = np.array([free_gaussian(x, 0.0, -4.0, 4.0, 2.0) for x in xs])
    ref = np.array([free_gaussian(x, 4.0, -4.0, 4.0, 2.0) for x in xs])
    errors = []
    for dt in (0.4, 0.2, 0.1):
        out = orc.CrankNicolson(free, xs, dt).evolve(psi0, round(4.0 / dt))
        errors.append(math.sqrt(float(np.sum(np.abs(out - ref) ** 2) * 0.005)))
    assert errors[0] > 48 * errors[1] > 48**2 * errors[2]


@pytest.mark.parametrize("x0, sigma, k0, span", [
    (-4.0, 4.0, 2.0, 4.0),
    (-40.0, 2.5, 2.2, 6.0),
    (-40.0, 8.0, 1.0, 4.0),
])
def test_cross_check_steps_keep_a_free_gaussian_within_budget(x0, sigma, k0, span):
    # a free Gaussian on a fine grid (dx = 0.005, so the step's error
    # dominates) over the steps cross_check_plan takes from the packet's
    # spectrum: its l2 against the exact packet stays within twice the
    # budget, and the plan's estimate of it within 10 % (measured 1.5 %)
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    pk = ss.make_gaussian_packet(x0, sigma, k0, n=512)
    k_hi = float(pk.ks[-1])
    lo = x0 - 8 * sigma - 5
    hi = x0 + k_hi * span + 8 * sigma * math.hypot(1.0, span / sigma**2) + 5
    xs = np.linspace(lo, hi, round((hi - lo) / 0.005) + 1)
    dt, nsteps, estimate = orc.cross_check_plan(xs, pk.ks, pk.spectral_weight, span)
    assert dt == pytest.approx(span / nsteps, rel=1e-15)
    psi0 = np.array([free_gaussian(x, 0.0, x0, sigma, k0) for x in xs])
    ref = np.array([free_gaussian(x, span, x0, sigma, k0) for x in xs])
    out = orc.CrankNicolson(free, xs, dt).evolve(psi0, nsteps)
    l2 = math.sqrt(float(np.sum(np.abs(out - ref) ** 2) * (xs[-1] - xs[0]) / (len(xs) - 1)))
    assert l2 < 2 * orc._TIME_ERROR
    assert estimate <= orc._TIME_ERROR and abs(l2 / estimate - 1) < 0.1
    # one step fewer would have been over the budget
    assert estimate * (nsteps / (nsteps - 1)) ** 6 > orc._TIME_ERROR or nsteps == 1


def test_cn_watches_the_walls_between_checks_of_the_last_step():
    # a fast packet reflects off the right wall around t = 2 and is 30 units
    # clear of both walls by the last step (t = 8), so only a check made in
    # between sees it touch the edge
    free = ss.make_rectangular(0.0, 1.0, 0.0)
    xs = np.linspace(-60.0, 0.0, 3001)
    psi0 = np.array([free_gaussian(x, 0.0, -10.0, 2.0, 5.0) for x in xs])
    cn = orc.CrankNicolson(free, xs, 0.04)
    nsteps = 200  # to t = 8
    psi = psi0
    for _ in range(nsteps):
        psi = cn.step(psi)
    assert max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2) < 1e-12
    with pytest.raises(ss.ToleranceError, match="boundary contamination at step"):
        cn.evolve(psi0, nsteps)


def test_cn_spatial_order_at_fixed_dt():
    # a packet crossing x = 0 at dt = 0.04, each grid against the
    # same scheme at dx = 0.005: with no jump the compact Laplacian's
    # error falls 16x per halving of dx; the jumps, off the nodes at every dx
    # here, stay bounded at the cross-check dx
    def run(bar, dx):
        xs = np.linspace(-30.0, 20.0, round(50.0 / dx) + 1)
        psi0 = np.exp(-(xs + 12.0) ** 2 / 16 + 2j * xs) / (8 * math.pi) ** 0.25
        return orc.CrankNicolson(bar, xs, 0.04).evolve(psi0, 150)  # to t = 6

    def errors(bar, dxs):
        ref = run(bar, 0.005)
        return [math.sqrt(float(np.sum(np.abs(run(bar, dx) - ref[::round(dx / 0.005)]) ** 2) * dx))
                for dx in dxs]

    e = errors(ss.make_rectangular(0.0, 1.0, 0.0), (0.04, 0.02, 0.01))
    assert e[0] > 12 * e[1] > 144 * e[2]
    for bar, bound in ((ss.make_rectangular(0.013, 0.513, 50.0), 2.5e-5),
                       (ss.make_rectangular(0.013, 1.013, -5.0), 3e-6)):
        assert errors(bar, (orc.CROSS_CHECK_DX,))[0] < bound


def test_cross_check_grid_resolves_jumps_off_nodes():
    # synthesis against Crank-Nicolson on the cross-check grid while the
    # packet scatters off a two-step barrier whose four jumps sit at
    # different offsets between nodes (1.3e-2 with the nodes sampling the
    # step as it is, 3.5e-3 for the 3-point Laplacian at dx = 0.004)
    bar = ss.make_symmetric(-0.5, [(0.4137, 3.0), (0.3311, 1.0)])
    pk = ss.make_gaussian_packet(bar.a - 25.0, 5.0, 1.2, barrier=bar, n=256)
    xs = auto_grid(pk, bar, (22.0,), dx=orc.CROSS_CHECK_DX)
    dt, steps, _ = orc.cross_check_plan(xs, pk.ks, pk.spectral_weight, 8.0)
    psi0 = ss.snapshot(pk, bar, 14.0, xs=xs).psi_full
    psi1 = orc.CrankNicolson(bar, xs, dt).evolve(psi0, steps)
    ref = ss.snapshot(pk, bar, 14.0 + steps * dt, xs=xs)
    assert math.sqrt(float(np.sum(np.abs(psi1 - ref.psi_full) ** 2) * orc.CROSS_CHECK_DX)) < 2e-5


def test_cross_check_fields_leave_no_subnormal():
    # the cross-check starts from the synthesized field on its whole grid,
    # so no zero pad feeds the solves tiny values that underflow: no entry
    # of the start or end field is subnormal (a pad of them slowed a solve
    # about 8x per node), and the start field's smallest modulus is normal
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=192)
    xs = auto_grid(pk, bar, (0.0, 40.0), dx=orc.CROSS_CHECK_DX)
    dt, steps, _ = orc.cross_check_plan(xs, pk.ks, pk.spectral_weight, 40.0)
    psi0 = ss.snapshot(pk, bar, 0.0, xs=xs).psi_full
    psi1 = orc.CrankNicolson(bar, xs, dt).evolve(psi0, steps)
    assert np.abs(psi0).min() > 1e-100
    for psi in (psi0, psi1):
        parts = np.abs(np.concatenate([psi.real, psi.imag]))
        assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))


def test_cn_singular_factor_is_typed(monkeypatch):
    # the LAPACK factorization reports an exactly zero pivot through info
    def singular(dl, d, du):
        return dl, d, du, du[:-1], np.arange(len(d), dtype=np.int32), 5
    monkeypatch.setattr(orc, "_lapack", lambda: (singular, None))
    with pytest.raises(ss.ToleranceError, match="singular"):
        orc.CrankNicolson(ss.make_rectangular(0.0, 1.0, 0.0), np.linspace(-5.0, 5.0, 11), 0.01)


def test_package_import_does_not_load_scipy():
    # SciPy is loaded only when a Crank-Nicolson propagator is built
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(ss.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, scatsplit, scatsplit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
