import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from analytic import branch_candidates, branch_sweep, rect_ref_state, resonance_k
from conftest import random_symmetric_barrier


def _ref(fam, xs):
    """Masked reflection sub-state at the family's first k on the grid xs."""
    return fam.split_basis(xs)[1][:, 0]


def test_candidate_algebra(canonical_fam):
    # the moduli constraints admit exactly two incoming amplitudes; the
    # closed-form split picks one of them
    z1, z2 = branch_candidates(canonical_fam.A_T[0], canonical_fam.A_R[0])
    R = canonical_fam.R[0]
    T = canonical_fam.T[0]
    for z in (z1, z2):
        assert z.real == pytest.approx(R, abs=1e-14)
        assert abs(z) == pytest.approx(np.sqrt(R), abs=1e-13)
        assert abs(1 - z) == pytest.approx(np.sqrt(T), abs=1e-13)
    assert z1 == np.conj(z2)
    assert min(abs(canonical_fam.z[0] - z) for z in (z1, z2)) < 1e-14


def test_amplitude_sum_exact(canonical_fam):
    # the pair is constructed as (z, 1 - z): the sum identity is exact
    z = canonical_fam.z[0]
    assert (1.0 - z) + z == 1.0 + 0.0j


def test_moduli_match_full_amplitudes(canonical_fam):
    z = canonical_fam.z[0]
    assert abs(abs(1.0 - z) - abs(canonical_fam.A_T[0])) < 1e-9
    assert abs(abs(z) - abs(canonical_fam.A_R[0])) < 1e-9


def test_real_part_is_reflection_coefficient(canonical_fam):
    assert canonical_fam.z[0].real == pytest.approx(
        canonical_fam.R[0], rel=0, abs=1e-10
    )


def test_transmitted_share_of_ref_state_vanishes(canonical_fam, canonical_barrier):
    # psi_ref carries nothing past the barrier, and psi_tr reflects nothing:
    # left of a it is the pure incoming wave (1 - z) exp(ikx)
    bar = canonical_barrier
    xs = np.concatenate([np.linspace(bar.a - 3.0, bar.a - 0.1, 9),
                         np.linspace(bar.b, bar.b + 3.0, 9)])
    tr, ref = canonical_fam.split_basis(xs)
    assert np.all(ref[9:] == 0)
    incoming = (1.0 - canonical_fam.z[0]) * np.exp(1j * xs[:9])
    assert np.max(np.abs(tr[:9, 0] - incoming)) < 1e-14


def test_midpoint_zero(canonical_fam, canonical_barrier):
    val = _ref(canonical_fam, [canonical_barrier.x_c])[0]
    assert abs(val) < 1e-8


def _odd_residual(fam, d):
    """max |Psi_ref(x_c - d) + Psi_ref(x_c + d)|, with the masked ref on the
    left and the unmasked continuation z [Psi(x_c + d) - Psi(x_c - d)] on the
    right; d ascending and positive."""
    x_c = fam.barrier.x_c
    left = _ref(fam, (x_c - d)[::-1])[::-1]
    full = fam.basis(np.concatenate([(x_c - d)[::-1], x_c + d]))[:, 0]
    right = fam.z[0] * (full[len(d):] - full[: len(d)][::-1])
    return float(np.max(np.abs(right + left)))


def test_odd_symmetry_about_midpoint(canonical_fam):
    d = np.linspace(0.01, 2.0, 37)
    assert _odd_residual(canonical_fam, d) < 1e-10


def _sweep(fam, xs=()):
    bar = fam.barrier
    return branch_sweep(bar.edges, bar.heights, fam.ks[0], fam.A_T[0], fam.A_R[0], xs)


def test_selected_branch_beats_rejected(canonical_fam):
    # the independent sweep vanishes at the midpoint on the branch the closed
    # form picks, and clearly not on the other one
    (z_odd, r_odd, _), (_, r_even, _) = _sweep(canonical_fam)
    assert r_odd < 1e-8
    assert r_even > 100 * r_odd
    assert abs(canonical_fam.z[0] - z_odd) < 1e-14


def test_even_branch_on_request(canonical_barrier, canonical_fam):
    # the even comparison branch r / (r + t e^{2ik x_c}) is the rejected seed:
    # it does not vanish at the midpoint
    x_c = canonical_barrier.x_c
    _, (z_even, r_even, field) = _sweep(canonical_fam, [x_c])
    r, t = canonical_fam.A_R[0], canonical_fam.A_T[0]
    assert abs(z_even - r / (r + t * np.exp(2j * canonical_fam.ks[0] * x_c))) < 1e-14
    assert r_even > 1e-4
    assert abs(field[0]) > 1e-4
    assert abs(z_even - canonical_fam.z[0]) > 1e-4


def test_ref_state_matches_mpmath_construction():
    z, f = rect_ref_state(1.0, 2.0, 1.0)
    fam = ss.solve_family(ss.make_rectangular(0.0, 1.0, 2.0), [1.0])
    assert abs(fam.z[0] - z) < 1e-13
    for x in (-1.3, -0.2, 0.1, 0.35, 0.5):
        mine = _ref(fam, [x])[0]
        assert abs(mine - f(x)) < 1e-12


def test_degenerate_at_resonance():
    k_res = resonance_k(1.0, 1.0)
    fam = ss.solve_family(ss.make_rectangular(0.0, 1.0, 1.0), [k_res])
    assert fam.degenerate[0]
    assert fam.z[0] == 0
    assert 1.0 - fam.z[0] == 1
    vals = _ref(fam, np.linspace(-2, 2, 11))
    assert np.all(vals == 0)


def test_free_particle_degenerate(free_barrier):
    assert ss.solve_family(free_barrier, [1.0]).degenerate[0]


def test_masked_substates_on_an_asymmetric_grid():
    # off a mirror-symmetric grid each mirror row is the state at the mirror
    # point itself, even where a node lies close to it
    fam = ss.solve_family(ss.make_symmetric(0.0, [(0.4, 3.0), (0.3, 0.5)]), [0.8, 1.0, 2.3])
    xs = np.sort(np.random.default_rng(3).uniform(-1.0, 2.5, 400))
    x_c, left = fam.barrier.x_c, xs <= fam.barrier.x_c
    mirror = np.array([fam.basis([2 * x_c - x])[0] for x in xs[left]])
    tr, ref = fam.split_basis(xs)
    np.testing.assert_allclose(ref[left], fam.z * (fam.basis(xs)[left] - mirror), rtol=0, atol=1e-14)


def test_masked_substates_partition(canonical_fam):
    xs = np.linspace(-5.0, 6.0, 1201)
    tr, ref = canonical_fam.split_basis(xs)
    full = canonical_fam.basis(xs)
    # left of x_c psi_tr is A_tr_In Psi(x) + z Psi(2 x_c - x), beyond it is
    # Psi: both exactly; the recombined sum differs by rounding steps only.
    # The grid is mirror symmetric about x_c, so the mirror rows are its own
    # rows, within rounding of the states at the mirror points
    x_c = canonical_fam.barrier.x_c
    left = xs <= x_c
    mirror = full[::-1][left]
    np.testing.assert_allclose(
        mirror, canonical_fam.basis((2 * x_c - xs[left])[::-1])[::-1], rtol=1e-14, atol=0)
    np.testing.assert_array_equal(
        tr[left], full[left] * canonical_fam.A_tr_In + mirror * canonical_fam.z)
    np.testing.assert_array_equal(tr[~left], full[~left])
    np.testing.assert_allclose(tr + ref, full, rtol=1e-14, atol=0)
    assert np.all(ref[~left] == 0)


def test_masked_ref_current_zero(canonical_fam):
    h = 2e-4
    xs = np.arange(-3.0, canonical_fam.barrier.x_c - 3 * h, h)
    j = ss.probability_current(_ref(canonical_fam, xs), h)
    assert np.max(np.abs(j)) < 1e-6


def test_masked_tr_current_constant(canonical_fam):
    # masked transmission state carries flux k*T on both sides of the stitch
    k = canonical_fam.ks[0]
    h = 2e-4
    x_c = canonical_fam.barrier.x_c
    xs_l = np.arange(-3.0, x_c - 3 * h, h)
    xs_r = np.arange(x_c + 3 * h, 5.0, h)
    for xs in (xs_l, xs_r):
        j = ss.probability_current(canonical_fam.split_basis(xs)[0][:, 0], h)
        assert np.max(np.abs(j - k * canonical_fam.T[0])) < 1e-6


def test_deep_barrier_decomposition_finite():
    # kappa*L ~ 20, transmission ~1e-18: the sub-state stays finite and
    # vanishes at the midpoint
    bar = ss.make_rectangular(0.0, 2.0, 50.0)
    xs = np.linspace(-2.0, bar.x_c, 300)
    vals = _ref(ss.solve_family(bar, [1.0]), xs)
    assert np.all(np.isfinite(vals))
    assert abs(vals[-1]) < 1e-8


def test_opaque_limit_identities():
    # T ~ 2e-53 puts the two branch seeds within one ulp of each other, so no
    # midpoint test can tell them apart; the mirror identity needs no choice
    bar = ss.make_rectangular(0.0, 6.0, 50.0)
    fam = ss.solve_family(bar, [1.0])
    z = fam.z[0]
    assert fam.T[0] < 1e-52
    x_c = bar.x_c
    d = np.linspace(0.01, 8.0, 41)
    tr, ref = fam.split_basis(np.concatenate([(x_c - d)[::-1], x_c + d]))
    assert np.all(np.isfinite(tr)) and np.all(np.isfinite(ref))
    assert abs(_ref(fam, [x_c])[0]) < 1e-8
    assert _odd_residual(fam, d) < 1e-10
    assert abs(abs(1.0 - z) - abs(fam.A_T[0])) < 1e-9
    assert abs(abs(z) - abs(fam.A_R[0])) < 1e-9
    assert abs(z.real - fam.R[0]) < 1e-10
    h = 2e-4
    xs = np.arange(bar.a - 3.0, bar.a - 3 * h, h)
    assert np.max(np.abs(ss.probability_current(_ref(fam, xs), h))) < 1e-6


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identities_random_barriers(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    bar = random_symmetric_barrier(rng)
    k = float(rng.uniform(0.2, 4.0))
    fam = ss.solve_family(bar, [k])
    z = fam.z[0]
    assert (1.0 - z) + z == 1.0 + 0.0j
    assert abs(abs(1.0 - z) - abs(fam.A_T[0])) < 1e-9
    assert abs(abs(z) - abs(fam.A_R[0])) < 1e-9
    assert abs(z.real - fam.R[0]) < 1e-10
    if not fam.degenerate[0]:
        (z_odd, r_odd, _), _ = _sweep(fam)
        assert r_odd < 1e-8
        assert abs(z - z_odd) < 1e-12
        assert abs(_ref(fam, [bar.x_c])[0]) < 1e-8
