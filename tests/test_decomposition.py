import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from analytic import branch_candidates, branch_sweep, rect_ref_state, resonance_k
from conftest import random_symmetric_barrier


def test_candidate_algebra(canonical_sol, canonical_dec):
    # the moduli constraints admit exactly two incoming amplitudes; the
    # closed-form split picks one of them
    z1, z2 = branch_candidates(canonical_sol.A_full_T, canonical_sol.A_full_R)
    R = canonical_sol.R_coef
    T = canonical_sol.T_coef
    for z in (z1, z2):
        assert z.real == pytest.approx(R, abs=1e-14)
        assert abs(z) == pytest.approx(np.sqrt(R), abs=1e-13)
        assert abs(1 - z) == pytest.approx(np.sqrt(T), abs=1e-13)
    assert z1 == np.conj(z2)
    assert min(abs(canonical_dec.A_ref_In - z) for z in (z1, z2)) < 1e-14


def test_amplitude_sum_exact(canonical_dec):
    # the pair is constructed as (z, 1 - z): the sum identity is exact
    assert canonical_dec.A_tr_In + canonical_dec.A_ref_In == 1.0 + 0.0j


def test_moduli_match_full_amplitudes(canonical_dec, canonical_sol):
    assert abs(abs(canonical_dec.A_tr_In) - abs(canonical_sol.A_full_T)) < 1e-9
    assert abs(abs(canonical_dec.A_ref_In) - abs(canonical_sol.A_full_R)) < 1e-9


def test_real_part_is_reflection_coefficient(canonical_dec, canonical_sol):
    assert canonical_dec.A_ref_In.real == pytest.approx(
        canonical_sol.R_coef, rel=0, abs=1e-10
    )


def test_transmitted_share_of_ref_state_vanishes(canonical_dec):
    assert canonical_dec.A_tr_R == 0


def test_midpoint_zero(canonical_dec, canonical_barrier):
    val = ss.evaluate_ref(canonical_dec, np.array([canonical_barrier.x_c]))[0]
    assert abs(val) < 1e-8


def test_odd_symmetry_about_midpoint(canonical_dec, canonical_barrier):
    x_c = canonical_barrier.x_c
    d = np.linspace(0.01, 2.0, 37)
    left = ss.evaluate_ref(canonical_dec, x_c - d)
    right = ss.evaluate_ref(canonical_dec, x_c + d)
    assert np.max(np.abs(right + left)) < 1e-10


def _sweep(bar, sol, xs=()):
    return branch_sweep(bar.edges, bar.heights, sol.k, sol.A_full_T, sol.A_full_R, xs)


def test_selected_branch_beats_rejected(canonical_dec, canonical_barrier, canonical_sol):
    # the independent sweep vanishes at the midpoint on the branch the closed
    # form picks, and clearly not on the other one
    (z_odd, r_odd, _), (_, r_even, _) = _sweep(canonical_barrier, canonical_sol)
    assert r_odd < 1e-8
    assert r_even > 100 * r_odd
    assert abs(canonical_dec.A_ref_In - z_odd) < 1e-14


def test_even_branch_on_request(canonical_barrier, canonical_sol, canonical_dec):
    # the even comparison branch r / (r + t e^{2ik x_c}) is the rejected seed:
    # it does not vanish at the midpoint
    x_c = canonical_barrier.x_c
    _, (z_even, r_even, field) = _sweep(canonical_barrier, canonical_sol, [x_c])
    r, t = canonical_sol.A_full_R, canonical_sol.A_full_T
    assert abs(z_even - r / (r + t * np.exp(2j * canonical_sol.k * x_c))) < 1e-14
    assert r_even > 1e-4
    assert abs(field[0]) > 1e-4
    assert abs(z_even - canonical_dec.A_ref_In) > 1e-4


def test_ref_state_matches_mpmath_construction():
    z, f = rect_ref_state(1.0, 2.0, 1.0)
    dec = ss.decompose(ss.make_rectangular(0.0, 1.0, 2.0), 1.0)
    assert abs(dec.A_ref_In - z) < 1e-13
    for x in (-1.3, -0.2, 0.1, 0.35, 0.5):
        mine = ss.evaluate_ref(dec, np.array([x]))[0]
        assert abs(mine - f(x)) < 1e-12


def test_degenerate_at_resonance():
    k_res = resonance_k(1.0, 1.0)
    dec = ss.decompose(ss.make_rectangular(0.0, 1.0, 1.0), k_res)
    assert dec.degenerate
    assert dec.A_ref_In == 0
    assert dec.A_tr_In == 1
    vals = ss.evaluate_ref(dec, np.linspace(-2, 2, 11))
    assert np.all(vals == 0)


def test_free_particle_degenerate(free_barrier):
    dec = ss.decompose(free_barrier, 1.0)
    assert dec.degenerate


def test_masked_substates_partition(canonical_dec, canonical_sol):
    xs = np.linspace(-5.0, 6.0, 1201)
    ms = ss.masked_substates(canonical_dec, canonical_sol, xs)
    full = ss.evaluate_full(canonical_sol, xs)
    # psi_tr is defined as the pointwise complement full - psi_ref; that
    # identity is exact (the recombined sum can differ by one rounding step)
    np.testing.assert_array_equal(ms.psi_tr, full - ms.psi_ref)
    np.testing.assert_allclose(ms.psi_tr + ms.psi_ref, full, rtol=1e-14, atol=0)
    x_c = canonical_dec.x_c
    assert np.all(ms.psi_ref[xs > x_c] == 0)


def test_masked_substates_requires_covering_grid(canonical_dec, canonical_sol):
    with pytest.raises(ss.DomainError):
        ss.masked_substates(canonical_dec, canonical_sol, np.linspace(0.2, 0.4, 10))


def test_masked_ref_current_zero(canonical_dec, canonical_sol):
    h = 2e-4
    xs = np.arange(-3.0, canonical_dec.x_c - 3 * h, h)
    j = ss.probability_current(ss.evaluate_ref(canonical_dec, xs), h)
    assert np.max(np.abs(j)) < 1e-6


def test_masked_tr_current_constant(canonical_dec, canonical_sol):
    # masked transmission state carries flux k*T on both sides of the stitch
    k = canonical_sol.k
    h = 2e-4
    x_c = canonical_dec.x_c
    xs_l = np.arange(-3.0, x_c - 3 * h, h)
    xs_r = np.arange(x_c + 3 * h, 5.0, h)
    for xs in (xs_l, xs_r):
        full = ss.evaluate_full(canonical_sol, xs)
        ref = ss.evaluate_ref(canonical_dec, xs)
        ref[xs > x_c] = 0
        j = ss.probability_current(full - ref, h)
        assert np.max(np.abs(j - k * canonical_sol.T_coef)) < 1e-6


def test_deep_barrier_decomposition_finite():
    # kappa*L ~ 20, transmission ~1e-18: the sub-state stays finite and
    # vanishes at the midpoint
    bar = ss.make_rectangular(0.0, 2.0, 50.0)
    dec = ss.decompose(bar, 1.0)
    xs = np.linspace(-2.0, bar.x_c, 300)
    vals = ss.evaluate_ref(dec, xs)
    assert np.all(np.isfinite(vals))
    assert abs(vals[-1]) < 1e-8


def test_opaque_limit_identities():
    # T ~ 2e-53 puts the two branch seeds within one ulp of each other, so no
    # midpoint test can tell them apart; the mirror identity needs no choice
    bar = ss.make_rectangular(0.0, 6.0, 50.0)
    dec = ss.decompose(bar, 1.0)
    sol = dec.solution
    assert sol.T_coef < 1e-52
    x_c = bar.x_c
    d = np.linspace(0.01, 8.0, 41)
    left = ss.evaluate_ref(dec, x_c - d)
    right = ss.evaluate_ref(dec, x_c + d)
    assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    assert abs(ss.evaluate_ref(dec, [x_c])[0]) < 1e-8
    assert np.max(np.abs(right + left)) < 1e-10
    assert abs(abs(dec.A_tr_In) - abs(sol.A_full_T)) < 1e-9
    assert abs(abs(dec.A_ref_In) - abs(sol.A_full_R)) < 1e-9
    assert abs(dec.A_ref_In.real - sol.R_coef) < 1e-10
    h = 2e-4
    xs = np.arange(bar.a - 3.0, bar.a - 3 * h, h)
    assert np.max(np.abs(ss.probability_current(ss.evaluate_ref(dec, xs), h))) < 1e-6


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identities_random_barriers(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    bar = random_symmetric_barrier(rng)
    k = float(rng.uniform(0.2, 4.0))
    sol = ss.solve_stationary(bar, k)
    dec = ss.decompose(bar, k)
    assert dec.A_tr_In + dec.A_ref_In == 1.0 + 0.0j
    assert abs(abs(dec.A_tr_In) - abs(sol.A_full_T)) < 1e-9
    assert abs(abs(dec.A_ref_In) - abs(sol.A_full_R)) < 1e-9
    assert abs(dec.A_ref_In.real - sol.R_coef) < 1e-10
    if not dec.degenerate:
        (z_odd, r_odd, _), _ = _sweep(bar, sol)
        assert r_odd < 1e-8
        assert abs(dec.A_ref_In - z_odd) < 1e-12
        mid = ss.evaluate_ref(dec, np.array([bar.x_c]))[0]
        assert abs(mid) < 1e-8
