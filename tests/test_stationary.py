import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from analytic import (
    gauss_legendre_nodes, piecewise_quad, rect_amplitudes, rect_full_value, resonance_k,
    transfer_amplitudes,
)
from conftest import planted_ks, random_symmetric_barrier

# frozen from the closed-form rectangular transmission probability
T_CANONICAL = 0.09096685039584551


def test_canonical_transmission(canonical_fam):
    assert canonical_fam.T[0] == pytest.approx(T_CANONICAL, rel=0, abs=1e-15)


def test_unitarity_canonical(canonical_fam):
    assert abs(canonical_fam.T[0] + canonical_fam.R[0] - 1.0) < 1e-12


@pytest.mark.parametrize("L,V0,k", [
    (1.0, 2.0, 1.0),     # tunneling
    (1.0, 2.0, 2.5),     # overhead
    (1.0, 0.5, 1.0),     # degenerate E = V0
    (2.0, 1.0, 0.3),     # deep tunneling
    (0.5, 6.0, 3.0),     # short, tall
])
def test_amplitudes_match_closed_form(L, V0, k):
    bar = ss.make_rectangular(0.0, L, V0)
    fam = ss.solve_family(bar, [k])
    a_t, a_r = rect_amplitudes(L, V0, k)
    assert abs(fam.A_T[0] - a_t) < 1e-13
    assert abs(fam.A_R[0] - a_r) < 1e-13


def test_shifted_interval_reflection_phase():
    # moving the barrier multiplies the reflected amplitude by exp(2ika)
    a_t, a_r = rect_amplitudes(1.0, 2.0, 1.3, a=-4.0)
    fam = ss.solve_family(ss.make_rectangular(-4.0, -3.0, 2.0), [1.3])
    assert abs(fam.A_T[0] - a_t) < 1e-13
    assert abs(fam.A_R[0] - a_r) < 1e-13


def test_resonance_full_transmission():
    k_res = resonance_k(1.0, 1.0, n=1)
    fam = ss.solve_family(ss.make_rectangular(0.0, 1.0, 1.0), [k_res])
    assert fam.T[0] == pytest.approx(1.0, abs=1e-12)
    assert fam.R[0] < 1e-12


def test_free_particle():
    fam = ss.solve_family(ss.make_rectangular(0.0, 3.0, 0.0), [0.7])
    assert fam.A_T[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(fam.A_R[0]) < 1e-14


def test_invalid_k_rejected():
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ss.DomainError):
            ss.solve_family(bar, [bad])


def test_field_continuity_at_edges(canonical_barrier):
    fam = ss.solve_family(canonical_barrier, [1.7])
    eps = 1e-9
    for edge in canonical_barrier.edges:
        lo, hi = fam.basis([edge - eps, edge + eps])[:, 0]
        assert abs(hi - lo) < 1e-7  # C^1 field, eps * |psi'| slack


def test_multi_segment_continuity():
    bar = ss.make_symmetric(-1.0, [(0.5, 3.0), (0.5, 1.0)])
    fam = ss.solve_family(bar, [1.2])
    eps = 1e-9
    for edge in bar.edges:
        lo, hi = fam.basis([edge - eps, edge + eps])[:, 0]
        assert abs(hi - lo) < 1e-7


def test_deep_barrier_no_overflow():
    # kappa * L ~ 250: naive transfer matrices overflow, scaled sweep must not
    bar = ss.make_rectangular(0.0, 8.0, 500.0)
    fam = ss.solve_family(bar, [1.0])
    assert np.isfinite(fam.T[0])
    assert fam.T[0] > 0
    assert abs(fam.T[0] + fam.R[0] - 1.0) < 1e-10
    # interior field representable too
    xs = np.linspace(0.0, 8.0, 50)
    vals = fam.basis(xs)
    assert np.all(np.isfinite(vals))


def test_unitarity_guard_trips_on_nan():
    # direct API misuse that would produce garbage must raise, not return
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    with pytest.raises(ss.DomainError):
        ss.solve_family(bar, [float("inf")])


def test_unitarity_refusal_names_a_narrow_resonance():
    # within 1e-8 of a double-barrier resonance plain transfer matrices miss
    # unitarity by 3.6e-9 as well: the gate reads the sweep's conditioning,
    # and the refusal names the resonance by its dwell time; the miss's
    # mantissa is the rounding of an ill-conditioned sweep, so only its sign
    # and exponent are pinned
    bar = ss.make_symmetric(0.0, [(0.8, 60.0), (1.0, 0.0)])
    k = 1.4390489260591632
    A_T, A_R = transfer_amplitudes(bar.edges, bar.heights, k)
    assert abs(abs(A_T) ** 2 + abs(A_R) ** 2 - 1.0) > 1e-9
    with pytest.raises(ss.ToleranceError, match=(
            r"^unitarity violated by -\d\.\d{3}e-09 at k=1\.4390489260591632: a narrow "
            r"resonance there \(dwell time 3\.83e\+08\) leaves the transfer sweep "
            r"ill-conditioned")):
        ss.solve_family(bar, [1.0, k])


def test_probability_current_constancy(canonical_fam):
    # current of the full state equals k*T in every region, to stencil accuracy
    k = canonical_fam.ks[0]
    h = 2e-4
    for lo, hi in [(-3.0, -1.0), (0.1, 0.9), (1.5, 3.5)]:
        xs = np.arange(lo, hi, h)
        j = ss.probability_current(canonical_fam.basis(xs)[:, 0], h)
        expect = k * canonical_fam.T[0]
        assert np.max(np.abs(j - expect)) < 1e-6


def _assert_family_matches_transfer(bar, ks, tol=1e-12):
    fam = ss.solve_family(bar, ks)
    for j, k in enumerate(ks):
        a_t, a_r = transfer_amplitudes(bar.edges, bar.heights, float(k))
        assert abs(fam.A_T[j] - a_t) <= tol
        assert abs(fam.A_R[j] - a_r) <= tol
    return fam


def _transfer_states(bar, k, xs):
    """The full state at xs, test side: the transmitted wave A_T exp(ikx) at b
    carried back to each x by plain unscaled transfer matrices, one complex
    q = sqrt(k^2 - 2V) per segment with the linear limit at q = 0, and
    exp(ikx) + A_R exp(-ikx) left of a (amplitudes from the same matrices)."""
    A_T, A_R = transfer_amplitudes(bar.edges, bar.heights, k)
    edges = [float(e) for e in bar.edges]
    xs = np.asarray(xs, dtype=float)
    out = np.empty(len(xs), dtype=complex)
    u = A_T * cmath.exp(1j * k * edges[-1])
    v = 1j * k * u
    for j in range(len(bar.heights) - 1, -1, -1):
        q = cmath.sqrt(k * k - 2 * float(bar.heights[j]))

        def back(s):  # (psi, psi') a distance s left of the segment's right edge
            if q == 0:
                return u - s * v, v
            c, sn = np.cos(q * s), np.sin(q * s)
            return c * u - sn / q * v, q * sn * u + c * v

        rows = (xs >= edges[j]) & (xs < edges[j + 1])
        out[rows] = back(edges[j + 1] - xs[rows])[0]
        u, v = back(edges[j + 1] - edges[j])
    left, right = xs < edges[0], xs >= edges[-1]
    out[left] = np.exp(1j * k * xs[left]) + A_R * np.exp(-1j * k * xs[left])
    out[right] = A_T * np.exp(1j * k * xs[right])
    return out


def _assert_basis_matches_transfer_states(fam, xs, tol=1e-13):
    """Every column of fam.basis(xs) within tol of its largest test-side value."""
    got = fam.basis(xs)
    for j, k in enumerate(fam.ks):
        want = _transfer_states(fam.barrier, float(k), xs)
        assert np.max(np.abs(got[:, j] - want)) <= tol * np.max(np.abs(want)), k


def test_solve_family_matches_pointwise(canonical_barrier):
    # the grid crosses the barrier top at k = 2: evanescent, then oscillatory
    ks = np.linspace(0.5, 3.0, 17)
    fam = _assert_family_matches_transfer(canonical_barrier, ks)
    _assert_basis_matches_transfer_states(fam, np.linspace(-1.0, 2.0, 61))


def test_solve_family_random_barriers_with_wells():
    rng = np.random.default_rng(8)
    for _ in range(40):
        bar = random_symmetric_barrier(rng, allow_wells=True)
        _assert_family_matches_transfer(bar, np.sort(rng.uniform(0.2, 4.0, 16)))


def test_solve_family_exact_degeneracy():
    # E = V exactly on the inner step at k = 1: q = 0 there, the linear limit
    bar = ss.make_symmetric(0.0, [(0.4, 3.0), (0.3, 0.5)])
    fam = _assert_family_matches_transfer(bar, np.array([0.6, 1.0, 1.4]))
    xs = np.linspace(-1.0, 2.5, 71)
    _assert_basis_matches_transfer_states(fam, xs)
    eps = 1e-9
    for edge in bar.edges:
        lo, hi = fam.basis([edge - eps, edge + eps])[:, 1]
        assert abs(hi - lo) < 1e-7
    assert np.all(np.isfinite(fam.basis(xs)[:, 1]))


def test_family_basis_columns_are_the_scalar_states():
    bar = ss.make_symmetric(-1.0, [(0.5, 3.0), (0.5, -1.0)])
    ks = np.linspace(0.4, 3.2, 9)
    xs = np.linspace(-3.0, 2.0, 101)
    M = ss.solve_family(bar, ks).basis(xs)
    for j, k in enumerate(ks):
        np.testing.assert_allclose(
            M[:, j], ss.solve_family(bar, [k]).basis(xs)[:, 0],
            rtol=1e-13, atol=1e-13)


def test_basis_on_unsorted_k_matches_transfer_states():
    # unsorted k on both sides of both heights and on them (k = 1 and k = 2
    # put E on 0.5 and 2), so each segment's columns switch between the pair
    # and the local form many times
    bar = ss.make_symmetric(-0.5, [(0.4, 2.0), (0.35, 0.5)])
    ks = np.array([2.5, 0.3, 1.0, 2.0, 0.9, 1.0, 3.1, 0.5, 2.0, 1.2, 1.7])
    fam = ss.solve_family(bar, ks)
    _assert_basis_matches_transfer_states(fam, np.linspace(bar.a - 0.5, bar.b + 0.5, 61))


def test_interior_integrals_are_computed_once_and_read_only(canonical_fam):
    first = canonical_fam.interior_integrals()
    assert canonical_fam.interior_integrals() is first
    assert not any(a.flags.writeable for a in first)


def test_shifted_amplitudes_match_per_channel_families():
    # one sweep over stacked channels equals one family per shifted barrier,
    # bit for bit, on a barrier with a well and E = V columns in every channel
    bar = ss.make_symmetric(-0.3, [(0.4, 2.0), (0.3, 0.5), (0.25, -1.5)])
    ks = np.concatenate([np.linspace(0.2, 3.1, 59), [1.0, 2.0]])
    shifts = [-5e-4, 5e-4, -0.25, 0.25, 0.0]
    A_T, A_R = ss.stationary._shifted_amplitudes(bar, ks, shifts)
    assert A_T.shape == A_R.shape == (len(shifts), len(ks))
    for r, dV in enumerate(shifts):
        fam = ss.solve_family(ss.shifted(bar, dV), ks)
        assert np.array_equal(A_T[r], fam.A_T) and np.array_equal(A_R[r], fam.A_R), dV


def test_shifted_amplitudes_refuse_a_channel_by_name():
    # the unshifted channel sits on the narrow resonance that solve_family
    # refuses; the shifted one is off it (the miss's mantissa is rounding)
    bar = ss.make_symmetric(0.0, [(0.8, 60.0), (1.0, 0.0)])
    ks = [1.0, 1.4390489260591632]
    ss.stationary._shifted_amplitudes(bar, ks, [1e-3])
    with pytest.raises(ss.ToleranceError, match=(
            r"^unitarity violated by -\d\.\d{3}e-09 at k=1\.4390489260591632: a narrow")):
        ss.stationary._shifted_amplitudes(bar, ks, [1e-3, 0.0])


def test_solve_family_rejects_bad_grids(canonical_barrier):
    for bad in ([], [1.0, 0.0], [1.0, float("nan")], [[1.0, 2.0]]):
        with pytest.raises(ss.DomainError):
            ss.solve_family(canonical_barrier, bad)
    with pytest.raises(ss.DomainError):
        ss.solve_family(canonical_barrier, [1.0]).basis([1.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_unitarity_random_barriers(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    bar = random_symmetric_barrier(rng)
    k = float(rng.uniform(0.2, 4.0))
    fam = ss.solve_family(bar, [k])
    assert abs(fam.T[0] + fam.R[0] - 1.0) < 1e-10
    # and at k planted on and next to every step's E = V
    fam = _assert_family_matches_transfer(bar, planted_ks(bar.heights), tol=1e-13)
    assert np.all(np.abs(fam.T + fam.R - 1.0) < 1e-10)


@pytest.mark.parametrize("k", [1.0, 2.0, 2.0 * (1 + 1e-12), 2.0 * (1 - 1e-9), 2.5])
def test_basis_matches_closed_form_rectangle(k):
    # the 50-digit closed-form state of rect 0..1, V0 = 2, under, exactly at
    # (E = V, the linear interior), next to and over the top, to 1e-13 of its
    # peak
    fam = ss.solve_family(ss.make_rectangular(0.0, 1.0, 2.0), [k])
    xs = np.linspace(-0.5, 1.5, 41)
    want = np.array([rect_full_value(1.0, 2.0, k, x) for x in xs])
    assert np.max(np.abs(fam.basis(xs)[:, 0] - want)) <= 1e-13 * np.max(np.abs(want))


def _quadrature_integrals(bar, k):
    """The six interior integrals by 24-node Gauss-Legendre quadrature of the
    test-side states, on pieces ending at the edges and x_c, each cut so
    that |q| times a sub-piece stays below 1."""
    x_c = bar.x_c
    cuts = sorted({float(e) for e in bar.edges} | {x_c})
    q = max(abs(cmath.sqrt(k * k - 2 * v)) for v in bar.heights)
    xs, wx = gauss_legendre_nodes(cuts, max(1, math.ceil(q * max(np.diff(cuts)))))
    psi, mir = _transfer_states(bar, k, xs), _transfer_states(bar, k, 2 * x_c - xs)
    left = xs < x_c
    return {
        "left": np.sum(wx[left] * np.abs(psi[left]) ** 2),
        "right": np.sum(wx[~left] * np.abs(psi[~left]) ** 2),
        "cross": np.sum(wx[left] * np.conj(psi[left]) * mir[left]),
        "odd": np.sum(wx[left] * np.abs(psi[left] - mir[left]) ** 2),
        "square": np.sum(wx * psi**2),
        "mirror": np.sum(wx * psi * mir),
    }


@pytest.mark.parametrize("seed", ["rect", "well", 0, 1, 2, 3, 4, 5],
                         ids=lambda s: s if isinstance(s, str) else f"wells{s}")
def test_planted_degeneracy_matches_transfer_matrices(seed):
    # k within 1e-12 to 1e-6 of E = V on every step, and on it: amplitudes to
    # 1e-13, states to 1e-13 of their peak and all six interior integrals to
    # 1e-12 relative, each against the test-side transfer matrices; rect
    # 0..1 (V0 = 2), three steps down into a well, and random barriers with
    # wells, with k off the steps too
    bar = {"rect": ss.make_rectangular(0.0, 1.0, 2.0),
           "well": ss.make_symmetric(-0.3, [(0.4, 2.0), (0.3, 0.5), (0.25, -1.5)])}.get(seed)
    if bar is None:
        bar = random_symmetric_barrier(np.random.default_rng(seed), allow_wells=True)
    ks = np.concatenate([planted_ks(bar.heights), [0.2, 1.7, 3.1]])
    fam = _assert_family_matches_transfer(bar, ks, tol=1e-13)
    _assert_basis_matches_transfer_states(fam, np.linspace(bar.a - 0.5, bar.b + 0.5, 81))
    got = fam.interior_integrals()
    for j, k in enumerate(ks):
        for name, value in _quadrature_integrals(bar, float(k)).items():
            assert abs(getattr(got, name)[j] - value) <= 1e-12 * abs(value), (k, name)


# ----------------------------------------------- closed-form interior kernel


def _decay_pieces(bar, k, span=16.0):
    """The segment ends and x_c, with each segment cut into pieces no longer
    than span / kappa (kappa at the tallest height)."""
    kappa = max(math.sqrt(max(2 * v - k * k, 0.0)) for v in bar.heights)
    cuts = {bar.x_c}
    for lo, hi in zip(bar.edges[:-1], bar.edges[1:]):
        cuts |= set(np.linspace(lo, hi, max(1, math.ceil(kappa * (hi - lo) / span)) + 1))
    return sorted(float(c) for c in cuts)


@pytest.mark.parametrize("bar, k", [
    (ss.make_rectangular(0.0, 1.0, 2.0), 1.0),
    (ss.make_rectangular(0.0, 1.0, 0.5), 1.0),                       # E = V exactly
    (ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)]), 1.4),
    (ss.BarrierSpec(0.0, 2.25, ((0.75, 4.0), (0.75, -3.0), (0.75, 4.0))), 1.1),
    (ss.make_rectangular(0.0, 3.0, 1000.0), 1.0),                    # kappa w ~ 134
    (ss.make_symmetric(0.0, [(2.0, 1000.0), (0.5, -5.0)]), 0.9),     # kappa w ~ 224, a well
    (ss.make_rectangular(0.0, 8.95, 1000.0), 1.0),                   # kappa w ~ 400
], ids=["canonical", "E_eq_V", "two_step", "odd_well", "opaque134", "opaque_well", "opaque400"])
def test_interior_integrals_match_adaptive(bar, k):
    # every output of the closed-form kernel against adaptive quadrature of
    # the family's own states on pieces a few decay lengths long
    fam = ss.solve_family(bar, [k])
    got = fam.interior_integrals()
    x_c = bar.x_c
    cuts = _decay_pieces(bar, k)
    left, right = [c for c in cuts if c <= x_c], [c for c in cuts if c >= x_c]

    def psi(x):
        return complex(fam.basis([x])[0, 0])

    def mirror(x):
        return complex(fam.basis([2 * x_c - x])[0, 0])

    want = {
        "left": piecewise_quad(lambda x: abs(psi(x)) ** 2, left),
        "right": piecewise_quad(lambda x: abs(psi(x)) ** 2, right),
        "cross": piecewise_quad(lambda x: psi(x).conjugate() * mirror(x), left),
        "odd": piecewise_quad(lambda x: abs(psi(x) - mirror(x)) ** 2, left),
        "square": piecewise_quad(lambda x: psi(x) ** 2, cuts),
        "mirror": piecewise_quad(lambda x: psi(x) * mirror(x), cuts),
    }
    for name, value in want.items():
        assert abs(getattr(got, name)[0] - value) <= 1e-12 * abs(value), name


@pytest.mark.parametrize("bar", [
    ss.make_rectangular(0.0, 1.0, 2.0),
    ss.make_symmetric(0.0, [(0.3, 1.0), (0.4, 3.0)]),
    ss.make_rectangular(0.0, 2.0, 50.0),
    ss.make_rectangular(0.0, 1.0, -2.0),
], ids=["canonical", "two_step", "deep", "well"])
def test_buttiker_height_derivative_identity(bar):
    # -Im(dA_T/dV conj A_T + dA_R/dV conj A_R) = int_a^b |Psi|^2 / k (Buttiker,
    # Phys. Rev. B 27, 6178 (1983)), with the height derivatives from the
    # bilinear integrals and the norm from the sesquilinear ones
    ks = np.linspace(0.4, 3.0, 27)
    fam = ss.solve_family(bar, ks)
    I = fam.interior_integrals()
    dA_T = np.exp(-2j * ks * bar.x_c) / (1j * ks) * I.mirror
    dA_R = I.square / (1j * ks)
    lhs = -(dA_T * np.conj(fam.A_T) + dA_R * np.conj(fam.A_R)).imag
    rhs = (I.left + I.right) / ks
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-13
