import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatsplit as ss
from analytic import piecewise_quad, rect_amplitudes, resonance_k, transfer_amplitudes
from conftest import random_symmetric_barrier

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
    # and the refusal names the resonance by its dwell time
    bar = ss.make_symmetric(0.0, [(0.8, 60.0), (1.0, 0.0)])
    k = 1.4390489260591632
    A_T, A_R = transfer_amplitudes(bar.edges, bar.heights, k)
    assert abs(abs(A_T) ** 2 + abs(A_R) ** 2 - 1.0) > 1e-9
    with pytest.raises(ss.ToleranceError, match=(
            r"^unitarity violated by -1\.428e-09 at k=1\.4390489260591632: a narrow "
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


def _assert_family_matches_transfer(bar, ks):
    fam = ss.solve_family(bar, ks)
    for j, k in enumerate(ks):
        a_t, a_r = transfer_amplitudes(bar.edges, bar.heights, float(k))
        assert abs(fam.A_T[j] - a_t) <= 1e-12
        assert abs(fam.A_R[j] - a_r) <= 1e-12
    return fam


def test_solve_family_matches_pointwise(canonical_barrier):
    # the grid crosses the barrier top at k = 2: evanescent, then oscillatory
    ks = np.linspace(0.5, 3.0, 17)
    fam = _assert_family_matches_transfer(canonical_barrier, ks)
    assert list(fam.kind[0]) == ["evan"] * 10 + ["osc"] * 7


def test_solve_family_random_barriers_with_wells():
    rng = np.random.default_rng(8)
    for _ in range(40):
        bar = random_symmetric_barrier(rng, allow_wells=True)
        _assert_family_matches_transfer(bar, np.sort(rng.uniform(0.2, 4.0, 16)))


def test_solve_family_exact_degeneracy():
    # E = V exactly on the inner step at k = 1 takes the linear {1, x} basis
    bar = ss.make_symmetric(0.0, [(0.4, 3.0), (0.3, 0.5)])
    fam = _assert_family_matches_transfer(bar, np.array([0.6, 1.0, 1.4]))
    assert list(fam.kind[:, 1]) == ["evan", "deg", "deg", "evan"]
    xs = np.linspace(-1.0, 2.5, 71)
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


def test_basis_runs_match_masked_reference():
    # unsorted k with every kind on the steps: k = 1 and k = 2 put E exactly
    # on the heights 0.5 and 2; each kind's columns through a boolean mask
    bar = ss.make_symmetric(-0.5, [(0.4, 2.0), (0.35, 0.5)])
    ks = np.array([2.5, 0.3, 1.0, 2.0, 0.9, 1.0, 3.1, 0.5, 2.0, 1.2, 1.7])
    fam = ss.solve_family(bar, ks)
    assert {"osc", "evan", "deg"} <= set(fam.kind.ravel())
    xs = np.linspace(bar.a - 0.5, bar.b + 0.5, 61)
    want = np.empty((len(xs), len(ks)), dtype=complex)
    want[xs < bar.a] = np.exp(1j * np.outer(xs[xs < bar.a], ks)) + fam.A_R * np.exp(
        -1j * np.outer(xs[xs < bar.a], ks))
    want[xs >= bar.b] = fam.A_T * np.exp(1j * np.outer(xs[xs >= bar.b], ks))
    edges = bar.edges
    for j in range(len(bar.segments)):
        rows = (xs >= edges[j]) & (xs < edges[j + 1])
        d, r = xs[rows] - edges[j], xs[rows] - edges[j + 1]
        for kind in ("osc", "evan", "deg"):
            m = fam.kind[j] == kind
            q, cp, cm = fam.wn[j, m], fam.c_plus[j, m], fam.c_minus[j, m]
            if kind == "osc":
                blk = cp * np.exp(1j * np.outer(d, q)) + cm * np.exp(-1j * np.outer(d, q))
            elif kind == "evan":
                blk = cp * np.exp(np.outer(r, q)) + cm * np.exp(-np.outer(d, q))
            else:
                blk = cp + cm * d[:, None]
            want[np.ix_(rows, m)] = blk
    np.testing.assert_allclose(fam.basis(xs), want, rtol=1e-14, atol=1e-14)


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
    # refuses; the shifted one is off it
    bar = ss.make_symmetric(0.0, [(0.8, 60.0), (1.0, 0.0)])
    ks = [1.0, 1.4390489260591632]
    ss.stationary._shifted_amplitudes(bar, ks, [1e-3])
    with pytest.raises(ss.ToleranceError, match=(
            r"^unitarity violated by -1\.428e-09 at k=1\.4390489260591632: a narrow")):
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


def test_segment_record_layout(canonical_fam, canonical_barrier):
    fam = canonical_fam
    shape = (len(canonical_barrier.segments), 1)
    for arr in (fam.kind, fam.wn, fam.c_plus, fam.c_minus):
        assert arr.shape == shape
    assert fam.kind[0, 0] == "evan"   # V0 = 2 > E = 0.5
    assert fam.wn[0, 0] == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert fam.ks.tolist() == [1.0]


def _select_sweep(barrier, ks):
    """The family's sweep and coefficient matching written with np.select and
    string kinds, step for step: the arrays solve_family must reproduce bit
    for bit."""
    edges, heights = barrier.edges, barrier.heights
    nseg, nk = len(heights), len(ks)
    E = ks * ks / 2
    kind = np.empty((nseg, nk), dtype="<U4")
    wn = np.empty((nseg, nk))
    uR, vR, uL, vL = (np.empty((nseg, nk), dtype=complex) for _ in range(4))
    SR, SL = np.empty((nseg, nk)), np.empty((nseg, nk))
    u = np.exp(1j * ks * barrier.b)
    v = 1j * ks * u
    S = np.zeros(nk)
    for j in range(nseg - 1, -1, -1):
        w, V = edges[j + 1] - edges[j], heights[j]
        D = ks * ks - 2 * V
        deg = np.abs(E - V) < 1e-12 * max(1.0, abs(V))
        osc = ~deg & (D > 0)
        evan = ~deg & ~osc
        q = np.where(deg, 0.0, np.sqrt(np.abs(D)))
        qs = np.where(deg, 1.0, q)
        c, s = np.cos(q * w), np.sin(q * w)
        e2 = np.exp(-2 * q * w)
        ch, sh = (1 + e2) / 2, (1 - e2) / 2
        m11 = np.select([osc, evan], [c, ch], 1.0)
        m12 = np.select([osc, evan], [-s / qs, -sh / qs], -w)
        m21 = np.select([osc, evan], [q * s, -q * sh], 0.0)
        uR[j], vR[j], SR[j] = u, v, S
        u, v = m11 * u + m12 * v, m21 * u + m11 * v
        S = S + np.where(evan, q * w, 0.0)
        uL[j], vL[j], SL[j] = u, v, S
        kind[j] = np.select([osc, evan], ["osc", "evan"], "deg")
        wn[j] = q
    P0 = 0.5 * (u + v / (1j * ks)) * np.exp(-1j * ks * barrier.a)
    Q0 = 0.5 * (u - v / (1j * ks)) * np.exp(1j * ks * barrier.a)
    A_T, A_R = np.exp(-S) / P0, Q0 / P0
    fL, fR = np.exp(SL - S) / P0, np.exp(SR - S) / P0
    qs = np.where(kind == "deg", 1.0, wn)
    osc, evan = kind == "osc", kind == "evan"
    c_plus = np.select([osc, evan], [0.5 * (uL + vL / (1j * qs)) * fL,
                                     0.5 * (uR + vR / qs) * fR], uL * fL)
    c_minus = np.select([osc, evan], [0.5 * (uL - vL / (1j * qs)) * fL,
                                      0.5 * (uL - vL / qs) * fL], vL * fL)
    return {"A_T": A_T, "A_R": A_R, "kind": kind, "wn": wn,
            "c_plus": c_plus, "c_minus": c_minus}


def test_solve_family_bit_identical_to_select_sweep():
    # k = 1 and k = 2 put E exactly on the heights 0.5 and 2 (deg columns);
    # the rest of the grid is under (evan) or over (osc) each height, and
    # the well is osc throughout
    bar = ss.make_symmetric(-0.3, [(0.4, 2.0), (0.3, 0.5), (0.25, -1.5)])
    ks = np.concatenate([np.linspace(0.2, 3.1, 59), [1.0, 2.0]])
    fam = ss.solve_family(bar, ks)
    want = _select_sweep(bar, ks)
    assert {"osc", "evan", "deg"} <= set(want["kind"].ravel())
    for name, arr in want.items():
        got = getattr(fam, name)
        assert got.dtype.kind == arr.dtype.kind and got.shape == arr.shape
        assert np.array_equal(got, arr), name


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
