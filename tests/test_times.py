"""Interaction-time families: dwell, packet-averaged (two routes), group delay."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import times as tm
from scatsplit import wavepacket as wp
import mpmath as mp

from analytic import (
    adaptive_integral, density_per_time, gauss_legendre_nodes, rect_phase_delay,
    richardson_phase_delay,
)

# high-precision reference values for the k=1, V0=2, L=1 rectangle, frozen
# from 50-digit quadrature of the masked sub-states
DWELL_TR_CANONICAL = 1.3870577090444447
DWELL_REF_CANONICAL = 0.08501587293576726
PHASE_DELAY_CANONICAL = 0.14781776322217724


# ------------------------------------------------------------------- dwell


def test_free_dwell_is_transit_time():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    for k in (0.7, 1.3, 2.5):
        tau_tr = ss.dwell_tables(ss.solve_family(free, [k]))[0][0]
        assert abs(tau_tr - 2.0 / k) < 1e-10


def test_canonical_dwell_frozen(canonical_fam):
    tau_tr, tau_ref, _ = ss.dwell_tables(canonical_fam)[:3]
    assert abs(tau_tr[0] - DWELL_TR_CANONICAL) < 1e-10
    assert abs(tau_ref[0] - DWELL_REF_CANONICAL) < 1e-10


def test_dwell_tables_match_adaptive():
    cases = [
        (ss.make_rectangular(0.0, 1.0, 2.0), [0.7, 1.0, 1.6, 2.4], 1e-12),
        (ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)]), [0.8, 1.4, 2.6], 1e-12),
        (ss.make_rectangular(0.0, 6.0, 2.0), [1.0, 1.5], 1e-12),
        (ss.make_rectangular(0.0, 8.0, 2.0), [1.0], 1e-12),
        (ss.make_symmetric(0.0, [(0.5, 2.5), (0.6, -1.5)]), [0.6, 1.2, 2.5], 1e-12),
        # T ~ 1e-53: the reference itself is only good to its epsrel of 1e-8
        (ss.make_rectangular(0.0, 6.0, 50.0), [1.0], 2e-8),
    ]
    for bar, ks, rtol in cases:
        tau_tr, tau_ref, defined = ss.dwell_tables(ss.solve_family(bar, ks))[:3]
        assert defined.all()
        for i, k in enumerate(ks):
            fam = ss.solve_family(bar, [k])

            def tr_density(x):
                return abs(fam.split_basis([x])[0][0, 0]) ** 2

            def ref_density(x):
                return abs(fam.split_basis([x])[1][0, 0]) ** 2

            cuts = list(bar.edges) + [bar.x_c]
            I_tr = adaptive_integral(tr_density, bar.a, bar.b, cuts) / (k * fam.T[0])
            I_ref = adaptive_integral(ref_density, bar.a, bar.x_c, cuts) / (k * fam.R[0])
            assert abs(tau_tr[i] - I_tr) <= rtol * I_tr
            assert abs(tau_ref[i] - I_ref) <= rtol * I_ref
            assert ss.dwell_tables(fam)[0][0] == pytest.approx(tau_tr[i], rel=1e-13)


def test_reflection_dwell_undefined_without_reflection(canonical_barrier):
    # at a transmission resonance R ~ 1e-33 and on a free barrier R = 0:
    # no reflected state to average over
    kres = math.sqrt(2 * 2.0 + math.pi**2)
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(canonical_barrier, [kres]))[:3]
    assert defined.tolist() == [False] and np.isnan(tau_ref[0])
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(free, [1.0]))[:3]
    assert defined.tolist() == [False] and np.isnan(tau_ref[0])


def test_dwell_tables_nan_at_resonance(canonical_barrier):
    kres = math.sqrt(2 * 2.0 + math.pi**2)
    fam = ss.solve_family(canonical_barrier, np.array([1.0, kres]))
    table = ss.dwell_tables(fam)
    tau_tr, tau_ref, defined = table[:3]
    assert defined.tolist() == [True, False]
    # one rule: reflection exists where the family is not degenerate, and
    # there alone the reflected sub-state has an interior norm
    np.testing.assert_array_equal(defined, ~fam.degenerate)
    np.testing.assert_array_equal(table.norm_ref != 0, defined)
    assert np.isfinite(tau_tr).all()
    assert np.isnan(tau_ref[1]) and np.isfinite(tau_ref[0])


def test_dwell_tables_nan_where_flux_underflows():
    # kappa w ~ 369: k T underflows to 0 on part of the grid (T itself is
    # subnormal there or 0); those k have no dwell time, and no divide warning
    fam = ss.solve_family(ss.make_rectangular(0.0, 8.25, 1000.0), np.linspace(0.2, 1.8, 64))
    tau_tr = ss.dwell_tables(fam)[0]
    flux = fam.ks * fam.T
    assert np.any(flux == 0) and np.any(flux > 0)
    assert np.array_equal(np.isnan(tau_tr), flux == 0)


def _fine_interior_norms(fam, n_sub=200):
    """(I_tr, I_ref) per k by 24-node Gauss-Legendre on n_sub equal
    sub-pieces of each segment left of x_c (and of its mirror image), with
    psi_tr = A_tr_In Psi + z Psi(2 x_c - x) and psi_ref = z (Psi - Psi(2 x_c
    - x)) left of x_c and the two shares taken from their defining quotients."""
    bar = fam.barrier
    x_c = bar.x_c
    mirrored = fam.A_T * np.exp(2j * fam.ks * x_c)
    tr_in, z = -mirrored / (fam.A_R - mirrored), fam.A_R / (fam.A_R - mirrored)
    xs, wx = gauss_legendre_nodes(np.append(bar.edges[bar.edges < x_c], x_c), n_sub)
    psi, mirror = fam.basis(xs), fam.basis((2 * x_c - xs)[::-1])[::-1]
    right = wx @ np.abs(mirror) ** 2  # int_x_c^b |Psi|^2 by the mirror image
    I_tr = wx @ np.abs(tr_in * psi + z * mirror) ** 2 + right
    I_ref = wx @ np.abs(z * (psi - mirror)) ** 2
    return I_tr, I_ref


def test_dwell_norms_where_one_minus_z_rounds():
    # T ~ 1e-88: 1 - z rounds to 0 or one ulp, while A_tr_In keeps its digits;
    # every k's interior norm must match the fine-grid value
    bar = ss.make_rectangular(0.0, 10.0, 50.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=64)
    fam = ss.solve_family(bar, pk.ks)
    table = ss.dwell_tables(fam)
    I_tr, I_ref = _fine_interior_norms(fam)
    np.testing.assert_allclose(table.norm_tr * fam.ks, I_tr, rtol=1e-8, atol=0)
    np.testing.assert_allclose(table.norm_ref * fam.ks, I_ref, rtol=1e-8, atol=0)


def test_reflection_norm_near_a_narrow_resonance():
    # next to a double barrier's first resonance |Psi|^2 inside is about 1e6
    # times |Psi - Psi(2 x_c - x)|^2, so H + H' - 2 Re X would lose 6 digits
    # of the reflection norm; the odd part is integrated on its own
    bar = ss.make_symmetric(0.0, [(0.5, 30.0), (1.0, 0.0)])
    fam = ss.solve_family(bar, 1.3901844833703938 + np.array([1e-4, 1e-6, 1e-8]))
    _, I_ref = _fine_interior_norms(fam, n_sub=100)
    np.testing.assert_allclose(ss.dwell_tables(fam).norm_ref * fam.ks, I_ref,
                               rtol=1e-12, atol=0)


# ---------------------------------------------------- packet-averaged times


def _route_b(packet, barrier, component):
    fam = ss.solve_family(barrier, packet.ks)
    return ss.route_b(packet, fam, ss.dwell_tables(fam), component)


def test_routeA_free_packet_near_transit():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    pk = ss.make_gaussian_packet(-30.0, 6.0, 1.0, barrier=free, n=384)
    fam = ss.solve_family(free, pk.ks)
    tau = tm._routeA(pk, fam, ("tr",), wp._event_spans(pk, fam)[:2],
                     *tm._piece_grid(free, pk.ks))[0]["tr"]
    assert abs(tau - 2.0) < 0.04  # 2% of L/k0; finite spectral width shifts it


def test_route_equivalence_canonical(canonical_packet, canonical_barrier):
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    got, _ = tm._routeA(canonical_packet, fam, ("tr", "ref"),
                        wp._event_spans(canonical_packet, fam)[:2],
                        *tm._piece_grid(canonical_barrier, canonical_packet.ks))
    for comp in ("tr", "ref"):
        a = got[comp]
        b = _route_b(canonical_packet, canonical_barrier, comp)["density"]
        assert abs(a - b) < 1e-6 * abs(b)


def test_routeB_narrows_to_dwell(canonical_barrier):
    # spectrally narrower packets average the per-k dwell over less spread:
    # the offset from dwell(k0) shrinks ~ sigma^-2
    errs = []
    for sg in (8.0, 16.0, 32.0):
        pk = ss.make_gaussian_packet(-5 * sg, sg, 1.0, barrier=canonical_barrier,
                                     n=256)
        tau = _route_b(pk, canonical_barrier, "tr")["density"]
        errs.append(abs(tau - DWELL_TR_CANONICAL))
    assert errs[1] < 0.5 * errs[0]
    assert errs[2] < 0.5 * errs[1]
    assert errs[2] < 1.5e-3


def test_routeB_literal_variant_is_diagnostic(canonical_packet, canonical_barrier):
    v = _route_b(canonical_packet, canonical_barrier, "tr")
    # the linear-in-G weighting fails its own normalization identity by O(1)
    # and produces a manifestly complex time; it is reported, not used
    assert v["literal_identity_residual"] > 0.1
    assert abs(v["literal"].imag) > 0.1


def _opaque_case():
    """kappa w ~ 358: T is subnormal over much of the packet's k grid."""
    bar = ss.make_rectangular(0.0, 8.0, 1000.0)
    return ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=128), bar


def test_opaque_time_report_matches_fine_grid():
    # both routes must agree with route B formed test-side from fine-grid
    # interior norms, summed in 50-digit arithmetic where T is subnormal
    pk, bar = _opaque_case()
    rep = ss.build_time_report(pk, bar)
    fam = ss.solve_family(bar, pk.ks)
    I_tr, _ = _fine_interior_norms(fam)
    trap = np.ones(len(pk.ks))
    trap[[0, -1]] = 0.5
    w = [mp.mpf(float(v)) for v in np.abs(pk.G) ** 2 * trap]
    num = mp.fsum(wi * mp.mpf(float(I)) / mp.mpf(float(k)) for wi, I, k in zip(w, I_tr, pk.ks))
    den = mp.fsum(wi * abs(mp.mpc(complex(a))) ** 2 for wi, a in zip(w, fam.A_T))
    want = float(num / den)
    assert abs(rep.tau_L_tr_routeA - want) <= 1e-6 * want
    assert abs(rep.tau_L_tr_routeB - want) <= 1e-6 * want


# ------------------------------------------------------------- phase times


def test_phase_delay_against_reference(canonical_barrier):
    ph = ss.phase_time(ss.solve_family(canonical_barrier, np.linspace(0.6, 1.6, 41)))
    i = int(np.argmin(np.abs(ph.ks - 1.0)))
    assert abs(ph.delay[i] - PHASE_DELAY_CANONICAL) < 1e-9
    assert abs(ph.traversal[i] - (PHASE_DELAY_CANONICAL + 1.0)) < 1e-9
    for k in (0.8, 1.0):
        j = int(np.argmin(np.abs(ph.ks - k)))
        assert abs(ph.delay[j] - rect_phase_delay(1.0, 2.0, k)) < 1e-8
    got = ss.phase_time(ss.solve_family(canonical_barrier, [2.5])).delay[0]
    assert abs(got - rect_phase_delay(1.0, 2.0, 2.5)) < 1e-8


@pytest.mark.parametrize("bar", [
    ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)]),
    ss.make_symmetric(0.0, [(0.5, 2.5), (0.6, -1.5)]),
    ss.make_symmetric(0.0, [(0.3, 1.0), (0.4, 3.0), (0.2, 0.5)]),
], ids=["two_step", "well", "three_step"])
def test_phase_time_matches_richardson_stencil(bar):
    # Winful's closed form against a fourth-order energy derivative of the
    # transfer-matrix phase; the difference is the stencil's own error
    ks = np.linspace(0.5, 2.6, 15)
    ph = ss.phase_time(ss.solve_family(bar, ks))
    want = np.array([richardson_phase_delay(bar.edges, bar.heights, k) for k in ks])
    assert np.max(np.abs(ph.delay - want)) < 5e-10


def test_phase_free_delay_zero():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    ph = ss.phase_time(ss.solve_family(free, [0.8, 1.0, 1.2]))
    assert np.max(np.abs(ph.delay)) < 1e-9
    np.testing.assert_allclose(ph.traversal, 2.0 / ph.ks, atol=1e-9)


def test_phase_family_must_be_dense():
    bar = ss.make_rectangular(0.0, 2.0, 30.0)
    with pytest.raises(ss.GridRefinementError):
        ss.phase_time(ss.solve_family(bar, [7.0, 8.0]))


@pytest.mark.parametrize("phase_points", [0, -3])
def test_time_report_refuses_phase_points_below_one(canonical_packet, canonical_barrier,
                                                     phase_points):
    with pytest.raises(ss.DomainError, match="phase_points must be at least 1"):
        ss.build_time_report(canonical_packet, canonical_barrier, phase_points=phase_points)


def test_phase_empty_family():
    # an empty k grid is refused before any phase table is formed
    with pytest.raises(ss.DomainError):
        ss.phase_time(ss.solve_family(ss.make_rectangular(0.0, 2.0, 0.0), []))


# -------------------------------------------------------- opaque-limit scan


def test_hartman_saturation_vs_dwell_growth():
    lengths, tau_ph, tau_dw = ss.hartman_scan(2.0, 1.0, [2.0, 4.0, 6.0])
    # phase traversal freezes at 2/sqrt(2 V0 - k^2) while dwell explodes
    assert abs(tau_ph[-1] - 2.0 / math.sqrt(3.0)) < 1e-3
    assert abs(tau_ph[2] - tau_ph[1]) < 1e-2
    assert tau_dw[1] > 20 * tau_dw[0]
    assert tau_dw[2] > 20 * tau_dw[1]


# ------------------------------------------------------------------ report


def test_time_report(canonical_packet, canonical_barrier):
    rep = ss.build_time_report(canonical_packet, canonical_barrier)
    assert rep.residuals["route_tr"] < 1e-6
    assert rep.residuals["route_ref"] < 1e-6
    assert rep.residuals["literal_weight_identity"] > 0.1
    assert isinstance(rep.metadata["literal_routeB_tr"], complex)
    assert rep.tau_L_tr_routeA == pytest.approx(rep.tau_L_tr_routeB, rel=1e-6)
    assert rep.dwell_ref_defined.all()
    assert np.all(rep.tau_dwell_tr > 0)
    assert len(rep.phase.ks) >= 2


def _precursor_case():
    """A benchmark times input (perfbench seed 1, op 17).  Its middle edge
    and x_c differ by 2.2e-16."""
    bar = ss.make_symmetric(-1.7134575373394703, [
        (1.0675551040956188, 2.0592372362112066), (0.7772206168475326, 0.20141184257192332),
        (0.26671641571361926, 2.1131786651685824)])
    pk = ss.make_gaussian_packet(-41.71345753733947, 8.0, 2.065772157180128,
                                 barrier=bar, n=192)
    return pk, bar


def test_route_a_opens_before_the_start_for_a_precursor():
    # a resonance of delay 23 gives both sub-process densities a precursor,
    # still at 1e-3 of their peak at t = 0, so route A's window opens at
    # negative t
    pk, bar = _precursor_case()
    rep = ss.build_time_report(pk, bar)
    assert rep.metadata["routeA_window"][0] < -50
    assert rep.residuals["route_tr"] <= 1e-5
    assert rep.residuals["route_ref"] <= 1e-5
    # no sliver piece between x_c and the edge it rounds to
    assert rep.metadata["routeA_subpieces"] == 6


def test_piece_grid_cuts_once_where_an_edge_rounds_to_x_c():
    pk, bar = _precursor_case()
    assert 0 < np.abs(bar.edges - bar.x_c).min() < 1e-15
    xs, wx = tm._piece_grid(bar, pk.ks)
    pieces = wx.reshape(-1, tm._PIECE_NODES).sum(axis=1)
    assert pieces.min() > 1e-9 * (bar.b - bar.a)
    assert abs(wx.sum() - (bar.b - bar.a)) <= 1e-14 * (bar.b - bar.a)
    assert np.all(np.diff(xs) > 0)


@pytest.mark.parametrize("case", ["canonical", "sliver"])
def test_route_a_one_pass_matches_single_components(case, canonical_packet, canonical_barrier):
    # the stacked pass samples the time nodes of each component alone and keeps its value
    pk, bar = (canonical_packet, canonical_barrier) if case == "canonical" else _precursor_case()
    fam = ss.solve_family(bar, pk.ks)
    window, grid = wp._event_spans(pk, fam)[:2], tm._piece_grid(bar, pk.ks)
    both, n = tm._routeA(pk, fam, ("tr", "ref"), window, *grid)
    for comp in ("tr", "ref"):
        single, want_n = tm._routeA(pk, fam, (comp,), window, *grid)
        assert n == want_n
        assert abs(both[comp] - single[comp]) <= 1e-14 * abs(single[comp])


def test_phase_table_is_a_slice_of_the_family(canonical_packet, canonical_barrier):
    ks = canonical_packet.ks
    fam = ss.solve_family(canonical_barrier, ks)
    fam.interior_integrals()
    got, want = fam.take(slice(None, None, 7)), ss.solve_family(canonical_barrier, ks[::7])
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    for a, b in zip(got.interior_integrals(), want.interior_integrals()):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)
    np.testing.assert_allclose(ss.phase_time(got).traversal, ss.phase_time(want).traversal,
                               rtol=1e-14, atol=0)


def test_time_report_computes_interior_integrals_once(canonical_packet, canonical_barrier,
                                                      monkeypatch):
    # dwell tables, route B, the event window and the phase table share them
    calls = []
    closed_form = ss.SolutionFamily._interior.func

    def counted(fam):
        calls.append(len(fam.ks))
        return closed_form(fam)

    prop = functools.cached_property(counted)
    prop.__set_name__(ss.SolutionFamily, "_interior")
    monkeypatch.setattr(ss.SolutionFamily, "_interior", prop)
    ss.build_time_report(canonical_packet, canonical_barrier)
    assert calls == [len(canonical_packet.ks)]


@pytest.mark.parametrize("component", ["tr", "ref"])
def test_time_report_refuses_a_nan_route_b(canonical_packet, canonical_barrier,
                                           monkeypatch, component):
    # a NaN route B time must fail the 1e-3 agreement check, not pass it
    route_b = tm.route_b

    def planted(packet, fam, table, which):
        out = route_b(packet, fam, table, which)
        return {**out, "density": math.nan} if which == component else out

    monkeypatch.setattr(tm, "route_b", planted)
    with pytest.raises(ss.ToleranceError, match="route A and route B disagree"):
        ss.build_time_report(canonical_packet, canonical_barrier)


# ---------------------------------------------------------- route-A kernels


def test_gauss_legendre_rule_is_leggauss_once():
    nodes, weights = tm._gauss_legendre()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(tm._PIECE_NODES)
    assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
    assert tm._gauss_legendre() is tm._gauss_legendre()
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("bar, ks", [
    (ss.make_rectangular(0.0, 8.95, 1000.0), np.linspace(0.8, 1.2, 9)),   # kappa w ~ 400
    (ss.make_rectangular(0.78, 13.12, -30.17), np.linspace(6.0, 10.0, 17)),  # q w ~ 170
    (ss.make_rectangular(0.0, 20.0, 2.0), np.linspace(5.0, 12.0, 17)),     # q w ~ 230
    (ss.make_symmetric(0.0, [(2.0, 1000.0), (0.5, -5.0)]), np.linspace(0.8, 1.2, 9)),
], ids=["opaque", "deep_well", "overhead", "opaque_well"])
def test_route_a_grid_matches_kernel(bar, ks):
    # route A's space grid resolves the decay or oscillation of every
    # density it integrates, so it checks the closed-form norms instead of
    # sharing an error with them
    fam = ss.solve_family(bar, ks)
    table = ss.dwell_tables(fam)
    xs, wx = tm._piece_grid(bar, ks)
    for i, want in ((0, table.norm_tr), (1, table.norm_ref)):
        got = wx @ np.abs(fam.split_basis(xs)[i]) ** 2 / ks
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("case", ["canonical", "sliver", "opaque"])
def test_route_a_matches_a_fine_simpson_reference(case, canonical_packet, canonical_barrier):
    # the band-limited trapezoid against composite Simpson on 2049 nodes over
    # the same window and space grid, its densities one GEMV per time
    pk, bar = {"canonical": (canonical_packet, canonical_barrier),
               "sliver": _precursor_case(), "opaque": _opaque_case()}[case]
    fam = ss.solve_family(bar, pk.ks)
    (t_lo, t_hi), (xs, wx) = wp._event_spans(pk, fam)[:2], tm._piece_grid(bar, pk.ks)
    got, n = tm._routeA(pk, fam, ("tr", "ref"), (t_lo, t_hi), xs, wx)
    assert n < 2049
    rows = {"tr": len(xs), "ref": int(np.searchsorted(xs, bar.x_c, side="right"))}
    h = (t_hi - t_lo) / 2048
    for comp, M in zip(("tr", "ref"), fam.split_basis(xs)):
        fs = density_per_time(M[:rows[comp]], pk, wx[:rows[comp]], t_lo, h, 2049)
        simpson = h / 3 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum() + 2 * fs[2:-2:2].sum())
        want = simpson / tm._spectral_coef_norm(pk, fam, comp)[0]
        assert abs(got[comp] - want) <= 1e-12 * abs(want), comp


def test_route_a_half_step_check_refuses_an_aliased_step(canonical_packet, canonical_barrier,
                                                         monkeypatch):
    # below the band's rate the even-node trapezoid and the odd-node midpoint
    # sum alias differently, and route A refuses by name
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    window = wp._event_spans(canonical_packet, fam)[:2]
    grid = tm._piece_grid(canonical_barrier, canonical_packet.ks)
    monkeypatch.setattr(wp, "_BAND_OVERSAMPLE", 0.5)
    with pytest.raises(ss.ToleranceError, match="trapezoid and midpoint sums") as info:
        tm._routeA(canonical_packet, fam, ("tr", "ref"), window, *grid)
    assert info.type is ss.ToleranceError


def test_route_a_scans_a_long_window_in_blocks(canonical_barrier, monkeypatch):
    # a window near the recurrence time asks for more than 2049 time nodes:
    # each GEMM of the scan but the last takes B^2 <= _SCAN_BLOCK of them,
    # the last fewer than B more than are left, and the blocks give the value
    # of one GEMM over them all
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=canonical_barrier, n=1024)
    fam = ss.solve_family(canonical_barrier, pk.ks)
    t_lo, _, recurrence = wp._event_spans(pk, fam)
    args = (pk, fam, ("tr", "ref"), (t_lo, t_lo + 0.9 * recurrence),
            *tm._piece_grid(canonical_barrier, pk.ks))
    widths = []

    class Spy(np.ndarray):
        def __matmul__(self, other):
            widths.append(other.shape[-1])
            return self.view(np.ndarray) @ other

    monkeypatch.setattr(tm, "_density_scan", lambda M, *a: wp._density_scan(M.view(Spy), *a))
    blocked, n = tm._routeA(*args)
    B = math.isqrt(wp._SCAN_BLOCK)
    last = n - B * B * (len(widths) - 1)
    assert n > 2049 and len(widths) > 1 and widths[:-1] == [B * B] * (len(widths) - 1)
    assert B * B <= wp._SCAN_BLOCK
    assert 0 < last <= widths[-1] < last + B
    widths.clear()
    monkeypatch.setattr(wp, "_SCAN_BLOCK", (math.isqrt(n) + 1) ** 2)
    whole, _ = tm._routeA(*args)
    assert len(widths) == 1 and widths[0] >= n
    for comp in ("tr", "ref"):
        assert abs(blocked[comp] - whole[comp]) <= 1e-13 * abs(whole[comp])
