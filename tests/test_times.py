"""Interaction-time families: dwell, packet-averaged (two routes), group delay."""

import math

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import times as tm
from scatsplit import wavepacket as wp
from analytic import adaptive_integral, rect_phase_delay

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
    tau_tr, tau_ref, _ = ss.dwell_tables(canonical_fam)
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
        tau_tr, tau_ref, defined = ss.dwell_tables(ss.solve_family(bar, ks))
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
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(canonical_barrier, [kres]))
    assert defined.tolist() == [False] and np.isnan(tau_ref[0])
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    _, tau_ref, defined = ss.dwell_tables(ss.solve_family(free, [1.0]))
    assert defined.tolist() == [False] and np.isnan(tau_ref[0])


def test_dwell_tables_nan_at_resonance(canonical_barrier):
    kres = math.sqrt(2 * 2.0 + math.pi**2)
    fam = ss.solve_family(canonical_barrier, np.array([1.0, kres]))
    tau_tr, tau_ref, defined = ss.dwell_tables(fam)
    assert defined.tolist() == [True, False]
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


# ---------------------------------------------------- packet-averaged times


def _route_b(packet, barrier, component):
    fam = ss.solve_family(barrier, packet.ks)
    return ss.route_b(packet, fam, ss.dwell_tables(fam), component)


def test_routeA_free_packet_near_transit():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    pk = ss.make_gaussian_packet(-30.0, 6.0, 1.0, barrier=free, n=384)
    tau = tm._routeA(pk, ss.solve_family(free, pk.ks), "tr")
    assert abs(tau - 2.0) < 0.04  # 2% of L/k0; finite spectral width shifts it


def test_route_equivalence_canonical(canonical_packet, canonical_barrier):
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    for comp in ("tr", "ref"):
        a = tm._routeA(canonical_packet, fam, comp)
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


def test_phase_free_delay_zero():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    ph = ss.phase_time(ss.solve_family(free, [0.8, 1.0, 1.2]))
    assert np.max(np.abs(ph.delay)) < 1e-9
    np.testing.assert_allclose(ph.traversal, 2.0 / ph.ks, atol=1e-9)


def test_phase_family_must_be_dense():
    bar = ss.make_rectangular(0.0, 2.0, 30.0)
    with pytest.raises(ss.GridRefinementError):
        ss.phase_time(ss.solve_family(bar, [7.0, 8.0]))


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


# ---------------------------------------------------------- route-A kernels


def test_gauss_legendre_rule_is_leggauss_once():
    nodes, weights = tm._gauss_legendre()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(tm._PIECE_NODES)
    assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
    assert tm._gauss_legendre() is tm._gauss_legendre()
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_nested_simpson_matches_fresh_grids(canonical_packet, canonical_barrier):
    # each halving reuses the nodes it has; every level must be the Simpson
    # value of a freshly sampled full grid, and no node is sampled twice
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    xs, wx = tm._piece_grid(canonical_barrier, 0.0, 1.0)
    M = fam.basis(xs)
    t_lo, t_hi = -5.0, 130.0
    sampled = []

    def scan(t0, dt, n):
        sampled.append(n)
        return wp._density_scan(M, canonical_packet, wx, t0, dt, n)

    levels = list(tm._simpson_levels(scan, t_lo, t_hi))
    assert sum(sampled) == 2049
    for i, got in enumerate(levels):
        n = 128 * 2**i + 1
        h = (t_hi - t_lo) / (n - 1)
        fs = wp._density_scan(M, canonical_packet, wx, t_lo, h, n)
        want = h / 3 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum() + 2 * fs[2:-2:2].sum())
        assert abs(got - want) <= 1e-13 * abs(want)
    assert len(levels) == 5
