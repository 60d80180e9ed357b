"""Spin-precession clock: spin-resolved scattering and the zero-field limit."""

import numpy as np
import pytest

import scatsplit as ss
from analytic import ladder_clock


@pytest.fixture(scope="module")
def clock_packet(canonical_barrier):
    return ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=canonical_barrier,
                                   n=256)


def _spin_run(barrier, omega, ks):
    """A spin run on the k grid ks.  The amplitudes do not depend on the
    packet's spectrum, so flat weights serve."""
    ks = np.asarray(ks, dtype=float)
    flat = np.ones(len(ks), dtype=complex)
    pk = ss.SpectralPacket(ks=ks, g=flat, G=flat, x0=-40.0, sigma=8.0, k0=1.0)
    return ss.make_spin_run(barrier, omega, pk)


def test_zero_field_identity(canonical_barrier):
    ks = [0.6, 1.0, 2.3]
    run = _spin_run(canonical_barrier, 0.0, ks)
    fam = ss.solve_family(canonical_barrier, ks)
    assert np.array_equal(run.A_T_up, fam.A_T) and np.array_equal(run.A_T_dn, fam.A_T)
    assert np.array_equal(run.A_R_up, fam.A_R) and np.array_equal(run.A_R_dn, fam.A_R)


def test_per_spin_unitarity(canonical_barrier):
    for om in (1e-3, 0.1):
        run = _spin_run(canonical_barrier, om, [0.7, 1.3, 2.1])
        assert np.max(np.abs(np.abs(run.A_T_up) ** 2 + np.abs(run.A_R_up) ** 2 - 1.0)) < 1e-10
        assert np.max(np.abs(np.abs(run.A_T_dn) ** 2 + np.abs(run.A_R_dn) ** 2 - 1.0)) < 1e-10


def test_precession_angles_odd_in_omega(canonical_barrier, clock_packet):
    om = 1e-3
    plus = ss.make_spin_run(canonical_barrier, om, clock_packet)
    minus = ss.make_spin_run(canonical_barrier, -om, clock_packet)
    assert abs(plus.theta_T + minus.theta_T) < 1e-9
    assert abs(plus.theta_R + minus.theta_R) < 1e-9


def test_free_clock_reads_transit_time():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    pk = ss.make_gaussian_packet(-30.0, 6.0, 1.0, barrier=free, n=256)
    res = ss.clock_times(pk, ss.solve_family(free, pk.ks))
    # ensemble free transit: L * <1/k> over the transmitted weights
    w = np.abs(pk.G) ** 2
    w = w / np.sum(w)
    expected = 2.0 * float(np.sum(w / pk.ks))
    assert abs(res.tau_tr - expected) < 0.01 * expected
    # no reflected subensemble without a barrier: the reading is withheld
    assert res.tau_ref is None


def test_canonical_clock_values(canonical_barrier, clock_packet):
    fam = ss.solve_family(canonical_barrier, clock_packet.ks)
    tau_tr, tau_ref = ss.clock_times(clock_packet, fam)  # unpackable
    assert tau_tr == pytest.approx(0.3156753608, abs=1e-6)
    assert tau_ref == pytest.approx(0.3091737241, abs=1e-6)


def test_deep_barrier_clock_finite():
    # kappa L ~ 20: the clock reads a short, finite time for both channels
    deep = ss.make_rectangular(0.0, 2.0, 50.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=deep, n=256)
    res = ss.clock_times(pk, ss.solve_family(deep, pk.ks))
    assert 0.0 < res.tau_tr < 0.02
    assert res.tau_ref is not None and 0.0 < res.tau_ref < 0.02


def test_clock_disagrees_with_presence_time(canonical_barrier, clock_packet):
    # the precession reading is several times shorter than the
    # density-integrated presence time for the same subensemble
    fam = ss.solve_family(canonical_barrier, clock_packet.ks)
    res = ss.clock_times(clock_packet, fam)
    tau_presence = ss.route_b(clock_packet, fam, ss.dwell_tables(fam), "tr")["density"]
    assert res.tau_tr < 0.5 * tau_presence


def test_clock_reuses_given_rungs_and_family(canonical_barrier, clock_packet):
    # the clock reads the family it is given, which must be on the packet grid
    other = ss.solve_family(canonical_barrier, clock_packet.ks[::2])
    with pytest.raises(ss.DomainError):
        ss.clock_times(clock_packet, other)


@pytest.mark.parametrize("barrier, omega", [
    (ss.make_rectangular(0.0, 1.0, 2.0), 5e-4),
    (ss.make_symmetric(0.0, [(0.3, 1.0), (0.4, 3.0)]), 5e-4),
    (ss.make_rectangular(0.0, 2.0, 50.0), 5e-4),
    (ss.make_rectangular(0.0, 1.0, -2.0), 5e-4),
    # kappa w ~ 313: the readings vary on the scale V0 - E ~ 1000, and a
    # larger field keeps the precession angle (omega tau) above rounding
    (ss.make_rectangular(0.0, 7.0, 1000.0), 1.0),
], ids=["canonical", "two_step", "deep", "well", "opaque"])
def test_closed_form_matches_field_ladder(barrier, omega):
    # the closed form against the finite-field readings at omega, omega/2 and
    # omega/4 from plain transfer matrices, extrapolated to zero field
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=barrier, n=256)
    res = ss.clock_times(pk, ss.solve_family(barrier, pk.ks))
    trap = np.ones(len(pk.ks))
    trap[[0, -1]] = 0.5
    ladder = ladder_clock(barrier.edges, barrier.heights, pk.ks,
                          np.abs(pk.G) ** 2 * trap * pk.dk, omega)
    for tau, want in zip(res, ladder):
        assert abs(tau - want) <= 1e-8 * abs(tau)


def test_clock_reads_where_transmission_underflows():
    # kappa w ~ 369: |A_T|^2 is subnormal or 0 across the packet, so the
    # moments sum w Im(dA conj A) underflow unless scaled; the readings must
    # continue those of a thinner opaque barrier (the reflected time saturates
    # with width, the transmitted one grows by under 1e-8 per unit width)
    taus = []
    for b in (7.0, 8.25):
        bar = ss.make_rectangular(0.0, b, 1000.0)
        pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=128)
        fam = ss.solve_family(bar, pk.ks)
        taus.append(ss.clock_times(pk, fam))
    assert np.any(fam.T == 0) and np.all(fam.T < 1e-300)
    (thin_tr, thin_ref), (thick_tr, thick_ref) = taus
    assert abs(thick_tr - thin_tr) < 1e-3 * thin_tr
    assert abs(thick_ref - thin_ref) < 1e-9 * thin_ref
