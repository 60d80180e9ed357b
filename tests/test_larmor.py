"""Spin-precession clock: spin-resolved scattering and the zero-field limit."""

import math

import numpy as np
import pytest

import scatsplit as ss

KRES = math.sqrt(2 * 2.0 + math.pi**2)  # full-transmission point of the rectangle


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


def test_clock_needs_nonzero_omega(canonical_barrier, clock_packet):
    run = ss.make_spin_run(canonical_barrier, 0.0, clock_packet)
    with pytest.raises(ss.DomainError):
        ss.clock_times(run, clock_packet)


def test_free_clock_reads_transit_time():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    pk = ss.make_gaussian_packet(-30.0, 6.0, 1.0, barrier=free, n=256)
    res = ss.clock_times(ss.make_spin_run(free, ss.default_omega(pk), pk), pk)
    # ensemble free transit: L * <1/k> over the transmitted weights
    w = np.abs(pk.G) ** 2
    w = w / np.sum(w)
    expected = 2.0 * float(np.sum(w / pk.ks))
    assert abs(res.tau_tr - expected) < 0.01 * expected
    # no reflected subensemble without a barrier: the reading is withheld
    assert res.tau_ref is None
    assert res.per_rung_ref == ()


def test_canonical_clock_values(canonical_barrier, clock_packet):
    om = ss.default_omega(clock_packet)
    res = ss.clock_times(ss.make_spin_run(canonical_barrier, om, clock_packet),
                         clock_packet)
    tau_tr, tau_ref = res  # unpackable
    assert tau_tr == pytest.approx(0.3156753608, abs=1e-6)
    assert tau_ref == pytest.approx(0.3091737241, abs=1e-6)
    assert res.error_tr < 1e-9 and res.error_ref < 1e-9
    assert res.warnings == ()


def test_clock_stable_across_base_frequencies(canonical_barrier, clock_packet):
    taus = []
    for frac in (1e-3, 5e-4, 2.5e-4):
        om = ss.default_omega(clock_packet, frac)
        res = ss.clock_times(
            ss.make_spin_run(canonical_barrier, om, clock_packet), clock_packet)
        taus.append((res.tau_tr, res.tau_ref))
    for a, b in zip(taus, taus[1:]):
        assert abs(a[0] - b[0]) < 0.01 * abs(a[0])
        assert abs(a[1] - b[1]) < 0.01 * abs(a[1])


def test_deep_barrier_clock_finite():
    # kappa L ~ 20: the clock reads a short, finite time for both channels
    deep = ss.make_rectangular(0.0, 2.0, 50.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=deep, n=256)
    res = ss.clock_times(ss.make_spin_run(deep, ss.default_omega(pk), pk), pk)
    assert 0.0 < res.tau_tr < 0.02
    assert res.tau_ref is not None and 0.0 < res.tau_ref < 0.02


def test_clock_disagrees_with_presence_time(canonical_barrier, clock_packet):
    # the precession reading is several times shorter than the
    # density-integrated presence time for the same subensemble
    om = ss.default_omega(clock_packet)
    res = ss.clock_times(ss.make_spin_run(canonical_barrier, om, clock_packet),
                         clock_packet)
    fam = ss.solve_family(canonical_barrier, clock_packet.ks)
    tau_presence = ss.route_b(clock_packet, fam, ss.dwell_tables(fam), "tr")["density"]
    assert res.tau_tr < 0.5 * tau_presence


def test_large_omega_flags_or_raises(canonical_barrier):
    pk = ss.make_gaussian_packet(-40.0, 8.0, KRES, barrier=canonical_barrier,
                                 n=256)
    res = ss.clock_times(ss.make_spin_run(canonical_barrier, 1.0, pk), pk)
    assert "omega_too_large_ref" in res.warnings
    with pytest.raises(ss.ConvergenceError) as exc:
        ss.clock_times(ss.make_spin_run(canonical_barrier, 2.0, pk), pk)
    assert "tau_rungs" in exc.value.diagnostics


def test_clock_reuses_given_rungs_and_family(canonical_barrier, clock_packet):
    om = ss.default_omega(clock_packet)
    runs = [ss.make_spin_run(canonical_barrier, om / d, clock_packet) for d in (1, 2, 4)]
    fam = ss.solve_family(canonical_barrier, clock_packet.ks)
    fresh = ss.clock_times(runs[0], clock_packet)
    reused = ss.clock_times(runs[0], clock_packet, runs=runs[1:], family=fam)
    for name in ("tau_tr", "tau_ref", "error_tr", "error_ref", "omega_ladder",
                 "per_rung_tr", "per_rung_ref", "warnings", "diagnostics"):
        assert getattr(reused, name) == getattr(fresh, name)
    other = ss.solve_family(ss.make_rectangular(0.0, 1.0, 2.5), clock_packet.ks)
    with pytest.raises(ss.DomainError):
        ss.clock_times(runs[0], clock_packet, family=other)
