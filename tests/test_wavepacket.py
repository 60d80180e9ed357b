"""Spectral packet synthesis: normalization, free-space limit, conservation."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import times as tm
from scatsplit import wavepacket as wp
from analytic import (
    density_per_time, free_gaussian, packet_weights, plane_wave_sum, transfer_amplitudes,
)


# ---------------------------------------------------------------- spectrum


def test_spectrum_normalized(canonical_packet):
    assert abs(canonical_packet.norm_G - 1.0) < 1e-12


def test_kgrid_validation():
    with pytest.raises(ss.DomainError, match="at least 16 points"):
        ss.make_gaussian_packet(-40.0, 8.0, 1.0, n=8)
    # 6.5 / sigma is under half an ulp of k0: k0 +/- 6.5/sigma rounds to k0
    with pytest.raises(ss.DomainError, match="collapses"):
        ss.make_gaussian_packet(-40.0, 1e18, 1.0, n=64)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, n=64)
    assert pk.ks[0] == 1 - 6.5 / 8 and pk.ks[-1] == 1 + 6.5 / 8 and pk.warnings == ()


def test_default_kgrid_clamped_floor():
    # k0 - 6.5/sigma < 0 here, so the lower edge clamps to a positive floor
    pk = ss.make_gaussian_packet(-45.0, 8.0, 0.7, n=128)
    assert pk.ks[0] > 0
    # |g| at the floor is 1.6e-7 of the peak, over the 1e-8 tail bound
    assert pk.warnings == ("k_grid_clamped", "cutoff_tail_1.6e-07")
    assert abs(pk.norm_G - 1.0) < 1e-12  # renormalized despite the cut tail
    # k0 - 6.5/sigma = 3.25e-4 > 0 lies below the floor 1e-3 k0: clamped too,
    # with a tail under the bound
    pk = ss.make_gaussian_packet(-45.0, 8.0, 0.812825, n=128)
    assert pk.ks[0] == pytest.approx(8.12825e-4, rel=1e-12)
    assert pk.warnings == ("k_grid_clamped",)


def test_packet_preconditions():
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    with pytest.raises(ss.ConfigError):
        ss.make_gaussian_packet(-40.0, -1.0, 1.0)
    with pytest.raises(ss.ConfigError):
        ss.make_gaussian_packet(-40.0, 8.0, 0.0)
    with pytest.raises(ss.ConfigError):
        ss.make_gaussian_packet(-40.0, 2.0, 1.0)  # k0 < 5/sigma
    with pytest.raises(ss.ConfigError):
        ss.make_gaussian_packet(-10.0, 8.0, 1.0, barrier=bar)  # starts on top
    for x0 in (np.nan, -np.inf):
        with pytest.raises(ss.ConfigError, match="x0 must be finite"):
            ss.make_gaussian_packet(x0, 8.0, 1.0, barrier=bar)
    # a non-finite sigma or k0 is named, not refused later as a k-grid fault
    for sigma in (np.inf, np.nan):
        with pytest.raises(ss.ConfigError, match="sigma must be positive and finite"):
            ss.make_gaussian_packet(-1e9, sigma, 1.0)
    for k0 in (np.inf, np.nan):
        with pytest.raises(ss.ConfigError, match="k0 must be positive and finite"):
            ss.make_gaussian_packet(-40.0, 8.0, k0)


def test_boundary_equalities_accepted():
    # both far-start inequalities admit exact equality
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 0.625, barrier=bar, n=64)  # k0*sigma = 5
    assert pk.k0 == 0.625
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=64)  # x0 + 5 sigma = a
    assert pk.x0 == -40.0


# ------------------------------------------------------------- free packet


def test_free_packet_matches_analytic():
    bar = ss.make_rectangular(0.0, 2.0, 0.0)
    # the last case makes every k degenerate (R = 0) on ~11k rows left of a
    for n, t, dx in ((384, 0.0, 0.05), (384, 12.0, 0.05), (wp.DEFAULT_NK, 80.0, 0.02)):
        pk = ss.make_gaussian_packet(-30.0, 6.0, 1.0, barrier=bar, n=n)
        tracemalloc.start()
        try:
            snap = ss.snapshot(pk, bar, t, dx=dx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6  # plane-wave sums go in blocks of _X_CHUNK rows
        ref = np.array(
            [free_gaussian(x, t, -30.0, 6.0, 1.0) for x in snap.x_grid]
        )
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(snap.psi_full - ref)) < 1e-7 * scale
        # nothing reflects off a zero barrier
        assert np.max(np.abs(snap.psi_ref)) < 1e-13
        assert abs(snap.T_t - 1.0) < 1e-9
        assert abs(snap.R_t) < 1e-15


# ------------------------------------------------------------ conservation


def test_snapshot_partition_and_identity(canonical_packet, canonical_barrier):
    snap = ss.snapshot(canonical_packet, canonical_barrier, 20.0, dx=0.05)
    # tr is the exact complement; T_t closes the norm identity by construction
    np.testing.assert_array_equal(snap.psi_tr, snap.psi_full - snap.psi_ref)
    assert snap.T_t == snap.norm_full - snap.R_t - 2 * snap.overlap_re


def test_quiet_time_conservation(canonical_packet, canonical_barrier):
    for t in ss.quiet_times(canonical_packet, canonical_barrier, n_pre=2, n_post=2):
        snap = ss.snapshot(canonical_packet, canonical_barrier, float(t), dx=0.05, strict=True)
        assert abs(snap.norm_full - 1.0) < 1e-9
        assert abs(snap.T_t + snap.R_t - 1.0) < 1e-8
        assert abs(snap.overlap_re) < 1e-8


def test_nan_fails_the_snapshot_checks(canonical_packet, canonical_barrier, monkeypatch):
    # a NaN end density or conservation residual must fail its check
    snapshot_on = wp._snapshot_on

    def first_node_nan(*args):
        snap = snapshot_on(*args)
        psi = snap.psi_full.copy()
        psi[0] = np.nan
        return dataclasses.replace(snap, psi_full=psi)

    monkeypatch.setattr(wp, "_snapshot_on", first_node_nan)
    with pytest.raises(ss.WindowError, match="end density nan"):
        ss.snapshot(canonical_packet, canonical_barrier, 20.0, dx=0.05, strict=True)
    monkeypatch.setattr(wp, "_snapshot_on", lambda *args: dataclasses.replace(
        snapshot_on(*args), norm_full=math.nan))
    with pytest.raises(ss.ToleranceError, match="norm_minus_1"):
        ss.snapshot(canonical_packet, canonical_barrier, 20.0, dx=0.05, strict=True)


def test_transient_overlap_and_constant_R(canonical_packet, canonical_barrier):
    t_pre, t_post = ss.event_window(canonical_packet, canonical_barrier)
    t_mid = 0.5 * (t_pre + t_post)
    mid = ss.snapshot(canonical_packet, canonical_barrier, t_mid, dx=0.05)
    late = ss.snapshot(canonical_packet, canonical_barrier, t_post + 10.0, dx=0.05)
    early = ss.snapshot(canonical_packet, canonical_barrier, 0.0, dx=0.05)

    # the cross term is genuinely nonzero while the packet straddles the
    # barrier and collapses again afterwards
    assert abs(mid.overlap_re) > 1e-5
    assert abs(late.overlap_re) < 1e-9
    # the masked reflection norm never changes (no flux through its node)
    assert abs(mid.R_t - early.R_t) < 1e-7
    assert abs(late.R_t - early.R_t) < 1e-10
    # total norm is conserved even mid-event
    assert abs(mid.norm_full - 1.0) < 1e-7


def test_event_window_brackets_transit(canonical_packet, canonical_barrier):
    t_pre, t_post = ss.event_window(canonical_packet, canonical_barrier)
    t_transit = (canonical_barrier.x_c - canonical_packet.x0) / canonical_packet.k0
    assert 0.0 < t_pre < t_transit < t_post


def test_event_window_times_are_nodes_of_the_band_scan(canonical_packet, canonical_barrier):
    # event_window reads the band-rate scan route A reads, over [0, t_hi]:
    # both of its times are nodes of that grid, well under the 600 probes it
    # once took, and the later one is quiet enough for a strict snapshot
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    t_hi = wp._event_spans(canonical_packet, fam)[1]
    dt, s = wp._density_scan(fam.basis(np.array([0.5])), canonical_packet, np.ones(1), 0.0, t_hi)
    t_pre, t_post = ss.event_window(canonical_packet, canonical_barrier)
    assert len(s) < 600
    for t in (t_pre, t_post):
        j = round(t / dt)
        assert 0 < j < len(s) - 1 and t == dt * j
    ss.snapshot(canonical_packet, canonical_barrier, t_post, strict=True)


def test_spectral_T_keeps_a_subnormal_mean():
    # kappa w ~ 370: T is subnormal on the whole k grid, and the unscaled sum
    # of |G|^2 T rounds to 0; both spectral means read one scaled sum
    bar = ss.make_rectangular(0.0, 8.25, 1000.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=128)
    T_bar = ss.spectral_transmitted_norm(pk, bar)
    assert T_bar > 0
    assert T_bar == tm._spectral_coef_norm(pk, ss.solve_family(bar, pk.ks), "tr")[0]


def test_spectral_T_matches_late_T_t(canonical_packet, canonical_barrier):
    T_bar = ss.spectral_transmitted_norm(canonical_packet, canonical_barrier)
    _, t_post = ss.event_window(canonical_packet, canonical_barrier)
    late = ss.snapshot(canonical_packet, canonical_barrier, t_post + 10.0, dx=0.05)
    assert abs(late.T_t - T_bar) < 1e-6
    assert abs(late.R_t - (1.0 - T_bar)) < 1e-6


# ----------------------------------------------------------------- guards


def test_snapshot_grid_checks(canonical_packet, canonical_barrier):
    with pytest.raises(ss.DomainError):
        ss.snapshot(canonical_packet, canonical_barrier, 0.0, xs=np.array([0.0]))
    with pytest.raises(ss.DomainError):
        ss.snapshot(
            canonical_packet, canonical_barrier, 0.0,
            xs=np.array([0.0, 1.0, 3.0]),
        )
    with pytest.raises(ss.WindowError):
        # uniform but far too short: it cuts straight through the packet
        ss.snapshot(
            canonical_packet, canonical_barrier, 0.0,
            xs=np.linspace(-42.0, -38.0, 81),
        )


@pytest.mark.parametrize("dx", [0.0, -0.02, np.inf, np.nan])
def test_snapshot_refuses_a_bad_dx(canonical_packet, canonical_barrier, dx):
    with pytest.raises(ss.DomainError, match="dx must be positive and finite"):
        ss.snapshot(canonical_packet, canonical_barrier, 0.0, dx=dx)


def test_unresolved_resonance_refused_by_name():
    # a benchmark evolve input (perfbench seed 1, op 16): A_T's phase steps
    # by 2.8 rad between neighbouring k of the 256-point grid near k = 1.38
    bar = ss.make_symmetric(-0.9194546145377411, [
        (0.8559816225143934, 4.138701542572426), (1.392967759838563, 1.1964021156137852),
        (0.6373654979494823, 0.4089530176537441)])
    pk = ss.make_gaussian_packet(-40.91945461453774, 8.0, 1.368988525685961,
                                 barrier=bar, n=256)
    with pytest.raises(ss.GridRefinementError, match=(
            r"^unresolved resonance near k=1\.38173: .* delay of at least 318\.6 "
            r"\(Breit-Wigner width 0\.00131\) is not resolved; needs n_k >= 4552 \(now 256\)$")):
        ss.quiet_times(pk, bar)


def test_unresolved_resonance_asks_for_its_n_k_once():
    # a double barrier with a resonance of width 0.0041 at k = 1.947: the n_k
    # from the Breit-Wigner width, not from the phase step alone (which asked
    # for 496, then 1384), resolves it on the first rerun, where only the
    # recurrence time is left to refuse
    bar = ss.make_symmetric(0.0, [(1.2, 6.0), (0.5, 0.0)])

    def refusal(n):
        pk = ss.make_gaussian_packet(-40.0, 8.0, 1.947, barrier=bar, n=n)
        with pytest.raises(ss.GridRefinementError) as exc:
            wp._event_spans(pk, ss.solve_family(bar, pk.ks))
        return str(exc.value), int(re.search(r"needs n_k >= (\d+)", str(exc.value)).group(1))

    why, n = refusal(128)
    assert why.startswith("unresolved resonance near k=1.947") and 1000 < n < 20000
    assert "recurrence time" in refusal(n)[0]


def test_recurring_k_grid_refused_by_name(canonical_packet, canonical_barrier):
    # 48 k points repeat the passage after 2 pi / (k dk) = 113 at the fastest
    # significant k, before the slowest has crossed
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=canonical_barrier, n=48)
    with pytest.raises(ss.GridRefinementError, match=(
            r"^the event spans 189\.5 in time .* recurrence time 2 pi/\(k dk\) = 113\.2 "
            r"at k=1\.605; needs n_k >= 88 \(now 48\)$")):
        ss.event_window(pk, canonical_barrier)
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    t_lo, t_hi, recurrence = wp._event_spans(canonical_packet, fam)
    t_pre, t_post = ss.event_window(canonical_packet, canonical_barrier)
    assert t_lo < 0 < t_pre < t_post < t_hi < t_lo + recurrence


# CLI fuzz seed 1 draw 2: resonances delay the reflected packet by up to
# k delay = 280, and it rings on behind that for 1400 (2400 k) to 2500 (64 k)
RINGING = (ss.make_symmetric(-1.8924351838185167, [
    (2.659582906631892, 27.092663817255755), (0.019483367895017128, 34.39730337655003),
    (0.8743952422220941, 33.684224471606754)]), (-24.1087276330321, 1.3289014368026302,
                                                7.515304075314758))


def test_snapshot_grid_beyond_alias_period_refused():
    # on 64 k points the fields repeat every 2 pi / dk = 40.5 in x, where the
    # delayed, ringing reflection and the rows left of a span 2851
    bar, (x0, sigma, k0) = RINGING
    pk = ss.make_gaussian_packet(x0, sigma, k0, barrier=bar, n=64)
    with pytest.raises(ss.GridRefinementError, match=(
            r"^the reflected packet and its rows at t=0\.0 span 2851, at least the k grid's "
            r"alias period 2 pi/dk = 40\.46; needs n_k >= 4884 \(now 64\)$")):
        ss.snapshot(pk, bar, 0.0, dx=0.05)


def test_resolved_resonances_ringing_past_the_period_refused():
    # 2400 k resolve the resonances, which ring on past the period 1541:
    # there the synthesis misses the free packet at t = 0 by 2.5e-6 of its
    # peak left of a - 1, 25 times the refusal fuzz's bound
    bar, (x0, sigma, k0) = RINGING
    pk = ss.make_gaussian_packet(x0, sigma, k0, barrier=bar, n=2400)
    with pytest.raises(ss.GridRefinementError, match=(
            r"^the reflected packet and its rows at t=0\.0 span 1706, at least the k grid's "
            r"alias period 2 pi/dk = 1541; needs n_k >= 2923 \(now 2400\)$")):
        ss.snapshot(pk, bar, 0.0, dx=0.05)


def test_a_column_without_rows_is_not_judged():
    # perfbench oracle op 2 (seed 1): a resonance near k = 2.67 delays the
    # transmitted packet by k delay = 326.  Its span is judged only where
    # the grid has rows right of b, which the t = -3 grid has not
    a = -1.120787674210225
    bar = ss.make_symmetric(a, [(1.05, 5.3015666970339375), (0.4, 5.768069211791595),
                                (0.4, 1.5574965554322124)])
    pk = ss.make_gaussian_packet(a - 40.0, 8.0, 1.9909491226396994, barrier=bar, n=192)
    fam = ss.solve_family(bar, pk.ks)
    k_delay = pk.ks * wp._delays(pk, fam)[1]
    assert 326 < np.max(k_delay[(pk.ks > 2.6) & (pk.ks < 2.7)]) < 327
    early, late = (wp.auto_grid(pk, bar, (t,), 0.05) for t in (-3.0, 0.0))
    assert early[-1] < bar.b < late[-1] < bar.b + 6
    assert wp.check_alias(pk, fam, early, -3.0) < 200
    assert 326 < wp.check_alias(pk, fam, late, 0.0) < 2 * np.pi / pk.dk


def test_given_grid_beyond_alias_period_refused():
    # a caller's grid is held to the alias period as an automatic one is: on
    # 64 k points the fields repeat every 2 pi / dk = 182.7 in x, and this
    # grid spans 548, so it holds three copies of the packet (norm_full 3).
    # Its 314 rows left of a alone span more than the period
    bar = ss.make_rectangular(0.0, 1.0, 0.0)
    pk = ss.make_gaussian_packet(-40.0, 6.0, 2.0, barrier=bar, n=64)
    xs = -40.0 + 0.05 * np.arange(-5481, 5482)
    with pytest.raises(ss.GridRefinementError, match=(
            r"^the reflected packet and its rows at t=0\.0 span 388\.1, at least the k "
            r"grid's alias period 2 pi/dk = 182\.7; needs n_k >= 149 \(now 64\)$")):
        ss.snapshot(pk, bar, 0.0, xs=xs)
    # the synthesis under it does hold three copies
    snap = wp._snapshot_on(xs, ss.solve_family(bar, pk.ks), wp._weights(pk, 0.0), 0.0, 0.0)
    assert abs(snap.norm_full - 3.0) < 1e-9


# -------------------------------------------------------- chirp-z synthesis


def _basis_reference(packet, barrier, t, xs):
    """Fields and norms by the per-grid x-by-k basis GEMV, with the reflection
    basis z [Psi_full(x) - Psi_full(2 x_c - x)] masked to x <= x_c."""
    fam = ss.solve_family(barrier, packet.ks)
    w = packet_weights(packet, t)
    M = fam.basis(xs)
    mirror = fam.basis((2 * barrier.x_c - xs)[::-1])[::-1]
    Mr = np.where((xs <= barrier.x_c)[:, None], fam.z * (M - mirror), 0.0)
    full, ref = M @ w, Mr @ w
    tw = np.ones(len(xs))
    tw[0] = tw[-1] = 0.5
    tw *= xs[1] - xs[0]
    norm = np.sum(np.abs(full) ** 2 * tw)
    R_t = np.sum(np.abs(ref) ** 2 * tw)
    ov = np.sum(np.conj(full - ref) * ref * tw)
    return full, ref, norm, norm - R_t - 2 * ov.real, R_t, ov.real


def _assert_matches_basis(snap, packet, barrier):
    full, ref, norm, T_t, R_t, ov = _basis_reference(
        packet, barrier, snap.t, snap.x_grid)
    # the packet's peak before it spreads; a grid in the tails (the two-point
    # one) is not held to its own tiny values
    peak = np.sum(np.abs(packet_weights(packet, snap.t)))
    assert np.max(np.abs(snap.psi_full - full)) < 1e-12 * peak
    assert np.max(np.abs(snap.psi_ref - ref)) < 1e-12 * peak
    assert np.max(np.abs(snap.psi_tr - (full - ref))) < 1e-12 * peak
    for got, want in zip((snap.norm_full, snap.T_t, snap.R_t, snap.overlap_re),
                         (norm, T_t, R_t, ov)):
        assert abs(got - want) < 1e-12


STEP_BARRIER = ss.make_symmetric(0.0, [(0.4, 1.5), (0.3, 0.8)])

# a rectangle whose second resonance lies 3e-7 below a k of canonical_packet:
# that k is degenerate (R < 1e-12, so z = 0) with |A_R| ~ 5e-7, a reflected
# wave that psi_tr carries
_K_RES = ss.make_gaussian_packet(-40.0, 8.0, 1.0, n=384).ks[200] * (1 - 3e-7)
RESONANT_BARRIER = ss.make_rectangular(0.0, 4.0, (_K_RES**2 - (np.pi / 4) ** 2) / 2)


@pytest.mark.parametrize("bar, t, xs", [
    (STEP_BARRIER, 0.0, np.linspace(-110.0, -1.0, 2181)),       # wholly left of a
    (STEP_BARRIER, 20.0, np.linspace(-120.013, 60.0, 9001)),    # x_c off every node
    (STEP_BARRIER, 0.0, np.array([-130.0, 100.0])),              # two points
    (STEP_BARRIER, 20.0, np.linspace(-140.0, 60.0, 10001)),     # > 2 blocks, not a multiple
    (STEP_BARRIER, 0.0, np.linspace(0.013, 1.387, 188)),        # wholly in [a, b], x_c off node
    (RESONANT_BARRIER, 60.0, np.linspace(-150.0, 120.0, 13501)),
], ids=["left_of_a", "xc_off_node", "two_points", "blocks", "inside_barrier",
        "degenerate_k"])
def test_snapshot_matches_basis_gemv(canonical_packet, bar, t, xs):
    assert len(xs) % wp._X_CHUNK or len(xs) < 2
    snap = ss.snapshot(canonical_packet, bar, t, xs=xs)
    _assert_matches_basis(snap, canonical_packet, bar)


def test_snapshot_right_of_b_matches_basis_gemv():
    # a nearly transparent barrier: late on, the whole packet is right of b
    bar = ss.make_rectangular(0.0, 1.0, 0.1)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.5, barrier=bar, n=256)
    xs = np.linspace(2.0, 260.0, 6451)
    snap = ss.snapshot(pk, bar, 80.0, xs=xs)
    assert np.all(snap.psi_ref == 0)
    _assert_matches_basis(snap, pk, bar)


def test_sixteen_k_matches_basis_gemv():
    # 16 k points alias the packet, so the public snapshot refuses this
    # grid; the synthesis under it is checked directly
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=STEP_BARRIER, n=16)
    xs = np.linspace(-70.0, 50.0, 3001)
    w = wp._weights(pk, 15.0)
    snap = wp._snapshot_on(xs, ss.solve_family(STEP_BARRIER, pk.ks), w, 15.0, 0.0)
    _assert_matches_basis(snap, pk, STEP_BARRIER)


def test_outer_fields_match_plane_wave_sums():
    bar = STEP_BARRIER
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=64)
    t = 30.0
    xs = np.linspace(-60.0, 40.0, 401)
    w = packet_weights(pk, t)
    amps = [transfer_amplitudes(bar.edges, bar.heights, k) for k in pk.ks]
    A_T = np.array([a[0] for a in amps])
    A_R = np.array([a[1] for a in amps])
    z = A_R / (A_R - A_T * np.exp(2j * pk.ks * bar.x_c))
    left, right = xs < bar.a, xs >= bar.b
    tol = 1e-12 * np.sum(np.abs(w))

    snap = ss.snapshot(pk, bar, t, xs=xs)
    full = snap.psi_full
    want_left = (np.array(plane_wave_sum(pk.ks, w, xs[left]))
                 + np.conj(plane_wave_sum(pk.ks, np.conj(w * A_R), xs[left])))
    want_right = np.array(plane_wave_sum(pk.ks, w * A_T, xs[right]))
    assert np.max(np.abs(full[left] - want_left)) < tol
    assert np.max(np.abs(full[right] - want_right)) < tol

    # left of a the mirror point 2 x_c - x lies right of b
    ref = snap.psi_ref
    mirror = np.conj(plane_wave_sum(
        pk.ks, np.conj(w * z * A_T * np.exp(2j * pk.ks * bar.x_c)), xs[left]))
    zsum = (np.array(plane_wave_sum(pk.ks, w * z, xs[left]))
            + np.conj(plane_wave_sum(pk.ks, np.conj(w * z * A_R), xs[left])))
    assert np.max(np.abs(ref[left] - (zsum - mirror))) < tol
    assert np.all(ref[xs > bar.x_c] == 0)

    # psi_tr: the incoming wave A_tr_In e^{ikx} left of a, all of psi_full from b on
    tr = snap.psi_tr
    A_tr_In = -A_T * np.exp(2j * pk.ks * bar.x_c) / (A_R - A_T * np.exp(2j * pk.ks * bar.x_c))
    want_tr = np.array(plane_wave_sum(pk.ks, w * A_tr_In, xs[left]))
    assert np.max(np.abs(tr[left] - want_tr)) < tol
    assert np.all(tr[right] == full[right])


def test_drifting_grid_refused(canonical_packet, canonical_barrier):
    # steps grow by 0.9e-9 relative over the grid: the step spread passes,
    # but the nodes drift about 1e-6 dx from the uniform points
    n = 10001
    steps = 0.02 * (1 + 0.9e-9 * np.arange(n - 1) / (n - 2))
    xs = -120.0 + np.concatenate([[0.0], np.cumsum(steps)])
    assert np.ptp(np.diff(xs)) <= 1e-9 * (xs[1] - xs[0])
    for grid in (xs, xs[::-1]):
        with pytest.raises(ss.DomainError, match="uniform and ascending"):
            ss.snapshot(canonical_packet, canonical_barrier, 0.0, xs=grid)


def test_density_scan_matches_per_time_loop(canonical_packet, canonical_barrier, monkeypatch):
    # the time scan of event_window and route A, against one GEMV per t.
    # Every window starts and ends on density (the packet reaches the barrier
    # near t = 40 and leaks out slowly), and the late ones reach phases E t
    # of 1e4 rad and more.  The grid is odd, spans the window exactly and
    # takes the longest step within the band's rate: dt <= pi / (oversample
    # Omega), with one node pair fewer beyond it.  Blocks of 1, 9 and 2500
    # time nodes per GEMM (one GEMM over the short window) match too: every
    # phase is reduced exactly, so no block size rounds a late time node.
    fam = ss.solve_family(canonical_barrier, canonical_packet.ks)
    M = fam.basis(np.linspace(-1.0, 2.0, 33))
    wx = np.linspace(0.5, 1.5, 33)
    ks = canonical_packet.ks
    omega = (ks[-1] ** 2 - ks[0] ** 2) / 2
    assert 0.5 * ks[-1] ** 2 * 1e4 > 1e4
    for t_lo, t_hi in ((30.0, 50.0), (38.0, 1e4), (1e4, 2e4)):
        dt, got = wp._density_scan(M, canonical_packet, wx, t_lo, t_hi)
        m = len(got)
        assert got.shape == (m,) and m % 2 == 1
        assert dt * (m - 1) == pytest.approx(t_hi - t_lo, rel=1e-15)
        assert dt <= np.pi / (wp._BAND_OVERSAMPLE * omega) < (t_hi - t_lo) / (m - 3)
        want = density_per_time(M, canonical_packet, wx, t_lo, dt, m)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(want)
        for block in (1, 9, 2500):
            monkeypatch.setattr(wp, "_SCAN_BLOCK", block)
            assert np.max(np.abs(wp._density_scan(M, canonical_packet, wx, t_lo, t_hi)[1]
                                 - want)) < 1e-12 * np.max(want)
        monkeypatch.undo()


@pytest.mark.parametrize("k0, t", [(1.0, 1e4), (2.5, 2e4), (2.5, 1e5)])
def test_weights_keep_long_time_phases(canonical_barrier, k0, t):
    # a double product E t rounds by 1e-12 rad at 1e4 rad (the weights read
    # 1.8e-12, 1.4e-11 and 9.3e-11 rad here with one); the exact
    # two-products stay within the long-double reference's own rounding
    pk = ss.make_gaussian_packet(-40.0, 8.0, k0, barrier=canonical_barrier, n=384)
    assert np.max(np.abs(np.angle(wp._weights(pk, t) / packet_weights(pk, t)))) < 1e-13


def test_phase_reduces_exactly():
    # E t n mod 2 pi against 50 digits, to about an ulp of pi, for phases up
    # to 1e7 rad and negative times
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ks = np.random.default_rng(3).uniform(0.01, 5.0, 40)
    n = np.array([0, 1, 7, 997, 99999])
    for t in (0.37, 1e4, -3e4, 1e5):
        got = wp._phase(ks, t, n)
        for i, j in np.ndindex(got.shape):
            exact = mpmath.mpf(ks[j]) ** 2 / 2 * mpmath.mpf(t) * int(n[i])
            miss = float(mpmath.fmod(exact - mpmath.mpf(got[i, j]), 2 * mpmath.pi))
            assert min(abs(miss), 2 * math.pi - abs(miss)) < 5e-16


# --------------------------------------------------------- snapshot grids


def _reach_grid_rows(packet, barrier, t, dx):
    """Rows of the grid that padded the reaches x0 + k_hi t and 2 a - x0 -
    k_hi t by the initial width 6 sigma + 5, reaching b at least: the rule
    the packet's support replaced."""
    k_hi, x_c, pad = packet.ks[-1], barrier.x_c, 6.0 * packet.sigma + 5.0
    lo = min(packet.x0 + k_hi * min(t, 0.0), 2 * barrier.a - packet.x0 - k_hi * t) - pad
    hi = max(barrier.b, packet.x0 + k_hi * t + pad)
    return math.ceil((x_c - lo) / dx) + math.ceil((hi - x_c) / dx) + 1


SLOW = (ss.make_rectangular(0.0, 1.0, 2.0), (-70.0, 12.0, 0.45, 512))
WELL = (ss.make_rectangular(0.0, 6.0, -3.0), (-40.0, 6.0, 1.5, 384))


# each id keeps, after the case and the time, the share of the rows of the
# wider span refusals were once judged on that the case's grid was held to
@pytest.mark.parametrize("case, when", [pytest.param(*c.split("-")[:2], id=c) for c in (
    "canonical-start-0.8", "canonical-pre-0.8", "canonical-mid-0.9", "canonical-post-0.9",
    "slow-start-0.8", "slow-pre-0.8", "slow-mid-0.9", "slow-post-0.8",
    "well-start-0.8", "well-pre-0.8", "well-mid-0.9", "well-post-0.9")])
def test_auto_grid_pads_the_packet_not_the_barrier(canonical_packet, canonical_barrier,
                                                   case, when):
    # the grid spans the packet's support, D sigma_t beyond the free centre
    # and the sub-packets' fronts, and its full-state end densities read
    # four decades under the 1e-10 gate.  After the event it has a fifth
    # fewer rows than the grid that padded the reach k_hi t, and never more
    # rows before; on the slow packet the reflected front, (b - a) ahead of
    # the mirror image, holds it to about 0.84
    if case == "canonical":
        pk, bar = canonical_packet, canonical_barrier
    else:
        bar, (x0, sigma, k0, n) = SLOW if case == "slow" else WELL
        pk = ss.make_gaussian_packet(x0, sigma, k0, barrier=bar, n=n)
    t_pre, t_post = ss.event_window(pk, bar)
    t = {"start": 0.0, "pre": t_pre, "mid": (t_pre + t_post) / 2, "post": t_post}[when]
    xs = wp.auto_grid(pk, bar, (t,), 0.05)
    steps = (xs - bar.x_c) / 0.05
    assert np.max(np.abs(steps - np.rint(steps))) < 1e-9
    fewer = 1.0 if when != "post" else 0.85 if case == "slow" else 0.8
    assert len(xs) <= fewer * _reach_grid_rows(pk, bar, t, 0.05)
    snap = ss.snapshot(pk, bar, t, dx=0.05)
    assert np.array_equal(snap.x_grid, xs)
    assert np.max(np.abs(snap.psi_full[[0, -1]]) ** 2) <= 1e-4 * wp._EDGE_DENSITY


@pytest.mark.parametrize("bar, times, xs", [
    # the cross-check's own grid: both times on the hull of their auto grids
    (None, (0.0, 45.0), None),
    # a degenerate k, x_c off every node, the packet across the barrier
    (RESONANT_BARRIER, (40.0, 60.0), np.linspace(-150.0, 120.0, 13501)),
], ids=["cross_check_grid", "degenerate_k"])
def test_full_fields_match_snapshots(canonical_packet, canonical_barrier, bar, times, xs):
    # one synthesis of psi_full alone at both times of the time-domain
    # cross-check, against each time's snapshot on the same grid
    bar = canonical_barrier if bar is None else bar
    if xs is None:
        xs = wp.auto_grid(canonical_packet, bar, times, 0.02)
    fam = ss.solve_family(bar, canonical_packet.ks)
    full = wp._full_fields(canonical_packet, fam, times, xs)
    assert full.shape == (len(xs), len(times))
    for col, t in zip(full.T, times):
        want = ss.snapshot(canonical_packet, bar, t, xs=xs, fam=fam).psi_full
        assert np.max(np.abs(col - want)) < 1e-14 * np.max(np.abs(want))
