"""Acceptance gate: one test (and one pass/fail line) per shipped guarantee.

Sampling policies baked in here:
* conservation checks sample the post-event quiet regime (pre-event, spectra
  containing a reflection zero give the masked states genuine power-law tails
  across the midpoint, at the 1e-4 level);
* (barrier, packet) pairs whose cavity resonances never go quiet on desk
  timescales are redrawn, with the redraw count reported and bounded;
* finite-difference current checks stay out of strongly evanescent interiors,
  where the quotient of huge densities and tiny currents amplifies stencil
  noise past the tolerance being verified.
"""

import math

import numpy as np
import pytest

import scatsplit as ss
from scatsplit import oracle as orc
from scatsplit.wavepacket import auto_grid
from analytic import branch_sweep, ladder_clock
from conftest import random_symmetric_barrier


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _suite_barriers(n=1000, seed=715):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        bar = random_symmetric_barrier(rng)
        out.append((bar, float(rng.uniform(0.2, 4.0))))
    return out


def test_criterion_1_unitarity():
    worst = 0.0
    for bar, k in _suite_barriers():
        fam = ss.solve_family(bar, [k])
        worst = max(worst, abs(fam.T[0] + fam.R[0] - 1.0))
    _report(1, worst < 1e-10,
            f"max |T+R-1| = {worst:.2e} over 1000 random barriers (tol 1e-10)")


def test_criterion_2_decomposition_identities():
    worst_mod = worst_re = worst_mid = worst_odd = 0.0
    degenerate = 0
    for bar, k in _suite_barriers():
        fam = ss.solve_family(bar, [k])
        z = fam.z[0]
        assert (1.0 - z) + z == 1.0 + 0.0j
        worst_mod = max(worst_mod,
                        abs(abs(1.0 - z) - abs(fam.A_T[0])),
                        abs(abs(z) - abs(fam.A_R[0])))
        worst_re = max(worst_re, abs(z.real - fam.R[0]))
        if fam.degenerate[0]:
            degenerate += 1
            continue
        # independent odd-symmetry check: a float sweep of both candidate
        # seeds to the midpoint (tests/analytic.py) must single out the
        # package's z, vanish at x_c, and reproduce its reflection sub-state
        xs = np.linspace(bar.a - 1.5, bar.x_c, 5)
        (z_odd, mid, field), _ = branch_sweep(
            bar.edges, bar.heights, k, fam.A_T[0], fam.A_R[0], xs)
        worst_mid = max(worst_mid, mid)
        ref = fam.split_basis(xs)[1][:, 0]
        peak = float(np.max(np.abs(ref)))
        resid = max(abs(z - z_odd),
                    float(np.max(np.abs(np.array(field) - ref))) / max(peak, 1e-30))
        worst_odd = max(worst_odd, resid)
    ok = (worst_mod < 1e-9 and worst_re < 1e-10
          and worst_mid < 1e-8 and worst_odd < 1e-8)
    _report(2, ok,
            f"amp sums exact; max modulus dev {worst_mod:.2e} (1e-9), "
            f"max Re dev {worst_re:.2e} (1e-10), midpoint {worst_mid:.2e} (1e-8), "
            f"odd residual {worst_odd:.2e} (1e-8); {degenerate} degenerate")


def test_criterion_3_constant_currents():
    h = 2e-4
    rng = np.random.default_rng(179)
    worst_tr = worst_ref = 0.0
    for _ in range(60):
        bar = random_symmetric_barrier(rng)
        k = float(rng.uniform(0.3, 3.5))
        fam = ss.solve_family(bar, [k])
        if fam.degenerate[0]:
            continue
        jT = k * fam.T[0]
        x_c = bar.x_c

        windows = [np.arange(bar.a - 1.0, bar.a - 3 * h, h),
                   np.arange(bar.b + 3 * h, bar.b + 1.0, h)]
        if fam.T[0] > 1e-3:  # interiors are FD-measurable only when open
            windows.append(np.arange(x_c + 3 * h, max(x_c + 3 * h + 0.1, bar.b), h))
        js = []
        for xs in windows:
            js.append(ss.probability_current(fam.split_basis(xs)[0][:, 0], h))
        j_all = np.concatenate(js)
        worst_tr = max(worst_tr, float(np.max(np.abs(j_all - jT))) / jT)

        xs = np.arange(bar.a - 1.0, bar.a - 3 * h, h)
        j_ref = ss.probability_current(fam.split_basis(xs)[1][:, 0], h)
        worst_ref = max(worst_ref, float(np.max(np.abs(j_ref))))
    ok = worst_tr < 1e-6 and worst_ref < 1e-6
    _report(3, ok,
            f"transmission-current variation {worst_tr:.2e} rel (1e-6), "
            f"reflection current {worst_ref:.2e} (1e-6), 60 barriers")


def test_criterion_4_packet_conservation():
    rng = np.random.default_rng(20260817)
    worst = {"norm": 0.0, "tpr": 0.0, "ov": 0.0, "tspread": 0.0}
    accepted = redrawn = 0
    while accepted < 20:
        bar = random_symmetric_barrier(rng)
        k0 = float(rng.uniform(0.9, 2.2))
        pk = ss.make_gaussian_packet(bar.a - 40.0, 8.0, k0, barrier=bar, n=384)
        try:
            ts = ss.quiet_times(pk, bar, n_pre=0, n_post=10)
        except (ss.WindowError, ss.GridRefinementError):
            redrawn += 1  # trapped cavity resonance the k grid cannot resolve
            assert redrawn <= 10
            continue
        T_vals = []
        for t in ts:
            snap = ss.snapshot(pk, bar, float(t), dx=0.05)
            worst["norm"] = max(worst["norm"], abs(snap.norm_full - 1.0))
            worst["tpr"] = max(worst["tpr"], abs(snap.T_t + snap.R_t - 1.0))
            worst["ov"] = max(worst["ov"], abs(snap.overlap_re))
            T_vals.append(snap.T_t)
        worst["tspread"] = max(worst["tspread"], max(T_vals) - min(T_vals))
        accepted += 1
    ok = all(v < 1e-6 for v in worst.values())
    _report(4, ok,
            f"20 pairs x 10 post-event times: |norm-1| {worst['norm']:.1e}, "
            f"|T+R-1| {worst['tpr']:.1e}, T spread {worst['tspread']:.1e}, "
            f"|Re overlap| {worst['ov']:.1e} (all 1e-6); {redrawn} pairs redrawn")


def test_criterion_5_route_equivalence():
    configs = [
        ("rect V0=2",  ss.make_rectangular(0.0, 1.0, 2.0), 1.0, 8.0),
        ("rect V0=8",  ss.make_rectangular(0.0, 2.0, 8.0), 1.2, 8.0),
        ("two-step",   ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)]), 1.4, 8.0),
        ("above-top",  ss.make_rectangular(0.0, 1.0, 2.0), 2.5, 8.0),
        ("free",       ss.make_rectangular(0.0, 2.0, 0.0), 1.0, 6.0),
    ]
    worst = 0.0
    lines = []
    for name, bar, k0, sg in configs:
        pk = ss.make_gaussian_packet(bar.a - 5 * sg, sg, k0, barrier=bar, n=384)
        rep = ss.build_time_report(pk, bar, phase_points=33)
        rel_tr = rep.residuals["route_tr"]
        rel_ref = rep.residuals["route_ref"]
        worst = max(worst, rel_tr, rel_ref or 0.0)
        lines.append(f"{name} tr {rel_tr:.1e}"
                     + (f" ref {rel_ref:.1e}" if rel_ref is not None else " ref n/a"))
    _report(5, worst < 1e-3, "route A vs B: " + "; ".join(lines) + " (tol 1e-3)")


def test_criterion_6_spin_clock():
    free = ss.make_rectangular(0.0, 2.0, 0.0)
    pk_free = ss.make_gaussian_packet(-80.0, 16.0, 1.0, barrier=free, n=384)
    res_free = ss.clock_times(pk_free, ss.solve_family(free, pk_free.ks))
    transit = 2.0 / 1.0
    free_dev = abs(res_free.tau_tr - transit) / transit

    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=256)
    fam = ss.solve_family(bar, pk.ks)
    res = ss.clock_times(pk, fam)
    tau_B = ss.route_b(pk, fam, ss.dwell_tables(fam), "tr")["density"]
    clock_dev = abs(res.tau_tr - tau_B) / tau_B
    # the closed form against a zero-field extrapolation of finite-field
    # readings at omega, omega/2, omega/4 from plain transfer matrices
    trap = np.ones(len(pk.ks))
    trap[[0, -1]] = 0.5
    ladder_tr, _ = ladder_clock(bar.edges, bar.heights, pk.ks,
                                np.abs(pk.G) ** 2 * trap * pk.dk, ss.default_omega(pk))
    ladder_dev = abs(res.tau_tr - ladder_tr) / res.tau_tr

    finding = (f"opaque barrier: clock {res.tau_tr:.4f} vs presence {tau_B:.4f} "
               f"({clock_dev:.0%} apart)")
    if clock_dev > 0.05:
        finding += " -- REPORTED FINDING: the two operational definitions disagree"
    ok = free_dev < 0.01 and ladder_dev <= 1e-8
    _report(6, ok,
            f"free-flight clock {res_free.tau_tr:.5f} vs {transit} "
            f"({free_dev:.2%}, tol 1%); {finding}; closed form vs field ladder "
            f"{ladder_dev:.1e} (tol 1e-8)")


def test_criterion_7_hartman_contrast():
    lengths, tau_ph, tau_dw = ss.hartman_scan(
        2.0, 1.0, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    ph_steps = np.abs(np.diff(tau_ph))      # per unit L (spacing is 1)
    dw_ratios = tau_dw[1:] / tau_dw[:-1]
    saturated = bool(np.all(ph_steps[2:] < 1e-2))
    growing = bool(np.all(dw_ratios > 3.0))
    ok = saturated and growing
    _report(7, ok,
            f"phase traversal saturates at {tau_ph[-1]:.6f} "
            f"(max late step {ph_steps[2:].max():.1e}/unit, tol 1e-2) while the "
            f"dwell time multiplies by >= {dw_ratios.min():.1f}/unit up to "
            f"{tau_dw[-1]:.2e}")


def test_criterion_8_oracle_equivalence():
    # time-domain: spectral synthesis vs Crank-Nicolson on the same grid
    bar = ss.make_rectangular(0.0, 1.0, 2.0)
    pk = ss.make_gaussian_packet(-40.0, 8.0, 1.0, barrier=bar, n=192)
    xs = auto_grid(pk, bar, (4.0,), dx=orc.CROSS_CHECK_DX)
    dt, steps, _ = orc.cross_check_plan(xs, pk.ks, pk.spectral_weight, 4.0)
    psi0 = ss.snapshot(pk, bar, 0.0, xs=xs).psi_full
    psi1 = orc.CrankNicolson(bar, xs, dt).evolve(psi0, steps)
    ref = ss.snapshot(pk, bar, steps * dt, xs=xs)
    l2 = math.sqrt(float(np.sum(np.abs(psi1 - ref.psi_full) ** 2) * orc.CROSS_CHECK_DX))

    # stationary: sweep solver vs restart finite differences
    worst_fd = 0.0
    ks = np.linspace(0.4, 3.0, 27)
    for bar2 in (bar, ss.make_symmetric(-0.5, [(0.4, 3.0), (0.35, 1.0)])):
        a_t, a_r = orc.numerov_solve(bar2, ks)
        fam = ss.solve_family(bar2, ks)
        worst_fd = max(worst_fd, np.max(np.abs(a_t - fam.A_T)),
                       np.max(np.abs(a_r - fam.A_R)))
    ok = l2 < 1e-4 and worst_fd < 1e-6
    _report(8, ok,
            f"synthesis vs Crank-Nicolson L2 = {l2:.2e} (1e-4); "
            f"amplitudes vs finite differences {worst_fd:.2e} (1e-6)")
