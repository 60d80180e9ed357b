#!/usr/bin/env python3
"""One-stop report for a rectangular barrier: coefficients, sub-state split,
traversal times by every route, and the spin-clock reading.  A refusal by
the package is printed by type and message, with exit code 1.

Defaults reproduce the worked example from the README; override on the
command line, e.g.

    python scripts/barrier_report.py --v0 8 --b 2 --k0 1.2
"""

import argparse
import sys

import numpy as np

import scatsplit as ss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--v0", type=float, default=2.0)
    ap.add_argument("--k0", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=8.0)
    ap.add_argument("--n-k", type=int, default=384)
    args = ap.parse_args()
    try:
        report(args)
    except ss.ScatsplitError as exc:
        sys.exit(f"refused: {type(exc).__name__}: {exc}")


def report(args):
    bar = ss.make_rectangular(args.a, args.b, args.v0)
    fam = ss.solve_family(bar, [args.k0])
    A_T, A_R, z = complex(fam.A_T[0]), complex(fam.A_R[0]), complex(fam.z[0])
    T, R = abs(A_T) ** 2, abs(A_R) ** 2
    print(f"barrier [{bar.a}, {bar.b}], V0={args.v0}, k0={args.k0} "
          f"(E={args.k0 ** 2 / 2:.4f})")
    print(f"  T = {T:.12f}   R = {R:.12f}   T+R-1 = {T + R - 1:.1e}")

    print(f"  incoming split: tr {1.0 - z:.6f}  ref {z:.6f}")
    if fam.degenerate[0]:
        print("  (reflection-free: reflection sub-state is empty)")
    else:
        print(f"  modulus residuals: |A_tr_In|-|A_T| "
              f"{abs(1.0 - z) - abs(A_T):.1e}   |A_ref_In|-|A_R| "
              f"{abs(z) - abs(A_R):.1e}")

    pk = ss.make_gaussian_packet(bar.a - 5 * args.sigma, args.sigma, args.k0,
                                 barrier=bar, n=args.n_k)
    rep = ss.build_time_report(pk, bar, phase_points=33)
    print("\ntimes (ensemble averages over the packet):")
    print(f"  presence, transmission   route A {rep.tau_L_tr_routeA:.6f}   "
          f"route B {rep.tau_L_tr_routeB:.6f}")
    if rep.tau_L_ref_routeB is not None:
        print(f"  presence, reflection     route A {rep.tau_L_ref_routeA:.6f}   "
              f"route B {rep.tau_L_ref_routeB:.6f}")
    i0 = int(np.argmin(np.abs(rep.phase.ks - args.k0)))
    print(f"  phase delay near k0      {rep.phase.delay[i0]:.6f} "
          f"(at k={rep.phase.ks[i0]:.3f})")

    res = ss.clock_times(pk, ss.solve_family(bar, pk.ks))
    print("\nspin clock (zero-field limit, closed form):")
    print(f"  transmission {res.tau_tr:.6f}")
    if res.tau_ref is not None:
        print(f"  reflection   {res.tau_ref:.6f}")
    ratio = res.tau_tr / rep.tau_L_tr_routeB
    print(f"  clock / presence-time ratio: {ratio:.3f}")


if __name__ == "__main__":
    main()
