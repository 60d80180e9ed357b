"""Spin-precession clock for the two scattering sub-processes.

A spin-1/2 prepared along +x crosses the barrier while a weak static field
confined to [a, b] splits the potential seen by the two spin-z components
into V -/+ omega/2.  Each component scatters as an independent scalar
problem; the in-plane precession angle of the transmitted (reflected)
subensemble, read well after the event and divided by omega, is the clock
time.  Extrapolating the ladder omega, omega/2, omega/4 to zero removes the
quadratic-in-omega bias of the reading.

Only the in-plane angle is used as the time; the out-of-plane component
(population imbalance between the spin-z channels) is reported as a
diagnostic, not a clock reading.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import BarrierSpec, shifted
from .stationary import SolutionFamily, solve_family
from .wavepacket import SpectralPacket, _trap_w

_PERTURBATIVE_DRIFT = 0.05   # relative time change per halving that flags omega
_CONV_FACTOR = 1.2           # required shrink factor of successive differences
_ARG_NOISE = 1e-12           # precession angles are trusted to ~this many rad


@dataclass(frozen=True, eq=False)
class SpinScatteringRun:
    barrier: BarrierSpec
    omega: float
    ks: np.ndarray
    A_T_up: np.ndarray
    A_T_dn: np.ndarray
    A_R_up: np.ndarray
    A_R_dn: np.ndarray
    theta_T: float
    theta_R: float
    tau_clock_tr: float | None     # theta/omega; None at omega = 0
    tau_clock_ref: float | None
    sigma_z_T: float               # out-of-plane diagnostics
    sigma_z_R: float
    channel_norms_T: tuple
    channel_norms_R: tuple


def make_spin_run(barrier: BarrierSpec, omega: float,
                  packet: SpectralPacket) -> SpinScatteringRun:
    """One clock reading at a fixed precession frequency.

    omega is the precession frequency in energy units (hbar = 1): the spin
    components see V -/+ omega/2, one family each on the packet grid.
    """
    ks = packet.ks
    up = solve_family(shifted(barrier, -omega / 2), ks)
    dn = solve_family(shifted(barrier, +omega / 2), ks)
    at_u, at_d, ar_u, ar_d = up.A_T, dn.A_T, up.A_R, dn.A_R
    # cross moments and channel norms of both subensembles on the k grid
    w = np.abs(packet.G) ** 2 * _trap_w(len(ks)) * packet.dk
    zT = complex(np.sum(w * at_u * np.conj(at_d)))
    zR = complex(np.sum(w * ar_u * np.conj(ar_d)))
    nT = np.array([np.sum(w * np.abs(at_u) ** 2), np.sum(w * np.abs(at_d) ** 2)])
    nR = np.array([np.sum(w * np.abs(ar_u) ** 2), np.sum(w * np.abs(ar_d) ** 2)])
    theta_T = math.atan2(zT.imag, zT.real)
    theta_R = math.atan2(zR.imag, zR.real) if abs(zR) > 0 else 0.0
    tau_tr = theta_T / omega if omega != 0 else None
    tau_ref = theta_R / omega if omega != 0 else None
    sz_T = (nT[0] - nT[1]) / (nT[0] + nT[1]) if nT.sum() > 0 else 0.0
    sz_R = (nR[0] - nR[1]) / (nR[0] + nR[1]) if nR.sum() > 0 else 0.0
    return SpinScatteringRun(
        barrier=barrier, omega=float(omega), ks=ks,
        A_T_up=at_u, A_T_dn=at_d, A_R_up=ar_u, A_R_dn=ar_d,
        theta_T=theta_T, theta_R=theta_R,
        tau_clock_tr=tau_tr, tau_clock_ref=tau_ref,
        sigma_z_T=sz_T, sigma_z_R=sz_R,
        channel_norms_T=(float(nT[0]), float(nT[1])),
        channel_norms_R=(float(nR[0]), float(nR[1])),
    )


@dataclass(frozen=True, eq=False)
class ClockResult:
    tau_tr: float
    tau_ref: float | None
    error_tr: float
    error_ref: float | None
    omega_ladder: tuple
    per_rung_tr: tuple
    per_rung_ref: tuple
    warnings: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def __iter__(self):
        yield self.tau_tr
        yield self.tau_ref


def _richardson(taus):
    # tau(omega) = tau0 + c * omega^2 + ...; halving the frequency per rung
    r01 = (4 * taus[1] - taus[0]) / 3
    r12 = (4 * taus[2] - taus[1]) / 3
    return r12, abs(r12 - r01)


def clock_times(run: SpinScatteringRun, packet: SpectralPacket,
                runs: Iterable[SpinScatteringRun] = (),
                family: SolutionFamily | None = None) -> ClockResult:
    """Zero-frequency clock times from the run's frequency and two halvings.

    `runs` are readings already made on the same barrier and packet; a rung
    whose frequency equals one of theirs exactly is taken from it, not solved
    again.  `family` is the field-free family on the packet grid (solved here
    when not given).

    Returns an unpackable (tau_tr, tau_ref) result carrying the ladder,
    per-rung readings, Richardson error estimates, and perturbative-regime
    warnings.  Raises if the rung differences do not shrink (the reading is
    then not in its linear regime and no limit can be quoted).
    """
    if run.omega == 0:
        raise DomainError("clock extrapolation needs a nonzero base frequency")
    if family is None:
        family = solve_family(run.barrier, packet.ks)
    given = (run, *runs)
    for r in (*given, family):
        if r.barrier != run.barrier or not np.array_equal(r.ks, packet.ks):
            raise DomainError("clock runs and family must share the barrier and k grid")
    ladder = (run.omega, run.omega / 2, run.omega / 4)
    made = {r.omega: r for r in given}
    rungs = [made[om] if om in made else make_spin_run(run.barrier, om, packet)
             for om in ladder]

    taus_tr = [r.tau_clock_tr for r in rungs]
    # read the reflected subensemble only if it exists without the field;
    # otherwise the "reflection" is scattering off the field step itself and
    # its angle has no zero-frequency limit
    w = np.abs(packet.G) ** 2 * _trap_w(len(packet.ks)) * packet.dk
    R0 = float(np.sum(w * family.R))
    taus_ref = [r.tau_clock_ref for r in rungs] if R0 > 1e-10 else None

    warnings = []
    # clock readings divide an angle by omega, so float noise in the angle
    # shows up magnified by 1/omega; differences below that floor mean the
    # ladder has bottomed out, not that it diverges
    noise = _ARG_NOISE / abs(run.omega)
    d1, d2 = abs(taus_tr[1] - taus_tr[0]), abs(taus_tr[2] - taus_tr[1])
    scale = max(abs(taus_tr[0]), 1e-30)
    if d1 / scale > _PERTURBATIVE_DRIFT:
        warnings.append("omega_too_large_tr")
    if d2 > d1 / _CONV_FACTOR and d2 > max(1e-12 * scale, noise):
        raise ConvergenceError(
            "transmission clock reading not converging under frequency halving",
            diagnostics={"omega_ladder": ladder, "tau_rungs": tuple(taus_tr),
                         "diffs": (d1, d2)},
        )
    tau_tr, err_tr = _richardson(taus_tr)

    tau_ref = err_ref = None
    if taus_ref is not None:
        e1, e2 = abs(taus_ref[1] - taus_ref[0]), abs(taus_ref[2] - taus_ref[1])
        rscale = max(abs(taus_ref[0]), 1e-30)
        if e1 / rscale > _PERTURBATIVE_DRIFT:
            warnings.append("omega_too_large_ref")
        if e2 > e1 / _CONV_FACTOR and e2 > max(1e-12 * rscale, noise):
            raise ConvergenceError(
                "reflection clock reading not converging under frequency halving",
                diagnostics={"omega_ladder": ladder, "tau_rungs": tuple(taus_ref),
                             "diffs": (e1, e2)},
            )
        tau_ref, err_ref = _richardson(taus_ref)

    return ClockResult(
        tau_tr=tau_tr, tau_ref=tau_ref, error_tr=err_tr, error_ref=err_ref,
        omega_ladder=ladder,
        per_rung_tr=tuple(taus_tr),
        per_rung_ref=tuple(taus_ref) if taus_ref else (),
        warnings=tuple(warnings),
        diagnostics={
            "sigma_z_T": tuple(r.sigma_z_T for r in rungs),
            "sigma_z_R": tuple(r.sigma_z_R for r in rungs),
        },
    )


def default_omega(packet: SpectralPacket, frac: float = 1e-3) -> float:
    """Base rung of the frequency ladder: a small fraction of the mean energy."""
    return frac * packet.k0**2 / 2
