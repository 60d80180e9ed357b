"""Spin-precession clock for the two scattering sub-processes.

A spin-1/2 prepared along +x crosses the barrier while a weak static field
confined to [a, b] splits the potential seen by the two spin-z components
into V -/+ omega/2.  Each component scatters as an independent scalar
problem; the in-plane precession angle of the transmitted (reflected)
subensemble, read well after the event and divided by omega, is the clock
time at that field (`make_spin_run`).  A ladder of fields is read from one
stacked transfer sweep, whose columns are both spin channels of every rung
(`spin_ladder`).

Its zero-field limit (`clock_times`) is Buttiker's in-plane Larmor time
(Phys. Rev. B 27, 6178 (1983); Baz', Sov. J. Nucl. Phys. 4, 182 (1967)).
Expanding the cross moment sum w A(V - omega/2) conj A(V + omega/2) to first
order in omega gives

    tau = -sum w Im(dA/dV conj A) / sum w |A|^2,   w = |G|^2 trap dk,

where V shifts every height on [a, b].  First-order perturbation theory with
the mirror-image right-incidence state gives the height derivatives on the
field-free family Psi, with x_c the barrier midpoint and both integrals in
closed form from `SolutionFamily.interior_integrals`:

    dA_T/dV = exp(-2ik x_c)/(ik) int_a^b Psi(x) Psi(2 x_c - x) dx
    dA_R/dV = 1/(ik) int_a^b Psi(x)^2 dx

Only the in-plane angle is used as the time; the out-of-plane component
(population imbalance between the spin-z channels) is reported per run as a
diagnostic, not a clock reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .potentials import BarrierSpec
from .stationary import SolutionFamily, _shifted_amplitudes
from .times import _spectral_coef_norm
from .wavepacket import SpectralPacket

# below this spectral reflection the reflected reading is withheld: what is
# left is reflection off the field step itself, with no zero-field limit
_R_READABLE = 1e-10


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


def make_spin_run(barrier: BarrierSpec, omega: float,
                  packet: SpectralPacket) -> SpinScatteringRun:
    """One clock reading at a fixed precession frequency.

    omega is the precession frequency in energy units (hbar = 1): the spin
    components see V -/+ omega/2 (`spin_ladder` with one rung).
    """
    return spin_ladder(barrier, [omega], packet)[0]


def spin_ladder(barrier: BarrierSpec, omegas,
                packet: SpectralPacket) -> list[SpinScatteringRun]:
    """Clock readings at each precession frequency of omegas, in order.

    Both spin channels of every rung (V -/+ omega/2) are columns of one
    stacked transfer sweep on the packet grid; only their amplitudes are
    read.  A channel that fails the unitarity check is refused by name.
    """
    omegas = [float(w) for w in omegas]
    A_T, A_R = _shifted_amplitudes(barrier, packet.ks,
                                   [s * w / 2 for w in omegas for s in (-1, 1)])
    w = packet.spectral_weight
    runs = []
    for omega, (at_u, at_d), (ar_u, ar_d) in zip(omegas, A_T.reshape(-1, 2, len(w)),
                                                  A_R.reshape(-1, 2, len(w))):
        # cross moments and channel norms of both subensembles on the k grid
        zT = complex(np.sum(w * at_u * np.conj(at_d)))
        zR = complex(np.sum(w * ar_u * np.conj(ar_d)))
        nT = np.array([np.sum(w * np.abs(at_u) ** 2), np.sum(w * np.abs(at_d) ** 2)])
        nR = np.array([np.sum(w * np.abs(ar_u) ** 2), np.sum(w * np.abs(ar_d) ** 2)])
        theta_T = math.atan2(zT.imag, zT.real)
        theta_R = math.atan2(zR.imag, zR.real) if abs(zR) > 0 else 0.0
        runs.append(SpinScatteringRun(
            barrier=barrier, omega=omega, ks=packet.ks,
            A_T_up=at_u, A_T_dn=at_d, A_R_up=ar_u, A_R_dn=ar_d,
            theta_T=theta_T, theta_R=theta_R,
            tau_clock_tr=theta_T / omega if omega != 0 else None,
            tau_clock_ref=theta_R / omega if omega != 0 else None,
            sigma_z_T=(nT[0] - nT[1]) / (nT[0] + nT[1]) if nT.sum() > 0 else 0.0,
            sigma_z_R=(nR[0] - nR[1]) / (nR[0] + nR[1]) if nR.sum() > 0 else 0.0,
        ))
    return runs


class ClockResult(NamedTuple):
    """Zero-field clock times; unpacks as (tau_tr, tau_ref)."""
    tau_tr: float
    tau_ref: float | None    # None where the packet barely reflects


def _reading(w, dA, A) -> float:
    """-sum w Im(dA conj A) / sum w |A|^2, with dA and A scaled by 1/max|A|
    so that neither sum underflows where |A|^2 does."""
    s = 1 / np.max(np.abs(A))
    dA, A = dA * s, A * s
    return -float(np.sum(w * (dA * np.conj(A)).imag)) / float(np.sum(w * np.abs(A) ** 2))


def clock_times(packet: SpectralPacket, family: SolutionFamily) -> ClockResult:
    """Zero-field clock times (tau_tr, tau_ref) in closed form.

    `family` is the field-free family on the packet grid; no further family
    is solved.  tau_ref is None when the spectral reflection is at or below
    1e-10.  Raises UndefinedTimeError when the transmitted spectral norm
    underflows to 0 (an opaque barrier).
    """
    if not np.array_equal(family.ks, packet.ks):
        raise DomainError("clock family must be solved on the packet's k grid")
    _spectral_coef_norm(packet, family, "tr")  # refuses a vanishing norm by name
    I = family.interior_integrals()
    ik = 1j * family.ks
    dA_T = np.exp(-2j * family.ks * family.barrier.x_c) / ik * I.mirror
    dA_R = I.square / ik
    w = packet.spectral_weight
    tau_tr = _reading(w, dA_T, family.A_T)
    tau_ref = (_reading(w, dA_R, family.A_R)
               if float(np.sum(w * family.R)) > _R_READABLE else None)
    return ClockResult(tau_tr, tau_ref)


def default_omega(packet: SpectralPacket) -> float:
    """A weak precession frequency: 1e-3 of the packet's mean energy."""
    return 1e-3 * packet.k0**2 / 2
