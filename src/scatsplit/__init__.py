"""scatsplit: splitting 1D scattering states into transmission and reflection
sub-processes, with the characteristic times each sub-process defines.

Units: hbar = m = 1 throughout; a wavenumber k carries energy E = k^2/2.
"""

from .errors import (
    ConfigError,
    DomainError,
    GridRefinementError,
    ScatsplitError,
    ToleranceError,
    UndefinedTimeError,
    WindowError,
)
from .potentials import (
    BarrierSpec,
    make_rectangular,
    make_symmetric,
    potential_at,
    shifted,
)
from .stationary import (
    SolutionFamily,
    probability_current,
    solve_family,
)
from .wavepacket import (
    PacketSnapshot,
    SpectralPacket,
    event_window,
    make_gaussian_packet,
    quiet_times,
    snapshot,
    snapshot_residuals,
    spectral_transmitted_norm,
)
from .times import (
    PhaseTimes,
    TimeReport,
    build_time_report,
    dwell_tables,
    hartman_scan,
    phase_time,
    route_b,
)
from .larmor import (
    ClockResult,
    SpinScatteringRun,
    clock_times,
    default_omega,
    make_spin_run,
    spin_ladder,
)
from .oracle import (
    CrankNicolson,
    numerov_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierSpec",
    "ClockResult",
    "ConfigError",
    "CrankNicolson",
    "DomainError",
    "GridRefinementError",
    "PacketSnapshot",
    "PhaseTimes",
    "ScatsplitError",
    "SolutionFamily",
    "SpectralPacket",
    "SpinScatteringRun",
    "TimeReport",
    "ToleranceError",
    "UndefinedTimeError",
    "WindowError",
    "build_time_report",
    "clock_times",
    "default_omega",
    "dwell_tables",
    "event_window",
    "hartman_scan",
    "make_gaussian_packet",
    "make_rectangular",
    "make_spin_run",
    "make_symmetric",
    "numerov_solve",
    "phase_time",
    "potential_at",
    "probability_current",
    "quiet_times",
    "route_b",
    "shifted",
    "snapshot",
    "snapshot_residuals",
    "solve_family",
    "spectral_transmitted_norm",
    "spin_ladder",
]
