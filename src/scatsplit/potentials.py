"""Symmetric piecewise-constant barriers.

Units: hbar = 1, m = 1, so E = k**2 / 2.  A barrier lives on [a, b], is zero
outside, and is described by an ordered list of (width, height) segments whose
widths sum exactly (in float arithmetic) to b - a.  Only mirror-symmetric
profiles are accepted: the sub-process decomposition downstream is derived for
symmetric barriers and silently wrong otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# widths may disagree by a couple of ulps after the exact-sum fixup of the
# last segment; heights must mirror exactly
_WIDTH_MIRROR_RTOL = 4e-16


@dataclass(frozen=True)
class BarrierSpec:
    a: float
    b: float
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError("barrier edges must be finite")
        if not self.b > self.a:
            raise ConfigError(f"need b > a, got a={self.a}, b={self.b}")
        if not self.segments:
            raise ConfigError("barrier needs at least one segment")
        object.__setattr__(self, "segments", tuple((float(w), float(v)) for w, v in self.segments))
        for w, v in self.segments:
            if not (math.isfinite(w) and w > 0):
                raise ConfigError(f"segment widths must be positive and finite, got {w}")
            if not math.isfinite(v):
                raise ConfigError(f"segment heights must be finite, got {v}")
        total = 0.0
        for w, _ in self.segments:
            total += w
        if total != self.b - self.a:
            raise ConfigError(
                f"segment widths sum to {total!r}, expected exactly b - a = {self.b - self.a!r}; "
                "build barriers through make_rectangular/make_symmetric, which fix up the last width"
            )
        self._check_mirror()

    def _check_mirror(self):
        n = len(self.segments)
        for i in range(n // 2 + 1):
            wl, vl = self.segments[i]
            wr, vr = self.segments[n - 1 - i]
            if vl != vr:
                raise ConfigError(
                    f"asymmetric barrier: segment {i} height {vl} != mirror height {vr}"
                )
            scale = max(abs(wl), abs(wr), self.b - self.a, abs(self.a), abs(self.b))
            if abs(wl - wr) > _WIDTH_MIRROR_RTOL * scale:
                raise ConfigError(
                    f"asymmetric barrier: segment {i} width {wl!r} != mirror width {wr!r}"
                )

    @property
    def x_c(self) -> float:
        return (self.a + self.b) / 2

    @property
    def widths(self) -> np.ndarray:
        return np.array([w for w, _ in self.segments])

    @property
    def heights(self) -> np.ndarray:
        return np.array([v for _, v in self.segments])

    @property
    def edges(self) -> np.ndarray:
        """Segment boundary positions, a to b inclusive (len(segments)+1 values)."""
        e = np.empty(len(self.segments) + 1)
        e[0] = self.a
        running = self.a
        for i, (w, _) in enumerate(self.segments):
            running += w
            e[i + 1] = running
        e[-1] = self.b  # exact by the width-sum invariant
        return e


def _fix_last_width(a, b, widths):
    """Adjust the last width so the float left-to-right sum equals b - a exactly."""
    widths = [float(w) for w in widths]
    head = 0.0
    for w in widths[:-1]:
        head += w
    last = (b - a) - head
    for _ in range(4):
        total = head + last
        if total == b - a:
            break
        last += (b - a) - total
    if last <= 0:
        raise ConfigError("segment widths inconsistent with barrier extent")
    return widths[:-1] + [last]


def make_rectangular(a: float, b: float, V0: float) -> BarrierSpec:
    """Single-segment barrier of height V0 on [a, b]."""
    if not math.isfinite(V0):
        raise ConfigError(f"barrier height must be finite, got {V0}")
    if not b > a:
        raise ConfigError(f"need b > a, got a={a}, b={b}")
    return BarrierSpec(float(a), float(b), ((float(b) - float(a), float(V0)),))


def make_symmetric(a: float, half_profile) -> BarrierSpec:
    """Barrier from a left-half profile mirrored about its right end.

    half_profile is a list of (width, height); the full barrier is the profile
    followed by its reverse, so symmetry holds by construction.
    """
    half = [(float(w), float(v)) for w, v in half_profile]
    if not half:
        raise ConfigError("half profile must not be empty")
    for w, v in half:
        if not (math.isfinite(w) and w > 0):
            raise ConfigError(f"half-profile widths must be positive, got {w}")
        if not math.isfinite(v):
            raise ConfigError(f"half-profile heights must be finite, got {v}")
    a = float(a)
    half_width = 0.0
    for w, _ in half:
        half_width += w
    b = a + 2.0 * half_width
    widths = [w for w, _ in half] + [w for w, _ in reversed(half)]
    heights = [v for _, v in half] + [v for _, v in reversed(half)]
    widths = _fix_last_width(a, b, widths)
    return BarrierSpec(a, b, tuple(zip(widths, heights)))


def potential_at(barrier: BarrierSpec, xs) -> np.ndarray:
    """Potential evaluated at positions xs (0 outside [a, b)).

    Segments are half-open on the right: at interior boundaries the right
    segment's height is returned, and x = b is already outside.  The value at
    a single point never enters any integral.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    edges = barrier.edges
    inside = (xs >= barrier.a) & (xs < barrier.b)
    idx = np.clip(np.searchsorted(edges, xs[inside], side="right") - 1, 0, len(barrier.segments) - 1)
    out[inside] = barrier.heights[idx]
    return out


def shifted(barrier: BarrierSpec, dV: float) -> BarrierSpec:
    """Same geometry with every height shifted by dV (still zero outside).

    Used by the spin clock: each spin component sees the barrier shifted by
    -/+ omega/2 inside [a, b] only.
    """
    return BarrierSpec(
        barrier.a, barrier.b, tuple((w, v + dV) for w, v in barrier.segments)
    )
