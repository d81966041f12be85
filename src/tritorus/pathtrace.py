"""Straight-line path tracing on the torus with locus-crossing detection.

A path xi(t) = start + t*velocity is stepped with a fixed step size; at each
step the residue of every one-dimensional locus (a linear form wrapped to
(-pi, pi]) is checked for a sign change, and each crossing is refined by
bisection.  Crossings of the degenerate loci D_A/D_B/D_C flip orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .angles import DomainError
from .torus import LOCUS_EQUATIONS, LocusId

TWO_PI = 2.0 * math.pi

#: Residue magnitude below which a refined crossing is accepted.
REFINE_TOL = 1e-9


class ZeroVelocity(DomainError):
    """Path tracing requires a nonzero velocity."""


class EventKind(Enum):
    START = "start"
    LOCUS_CROSSING = "locus_crossing"
    ORIENTATION_FLIP = "orientation_flip"
    END = "end"


@dataclass(frozen=True)
class PathEvent:
    step_index: int
    position: tuple[float, float]
    kind: EventKind
    locus: Optional[LocusId]
    refined_position: tuple[float, float]


# Residue of each locus: coefficients (a, b) and offset c, the locus being
# a*xi1 + b*xi2 = c (mod 2*pi).
LOCUS_FORMS: dict[LocusId, tuple[int, int, float]] = {
    locus: (a, b, h * math.pi) for locus, (a, b, h) in LOCUS_EQUATIONS.items()
}

_DEGENERATE_LOCI = (LocusId.D_A, LocusId.D_B, LocusId.D_C)


def _wrap_pm_pi(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


def wrap_position(xi: tuple[float, float]) -> tuple[float, float]:
    return (xi[0] % TWO_PI, xi[1] % TWO_PI)


def orientation_sign(xi: tuple[float, float]) -> int:
    """+1 above the degenerate diagonal (positive orientation), -1 below, 0 on it.

    Above and below are taken in canonical coordinates [0, 2*pi)^2, where
    positive orientation is xi2 > xi1, as in ``torus.orientation``.
    """
    x, y = wrap_position(xi)
    d = y - x
    if abs(d) <= REFINE_TOL:
        return 0
    return 1 if d > 0 else -1


def trace_path(
    start: tuple[float, float],
    velocity: tuple[float, float],
    steps: int,
    step_size: float,
) -> list[PathEvent]:
    """Trace the line and emit Start, crossings, flips, and End in step order."""
    if velocity == (0.0, 0.0):
        raise ZeroVelocity("velocity must be nonzero")
    if steps < 1 or step_size <= 0.0:
        raise ValueError("steps must be >= 1 and step_size positive")

    def pos(t: float) -> tuple[float, float]:
        return (start[0] + t * velocity[0], start[1] + t * velocity[1])

    events: list[PathEvent] = [
        PathEvent(0, wrap_position(start), EventKind.START, None, wrap_position(start))
    ]

    residues = {}
    for locus, (a, b, c) in LOCUS_FORMS.items():
        slope = a * velocity[0] + b * velocity[1]
        if slope == 0.0:
            continue  # parallel to the locus: never crosses transversally
        residues[locus] = (a, b, c)

    def residue(locus: LocusId, t: float) -> float:
        a, b, c = residues[locus]
        x, y = pos(t)
        return _wrap_pm_pi(a * x + b * y - c)

    for i in range(steps):
        t0, t1 = i * step_size, (i + 1) * step_size
        step_events: list[tuple[float, LocusId]] = []
        for locus in residues:
            r0, r1 = residue(locus, t0), residue(locus, t1)
            crossed = (r0 > 0.0 > r1) or (r0 < 0.0 < r1) or r1 == 0.0
            if not crossed or abs(r0 - r1) >= math.pi:
                continue  # no sign change, or the residue wrapped through +-pi
            step_events.append((_bisect(residue, locus, t0, t1), locus))
        for t_star, locus in sorted(step_events, key=lambda e: (e[0], e[1].value)):
            refined = wrap_position(pos(t_star))
            events.append(
                PathEvent(i, wrap_position(pos(t0)), EventKind.LOCUS_CROSSING, locus, refined)
            )
            if locus in _DEGENERATE_LOCI:
                events.append(
                    PathEvent(i, wrap_position(pos(t0)), EventKind.ORIENTATION_FLIP, locus, refined)
                )

    t_end = steps * step_size
    events.append(
        PathEvent(steps, wrap_position(pos(t_end)), EventKind.END, None, wrap_position(pos(t_end)))
    )
    return events


def _bisect(residue, locus: LocusId, t0: float, t1: float) -> float:
    r0 = residue(locus, t0)
    lo, hi = t0, t1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rm = residue(locus, mid)
        if abs(rm) <= REFINE_TOL:
            return mid
        if (rm > 0.0) == (r0 > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
