"""Straight-line path tracing on the torus with locus-crossing detection.

Each locus is a line a*xi1 + b*xi2 = c (mod 2*pi), which the path
xi(t) = start + t*velocity crosses at t = (c + 2*pi*k - a*x0 - b*y0) / (a*vx + b*vy)
for each integer k.  Crossings of the degenerate loci D_A/D_B/D_C flip orientation.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import itemgetter
from typing import NamedTuple, Optional

from .angles import DomainError
from .torus import DEGENERATE_LOCI, LOCUS_EQUATIONS, REFINE_TOL, TWO_PI, LocusId, point_facts, wrap

#: Most crossings of one locus a path may make, one per 2*pi of |a*vx + b*vy|*t:
#: rounding a position at that phase costs about 1e-10, a tenth of REFINE_TOL.
MAX_CROSSINGS = 2**16


class ZeroVelocity(DomainError):
    """Path tracing requires a nonzero velocity."""


class EventKind(Enum):
    START = "start"
    LOCUS_CROSSING = "locus_crossing"
    ORIENTATION_FLIP = "orientation_flip"
    END = "end"


class PathEvent(NamedTuple):
    step_index: int
    kind: EventKind
    locus: Optional[LocusId]
    refined_position: tuple[float, float]


#: ``LOCUS_EQUATIONS`` as (a, b, h*pi, name, locus, flips orientation), read by trace_path.
_ROWS = [(a, b, h * math.pi, locus.value, locus, locus in DEGENERATE_LOCI)
         for locus, (a, b, h) in LOCUS_EQUATIONS.items()]


def wrap_position(xi: tuple[float, float]) -> tuple[float, float]:
    return (xi[0] % TWO_PI, xi[1] % TWO_PI)


def residue(locus: LocusId, xi: tuple[float, float]) -> float:
    """|a*xi1 + b*xi2 - h*pi| mod 2*pi of the locus's ``LOCUS_EQUATIONS`` row, as ``trace_path``
    checks it at each crossing; whether xi is on the locus is ``torus.point_facts``' rule."""
    a, b, h = LOCUS_EQUATIONS[locus]
    return abs(wrap(a * xi[0] + b * xi[1], h * math.pi, math.pi))


def orientation_sign(xi: tuple[float, float]) -> int:
    """``torus.point_facts``'s sign at xi mod 2*pi: 0 within REFINE_TOL of D_A, D_B, D_C."""
    return point_facts(*wrap_position(xi), math.pi, REFINE_TOL)[0]


def trace_path(
    start: tuple[float, float],
    velocity: tuple[float, float],
    steps: int,
    step_size: float,
) -> list[PathEvent]:
    """Trace the line and emit Start, crossings, flips, and End in step order.

    A crossing at t in (0, steps*step_size] is in the step i with
    i*step_size < t <= (i+1)*step_size, and then in order of t; crossings at one point,
    whose positions agree within REFINE_TOL, are in order of locus name.
    Raises DomainError past MAX_CROSSINGS, or when a crossing misses REFINE_TOL.
    """
    if velocity == (0.0, 0.0):
        raise ZeroVelocity("velocity must be nonzero")
    if steps < 1 or step_size <= 0.0:
        raise ValueError("steps must be >= 1 and step_size positive")

    x0, y0 = start
    vx, vy = velocity
    t_end = steps * step_size
    on = point_facts(*wrap_position(start), math.pi, REFINE_TOL)[2]  # the start's loci
    crossings = []
    for a, b, hpi, name, locus, flips in _ROWS:
        slope = a * vx + b * vy
        if slope == 0.0:
            continue  # parallel to the locus: never crosses transversally
        if not abs(slope) * t_end <= TWO_PI * MAX_CROSSINGS:  # also catches inf and nan
            raise DomainError(f"path crosses {name} more than {MAX_CROSSINGS} times")
        # the residue at t = 0, wrapped so that a crossing at the start is k = 0; a start
        # on the locus, as ``point_facts`` decides, does not cross it
        r0 = wrap(a * x0 + b * y0, hpi, math.pi)
        r1 = r0 + slope * t_end
        for k in range(math.floor(min(r0, r1) / TWO_PI), math.ceil(max(r0, r1) / TWO_PI) + 1):
            t = (TWO_PI * k - r0) / slope
            if 0.0 < t <= t_end and (k or locus not in on):
                i = math.ceil(t / step_size) - 1
                if i * step_size >= t:
                    i -= 1
                elif (i + 1) * step_size < t:
                    i += 1
                crossings.append((i, t, name, a, b, hpi, locus, flips))
    crossings.sort(key=itemgetter(0, 1))
    # crossings in one step whose positions agree within REFINE_TOL meet at one point: their
    # t differ in the last bits, so sort each such run (k joined to k - 1) by name instead
    tie = REFINE_TOL / math.hypot(vx, vy)
    joined = {k for k, (c, d) in enumerate(zip(crossings, crossings[1:]), 1)
              if d[1] - c[1] <= tie and d[0] == c[0]}
    for k in sorted(joined):
        while k in joined and crossings[k - 1][2] > crossings[k][2]:
            crossings[k - 1], crossings[k] = crossings[k], crossings[k - 1]
            k -= 1

    crossing, flip = EventKind.LOCUS_CROSSING, EventKind.ORIENTATION_FLIP
    events = [PathEvent(0, EventKind.START, None, wrap_position(start))]
    for i, t, name, a, b, hpi, locus, flips in crossings:
        refined = ((x0 + t * vx) % TWO_PI, (y0 + t * vy) % TWO_PI)
        if abs(wrap(a * refined[0] + b * refined[1], hpi, math.pi)) > REFINE_TOL:
            raise DomainError(f"crossing of {name} at t={t!r} not resolved to {REFINE_TOL}")
        events.append(PathEvent(i, crossing, locus, refined))
        if flips:
            events.append(PathEvent(i, flip, locus, refined))

    end = ((x0 + t_end * vx) % TWO_PI, (y0 + t_end * vy) % TWO_PI)
    events.append(PathEvent(steps, EventKind.END, None, end))
    return events
