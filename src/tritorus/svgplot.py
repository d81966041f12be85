"""SVG rendering of the fundamental domain [0, 2*pi)^2 and its loci."""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Optional

from .measure import Region, region_mask
from .torus import (ANTI_LOCI, DEGENERATE_LOCI, ISOSCELES_LOCI, LOCUS_EQUATIONS, RIGHT_LOCI, TWO_PI,
                    TorusPoint, classify)

if TYPE_CHECKING:
    import numpy as np

#: Width and height of the SVG, in pixels.
SIZE = 640


def _locus_line(a: int, b: int, h: int) -> tuple[tuple[float, float], tuple[int, int]]:
    """(offset point, primitive direction) of a*xi1 + b*xi2 = h*pi (mod 2*pi).

    The locus is offset + t*direction mod 2*pi; the direction (-b, a) is
    signed so that its first non-zero component is positive.
    """
    dx, dy = -b, a
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = b, -a
    offset = (0.0, h * math.pi / b) if b else (h * math.pi / a, 0.0)
    return offset, (dx, dy)


@functools.cache
def _marked_points() -> tuple[tuple[float, float], ...]:
    """The points of order at most 4 that ``classify`` calls isosceles, in radians: the
    identity, the equilateral pair, the three degenerate isosceles and the six right isosceles,
    most symmetric first, then by apex."""
    points = {TorusPoint.from_lattice(k1, k2, n)
              for n in range(1, 5) for k1 in range(n) for k2 in range(n)}
    marked = sorted((c for c in map(classify, points) if c.flags.isosceles), key=lambda c: (
        -c.multiplicity, sorted(c.flags.isosceles_vertices), c.point.key()))
    return tuple((c.point.xi1.radians, c.point.xi2.radians) for c in marked)


_SAMPLE_TEMPLATES = tuple(  # a sample's circle by 2*obtuse + acute; joined, one % fills all
    f'<circle class="sample {k}" cx="%.3f" cy="%.3f" r="1.2" style="fill:{c};fill-opacity:0.5"/>'
    for k, c in (("boundary", "#000000"), ("acute", "#2ca02c"), ("obtuse", "#d62728"))
)

_LOCUS_STYLE = {locus: style for family, style in (
    (DEGENERATE_LOCI, "stroke:#333333;stroke-width:2"),
    (ISOSCELES_LOCI, "stroke:#1f77b4;stroke-width:1.5"),
    (RIGHT_LOCI, "stroke:#d62728;stroke-width:1.5"),
    (ANTI_LOCI, "stroke:#9467bd;stroke-width:1;stroke-dasharray:4 3"),
) for locus in family}


def _segments(offset: tuple[float, float], direction: tuple[int, int]):
    """Split the wrapped line into straight segments inside the square."""
    dx, dy = direction
    # Parameter values where a coordinate hits a multiple of 2*pi.
    breaks = {0.0, TWO_PI}
    for comp, d in ((offset[0], dx), (offset[1], dy)):
        if d == 0:
            continue
        # all t in (0, 2*pi) with comp + t*d = k*2*pi
        k_lo = math.floor(min(comp, comp + d * TWO_PI) / TWO_PI)
        k_hi = math.ceil(max(comp, comp + d * TWO_PI) / TWO_PI)
        for k in range(k_lo, k_hi + 1):
            t = (k * TWO_PI - comp) / d
            if 0.0 < t < TWO_PI:
                breaks.add(t)
    ts = sorted(breaks)
    for t0, t1 in zip(ts, ts[1:]):
        mid = 0.5 * (t0 + t1)
        mx = (offset[0] + mid * dx) % TWO_PI
        my = (offset[1] + mid * dy) % TWO_PI
        half = 0.5 * (t1 - t0)
        yield (
            (mx - half * dx, my - half * dy),
            (mx + half * dx, my + half * dy),
        )


_MARGIN = 30
_SCALE = (SIZE - 2 * _MARGIN) / TWO_PI


def _xy(p: tuple[float, float]) -> tuple[float, float]:
    # y axis points up in the mathematical picture; works alike on coordinate arrays
    x = _MARGIN + p[0] * _SCALE
    y = SIZE - _MARGIN - p[1] * _SCALE
    return (x, y)


def _fmt(p: tuple[float, float]) -> str:
    x, y = _xy(p)
    return f"{x:.3f} {y:.3f}"


def render_fundamental_domain(
    samples: Optional[np.ndarray] = None,
    include_anti: bool = False,
) -> str:
    """Render the square, orientation regions, loci, torsion points, samples."""
    body: list[str] = []

    # Orientation regions: positive above the diagonal, negative below.
    pos_pts = " ".join(_fmt(p) for p in [(0, 0), (0, TWO_PI), (TWO_PI, TWO_PI)])
    neg_pts = " ".join(_fmt(p) for p in [(0, 0), (TWO_PI, 0), (TWO_PI, TWO_PI)])
    body.append(f'<polygon class="region-positive" points="{pos_pts}" style="fill:#fff3b0"/>')
    body.append(f'<polygon class="region-negative" points="{neg_pts}" style="fill:#d9d9d9"/>')

    if samples is not None and len(samples):
        kinds = (2 * region_mask(samples, Region.OBTUSE)
                 + region_mask(samples, Region.ACUTE)).tolist()
        points = itertools.chain.from_iterable(zip(*(c.tolist() for c in _xy(samples.T))))
        body.append("\n".join(map(_SAMPLE_TEMPLATES.__getitem__, kinds)) % tuple(points))

    for locus, equation in LOCUS_EQUATIONS.items():
        if locus in ANTI_LOCI and not include_anti:
            continue
        parts = [f"M {_fmt(a)} L {_fmt(b)}" for a, b in _segments(*_locus_line(*equation))]
        body.append(
            f'<path class="locus" id="locus-{locus.value}" d="{" ".join(parts)}" '
            f'style="fill:none;{_LOCUS_STYLE[locus]}"/>'
        )

    # Domain border drawn on top of the regions.
    x0, y0 = _xy((0.0, TWO_PI))
    side = TWO_PI * _SCALE
    body.append(
        f'<rect class="border" x="{x0:.3f}" y="{y0:.3f}" width="{side:.3f}" '
        f'height="{side:.3f}" style="fill:none;stroke:#000000;stroke-width:2"/>'
    )

    for p in _marked_points():
        px, py = _xy(p)
        body.append(
            f'<circle class="torsion" cx="{px:.3f}" cy="{py:.3f}" r="4" '
            f'style="fill:#000000"/>'
        )

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
