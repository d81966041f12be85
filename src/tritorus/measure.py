"""Analytic relative measures of triangle-type families, and Monte Carlo.

Areas are computed in the metric pulled back from the Euclidean plane of
angle triples (the sheets alpha+beta+gamma = +-pi); in relative-argument
coordinates this metric has quadratic form
ds^2 = (dxi1^2 + dxi2^2 - dxi1*dxi2) / 2.  Uniform sampling of (xi1, xi2)
on [0, 2*pi)^2 realizes the uniform law because the chart is affine with
constant Jacobian.  A sample is scored by ``torus.point_facts`` at (xi1, xi2, pi,
REFINE_TOL), on whole arrays: its doubled |angles| are m, 2*pi - M and M - m for its
sorted coordinates m <= M (``torus.doubled_angles``); it is degenerate, and in no region,
when the least is within REFINE_TOL of 0, else obtuse (acute) when the biggest is over
(under) pi by more than REFINE_TOL, and positive (negative) when xi2 > xi1 (xi2 < xi1).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .torus import (DEGENERATE_LOCI, ISOSCELES_LOCI, LOCUS_EQUATIONS, REFINE_TOL, RIGHT_LOCI,
                    TWO_PI, LocusId, _facts, doubled_angles)
from .angles import DomainError

if TYPE_CHECKING:
    import numpy as np

#: Identity of the deterministic generator backing ``sample_uniform``.
RNG_ALGORITHM = "numpy-pcg64"

#: Samples drawn and scored at a time, so memory stays bounded for any n.
_CHUNK = 1 << 14


class UnsupportedLocus(DomainError):
    """Arc length requested for a zero-dimensional locus."""


class Region(Enum):
    OBTUSE = "obtuse"
    ACUTE = "acute"
    POSITIVE_ORIENTATION = "positive_orientation"
    NEGATIVE_ORIENTATION = "negative_orientation"


class MeasureReport(NamedTuple):
    """Closed-form relative measures.

    Area entries (total, obtuse, acute) are in radians^2; curve entries
    are arc lengths in radians.  Each equals multiplicity of a generic
    member times geometric size.
    """

    total: float
    obtuse: float
    acute: float
    isosceles: float
    right: float
    degenerate: float
    obtuse_isosceles: float
    acute_isosceles: float
    ratios: dict[str, float]


class McEstimate(NamedTuple):
    probability: float
    standard_error: float
    samples: int
    seed: int

    @classmethod
    def from_count(cls, count: int, samples: int, seed: int) -> McEstimate:
        """The estimate from ``count`` of ``samples`` draws falling in the region."""
        p_hat = count / samples
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
        return cls(probability=p_hat, standard_error=stderr, samples=samples, seed=seed)


# Geometric areas (before the multiplicity weight).  The two sheets are
# equilateral triangles of side sqrt(2)*pi in the angle plane.  Curve sizes
# are summed locus lengths; the border pairs are identified on the torus,
# so the degenerate curves count once.
_SIZE_TOTAL = math.sqrt(3.0) * math.pi**2
_SIZE_OBTUSE = 3.0 * math.sqrt(3.0) / 4.0 * math.pi**2
_SIZE_ACUTE = math.sqrt(3.0) / 4.0 * math.pi**2

# Generic-member multiplicities of each family (stabilizer orders): ``torus._facts`` at
# the loci a generic member lies on, bit i for the i-th ``LOCUS_EQUATIONS`` row: a
# nondegenerate scalene on none, an isosceles on I_A (bit 3), a right triangle (scalene)
# on R_A (bit 6), a degenerate one on D_A (bit 0).
MULT_AREA, MULT_ISOSCELES, MULT_RIGHT, MULT_DEGENERATE = (
    _facts(bits, False)[2] for bits in (0, 1 << 3, 1 << 6, 1 << 0))


def analytic_measures() -> MeasureReport:
    """Relative measures mu = multiplicity * size for the named families."""
    iso_length = sum(map(locus_length, ISOSCELES_LOCI))
    isosceles = MULT_ISOSCELES * iso_length
    right = MULT_RIGHT * sum(map(locus_length, RIGHT_LOCI))
    degenerate = MULT_DEGENERATE * sum(map(locus_length, DEGENERATE_LOCI))
    # the obtuse and acute halves of each isosceles locus have equal length
    obtuse_iso = acute_iso = MULT_ISOSCELES * iso_length / 2.0
    obtuse = MULT_AREA * _SIZE_OBTUSE
    acute = MULT_AREA * _SIZE_ACUTE
    return MeasureReport(
        total=MULT_AREA * _SIZE_TOTAL,
        obtuse=obtuse,
        acute=acute,
        isosceles=isosceles,
        right=right,
        degenerate=degenerate,
        obtuse_isosceles=obtuse_iso,
        acute_isosceles=acute_iso,
        ratios={
            "O:A": obtuse / acute,
            "I:AI": isosceles / acute_iso,
            "I:OI": isosceles / obtuse_iso,
            "I:R": isosceles / right,
            "D:R": degenerate / right,
        },
    )


def locus_length(locus: LocusId) -> float:
    """Arc length of a one-dimensional locus in the angle-plane metric.

    The locus a*xi1 + b*xi2 = c runs along the primitive direction (-b, a)
    and closes up after parameter length 2*pi.
    """
    if locus not in LOCUS_EQUATIONS:
        raise UnsupportedLocus(f"{locus} is not one-dimensional")
    a, b, _ = LOCUS_EQUATIONS[locus]
    dx, dy = -b, a
    return TWO_PI * math.sqrt((dx * dx + dy * dy - dx * dy) / 2.0)


def _draws(seed: int, n: int, rows: int):
    """n uniform points of seed's rng.uniform(0, 2*pi) stream, ``rows`` at a time in one buffer."""
    import numpy as np  # only sampling needs numpy; it costs most of the import time

    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(n, rows), 2))
    for start in range(0, n, rows):
        block = rng.random(out=buffer[:n - start])
        block *= TWO_PI
        yield block


def sample_uniform(seed: int, n: int) -> np.ndarray:
    """n i.i.d. uniform points on [0, 2*pi)^2, deterministic given seed."""
    return next(_draws(seed, n, n))


def _region_masks(xi: np.ndarray) -> dict[Region, np.ndarray]:
    """Boolean membership of float samples in each region, as ``torus.point_facts`` decides
    it bit for bit: a degenerate sample is in none, a right one neither obtuse nor acute."""
    import numpy as np

    xi1, xi2 = xi[:, 0], xi[:, 1]
    low, top, span = doubled_angles(np.minimum(xi1, xi2), np.maximum(xi1, xi2), TWO_PI)
    # torus.wrap(least, 0, pi) is least + pi - pi, as the least is at most 2*pi/3
    nondegenerate = np.minimum(np.minimum(low, top), span) + math.pi - math.pi > REFINE_TOL
    # and torus.wrap(biggest, pi, pi) is biggest - pi, which is exact
    slant = np.maximum(np.maximum(low, top), span) - math.pi
    return {
        Region.OBTUSE: nondegenerate & (slant > REFINE_TOL),
        Region.ACUTE: nondegenerate & (slant < -REFINE_TOL),
        Region.POSITIVE_ORIENTATION: nondegenerate & (xi2 > xi1),
        Region.NEGATIVE_ORIENTATION: nondegenerate & (xi2 < xi1),
    }


def region_mask(xi: np.ndarray, region: Region) -> np.ndarray:
    """Boolean membership of float samples; boundary hits count as neither."""
    return _region_masks(xi)[region]


def sample_counts(seed: int, n: int) -> dict[Region, int]:
    """Region counts of ``sample_uniform(seed, n)``, drawn and scored ``_CHUNK`` rows at a time."""
    import numpy as np

    counts = dict.fromkeys(Region, 0)
    for chunk in _draws(seed, n, _CHUNK):
        for region, mask in _region_masks(chunk).items():
            counts[region] += int(np.count_nonzero(mask))
    return counts


def estimate_probability(region: Region, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the uniform-measure fraction of a region."""
    return McEstimate.from_count(sample_counts(seed, n)[region], n, seed)

