"""The torus of relative arguments: group law, the angle map, and loci.

A point is a pair of relative arguments (xi1, xi2), each a rational multiple
of pi normalized to [0, 2*pi).  The map ``rho`` sends a triangle with interior
angles (alpha, beta, gamma) to (2*beta, -2*alpha) mod 2*pi; it is a bijection
from the two open sheets onto the nondegenerate points and glues the two
degenerate borders together.
"""

from __future__ import annotations

import collections
import functools
import math
from enum import Enum
from typing import NamedTuple

from .angles import VERTICES, ZERO, AngleTriple, PiRational, Sheet, TypeFlags


class OrientationSign(Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


class LocusId(Enum):
    D_A = "D_A"
    D_B = "D_B"
    D_C = "D_C"
    I_A = "I_A"
    I_B = "I_B"
    I_C = "I_C"
    R_A = "R_A"
    R_B = "R_B"
    R_C = "R_C"
    IPERP_A = "IPerp_A"
    IPERP_B = "IPerp_B"
    ANTI_RIGHT = "AntiRight"
    EQUILATERAL3 = "Equilateral3"


#: Each one-dimensional locus is the congruence a*xi1 + b*xi2 = h*pi
#: (mod 2*pi), stored as (a, b, h).  Order follows ``LocusId``.
LOCUS_EQUATIONS: dict[LocusId, tuple[int, int, int]] = {
    LocusId.D_A: (0, 1, 0),
    LocusId.D_B: (1, 0, 0),
    LocusId.D_C: (1, -1, 0),
    LocusId.I_A: (2, -1, 0),
    LocusId.I_B: (1, -2, 0),
    LocusId.I_C: (1, 1, 0),
    LocusId.R_A: (0, 1, 1),
    LocusId.R_B: (1, 0, 1),
    LocusId.R_C: (-1, 1, 1),
    LocusId.IPERP_A: (1, 2, 0),
    LocusId.IPERP_B: (2, 1, 0),
    LocusId.ANTI_RIGHT: (1, 1, 1),
}

#: The loci by family, cut from the ``LOCUS_EQUATIONS`` order that numbers ``point_facts``' bits.
DEGENERATE_LOCI, ISOSCELES_LOCI, RIGHT_LOCI, ANTI_LOCI = (
    tuple(LOCUS_EQUATIONS)[i:i + 3] for i in (0, 3, 6, 9))

#: The period of each coordinate, in float radians.
TWO_PI = 2.0 * math.pi

#: Two float torus values (radians) agree when their residue mod 2*pi is at most this; float
#: angle sums and ranges (``angles.sheet_of``) and the snapping of float input use it too.
REFINE_TOL = 1e-9


class TorusPoint(collections.namedtuple("TorusPoint", "k1 k2 n")):
    """The torsion point 2*pi*(k1, k2)/n of the torus, n its element order and 0 <= k < n."""

    __slots__ = ()

    def __new__(cls, xi1: PiRational, xi2: PiRational):
        # xi/(2*pi) = p/(2q): both over lcm(2*q1, 2*q2), which from_lattice reduces.
        n = math.lcm(2 * xi1.denominator, 2 * xi2.denominator)
        return cls.from_lattice(xi1.numerator * n // (2 * xi1.denominator),
                                xi2.numerator * n // (2 * xi2.denominator), n)

    @classmethod
    def from_lattice(cls, k1: int, k2: int, n: int) -> "TorusPoint":
        """The torsion point (2*pi*k1/n, 2*pi*k2/n), any ints with n != 0."""
        g = math.gcd(k1, k2, n) if n > 0 else -math.gcd(k1, k2, n)
        n //= g
        return tuple.__new__(cls, (k1 // g % n, k2 // g % n, n))

    #: Read-only ``PiRational`` views of the coordinates, for printing, ``key`` and ``mul``.
    xi1 = property(lambda self: PiRational(2 * self.k1, self.n))
    xi2 = property(lambda self: PiRational(2 * self.k2, self.n))
    __getnewargs__ = lambda self: (self.xi1, self.xi2)  # the __new__ arguments of copy and pickle

    def is_degenerate(self) -> bool:
        return point_facts(*self.facts_args())[1].degenerate

    def facts_args(self) -> tuple[int, int, int, int]:
        """The ``point_facts`` arguments of this lattice point: (2*k1, 2*k2, n, 0), pi being n."""
        k1, k2, n = self
        return 2 * k1, 2 * k2, n, 0

    def key(self) -> tuple:
        """Deterministic sort key (lexicographic on canonical residues)."""
        return (self.xi1.coeff, self.xi2.coeff)

    def __str__(self) -> str:
        return f"({self.xi1}, {self.xi2})"


def identity() -> TorusPoint:
    return TorusPoint(ZERO, ZERO)


def mul(p: TorusPoint, q: TorusPoint) -> TorusPoint:
    return TorusPoint(p.xi1 + q.xi1, p.xi2 + q.xi2)


def inverse(p: TorusPoint) -> TorusPoint:
    return TorusPoint.from_lattice(-p.k1, -p.k2, p.n)


def power(p: TorusPoint, n: int) -> TorusPoint:
    return TorusPoint.from_lattice(p.k1 * n, p.k2 * n, p.n)


def element_order(p: TorusPoint) -> int:
    """Least n >= 1 with n*p = identity."""
    return p.n


def project_relative(theta1: PiRational, theta2: PiRational, theta3: PiRational) -> TorusPoint:
    """Quotient a triple of circle arguments by common rotation."""
    return TorusPoint(theta1 - theta3, theta2 - theta3)


def rho(t: AngleTriple) -> TorusPoint:
    """Map a triangle to the torus: (2*beta, -2*alpha) mod 2*pi."""
    return TorusPoint(t.beta * 2, t.alpha * -2)


def doubled_angles(low, high, period):
    """Doubled |angles| of a point with sorted coordinates low <= high, at the vertices
    (A, B, C) when xi2 <= xi1 and (B, A, C) when xi2 > xi1; ``period`` is 2*pi in their units."""
    return low, period - high, high - low


def wrap(u, v, half):
    """The residue of u - v mod 2*half, taken between -half and half: u and v agree when it
    is small.  It is the one residue of every torus fact, exact or float."""
    return (u - v + half) % (2 * half) - half


#: The eight subsets of VERTICES, one shared frozenset each; bit i stands for VERTICES[i].
_VERTEX_SETS = tuple(
    frozenset(v for i, v in enumerate(VERTICES) if bits >> i & 1) for bits in range(8)
)


@functools.cache
def _facts(pattern, obtuse) -> tuple[TypeFlags, tuple[LocusId, ...], int]:
    """The one shared TypeFlags, the loci and the multiplicity of a ``point_facts`` pattern,
    bit i for the i-th ``LOCUS_EQUATIONS`` row; ``obtuse`` says the biggest doubled angle is
    over pi.  The D and I loci (bits 0-5) are the fixed lines of D6's six reflections, so the
    stabilizer order is 2 per D or I bit, else 1."""
    zeros, apexes, right = pattern & 7, pattern >> 3 & 7, pattern >> 6 & 7
    equilateral = zeros & (zeros - 1) != 0 or apexes & (apexes - 1) != 0  # two or more bits
    iso = 7 if equilateral else apexes
    slanted = not zeros and not right
    flags = TypeFlags(equilateral, _VERTEX_SETS[iso], _VERTEX_SETS[right], not iso, zeros != 0,
                      slanted and obtuse, slanted and not obtuse)
    loci = [locus for i, locus in enumerate(LOCUS_EQUATIONS) if pattern >> i & 1]
    if pattern & 0b101000 == 0b101000:  # I_A and I_C
        loci.append(LocusId.EQUILATERAL3)
    return flags, tuple(loci), max(1, 2 * (pattern & 0b111111).bit_count())


def point_facts(x, y, half, tol) -> tuple[int, TypeFlags, tuple[LocusId, ...], int]:
    """Orientation sign, type flags, loci and multiplicity of (x, y) in [0, 2*half)^2, in
    units where pi is half.

    A lattice point passes ``TorusPoint.facts_args()``, all ints, and a float point
    (xi1, xi2, math.pi, REFINE_TOL).  Two values are equal when their ``wrap`` is within
    ``tol``.  One such test on the doubled |angles| (a, b, c) at (A, B, C) decides each locus,
    and ``_facts`` reads the flags and the multiplicity off the same bits: zero at v is D_v,
    equal angles at the others I_v (apex v), pi at v R_v (right at v), b = 2a IPerp_A, a = 2b
    IPerp_B, b - a = pi AntiRight; two zeros or apexes make it equilateral, and I_A with I_C
    is Equilateral3.  The sign is 0 when degenerate, else that of y - x.
    """
    def eq(u, v):
        return abs(wrap(u, v, half)) <= tol

    a, b, c = doubled_angles(min(x, y), max(x, y), 2 * half)
    if y > x:
        a, b = b, a
    pattern = (eq(a, 0) | eq(b, 0) << 1 | eq(c, 0) << 2 | eq(b, c) << 3 | eq(a, c) << 4
               | eq(a, b) << 5 | eq(a, half) << 6 | eq(b, half) << 7 | eq(c, half) << 8
               | eq(b, 2 * a) << 9 | eq(a, 2 * b) << 10 | eq(b - a, half) << 11)
    flags, loci, multiplicity = _facts(pattern, max(a, b, c) > half)
    return 0 if pattern & 7 else 1 if y > x else -1, flags, loci, multiplicity


#: ``OrientationSign`` by the sign that ``point_facts`` returns.
SIGNS = (OrientationSign.ZERO, OrientationSign.POSITIVE, OrientationSign.NEGATIVE)


def orientation(p: TorusPoint) -> OrientationSign:
    return SIGNS[point_facts(*p.facts_args())[0]]


def _lifts(k: int, n: int) -> tuple[int, ...]:
    """The integers in [0, n] congruent to k mod n, largest first."""
    r = k % n
    return (n, 0) if r == 0 else (r,)


def _fiber(k1: int, k2: int, n: int) -> list[tuple[int, int, int]]:
    """Numerators m of the triangles pi*m/n that rho maps to 2*pi*(k1, k2)/n.

    rho(alpha, beta, gamma) = (2*beta, -2*alpha) puts beta = pi*k1/n and
    alpha = -pi*k2/n (mod pi); on sheet s = +-1, gamma closes the sum to s*pi
    and every s*m lies in [0, n].  Plus sheet first, each sheet by decreasing
    s*m: the identity has the six vertex triples, every other degenerate point
    one triple per sheet, and a nondegenerate point one triple.
    """
    return [
        (s * a, s * b, s * (n - a - b))
        for s in (1, -1)
        for a in _lifts(-s * k2, n)
        for b in _lifts(s * k1, n)
        if a + b <= n
    ]


def rho_preimages(p: TorusPoint) -> tuple[AngleTriple, ...]:
    """All triangles mapping to ``p``, in the order of ``_fiber``."""
    n = p.n
    return tuple(
        AngleTriple(
            PiRational(ma, n), PiRational(mb, n), PiRational(mc, n),
            Sheet.PLUS if ma + mb + mc > 0 else Sheet.MINUS,
        )
        for ma, mb, mc in _fiber(*p)
    )


def in_locus(p: TorusPoint, locus: LocusId) -> bool:
    """Exact membership in a distinguished subgroup or coset."""
    return locus in point_facts(*p.facts_args())[2]


class Classification(NamedTuple):
    """Everything knowable about one torus point."""

    point: TorusPoint
    orientation: OrientationSign
    flags: TypeFlags
    loci: tuple[LocusId, ...]
    multiplicity: int
    canonical_rep: TorusPoint

    @property
    def degenerate(self) -> bool:
        return self.flags.degenerate

    @property
    def preimages(self) -> tuple[AngleTriple, ...]:
        return rho_preimages(self.point)


def classify_point(x, y, half, tol) -> tuple:
    """The whole type report of (x, y), with the arguments of ``point_facts``: its sign,
    flags, loci and multiplicity, and the least of the twelve ``symmetry.images``, in the
    same units."""
    from . import symmetry  # local import: symmetry acts on TorusPoint

    return *point_facts(x, y, half, tol), min(symmetry.images(x, y, 2 * half))


def classify(p: TorusPoint) -> Classification:
    """Full type report: ``classify_point`` at the lattice point."""
    x, y, n, tol = p.facts_args()
    sign, flags, loci, multiplicity, (r1, r2) = classify_point(x, y, n, tol)
    return Classification(p, SIGNS[sign], flags, loci, multiplicity,
                          TorusPoint.from_lattice(r1 // 2, r2 // 2, n))
