"""The torus of relative arguments: group law, the angle map, and loci.

A point is a pair of relative arguments (xi1, xi2), each a rational multiple
of pi normalized to [0, 2*pi).  The map ``rho`` sends a triangle with interior
angles (alpha, beta, gamma) to (2*beta, -2*alpha) mod 2*pi; it is a bijection
from the two open sheets onto the nondegenerate points and glues the two
degenerate borders together.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

from .angles import (
    PI,
    ZERO,
    AngleTriple,
    PiRational,
    Sheet,
    TypeFlags,
    make_triple,
    taxonomy,
)


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


@dataclass(frozen=True)
class TorusPoint:
    """A point of the torus, coordinates canonically reduced mod 2*pi."""

    xi1: PiRational
    xi2: PiRational

    def __post_init__(self):
        object.__setattr__(self, "xi1", self.xi1.mod_two_pi())
        object.__setattr__(self, "xi2", self.xi2.mod_two_pi())

    def is_degenerate(self) -> bool:
        return self.xi1.is_zero() or self.xi2.is_zero() or self.xi1 == self.xi2

    @classmethod
    def from_lattice(cls, k1: int, k2: int, n: int) -> "TorusPoint":
        """The torsion point (2*pi*k1/n, 2*pi*k2/n)."""
        return cls(PiRational(2 * k1, n), PiRational(2 * k2, n))

    def lattice(self) -> tuple[int, int, int]:
        """(k1, k2, n) with xi = 2*pi*k/n, n the element order and 0 <= k < n."""
        p1, q1 = self.xi1.numerator, self.xi1.denominator
        p2, q2 = self.xi2.numerator, self.xi2.denominator
        # xi/(2*pi) = p/(2q) in lowest terms has denominator q for even p, 2q for odd p.
        n = lcm(q1 if p1 % 2 == 0 else 2 * q1, q2 if p2 % 2 == 0 else 2 * q2)
        return p1 * n // (2 * q1), p2 * n // (2 * q2), n

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
    return TorusPoint(-p.xi1, -p.xi2)


def power(p: TorusPoint, n: int) -> TorusPoint:
    return TorusPoint(p.xi1 * n, p.xi2 * n)


def element_order(p: TorusPoint) -> int:
    """Least n >= 1 with n*p = identity."""
    return p.lattice()[2]


def project_relative(theta1: PiRational, theta2: PiRational, theta3: PiRational) -> TorusPoint:
    """Quotient a triple of circle arguments by common rotation."""
    return TorusPoint(theta1 - theta3, theta2 - theta3)


def rho(t: AngleTriple) -> TorusPoint:
    """Map a triangle to the torus: (2*beta, -2*alpha) mod 2*pi."""
    return TorusPoint(t.beta * 2, t.alpha * -2)


def orientation(p: TorusPoint) -> OrientationSign:
    if p.is_degenerate():
        return OrientationSign.ZERO
    if p.xi2 > p.xi1:
        return OrientationSign.POSITIVE
    return OrientationSign.NEGATIVE


_VERTEX_COEFFS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def rho_preimages(p: TorusPoint) -> tuple[AngleTriple, ...]:
    """All triangles mapping to ``p``, plus-sheet first.

    The identity has the six vertex triples; every other degenerate point
    has one preimage on each degenerate border; a nondegenerate point has
    exactly one preimage, on the sheet matching its orientation.
    """
    xi1, xi2 = p.xi1, p.xi2
    if xi1.is_zero() and xi2.is_zero():
        return tuple(
            make_triple(PI * a, PI * b, PI * c) for a, b, c in _VERTEX_COEFFS
        )
    if xi2.is_zero():  # (e^{i*2b}, 1, 1): zero angle at A
        b = xi1 / 2
        return (
            make_triple(ZERO, b, PI - b),
            make_triple(ZERO, -PI + b, -b),
        )
    if xi1.is_zero():  # (1, e^{-i*2a}, 1): zero angle at B
        a = PI - xi2 / 2
        return (
            make_triple(a, ZERO, PI - a),
            make_triple(-PI + a, ZERO, -a),
        )
    if xi1 == xi2:  # (e^{i*2b}, e^{i*2b}, 1): zero angle at C
        b = xi1 / 2
        return (
            make_triple(PI - b, b, ZERO),
            make_triple(-b, -PI + b, ZERO),
        )
    if xi2 > xi1:
        return (make_triple(PI - xi2 / 2, xi1 / 2, (xi2 - xi1) / 2),)
    return (make_triple(-(xi2 / 2), xi1 / 2 - PI, (xi2 - xi1) / 2),)


def _on_locus(k1: int, k2: int, n: int, locus: LocusId) -> bool:
    if locus is LocusId.EQUILATERAL3:  # the three points I_A and I_C share
        return _on_locus(k1, k2, n, LocusId.I_A) and _on_locus(k1, k2, n, LocusId.I_C)
    a, b, h = LOCUS_EQUATIONS[locus]
    # 2*pi*(a*k1 + b*k2)/n = h*pi (mod 2*pi), doubled to stay integral for odd n
    return (2 * (a * k1 + b * k2) - h * n) % (2 * n) == 0


def in_locus(p: TorusPoint, locus: LocusId) -> bool:
    """Exact membership in a distinguished subgroup or coset."""
    return _on_locus(*p.lattice(), locus)


@dataclass(frozen=True)
class Classification:
    """Everything knowable about one torus point."""

    point: TorusPoint
    orientation: OrientationSign
    degenerate: bool
    flags: TypeFlags
    loci: tuple[LocusId, ...]
    multiplicity: int
    preimages: tuple[AngleTriple, ...]
    canonical_rep: TorusPoint


def classify(p: TorusPoint) -> Classification:
    """Full type report; the flags are those of the (shared) preimage class."""
    from . import symmetry  # local import: symmetry acts on TorusPoint

    k1, k2, n = p.lattice()
    orb = symmetry.lattice_orbit(k1, k2, n)
    preims = rho_preimages(p)
    return Classification(
        point=p,
        orientation=orientation(p),
        degenerate=p.is_degenerate(),
        flags=taxonomy(preims[0]),
        loci=tuple(l for l in LocusId if _on_locus(k1, k2, n, l)),
        multiplicity=12 // len(orb),
        preimages=preims,
        canonical_rep=TorusPoint.from_lattice(*min(orb), n),
    )
