"""Exact angle arithmetic and the taxonomy of labeled, oriented triangles.

Angles are rational multiples of pi, each stored as a pair of ints in lowest
terms, so every classification decision (equality, sign, comparison with
pi/2) is exact integer work; ``Fraction`` appears only where an angle is
parsed from, or handed out as, a coefficient.
A triangle similarity class lives on one of two sheets: angle sums +pi
(counterclockwise labeling) or -pi (clockwise labeling).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union


class DomainError(ValueError):
    """Base class for geometric-domain violations."""


class SumNotPi(DomainError):
    """Angle sum is neither +pi nor -pi."""


class OutOfRange(DomainError):
    """An angle leaves the admissible interval of its sheet."""


class NotDegenerate(DomainError):
    """A degenerate-only operation received a nondegenerate triangle."""


_RationalLike = Union[int, Fraction]


class PiRational:
    """An exact angle (numerator/denominator) * pi.

    Immutable.  ``numerator`` and ``denominator`` are plain ints in lowest
    terms with ``denominator > 0``, so equality is equality of the pair.
    Addition, negation, integer scaling and comparison are integer
    cross-products and never round, and the hash is that of the pair.  ``coeff``
    builds the ``Fraction`` on demand; scaling by a ``Fraction`` and dividing go through it.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: _RationalLike = 0, denominator: int = 1):
        if type(numerator) is not int or type(denominator) is not int:
            coeff = Fraction(numerator, denominator)
            numerator, denominator = coeff.numerator, coeff.denominator
        elif denominator == 0:
            raise ZeroDivisionError(f"PiRational({numerator}, 0)")
        g = math.gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        self.numerator = numerator // g
        self.denominator = denominator // g

    @classmethod
    def from_fraction(cls, coeff: Fraction) -> "PiRational":
        coeff = Fraction(coeff)
        return cls(coeff.numerator, coeff.denominator)

    @property
    def coeff(self) -> Fraction:
        """Coefficient of pi."""
        return Fraction(self.numerator, self.denominator)

    @property
    def radians(self) -> float:
        return self.numerator / self.denominator * math.pi

    def is_zero(self) -> bool:
        return self.numerator == 0

    def mod_two_pi(self) -> "PiRational":
        """Canonical residue in [0, 2*pi)."""
        p, q = self.numerator, self.denominator
        if 0 <= p < 2 * q:
            return self
        return PiRational(p % (2 * q), q)

    def __add__(self, other: "PiRational") -> "PiRational":
        if not isinstance(other, PiRational):
            return NotImplemented
        return PiRational(self.numerator * other.denominator + other.numerator * self.denominator,
                          self.denominator * other.denominator)

    def __sub__(self, other: "PiRational") -> "PiRational":
        if not isinstance(other, PiRational):
            return NotImplemented
        return PiRational(self.numerator * other.denominator - other.numerator * self.denominator,
                          self.denominator * other.denominator)

    def __neg__(self) -> "PiRational":
        return PiRational(-self.numerator, self.denominator)

    def __abs__(self) -> "PiRational":
        return self if self.numerator >= 0 else -self

    def __mul__(self, k: _RationalLike) -> "PiRational":
        if type(k) is int:
            return PiRational(self.numerator * k, self.denominator)
        return PiRational.from_fraction(self.coeff * k)

    __rmul__ = __mul__

    def __truediv__(self, k: _RationalLike) -> "PiRational":
        return PiRational.from_fraction(self.coeff / k)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PiRational) and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def _cmp(self, other: "PiRational") -> int:
        """p1*q2 - p2*q1, of the sign of self - other since both denominators are positive."""
        if not isinstance(other, PiRational):
            raise TypeError(f"cannot compare PiRational with {type(other).__name__}")
        return self.numerator * other.denominator - other.numerator * self.denominator

    def __lt__(self, other: "PiRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "PiRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "PiRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "PiRational") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"PiRational({self.numerator}, {self.denominator})"

    def __str__(self) -> str:
        p, q = self.numerator, self.denominator
        if p == 0:
            return "0"
        if q == 1:
            if p == 1:
                return "π"
            if p == -1:
                return "-π"
            return f"{p}·π"
        return f"{p}/{q}·π"


ZERO = PiRational(0)
PI = PiRational(1)
HALF_PI = PiRational(1, 2)


class Sheet(Enum):
    PLUS = "plus"
    MINUS = "minus"


VERTICES = ("A", "B", "C")


class AngleTriple(NamedTuple):
    """Interior angles of a labeled, oriented triangle similarity class.

    On the plus sheet angles lie in [0, pi] and sum to pi; on the minus
    sheet they lie in [-pi, 0] and sum to -pi.  Build with ``make_triple``,
    which validates.
    """

    alpha: PiRational
    beta: PiRational
    gamma: PiRational
    sheet: Sheet

    @property
    def angles(self) -> tuple[PiRational, PiRational, PiRational]:
        return (self.alpha, self.beta, self.gamma)

    def is_degenerate(self) -> bool:
        return any(a.is_zero() for a in self.angles)

    def negated(self) -> "AngleTriple":
        other = Sheet.MINUS if self.sheet is Sheet.PLUS else Sheet.PLUS
        return AngleTriple(-self.alpha, -self.beta, -self.gamma, other)

    def __str__(self) -> str:
        return f"△[{self.alpha}, {self.beta}, {self.gamma}]"


class TypeFlags(NamedTuple):
    """Type report for one triangle similarity class.

    ``isosceles_vertices`` holds apex vertices: the apex is the vertex at
    which the two equal sides meet, i.e. the vertex opposite the pair of
    equal angles.  ``right_vertices`` holds vertices whose own angle is
    +-pi/2.
    """

    equilateral: bool
    isosceles_vertices: frozenset[str]
    right_vertices: frozenset[str]
    scalene: bool
    degenerate: bool
    obtuse: bool
    acute: bool

    @property
    def isosceles(self) -> bool:
        return bool(self.isosceles_vertices)

    @property
    def right(self) -> bool:
        return bool(self.right_vertices)


def sheet_of(angles, zero, pi, tol) -> Sheet:
    """The sheet of three angles whose sum is +-pi and which lie on its range, within ``tol``.

    In the angles' own type: exact angles pass (ZERO, PI, ZERO), floats (0.0, math.pi,
    torus.REFINE_TOL).  Raise ``SumNotPi`` or ``OutOfRange`` otherwise."""
    alpha, beta, gamma = angles
    total = alpha + beta + gamma
    if abs(total - pi) <= tol:
        sheet, lo, hi = Sheet.PLUS, zero, pi
    elif abs(total + pi) <= tol:
        sheet, lo, hi = Sheet.MINUS, -pi, zero
    else:
        raise SumNotPi(f"angle sum {total} is neither π nor -π")
    below, above = lo - tol, hi + tol
    for name, a in zip(VERTICES, angles):
        if not (below <= a <= above):
            raise OutOfRange(f"angle {a} at {name} outside [{lo}, {hi}]")
    return sheet


def make_triple(alpha: PiRational, beta: PiRational, gamma: PiRational) -> AngleTriple:
    """Validate three angles and infer the sheet from the sign of the sum."""
    return AngleTriple(alpha, beta, gamma, sheet_of((alpha, beta, gamma), ZERO, PI, ZERO))


def taxonomy(t: AngleTriple) -> TypeFlags:
    """Classify a triple into the six main types (extended to degenerates): the flags that
    ``torus.point_facts`` decides at its point ``rho(t)``."""
    from .torus import point_facts, rho  # local import: torus builds on angles

    return point_facts(*rho(t).facts_args())[1]


def degenerate_similar(a: AngleTriple, b: AngleTriple) -> bool:
    """Similarity of degenerate triangles: the gluing that rho makes.

    rho glues the two degenerate borders, so two degenerate triples are
    similar iff they map to one torus point: [0,b,c] ~ [0,-c,-b],
    [a,0,c] ~ [-c,0,-a], [a,b,0] ~ [-b,-a,0], and all triples with two zero
    angles are similar.
    """
    from .torus import rho  # local import: torus builds on angles

    for t in (a, b):
        if not t.is_degenerate():
            raise NotDegenerate(f"{t} is not degenerate")
    return rho(a) == rho(b)
