"""Exact angle arithmetic and the taxonomy of labeled, oriented triangles.

Angles are rational multiples of pi, stored as exact fractions, so every
classification decision (equality, sign, comparison with pi/2) is exact.
A triangle similarity class lives on one of two sheets: angle sums +pi
(counterclockwise labeling) or -pi (clockwise labeling).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union


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

    Immutable.  Addition, negation, integer scaling, halving and comparison
    never round: the coefficient of pi is a ``fractions.Fraction``.
    """

    __slots__ = ("_coeff",)

    def __init__(self, numerator: _RationalLike = 0, denominator: int = 1):
        object.__setattr__(self, "_coeff", Fraction(numerator, denominator))

    @classmethod
    def from_fraction(cls, coeff: Fraction) -> "PiRational":
        out = cls.__new__(cls)
        object.__setattr__(out, "_coeff", Fraction(coeff))
        return out

    @property
    def coeff(self) -> Fraction:
        """Coefficient of pi."""
        return self._coeff

    @property
    def numerator(self) -> int:
        return self._coeff.numerator

    @property
    def denominator(self) -> int:
        return self._coeff.denominator

    @property
    def radians(self) -> float:
        return float(self._coeff) * math.pi

    def is_zero(self) -> bool:
        return self._coeff == 0

    def mod_two_pi(self) -> "PiRational":
        """Canonical residue in [0, 2*pi)."""
        return PiRational.from_fraction(self._coeff % 2)

    def __add__(self, other: "PiRational") -> "PiRational":
        return PiRational.from_fraction(self._coeff + other._coeff)

    def __sub__(self, other: "PiRational") -> "PiRational":
        return PiRational.from_fraction(self._coeff - other._coeff)

    def __neg__(self) -> "PiRational":
        return PiRational.from_fraction(-self._coeff)

    def __abs__(self) -> "PiRational":
        return PiRational.from_fraction(abs(self._coeff))

    def __mul__(self, k: _RationalLike) -> "PiRational":
        return PiRational.from_fraction(self._coeff * k)

    __rmul__ = __mul__

    def __truediv__(self, k: _RationalLike) -> "PiRational":
        return PiRational.from_fraction(self._coeff / k)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PiRational) and self._coeff == other._coeff

    def __lt__(self, other: "PiRational") -> bool:
        return self._coeff < other._coeff

    def __le__(self, other: "PiRational") -> bool:
        return self._coeff <= other._coeff

    def __gt__(self, other: "PiRational") -> bool:
        return self._coeff > other._coeff

    def __ge__(self, other: "PiRational") -> bool:
        return self._coeff >= other._coeff

    def __hash__(self) -> int:
        return hash(("PiRational", self._coeff))

    def __repr__(self) -> str:
        return f"PiRational({self.numerator}, {self.denominator})"

    def __str__(self) -> str:
        if self._coeff == 0:
            return "0"
        if self._coeff.denominator == 1:
            if self._coeff.numerator == 1:
                return "π"
            if self._coeff.numerator == -1:
                return "-π"
            return f"{self._coeff.numerator}·π"
        return f"{self._coeff.numerator}/{self._coeff.denominator}·π"


ZERO = PiRational(0)
PI = PiRational(1)
HALF_PI = PiRational(1, 2)


class Sheet(Enum):
    PLUS = "plus"
    MINUS = "minus"


VERTICES = ("A", "B", "C")


@dataclass(frozen=True)
class AngleTriple:
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


@dataclass(frozen=True, slots=True)
class TypeFlags:
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


def make_triple(alpha: PiRational, beta: PiRational, gamma: PiRational) -> AngleTriple:
    """Validate three angles and infer the sheet from the sign of the sum."""
    total = alpha + beta + gamma
    if total == PI:
        sheet = Sheet.PLUS
        lo, hi = ZERO, PI
    elif total == -PI:
        sheet = Sheet.MINUS
        lo, hi = -PI, ZERO
    else:
        raise SumNotPi(f"angle sum {total} is neither π nor -π")
    for name, a in zip(VERTICES, (alpha, beta, gamma)):
        if not (lo <= a <= hi):
            raise OutOfRange(f"angle {a} at {name} outside [{lo}, {hi}]")
    return AngleTriple(alpha, beta, gamma, sheet)


def type_flags(absang, eq, zero, half) -> TypeFlags:
    """The flag rule over the absolute angle triple, under the equality ``eq``.

    ``zero`` and ``half`` are 0 and pi/2 in the angles' own type.  Equal
    angles at two vertices put the apex at the third; two zero angles
    (a permutation of (+-pi, 0, 0)) or two apexes make the class equilateral.
    """
    a, b, c = absang
    apexes = frozenset(v for v, x, y in (("C", a, b), ("B", a, c), ("A", b, c)) if eq(x, y))
    zeros = sum(1 for x in absang if eq(x, zero))
    equilateral = zeros >= 2 or len(apexes) > 1
    iso = frozenset(VERTICES) if equilateral else apexes
    degenerate = zeros > 0
    biggest = max(absang)
    slanted = not degenerate and not eq(biggest, half)
    return TypeFlags(
        equilateral=equilateral,
        isosceles_vertices=iso,
        right_vertices=frozenset(v for v, x in zip(VERTICES, absang) if eq(x, half)),
        scalene=not iso,
        degenerate=degenerate,
        obtuse=slanted and biggest > half,
        acute=slanted and biggest < half,
    )


def taxonomy(t: AngleTriple) -> TypeFlags:
    """Classify a triple into the six main types (extended to degenerates)."""
    return type_flags(tuple(abs(a) for a in t.angles), operator.eq, ZERO, HALF_PI)


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
