"""The signed-permutation action on the torus: orbits and multiplicities.

The group is {+-1} x S3, order 12, isomorphic to the dihedral group D6.
A signed permutation relabels the three vertices and (for the minus sign)
conjugates, i.e. reverses orientation.  On relative arguments each element
acts as a fixed 2x2 integer matrix; orbits are the absolute (unlabeled,
unoriented) similarity classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .torus import TorusPoint

Perm = tuple[int, int, int]  # images of (1, 2, 3)

_IDENT: Perm = (1, 2, 3)
_C123: Perm = (2, 3, 1)
_C132: Perm = (3, 1, 2)
_T12: Perm = (2, 1, 3)
_T13: Perm = (3, 2, 1)
_T23: Perm = (1, 3, 2)

_PERM_NAMES = {
    _IDENT: "e",
    _C123: "(123)",
    _C132: "(132)",
    _T12: "(12)",
    _T13: "(13)",
    _T23: "(23)",
}

# Induced 2x2 integer matrices on (xi1, xi2), for the positive sign.
_PERM_MATS: dict[Perm, tuple[tuple[int, int], tuple[int, int]]] = {
    _IDENT: ((1, 0), (0, 1)),
    _C123: ((-1, 1), (-1, 0)),
    _C132: ((0, -1), (1, -1)),
    _T12: ((0, 1), (1, 0)),
    _T13: ((-1, 0), (-1, 1)),
    _T23: ((1, -1), (0, -1)),
}


@dataclass(frozen=True)
class GroupElement:
    sign: int  # +1 or -1
    perm: Perm

    def __post_init__(self):
        if self.sign not in (1, -1) or self.perm not in _PERM_MATS:
            raise ValueError(f"not a signed permutation: {self.sign}, {self.perm}")

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        m = _PERM_MATS[self.perm]
        s = self.sign
        return ((s * m[0][0], s * m[0][1]), (s * m[1][0], s * m[1][1]))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Product such that matrix(a.compose(b)) = matrix(a) @ matrix(b)."""
        perm = tuple(other.perm[self.perm[i] - 1] for i in range(3))
        return GroupElement(self.sign * other.sign, perm)  # type: ignore[arg-type]

    def __str__(self) -> str:
        prefix = "" if self.sign == 1 else "-"
        return prefix + _PERM_NAMES[self.perm]


@dataclass(frozen=True)
class D6Word:
    """Normal form r^a s^b in the dihedral presentation, a in 0..5."""

    r_power: int
    s_flag: bool

    def __str__(self) -> str:
        if self.r_power == 0 and not self.s_flag:
            return "1"
        r = "" if self.r_power == 0 else ("r" if self.r_power == 1 else f"r^{self.r_power}")
        s = "s" if self.s_flag else ""
        return r + s


# Dictionary between signed permutations and dihedral words, with
# r = -(123) (rotation by pi/3) and s = -(12) (reflection).
_WORDS: dict[tuple[int, Perm], D6Word] = {
    (1, _IDENT): D6Word(0, False),
    (-1, _C123): D6Word(1, False),
    (1, _C132): D6Word(2, False),
    (-1, _IDENT): D6Word(3, False),
    (1, _C123): D6Word(4, False),
    (-1, _C132): D6Word(5, False),
    (-1, _T12): D6Word(0, True),
    (1, _T23): D6Word(1, True),
    (-1, _T13): D6Word(2, True),
    (1, _T12): D6Word(3, True),
    (-1, _T23): D6Word(4, True),
    (1, _T13): D6Word(5, True),
}

_ELEMENTS = tuple(
    GroupElement(sign, perm)
    for sign in (1, -1)
    for perm in (_IDENT, _C123, _C132, _T12, _T13, _T23)
)

IDENTITY = _ELEMENTS[0]
ROTATION = GroupElement(-1, _C123)  # r
REFLECTION = GroupElement(-1, _T12)  # s


def all_elements() -> tuple[GroupElement, ...]:
    """The 12 elements: positive sign first, perms in e, (123), (132), (12), (13), (23) order."""
    return _ELEMENTS


def word_of(g: GroupElement) -> D6Word:
    return _WORDS[(g.sign, g.perm)]


def element_of_word(w: D6Word) -> GroupElement:
    g = IDENTITY
    for _ in range(w.r_power % 6):
        g = g.compose(ROTATION)
    if w.s_flag:
        g = g.compose(REFLECTION)
    return g


_MATRICES = tuple(g.matrix() for g in _ELEMENTS)


def _image(m, k1: int, k2: int, n: int) -> tuple[int, int]:
    (m00, m01), (m10, m11) = m
    return ((m00 * k1 + m01 * k2) % n, (m10 * k1 + m11 * k2) % n)


def lattice_orbit(k1: int, k2: int, n: int) -> set[tuple[int, int]]:
    """Orbit of the torsion point 2*pi*(k1, k2)/n, as integer pairs mod n."""
    return {_image(m, k1, k2, n) for m in _MATRICES}


def act(g: GroupElement, p: TorusPoint) -> TorusPoint:
    """Apply the integer matrix of ``g`` to the relative arguments mod 2*pi."""
    k1, k2, n = p.lattice()
    return TorusPoint.from_lattice(*_image(g.matrix(), k1, k2, n), n)


def orbit(p: TorusPoint) -> frozenset[TorusPoint]:
    k1, k2, n = p.lattice()
    return frozenset(TorusPoint.from_lattice(*q, n) for q in lattice_orbit(k1, k2, n))


def stabilizer(p: TorusPoint) -> tuple[GroupElement, ...]:
    k1, k2, n = p.lattice()
    return tuple(g for g in _ELEMENTS if _image(g.matrix(), k1, k2, n) == (k1, k2))


def multiplicity(p: TorusPoint) -> int:
    """Order of the stabilizer; equals 12 / orbit size."""
    return 12 // len(lattice_orbit(*p.lattice()))


def canonical_rep(p: TorusPoint) -> TorusPoint:
    """Lexicographically least orbit element: a deterministic absolute-class key.

    At a fixed n the order of the pairs (k1, k2) is that of ``TorusPoint.key``.
    """
    k1, k2, n = p.lattice()
    return TorusPoint.from_lattice(*min(lattice_orbit(k1, k2, n)), n)


def similar(p: TorusPoint, q: TorusPoint) -> bool:
    """Same absolute (unlabeled, unoriented) similarity class."""
    return canonical_rep(p) == canonical_rep(q)


def orientation_preserving_subgroup() -> tuple[GroupElement, ...]:
    """The index-2 subgroup <r^2, s> = D3 preserving orientation."""
    return (
        GroupElement(1, _IDENT),
        GroupElement(1, _C123),
        GroupElement(1, _C132),
        GroupElement(-1, _T12),
        GroupElement(-1, _T13),
        GroupElement(-1, _T23),
    )
