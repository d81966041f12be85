"""The signed-permutation action on the torus: orbits and multiplicities.

The group is {+-1} x S3, order 12, isomorphic to the dihedral group D6.
A signed permutation relabels the three vertices and (for the minus sign)
conjugates, i.e. reverses orientation.  On relative arguments each element
acts as a fixed 2x2 integer matrix; orbits are the absolute (unlabeled,
unoriented) similarity classes.
"""

from __future__ import annotations

from typing import NamedTuple

from .torus import TorusPoint, classify, point_facts

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

#: Vertex i's circle argument written in (xi1, xi2): the point (theta1, theta2, theta3)
#: of ``project_relative`` with theta3 = 0.
_THETA = {1: (1, 0), 2: (0, 1), 3: (0, 0)}


def _perm_matrix(perm: Perm) -> tuple[tuple[int, int], tuple[int, int]]:
    """Relabel by ``perm``, then project: row i is theta_perm(i) - theta_perm(3)."""
    last = _THETA[perm[2]]
    return tuple(tuple(x - y for x, y in zip(_THETA[perm[i]], last)) for i in (0, 1))


# Induced 2x2 integer matrices on (xi1, xi2), for the positive sign.
_PERM_MATS = {perm: _perm_matrix(perm) for perm in _PERM_NAMES}


class GroupElement(NamedTuple("GroupElement", [("sign", int), ("perm", Perm)])):
    """A signed permutation: ``sign`` is +1 or -1, ``perm`` the images of (1, 2, 3)."""

    __slots__ = ()

    def __new__(cls, sign: int, perm: Perm):
        if sign not in (1, -1) or perm not in _PERM_MATS:
            raise ValueError(f"not a signed permutation: {sign}, {perm}")
        return super().__new__(cls, sign, perm)

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


class D6Word(NamedTuple):
    """Normal form r^a s^b in the dihedral presentation, a in 0..5."""

    r_power: int
    s_flag: bool

    def __str__(self) -> str:
        if self.r_power == 0 and not self.s_flag:
            return "1"
        r = "" if self.r_power == 0 else ("r" if self.r_power == 1 else f"r^{self.r_power}")
        s = "s" if self.s_flag else ""
        return r + s


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
    return _WORDS[g]


def element_of_word(w: D6Word) -> GroupElement:
    g = IDENTITY
    for _ in range(w.r_power % 6):
        g = g.compose(ROTATION)
    if w.s_flag:
        g = g.compose(REFLECTION)
    return g


# Dictionary between signed permutations and dihedral words, with
# r = -(123) (rotation by pi/3) and s = -(12) (reflection).
_WORDS = {element_of_word(w): w for w in (D6Word(a, s) for s in (False, True) for a in range(6))}


_MATRICES = tuple(g.matrix() for g in _ELEMENTS)


def images(x: float, y: float, modulus: float) -> list[tuple[float, float]]:
    """The 12 matrix images of (x, y) mod ``modulus``, in ``all_elements()`` order.

    For lattice numerators the modulus is the order n; for float radians it is 2*pi.
    """
    return [((m00 * x + m01 * y) % modulus, (m10 * x + m11 * y) % modulus)
            for (m00, m01), (m10, m11) in _MATRICES]


def act(g: GroupElement, p: TorusPoint) -> TorusPoint:
    """Apply the integer matrix of ``g`` to the relative arguments mod 2*pi."""
    return TorusPoint.from_lattice(*images(*p)[_ELEMENTS.index(g)], p.n)


def orbit(p: TorusPoint) -> frozenset[TorusPoint]:
    return frozenset(TorusPoint.from_lattice(*q, p.n) for q in set(images(*p)))


def stabilizer(p: TorusPoint) -> tuple[GroupElement, ...]:
    return tuple(g for g, q in zip(_ELEMENTS, images(*p)) if q == (p.k1, p.k2))


def multiplicity(p: TorusPoint) -> int:
    """Order of the stabilizer, by the ``point_facts`` rule of ``torus.classify``; 12 / orbit size."""
    return point_facts(*p.facts_args())[3]


def canonical_rep(p: TorusPoint) -> TorusPoint:
    """Lexicographically least orbit element: a deterministic absolute-class key, as
    ``torus.classify`` takes it.

    At a fixed n the order of the pairs (k1, k2) is that of ``TorusPoint.key``.
    """
    return classify(p).canonical_rep


def similar(p: TorusPoint, q: TorusPoint) -> bool:
    """Same absolute (unlabeled, unoriented) similarity class."""
    return canonical_rep(p) == canonical_rep(q)


def _det(m) -> int:
    (m00, m01), (m10, m11) = m
    return m00 * m11 - m01 * m10


def orientation_preserving_subgroup() -> tuple[GroupElement, ...]:
    """The index-2 subgroup <r^2, s> = D3 preserving orientation.

    An odd relabeling reverses orientation and so does the minus sign, so an
    element preserves it when its sign is the determinant of its relabeling.
    """
    return tuple(g for g in _ELEMENTS if g.sign == _det(_PERM_MATS[g.perm]))
