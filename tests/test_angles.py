import math
from fractions import Fraction
from itertools import compress, permutations, product

import pytest
from hypothesis import given, strategies as st

from tritorus import torus
from tritorus.angles import (
    HALF_PI,
    PI,
    VERTICES,
    ZERO,
    NotDegenerate,
    OutOfRange,
    PiRational,
    Sheet,
    SumNotPi,
    degenerate_similar,
    make_triple,
    sheet_of,
    taxonomy,
)
from tritorus.torus import REFINE_TOL


def pr(n, d=1):
    return PiRational(n, d)


class TestPiRational:
    def test_reduction_and_fields(self):
        a = pr(2, 4)
        assert (a.numerator, a.denominator) == (1, 2)
        assert pr(0, 5) == ZERO
        assert pr(0).denominator == 1

    def test_exact_arithmetic(self):
        assert pr(1, 3) + pr(1, 6) == pr(1, 2)
        assert -pr(1, 3) == pr(-1, 3)
        assert pr(1, 3) * 2 == pr(2, 3)
        assert pr(1, 3) / 2 == pr(1, 6)
        assert pr(1, 3) < pr(1, 2) < pr(2, 3)

    def test_mod_two_pi(self):
        assert pr(7, 3).mod_two_pi() == pr(1, 3)
        assert pr(-1, 3).mod_two_pi() == pr(5, 3)
        assert pr(2).mod_two_pi() == ZERO
        # idempotent
        x = pr(-13, 7).mod_two_pi()
        assert x.mod_two_pi() == x

    @given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
    def test_addition_never_rounds(self, f, g):
        a = PiRational.from_fraction(f) + PiRational.from_fraction(g)
        assert a.coeff == f + g

    def test_str(self):
        assert str(pr(1, 3)) == "1/3·π"
        assert str(pr(1)) == "π"
        assert str(pr(-1)) == "-π"
        assert str(ZERO) == "0"


fractions = st.fractions(max_denominator=200, min_value=-50, max_value=50)
ints = st.integers(min_value=-1000, max_value=1000)


def _as_pair(a):
    return (a.numerator, a.denominator)


def _oracle(f):
    """What a PiRational of coefficient ``f`` must hold: ``f`` in lowest terms."""
    return (f.numerator, f.denominator)


class TestIntPairAgainstFraction:
    """The int pair agrees with ``Fraction`` arithmetic on the coefficient of pi."""

    @given(ints, ints.filter(bool))
    def test_construction_is_lowest_terms(self, p, q):
        a = PiRational(p, q)
        assert _as_pair(a) == _oracle(Fraction(p, q))
        assert a.denominator > 0 and math.gcd(a.numerator, a.denominator) == 1
        assert type(a.numerator) is int and type(a.denominator) is int
        assert a.coeff == Fraction(p, q) and type(a.coeff) is Fraction

    @given(fractions, fractions, ints)
    def test_arithmetic(self, f, g, k):
        a, b = PiRational.from_fraction(f), PiRational.from_fraction(g)
        assert _as_pair(a + b) == _oracle(f + g)
        assert _as_pair(a - b) == _oracle(f - g)
        assert _as_pair(-a) == _oracle(-f)
        assert _as_pair(abs(a)) == _oracle(abs(f))
        assert _as_pair(a * k) == _oracle(f * k)
        assert _as_pair(k * a) == _oracle(f * k)
        assert _as_pair(a * g) == _oracle(f * g)
        if k:
            assert _as_pair(a / k) == _oracle(f / k)
        if g:
            assert _as_pair(a / g) == _oracle(f / g)

    @given(fractions, fractions)
    def test_comparisons_and_hash(self, f, g):
        a, b = PiRational.from_fraction(f), PiRational.from_fraction(g)
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
            f < g, f <= g, f > g, f >= g, f == g, f != g)
        assert a == PiRational(f.numerator * 3, f.denominator * 3)
        assert hash(a) == hash(PiRational(-f.numerator * 2, -f.denominator * 2))
        assert hash(a) == hash((f.numerator, f.denominator))

    @given(fractions)
    def test_mod_two_pi(self, f):
        r = PiRational.from_fraction(f).mod_two_pi()
        assert _as_pair(r) == _oracle(f % 2)
        assert ZERO <= r < PI * 2

    @given(fractions)
    def test_str_and_repr(self, f):
        a = PiRational.from_fraction(f)
        assert repr(a) == f"PiRational({f.numerator}, {f.denominator})"
        if f == 0:
            want = "0"
        elif f.denominator > 1:
            want = f"{f.numerator}/{f.denominator}·π"
        else:
            want = {1: "π", -1: "-π"}.get(f.numerator, f"{f.numerator}·π")
        assert str(a) == want

    def test_negative_denominator(self):
        assert _as_pair(PiRational(3, -6)) == (-1, 2)
        assert _as_pair(PiRational(-3, -6)) == (1, 2)
        assert _as_pair(PiRational(0, -7)) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            PiRational(1, 0)
        with pytest.raises(ZeroDivisionError):
            PiRational(0, 0)
        with pytest.raises(ZeroDivisionError):
            PiRational(Fraction(1, 2), 0)
        with pytest.raises(ZeroDivisionError):
            pr(1, 3) / 0

    def test_other_types_do_not_mix(self):
        with pytest.raises(TypeError):
            pr(1, 3) + 1
        with pytest.raises(TypeError):
            pr(1, 3) - Fraction(1, 3)
        with pytest.raises(TypeError):
            pr(1, 3) < 1
        assert pr(1) != 1


def test_type_flags_vertex_sets_are_shared_and_unchanged():
    """Every apex x right bit pattern names its vertices, bit i for VERTICES[i], two or more
    apexes make the class equilateral, and equal patterns share one frozenset each."""
    seen = {}
    for apexes, right in product(range(8), repeat=2):
        flags, _, _ = torus._facts(apexes << 3 | right << 6, False)
        equilateral = bin(apexes).count("1") >= 2
        iso = 7 if equilateral else apexes
        got = (flags.isosceles_vertices, flags.right_vertices)
        assert got == tuple(frozenset(compress(VERTICES, (bits & 1, bits & 2, bits & 4)))
                            for bits in (iso, right))
        assert flags.equilateral == equilateral
        assert flags.scalene == (apexes == 0)
        for s in got:
            assert seen.setdefault(s, s) is s
    assert len(seen) == 8


class TestMakeTriple:
    def test_plus_sheet(self):
        t = make_triple(pr(1, 3), pr(1, 3), pr(1, 3))
        assert t.sheet is Sheet.PLUS
        assert not t.is_degenerate()

    def test_minus_sheet_degenerate(self):
        t = make_triple(ZERO, ZERO, -PI)
        assert t.sheet is Sheet.MINUS
        assert t.is_degenerate()

    def test_sum_not_pi(self):
        with pytest.raises(SumNotPi):
            make_triple(HALF_PI, HALF_PI, HALF_PI)

    def test_out_of_range(self):
        # sum is pi but one angle is negative on the plus sheet
        with pytest.raises(OutOfRange):
            make_triple(pr(-1, 4), pr(3, 4), pr(1, 2))

    def test_readback_identity(self):
        t = make_triple(pr(1, 7), pr(2, 7), pr(4, 7))
        assert t.angles == (pr(1, 7), pr(2, 7), pr(4, 7))


def _sheet_or_refusal(angles, zero, pi, tol):
    """``sheet_of``'s sheet, or its error class and the vertices it names (none for a sum)."""
    try:
        return sheet_of(angles, zero, pi, tol)
    except (SumNotPi, OutOfRange) as exc:
        named = [v for v in VERTICES if f" at {v} outside [" in str(exc)]
        return type(exc), named


def _sheet_check_grid(n=24):
    """Every triple of multiples of pi/n on both sheets, as numerators of pi/n; each with one
    angle moved by +-1, which breaks the sum; each with one angle moved by -1 and another by
    +1, which holds the sum and pushes an angle past 0 or pi where it was at 0 or pi."""
    grid = []
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            for sign in (1, -1):
                grid.append([sign * k for k in (k1, k2, n - k1 - k2)])
    out = list(grid)
    for ks in grid:
        for i in range(3):
            for d in (1, -1):
                out.append([k + d * (j == i) for j, k in enumerate(ks)])
            for j in range(3):
                if j != i:
                    out.append([k - (m == i) + (m == j) for m, k in enumerate(ks)])
    return out


def test_sheet_of_agrees_on_exact_and_float_angles():
    # the one sheet-and-range rule, instantiated on p/q*pi and on radians
    n = 24
    triples = _sheet_check_grid(n)
    assert len(triples) == 650 * 13
    seen = set()
    for ks in triples:
        exact = _sheet_or_refusal([PiRational(k, n) for k in ks], ZERO, PI, ZERO)
        floating = _sheet_or_refusal([PiRational(k, n).radians for k in ks], 0.0, math.pi,
                                     REFINE_TOL)
        assert floating == exact, ks
        seen.add(exact if isinstance(exact, Sheet) else exact[0])
    assert seen == {Sheet.PLUS, Sheet.MINUS, SumNotPi, OutOfRange}


@pytest.mark.parametrize("sign", [1, -1])
def test_sheet_of_float_tolerance_edge(sign):
    sheet = Sheet.PLUS if sign == 1 else Sheet.MINUS

    def check(*angles):
        return sheet_of([sign * a for a in angles], 0.0, math.pi, REFINE_TOL)

    for e in (5e-10, -5e-10):  # within REFINE_TOL of a bound: accepted
        assert check(1.1, 1.2, math.pi - 2.3 + e) is sheet
        assert check(e, 1.2, math.pi - 1.2 - e) is sheet
        assert check(math.pi + abs(e), -abs(e) / 2, -abs(e) / 2) is sheet
    for e in (2e-9, -2e-9):  # beyond it: refused
        with pytest.raises(SumNotPi):
            check(1.1, 1.2, math.pi - 2.3 + e)
    with pytest.raises(OutOfRange, match=" at A outside "):
        check(-2e-9, 1.2, math.pi - 1.2 + 2e-9)
    with pytest.raises(OutOfRange, match=" at A outside "):
        check(math.pi + 2e-9, -1e-9, -1e-9)


class TestTaxonomy:
    def test_degenerate_equilateral(self):
        f = taxonomy(make_triple(PI, ZERO, ZERO))
        assert f.degenerate and f.equilateral
        assert f.isosceles_vertices == frozenset("ABC")
        # the degenerate equilateral is excluded from the right family
        assert not f.right
        assert not f.obtuse and not f.acute

    def test_degenerate_isosceles_right(self):
        f = taxonomy(make_triple(ZERO, HALF_PI, HALF_PI))
        assert f.degenerate and not f.equilateral
        assert f.isosceles and f.right
        assert f.right_vertices == frozenset({"B", "C"})
        assert not f.scalene

    def test_degenerate_scalene(self):
        f = taxonomy(make_triple(ZERO, pr(1, 3), pr(2, 3)))
        assert f.degenerate and f.scalene
        assert not f.isosceles and not f.right

    def test_right_isosceles(self):
        f = taxonomy(make_triple(HALF_PI, pr(1, 4), pr(1, 4)))
        assert not f.degenerate
        assert f.right_vertices == frozenset({"A"})
        # equal angles at B and C: apex (meeting point of equal sides) is A
        assert f.isosceles_vertices == frozenset({"A"})
        assert not f.obtuse and not f.acute and not f.scalene

    def test_equilateral(self):
        f = taxonomy(make_triple(pr(1, 3), pr(1, 3), pr(1, 3)))
        assert f.equilateral and f.acute and not f.obtuse
        assert f.isosceles_vertices == frozenset("ABC")

    def test_obtuse_scalene(self):
        f = taxonomy(make_triple(pr(2, 3), pr(1, 4), pr(1, 12)))
        assert f.obtuse and f.scalene and not f.acute and not f.isosceles

    def test_acute_scalene(self):
        f = taxonomy(make_triple(pr(5, 12), pr(1, 3), pr(1, 4)))
        assert f.acute and f.scalene

    def test_right_boundary_neither_obtuse_nor_acute(self):
        f = taxonomy(make_triple(HALF_PI, pr(1, 3), pr(1, 6)))
        assert not f.obtuse and not f.acute
        assert f.right_vertices == frozenset({"A"})

    @given(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=24),
    )
    def test_negation_duality(self, i, j):
        if i + j > 24:
            i, j = 24 - i, 24 - j
        t = make_triple(pr(i, 24), pr(j, 24), pr(24 - i - j, 24))
        assert taxonomy(t) == taxonomy(t.negated())


def degenerate_grid(den=6):
    """All degenerate triples with angles multiples of pi/den, both sheets."""
    out = []
    for i in range(den + 1):
        parts = [Fraction(0), Fraction(i, den), Fraction(den - i, den)]
        for a, b, c in set(permutations(parts)):
            for sign in (1, -1):
                out.append(make_triple(*(PiRational.from_fraction(sign * x) for x in (a, b, c))))
    return out


def case_analysis_similar(a, b):
    """Reference: degenerate similarity by cases, written without rho.

    Both have two zero angles, or they share the position of their single
    zero angle and the remaining pairs are equal or anti-transposed.
    """
    za = [ang.is_zero() for ang in a.angles]
    zb = [ang.is_zero() for ang in b.angles]
    if sum(za) >= 2 or sum(zb) >= 2:
        return sum(za) >= 2 and sum(zb) >= 2
    if za != zb:
        return False
    rest_a = [ang for ang in a.angles if not ang.is_zero()]
    rest_b = [ang for ang in b.angles if not ang.is_zero()]
    return rest_a == rest_b or rest_a == [-rest_b[1], -rest_b[0]]


class TestDegenerateSimilar:
    def test_vertex_triples_all_similar(self):
        vertices = [
            make_triple(PI, ZERO, ZERO),
            make_triple(ZERO, PI, ZERO),
            make_triple(ZERO, ZERO, PI),
            make_triple(-PI, ZERO, ZERO),
            make_triple(ZERO, -PI, ZERO),
            make_triple(ZERO, ZERO, -PI),
        ]
        for a in vertices:
            for b in vertices:
                assert degenerate_similar(a, b)

    def test_anti_transposition(self):
        a = make_triple(ZERO, pr(1, 3), pr(2, 3))
        b = make_triple(ZERO, pr(-2, 3), pr(-1, 3))
        assert degenerate_similar(a, b)

    def test_zero_at_different_vertex(self):
        a = make_triple(ZERO, pr(1, 3), pr(2, 3))
        b = make_triple(pr(1, 3), ZERO, pr(2, 3))
        assert not degenerate_similar(a, b)

    def test_requires_degenerate(self):
        good = make_triple(ZERO, pr(1, 2), pr(1, 2))
        bad = make_triple(pr(1, 3), pr(1, 3), pr(1, 3))
        with pytest.raises(NotDegenerate):
            degenerate_similar(good, bad)

    def test_agrees_with_case_analysis(self):
        grid = {t for den in (1, 2, 3, 4, 5, 6, 8, 12) for t in degenerate_grid(den)}
        assert len(grid) == 120
        for a in grid:
            for b in grid:
                assert degenerate_similar(a, b) == case_analysis_similar(a, b)

    def test_equivalence_relation_on_grid(self):
        grid = degenerate_grid()
        n = len(grid)
        rel = [[degenerate_similar(a, b) for b in grid] for a in grid]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                assert rel[i][j] == rel[j][i]
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]
