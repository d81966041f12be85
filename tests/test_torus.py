import importlib.util
import math
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tritorus.angles import HALF_PI, PI, ZERO, PiRational, Sheet, make_triple, taxonomy
from tritorus.torus import (
    ANTI_LOCI,
    DEGENERATE_LOCI,
    ISOSCELES_LOCI,
    LOCUS_EQUATIONS,
    REFINE_TOL,
    RIGHT_LOCI,
    LocusId,
    OrientationSign,
    TorusPoint,
    _facts,
    classify,
    element_order,
    identity,
    in_locus,
    inverse,
    mul,
    orientation,
    point_facts,
    power,
    project_relative,
    rho,
    rho_preimages,
)


def pr(n, d=1):
    return PiRational(n, d)


def pt(n1, d1, n2, d2):
    return TorusPoint(pr(n1, d1), pr(n2, d2))


def sheet_grid(den):
    """All angle triples with denominators dividing den, on both sheets."""
    for i in range(den + 1):
        for j in range(den + 1 - i):
            k = den - i - j
            for sign in (1, -1):
                yield make_triple(
                    pr(sign * i, den), pr(sign * j, den), pr(sign * k, den)
                )


points = st.builds(
    TorusPoint,
    st.fractions(max_denominator=60).map(PiRational.from_fraction),
    st.fractions(max_denominator=60).map(PiRational.from_fraction),
)


# Coordinates p/q*pi with numerators of either sign and independent
# denominators, mostly coprime, so the lattice level n mixes many factors.
mixed_points = st.builds(
    lambda p1, q1, p2, q2: TorusPoint(pr(p1, q1), pr(p2, q2)),
    st.integers(-400, 400), st.integers(1, 199), st.integers(-400, 400), st.integers(1, 199),
)


@st.composite
def locus_points(draw):
    """Points on a random locus: a*c1 + b*c2 = h + 2j, solved for one coefficient."""
    a, b, h = draw(st.sampled_from(sorted(LOCUS_EQUATIONS.values())))
    free = Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 199)))
    j = draw(st.integers(-3, 3))
    if b:
        c1, c2 = free, Fraction(h + 2 * j - a * free, b)
    else:
        c1, c2 = Fraction(h + 2 * j, a), free
    return TorusPoint(PiRational.from_fraction(c1), PiRational.from_fraction(c2))


EQUILATERAL_COEFFS = {(0, 0), (Fraction(2, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(2, 3))}


def fraction_loci(p):
    """Loci of p by the congruences on the coefficients of pi."""
    c1, c2 = p.key()
    loci = {l for l, (a, b, h) in LOCUS_EQUATIONS.items() if (a * c1 + b * c2 - h) % 2 == 0}
    if p.key() in EQUILATERAL_COEFFS:
        loci.add(LocusId.EQUILATERAL3)
    return loci


class TestRho:
    def test_equilateral_image(self):
        assert rho(make_triple(pr(1, 3), pr(1, 3), pr(1, 3))) == pt(2, 3, 4, 3)

    def test_vertex_maps_to_identity(self):
        assert rho(make_triple(PI, ZERO, ZERO)) == identity()

    def test_right_isosceles_lands_on_right_locus(self):
        p = rho(make_triple(HALF_PI, pr(1, 4), pr(1, 4)))
        assert p == pt(1, 2, 1, 1)
        assert in_locus(p, LocusId.R_A)

    def test_degenerate_maps_to_degenerate(self):
        for t in sheet_grid(8):
            if t.is_degenerate():
                assert rho(t).is_degenerate()


class TestPreimages:
    def test_identity_has_six_vertex_preimages(self):
        pre = rho_preimages(identity())
        assert len(pre) == 6
        coeffs = [tuple(a.coeff for a in t.angles) for t in pre]
        assert coeffs == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        ]

    def test_degenerate_pair(self):
        pre = rho_preimages(pt(2, 3, 0, 1))
        assert [t.sheet for t in pre] == [Sheet.PLUS, Sheet.MINUS]
        assert pre[0] == make_triple(ZERO, pr(1, 3), pr(2, 3))
        assert pre[1] == make_triple(ZERO, pr(-2, 3), pr(-1, 3))

    def test_nondegenerate_unique(self):
        pre = rho_preimages(pt(2, 3, 4, 3))
        assert pre == (make_triple(pr(1, 3), pr(1, 3), pr(1, 3)),)

    def test_inversion_formulas_against_brute_force(self):
        # Oracle: enumerate rho over a full grid of triples and compare
        # fibers with rho_preimages, independently of the inversion formulas.
        for den in (12, 15):  # an even and an odd lattice order
            fibers = {}
            for t in sheet_grid(den):
                fibers.setdefault(rho(t), set()).add(t)
            assert len(fibers) > 100
            for p, triples in fibers.items():
                pre = rho_preimages(p)
                assert set(pre) == triples
                sheets = [t.sheet for t in pre]
                assert sheets == sorted(sheets, key=lambda s: s is Sheet.MINUS)

    def test_round_trip_on_grid(self):
        for t in sheet_grid(16):
            pre = rho_preimages(rho(t))
            assert t in pre
            for u in pre:
                assert rho(u) == rho(t)


class TestOrientation:
    def test_examples(self):
        assert orientation(pt(2, 3, 4, 3)) is OrientationSign.POSITIVE
        assert orientation(pt(4, 3, 2, 3)) is OrientationSign.NEGATIVE
        assert orientation(pt(1, 1, 1, 1)) is OrientationSign.ZERO

    def test_rho_preserves_orientation(self):
        for t in sheet_grid(10):
            o = orientation(rho(t))
            if t.is_degenerate():
                assert o is OrientationSign.ZERO
            elif t.sheet is Sheet.PLUS:
                assert o is OrientationSign.POSITIVE
            else:
                assert o is OrientationSign.NEGATIVE


class TestGroupLaw:
    def test_equilateral_classes_mutually_inverse(self):
        e1 = pt(2, 3, 4, 3)
        assert mul(e1, e1) == pt(4, 3, 2, 3)
        assert mul(e1, inverse(e1)) == identity()

    def test_identity_law(self):
        p = pt(1, 5, 7, 5)
        assert mul(p, identity()) == p

    def test_order_four(self):
        assert power(pt(1, 2, 1, 1), 4) == identity()

    @given(points, points, points)
    def test_abelian_group_axioms(self, p, q, r):
        assert mul(p, q) == mul(q, p)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, inverse(p)) == identity()
        assert mul(p, identity()) == p

    @given(points, st.integers(min_value=-5, max_value=8))
    def test_power_is_repeated_mul(self, p, n):
        expected = identity()
        step = p if n >= 0 else inverse(p)
        for _ in range(abs(n)):
            expected = mul(expected, step)
        assert power(p, n) == expected


class TestElementOrder:
    @pytest.mark.parametrize(
        "point,order",
        [
            (pt(2, 3, 4, 3), 3),
            (pt(1, 1, 0, 1), 2),
            (pt(1, 2, 1, 1), 4),
            (pt(0, 1, 0, 1), 1),
            (pt(1, 5, 3, 7), 70),
        ],
    )
    def test_witnesses(self, point, order):
        assert element_order(point) == order

    @given(points)
    def test_order_is_least_annihilator(self, p):
        n = element_order(p)
        assert power(p, n) == identity()
        for m in range(1, n):
            if n % m == 0:
                assert power(p, m) != identity()


class TestLattice:
    @given(mixed_points, st.integers(-5, 5), st.integers(-5, 5),
           st.integers(-6, 6).filter(bool))
    def test_lattice_reconstructs_point(self, p, a, b, m):
        k1, k2, n = p
        assert 0 <= k1 < n and 0 <= k2 < n
        assert (Fraction(2 * k1, n), Fraction(2 * k2, n)) == p.key()
        assert TorusPoint.from_lattice(k1, k2, n) == p
        # unreduced triples, negative entries included, name the same point
        assert TorusPoint.from_lattice(k1 + a * n, k2 + b * n, n) == p
        assert TorusPoint.from_lattice(m * k1, m * k2, m * n) == p
        q = TorusPoint(p.xi1, p.xi2)
        assert q == p and hash(q) == hash(p)
        assert p.n == element_order(p)

    @given(mixed_points)
    def test_element_order_is_lattice_level(self, p):
        c1, c2 = p.key()
        _, _, n = p
        assert element_order(p) == n
        assert element_order(p) == lcm((c1 / 2).denominator, (c2 / 2).denominator)

    @given(st.one_of(mixed_points, locus_points()))
    def test_in_locus_is_the_congruence(self, p):
        assert {l for l in LocusId if in_locus(p, l)} == fraction_loci(p)

    def test_in_locus_on_torsion_grid(self):
        n = 48
        for k1 in range(n):
            for k2 in range(n):
                p = TorusPoint.from_lattice(k1, k2, n)
                assert set(classify(p).loci) == fraction_loci(p)

    def test_lattice_and_float_point_facts_agree(self):
        # one rule, two number types: exact ints in units of pi/n, and floats within
        # REFINE_TOL, agree on sign, flags and loci at every torsion point, odd orders too
        for n in range(1, 49):
            for k1 in range(n):
                for k2 in range(n):
                    exact = point_facts(*TorusPoint.from_lattice(k1, k2, n).facts_args())
                    xi = (2 * math.pi * k1 / n, 2 * math.pi * k2 / n)
                    assert point_facts(*xi, math.pi, REFINE_TOL) == exact, (k1, k2, n)


class TestLoci:
    def test_membership_witnesses(self):
        assert in_locus(pt(1, 2, 1, 1), LocusId.R_A)
        e1 = pt(2, 3, 4, 3)
        assert all(in_locus(e1, l) for l in (LocusId.I_A, LocusId.I_B, LocusId.I_C))
        assert in_locus(pt(1, 5, 2, 5), LocusId.I_A)
        assert not in_locus(pt(1, 5, 2, 5), LocusId.I_B)

    def test_equilateral3(self):
        for p in (identity(), pt(2, 3, 4, 3), pt(4, 3, 2, 3)):
            assert in_locus(p, LocusId.EQUILATERAL3)
        assert not in_locus(pt(1, 3, 2, 3), LocusId.EQUILATERAL3)

    @pytest.mark.parametrize(
        "locus",
        [
            LocusId.D_A, LocusId.D_B, LocusId.D_C,
            LocusId.I_A, LocusId.I_B, LocusId.I_C,
            LocusId.IPERP_A, LocusId.IPERP_B, LocusId.EQUILATERAL3,
        ],
    )
    def test_subgroup_closure(self, locus):
        rng = random.Random(7)
        members = [p for p in _locus_samples(locus, rng)]
        assert members
        for p in members:
            assert in_locus(p, locus)
            assert in_locus(inverse(p), locus)
            for q in members:
                assert in_locus(mul(p, q), locus)

    @pytest.mark.parametrize(
        "coset,subgroup",
        [
            (LocusId.R_A, LocusId.D_A),
            (LocusId.R_B, LocusId.D_B),
            (LocusId.R_C, LocusId.D_C),
            (LocusId.ANTI_RIGHT, LocusId.I_C),
        ],
    )
    def test_coset_property(self, coset, subgroup):
        rng = random.Random(11)
        reps = list(_locus_samples(coset, rng))
        subs = list(_locus_samples(subgroup, rng))
        for r in reps:
            assert not in_locus(r, subgroup)
            for s in subs:
                assert in_locus(mul(r, s), coset)

    @pytest.mark.parametrize(
        "right,degenerate",
        [
            (LocusId.R_A, LocusId.D_A),
            (LocusId.R_B, LocusId.D_B),
            (LocusId.R_C, LocusId.D_C),
        ],
    )
    def test_right_cosets_are_order_two_in_quotient(self, right, degenerate):
        rng = random.Random(13)
        for r in _locus_samples(right, rng):
            assert in_locus(mul(r, r), degenerate)
            assert not in_locus(r, degenerate)


def _locus_samples(locus, rng, count=8):
    """Random exact points on a locus, from its parametric form."""
    params = [PiRational(rng.randint(0, 119), 60) for _ in range(count)]
    forms = {
        LocusId.D_A: lambda x: TorusPoint(x, ZERO),
        LocusId.D_B: lambda x: TorusPoint(ZERO, x),
        LocusId.D_C: lambda x: TorusPoint(x, x),
        LocusId.I_A: lambda x: TorusPoint(x, x * 2),
        LocusId.I_B: lambda x: TorusPoint(x * 2, x),
        LocusId.I_C: lambda x: TorusPoint(x, -x),
        LocusId.IPERP_A: lambda x: TorusPoint(x * -2, x),
        LocusId.IPERP_B: lambda x: TorusPoint(x, x * -2),
        LocusId.R_A: lambda x: TorusPoint(x, PI),
        LocusId.R_B: lambda x: TorusPoint(PI, x),
        LocusId.R_C: lambda x: TorusPoint(x, x + PI),
        LocusId.ANTI_RIGHT: lambda x: TorusPoint(x, PI - x),
        LocusId.EQUILATERAL3: None,
    }
    if locus is LocusId.EQUILATERAL3:
        return [TorusPoint(ZERO, ZERO), pt(2, 3, 4, 3), pt(4, 3, 2, 3)]
    build = forms[locus]
    out = [build(x) for x in params]
    if locus in (LocusId.R_A, LocusId.R_B, LocusId.R_C, LocusId.ANTI_RIGHT):
        # avoid the parameter values that fall back into the subgroup itself
        out = [p for p in out if not in_locus(p, LocusId.EQUILATERAL3)]
    return out


class TestClassify:
    def test_identity(self):
        c = classify(identity())
        assert c.degenerate
        assert c.orientation is OrientationSign.ZERO
        assert c.flags.equilateral
        assert c.multiplicity == 12

    def test_equilateral(self):
        c = classify(pt(2, 3, 4, 3))
        assert not c.degenerate
        assert c.orientation is OrientationSign.POSITIVE
        assert c.flags.equilateral
        assert c.multiplicity == 6

    def test_right_isosceles(self):
        c = classify(pt(1, 2, 1, 1))
        assert c.flags.right_vertices == frozenset({"A"})
        assert c.flags.isosceles
        assert c.multiplicity == 2
        assert LocusId.R_A in c.loci

    def test_flags_agree_with_taxonomy_of_the_preimage(self):
        # taxonomy reads point_facts at rho of the built triangle, so this holds that rho takes
        # the first preimage back to p; the oracle test below checks the flags themselves
        for n in range(1, 25):
            for k1 in range(n):
                for k2 in range(n):
                    p = TorusPoint.from_lattice(k1, k2, n)
                    c = classify(p)
                    assert c.flags == taxonomy(rho_preimages(p)[0])
                    assert c.degenerate == p.is_degenerate()

    def test_degenerate_flags_shared_across_preimages(self):
        rng = random.Random(5)
        for locus in (LocusId.D_A, LocusId.D_B, LocusId.D_C):
            for p in _locus_samples(locus, rng):
                pre = rho_preimages(p)
                flags = {taxonomy(t) for t in pre}
                assert len(flags) == 1


ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def test_classify_agrees_with_the_benchmark_oracle_to_order_24():
    # The benchmark's oracles are written apart from tritorus and read the flags off the
    # loci.  Their R loci use n // 2, so each point 2*pi*(k1, k2)/n is asked at level 2n.
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    checked = 0
    for n in range(1, 25):
        for k1 in range(n):
            for k2 in range(n):
                c = classify(TorusPoint.from_lattice(k1, k2, n))
                want = oracles.classify(2 * k1, 2 * k2, 2 * n)
                got = {
                    "orientation": c.orientation.value,
                    "loci": {locus.value for locus in c.loci},
                    "multiplicity": c.multiplicity,
                    **{name: getattr(c.flags, name) for name in c.flags._fields},
                }
                assert got == {key: want[key] for key in got}, (k1, k2, n)
                checked += 1
    assert checked == 4900


BYTE_IDENTITY = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"


def edge_points(n):
    """``tools/byte_identity.edge_points``: (locus, last point on, first point off) at n
    seeded edges, cycling through the twelve rows and bisected on each row's own residue,
    not through point_facts."""
    spec = importlib.util.spec_from_file_location("byte_identity", BYTE_IDENTITY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.edge_points(n)


def test_flags_agree_with_loci_at_the_edge_of_each_locus():
    # flags and loci are read off one comparison each, so they agree at the last point on
    # a locus, the first point off it and one ulp either side of each
    two_pi = 2 * math.pi
    wrong, checked = [], 0
    for locus, *points in edge_points(480):
        for x, y in points:
            for p in [(x, y)] + [(math.nextafter(x, to) % two_pi, math.nextafter(y, to) % two_pi)
                                 for to in (0.0, two_pi)]:
                sign, flags, loci, _ = point_facts(*p, math.pi, REFINE_TOL)
                names = {l.value for l in loci}

                def at(kind):
                    return {v for v in "ABC" if f"{kind}_{v}" in names}

                if not (flags.degenerate == bool(at("D")) == (sign == 0)):
                    wrong.append((locus, p, "degenerate"))
                if not flags.equilateral and flags.isosceles_vertices != at("I"):
                    wrong.append((locus, p, "isosceles_vertices"))
                if flags.right_vertices != at("R"):
                    wrong.append((locus, p, "right_vertices"))
                checked += 1
    assert checked == 480 * 2 * 3
    assert wrong == []


class TestProjectRelative:
    def test_third_argument_zero(self):
        assert project_relative(pr(1, 2), PI, ZERO) == pt(1, 2, 1, 1)

    def test_rotation_invariance(self):
        shift = pr(1, 7)
        assert project_relative(pr(1, 2) + shift, PI + shift, shift) == pt(1, 2, 1, 1)

    def test_normalization(self):
        p = project_relative(ZERO, ZERO, pr(1, 3))
        assert p == pt(5, 3, 5, 3)
        assert p.is_degenerate()

    @given(
        st.fractions(max_denominator=30), st.fractions(max_denominator=30),
        st.fractions(max_denominator=30), st.fractions(max_denominator=30),
    )
    def test_invariance_property(self, a, b, c, s):
        th = [PiRational.from_fraction(x) for x in (a, b, c)]
        sh = PiRational.from_fraction(s)
        assert project_relative(*th) == project_relative(*(x + sh for x in th))


def test_value_types_are_immutable_values():
    from tritorus.measure import McEstimate, analytic_measures
    from tritorus.pathtrace import trace_path
    from tritorus.symmetry import ROTATION, GroupElement, word_of

    triple = make_triple(pr(1, 2), pr(1, 4), pr(1, 4))
    p = rho(triple)
    values = [
        (triple, "alpha"),
        (taxonomy(triple), "equilateral"),
        (p, "xi1"),
        (classify(p), "point"),
        (ROTATION, "sign"),
        (word_of(ROTATION), "r_power"),
        (analytic_measures(), "total"),
        (McEstimate.from_count(1, 4, 0), "probability"),
        (trace_path((0.1, 0.2), (1.0, 0.0), 2, 0.1)[0], "step_index"),
    ]
    assert len({type(v) for v, _ in values}) == 9
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)

    with pytest.raises(ValueError):
        GroupElement(2, (1, 2, 3))
    with pytest.raises(ValueError):
        GroupElement(1, (1, 1, 2))

    wound = TorusPoint(pr(5), pr(-1, 2))
    reduced = TorusPoint(pr(1), pr(3, 2))
    assert wound == reduced
    assert hash(wound) == hash(reduced)


def test_locus_families_cut_the_equations_in_order():
    families = (DEGENERATE_LOCI, ISOSCELES_LOCI, RIGHT_LOCI, ANTI_LOCI)
    assert sum(families, ()) == tuple(LOCUS_EQUATIONS)
    by_name = [tuple(LocusId[f"{f}_{v}"] for v in "ABC") for f in "DIR"]
    by_name.append(tuple(LocusId[f"{f}_{v}"] for f, v in (("IPERP", "A"), ("IPERP", "B"),
                                                           ("ANTI", "RIGHT"))))
    assert list(families) == by_name
    # D_v and I_v are the mirrors of D6's reflections; R_v and the anti loci are not
    bit = {locus: 1 << i for i, locus in enumerate(LOCUS_EQUATIONS)}
    for locus in DEGENERATE_LOCI + ISOSCELES_LOCI:
        assert _facts(bit[locus], False)[2] == 2
    for locus in RIGHT_LOCI + ANTI_LOCI:
        assert _facts(bit[locus], False)[2] == 1
