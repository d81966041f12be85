import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tritorus.angles import VERTICES, PiRational, make_triple
from tritorus.symmetry import (
    IDENTITY,
    REFLECTION,
    ROTATION,
    D6Word,
    GroupElement,
    act,
    all_elements,
    canonical_rep,
    element_of_word,
    images,
    multiplicity,
    orbit,
    orientation_preserving_subgroup,
    similar,
    stabilizer,
    word_of,
)
from tritorus.torus import (
    LOCUS_EQUATIONS, LocusId, OrientationSign, TorusPoint, classify, doubled_angles, inverse,
    orientation, rho,
)


def pr(n, d=1):
    return PiRational(n, d)


def pt(n1, d1, n2, d2):
    return TorusPoint(pr(n1, d1), pr(n2, d2))


points = st.builds(
    TorusPoint,
    st.fractions(max_denominator=48).map(PiRational.from_fraction),
    st.fractions(max_denominator=48).map(PiRational.from_fraction),
)


# Coordinates p/q*pi with numerators of either sign and independent
# denominators, mostly coprime, so the lattice level n mixes many factors.
mixed_points = st.builds(
    lambda p1, q1, p2, q2: TorusPoint(pr(p1, q1), pr(p2, q2)),
    st.integers(-400, 400), st.integers(1, 199), st.integers(-400, 400), st.integers(1, 199),
)


def fraction_image(g, p):
    """g's matrix applied to the coefficients of pi, reduced mod 2."""
    (m00, m01), (m10, m11) = g.matrix()
    c1, c2 = p.xi1.coeff, p.xi2.coeff
    return ((m00 * c1 + m01 * c2) % 2, (m10 * c1 + m11 * c2) % 2)


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


class TestGroupStructure:
    def test_twelve_distinct_elements(self):
        els = all_elements()
        assert len(els) == 12
        assert len(set(els)) == 12

    def test_rotation_generator(self):
        assert ROTATION.sign == -1 and ROTATION.perm == (2, 3, 1)
        assert word_of(ROTATION) == D6Word(1, False)

    def test_reflection_squares_to_identity(self):
        assert REFLECTION.compose(REFLECTION) == IDENTITY

    def test_rotation_has_order_six(self):
        g = ROTATION
        for k in range(1, 6):
            assert g != IDENTITY
            g = g.compose(ROTATION)
        assert g == IDENTITY

    def test_composition_matches_matrix_product(self):
        for g in all_elements():
            for h in all_elements():
                assert g.compose(h).matrix() == _matmul(g.matrix(), h.matrix())

    def test_explicit_matrices(self):
        mats = {
            (1, (1, 2, 3)): ((1, 0), (0, 1)),
            (1, (2, 3, 1)): ((-1, 1), (-1, 0)),
            (1, (3, 1, 2)): ((0, -1), (1, -1)),
            (1, (2, 1, 3)): ((0, 1), (1, 0)),
            (1, (3, 2, 1)): ((-1, 0), (-1, 1)),
            (1, (1, 3, 2)): ((1, -1), (0, -1)),
        }
        for (sign, perm), mat in mats.items():
            assert GroupElement(sign, perm).matrix() == mat
            neg = tuple(tuple(-x for x in row) for row in mat)
            assert GroupElement(-sign, perm).matrix() == neg

    def test_word_dictionary(self):
        expected = {
            (-1, (2, 3, 1)): (1, False),   # r
            (-1, (2, 1, 3)): (0, True),    # s
            (-1, (1, 2, 3)): (3, False),   # r^3
            (1, (2, 3, 1)): (4, False),    # r^4
            (1, (2, 1, 3)): (3, True),     # r^3 s
            (1, (3, 2, 1)): (5, True),     # r^5 s
            (1, (1, 3, 2)): (1, True),     # r s
            (-1, (3, 2, 1)): (2, True),    # r^2 s
            (-1, (1, 3, 2)): (4, True),    # r^4 s
            (1, (1, 2, 3)): (0, False),    # identity
        }
        for (sign, perm), (a, b) in expected.items():
            assert word_of(GroupElement(sign, perm)) == D6Word(a, b)

    def test_words_reproduce_matrices(self):
        # multiplying out r^a s^b from the generators recovers every element
        for g in all_elements():
            assert element_of_word(word_of(g)) == g

    def test_element_and_word_names(self):
        names = [(str(g), str(word_of(g))) for g in all_elements()]
        assert names == [
            ("e", "1"), ("(123)", "r^4"), ("(132)", "r^2"), ("(12)", "r^3s"), ("(13)", "r^5s"),
            ("(23)", "rs"), ("-e", "r^3"), ("-(123)", "r"), ("-(132)", "r^5"), ("-(12)", "s"),
            ("-(13)", "r^2s"), ("-(23)", "r^4s"),
        ]


#: The angle-plane metric ds^2 = (dxi1^2 + dxi2^2 - dxi1*dxi2) / 2, as an integer form.
ANGLE_FORM = ((2, -1), (-1, 2))
SQUARE_FORM = ((1, 0), (0, 1))

#: The D, I and R loci by family.  The anti rows (IPerp_A, IPerp_B, AntiRight) are left out:
#: the table holds only part of their D6 orbits, so it is not closed on them (ROADMAP item 4).
FAMILIES = {LocusId[f"{family}_{v}"]: family for family in "DIR" for v in "ABC"}
FAMILY_ROWS = {LOCUS_EQUATIONS[locus]: locus for locus in FAMILIES}


def _preserves(m, form):
    """M^T * form * M == form."""
    return _matmul(_matmul(tuple(zip(*m)), form), m) == form


def _image_locus(g, locus):
    """The locus that g maps ``locus`` onto: the character (a, b) goes to +-(a, b)*M^-1, h kept."""
    (m00, m01), (m10, m11) = g.matrix()
    det = m00 * m11 - m01 * m10  # +-1, so M^-1 = det * adj(M)
    a, b, h = LOCUS_EQUATIONS[locus]
    c1, c2 = det * (a * m11 - b * m10), det * (b * m00 - a * m01)
    return FAMILY_ROWS.get((c1, c2, h)) or FAMILY_ROWS.get((-c1, -c2, h))


class TestIsometries:
    def test_every_matrix_preserves_the_angle_plane_form(self):
        mats = [g.matrix() for g in all_elements()]
        assert all(_preserves(m, ANGLE_FORM) for m in mats)
        assert sum(_preserves(m, SQUARE_FORM) for m in mats) == 4

    def test_each_family_maps_onto_itself(self):
        for g in all_elements():
            image = {locus: _image_locus(g, locus) for locus in FAMILIES}
            assert all(FAMILIES.get(image[l]) == FAMILIES[l] for l in FAMILIES), g
            assert len(set(image.values())) == len(FAMILIES), g

    def test_loci_of_the_image_are_the_images_of_the_loci(self):
        for n in range(1, 25):
            loci = {(k1, k2): FAMILIES.keys() & classify(TorusPoint.from_lattice(k1, k2, n)).loci
                    for k1 in range(n) for k2 in range(n)}
            for p, on in loci.items():
                for g, q in zip(all_elements(), images(*p, n)):
                    assert {_image_locus(g, l) for l in on} == loci[q], (p, n, g)


class TestAction:
    def test_negation_is_inverse(self):
        p = pt(1, 2, 1, 1)
        assert act(GroupElement(-1, (1, 2, 3)), p) == inverse(p)
        assert act(GroupElement(-1, (1, 2, 3)), p) == pt(3, 2, 1, 1)

    def test_identity_acts_trivially(self):
        p = pt(1, 7, 9, 7)
        assert act(IDENTITY, p) == p

    def test_transposition_swaps_coordinates(self):
        assert act(GroupElement(1, (2, 1, 3)), pt(1, 5, 3, 5)) == pt(3, 5, 1, 5)

    @given(points)
    def test_left_action_all_pairs(self, p):
        for g in all_elements():
            for h in all_elements():
                assert act(g.compose(h), p) == act(g, act(h, p))

    @given(points)
    def test_action_permutes_orbit(self, p):
        orb = orbit(p)
        for g in all_elements():
            assert {act(g, q) for q in orb} == orb

    def test_labelled_flags_and_orientation_are_equivariant(self):
        # act(g, p) is p relabelled, its vertex i being p's vertex g.perm[i]; the elements
        # outside the orientation-preserving subgroup swap the sign and keep zero.  Every
        # point of order <= 24 against all 12 elements.
        swap = {OrientationSign.POSITIVE: OrientationSign.NEGATIVE,
                OrientationSign.NEGATIVE: OrientationSign.POSITIVE,
                OrientationSign.ZERO: OrientationSign.ZERO}
        keep = set(orientation_preserving_subgroup())

        def relabel(g, old):
            return {v for v, j in zip(VERTICES, g.perm) if VERTICES[j - 1] in old}

        grid = {TorusPoint.from_lattice(k1, k2, n)
                for n in range(1, 25) for k1 in range(n) for k2 in range(n)}
        assert len(grid) == 4032
        for p in grid:
            c = classify(p)
            for g in all_elements():
                d = classify(act(g, p))
                assert d.flags.isosceles_vertices == relabel(g, c.flags.isosceles_vertices), (p, g)
                assert d.flags.right_vertices == relabel(g, c.flags.right_vertices), (p, g)
                assert d.orientation is (c.orientation if g in keep else swap[c.orientation])


class TestOrbitsAndMultiplicity:
    def test_identity_fixed(self):
        assert orbit(TorusPoint(pr(0), pr(0))) == {TorusPoint(pr(0), pr(0))}
        assert multiplicity(TorusPoint(pr(0), pr(0))) == 12

    def test_equilateral_pair(self):
        assert orbit(pt(2, 3, 4, 3)) == {pt(2, 3, 4, 3), pt(4, 3, 2, 3)}
        assert multiplicity(pt(2, 3, 4, 3)) == 6

    def test_generic_point_free_orbit(self):
        assert len(orbit(pt(1, 5, 3, 7))) == 12
        assert multiplicity(pt(1, 5, 3, 7)) == 1

    @pytest.mark.parametrize(
        "point,mult",
        [
            (pt(0, 1, 0, 1), 12),   # degenerate equilateral
            (pt(2, 3, 4, 3), 6),    # nondegenerate equilateral
            (pt(1, 1, 1, 1), 4),    # degenerate nonequilateral isosceles
            (pt(2, 3, 0, 1), 2),    # degenerate scalene
            (pt(1, 2, 1, 1), 2),    # nondegenerate nonequilateral isosceles
            (pt(1, 5, 3, 7), 1),    # nondegenerate scalene
        ],
    )
    def test_multiplicity_table(self, point, mult):
        assert multiplicity(point) == mult

    def test_multiplicity_is_read_off_the_mirrors(self):
        # 12 / orbit size is 2 per I_v or D_v locus through the point, or 1 off them all
        for n in range(1, 61):
            for k1 in range(n):
                for k2 in range(n):
                    mult = classify(TorusPoint.from_lattice(k1, k2, n)).multiplicity
                    assert mult == 12 // len(set(images(k1, k2, n))), (k1, k2, n)

    def test_classes_are_the_partitions_of_n(self):
        # the absolute classes of the n-torsion points are the partitions of n into at most
        # three parts (the halved |angles|); the partition's shape (zero parts, equal
        # neighbours) sets the multiplicity, and the rep is read off the sorted doubled |angles|
        by_shape = {(0, 0): 1, (0, 1): 2, (0, 2): 6, (1, 0): 2, (1, 1): 4, (2, 1): 12}
        for n in range(1, 41):
            partitions = {tuple(sorted((i, j, n - i - j)))
                          for i in range(n + 1) for j in range(n + 1 - i)}
            want = Counter(by_shape[(d.count(0), (d[0] == d[1]) + (d[1] == d[2]))]
                           for d in partitions)
            classes = {}
            for k1 in range(n):
                for k2 in range(n):
                    c = classify(TorusPoint.from_lattice(k1, k2, n))
                    assert classes.setdefault(c.canonical_rep, c.multiplicity) == c.multiplicity
                    d1, _, d3 = sorted(doubled_angles(min(2 * k1, 2 * k2), max(2 * k1, 2 * k2),
                                                      2 * n))
                    rep = TorusPoint(PiRational(d1, n), PiRational((2 * n - d3) % (2 * n), n))
                    assert c.canonical_rep == rep, (k1, k2, n)
            assert Counter(classes.values()) == want, n

    @given(points)
    def test_orbit_stabilizer(self, p):
        assert len(orbit(p)) * multiplicity(p) == 12
        assert len(stabilizer(p)) == multiplicity(p)

    @given(points)
    def test_type_flags_constant_on_orbit(self, p):
        # vertex labels permute within an orbit, but the unlabeled type
        # (including how many apex/right vertices there are) is invariant
        base = classify(p).flags
        key = (
            base.equilateral,
            base.scalene,
            base.degenerate,
            base.obtuse,
            base.acute,
            len(base.isosceles_vertices),
            len(base.right_vertices),
        )
        for q in orbit(p):
            f = classify(q).flags
            assert key == (
                f.equilateral, f.scalene, f.degenerate, f.obtuse, f.acute,
                len(f.isosceles_vertices), len(f.right_vertices),
            )


def partitions_into_three_parts(n):
    """Partitions of n into at most 3 parts: the absolute classes of triangles with angles
    in (pi/n)*Z, one multiset of |angles|*n/pi each."""
    return round((n + 3) ** 2 / 12)


class TestOrbitCount:
    def test_three_counts_of_the_orbits_on_the_n_torsion_points(self):
        # distinct least images, orbit-stabilizer, and distinct orbits, through the public API
        for n in range(1, 41):
            grid = [TorusPoint.from_lattice(k1, k2, n) for k1 in range(n) for k2 in range(n)]
            want = partitions_into_three_parts(n)
            assert len({canonical_rep(p) for p in grid}) == want, n
            assert sum(multiplicity(p) for p in grid) == 12 * want, n
            assert len({orbit(p) for p in grid}) == want, n

    def test_burnside_count_of_the_d6_matrices(self):
        # |Fix_n(g)| = gcd(d1, n) * gcd(d2, n) for the Smith invariants d1 | d2 of M_g - I,
        # where an invariant 0 counts n (as math.gcd(0, n) = n)
        invariants = []
        for g in all_elements():
            (m00, m01), (m10, m11) = g.matrix()
            d1 = math.gcd(m00 - 1, m01, m10, m11 - 1)
            det = abs((m00 - 1) * (m11 - 1) - m01 * m10)
            invariants.append((d1, det // d1 if d1 else 0))
        for n in range(1, 10_001):
            fixed = sum(math.gcd(d1, n) * math.gcd(d2, n) for d1, d2 in invariants)
            assert fixed == 12 * partitions_into_three_parts(n), n


class TestCanonicalRep:
    def test_two_element_orbit(self):
        assert canonical_rep(pt(4, 3, 2, 3)) == pt(2, 3, 4, 3)

    def test_fixed_point(self):
        assert canonical_rep(TorusPoint(pr(0), pr(0))) == TorusPoint(pr(0), pr(0))

    @given(points)
    def test_idempotent_and_constant_on_orbit(self, p):
        rep = canonical_rep(p)
        assert canonical_rep(rep) == rep
        assert all(canonical_rep(q) == rep for q in orbit(p))


class TestLatticeAgainstFractions:
    @given(mixed_points)
    def test_act_is_the_matrix_image(self, p):
        for g in all_elements():
            assert act(g, p).key() == fraction_image(g, p)

    @given(mixed_points)
    def test_orbit_is_the_twelve_images(self, p):
        assert {q.key() for q in orbit(p)} == {fraction_image(g, p) for g in all_elements()}

    @given(mixed_points)
    def test_multiplicity_stabilizer_orbit_size(self, p):
        fixing = tuple(g for g in all_elements() if fraction_image(g, p) == p.key())
        assert stabilizer(p) == fixing
        assert multiplicity(p) == len(fixing) == 12 // len(orbit(p))

    @given(mixed_points)
    def test_canonical_rep_is_least_image(self, p):
        rep = canonical_rep(p)
        assert rep == min(orbit(p), key=TorusPoint.key)
        assert rep.key() == min(fraction_image(g, p) for g in all_elements())


def by_hand(g, x, y, modulus):
    (m00, m01), (m10, m11) = g.matrix()
    return ((m00 * x + m01 * y) % modulus, (m10 * x + m11 * y) % modulus)


class TestImages:
    @given(st.integers(-500, 500), st.integers(-500, 500), st.integers(1, 97))
    def test_lattice_images_in_element_order(self, k1, k2, n):
        assert images(k1, k2, n) == [by_hand(g, k1, k2, n) for g in all_elements()]

    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    def test_float_images_in_element_order(self, x, y):
        two_pi = 2 * math.pi
        assert images(x, y, two_pi) == [by_hand(g, x, y, two_pi) for g in all_elements()]

    @given(mixed_points)
    def test_stabilizer_is_the_elements_whose_image_is_the_point(self, p):
        k1, k2, n = p
        fixing = tuple(g for g in all_elements() if by_hand(g, k1, k2, n) == (k1, k2))
        assert stabilizer(p) == fixing
        assert all(act(g, p) == p for g in fixing)


class TestSimilar:
    def test_label_permutation(self):
        a = rho(make_triple(pr(1, 2), pr(1, 4), pr(1, 4)))
        b = rho(make_triple(pr(1, 4), pr(1, 2), pr(1, 4)))
        assert similar(a, b)

    def test_mirror_images(self):
        a = rho(make_triple(pr(1, 3), pr(1, 3), pr(1, 3)))
        b = rho(make_triple(pr(-1, 3), pr(-1, 3), pr(-1, 3)))
        assert similar(a, b)

    def test_different_shapes(self):
        a = rho(make_triple(pr(1, 2), pr(1, 4), pr(1, 4)))
        b = rho(make_triple(pr(1, 3), pr(1, 3), pr(1, 3)))
        assert not similar(a, b)

    def test_all_twelve_labelings_one_class(self):
        from itertools import permutations

        angles = (pr(1, 2), pr(1, 3), pr(1, 6))
        images = set()
        for perm in permutations(angles):
            for sign in (1, -1):
                images.add(rho(make_triple(*(a * sign for a in perm))))
        assert len(images) == 12
        reps = {canonical_rep(p) for p in images}
        assert len(reps) == 1


class TestOrientationSubgroup:
    def test_membership(self):
        sub = orientation_preserving_subgroup()
        assert len(sub) == 6
        assert GroupElement(1, (2, 3, 1)) in sub
        assert GroupElement(-1, (1, 2, 3)) not in sub

    def test_closed_subgroup(self):
        sub = set(orientation_preserving_subgroup())
        for g in sub:
            for h in sub:
                assert g.compose(h) in sub

    def test_preserves_orientation(self):
        p = pt(1, 5, 4, 5)
        assert orientation(p) is OrientationSign.POSITIVE
        for g in orientation_preserving_subgroup():
            assert orientation(act(g, p)) is OrientationSign.POSITIVE

    def test_complement_reverses_orientation(self):
        p = pt(1, 5, 4, 5)
        sub = set(orientation_preserving_subgroup())
        for g in all_elements():
            if g not in sub:
                assert orientation(act(g, p)) is OrientationSign.NEGATIVE
