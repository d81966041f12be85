import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from tritorus.angles import DomainError
from tritorus.pathtrace import (
    MAX_CROSSINGS,
    EventKind,
    ZeroVelocity,
    orientation_sign,
    residue,
    trace_path,
    wrap_position,
)
from tritorus.torus import LOCUS_EQUATIONS, REFINE_TOL, LocusId, point_facts

TWO_PI = 2 * math.pi

# each locus a*xi1 + b*xi2 = c (mod 2*pi) as (a, b, c), in radians
LOCUS_FORMS = {locus: (a, b, h * math.pi) for locus, (a, b, h) in LOCUS_EQUATIONS.items()}


def residue_at(locus, position):
    a, b, c = LOCUS_FORMS[locus]
    r = (a * position[0] + b * position[1] - c + math.pi) % TWO_PI - math.pi
    return abs(r)


class TestTracePath:
    def test_zero_velocity_rejected(self):
        with pytest.raises(ZeroVelocity):
            trace_path((0.1, 0.2), (0.0, 0.0), 10, 0.1)

    def test_start_and_end_events(self):
        events = trace_path((0.5, 1.5), (1.0, 0.0), 10, 0.1)
        assert events[0].kind is EventKind.START
        assert events[-1].kind is EventKind.END
        assert events[-1].step_index == 10

    def test_diagonal_velocity_never_flips(self):
        # moving along (1,1) keeps xi2-xi1 constant: no D_C crossing, and a
        # start inside the positive region stays clear of D_A/D_B crossings
        # only at the wrap lines, which do flip nothing about orientation
        start = (2 * math.pi / 3, 2 * math.pi / 3 + 0.1)
        events = trace_path(start, (1.0, 1.0), 100, 0.05)
        flips = [e for e in events if e.kind is EventKind.ORIENTATION_FLIP]
        for e in flips:
            assert e.locus is not LocusId.D_C

    def test_orientation_flip_at_diagonal(self):
        start = (2 * math.pi / 3, 4 * math.pi / 3)
        events = trace_path(start, (1.0, 0.0), 80, 0.05)
        flips = [e for e in events if e.kind is EventKind.ORIENTATION_FLIP]
        assert flips and flips[0].locus is LocusId.D_C
        refined = flips[0].refined_position
        assert residue_at(LocusId.D_C, refined) <= 1e-9
        assert refined[1] == pytest.approx(4 * math.pi / 3, abs=1e-9)

    def test_events_in_step_order(self):
        events = trace_path((0.3, 2.1), (1.3, -0.7), 200, 0.05)
        steps = [e.step_index for e in events]
        assert steps == sorted(steps)

    def test_all_crossings_satisfy_residue_tolerance(self):
        events = trace_path((0.3, 2.1), (1.3, -0.7), 200, 0.05)
        crossings = [e for e in events if e.kind is EventKind.LOCUS_CROSSING]
        assert crossings
        for e in crossings:
            assert residue_at(e.locus, e.refined_position) <= 1e-9

    def test_orientation_changes_across_degenerate_crossing(self):
        velocity = (1.0, 0.0)
        events = trace_path((2 * math.pi / 3, 4 * math.pi / 3), velocity, 80, 0.05)
        flip = next(e for e in events if e.kind is EventKind.ORIENTATION_FLIP)
        eps = 1e-6
        before = (flip.refined_position[0] - eps, flip.refined_position[1])
        after = (flip.refined_position[0] + eps, flip.refined_position[1])
        assert orientation_sign(before) == 1
        assert orientation_sign(after) == -1

    @pytest.mark.parametrize("step_size", [0.05, 0.5, 1.0])
    def test_coarse_steps_find_every_crossing(self, step_size):
        # |a*vx + b*vy| reaches 17 here, so at steps 0.5 and 1.0 a residue turns
        # by more than pi per step; the closed form gives 143 crossings up to t = 10
        events = trace_path((0.3, 0.7), (7.0, 3.0), round(10 / step_size), step_size)
        crossings = [e for e in events if e.kind is EventKind.LOCUS_CROSSING]
        assert len(crossings) == 143
        for e in crossings:
            assert residue_at(e.locus, e.refined_position) <= 1e-9

    @given(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda n: n != (0, 0)),
        st.floats(0.0, TWO_PI),
        st.floats(0.0, TWO_PI),
        st.floats(0.5, 20.0),
        st.integers(1, 400),
    )
    def test_closed_path_crosses_each_locus_its_winding_number(self, n, x0, y0, period, steps):
        # a crossing at t = 0 or t = period is ambiguous in floating point,
        # so the start (which is also the end) stays clear of every locus
        assume(all(residue_at(locus, (x0, y0)) > 1e-6 for locus in LOCUS_FORMS))
        w = TWO_PI / period
        events = trace_path((x0, y0), (w * n[0], w * n[1]), steps, period / steps)
        assert [e.step_index for e in events] == sorted(e.step_index for e in events)
        counts = dict.fromkeys(LOCUS_FORMS, 0)
        for e in events:
            if e.kind is EventKind.LOCUS_CROSSING:
                assert 0 <= e.step_index < steps
                assert residue_at(e.locus, e.refined_position) <= 1e-9
                counts[e.locus] += 1
        assert counts == {
            locus: abs(a * n[0] + b * n[1]) for locus, (a, b, _) in LOCUS_FORMS.items()
        }

    def test_too_many_crossings_rejected(self):
        # 1e6 * 0.5 / (2*pi) is about 80,000 crossings of D_B, over the limit
        assert 1e6 * 0.5 > TWO_PI * MAX_CROSSINGS
        with pytest.raises(DomainError):
            trace_path((0.1, 0.2), (1e6, 0.0), 10, 0.05)
        with pytest.raises(DomainError):
            trace_path((0.0, 0.0), (1e308, 1e308), 2, 0.05)

    def test_unresolvable_crossing_rejected(self):
        # at |xi| near 1e8 a float position is only good to about 1e-8
        with pytest.raises(DomainError):
            trace_path((1e8, 0.5), (1.0, 0.3), 200, 0.05)


class TestOrientationSign:
    @pytest.mark.parametrize(
        "xi",
        [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (TWO_PI, 1.0), (1.0, -1e-12), (-1.0, TWO_PI - 1.0)],
    )
    def test_zero_on_every_degenerate_locus(self, xi):
        assert orientation_sign(xi) == 0

    @pytest.mark.parametrize(
        "xi, sign", [((1.0, 2.0), 1), ((2.0, 1.0), -1), ((5.0, 0.5), -1), ((-0.5, 0.5), -1)]
    )
    def test_sign_off_the_degenerate_loci(self, xi, sign):
        assert orientation_sign(xi) == sign


class TestLocusForms:
    def test_forms_agree_with_exact_membership(self):
        from fractions import Fraction

        from tritorus.angles import PiRational
        from tritorus.torus import TorusPoint, in_locus

        import random

        rng = random.Random(3)
        for _ in range(200):
            x = Fraction(rng.randint(0, 239), 120)
            y = Fraction(rng.randint(0, 239), 120)
            p = TorusPoint(PiRational.from_fraction(x), PiRational.from_fraction(y))
            pos = (p.xi1.radians, p.xi2.radians)
            for locus, (a, b, c) in LOCUS_FORMS.items():
                near = residue_at(locus, pos) <= 1e-9
                assert near == in_locus(p, locus)


def _near_locus_points():
    """Seeded points 0.5 and 1.5 REFINE_TOL off each line locus, either way, and uniform ones."""
    rng = random.Random(15)
    points = [(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)) for _ in range(2000)]
    for a, b, c in LOCUS_FORMS.values():
        for _ in range(100):
            for off in (0.5, -0.5, 1.5, -1.5):
                # solve a*x + b*y = c + off*REFINE_TOL for the coordinate with a unit coefficient
                t = rng.uniform(0.0, TWO_PI)
                s = c + off * REFINE_TOL
                points.append((t, (s - a * t) * b) if abs(b) == 1 else ((s - b * t) * a, t))
    return [wrap_position(xi) for xi in points]


def test_residue_holds_exactly_on_the_printed_loci():
    # path's printed residue and classify's loci use one tolerance and one wrap
    checked = 0
    for xi in _near_locus_points():
        loci = point_facts(*xi, math.pi, REFINE_TOL)[2]
        for locus in LOCUS_EQUATIONS:
            assert (residue(locus, xi) <= REFINE_TOL) == (locus in loci), (xi, locus)
            checked += locus in loci
    assert checked >= 2400
