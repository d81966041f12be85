import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from tritorus.angles import DomainError
from tritorus.pathtrace import (
    MAX_CROSSINGS,
    EventKind,
    PathEvent,
    ZeroVelocity,
    orientation_sign,
    residue,
    trace_path,
    wrap_position,
)
from tritorus.torus import LOCUS_EQUATIONS, REFINE_TOL, LocusId, point_facts, wrap

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

    @pytest.mark.parametrize("steps, step_size", [(0, 0.1), (-1, 0.1), (10, 0.0), (10, -0.1)])
    def test_bad_steps_rejected(self, steps, step_size):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            trace_path((0.1, 0.2), (1.0, 0.0), steps, step_size)

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


def _reference_trace(start, velocity, steps, step_size):
    """trace_path's closed form, written per crossing with the public helpers: a ``pos``
    closure, ``wrap_position``, ``residue``, a sort on ``e[:2]`` and runs of crossings in one
    step, each within REFINE_TOL of position of the one before, sorted by name.  A start
    on a locus, by ``point_facts``, does not cross it at once."""
    if velocity == (0.0, 0.0):
        raise ZeroVelocity("velocity must be nonzero")
    on = point_facts(*wrap_position(start), math.pi, REFINE_TOL)[2]

    def pos(t):
        return (start[0] + t * velocity[0], start[1] + t * velocity[1])

    t_end = steps * step_size
    crossings = []
    for locus, (a, b, h) in LOCUS_EQUATIONS.items():
        slope = a * velocity[0] + b * velocity[1]
        if slope == 0.0:
            continue
        if not abs(slope) * t_end <= TWO_PI * MAX_CROSSINGS:
            raise DomainError(f"path crosses {locus.value} more than {MAX_CROSSINGS} times")
        r0 = wrap(a * start[0] + b * start[1], h * math.pi, math.pi)
        r1 = r0 + slope * t_end
        for k in range(math.floor(min(r0, r1) / TWO_PI), math.ceil(max(r0, r1) / TWO_PI) + 1):
            t = (TWO_PI * k - r0) / slope
            if 0.0 < t <= t_end and (k or locus not in on):
                i = math.ceil(t / step_size) - 1
                if i * step_size >= t:
                    i -= 1
                elif (i + 1) * step_size < t:
                    i += 1
                crossings.append((i, t, locus.value, locus))
    tie = REFINE_TOL / math.hypot(*velocity)
    runs = []
    for e in sorted(crossings, key=lambda e: e[:2]):
        if runs and e[0] == runs[-1][-1][0] and e[1] - runs[-1][-1][1] <= tie:
            runs[-1].append(e)
        else:
            runs.append([e])
    crossings = [e for run in runs for e in sorted(run, key=lambda e: e[2])]

    events = [PathEvent(0, EventKind.START, None, wrap_position(start))]
    for i, t, _, locus in crossings:
        refined = wrap_position(pos(t))
        if residue(locus, refined) > REFINE_TOL:
            raise DomainError(f"crossing of {locus.value} at t={t!r} not resolved to {REFINE_TOL}")
        events.append(PathEvent(i, EventKind.LOCUS_CROSSING, locus, refined))
        if locus in (LocusId.D_A, LocusId.D_B, LocusId.D_C):
            events.append(PathEvent(i, EventKind.ORIENTATION_FLIP, locus, refined))
    events.append(PathEvent(steps, EventKind.END, None, wrap_position(pos(t_end))))
    return events


def _outcome(trace, *args):
    """The events of a trace, or the type and message of the error it raised."""
    try:
        return trace(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_trace_path_equals_the_per_crossing_reference():
    # starts on p/q*pi points and where loci meet, so crossings meet at one point and are
    # ordered by name; integer and float velocities; all three step sizes; 1 to 2,000 steps,
    # up to t = 100
    rng = random.Random(18)
    meets = [(2 * math.pi / 3, 4 * math.pi / 3), (math.pi, math.pi), (0.0, 0.0),
             (4 * math.pi / 3, 2 * math.pi / 3), (math.pi, 0.0), (math.pi / 2, 3 * math.pi / 2)]
    ties = 0
    for n in range(3000):
        kind = n % 3
        if kind == 0:
            start = rng.choice(meets)
        elif kind == 1:
            q = rng.choice((1, 2, 3, 4, 6, 8, 12, rng.randint(1, 60)))
            start = tuple(rng.randrange(2 * q) * math.pi / q for _ in range(2))
        else:
            start = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        if rng.random() < 0.5:
            velocity = (float(rng.randint(-3, 3)), float(rng.randint(-3, 3)))
        else:
            velocity = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if velocity == (0.0, 0.0):
            velocity = (1.0, 2.0)
        step_size = rng.choice((0.05, 0.3, 1.0))
        steps = round(10 ** rng.uniform(0.0, math.log10(100 / step_size)))  # t <= 100
        args = (start, velocity, steps, step_size)
        got = trace_path(*args)
        assert got == _reference_trace(*args), args
        # adjacent crossings at one point are in name order
        crossings = [e for e in got if e.kind is EventKind.LOCUS_CROSSING]
        for e, f in zip(crossings, crossings[1:]):
            apart = math.hypot(*(wrap(u, v, math.pi)
                                 for u, v in zip(e.refined_position, f.refined_position)))
            if e.step_index == f.step_index and apart <= REFINE_TOL / 2:
                assert e.locus.value < f.locus.value, args
                ties += 1
    assert ties >= 1000

    # both refusals: too many crossings, and a crossing beyond float precision near 1e8
    for args in (((0.1, 0.2), (1e6, 0.0), 10, 0.05), ((0.0, 0.0), (1e308, 1e308), 2, 0.05),
                 ((1e8, 0.5), (1.0, 0.3), 200, 0.05), ((1e8 + 1.0, 2.0), (3.0, -2.0), 50, 0.3)):
        got = _outcome(trace_path, *args)
        assert isinstance(got, tuple) and got[0] is DomainError, args
        assert got == _outcome(_reference_trace, *args), args


BYTE_IDENTITY = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"


def test_no_crossing_at_once_of_a_locus_the_start_is_on():
    # at the last point on and the first point off each locus (``edge_points`` of
    # tools/byte_identity.py), a step of 1e-6 either way crosses no locus that point_facts,
    # and so classify, puts the start on
    spec = importlib.util.spec_from_file_location("byte_identity", BYTE_IDENTITY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rng = random.Random(24)
    wrong, checked = [], 0
    for _, *starts in tool.edge_points(480):
        for start in starts:
            on = set(point_facts(*start, math.pi, REFINE_TOL)[2])
            for _ in range(4):
                phi = rng.uniform(0.0, TWO_PI)
                velocity = (math.cos(phi), math.sin(phi))
                events = trace_path(start, velocity, 1, 1e-6)
                wrong += [(start, velocity, e.locus) for e in events
                          if e.kind is EventKind.LOCUS_CROSSING and e.locus in on]
                checked += bool(on)
    assert checked > 1000
    assert wrong == []
