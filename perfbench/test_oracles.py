"""Tests of the benchmark's oracles on hand-worked cases (no tritorus import)."""

import math
from fractions import Fraction

import oracles

# `tritorus classify 1/2 1/4 1/4` worked by hand: xi = (2*beta, -2*alpha) =
# (pi/2, pi); beta = gamma puts the apex at A, alpha = pi/2 is right, and
# (pi/2, pi) lies on I_A (2*xi1 - xi2 = 0), R_A (xi2 = pi) and IPerp_B
# (2*xi1 + xi2 = 2*pi).  Swapping B and C fixes the point: multiplicity 2.
RIGHT_ISOSCELES = """\
mode: exact
sheet: plus
alpha: 1/2·π
beta: 1/4·π
gamma: 1/4·π
torus.xi1: 1/2·π
torus.xi2: π
orientation: positive
degenerate: false
equilateral: false
isosceles_vertices: A
right_vertices: A
scalene: false
obtuse: false
acute: false
loci: I_A,R_A,IPerp_B
multiplicity: 2
canonical_rep: (1/2·π, π)
"""


def test_right_isosceles_report():
    rep = oracles.parse_report(RIGHT_ISOSCELES)
    assert oracles.check_classify_report(rep, Fraction(1, 2), Fraction(1, 4), exact=True)
    for key, wrong in [("loci", "I_A,R_A"), ("scalene", "true"), ("multiplicity", "1"),
                       ("right_vertices", "-"), ("canonical_rep", "(π, 1/2·π)")]:
        assert not oracles.check_classify_report({**rep, key: wrong}, Fraction(1, 2),
                                                 Fraction(1, 4), exact=True), key


def test_float_report_of_a_degenerate_scalene_triangle():
    beta = Fraction(211, 601)
    rep = {
        "mode": "float", "sheet": "plus", "alpha": "0",
        "beta": format(float(beta) * math.pi, ".12g"),
        "gamma": format(float(1 - beta) * math.pi, ".12g"),
        "torus.xi1": format(float(2 * beta) * math.pi, ".12g"), "torus.xi2": "0",
        "orientation": "zero", "degenerate": "true", "equilateral": "false",
        "isosceles_vertices": "-", "right_vertices": "-", "scalene": "true",
        "obtuse": "false", "acute": "false", "loci": "D_A", "multiplicity": "2",
        "canonical_rep": f"(0, {format(float(2 * beta) * math.pi, '.12g')})",
    }
    assert oracles.check_classify_report(rep, Fraction(0), beta, exact=False)
    assert not oracles.check_classify_report({**rep, "scalene": "false"}, Fraction(0), beta,
                                             exact=False)


def test_closed_form_gives_143_crossings_at_every_step_size():
    for step_size in (0.05, 0.5, 1.0):
        steps = round(10 / step_size)
        assert oracles.path_crossing_count((0.3, 0.7), (7.0, 3.0), steps * step_size) == 143


def test_check_path_wants_every_crossing_in_its_step():
    start, velocity, steps, h = (0.3, 0.7), (7.0, 3.0), 200, 0.05
    events = [("start", 0, None, start)]
    for t, name in sorted((t, n) for n, ts in oracles.crossing_times(start, velocity, 10).items()
                          for t in ts):
        pos = ((start[0] + t * velocity[0]) % oracles.TWO_PI,
               (start[1] + t * velocity[1]) % oracles.TWO_PI)
        events.append(("locus_crossing", math.floor(t / h), name, pos))
        if name in oracles.DEGENERATE_LOCI:
            events.append(("orientation_flip", math.floor(t / h), name, pos))
    events.append(("end", steps, None, start))
    assert oracles.check_path(events, start, velocity, steps, h)
    missing = [e for e in events if e[2] != "I_C"]
    assert not oracles.check_path(missing, start, velocity, steps, h)
    no_flip = [e for e in events if e[0] != "orientation_flip"]
    assert not oracles.check_path(no_flip, start, velocity, steps, h)
    shifted = [(k, s + 1, n, p) if k == "locus_crossing" and n == "R_A" else (k, s, n, p)
               for k, s, n, p in events]
    assert not oracles.check_path(shifted, start, velocity, steps, h)


def test_torsion_grid_counts():
    n = 48
    points = [(k1, k2) for k1 in range(n) for k2 in range(n)]
    info = {p: oracles.classify(*p, n) for p in points}
    assert sum(1 for c in info.values() if c["degenerate"]) == 3 * n - 2
    assert len({c["canonical_rep"] for c in info.values()}) == oracles.burnside_orbits(n) == 217
    assert all(c["multiplicity"] * len(oracles.orbit(*p, n)) == 12 for p, c in info.items())
    assert info[(0, 0)]["multiplicity"] == 12 and info[(0, 0)]["equilateral"]
    assert info[(16, 32)]["equilateral"] and info[(16, 32)]["acute"]
    assert info[(24, 0)]["right_vertices"] == {"B", "C"}
    assert oracles.element_order(12, 36, n) == 4 and oracles.element_order(0, 0, n) == 1


def test_measures_from_locus_lengths():
    m = oracles.analytic_measures()
    assert math.isclose(m["total"], math.sqrt(3) * math.pi**2)
    assert math.isclose(m["isosceles"], 6 * math.sqrt(6) * math.pi)
    assert math.isclose(m["right"], 3 * math.sqrt(2) * math.pi)
    assert math.isclose(m["degenerate"], 6 * math.sqrt(2) * math.pi)
    assert m["obtuse"] / m["acute"] == 3
