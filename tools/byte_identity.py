"""Print tritorus CLI output for a fixed corpus, for byte-identity diffs.

    PYTHONPATH=src python tools/byte_identity.py classify [N] > out.txt
    PYTHONPATH=src python tools/byte_identity.py exact [N] > out.txt
    PYTHONPATH=src python tools/byte_identity.py path [N] > out.txt
    PYTHONPATH=src python tools/byte_identity.py plot
    PYTHONPATH=src python tools/byte_identity.py measure > out.txt
    PYTHONPATH=src python tools/byte_identity.py arith > out.txt
    PYTHONPATH=src python tools/byte_identity.py refuse [N] > out.txt
    PYTHONPATH=src python tools/byte_identity.py edge [N] > out.txt

``classify`` runs N (default 12,000) seeded ``classify --format
degrees|radians`` commands in process and prints each command with its exit
code, stdout and stderr.  The angles are kπ/q grid triples on both sheets
(which snap to exact), the same triples jittered by 1.5e-9 to 1e-3 rad,
uniform random triangles, degenerate ones, and invalid triples.  ``exact``
runs ``invert``, ``invert --json`` and ``orbit`` at every torsion point
2π(k1, k2)/n with n <= N (default 24), and exact ``classify`` and ``map`` on
every triple of multiples of π/n with n <= N, on both sheets.  ``path`` runs
N (default 4,000) seeded ``path`` commands from starts given as two p/q coordinates,
three exact angles, decimal coordinates near a p/q point, or three
``--format degrees|radians`` angles drawn as the classify corpus draws them,
with integer or float velocities, step sizes 0.05, 0.3 and 1 and 1 to 40 steps.
Then it runs 200 steps of 0.05 along every closed velocity (2π/10)·(n1, n2)
of the path-sweep benchmark, either way, from a seeded decimal start and from
a torsion point.  ``plot``
prints the md5 of ``plot --samples 300 --seed 3`` with and without
``--anti``.  ``measure`` runs ``measure --samples N --seed S`` for N in
{1, 2, 16383, 16384, 16385, 32771, 400000} (both sides of the scoring chunk
edges) and S in {1, 9, 42, 123, 777}, and prints the md5 of ``plot --samples
4000 --anti``.  ``arith`` prints, for every ``PiRational(p, q)`` on a grid of
denominators up to 60 and numerators from -2q-1 to 2q+1 in steps of
max(1, q // 5) (not all in lowest terms), its ``str``, ``repr``, ``coeff``,
``radians``, ``mod_two_pi()``, negation, ``abs``, ``* 3``,
``* Fraction(-3, 4)`` and ``/ 2``, and for every pair of grid angles their
sum, difference and comparisons.  ``refuse`` runs ``classify``, ``map`` and
``path`` on bad input, in each of the three formats, and prints each command
with its exit code, stdout and stderr.  The angles are nan, ±inf, ±1e400,
±1.7e308 or ±1e308 beside small angles or beside each other (all 1,150 such
triples, or N of them evenly spaced: the only part that N thins), wrong sums,
out-of-range angles, and one, two or four angles (two are ``path``'s
coordinates); ``path`` also starts from two bad coordinates (non-finite,
beyond a float, unparsable).  Last, in degrees and in radians, it runs float
triples at the edge of the 1e-9 tolerance on both sheets: sums that miss ±π by
5e-10 (accepted) or 2e-9 (refused), and an angle 2e-9 beyond 0 or π with the
sum held.  ``edge`` takes N (default 600) seeded points on the ``LOCUS_EQUATIONS``
rows in turn, moves each along a seeded direction and bisects on the row's residue to
the last point within 1e-9 of the locus and the first point past it (``edge_points``).
It writes each such point as a radians triple on both sheets and runs ``classify`` and
``path --velocity 1 0.37 --steps 1 --step-size 1e-6`` on it.  Run it once on each
tree, with PYTHONPATH pointing at that tree's ``src``, and compare the outputs with
``cmp``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

from tritorus import cli
from tritorus.angles import PiRational
from tritorus.torus import LOCUS_EQUATIONS, REFINE_TOL, TWO_PI

EXACT_MAX_ORDER = 24


def _grid_triple(rng: random.Random) -> list[float]:
    q = rng.randint(1, 24)
    k1 = rng.randint(0, q)
    k2 = rng.randint(0, q - k1)
    angles = [k1 * math.pi / q, k2 * math.pi / q, (q - k1 - k2) * math.pi / q]
    rng.shuffle(angles)
    return angles


def _triple(rng: random.Random) -> list[float]:
    kind = rng.randrange(5)
    if kind == 0:  # snaps to exact
        angles = _grid_triple(rng)
    elif kind == 1:  # near a grid triple, moved by (d, -d, 0) or (d, d, -2d) in some order
        angles = _grid_triple(rng)
        d = rng.choice((-1, 1)) * 10 ** rng.uniform(math.log10(1.5e-9), -3)
        moves = rng.choice(((d, -d, 0.0), (d, d, -2 * d)))
        angles = [a + m for a, m in zip(angles, rng.sample(moves, 3))]
    elif kind == 2:  # a random triangle
        b, c = sorted(rng.uniform(0, math.pi) for _ in range(2))
        angles = [b, c - b, math.pi - c]
    elif kind == 3:  # degenerate: one zero angle
        b = rng.uniform(0, math.pi)
        angles = [0.0, b, math.pi - b]
        rng.shuffle(angles)
    else:  # anything, mostly invalid
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
    if rng.random() < 0.5:
        angles = [-a for a in angles]
    return angles


def _float_triple(rng: random.Random) -> tuple[str, list[str]]:
    """A ``--format`` mode and a ``_triple`` written in it."""
    mode = rng.choice(("degrees", "radians"))
    angles = _triple(rng)
    if mode == "degrees":
        angles = [math.degrees(a) for a in angles]
    return mode, [repr(a) for a in angles]


def classify_corpus(n: int, seed: int = 6) -> None:
    rng = random.Random(seed)
    for _ in range(n):
        mode, angles = _float_triple(rng)
        _run(["classify", "--format", mode, *(["--json"] if rng.random() < 0.1 else []),
              "--", *angles])


def exact_corpus(max_order: int = EXACT_MAX_ORDER) -> None:
    for n in range(1, max_order + 1):
        for k1 in range(n):
            for k2 in range(n):
                xi = [str(Fraction(2 * k, n)) for k in (k1, k2)]
                for command in (["invert"], ["invert", "--json"], ["orbit"]):
                    _run([*command, "--", *xi])
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for sign in (1, -1):
                    triple = [str(Fraction(sign * k, n)) for k in (i, j, n - i - j)]
                    for command in ("classify", "map"):
                        _run([command, "--", *triple])


def _path_start(rng: random.Random) -> list[str]:
    """The start of a path command: its options, "--" and the start itself."""
    n = rng.choice((1, 2, 3, 4, 6, 8, 12, 24, rng.randint(1, 60)))
    kind = rng.randrange(4)
    if kind == 0:  # a torsion point as two p/q coordinates
        return ["--", *(str(Fraction(2 * rng.randrange(n), n)) for _ in range(2))]
    if kind == 1:  # three exact angles, on either sheet, a few of them invalid
        k1 = rng.randint(0, n)
        k2 = rng.randint(0, n - k1)
        ks = [k1, k2, n - k1 - k2 + (rng.random() < 0.05)]
        sign = rng.choice((1, -1))
        return ["--", *(str(Fraction(sign * k, n)) for k in rng.sample(ks, 3))]
    if kind == 2:  # decimal coordinates within 1e-12 to 1e-3 (or exactly 0) of a torsion point
        coords = []
        for _ in range(2):
            d = rng.choice((0.0, rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -3)))
            coords.append(repr(2 * rng.randrange(n) / n + d))
        return ["--", *coords]
    mode, angles = _float_triple(rng)  # three float angles, as the classify corpus draws them
    return ["--format", mode, "--", *angles]


def path_corpus(n: int, seed: int = 8) -> None:
    rng = random.Random(seed)
    for _ in range(n):
        if rng.random() < 0.5:
            velocity = [str(rng.randint(-3, 3)) for _ in range(2)]
        else:
            velocity = [repr(rng.uniform(-3, 3)) for _ in range(2)]
        step_size = rng.choice(("0.05", "0.3", "1"))
        _run(["path", "--velocity", *velocity, "--steps", str(rng.randint(1, 40)),
              "--step-size", step_size, *_path_start(rng)])
    _long_path_corpus(rng)


def _closed_directions() -> list[tuple[int, int]]:
    """Integer directions (n1, n2) with 1 <= n1 <= 12 and |n2| <= 12, parallel to no locus,
    whose crossings over one period number 100 to 130 in all."""
    forms = [(a, b) for a, b, _ in LOCUS_EQUATIONS.values()]
    return [(n1, n2) for n1 in range(1, 13) for n2 in range(-12, 13)
            if all(a * n1 + b * n2 for a, b in forms)
            and 100 <= sum(abs(a * n1 + b * n2) for a, b in forms) <= 130]


def _long_path_corpus(rng: random.Random) -> None:
    """200 steps of 0.05 on closed paths: velocity (2*pi/10)*(n1, n2) for every closed
    direction, either way, from a seeded start and from a torsion point."""
    w = 2 * math.pi / 10
    for n1, n2 in _closed_directions():
        s = rng.choice((1, -1)) * w
        velocity = [repr(s * n1), repr(s * n2)]
        n = rng.choice((2, 3, 4, 6, 8, 12, 24))
        for start in ([repr(rng.uniform(0, 2)) for _ in range(2)],
                      [str(Fraction(2 * rng.randrange(n), n)) for _ in range(2)]):
            _run(["path", "--velocity", *velocity, "--steps", "200", "--step-size", "0.05",
                  "--", *start])


def _run(argv: list[str]) -> None:
    """Print the command, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(" ".join(argv), f"exit={code}")
    print(out.getvalue() + err.getvalue(), end="")


def _plot_md5(args: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "domain.svg")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["plot", "--out", path, *args])
        with open(path, "rb") as fh:
            print(hashlib.md5(fh.read()).hexdigest(), "plot", *args)


def plot_md5() -> None:
    for extra in ([], ["--anti"]):
        _plot_md5(["--samples", "300", "--seed", "3", *extra])


def measure_corpus() -> None:
    for n in (1, 2, 16383, 16384, 16385, 32771, 400000):
        for seed in (1, 9, 42, 123, 777):
            _run(["measure", "--samples", str(n), "--seed", str(seed)])
    _plot_md5(["--samples", "4000", "--anti"])


ARITH_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 24, 30, 59, 60)


def arith_corpus() -> None:
    grid = [PiRational(p, q) for q in ARITH_DENOMINATORS
            for p in range(-2 * q - 1, 2 * q + 2, max(1, q // 5))]
    for x in grid:
        print(repr(x), x, x.coeff, repr(x.radians), repr(x.mod_two_pi()), repr(-x), repr(abs(x)),
              repr(x * 3), repr(x * Fraction(-3, 4)), repr(x / 2))
    for x in grid:
        for y in grid:
            print(repr(x), repr(y), repr(x + y), repr(x - y),
                  x < y, x <= y, x > y, x >= y, x == y)


_HUGE = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1.7e308", "-1.7e308", "1e308",
         "-1e308")
_SMALL = ("0", "1", "-1", "1/2", "0.5")
_BAD_TRIPLES = (
    ["1/3", "1/3", "1/2"], ["1", "1", "1"], ["60", "60", "61"], ["-60", "-60", "-59"],
    ["3/2", "-1/4", "-1/4"], ["-0.5", "1.2", "2.44159265358979"], ["200", "-10", "-10"],
    ["1/2", "1/2", "-1/2"], ["x", "1", "1"], ["1/0", "0", "1"],
)
_BAD_COORDINATES = (
    ["1e400", "0"], ["0", "-1e400"], ["1e308", "0"], ["0", "-1.7e308"], ["nan", "0"],
    ["0", "inf"], ["1/0", "0"], ["0", "x"], ["1.7e308", "1.7e308"],
)


def _refused_triples(n: int | None = None) -> list[list[str]]:
    """Three angles, each a huge or non-finite value beside small angles or beside another
    huge one (all, or n of them evenly spaced), then the fixed bad triples, then one, two
    and four angles."""
    huge = []
    for h in _HUGE:
        for s in _SMALL:
            for i in range(3):
                triple = [s, s, s]
                triple[i] = h
                huge.append(triple)
        for g in _HUGE:
            for s in _SMALL:
                huge.append([h, g, s])
                huge.append([s, h, g])
    if n is not None:
        k = min(n, len(huge))
        huge = [huge[i * len(huge) // k] for i in range(k)]
    return huge + [list(t) for t in _BAD_TRIPLES] + [["1/2"], ["1/2", "1/2"], ["1/3"] * 4]


def _edge_triples() -> list[list[float]]:
    """Float triples in radians at the edge of the 1e-9 tolerance, on both sheets: 1.1 and
    1.2 beside a third angle whose sum misses pi by 5e-10 (accepted) or 2e-9 (refused), and
    triples with the sum held whose angle at A or B lies 2e-9 beyond 0 or pi (a value within
    1e-9 of 0 or pi snaps to it, so only a larger miss reaches the float rule)."""
    d = 2e-9
    out = [[1.1, 1.2, math.pi - 2.3 + e] for e in (5e-10, -5e-10, d, -d)]
    out += [[-d, 1.2, math.pi - 1.2 + d], [1.2, -d, math.pi - 1.2 + d],
            [math.pi + d, 1.1, -1.1 - d], [1.1, math.pi + d, -1.1 - d]]
    return out + [[-a for a in t] for t in out]


def _locus_residue(row: tuple[int, int, int], x: float, y: float) -> float:
    """|a*x + b*y - h*pi| mod 2*pi, for a ``LOCUS_EQUATIONS`` row (a, b, h)."""
    a, b, h = row
    return abs((a * x + b * y - h * math.pi + math.pi) % TWO_PI - math.pi)


def edge_points(n: int, seed: int = 24) -> list[tuple]:
    """n seeded (locus, last point on, first point off), cycling through ``LOCUS_EQUATIONS``:
    a point on the row moved along a direction, bisected on the row's residue against
    REFINE_TOL until the two points are one step of the bisection apart."""
    rng = random.Random(seed)
    rows = list(LOCUS_EQUATIONS.items())
    out = []
    for i in range(n):
        locus, row = rows[i % len(rows)]
        a, b, h = row
        s = rng.uniform(0.0, TWO_PI)
        x0, y0 = (s, (h * math.pi - a * s) / b) if b else (h * math.pi / a, s)
        dx = dy = 0.0
        while abs(a * dx + b * dy) < 0.1:  # the residue grows by at least 1e-7 at t = 1e-6
            phi = rng.uniform(0.0, TWO_PI)
            dx, dy = math.cos(phi), math.sin(phi)

        def at(t):
            return ((x0 + t * dx) % TWO_PI, (y0 + t * dy) % TWO_PI)

        on, off = 0.0, 1e-6
        while on < (mid := (on + off) / 2) < off:
            if _locus_residue(row, *at(mid)) <= REFINE_TOL:
                on = mid
            else:
                off = mid
        out.append((locus, at(on), at(off)))
    return out


def edge_corpus(n: int, seed: int = 24) -> None:
    for _, *points in edge_points(n, seed):
        for x, y in points:
            # the doubled |angles| at (A, B, C), halved and signed for each sheet
            doubled = (TWO_PI - y, x, y - x) if y > x else (y, TWO_PI - x, x - y)
            for sign in (1, -1):
                angles = [repr(sign * d / 2) for d in doubled]
                _run(["classify", "--format", "radians", "--", *angles])
                _run(["path", "--velocity", "1", "0.37", "--steps", "1", "--step-size", "1e-6",
                      "--format", "radians", "--", *angles])


def _run_triangle_commands(mode: str, angles: list[str]) -> None:
    for command in ("classify", "map"):
        _run([command, "--format", mode, "--", *angles])
    _run(["path", "--velocity", "1", "0", "--steps", "2", "--format", mode, "--", *angles])


def refuse_corpus(n: int | None = None) -> None:
    for mode in ("pi-rational", "degrees", "radians"):
        for angles in _refused_triples(n):
            _run_triangle_commands(mode, angles)
        for coordinates in _BAD_COORDINATES:
            _run(["path", "--velocity", "1", "0", "--steps", "2", "--format", mode, "--",
                  *coordinates])
    for mode, to_mode in (("degrees", math.degrees), ("radians", float)):
        for triple in _edge_triples():
            _run_triangle_commands(mode, [repr(to_mode(a)) for a in triple])


if __name__ == "__main__":
    if sys.argv[1:2] == ["classify"]:
        classify_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else 12000)
    elif sys.argv[1:2] == ["exact"]:
        exact_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else EXACT_MAX_ORDER)
    elif sys.argv[1:2] == ["path"]:
        path_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else 4000)
    elif sys.argv[1:2] == ["plot"]:
        plot_md5()
    elif sys.argv[1:2] == ["measure"]:
        measure_corpus()
    elif sys.argv[1:2] == ["arith"]:
        arith_corpus()
    elif sys.argv[1:2] == ["refuse"]:
        refuse_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else None)
    elif sys.argv[1:2] == ["edge"]:
        edge_corpus(int(sys.argv[2]) if len(sys.argv) > 2 else 600)
    else:
        raise SystemExit(__doc__)
