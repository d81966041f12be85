"""Correctness oracles for the benchmark, written apart from tritorus.

Nothing here imports tritorus.  The oracles work from the paper's
definitions: a torus point is (xi1, xi2) = (2*beta, -2*alpha) mod 2*pi, so
the doubled interior angles of its triangle are

    2*alpha = -xi2,   2*beta = xi1,   2*gamma = xi2 - xi1   (mod 2*pi),

every distinguished locus is a line a*xi1 + b*xi2 = c (mod 2*pi), and the
order-12 relabeling group permutes the three doubled angles and may negate
all of them.  Exact points are integer pairs (k1, k2) standing for
(2*pi*k1/n, 2*pi*k2/n); n is even, so the loci with c = pi are integral.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import permutations

TWO_PI = 2.0 * math.pi

# name -> (a, b, c): the locus a*xi1 + b*xi2 = c*pi (mod 2*pi).
LOCI = {
    "D_A": (0, 1, 0),  # alpha = 0
    "D_B": (1, 0, 0),  # beta = 0
    "D_C": (1, -1, 0),  # gamma = 0
    "I_A": (2, -1, 0),  # beta = gamma (mod pi): apex A
    "I_B": (1, -2, 0),  # alpha = gamma
    "I_C": (1, 1, 0),  # alpha = beta
    "R_A": (0, 1, 1),  # alpha = pi/2 (mod pi)
    "R_B": (1, 0, 1),
    "R_C": (-1, 1, 1),
    "IPerp_A": (1, 2, 0),  # through 0, normal to the direction (1, 2) of I_A
    "IPerp_B": (2, 1, 0),  # through 0, normal to the direction (2, 1) of I_B
    "AntiRight": (1, 1, 1),  # the coset of I_C through (0, pi)
}
DEGENERATE_LOCI = ("D_A", "D_B", "D_C")
VERTICES = "ABC"

# The twelve group elements: a permutation of the doubled angles and a sign.
GROUP = tuple((perm, sign) for perm in permutations(range(3)) for sign in (1, -1))


# ---------------------------------------------------------------------------
# exact points (k1, k2) at level n


def doubled_angles(k1: int, k2: int, n: int) -> tuple[int, int, int]:
    return ((-k2) % n, k1 % n, (k2 - k1) % n)


def act(g, k1: int, k2: int, n: int) -> tuple[int, int]:
    perm, sign = g
    d = doubled_angles(k1, k2, n)
    a, b = d[perm[0]], d[perm[1]]
    return ((sign * b) % n, (-sign * a) % n)


def orbit(k1: int, k2: int, n: int) -> set[tuple[int, int]]:
    return {act(g, k1, k2, n) for g in GROUP}


def loci(k1: int, k2: int, n: int) -> set[str]:
    half = n // 2
    names = {name for name, (a, b, c) in LOCI.items() if (a * k1 + b * k2 - c * half) % n == 0}
    if {"I_A", "I_B", "I_C"} <= names:  # all three angles equal mod pi
        names.add("Equilateral3")
    return names


def triangle(k1: int, k2: int, n: int) -> tuple[int, int, int]:
    """Interior angles of the preimage triangle in units of pi/n (plus sheet first)."""
    k1, k2 = k1 % n, k2 % n
    if k1 == k2 == 0:
        return (n, 0, 0)
    if k2 == 0:
        return (0, k1, n - k1)
    if k1 == 0:
        return (n - k2, 0, k2)
    if k2 >= k1:
        return (n - k2, k1, k2 - k1)
    return (-k2, k1 - n, k2 - k1)


def orientation(k1: int, k2: int, n: int) -> str:
    k1, k2 = k1 % n, k2 % n
    if k1 == 0 or k2 == 0 or k1 == k2:
        return "zero"
    return "positive" if k2 > k1 else "negative"


def flags(k1: int, k2: int, n: int) -> dict:
    """Type flags read off the subgroups and cosets the point lies on.

    Apex X is isosceles exactly on I_X, vertex X is right exactly on R_X, and
    the equilateral classes are the points on all three I loci.  Obtuse and
    acute compare the largest |angle| with pi/2 and exclude degenerates.
    """
    on = loci(k1, k2, n)
    degenerate = orientation(k1, k2, n) == "zero"
    equilateral = "Equilateral3" in on
    iso = {v for v in VERTICES if f"I_{v}" in on}
    biggest = max(abs(a) for a in triangle(k1, k2, n))
    return {
        "degenerate": degenerate,
        "equilateral": equilateral,
        "isosceles_vertices": set(VERTICES) if equilateral else iso,
        "right_vertices": {v for v in VERTICES if f"R_{v}" in on},
        "scalene": not iso,
        "obtuse": not degenerate and 2 * biggest > n,
        "acute": not degenerate and 2 * biggest < n,
    }


def element_order(k1: int, k2: int, n: int) -> int:
    return n // math.gcd(math.gcd(k1, k2), n)


def classify(k1: int, k2: int, n: int) -> dict:
    orb = orbit(k1, k2, n)
    return {
        "orientation": orientation(k1, k2, n),
        "loci": loci(k1, k2, n),
        "multiplicity": 12 // len(orb),
        "canonical_rep": min(orb),
        "element_order": element_order(k1, k2, n),
        **flags(k1, k2, n),
    }


def burnside_orbits(n: int) -> int:
    """Number of orbits on the n-torsion grid, by counting fixed points."""
    fixed = sum(
        1 for g in GROUP for k1 in range(n) for k2 in range(n) if act(g, k1, k2, n) == (k1, k2)
    )
    assert fixed % len(GROUP) == 0
    return fixed // len(GROUP)


def level_of(*coeffs: Fraction) -> int:
    """An even n at which every coefficient of pi is a multiple of 2/n."""
    return 2 * math.lcm(*(Fraction(c).denominator for c in coeffs))


def point_of_angles(alpha: Fraction, beta: Fraction, n: int) -> tuple[int, int]:
    """(k1, k2) of the triangle with angles alpha*pi, beta*pi at level n."""
    return (int(beta * n) % n, int(-alpha * n) % n)


# ---------------------------------------------------------------------------
# measures


def metric_length(d1: float, d2: float) -> float:
    """Length of the vector (d1, d2) under ds^2 = (dxi1^2 + dxi2^2 - dxi1*dxi2)/2."""
    return math.sqrt((d1 * d1 + d2 * d2 - d1 * d2) / 2.0)


def locus_length(name: str) -> float:
    a, b, _ = LOCI[name]
    return TWO_PI * metric_length(-b, a)  # (a, b) primitive: closes after 2*pi


def generic_multiplicity(name: str) -> int:
    """Multiplicity of a generic point of a locus, from the orbit oracle."""
    n = 2 * 1009
    a, b, c = LOCI[name]
    # A point of the locus, then 101 steps along its direction (-b, a).
    k1, k2 = (0, 0) if c == 0 else ((0, n // 2) if b % 2 else (n // 2, 0))
    k1, k2 = (k1 - 101 * b) % n, (k2 + 101 * a) % n
    assert (a * k1 + b * k2 - c * n // 2) % n == 0
    return 12 // len(orbit(k1, k2, n))


def analytic_measures() -> dict:
    """The closed-form sizes, each a generic multiplicity times a geometric size."""
    # Area element sqrt(det g) of the metric matrix [[1/2, -1/4], [-1/4, 1/2]].
    total = TWO_PI**2 * math.sqrt(0.5 * 0.5 - 0.25 * 0.25)
    fam = {
        f: generic_multiplicity(f"{f}_A") * sum(locus_length(f"{f}_{v}") for v in VERTICES)
        for f in ("I", "R", "D")
    }
    # Along I_A, beta runs over (0, pi/2) and the apex is obtuse for beta < pi/4:
    # each isosceles curve is half obtuse and half acute.
    return {
        "total": total,
        "obtuse": 0.75 * total,
        "acute": 0.25 * total,
        "isosceles": fam["I"],
        "right": fam["R"],
        "degenerate": fam["D"],
        "obtuse_isosceles": fam["I"] / 2,
        "acute_isosceles": fam["I"] / 2,
    }


RATIOS = {
    "O:A": ("obtuse", "acute"),
    "I:AI": ("isosceles", "acute_isosceles"),
    "I:OI": ("isosceles", "obtuse_isosceles"),
    "I:R": ("isosceles", "right"),
    "D:R": ("degenerate", "right"),
}

#: Uniform-measure shares of the Monte Carlo regions.
MC_SHARES = {
    "obtuse": 0.75,
    "acute": 0.25,
    "positive_orientation": 0.5,
    "negative_orientation": 0.5,
}


def within_se(share: float, p: float, n: int, k: float = 5.0) -> bool:
    return abs(share - p) <= k * math.sqrt(p * (1.0 - p) / n)


def close(x: float, y: float, rel: float = 1e-10) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def check_measure_report(rep: dict, samples: int = 0, seed: int = 0) -> bool:
    """A `measure` report: closed forms, their identities and the MC shares."""
    want = analytic_measures()
    ok = all(close(float(rep[f"analytic.{k}"]), v) for k, v in want.items())
    got = {k: float(rep[f"analytic.{k}"]) for k in want}
    ok &= close(got["obtuse"] + got["acute"], got["total"])
    ok &= close(got["obtuse"] / got["acute"], 3.0)
    ok &= all(close(float(rep[f"ratio.{r}"]), got[p] / got[q]) for r, (p, q) in RATIOS.items())
    if samples <= 0:
        return ok and not any(k.startswith("mc.") for k in rep)
    ok &= rep["mc.samples"] == str(samples) and rep["mc.seed"] == str(seed)
    return ok and all(
        within_se(float(rep[f"mc.{r}.probability"]), p, samples) for r, p in MC_SHARES.items()
    )


def check_svg(path: str, samples: int) -> bool:
    """Well-formed SVG with the samples, 12 torsion circles and 12 locus paths."""
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError):
        return False
    ns = "{http://www.w3.org/2000/svg}"
    circles = [e.get("class", "") for e in root.iter(f"{ns}circle")]
    sample = [c for c in circles if c.startswith("sample ")]
    obtuse = sum(1 for c in sample if c == "sample obtuse")
    paths = [e for e in root.iter(f"{ns}path") if e.get("class") == "locus"]
    return (
        len(sample) == samples
        and circles.count("torsion") == 12
        and len(circles) == samples + 12
        and len(paths) == 12
        and within_se(obtuse / samples, 0.75, samples)
    )


# ---------------------------------------------------------------------------
# straight paths


def wrap_pm_pi(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


def residue(name: str, pos: tuple[float, float]) -> float:
    a, b, c = LOCI[name]
    return abs(wrap_pm_pi(a * pos[0] + b * pos[1] - c * math.pi))


def crossing_times(start, velocity, t_end: float, tol: float = 1e-9) -> dict[str, list]:
    """Closed-form crossings t = (c*pi + 2*pi*k - a*x0 - b*y0)/(a*vx + b*vy).

    Returns, per locus, the sorted times in (-tol, t_end + tol]; a time
    within tol of either end may or may not be reported by a tracer.
    """
    out = {}
    for name, (a, b, c) in LOCI.items():
        slope = a * velocity[0] + b * velocity[1]
        out[name] = []
        if slope == 0.0:
            continue
        r0 = a * start[0] + b * start[1] - c * math.pi
        lo, hi = sorted((r0, r0 + slope * t_end))
        for k in range(math.floor(lo / TWO_PI) - 1, math.ceil(hi / TWO_PI) + 2):
            t = (TWO_PI * k - r0) / slope
            if -tol < t <= t_end + tol:
                out[name].append(t)
        out[name].sort()
    return out


# The tracer accepts a crossing when its own residue is at most 1e-9; the
# oracle re-evaluates it at the wrapped position, which rounds differently by
# up to about 1e-13 for these magnitudes.
RESIDUE_TOL = 1e-9 + 1e-12


def check_path(events, start, velocity, steps: int, step_size: float,
               res_tol: float = RESIDUE_TOL, tol: float = 1e-9) -> bool:
    """Check a traced path against the closed form.

    ``events`` is a list of (kind, step, locus, position) with kind one of
    start / locus_crossing / orientation_flip / end.  Each locus must be
    crossed once per closed-form time, in the step floor(t/step_size), at a
    position whose residue is at most res_tol, and every D_A/D_B/D_C
    crossing must be followed by its orientation flip.
    """
    if not events or events[0][0] != "start" or events[-1][:2] != ("end", steps):
        return False
    t_end = steps * step_size
    expected = crossing_times(start, velocity, t_end, tol)
    found: dict[str, list[int]] = {name: [] for name in LOCI}
    for i, (kind, step, locus, pos) in enumerate(events):
        if kind == "locus_crossing":
            if locus not in LOCI or residue(locus, pos) > res_tol:
                return False
            found[locus].append(step)
            if locus in DEGENERATE_LOCI and events[i + 1] != ("orientation_flip", step, locus, pos):
                return False
        elif kind == "orientation_flip":
            if events[i - 1][:3] != ("locus_crossing", step, locus):
                return False
        elif kind not in ("start", "end") or 0 < i < len(events) - 1:
            return False
    return all(_steps_match(found[n], expected[n], step_size, t_end, tol) for n in LOCI)


def _steps_match(steps: list[int], times: list[float], h: float, t_end: float, tol: float) -> bool:
    def optional(t):
        return t <= tol or t > t_end - tol

    i = 0
    for step in steps:
        while i < len(times) and step not in {math.floor((times[i] - tol) / h),
                                              math.floor((times[i] + tol) / h)}:
            if not optional(times[i]):
                return False
            i += 1
        if i == len(times):
            return False
        i += 1
    return all(optional(t) for t in times[i:])


def path_crossing_count(start, velocity, t_end: float) -> int:
    """Crossings strictly inside (0, t_end]: the count a correct tracer reports."""
    return sum(len(ts) for ts in crossing_times(start, velocity, t_end, 0.0).values())


# ---------------------------------------------------------------------------
# CLI text reports


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key in out:
            raise ValueError(f"bad report line {line!r}")
        out[key] = value
    return out


def json_as_report(obj: dict) -> dict[str, str]:
    """A --json report in the form of its text twin (values printed with str)."""
    return {k: str(v) for k, v in obj.items()}


def parse_pi(text: str) -> Fraction:
    """'0', 'π', '-π', '3·π', 'p/q·π' -> coefficient of pi."""
    if text == "0":
        return Fraction(0)
    coeff = text[: -len("π")].rstrip("·")
    return Fraction({"": 1, "-": -1}.get(coeff, coeff))


def parse_pair(text: str, item=parse_pi):
    a, b = text.strip("()").split(", ")
    return item(a), item(b)


def _names(text: str) -> set[str]:
    return set() if text == "-" else set(text.split(","))


def check_classify_report(rep: dict, alpha: Fraction, beta: Fraction, exact: bool) -> bool:
    """`classify` report of the triangle with angles alpha*pi, beta*pi and the
    third angle that brings the sum to +pi or -pi; ``exact`` selects the
    exact (p/q·π) or the float (radians) rendering of the numbers."""
    gamma = (1 if alpha + beta > 0 else -1) - alpha - beta
    n = level_of(alpha, beta)
    k1, k2 = point_of_angles(alpha, beta, n)
    want = classify(k1, k2, n)
    xi = (Fraction(2 * k1, n), Fraction(2 * k2, n))
    canon = tuple(Fraction(2 * k, n) for k in want["canonical_rep"])
    if exact:
        numbers_ok = (
            [parse_pi(rep[k]) for k in ("alpha", "beta", "gamma")] == [alpha, beta, gamma]
            and (parse_pi(rep["torus.xi1"]), parse_pi(rep["torus.xi2"])) == xi
            and parse_pair(rep["canonical_rep"]) == canon
        )
    else:
        def near(text: str, coeff: Fraction) -> bool:
            return abs(wrap_pm_pi(float(text) - float(coeff) * math.pi)) <= 1e-8

        numbers_ok = (
            all(near(rep[k], v) for k, v in zip(("alpha", "beta", "gamma"), (alpha, beta, gamma)))
            and near(rep["torus.xi1"], xi[0])
            and near(rep["torus.xi2"], xi[1])
            and all(map(near, parse_pair(rep["canonical_rep"], str), canon))
        )
    return (
        rep["mode"] == ("exact" if exact else "float")
        and rep["sheet"] == ("plus" if gamma + alpha + beta > 0 else "minus")
        and numbers_ok
        and rep["orientation"] == want["orientation"]
        and all(rep[k] == str(want[k]).lower()
                for k in ("degenerate", "equilateral", "scalene", "obtuse", "acute"))
        and _names(rep["isosceles_vertices"]) == want["isosceles_vertices"]
        and _names(rep["right_vertices"]) == want["right_vertices"]
        and _names(rep["loci"]) == want["loci"]
        and rep["multiplicity"] == str(want["multiplicity"])
    )


def check_map_report(rep: dict, alpha: Fraction, beta: Fraction) -> bool:
    n = level_of(alpha, beta)
    k1, k2 = point_of_angles(alpha, beta, n)
    return (
        list(rep) == ["sheet", "torus.xi1", "torus.xi2", "orientation"]
        and rep["sheet"] == ("plus" if alpha + beta > 0 else "minus")
        and (parse_pi(rep["torus.xi1"]), parse_pi(rep["torus.xi2"])) == (
            Fraction(2 * k1, n), Fraction(2 * k2, n))
        and rep["orientation"] == orientation(k1, k2, n)
    )


def check_invert_report(rep: dict, xi1: Fraction, xi2: Fraction) -> bool:
    """`invert` of a nondegenerate point: its one preimage triangle."""
    n = level_of(xi1 / 2, xi2 / 2)
    k1, k2 = int(xi1 * n / 2), int(xi2 * n / 2)
    angles = [Fraction(a, n) for a in triangle(k1, k2, n)]
    sheet = "plus" if sum(angles) > 0 else "minus"
    body, _, tail = rep.get("preimage.1", "").partition(" sheet=")
    got = [parse_pi(a) for a in body.strip("△[]").split(", ")] if body else None
    return (
        parse_pair(rep["point"]) == (xi1, xi2)
        and rep["count"] == "1"
        and len(rep) == 3
        and got == angles
        and tail == sheet
    )


def check_orbit_report(rep: dict, xi1: Fraction, xi2: Fraction) -> bool:
    n = level_of(xi1 / 2, xi2 / 2)
    k1, k2 = int(xi1 * n / 2), int(xi2 * n / 2)
    want = sorted(orbit(k1, k2, n))
    pts = [tuple(Fraction(2 * k, n) for k in p) for p in want]
    return (
        parse_pair(rep["point"]) == (xi1, xi2)
        and rep["orbit_size"] == str(len(want))
        and rep["multiplicity"] == str(12 // len(want))
        and parse_pair(rep["canonical_rep"]) == pts[0]
        and [parse_pair(rep[f"element.{i}"]) for i in range(1, len(pts) + 1)] == pts
        and len(rep) == 4 + len(pts)
    )


def check_path_report(rep: dict, start, velocity, steps: int, step_size: float) -> bool:
    """`path` report: the events as printed, checked as check_path checks a trace."""
    events = []
    for i in range(1, len(rep)):
        line = rep.get(f"event.{i}")
        if line is None:
            break
        f = dict(re.findall(r"(\w+)=(\([^)]*\)|\S+)", line))
        pos = parse_pair(f["position"], float)
        events.append((f["kind"], int(f["step"]), f.get("locus"), pos))
        if f["kind"] == "orientation_flip" and {f["orientation_before"], f["orientation_after"]} != {
            "positive", "negative"}:
            return False
        if "residue" in f and float(f["residue"]) > 1e-9:
            return False
    x, y = start[0] % TWO_PI, start[1] % TWO_PI  # positive above the diagonal
    return (
        len(rep) == 3 + len(events)
        and rep["orientation.start"] == ("positive" if y > x else "negative")
        and check_path(events, start, velocity, steps, step_size, res_tol=2e-9)
    )
