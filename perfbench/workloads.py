"""The four workloads: seeded inputs, op kinds and output checks.

A workload hands out rounds of ops; round r depends only on the seed and r.
An op is (args, known_fault, ref): ``ops.OPS[name](*args)`` runs it, and
``check(args, ref, output)`` tells whether the output is right.  Ops marked
``known_fault`` hit a fault that is named in the README and fail every
time; they do not depend on the seed and every round holds the same number
of them, so the failed share of a run is fixed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles

TWO_PI = 2.0 * math.pi


class Workload:
    name = ""
    warmup_ops = 1  # untimed ops from round 0 before the timed rounds
    trace_rounds = 1  # rounds in a traced run

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list:
        raise NotImplementedError

    def check(self, args, ref, out) -> bool:
        raise NotImplementedError

    def check_round(self, ops: list, outs: list) -> bool:
        """Properties of a whole round of outputs."""
        return True


# ---------------------------------------------------------------------------


class ExactCensus(Workload):
    """classify + element_order on every point of the N-torsion grid."""

    name = "exact-census"
    N = 48  # divisible by 2 (right loci) and 3 (equilateral points); ten divisors
    warmup_ops = 200

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.orbits = oracles.burnside_orbits(self.N)

    def round(self, r):
        ops = [((k1, k2, self.N), False, None) for k1 in range(self.N) for k2 in range(self.N)]
        self.rng(r).shuffle(ops)
        return ops

    def check(self, args, ref, out):
        info, order = out
        want = oracles.classify(*args)
        f = info.flags
        k1, k2, n = args
        preimages = 6 if k1 == k2 == 0 else (2 if want["degenerate"] else 1)
        return (
            info.orientation.value == want["orientation"]
            and info.degenerate == f.degenerate == want["degenerate"]
            and f.equilateral == want["equilateral"]
            and set(f.isosceles_vertices) == want["isosceles_vertices"]
            and set(f.right_vertices) == want["right_vertices"]
            and f.scalene == want["scalene"]
            and f.obtuse == want["obtuse"]
            and f.acute == want["acute"]
            and {locus.value for locus in info.loci} == want["loci"]
            and info.multiplicity == want["multiplicity"]
            and (info.canonical_rep.xi1.coeff, info.canonical_rep.xi2.coeff)
            == tuple(Fraction(2 * c, n) for c in want["canonical_rep"])
            and len(info.preimages) == preimages
            and order == want["element_order"]
        )

    def check_round(self, ops, outs):
        degenerate = sum(1 for info, _ in outs if info.degenerate)
        reps = {info.canonical_rep for info, _ in outs}
        return degenerate == 3 * self.N - 2 and len(reps) == self.orbits


# ---------------------------------------------------------------------------


def _all_forms_nonzero(n1: int, n2: int) -> bool:
    return all(a * n1 + b * n2 for a, b, _ in oracles.LOCI.values())


class PathSweep(Workload):
    """trace_path over 200 steps of 0.05 on seeded starts and closed-period velocities.

    A velocity (2*pi/T)*(n1, n2) with integers n1, n2 closes the path after
    T = 10, so a locus a*xi1 + b*xi2 = c is crossed exactly |a*n1 + b*n2|
    times whatever the start: every round makes the same number of
    crossings.  The directions are all (n1, n2) with 1 <= n1 <= 12,
    |n2| <= 12, no locus parallel, and 100 to 130 crossings in all.
    """

    name = "path-sweep"
    STEPS, STEP_SIZE = 200, 0.05
    DIRECTIONS = [
        (n1, n2)
        for n1 in range(1, 13)
        for n2 in range(-12, 13)
        if _all_forms_nonzero(n1, n2)
        and 100 <= sum(abs(a * n1 + b * n2) for a, b, _ in oracles.LOCI.values()) <= 130
    ]
    # Coarse steps, where |a*vx + b*vy|*step_size reaches pi: trace_path
    # misses crossings (143 by the closed form; it finds 59 and 33).
    COARSE = [([0.3, 0.7], [7.0, 3.0], 20, 0.5), ([0.3, 0.7], [7.0, 3.0], 10, 1.0)]
    warmup_ops = 24
    trace_rounds = 2

    def round(self, r):
        rng = self.rng(r)
        w = TWO_PI / (self.STEPS * self.STEP_SIZE)
        ops = []
        for n1, n2 in self.DIRECTIONS:
            s = rng.choice((1, -1)) * w
            start = [rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)]
            ops.append(((start, [s * n1, s * n2], self.STEPS, self.STEP_SIZE), False, None))
        ops += [(args, True, None) for args in self.COARSE]
        rng.shuffle(ops)
        return ops

    def check(self, args, ref, out):
        events = [
            (e.kind.value, e.step_index, e.locus.value if e.locus else None, e.refined_position)
            for e in out
        ]
        return oracles.check_path(events, *args)

    @staticmethod
    def expected_crossings(ops) -> int:
        return sum(
            oracles.path_crossing_count(start, v, steps * h) for (start, v, steps, h), _, _ in ops
        )


# ---------------------------------------------------------------------------


class SampleMeasure(Workload):
    """`measure --samples n` then `plot --samples k --anti`, in process."""

    name = "sample-measure"
    SAMPLES = 400_000  # the sample arrays dominate peak RSS
    PLOT_SAMPLES = 4_000
    OPS_PER_ROUND = 4
    warmup_ops = 2

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for i in range(self.OPS_PER_ROUND):
            seed = str(rng.randrange(2**31))
            svg = str(self.out_dir / f"plot-{i}.svg")
            measure = ["measure", "--samples", str(self.SAMPLES), "--seed", seed]
            plot = ["plot", "--samples", str(self.PLOT_SAMPLES), "--seed", seed, "--anti",
                    "--out", svg]
            ops.append(((measure, plot), False, (int(seed), svg)))
        return ops

    def check(self, args, ref, out):
        (c1, out1, err1), (c2, out2, err2) = out
        seed, svg = ref
        return (
            c1 == c2 == 0
            and not err1 + err2
            and oracles.check_measure_report(oracles.parse_report(out1), self.SAMPLES, seed)
            and out2 == f"wrote: {svg}\n"
            and oracles.check_svg(svg, self.PLOT_SAMPLES)
        )


# ---------------------------------------------------------------------------


def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


class CliSession(Workload):
    """Small in-process `tritorus` calls, one per op.

    Every rational has a prime denominator above 400 that no other op of
    the run shares (until the 25,000 primes below 300,000 run out), so no
    two ops share an orbit and degrees/radians inputs never snap to p/q.
    """

    name = "cli-session"
    REPEATS = 4  # each seeded kind below, this many times per round
    # Ops that fail every time, on fixed inputs.  Degenerate triangles on the
    # float path, off the isosceles loci: classify_float calls them not
    # scalene, unlike the exact taxonomy.  Short paths: the report's
    # orientation_before/after stay equal across D_A and D_B crossings.
    KNOWN_FAULTS = [
        (["classify", "--format", "degrees", "--", "0", repr(180 * 211 / 601),
          repr(180 * 390 / 601)], ("classify", Fraction(0), Fraction(211, 601), False, False)),
        (["classify", "--json", "--format", "radians", "--", "0", repr(-389 / 1009 * math.pi),
          repr(-620 / 1009 * math.pi)],
         ("classify", Fraction(0), Fraction(-389, 1009), False, True)),
        (["path", "1/3", "1/2", "--velocity", "3", "1", "--steps", "40"],
         ("path", Fraction(1, 3), Fraction(1, 2), (3.0, 1.0), False)),
        (["path", "--json", "5/4", "1/6", "--velocity", "-1", "2", "--steps", "40"],
         ("path", Fraction(5, 4), Fraction(1, 6), (-1.0, 2.0), True)),
    ]
    warmup_ops = 36
    trace_rounds = 2

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.primes = _primes(401, 300_000)
        random.Random(f"{self.name}:{seed}").shuffle(self.primes)

    def round(self, r):
        rng = self.rng(r)
        per_round = 2 * 8 * self.REPEATS
        base = r * per_round
        primes = iter(self.primes[(base + i) % len(self.primes)] for i in range(per_round))
        ops = []
        for _ in range(self.REPEATS):
            for kind in (self._classify_exact, self._classify_exact_json, self._classify_degrees,
                         self._classify_radians_json, self._map, self._invert, self._orbit,
                         self._measure):
                argv, ref = kind(rng, next(primes), next(primes))
                ops.append(((argv,), False, ref))
        ops += [((argv,), True, ref) for argv, ref in self.KNOWN_FAULTS]
        return ops

    @staticmethod
    def _triangle(rng, q1, q2):
        while True:
            a, b = Fraction(rng.randrange(1, q1), q1), Fraction(rng.randrange(1, q2), q2)
            if a + b < 1:
                s = rng.choice((1, -1))
                return s * a, s * b, s * (1 - a - b)

    @staticmethod
    def _point(rng, q1, q2):
        return Fraction(rng.randrange(1, 2 * q1), q1), Fraction(rng.randrange(1, 2 * q2), q2)

    def _classify_exact(self, rng, q1, q2, json_out=False):
        a, b, c = self._triangle(rng, q1, q2)
        opts = ["--json"] if json_out else []
        return ["classify", *opts, "--", str(a), str(b), str(c)], ("classify", a, b, True, json_out)

    def _classify_exact_json(self, rng, q1, q2):
        return self._classify_exact(rng, q1, q2, json_out=True)

    def _classify_degrees(self, rng, q1, q2):
        a, b, c = self._triangle(rng, q1, q2)
        text = [repr(float(x) * 180.0) for x in (a, b, c)]
        return ["classify", "--format", "degrees", "--", *text], ("classify", a, b, False, False)

    def _classify_radians_json(self, rng, q1, q2):
        a, b, c = self._triangle(rng, q1, q2)
        text = [repr(float(x) * math.pi) for x in (a, b, c)]
        return (["classify", "--json", "--format", "radians", "--", *text],
                ("classify", a, b, False, True))

    def _map(self, rng, q1, q2):
        a, b, c = self._triangle(rng, q1, q2)
        return ["map", "--", str(a), str(b), str(c)], ("map", a, b, False)

    def _invert(self, rng, q1, q2):
        x, y = self._point(rng, q1, q2)
        return ["invert", str(x), str(y)], ("invert", x, y, False)

    def _orbit(self, rng, q1, q2):
        x, y = self._point(rng, q1, q2)
        return ["orbit", "--json", str(x), str(y)], ("orbit", x, y, True)

    def _measure(self, rng, q1, q2):
        return ["measure"], ("measure", False)

    def check(self, args, ref, out):
        code, stdout, stderr = out
        if code != 0 or stderr:
            return False
        kind, *params, json_out = ref
        try:
            rep = (oracles.json_as_report(json.loads(stdout)) if json_out
                   else oracles.parse_report(stdout))
        except ValueError:
            return False
        if kind == "classify":
            return oracles.check_classify_report(rep, *params)
        if kind == "map":
            return oracles.check_map_report(rep, *params)
        if kind == "invert":
            return oracles.check_invert_report(rep, *params)
        if kind == "orbit":
            return oracles.check_orbit_report(rep, *params)
        if kind == "measure":
            return oracles.check_measure_report(rep)
        x, y, velocity = params
        start = (float(x) * math.pi, float(y) * math.pi)
        return oracles.check_path_report(rep, start, velocity, 40, 0.05)


WORKLOADS = {w.name: w for w in (ExactCensus, PathSweep, SampleMeasure, CliSession)}
