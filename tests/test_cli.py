import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tritorus
from tritorus import cli, torus
from tritorus.angles import PiRational, make_triple


COMMANDS = ("classify", "map", "invert", "orbit", "measure", "path", "plot")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_to_dict(out):
    d = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        d[key] = value
    return d


class TestClassify:
    def test_equilateral(self, capsys):
        code, out, _ = run(capsys, "classify", "1/3", "1/3", "1/3")
        assert code == 0
        d = lines_to_dict(out)
        assert d["mode"] == "exact"
        assert d["sheet"] == "plus"
        assert d["torus.xi1"] == "2/3·π"
        assert d["torus.xi2"] == "4/3·π"
        assert d["orientation"] == "positive"
        assert d["equilateral"] == "true"
        assert d["multiplicity"] == "6"
        assert "Equilateral3" in d["loci"]

    def test_right_isosceles_apex(self, capsys):
        code, out, _ = run(capsys, "classify", "1/2", "1/4", "1/4")
        assert code == 0
        d = lines_to_dict(out)
        assert d["right_vertices"] == "A"
        assert d["isosceles_vertices"] == "A"
        assert "R_A" in d["loci"] and "I_A" in d["loci"]
        assert d["multiplicity"] == "2"

    def test_degenerate_vertex(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "0", "0")
        assert code == 0
        d = lines_to_dict(out)
        assert d["degenerate"] == "true"
        assert d["orientation"] == "zero"
        assert d["multiplicity"] == "12"

    def test_sum_not_pi_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "1/2", "1/2", "1/2")
        assert code == 2
        assert "error" in err

    def test_unparseable_angle_exits_1(self, capsys):
        code, _, _ = run(capsys, "classify", "x", "1/3", "1/3")
        assert code == 1

    def test_missing_argument_exits_1(self, capsys):
        code, _, _ = run(capsys, "classify", "1/3", "1/3")
        assert code == 1

    def test_degrees_snap_to_exact(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "degrees", "60", "60", "60")
        assert code == 0
        d = lines_to_dict(out)
        assert d["mode"] == "exact"
        assert d["equilateral"] == "true"

    def test_radians_float_path(self, capsys):
        b = 0.7
        c = 1.1
        a = math.pi - b - c
        code, out, _ = run(
            capsys, "classify", "--format", "radians", repr(a), repr(b), repr(c)
        )
        assert code == 0
        d = lines_to_dict(out)
        assert d["mode"] == "float"
        assert d["sheet"] == "plus"
        assert d["orientation"] == "positive"
        assert d["scalene"] == "true"

    def test_float_agrees_with_exact(self, capsys):
        _, exact_out, _ = run(capsys, "classify", "1/2", "1/4", "1/4")
        deg = 180.0 / 7.0
        _, float_out, _ = run(
            capsys, "classify", "--format", "degrees",
            repr(90.0 + deg / 1e9), "45", "45",
        )
        # tiny perturbation below tolerance still classifies as right isosceles
        e, f = lines_to_dict(exact_out), lines_to_dict(float_out)
        for key in ("right_vertices", "isosceles_vertices", "multiplicity"):
            assert e[key] == f[key]

    def test_float_degenerate_agrees_with_exact(self, capsys):
        # 211/601 does not snap, so the degrees input takes the float path
        _, exact_out, _ = run(capsys, "classify", "0", "211/601", "390/601")
        code, float_out, _ = run(
            capsys, "classify", "--format", "degrees",
            "0", repr(180 * 211 / 601), repr(180 * 390 / 601),
        )
        assert code == 0
        e, f = lines_to_dict(exact_out), lines_to_dict(float_out)
        assert f["mode"] == "float"
        assert f["scalene"] == "true"
        for key in (
            "orientation", "degenerate", "equilateral", "isosceles_vertices",
            "right_vertices", "scalene", "obtuse", "acute", "loci", "multiplicity",
        ):
            assert e[key] == f[key], key

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "1/3", "1/3", "1/3")
        assert code == 0
        d = json.loads(out)
        assert d["equilateral"] == "true"
        assert d["multiplicity"] == 6


class TestMapInvert:
    def test_map(self, capsys):
        code, out, _ = run(capsys, "map", "1/2", "1/4", "1/4")
        assert code == 0
        d = lines_to_dict(out)
        assert d["torus.xi1"] == "1/2·π"
        assert d["torus.xi2"] == "π"

    def test_invert_identity_six_preimages(self, capsys):
        code, out, _ = run(capsys, "invert", "0", "0")
        assert code == 0
        d = lines_to_dict(out)
        assert d["count"] == "6"
        assert "preimage.6" in d

    def test_invert_degenerate_two_preimages(self, capsys):
        code, out, _ = run(capsys, "invert", "2/3", "0")
        assert code == 0
        d = lines_to_dict(out)
        assert d["count"] == "2"
        assert "sheet=plus" in d["preimage.1"]
        assert "sheet=minus" in d["preimage.2"]

    def test_map_invert_round_trip(self, capsys):
        _, out, _ = run(capsys, "map", "1/7", "2/7", "4/7")
        d = lines_to_dict(out)
        xi1 = d["torus.xi1"].replace("·π", "")
        xi2 = d["torus.xi2"].replace("·π", "")
        code, out, _ = run(capsys, "invert", xi1, xi2)
        assert code == 0
        d = lines_to_dict(out)
        assert d["count"] == "1"
        assert "1/7·π" in d["preimage.1"]

    def test_invert_bad_coordinate_exits_1(self, capsys):
        code, _, _ = run(capsys, "invert", "1/0", "0")
        assert code == 1


class TestOrbit:
    def test_generic_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "1/5", "3/7")
        assert code == 0
        d = lines_to_dict(out)
        assert d["orbit_size"] == "12"
        assert d["multiplicity"] == "1"
        assert "element.12" in d

    def test_labeled_variants_share_canonical_rep(self, capsys):
        reps = set()
        for args in (("2/3", "4/3"), ("4/3", "2/3")):
            _, out, _ = run(capsys, "orbit", *args)
            reps.add(lines_to_dict(out)["canonical_rep"])
        assert len(reps) == 1

    def test_repeat_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "orbit", "1/5", "3/7")
        _, second, _ = run(capsys, "orbit", "1/5", "3/7")
        assert first == second


class TestMeasure:
    def test_analytic_only(self, capsys):
        code, out, _ = run(capsys, "measure")
        assert code == 0
        d = lines_to_dict(out)
        assert float(d["analytic.total"]) == pytest.approx(math.sqrt(3) * math.pi**2)
        assert float(d["ratio.O:A"]) == pytest.approx(3.0)
        assert not any(k.startswith("mc.") for k in d)

    def test_monte_carlo_rows(self, capsys):
        code, out, _ = run(capsys, "measure", "--samples", "20000", "--seed", "42")
        assert code == 0
        d = lines_to_dict(out)
        assert d["mc.seed"] == "42"
        assert abs(float(d["mc.obtuse.probability"]) - 0.75) < 0.01
        assert float(d["mc.obtuse.stderr"]) > 0

    def test_deterministic_given_seed(self, capsys):
        _, a, _ = run(capsys, "measure", "--samples", "5000", "--seed", "9")
        _, b, _ = run(capsys, "measure", "--samples", "5000", "--seed", "9")
        assert a == b

    def test_samples_drawn_once_for_all_regions(self, capsys, monkeypatch):
        # one generator per measure, drawn once and scored for all four regions
        seeds = []
        default_rng = np.random.default_rng

        def counting(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        code, out, _ = run(capsys, "measure", "--samples", "40000", "--seed", "9")
        assert code == 0
        assert seeds == [9]
        assert out.count("probability") == 4

    def test_memory_does_not_grow_with_samples(self, capsys):
        def traced_peak(samples):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "measure", "--samples", str(samples), "--seed", "9")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        run(capsys, "measure", "--samples", "1000")  # numpy imported and warmed up
        assert traced_peak(4_000_000) - traced_peak(400_000) < 1 << 20

    def test_monte_carlo_bytes_are_pinned(self, capsys):
        # any change to sampling, region scoring or number formatting shows up here
        code, out, _ = run(capsys, "measure", "--samples", "400000", "--seed", "9")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == "4227f64e3ffdb44e9fdfcd7896733564"


class TestPath:
    def test_orientation_flip_report(self, capsys):
        code, out, _ = run(
            capsys, "path", "2/3", "4/3",
            "--velocity", "1", "0", "--steps", "80", "--step-size", "0.05",
        )
        assert code == 0
        d = lines_to_dict(out)
        assert d["orientation.start"] == "positive"
        flips = [v for k, v in d.items() if "kind=orientation_flip" in str(v)]
        assert flips
        first = flips[0]
        assert "locus=D_C" in first
        assert "orientation_before=positive" in first
        assert "orientation_after=negative" in first
        residue = float(first.split("residue=")[1].split()[0])
        assert residue <= 1e-9

    def test_flip_at_wrap_line_changes_orientation(self, capsys):
        # the D_B crossing happens where xi1 wraps from 2*pi back to 0
        code, out, _ = run(capsys, "path", "1/3", "1/2", "--velocity", "3", "1", "--steps", "40")
        assert code == 0
        flips = [v for v in lines_to_dict(out).values() if "kind=orientation_flip" in v]
        assert any("locus=D_B" in f for f in flips)
        for f in flips:
            before = f.split("orientation_before=")[1].split()[0]
            after = f.split("orientation_after=")[1].split()[0]
            assert {before, after} == {"positive", "negative"}

    def test_flip_of_nearly_parallel_path_changes_orientation(self, capsys):
        # the path meets D_A at a slope of 1e-4; 1e-6 along it is 1e-10 off the locus
        code, out, _ = run(
            capsys, "path", "--velocity", "1", "1e-4", "--steps", "2", "--", "1/3", "-1/1000000"
        )
        assert code == 0
        flips = [v for v in lines_to_dict(out).values() if "kind=orientation_flip" in v]
        assert len(flips) == 1 and "locus=D_A" in flips[0]
        assert "orientation_before=positive orientation_after=negative" in flips[0]

    def test_start_orientation_far_from_diagonal(self, capsys):
        # (5/4*pi, 1/6*pi) lies below the diagonal, more than pi from it
        code, out, _ = run(capsys, "path", "5/4", "1/6", "--velocity", "-1", "2")
        assert code == 0
        assert lines_to_dict(out)["orientation.start"] == "negative"

    def test_three_angle_start(self, capsys):
        code, out, _ = run(
            capsys, "path", "1/3", "1/3", "1/3",
            "--velocity", "0", "1", "--steps", "10",
        )
        assert code == 0
        d = lines_to_dict(out)
        assert d["start"].startswith("(2.09439510239")

    @pytest.mark.parametrize("angles, coords", [
        (("1/3", "1/3", "1/3"), ("2/3", "4/3")),
        (("2/3", "1/6", "1/6"), ("1/3", "2/3")),
        (("-5/12", "-7/12", "0"), ("5/6", "5/6")),
    ])
    def test_three_exact_angles_start_where_their_torus_point_starts(self, capsys, angles, coords):
        # the start is the exact torus point, so both forms report the same crossings
        events = []
        for start in (angles, coords):
            code, out, _ = run(capsys, "path", "--velocity", "1", "0", "--steps", "2", "--", *start)
            assert code == 0
            events.append({k: v for k, v in lines_to_dict(out).items() if k.startswith("event.")})
        assert events[0] == events[1]

    @pytest.mark.parametrize("start", [
        ("4/3", "5/3"),
        ("1/6", "1/3", "1/2"),
        ("1/6", "2/3", "1/6"),
        ("5/12", "1/12", "1/2"),
        ("5/12", "1/6", "5/12"),
    ])
    def test_start_on_a_locus_is_no_crossing_at_step_0(self, capsys, start):
        # each start lies on a locus that its float coordinates miss by a rounding error
        code, out, _ = run(capsys, "path", "--velocity", "1", "0", "--steps", "2", "--", *start)
        assert code == 0
        events = [v for k, v in lines_to_dict(out).items() if k.startswith("event.")]
        assert events[0].startswith("kind=start") and events[-1].startswith("kind=end")
        assert not [e for e in events if e.startswith("kind=locus_crossing step=0 ")]

    def test_start_on_degenerate_locus_agrees_with_map(self, capsys):
        # (0, pi/2) lies on D_B; map of (3/4, 0, 1/4) lands on the same point
        code, out, _ = run(capsys, "path", "0", "1/2", "--velocity", "1", "1", "--steps", "2")
        assert code == 0
        assert lines_to_dict(out)["orientation.start"] == "zero"
        code, out, _ = run(capsys, "map", "3/4", "0", "1/4")
        assert code == 0
        d = lines_to_dict(out)
        assert (d["torus.xi1"], d["torus.xi2"], d["orientation"]) == ("0", "1/2·π", "zero")

    def test_zero_velocity_exits_2(self, capsys):
        code, _, err = run(capsys, "path", "0", "0", "--velocity", "0", "0")
        assert code == 2
        assert "error" in err

    def test_wrong_start_arity_exits_1(self, capsys):
        code, _, _ = run(capsys, "path", "0", "--velocity", "1", "0")
        assert code == 1


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--format", "degrees", "nan", "90", "90"],
            ["classify", "--format", "radians", "inf", "1", "1"],
            ["classify", "--format", "degrees", "--", "-inf", "90", "90"],
            ["path", "1/3", "1/2", "--velocity", "nan", "1", "--steps", "2"],
            ["path", "1/3", "1/2", "--velocity", "1", "inf", "--steps", "2"],
            ["path", "1/3", "1/2", "--velocity", "1", "0", "--steps", "0"],
            ["path", "1/3", "1/2", "--velocity", "1", "0", "--steps", "-3"],
            ["measure", "--samples", "-5"],
            ["plot", "--out", "unused.svg", "--samples", "-5"],
            ["measure", "--samples", "5", "--seed", "-1"],
            ["plot", "--out", "unused.svg", "--samples", "5", "--seed", "-1"],
            ["path", "1e400", "0", "--velocity", "1", "0", "--steps", "2"],
            ["invert", "--", "0", "--"],
            ["path", "0", "0", "--velocity", "1", "0", "--steps", "1" + "0" * 309],
            ["path", "0", "0", "--velocity", "1", "0", "--step-size", "0"],
            ["path", "0", "0", "--velocity", "1", "0", "--step-size", "-1"],
            ["path", "0", "0", "--velocity", "1", "0", "--step-size", "nan"],
            ["path", "0", "0", "--velocity", "1", "0", "--step-size", "inf"],
            ["path", "1e308", "0", "--velocity", "1", "0", "--steps", "2"],
            ["map", "--format", "radians", "1", "1", "1.14159265"],
            ["path", "--format", "radians", "1.5", "0.5", "--velocity", "1", "0"],
            ["path", "--format", "degrees", "--velocity", "1", "0", "--", "1/2", "1/2"],
            ["measure", "--samples", str(10**21)],
            ["plot", "--out", "unused.svg", "--samples", str(10**21)],
            ["classify", "1/3", "1/3"],
            ["measure", "--samples", "x"],
            ["classify", "--", "1/3", "1/3", "1/3", "--json"],
            ["frob"],
            [],
        ],
        ids=[
            "degrees-nan", "radians-inf", "degrees-minus-inf", "velocity-nan", "velocity-inf",
            "steps-zero", "steps-negative", "measure-samples-negative", "plot-samples-negative",
            "measure-seed-negative", "plot-seed-negative", "start-beyond-float",
            "coordinate-after-second-double-dash", "steps-beyond-float", "step-size-zero",
            "step-size-negative", "step-size-nan", "step-size-inf", "start-radians-overflow",
            "map-float-angles", "path-radians-coordinates", "path-degrees-coordinates",
            "measure-samples-too-large", "plot-samples-too-large",
            "usage-two-angles", "usage-samples-not-int", "usage-option-after-double-dash",
            "usage-unknown-command", "usage-no-command",
        ],
    )
    def test_one_error_line_and_exit_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: tritorus {command}")

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_lists_every_command(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: tritorus")
        assert "{" + ",".join(COMMANDS) + "}" in out

    def test_plot_samples_beyond_memory(self, capsys, monkeypatch, tmp_path):
        def no_memory(seed, n):
            raise MemoryError

        monkeypatch.setattr(cli.measure_mod, "sample_uniform", no_memory)
        code, out, err = run(capsys, "plot", "--out", str(tmp_path / "d.svg"), "--samples", "5")
        assert (code, out, err) == (1, "", "error: --samples does not fit in memory\n")
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["path", "0", "0", "--velocity", "1e308", "1e308", "--steps", "2"],
            ["path", "100000001/3", "0", "--velocity", "1", "0.3"],
        ],
        ids=["too-many-crossings", "crossing-beyond-float-precision"],
    )
    def test_unresolvable_path_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "fmt, angles, line",
    [
        ([], ["1/3", "1/3", "1/2"], None),
        (["--format", "degrees"], ["10", "10", "10"], None),
        (["--format", "radians"], ["1", "1", "1.14159265"], None),
        (["--format", "radians"], ["-0.5", "1.2", "2.44159265358979"],
         "error: angle -0.5 at A outside [0.0, 3.141592653589793]"),
        (["--format", "radians"], ["1.7e308", "1.7e308", "0"], None),
        (["--format", "radians"], ["1", "1e308", "-1e308"], None),
    ],
    ids=["exact-sum", "degrees-sum", "float-sum", "float-out-of-range",
         "start-overflows-on-the-torus", "start-overflows-but-the-sum-is-finite"],
)
def test_invalid_three_angle_start_exits_2(capsys, fmt, angles, line):
    # the three-angle start is checked as the triangle classify would check, before its
    # torus point is computed, so an angle that overflows 2*angle is still a bad triangle
    code, out, err = run(
        capsys, "path", *fmt, "--velocity", "1", "0", "--steps", "2", "--", *angles
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    if line is not None:  # a float angle out of range names itself, as an exact one does
        assert err == line + "\n"
    assert run(capsys, "classify", *fmt, "--", *angles) == (2, "", err)


def _grid_triples():
    # every distinct valid triple of multiples of pi/N, N in {6, 8, 12, 24}: the
    # multiples of pi/24 summing to pi, on both sheets
    n = 24
    out = []
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            ks = (k1, k2, n - k1 - k2)
            out.append((ks, 1))
            out.append((ks, -1))
    return out


def test_float_classifier_agrees_with_exact_on_the_grid(capsys):
    grid = _grid_triples()
    assert len(grid) == 650
    coordinates = {"mode", "alpha", "beta", "gamma", "torus.xi1", "torus.xi2", "canonical_rep"}
    for ks, sign in grid:
        code, out, _ = run(capsys, "classify", "--", *(f"{sign * k}/24" for k in ks))
        assert code == 0
        exact = lines_to_dict(out)
        report = cli.classify_float(*(sign * k * math.pi / 24 for k in ks))
        floating = {key: str(value) for key, value in report.items}
        assert list(floating) == list(exact)
        for key in exact.keys() - coordinates:
            assert floating[key] == exact[key], (ks, sign, key)
        # the exact report is composed in the CLI: it must still be torus.classify's
        info = torus.classify(torus.rho(make_triple(*(PiRational(sign * k, 24) for k in ks))))
        assert exact["loci"] == (",".join(locus.value for locus in info.loci) or "-")
        assert exact["multiplicity"] == str(info.multiplicity)
        assert exact["orientation"] == info.orientation.value
        assert exact["canonical_rep"] == str(info.canonical_rep)


def _near_locus_triples(seed, count):
    """Float triangles 1e-10 to 1e-9 rad off an isosceles, right or degenerate one, on
    either sheet, with the biggest angle moved by up to 1e-9 so the sum is off too.

    An angle within 1e-9 of a grid value snaps to it, so a few sums end up off by more
    than 1e-9 and the triple is refused."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice((-1, 1)) * 10 ** rng.uniform(-10, -9)
        x = rng.uniform(0.05, math.pi / 2 - 0.05)
        angles = rng.choice((
            [math.pi - 2 * x, x + d / 2, x - d / 2],  # isosceles
            [math.pi / 2 + d, x, math.pi / 2 - x - d],  # right
            [d, 2 * x, math.pi - 2 * x - d],  # degenerate
        ))
        rng.shuffle(angles)
        angles[angles.index(max(angles))] += rng.uniform(-1e-9, 1e-9)
        sign = rng.choice((1, -1))
        out.append(tuple(repr(sign * a) for a in angles))
    return out


_NEAR_LOCUS = _near_locus_triples(9, 400)
_MOTIVATING = [
    ("1.1415926535897931", "1.00000000035", "0.99999999965"),  # isosceles flag off I_A
    ("1.0", "2.141592654389793", "0"),  # a zero angle off D_C
    # at the edge of I_C, R_C and I_A, where a flag and its locus were once decided apart
    ("-1.0115953560475432", "-1.0115953565475428", "-1.118401940994707"),
    ("-0.4014160097734014", "-1.1693803165214953", "-1.5707963272948964"),
    ("-0.13496349700790589", "-1.5033145780409438", "-1.5033145785409434"),
]


def _self_disagreements(d):
    """The flags of one classify report that its own loci or orientation contradict."""
    loci = set(d["loci"].split(","))

    def on(kind):
        return {v for v in "ABC" if f"{kind}_{v}" in loci}

    wrong = []
    if d["equilateral"] == "false" and set(d["isosceles_vertices"].split(",")) - {"-"} != on("I"):
        wrong.append("isosceles_vertices")
    if set(d["right_vertices"].split(",")) - {"-"} != on("R"):
        wrong.append("right_vertices")
    if len({d["degenerate"] == "true", bool(on("D")), d["orientation"] == "zero"}) > 1:
        wrong.append("degenerate")
    return wrong


def test_float_report_agrees_with_its_own_loci(capsys):
    # each flag is decided at the torus point, within the tolerance of its locus
    wrong, checked = [], 0
    for angles in _MOTIVATING + _NEAR_LOCUS:
        code, out, err = run(capsys, "classify", "--format", "radians", "--", *angles)
        assert code in (0, 2), err
        if code == 0:
            checked += 1
            wrong += [(angles, flag) for flag in _self_disagreements(lines_to_dict(out))]
    assert checked > 350
    assert wrong == []


def test_float_multiplicity_agrees_with_its_own_loci(capsys):
    # each I_v or D_v locus printed is one reflection that fixes the point
    off_d_c = ("-0.28712686614925864", "-2.8544657869951493", "2.15786369737457e-10")
    wrong = []
    for angles in [off_d_c, *_MOTIVATING, *_NEAR_LOCUS]:
        code, out, _ = run(capsys, "classify", "--format", "radians", "--", *angles)
        if code == 0:
            d = lines_to_dict(out)
            mirrors = [locus for locus in d["loci"].split(",") if locus[:2] in ("I_", "D_")]
            if d["multiplicity"] != str(max(1, 2 * len(mirrors))):
                wrong.append((angles, d["loci"], d["multiplicity"]))
    assert wrong == []


@pytest.mark.parametrize("angles, loci, multiplicity", zip(_MOTIVATING[2:], ("I_C", "R_C", "I_A"),
                                                            ("2", "1", "2")))
def test_float_edge_triples_print_their_locus(capsys, angles, loci, multiplicity):
    # the flag each prints (apex C, right at C, apex A) has its locus in the same report
    code, out, _ = run(capsys, "classify", "--format", "radians", "--", *angles)
    assert code == 0
    d = lines_to_dict(out)
    assert (d["loci"], d["multiplicity"]) == (loci, multiplicity)


def test_float_canonical_rep_is_the_least_image(capsys):
    # on I_A two images lie 1e-10 apart; the rep is the least of all twelve, not of a deduped few
    code, out, _ = run(capsys, "classify", "--format", "radians", "--",
                       "2.820483237224782", "0.16055470819685166", "0.160554708832617")
    assert code == 0
    d = lines_to_dict(out)
    assert (d["loci"], d["multiplicity"]) == ("I_A", "2")
    assert d["canonical_rep"] == "(0.321109416336, 0.64221883273)"


def test_classify_and_path_agree_on_three_float_angles(capsys):
    # classify's orientation is path's orientation.start; a refused triple is refused alike
    wrong, checked = [], 0
    for angles in _MOTIVATING + _NEAR_LOCUS:
        classify = run(capsys, "classify", "--format", "radians", "--", *angles)
        path = run(capsys, "path", "--format", "radians", "--velocity", "1", "0", "--steps", "1",
                   "--", *angles)
        if classify[0] != 0:
            assert (path[0], path[2]) == (classify[0], classify[2])
            continue
        checked += 1
        assert path[0] == 0, path[2]
        orientation = lines_to_dict(classify[1])["orientation"]
        if orientation != lines_to_dict(path[1])["orientation.start"]:
            wrong.append(angles)
    assert checked > 350
    assert wrong == []


def test_classify_and_path_refuse_a_huge_exact_triple_alike(capsys):
    # the exact start is validated as a triangle before any float is made of it
    angles = ("1e400", "0", "-1e400")
    code, out, err = run(capsys, "path", "--velocity", "1", "0", "--steps", "2", "--", *angles)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert run(capsys, "classify", "--", *angles) == (2, "", err)


# The CLI fuzz builds each command mostly well formed, then swaps in malformed
# tokens.  It is bounded so that no example asks for a large allocation or a
# long run: --samples is at most 10**4 and --steps at most 10**3.  With
# |velocity| <= 10 and a step size <= 0.5 a path crosses each locus a few
# thousand times at most; the malformed values are refused or, for a tiny
# velocity, held to 2**16 crossings per locus by the tracer itself.
_JUNK = st.sampled_from([
    "", "abc", "1/0", "0/0", "1/3/4", "0x10", "½", " 1", "nan", "inf", "-inf", "1e400",
    "-1e400", "5e-324", "1e-300", "1e300", "1.7e308", "-", "--", "--json", "--bogus", "-h",
])
_FRACTION = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_ANGLE_TEXT = {
    "pi-rational": str,
    "degrees": lambda v: repr(float(v) * 180.0),
    "radians": lambda v: repr(float(v) * math.pi),
}


def _mostly(valid):
    """``valid`` seven times in eight, else a malformed token."""
    return st.integers(0, 7).flatmap(lambda i: _JUNK if i == 5 else valid)


def _one(values):
    return _mostly(values).map(lambda v: [v])


_OPTIONS = {
    "--json": st.just([]),
    "--samples": _one((st.integers(-3, 3) | st.integers(0, 10**4)).map(str)),
    "--seed": _one((st.integers(-3, 3) | st.integers(0, 2**70)).map(str)),
    "--velocity": st.lists(_mostly(st.floats(-10.0, 10.0).map(repr)), min_size=2, max_size=2),
    "--steps": _one(st.integers(-5, 10**3).map(str)),
    "--step-size": _one(st.floats(1e-3, 0.5).map(repr)),
    "--out": st.sampled_from(["out.svg", "missing/out.svg", "", "."]).map(lambda o: [o]),
    "--anti": st.just([]),
}
# command: (numbers of positionals, options, options given seven times in eight)
_COMMANDS = {
    "classify": ([3], ["--json", "--format"], []),
    "map": ([3], ["--json", "--format"], []),
    "invert": ([2], ["--json"], []),
    "orbit": ([2], ["--json"], []),
    "measure": ([0], ["--json", "--seed"], ["--samples"]),
    "path": ([2, 3], ["--json", "--format", "--steps", "--step-size"], ["--velocity"]),
    "plot": ([0], ["--json", "--seed", "--anti"], ["--out", "--samples"]),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    counts, optional, usual = _COMMANDS[command]
    argv = [command]
    mode = "pi-rational"
    flags = [f for f in usual if draw(st.integers(0, 7)) != 5]
    flags += [f for f in optional if draw(st.booleans())]
    for flag in draw(st.permutations(flags)):
        if flag == "--format":
            mode = draw(st.sampled_from(sorted(_ANGLE_TEXT)))
            argv += [flag, draw(_mostly(st.just(mode)))]
        else:
            argv += [flag, *draw(_OPTIONS[flag])]
    # the right number of positionals seven times in eight
    count = draw(st.integers(0, 7).flatmap(
        lambda i: st.integers(0, 4) if i == 5 else st.sampled_from(counts)))
    values = [draw(_FRACTION) for _ in range(count)]
    if count == 3 and draw(st.booleans()):  # a triangle: the angles sum to pi or -pi
        values[2] = draw(st.sampled_from([1, -1])) - values[0] - values[1]
    text = _ANGLE_TEXT[mode] if count == 3 else str
    positional = [draw(_mostly(st.just(text(v)))) for v in values]
    if positional and draw(st.booleans()):
        argv.append("--")  # lets a positional start with "-"
    return argv + positional


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_fuzz_exits_cleanly(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _parse(parser, argv):
    """What parsing ``argv`` shows: the namespace, the usage error, or the exit and its help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "namespace", vars(parser.parse_args(argv))
    except cli.ParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


_HELP = st.sampled_from(["-h", "--help"])
_NO_COMMAND = st.lists(_JUNK | _HELP | _FRACTION.map(str), max_size=4)
# a command's argv with a help flag after its first word, which the fuzz draws too rarely
_COMMAND_HELP = st.tuples(cli_argv(), _HELP, st.integers(1, 8)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv() | _NO_COMMAND | _COMMAND_HELP)
def test_one_command_parser_parses_as_the_whole_parser(argv):
    first = argv[0] if argv else None
    assert _parse(cli.build_parser(first), argv) == _parse(cli.build_parser(), argv)


def test_a_command_builds_only_its_own_parser():
    assert cli.build_parser("classify").format_usage() == "usage: tritorus [-h] {classify} ...\n"


def test_exact_commands_do_not_import_numpy():
    # nor dataclasses, which pulls in inspect, ast, dis and tokenize
    script = (
        "import sys, tritorus\n"
        "from tritorus import cli\n"
        "cli.main(['classify', '1/2', '1/4', '1/4'])\n"
        "cli.main(['measure'])\n"
        "sys.stderr.write(str([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]))\n"
    )
    src = str(Path(tritorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]"


class TestPlot:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "domain.svg"
        code, out, _ = run(capsys, "plot", "--out", str(out_file))
        assert code == 0
        assert out == f"wrote: {out_file}\n"  # exactly the line the benchmark's check reads
        text = out_file.read_text()
        assert text.startswith("<?xml") or text.startswith("<svg")
        assert text.count('class="locus"') == 9

    def test_anti_loci_and_samples(self, capsys, tmp_path):
        out_file = tmp_path / "domain.svg"
        code, _, _ = run(
            capsys, "plot", "--out", str(out_file),
            "--anti", "--samples", "50", "--seed", "3",
        )
        assert code == 0
        text = out_file.read_text()
        assert text.count('class="locus"') == 12
        assert text.count('class="sample') >= 50

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "no" / "dir.svg"
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "plot", "--out", str(out_file), *extra)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot write {out_file}: ") and err.count("\n") == 1


#: Valid arguments for each subcommand; ``{out}`` stands for a writable SVG path.
_VALID_ARGV = {
    "classify": ["--format", "degrees", "--", "50", "60", "70"],
    "map": ["1/7", "2/7", "4/7"],
    "invert": ["2/3", "0"],
    "orbit": ["1/5", "3/7"],
    "measure": ["--samples", "100", "--seed", "9"],
    "path": ["1/3", "1/2", "--velocity", "3", "1", "--steps", "40"],
    "plot": ["--out", "{out}", "--samples", "20"],
}


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_every_subcommand_honours_json(capsys, tmp_path, command):
    assert sorted(_VALID_ARGV) == sorted(_COMMANDS)  # every subcommand
    args = [a.format(out=tmp_path / "d.svg") for a in _VALID_ARGV[command]]
    code, text, err = run(capsys, command, *args)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, command, "--json", *args)
    assert (code, err) == (0, "")
    report = json.loads(out)  # one JSON value, and nothing printed beside it
    assert isinstance(report, dict)
    assert {key: str(value) for key, value in report.items()} == lines_to_dict(text)
