"""Command-line surface: classify | map | invert | orbit | measure | path | plot.

Each subcommand builds a report; ``main`` alone prints it, as ``key: value`` lines or as
JSON with --json, and sets the exit code: 0 success, 1 usage/parse error, 2 domain error
or an unwritable --out.  Exact rational angles are printed as ``p/q·π``; float values use
12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import measure as measure_mod
from . import pathtrace, svgplot, symmetry, torus
from .angles import DomainError, PiRational, make_triple, sheet_of
from .pathtrace import EventKind, trace_path, wrap_position
from .torus import REFINE_TOL, TorusPoint

#: A degrees/radians input is snapped to an exact rational multiple of pi
#: with denominator up to this bound, when within REFINE_TOL radians.
MAX_SNAP_DENOMINATOR = 360

Angle = Union[PiRational, float]


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a ParseError: one error line, exit 1
        raise ParseError(message)


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _fmt_angle(a: Angle) -> str:
    return str(a) if isinstance(a, PiRational) else _fmt_float(a)


def parse_angle(text: str, mode: str) -> Angle:
    if mode == "pi-rational":
        return parse_pi_rational(text, "angle")
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse angle {text!r}: {exc}") from None
    if not math.isfinite(value):
        raise ParseError(f"angle {text!r} is not finite")
    radians = math.radians(value) if mode == "degrees" else value
    snapped = Fraction(radians / math.pi).limit_denominator(MAX_SNAP_DENOMINATOR)
    if abs(float(snapped) * math.pi - radians) <= REFINE_TOL:
        return PiRational.from_fraction(snapped)
    return radians


def parse_pi_rational(text: str, what: str = "coordinate") -> PiRational:
    # TypeError: argparse hands over [] for a coordinate given as a second "--"
    try:
        return PiRational.from_fraction(Fraction(text))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {what} {text!r}: {exc}") from None


class Report:
    """Ordered key/value report, printable as text or JSON."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(dict(self.items), indent=2))
        else:
            for key, value in self.items:
                print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# the triangle of three angles, exact or float, and its classify report


def _float_triangle(alpha: float, beta: float, gamma: float):
    """(sheet, angles, point) of three float angles, checked by ``sheet_of`` within REFINE_TOL;
    the point is rho = (2*beta, -2*alpha) wrapped, as ``point_facts`` arguments."""
    sheet = sheet_of((alpha, beta, gamma), 0.0, math.pi, REFINE_TOL)
    xi1, xi2 = wrap_position((2.0 * beta, -2.0 * alpha))
    return sheet.value, (alpha, beta, gamma), (xi1, xi2, math.pi, REFINE_TOL)


def _parse_three_angles(texts: Sequence[str], mode: str) -> list[Angle]:
    if len(texts) != 3:
        raise ParseError("expected three angles")
    return [parse_angle(t, mode) for t in texts]


def _triangle(angles: Sequence[Angle]):
    """(sheet, angles, point) of three parsed angles: an exact triple ``make_triple`` checks,
    at rho's lattice point; else all three as floats, by ``_float_triangle``."""
    if all(isinstance(a, PiRational) for a in angles):
        triple = make_triple(*angles)
        return triple.sheet.value, triple.angles, torus.rho(triple).facts_args()
    return _float_triangle(*(a.radians if isinstance(a, PiRational) else a for a in angles))


def _classify_report(sheet: str, angles, point) -> Report:
    """The classify report of a triangle, read off ``torus.classify_point`` at its point;
    a float point (tol non-zero) prints floats, a lattice point p/q·π."""
    x, y, half, tol = point
    sign, flags, loci, multiplicity, rep = torus.classify_point(*point)
    coordinate = _fmt_float if tol else (lambda v: str(PiRational(v, half)))
    report = Report()
    report.add("mode", "float" if tol else "exact")
    report.add("sheet", sheet)
    for name, a in zip(("alpha", "beta", "gamma"), angles):
        report.add(name, _fmt_angle(a))
    report.add("torus.xi1", coordinate(x))
    report.add("torus.xi2", coordinate(y))
    report.add("orientation", torus.SIGNS[sign].value)
    report.add("degenerate", str(flags.degenerate).lower())
    report.add("equilateral", str(flags.equilateral).lower())
    report.add("isosceles_vertices", ",".join(sorted(flags.isosceles_vertices)) or "-")
    report.add("right_vertices", ",".join(sorted(flags.right_vertices)) or "-")
    report.add("scalene", str(flags.scalene).lower())
    report.add("obtuse", str(flags.obtuse).lower())
    report.add("acute", str(flags.acute).lower())
    report.add("loci", ",".join(locus.value for locus in loci) or "-")
    report.add("multiplicity", multiplicity)
    report.add("canonical_rep", f"({coordinate(rep[0])}, {coordinate(rep[1])})")
    return report


def classify_float(alpha: float, beta: float, gamma: float) -> Report:
    """The classify report of angles that are not exact p/q*pi, at their float torus point."""
    return _classify_report(*_float_triangle(alpha, beta, gamma))


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> Report:
    return _classify_report(*_triangle(_parse_three_angles(args.angles, args.format)))


def cmd_map(args) -> Report:
    angles = _parse_three_angles(args.angles, args.format)
    if not all(isinstance(a, PiRational) for a in angles):
        raise ParseError("map requires exact rational angles; use classify for floats")
    report = _classify_report(*_triangle(angles))  # classify's own lines, so they cannot drift
    report.items = [(key, value) for key, value in report.items
                    if key in ("sheet", "torus.xi1", "torus.xi2", "orientation")]
    return report


def cmd_invert(args) -> Report:
    p = TorusPoint(parse_pi_rational(args.xi1), parse_pi_rational(args.xi2))
    preimages = torus.rho_preimages(p)
    report = Report()
    report.add("point", str(p))
    report.add("count", len(preimages))
    for i, t in enumerate(preimages, start=1):
        report.add(f"preimage.{i}", f"{t} sheet={t.sheet.value}")
    return report


def cmd_orbit(args) -> Report:
    p = TorusPoint(parse_pi_rational(args.xi1), parse_pi_rational(args.xi2))
    orb = sorted(symmetry.orbit(p), key=TorusPoint.key)
    c = torus.classify(p)
    report = Report()
    report.add("point", str(p))
    report.add("orbit_size", len(orb))
    report.add("multiplicity", c.multiplicity)
    report.add("canonical_rep", str(c.canonical_rep))
    for i, q in enumerate(orb, start=1):
        report.add(f"element.{i}", str(q))
    return report


def _check_sampling(args) -> None:
    if args.samples < 0:
        raise ParseError("--samples must not be negative")
    if args.samples > sys.maxsize // 16:  # more 16-byte rows than an array can index
        raise ParseError("--samples is too large")
    if args.seed < 0:
        raise ParseError("--seed must not be negative")


def cmd_measure(args) -> Report:
    _check_sampling(args)
    analytic = measure_mod.analytic_measures()._asdict()
    ratios = analytic.pop("ratios")
    report = Report()
    for key, value in analytic.items():
        report.add(f"analytic.{key}", _fmt_float(value))
    for name, value in ratios.items():
        report.add(f"ratio.{name}", _fmt_float(value))
    if args.samples > 0:
        report.add("mc.algorithm", measure_mod.RNG_ALGORITHM)
        report.add("mc.seed", args.seed)
        report.add("mc.samples", args.samples)
        for region, count in measure_mod.sample_counts(args.seed, args.samples).items():
            est = measure_mod.McEstimate.from_count(count, args.samples, args.seed)
            report.add(f"mc.{region.value}.probability", _fmt_float(est.probability))
            report.add(f"mc.{region.value}.stderr", _fmt_float(est.standard_error))
    return report


def cmd_path(args) -> Report:
    if len(args.start) == 3:
        # checked as classify checks it; an exact start is exact, so that on a locus it lies on it
        x, y, half, tol = _triangle(_parse_three_angles(args.start, args.format))[2]
        start = (x, y) if tol else (PiRational(x, half).radians, PiRational(y, half).radians)
    elif len(args.start) == 2:
        if args.format != "pi-rational":
            raise ParseError("--format applies to three angles; two coordinates are p/q only")
        try:
            start = tuple(parse_pi_rational(c).radians for c in args.start)
        except OverflowError:
            raise ParseError("start is too large for a float") from None
        if not all(math.isfinite(c) for c in start):
            raise ParseError("start is too large for a float")
    else:
        raise ParseError("start must be two torus coordinates or three angles")

    velocity = (args.velocity[0], args.velocity[1])
    if not all(math.isfinite(v) for v in velocity):
        raise ParseError("velocity must be finite")
    if args.steps < 1:
        raise ParseError("--steps must be at least 1")
    if args.steps > sys.float_info.max:  # steps * step_size would not convert
        raise ParseError("--steps is too large for a float")
    if not (math.isfinite(args.step_size) and args.step_size > 0.0):
        raise ParseError("--step-size must be positive and finite")
    events = trace_path(start, velocity, args.steps, args.step_size)

    report = Report()
    report.add("start", f"({_fmt_float(start[0])}, {_fmt_float(start[1])})")
    report.add("velocity", f"({_fmt_float(velocity[0])}, {_fmt_float(velocity[1])})")
    report.add("orientation.start", torus.SIGNS[pathtrace.orientation_sign(start)].value)
    for i, ev in enumerate(events, start=1):
        fields = [f"kind={ev.kind.value}", f"step={ev.step_index}"]
        fields.append(
            f"position=({_fmt_float(ev.refined_position[0])}, {_fmt_float(ev.refined_position[1])})"
        )
        if ev.locus is not None:
            fields.append(f"locus={ev.locus.value}")
            fields.append(f"residue={_fmt_float(pathtrace.residue(ev.locus, ev.refined_position))}")
        if ev.kind is EventKind.ORIENTATION_FLIP:
            # probe where the crossed locus's residue is 1e-6, whatever the angle of the path
            a, b, _ = torus.LOCUS_EQUATIONS[ev.locus]
            eps = 1e-6 / abs(a * velocity[0] + b * velocity[1])
            x, y = ev.refined_position
            for side, t in (("before", -eps), ("after", eps)):
                sign = pathtrace.orientation_sign((x + t * velocity[0], y + t * velocity[1]))
                fields.append(f"orientation_{side}={torus.SIGNS[sign].value}")
        report.add(f"event.{i}", " ".join(fields))
    return report


def cmd_plot(args) -> Report:
    _check_sampling(args)
    samples = None
    if args.samples > 0:
        try:
            samples = measure_mod.sample_uniform(args.seed, args.samples)
        except MemoryError:
            raise ParseError("--samples does not fit in memory") from None
    svg = svgplot.render_fundamental_domain(samples=samples, include_anti=args.anti)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc}") from None
    report = Report()
    report.add("wrote", args.out)
    return report


# ---------------------------------------------------------------------------


def _angles(p):
    p.add_argument("angles", nargs=3)


def _point(p):
    p.add_argument("xi1")
    p.add_argument("xi2")


def _sampling(p):
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)


def _path(p):
    p.add_argument("start", nargs="+", help="two torus coordinates (p/q of pi) or three angles")
    p.add_argument("--velocity", type=float, nargs=2, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--step-size", type=float, default=0.05)


def _plot(p):
    p.add_argument("--out", required=True)
    _sampling(p)
    p.add_argument("--anti", action="store_true", help="include anti-isosceles/anti-right loci")


# subcommand: (help line, handler, argument adder, takes --format)
_COMMANDS = {
    "classify": ("full type report for three interior angles", cmd_classify, _angles, True),
    "map": ("torus image of three interior angles", cmd_map, _angles, True),
    "invert": ("triangle preimages of a torus point", cmd_invert, _point, False),
    "orbit": ("symmetry orbit of a torus point", cmd_orbit, _point, False),
    "measure": ("analytic measures and optional Monte Carlo", cmd_measure, _sampling, False),
    "path": ("trace a straight path and report locus crossings", cmd_path, _path, True),
    "plot": ("SVG of the fundamental domain", cmd_plot, _plot, False),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The tritorus parser.  Given argv's first word, it holds only that subcommand's parser
    when the word names one; any other word, or none, builds all seven, so that help, usage
    errors and "invalid choice" read as from the whole parser."""
    parser = _Parser(prog="tritorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_line, handler, add_arguments, takes_format = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if takes_format:
            p.add_argument("--format", choices=("pi-rational", "degrees", "radians"),
                           default="pi-rational",
                           help="angle input format (pi-rational 'p/q' means (p/q)*pi)")
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        report = args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
