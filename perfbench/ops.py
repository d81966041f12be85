"""The program calls that make up one op of each workload.

Only these run between the two clock reads around an op.  Arguments are
plain numbers, strings and lists, so the set-up probe can pass them on its
command line.
"""

from __future__ import annotations

import contextlib
import io

from tritorus import cli, pathtrace, torus
from tritorus.angles import PiRational


def census_point(k1: int, k2: int, n: int):
    """Classify the torsion point (2*pi*k1/n, 2*pi*k2/n) and take its order."""
    p = torus.TorusPoint(PiRational(2 * k1, n), PiRational(2 * k2, n))
    return torus.classify(p), torus.element_order(p)


def trace(start, velocity, steps: int, step_size: float):
    return pathtrace.trace_path(tuple(start), tuple(velocity), steps, step_size)


def cli_call(argv):
    """One in-process `tritorus` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def measure_and_plot(measure_argv, plot_argv):
    return cli_call(measure_argv), cli_call(plot_argv)


OPS = {
    "exact-census": census_point,
    "path-sweep": trace,
    "sample-measure": measure_and_plot,
    "cli-session": cli_call,
}
