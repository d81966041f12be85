"""Spans and counts around tritorus's public functions, from outside.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every
name in the tritorus modules that is bound to it, so callers that look it
up as a module attribute or as an imported global both reach the wrapper.
Spans (name, start, end, parent) and counts stay in memory until the run
writes them out; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _crossings(counts, result):
    counts["pathtrace.crossings_found"] += sum(
        1 for e in result if e.kind.value == "locus_crossing")


def _samples(counts, result):
    counts["measure.samples_drawn"] += len(result)


def _svg_bytes(counts, result):
    counts["svgplot.bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name, counter run on the result)
LAYERS = [
    ("tritorus.angles", "taxonomy", "angles.taxonomy", None),
    ("tritorus.angles", "make_triple", "angles.make_triple", None),
    ("tritorus.torus", "classify", "torus.classify", None),
    ("tritorus.torus", "rho_preimages", "torus.rho_preimages", None),
    ("tritorus.torus", "in_locus", "torus.in_locus", None),
    ("tritorus.symmetry", "orbit", "symmetry.orbit", None),
    ("tritorus.symmetry", "act", "symmetry.act", None),
    ("tritorus.pathtrace", "trace_path", "pathtrace.trace_path", _crossings),
    ("tritorus.measure", "sample_uniform", "measure.sample_uniform", _samples),
    ("tritorus.measure", "region_mask", "measure.region_mask", None),
    ("tritorus.measure", "estimate_probability", "measure.estimate_probability", None),
    ("tritorus.svgplot", "render_fundamental_domain", "svgplot.render", _svg_bytes),
    ("tritorus.cli", "build_parser", "cli.build_parser", None),
    ("tritorus.cli", "parse_angle", "cli.parse_angle", None),
    ("tritorus.cli", "classify_float", "cli.classify_float", None),
    ("tritorus.cli", "Report.emit", "cli.emit", None),
    ("tritorus.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "tritorus" or key.startswith("tritorus.")]
        for module, attr, name, count in LAYERS:
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(name, original, count)
            targets = {(id(owner), leaf): (owner, leaf)}
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        targets[(id(m), key)] = (m, key)
            for obj, key in targets.values():
                self._undo.append((obj, key, getattr(obj, key)))
                setattr(obj, key, traced)

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def summary(self) -> dict:
        """Per span name: number of calls and total inclusive seconds."""
        out: dict = {}
        for name, start, end, _ in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + end - start)
        return out
