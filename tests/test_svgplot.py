import hashlib
import math
import xml.etree.ElementTree as ET
from fractions import Fraction as F

from tritorus import cli
from tritorus.measure import sample_uniform
from tritorus.svgplot import render_fundamental_domain

SVG_NS = "{http://www.w3.org/2000/svg}"
TWO_PI = 2 * math.pi


def parse(svg_text):
    return ET.fromstring(svg_text)


def by_class(root, tag, cls):
    return [
        e for e in root.iter(SVG_NS + tag)
        if cls in e.get("class", "").split()
    ]


class TestDocument:
    def test_well_formed_xml(self):
        root = parse(render_fundamental_domain())
        assert root.tag == SVG_NS + "svg"

    def test_nine_locus_paths_by_default(self):
        root = parse(render_fundamental_domain())
        loci = by_class(root, "path", "locus")
        assert len(loci) == 9
        ids = {e.get("id") for e in loci}
        assert ids == {
            "locus-D_A", "locus-D_B", "locus-D_C",
            "locus-I_A", "locus-I_B", "locus-I_C",
            "locus-R_A", "locus-R_B", "locus-R_C",
        }

    def test_twelve_locus_paths_with_anti(self):
        root = parse(render_fundamental_domain(include_anti=True))
        loci = by_class(root, "path", "locus")
        assert len(loci) == 12
        ids = {e.get("id") for e in loci}
        assert {"locus-IPerp_A", "locus-IPerp_B", "locus-AntiRight"} <= ids

    def test_border_and_regions_present(self):
        root = parse(render_fundamental_domain())
        assert len(by_class(root, "rect", "border")) == 1
        assert len(by_class(root, "polygon", "region-positive")) == 1
        assert len(by_class(root, "polygon", "region-negative")) == 1

    def test_torsion_circles(self):
        # the isosceles points of order at most 4, in units of pi, in drawing order: the
        # identity, the equilateral pair, the degenerate isosceles with apex A, B, C, then
        # the right isosceles with apex A, B, C
        marked = [(0, 0), (F(2, 3), F(4, 3)), (F(4, 3), F(2, 3)), (1, 0), (0, 1), (1, 1),
                  (F(1, 2), 1), (F(3, 2), 1), (1, F(1, 2)), (1, F(3, 2)),
                  (F(1, 2), F(3, 2)), (F(3, 2), F(1, 2))]
        root = parse(render_fundamental_domain())
        circles = by_class(root, "circle", "torsion")
        margin, scale = 30, (640 - 60) / TWO_PI

        def xy(p):
            return (
                f"{margin + p[0] * math.pi * scale:.3f}",
                f"{640 - margin - p[1] * math.pi * scale:.3f}",
            )

        assert [(c.get("cx"), c.get("cy")) for c in circles] == [xy(p) for p in marked]


class TestSamples:
    def test_sample_circles_rendered(self):
        xi = sample_uniform(5, 200)
        root = parse(render_fundamental_domain(samples=xi))
        dots = by_class(root, "circle", "sample")
        assert len(dots) == 200

    def test_samples_split_obtuse_acute(self):
        xi = sample_uniform(5, 500)
        root = parse(render_fundamental_domain(samples=xi))
        obtuse = by_class(root, "circle", "obtuse")
        acute = by_class(root, "circle", "acute")
        assert len(obtuse) + len(acute) == 500
        # rough 3:1 split for a healthy sample
        assert len(obtuse) > len(acute)

    def test_sample_circles_inside_border(self):
        xi = sample_uniform(5, 300)
        root = parse(render_fundamental_domain(samples=xi))
        for c in by_class(root, "circle", "sample"):
            assert 30 <= float(c.get("cx")) <= 610
            assert 30 <= float(c.get("cy")) <= 610


def test_sample_plot_bytes_are_pinned(tmp_path, capsys):
    # any change to sampling, region scoring or number formatting shows up here
    out = tmp_path / "domain.svg"
    assert cli.main(["plot", "--samples", "500", "--seed", "1", "--anti", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.md5(out.read_bytes()).hexdigest() == "dae6873013b8d31ae6972b96948f0dda"


class TestLociFromTable:
    """Each drawn locus lies on its row (a, b, h) of LOCUS_EQUATIONS and covers it once."""

    def test_segments_lie_on_their_locus(self):
        from tritorus.torus import LOCUS_EQUATIONS

        root = parse(render_fundamental_domain(include_anti=True))
        margin, scale = 30, (640 - 60) / TWO_PI
        drawn = {e.get("id"): e.get("d") for e in by_class(root, "path", "locus")}
        assert len(drawn) == len(LOCUS_EQUATIONS)
        for locus, (a, b, h) in LOCUS_EQUATIONS.items():
            tokens = drawn[f"locus-{locus.value}"].split()
            assert len(tokens) % 6 == 0, locus

            def residue(xi):
                r = (a * xi[0] + b * xi[1] - h * math.pi) % TWO_PI
                return min(r, TWO_PI - r)

            length = 0.0
            for i in range(0, len(tokens), 6):
                assert tokens[i] == "M" and tokens[i + 3] == "L", locus
                ends = [
                    (
                        (float(tokens[j]) - margin) / scale,
                        (640 - margin - float(tokens[j + 1])) / scale,
                    )
                    for j in (i + 1, i + 4)
                ]
                mid = tuple((u + v) / 2 for u, v in zip(*ends))
                for xi in (*ends, mid):
                    assert residue(xi) <= 1e-6, (locus, xi)
                length += math.dist(*ends)
            # the segments add up to one closed turn along the direction (-b, a)
            assert math.isclose(length, TWO_PI * math.hypot(a, b), rel_tol=1e-9), locus
