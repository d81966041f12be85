import math

import numpy as np
import pytest

from tritorus.measure import (
    _CHUNK,
    _draws,
    _region_masks,
    McEstimate,
    Region,
    UnsupportedLocus,
    analytic_measures,
    estimate_probability,
    locus_length,
    region_mask,
    sample_counts,
    sample_uniform,
)
from tritorus.symmetry import multiplicity
from tritorus.torus import REFINE_TOL, LocusId, TorusPoint, point_facts
from tritorus.angles import PiRational

SEED = 20260823
REL = 1e-12


class TestAnalyticMeasures:
    def test_closed_forms(self):
        rep = analytic_measures()
        pi2 = math.pi**2
        assert rep.total == pytest.approx(math.sqrt(3) * pi2, rel=REL)
        assert rep.obtuse == pytest.approx(3 * math.sqrt(3) / 4 * pi2, rel=REL)
        assert rep.acute == pytest.approx(math.sqrt(3) / 4 * pi2, rel=REL)
        assert rep.isosceles == pytest.approx(6 * math.sqrt(6) * math.pi, rel=REL)
        assert rep.right == pytest.approx(3 * math.sqrt(2) * math.pi, rel=REL)
        assert rep.degenerate == pytest.approx(6 * math.sqrt(2) * math.pi, rel=REL)
        assert rep.obtuse_isosceles == pytest.approx(3 * math.sqrt(6) * math.pi, rel=REL)
        assert rep.acute_isosceles == pytest.approx(3 * math.sqrt(6) * math.pi, rel=REL)

    def test_ratios(self):
        ratios = analytic_measures().ratios
        assert ratios["O:A"] == pytest.approx(3.0, rel=REL)
        assert ratios["I:AI"] == pytest.approx(2.0, rel=REL)
        assert ratios["I:OI"] == pytest.approx(2.0, rel=REL)
        assert ratios["I:R"] == pytest.approx(2 * math.sqrt(3), rel=REL)
        assert ratios["D:R"] == pytest.approx(2.0, rel=REL)

    def test_conservation(self):
        rep = analytic_measures()
        assert rep.obtuse + rep.acute == pytest.approx(rep.total, rel=REL)

    def test_multiplicity_factors_match_witnesses(self):
        # each family's weight equals the stabilizer order of a generic member
        rep = analytic_measures()

        def p(n1, d1, n2, d2):
            return TorusPoint(PiRational(n1, d1), PiRational(n2, d2))

        generic_scalene = p(1, 5, 3, 7)          # area families
        generic_isosceles = p(1, 5, 2, 5)        # on I_A, not torsion
        generic_right = p(1, 5, 1, 1)            # on R_A, scalene otherwise
        generic_degenerate = p(2, 5, 0, 1)       # on D_A, scalene
        assert rep.total / (math.sqrt(3) * math.pi**2) == pytest.approx(
            multiplicity(generic_scalene), rel=REL
        )
        assert rep.isosceles / (3 * math.sqrt(6) * math.pi) == pytest.approx(
            multiplicity(generic_isosceles), rel=REL
        )
        assert rep.right / (3 * math.sqrt(2) * math.pi) == pytest.approx(
            multiplicity(generic_right), rel=REL
        )
        assert rep.degenerate / (3 * math.sqrt(2) * math.pi) == pytest.approx(
            multiplicity(generic_degenerate), rel=REL
        )


class TestLocusLength:
    def test_family_totals(self):
        iso = sum(locus_length(l) for l in (LocusId.I_A, LocusId.I_B, LocusId.I_C))
        right = sum(locus_length(l) for l in (LocusId.R_A, LocusId.R_B, LocusId.R_C))
        deg = sum(locus_length(l) for l in (LocusId.D_A, LocusId.D_B, LocusId.D_C))
        assert iso == pytest.approx(3 * math.sqrt(6) * math.pi, rel=REL)
        assert right == pytest.approx(3 * math.sqrt(2) * math.pi, rel=REL)
        assert deg == pytest.approx(3 * math.sqrt(2) * math.pi, rel=REL)

    def test_per_locus_is_one_third_of_family(self):
        assert locus_length(LocusId.I_A) == pytest.approx(math.sqrt(6) * math.pi, rel=REL)
        assert locus_length(LocusId.D_B) == pytest.approx(math.sqrt(2) * math.pi, rel=REL)
        assert locus_length(LocusId.R_C) == pytest.approx(math.sqrt(2) * math.pi, rel=REL)

    def test_anti_right_matches_isosceles_direction(self):
        assert locus_length(LocusId.ANTI_RIGHT) == pytest.approx(
            locus_length(LocusId.I_C), rel=REL
        )

    def test_zero_dimensional_rejected(self):
        with pytest.raises(UnsupportedLocus):
            locus_length(LocusId.EQUILATERAL3)


class TestSampling:
    def test_deterministic(self):
        a = sample_uniform(SEED, 1000)
        b = sample_uniform(SEED, 1000)
        assert np.array_equal(a, b)
        c = sample_uniform(SEED + 1, 1000)
        assert not np.array_equal(a, c)

    def test_range(self):
        xi = sample_uniform(SEED, 10000)
        assert xi.shape == (10000, 2)
        assert (xi >= 0).all() and (xi < 2 * math.pi).all()

    def test_orientation_symmetry(self):
        xi = sample_uniform(SEED, 1_000_000)
        frac = float((xi[:, 1] > xi[:, 0]).mean())
        assert abs(frac - 0.5) < 0.0015

    def test_box_uniformity(self):
        # independent oracle: counts in a fixed axis-aligned box
        xi = sample_uniform(SEED, 1_000_000)
        lo, hi = 1.0, 2.5
        inside = ((xi[:, 0] > lo) & (xi[:, 0] < hi) & (xi[:, 1] > lo) & (xi[:, 1] < hi))
        expected = (hi - lo) ** 2 / (2 * math.pi) ** 2
        stderr = math.sqrt(expected * (1 - expected) / len(xi))
        assert abs(float(inside.mean()) - expected) < 3 * stderr

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_uniform(SEED, 0)


class TestEstimates:
    def test_obtuse_three_quarters(self):
        est = estimate_probability(Region.OBTUSE, 1_000_000, SEED)
        assert isinstance(est, McEstimate)
        assert abs(est.probability - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 1e6)

    def test_acute_one_quarter(self):
        est = estimate_probability(Region.ACUTE, 1_000_000, SEED)
        assert abs(est.probability - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 1e6)

    def test_orientations_split_evenly(self):
        pos = estimate_probability(Region.POSITIVE_ORIENTATION, 1_000_000, SEED)
        neg = estimate_probability(Region.NEGATIVE_ORIENTATION, 1_000_000, SEED)
        assert abs(pos.probability - 0.5) < 0.0015
        assert pos.probability + neg.probability == pytest.approx(1.0, abs=1e-9)

    def test_obtuse_acute_partition(self):
        xi = sample_uniform(SEED, 200_000)
        obt = region_mask(xi, Region.OBTUSE)
        acu = region_mask(xi, Region.ACUTE)
        assert not (obt & acu).any()
        # boundary hits are measure-zero: empirically none
        assert (obt | acu).mean() == pytest.approx(1.0, abs=1e-4)

    def test_acute_fraction_within_positive_sheet(self):
        # constant-Jacobian oracle: among positively oriented samples the
        # acute fraction is the same area ratio 1/4
        xi = sample_uniform(SEED, 1_000_000)
        pos = region_mask(xi, Region.POSITIVE_ORIENTATION)
        acu = region_mask(xi, Region.ACUTE)
        frac = float(acu[pos].mean())
        n = int(pos.sum())
        assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)

    def test_stderr_formula(self):
        est = estimate_probability(Region.OBTUSE, 10_000, SEED)
        expect = math.sqrt(est.probability * (1 - est.probability) / 10_000)
        assert est.standard_error == pytest.approx(expect, rel=1e-12)
        assert est.samples == 10_000 and est.seed == SEED


def mask_counts(xi):
    """Samples in each region, counted on ``region_mask``."""
    return {region: int(np.count_nonzero(region_mask(xi, region))) for region in Region}


TWO_PI = 2 * math.pi

# rows on or within REFINE_TOL of the loci that bound the regions
BOUNDARY_ROWS = [
    (1.0, 1.0),                                  # diagonal, D_C
    (2.0, 2.0 + 0.5 * REFINE_TOL),
    (0.0, 1.0),                                  # xi1 = 0, D_B
    (0.0, 4.0),
    (1.0, TWO_PI - 0.1 * REFINE_TOL),            # xi2 just below 2*pi, D_A
    (1.0, math.pi),                              # xi2 = pi exactly, R_A
    (4.0, math.pi),
    (1.0, math.pi + 0.75 * REFINE_TOL),          # within the tolerance of a right angle
    (math.pi - 0.75 * REFINE_TOL, 5.0),          # R_B
    (0.5, 0.5 + math.pi + 0.5 * REFINE_TOL),     # R_C
    (1.0, math.pi + 4 * REFINE_TOL),             # just outside it, on either side
    (1.0, math.pi - 4 * REFINE_TOL),
]


class TestRegionCounts:
    def test_boundary_rows(self):
        xi = np.array(BOUNDARY_ROWS)
        for row in xi[:10]:
            counts = mask_counts(row[None, :])
            assert counts[Region.OBTUSE] == counts[Region.ACUTE] == 0
        outside = mask_counts(xi[10:])
        assert outside[Region.OBTUSE] + outside[Region.ACUTE] == 2

    @pytest.mark.parametrize("seed", [1, 9, SEED])
    @pytest.mark.parametrize("n", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 400_000])
    def test_streamed_pass_equals_the_whole_draw(self, seed, n):
        # the rows rng.uniform draws whole, bit for bit, and the counts scored on them
        whole = np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(n, 2))
        assert np.array_equal(sample_uniform(seed, n), whole)
        assert np.array_equal(np.concatenate([b.copy() for b in _draws(seed, n, _CHUNK)]), whole)
        counts = sample_counts(seed, n)
        assert list(counts) == list(Region)
        assert counts == mask_counts(whole)

    @pytest.mark.parametrize("region", list(Region))
    def test_estimate_is_the_mask_mean(self, region):
        n = 3 * _CHUNK + 5
        est = estimate_probability(region, n, SEED)
        assert est.probability == region_mask(sample_uniform(SEED, n), region).mean()


def _moved(values):
    """Each value, moved by up to 5 ulp and by 0.5 to 4 tolerances either way."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for direction in (np.inf, -np.inf):
        step = values
        for _ in range(5):
            step = np.nextafter(step, direction)
            out.append(step)
    for k in (0.5, 0.75, 1.0, 1.5, 2.0, 4.0):
        out += [values + k * REFINE_TOL, values - k * REFINE_TOL]
    return np.concatenate(out)


def _adversarial_rows():
    """Rows on and around every boundary of the regions: a grid of the coordinates 0,
    pi/2, pi, 3*pi/2 and 2*pi, each moved, and rows near xi2 = xi1 and xi2 = xi1 +- pi."""
    edges = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, np.nextafter(TWO_PI, 0.0)]
    coords = _moved(edges)
    grid = np.stack(np.meshgrid(coords, coords), axis=-1).reshape(-1, 2)
    x = np.concatenate([np.random.default_rng(SEED).uniform(0.0, TWO_PI, 800), coords])
    near = [np.stack([np.repeat(x, 23), _moved(x + shift).reshape(23, -1).T.ravel()], axis=1)
            for shift in (0.0, math.pi, -math.pi)]
    rows = np.concatenate([grid, *near])
    return rows[(rows >= 0.0).all(axis=1) & (rows < TWO_PI).all(axis=1)]


def _least_angle_rows():
    """Rows whose least doubled angle d lies within a few ulps of pi of REFINE_TOL, either
    way: d is xi1, xi2, xi2 - xi1 or 2*pi - max, rounded through pi by the residue."""
    d = REFINE_TOL + np.spacing(math.pi) * np.arange(-24, 25) / 4.0
    rows = []
    for base in (1.0, 2.5, math.pi, 4.0, 5.5):
        for v in d:
            rows += [(v, base), (base, v), (base, base + v), (base + v, base),
                     (base, TWO_PI - v), (TWO_PI - v, base)]
    return np.array(rows)


def test_region_masks_match_point_facts():
    xi = np.concatenate([_adversarial_rows(), _least_angle_rows()])
    assert len(xi) > 45_000
    got = _region_masks(xi)
    expect = {region: [] for region in Region}
    for x, y in xi.tolist():
        sign, flags, _, _ = point_facts(x, y, math.pi, REFINE_TOL)
        expect[Region.OBTUSE].append(flags.obtuse)
        expect[Region.ACUTE].append(flags.acute)
        expect[Region.POSITIVE_ORIENTATION].append(sign == 1)
        expect[Region.NEGATIVE_ORIENTATION].append(sign == -1)
    for region in Region:
        assert np.array_equal(got[region], np.array(expect[region])), region
