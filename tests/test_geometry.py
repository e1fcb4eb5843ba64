import math
import random

import numpy as np
import pytest

from gspinfer.auction import AuctionParams, BidderEntry, DeviationSweep
from gspinfer.geometry import (
    GeometryError,
    RateStudyConfig,
    SingleSlotMarket,
    SupportRegion,
    hausdorff,
    link_eval,
    run_rate_study,
    support_nr,
    true_region,
)
from gspinfer.inference import (
    DeviationCurve,
    InferenceError,
    LinkFunction,
    boundary,
    check_assumptions,
    link_from_curve,
    value_interval,
)

from test_auction import auctions_to_table


class PolygonRegion:
    """Convex polygon given by its vertices; support is the max vertex dot."""

    def __init__(self, vertices):
        if len(vertices) < 1:
            raise GeometryError("polygon needs at least one vertex")
        self.vertices = [(float(x), float(y)) for x, y in vertices]

    def support(self, u: tuple[float, float]) -> float:
        u1, u2 = u
        return max(u1 * x + u2 * y for x, y in self.vertices)

    def translate(self, shift: tuple[float, float]) -> "PolygonRegion":
        dx, dy = shift
        return PolygonRegion([(x + dx, y + dy) for x, y in self.vertices])


def slopes_convex(zs, cs, tol=1e-12):
    """Whether the piecewise-linear knots have non-decreasing slopes, up to ``tol`` relative."""
    slopes = [(c1 - c0) / (z1 - z0) for z0, c0, z1, c1 in zip(zs, cs, zs[1:], cs[1:])]
    return all(s >= prev - tol * max(1.0, abs(prev)) for prev, s in zip(slopes, slopes[1:]))


def convex_link():
    return LinkFunction(z_knots=(-0.2, 0.0, 0.1), c_values=(-0.15, 0.0, 0.08))


def unit(u1, u2):
    n = math.hypot(u1, u2)
    return (u1 / n, u2 / n)


class TestLinkFunction:
    def test_eval_knot_hit(self):
        assert link_eval(convex_link(), 0.0) == 0.0

    def test_eval_interpolates(self):
        assert link_eval(convex_link(), 0.05) == pytest.approx(0.04)

    def test_eval_out_of_domain(self):
        assert math.isnan(link_eval(convex_link(), 0.2))

    @pytest.mark.parametrize("zs, cs", [((), ()), ((0.0, 0.1), (0.0,)), ((0.1, 0.1), (0.0, 0.0))])
    def test_bad_knots_rejected(self, zs, cs):
        with pytest.raises(InferenceError, match="knots"):
            LinkFunction(zs, cs)

    def test_from_curve_dedup_keeps_min_c(self):
        # among equal click changes the smallest payment change binds
        curve = DeviationCurve(
            grid=(1.0, 2.0, 3.0),
            delta_p=(0.0, 0.0, 0.1),
            delta_c=(0.02, -0.05, 0.08),
            baseline_p=0.5,
            baseline_c=0.1,
        )
        link = link_from_curve(curve)
        assert link.z_knots == (0.0, 0.1)
        assert link.c_values == (-0.05, 0.08)

    def test_from_curve_convexifies_when_icc_fails(self):
        curve = DeviationCurve(
            grid=(0.5, 1.0, 2.0),
            delta_p=(-0.2, 0.0, 0.1),
            delta_c=(-0.15, 0.0, 0.06),  # slopes 0.75 then 0.6: not convex
            baseline_p=0.4,
            baseline_c=0.2,
        )
        assert not slopes_convex(curve.delta_p, curve.delta_c)
        link = link_from_curve(curve)
        assert slopes_convex(link.z_knots, link.c_values)
        # hull keeps the endpoints and drops the middle knot
        assert link.z_knots == (-0.2, 0.1)

    def test_convex_curve_untouched(self):
        curve = DeviationCurve(
            grid=(0.5, 1.0, 2.0),
            delta_p=(-0.2, 0.0, 0.1),
            delta_c=(-0.15, 0.0, 0.08),
            baseline_p=0.4,
            baseline_c=0.2,
        )
        link = link_from_curve(curve)
        assert link.z_knots == (-0.2, 0.0, 0.1)
        assert link.c_values == (-0.15, 0.0, 0.08)


class TestLinkConvexityMatchesAssumptions:
    def test_equivalence_on_tie_free_monotone_curves(self):
        rng = random.Random(19)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 8)
            dps = sorted(rng.sample(range(-50, 51), n))
            dcs = sorted(rng.randint(-50, 50) for _ in range(n))
            curve = DeviationCurve(
                grid=tuple(0.1 * (k + 1) for k in range(n)),
                delta_p=tuple(x / 100.0 for x in dps),
                delta_c=tuple(x / 100.0 for x in dcs),
                baseline_p=0.5,
                baseline_c=0.1,
            )
            checked += 1
            zs, cs = curve.delta_p, curve.delta_c  # sorted, tie-free: every row binds
            icc_holds = slopes_convex(zs, cs)
            assert icc_holds == check_assumptions(curve).icc_increasing
            link = link_from_curve(curve)
            assert slopes_convex(link.z_knots, link.c_values)
            if icc_holds:  # the hull only drops knots that lie on it
                for z, c in zip(zs, cs):
                    assert link_eval(link, z) == pytest.approx(c, abs=1e-12)


class TestSupportNR:
    def test_upward_direction_infinite(self):
        assert support_nr(convex_link(), (0.0, 1.0)) == math.inf

    def test_curved_value(self):
        u = unit(0.05, -1.0)
        assert support_nr(convex_link(), u) == pytest.approx(abs(u[1]) * 0.04)

    def test_slope_outside_range_infinite(self):
        assert support_nr(convex_link(), unit(1.0, -1.0)) == math.inf

    @staticmethod
    def brute_force_support(curve, u):
        """``max over v >= 0`` of ``u . (v, eps(v))``, over v = 0 and every pairwise line intersection."""
        rows = list(zip(curve.delta_p, curve.delta_c))
        vs = [(c1 - c2) / (p1 - p2) for k, (p1, c1) in enumerate(rows) for p2, c2 in rows[k + 1:] if p1 != p2]
        return max(u[0] * v + u[1] * boundary(curve, v) for v in [0.0] + [v for v in vs if v > 0.0])

    def test_tied_click_changes_match_brute_force(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0, 3.0, 4.0),
            delta_p=(0.0, 0.1, 0.1, 0.2),
            delta_c=(0.0, 0.02, 0.05, 0.06),
            baseline_p=0.5,
            baseline_c=0.1,
        )
        u = (0.0995, -0.995)
        assert support_nr(link_from_curve(curve), u) == pytest.approx(0.0199, abs=1e-12)
        assert self.brute_force_support(curve, u) == pytest.approx(0.0199, abs=1e-12)

    def test_matches_brute_force_on_penny_curves_with_ties(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 8)
            dps = [rng.randint(-5, 5) / 20.0 for _ in range(n)]  # ties are common
            dcs = [rng.randint(-20, 20) / 100.0 for _ in range(n)]
            curve = DeviationCurve(
                grid=tuple(0.1 * (k + 1) for k in range(n)),
                delta_p=tuple(dps), delta_c=tuple(dcs), baseline_p=0.5, baseline_c=0.1,
            )
            link = link_from_curve(curve)
            # slopes from the v = 0 tangency rightwards are supported at some v >= 0
            z_lo = link.z_knots[link.c_values.index(min(link.c_values))]
            u = (rng.uniform(z_lo, link.z_knots[-1]), -1.0)
            assert support_nr(link, u) == pytest.approx(self.brute_force_support(curve, u), abs=1e-12)


class TestSupportNRB:
    # convex_link() has boundary height 0.15 at v = 0
    def test_top_face(self):
        assert SupportRegion(convex_link(), 0.5).support((0.0, 1.0)) == pytest.approx(0.5)

    def test_left_face_zero(self):
        assert SupportRegion(convex_link(), 0.5).support((-1.0, 0.0)) == pytest.approx(0.0)

    def test_right_corner(self):
        # the boundary meets eps_cap at (0.5 + 0.08) / 0.1 on the one knot with z > 0
        assert SupportRegion(convex_link(), 0.5).support((1.0, 0.0)) == pytest.approx(5.8)

    def test_requires_cap_above_axis_height(self):
        with pytest.raises(GeometryError):
            SupportRegion(convex_link(), 0.1)

    def test_requires_a_deviation_that_gains_clicks(self):
        with pytest.raises(GeometryError, match="right corner"):
            SupportRegion(LinkFunction(z_knots=(-0.2, 0.0), c_values=(-0.15, 0.0)), 0.5)

    def test_shallow_direction_supported_on_axis(self):
        u = unit(-1.0, -1.0)  # slope -1 below inf dP
        assert SupportRegion(convex_link(), 0.5).support(u) == pytest.approx(u[1] * 0.15)

    def test_matches_polygon_oracle_on_penny_curves(self):
        # the capped set is the polygon spanned by its top corners and the
        # boundary at v = 0, v = cap and every row-pair breakpoint in between
        rng = random.Random(41)
        fan = [(math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64)) for k in range(64)]
        checked = 0
        while checked < 300:
            n = rng.randint(2, 8)
            dps = [rng.randint(-5, 5) / 20.0 for _ in range(n)]  # ties are common
            dcs = [rng.randint(-20, 20) / 100.0 for _ in range(n)]
            if max(dps) <= 0.0:
                continue
            checked += 1
            curve = DeviationCurve(
                grid=tuple(0.1 * (k + 1) for k in range(n)),
                delta_p=tuple(dps), delta_c=tuple(dcs), baseline_p=0.5, baseline_c=0.1,
            )
            eps_cap = boundary(curve, 0.0) + rng.uniform(0.05, 0.5)
            region = SupportRegion(link_from_curve(curve), eps_cap)
            cap = region.value_cap
            assert cap == value_interval(curve, eps_cap)[1]  # the hull's corner is the row scan's, bit for bit
            rows = list(zip(dps, dcs))
            vs = [(c1 - c2) / (p1 - p2) for k, (p1, c1) in enumerate(rows) for p2, c2 in rows[k + 1:] if p1 != p2]
            lower = [(v, boundary(curve, v)) for v in [0.0, cap] + [v for v in vs if 0.0 < v < cap]]
            polygon = PolygonRegion([(0.0, eps_cap), (cap, eps_cap)] + lower)
            for u in fan:
                assert region.support(u) == pytest.approx(polygon.support(u), abs=1e-12)

    def test_bounded_below_unbounded(self):
        link = convex_link()
        region = SupportRegion(link, 0.5)
        for k in range(64):
            theta = 2 * math.pi * k / 64
            u = (math.cos(theta), math.sin(theta))
            h_b = region.support(u)
            h_nr = support_nr(link, u)
            assert math.isfinite(h_b)
            assert h_b <= h_nr + 1e-12

    def test_homogeneity_and_subadditivity(self):
        region = SupportRegion(convex_link(), 0.5)
        rng = random.Random(4)
        for _ in range(200):
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = rng.uniform(0, 2 * math.pi)
            u = (math.cos(t1), math.sin(t1))
            w = (math.cos(t2), math.sin(t2))
            lam = rng.uniform(0.1, 5.0)
            assert region.support((lam * u[0], lam * u[1])) == pytest.approx(lam * region.support(u), rel=1e-9)
            s = (u[0] + w[0], u[1] + w[1])
            if math.hypot(*s) > 1e-9:
                assert region.support(s) <= region.support(u) + region.support(w) + 1e-9


def point_to_polygon_distance(point, vertices):
    """Exact distance from a point to a convex polygon (edges + containment)."""
    px, py = point
    n = len(vertices)
    inside = True
    best = math.inf
    for k in range(n):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % n]
        ex, ey = x2 - x1, y2 - y1
        # cross product sign for containment (vertices counter-clockwise)
        if ex * (py - y1) - ey * (px - x1) < 0:
            inside = False
        seg_len2 = ex * ex + ey * ey
        if seg_len2 == 0:
            d = math.hypot(px - x1, py - y1)
        else:
            t = max(0.0, min(1.0, ((px - x1) * ex + (py - y1) * ey) / seg_len2))
            d = math.hypot(px - (x1 + t * ex), py - (y1 + t * ey))
        best = min(best, d)
    return 0.0 if inside and n >= 3 else best


def polygon_hausdorff_oracle(a, b):
    d1 = max(point_to_polygon_distance(p, b) for p in a)
    d2 = max(point_to_polygon_distance(p, a) for p in b)
    return max(d1, d2)


def random_convex_polygon(rng, scale=1.0):
    pts = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(8)]
    pts = sorted(set(pts))
    # monotone chain hull, counter-clockwise
    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


class TestHausdorff:
    def test_identical_regions_zero(self):
        poly = PolygonRegion([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert hausdorff(poly, poly) == 0.0

    def test_translate_recovers_shift(self):
        rng = random.Random(12)
        for _ in range(20):
            verts = random_convex_polygon(rng)
            if len(verts) < 3:
                continue
            poly = PolygonRegion(verts)
            d = rng.uniform(0.1, 2.0)
            shifted = poly.translate((0.0, d))
            measured = hausdorff(poly, shifted)
            assert abs(measured - d) <= max(1e-9, d * 2e-5)

    def test_axis_aligned_squares_match_oracle_exactly(self):
        a = PolygonRegion([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = PolygonRegion([(0.25, 0.1), (0.75, 0.1), (0.75, 0.6), (0.25, 0.6)])
        got = hausdorff(a, b)
        want = polygon_hausdorff_oracle(a.vertices, b.vertices)
        assert got == pytest.approx(want, abs=1e-6)

    def test_random_polygons_match_oracle_within_angular_resolution(self):
        rng = random.Random(31)
        n_dirs = 720
        for _ in range(60):
            va = random_convex_polygon(rng)
            vb = random_convex_polygon(rng)
            if len(va) < 3 or len(vb) < 3:
                continue
            got = hausdorff(PolygonRegion(va), PolygonRegion(vb), n_dirs)
            want = polygon_hausdorff_oracle(va, vb)
            radius = max(math.hypot(x, y) for x, y in va + vb)
            slack = 2.0 * radius * math.pi / n_dirs + 1e-9
            assert got <= want + 1e-9
            assert got >= want - slack

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(77)
        count = 0
        while count < 100:
            polys = [random_convex_polygon(rng) for _ in range(3)]
            if any(len(v) < 3 for v in polys):
                continue
            count += 1
            a, b, c = (PolygonRegion(v) for v in polys)
            dab = hausdorff(a, b)
            dba = hausdorff(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            dac = hausdorff(a, c)
            dcb = hausdorff(c, b)
            assert dab <= dac + dcb + 1e-9

    def test_unbounded_region_raises(self):
        class Unbounded:
            def support(self, u):
                return math.inf

        with pytest.raises(GeometryError, match="caps"):
            hausdorff(Unbounded(), PolygonRegion([(0, 0), (1, 0), (0, 1)]))


class TestHausdorffBoundByLinkError:
    def test_dh_bounded_by_sup_link_gap(self):
        # same z knots, perturbed payments, span z_max >= 1 so corner shifts
        # stay within the uniform link error
        rng = random.Random(8)
        for _ in range(40):
            zs = sorted(rng.uniform(-1.5, 1.5) for _ in range(6))
            zs[-1] = max(zs[-1], 1.05)
            if any(b - a < 1e-3 for a, b in zip(zs, zs[1:])):
                continue
            slopes = sorted(rng.uniform(0.1, 2.0) for _ in range(5))
            cs = [0.0]
            for k in range(5):
                cs.append(cs[-1] + slopes[k] * (zs[k + 1] - zs[k]))
            base = min(cs)
            cs = [c - base - rng.uniform(0.0, 0.2) for c in cs]
            link_a = LinkFunction(tuple(zs), tuple(cs))
            perturb = [rng.uniform(-0.05, 0.05) for _ in cs]
            cs_b = [c + e for c, e in zip(cs, perturb)]
            if not slopes_convex(zs, cs_b):
                continue
            link_b = LinkFunction(tuple(zs), tuple(cs_b))
            eps_cap = max(-min(cs), -min(cs_b)) + rng.uniform(0.3, 1.0)
            region_a = SupportRegion(link_a, eps_cap)
            region_b = SupportRegion(link_b, eps_cap)
            sup_gap = max(abs(e) for e in perturb)
            dh = hausdorff(region_a, region_b)
            assert dh <= sup_gap + 1e-9


class TestSingleSlotMarket:
    def test_sample_matches_auction_engine_exactly(self):
        market = SingleSlotMarket()
        rng = np.random.Generator(np.random.PCG64(5))
        rivals = rng.uniform(0.0, 1.0, size=200)
        bids = np.linspace(0.0, 1.0, 11)
        for b in bids:
            p, c = market.sample_pc(b, rivals)
            # the same auctions, one per rival draw, for the exact engine
            auctions = [
                AuctionParams(
                    entries=(BidderEntry("p", 1.0, market.quality, float(b)), BidderEntry("r", 1.0, 0.5, float(x))),
                    position_curve=(market.alpha_top, market.alpha_bottom),
                )
                for x in rivals
            ]
            sweep = DeviationSweep(auctions_to_table(auctions, "p"), "p")
            p_ref, c_ref = (float(v.sum()) for v in sweep.evaluate_many(np.full((len(auctions), 1), float(b))))
            assert p == pytest.approx(p_ref / len(rivals), abs=1e-12)
            assert c == pytest.approx(c_ref / len(rivals), abs=1e-12)

    def test_population_curve_is_sample_limit(self):
        market = SingleSlotMarket()
        rng = np.random.Generator(np.random.PCG64(7))
        rivals = rng.uniform(0.0, 1.0, size=400_000)
        for b in (0.15, 0.45, 0.8):
            p, c = market.sample_pc(b, rivals)
            p_true, c_true = market.population_pc(b)
            assert p == pytest.approx(p_true, abs=3e-3)
            assert c == pytest.approx(c_true, abs=3e-3)


class TestRateStudy:
    def test_identical_curves_give_zero_distance(self):
        cfg = RateStudyConfig(sample_sizes=(1000, 2000, 4000), replications=2)
        truth = true_region(cfg)
        rebuilt = SupportRegion(truth.link, truth.eps_cap)
        assert hausdorff(truth, rebuilt, cfg.direction_count) == 0.0

    def test_requires_three_sample_sizes(self):
        with pytest.raises(GeometryError, match="3 sample sizes"):
            run_rate_study(RateStudyConfig(sample_sizes=(1000, 2000), replications=2))

    @pytest.mark.parametrize("field, value", [("sample_sizes", (1000, 2000)), ("eps_cap", 0.0), ("direction_count", 2)])
    def test_config_rejects_before_any_region_is_built(self, field, value):
        with pytest.raises(GeometryError, match=f"^{field} "):
            RateStudyConfig(**{field: value})

    def test_mini_study_decays_and_reports(self):
        cfg = RateStudyConfig(sample_sizes=(1000, 8000, 64000), replications=6, seed=11)
        res = run_rate_study(cfg)
        assert len(res.mean_dh) == 3
        assert res.mean_dh[0] > res.mean_dh[-1] > 0.0
        assert all(s >= 0 for s in res.std_dh)
        assert res.gamma_target == pytest.approx(1.0 / 3.0)
        assert res.grid_sizes[0] < res.grid_sizes[-1]

    def test_replication_noise_shrinks_with_more_reps(self):
        small = run_rate_study(RateStudyConfig(sample_sizes=(1000, 4000, 16000), replications=4, seed=3))
        large = run_rate_study(RateStudyConfig(sample_sizes=(1000, 4000, 16000), replications=24, seed=3))
        # std of the mean scales like 1/sqrt(R)
        for s_small, s_large in zip(small.std_dh, large.std_dh):
            assert s_large / math.sqrt(24) < s_small / math.sqrt(4) * 2.5 + 1e-12
