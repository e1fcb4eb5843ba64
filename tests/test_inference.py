import math
import pickle
import random
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspinfer import inference
from gspinfer.auction import BLOCK_CELLS, AuctionParams, BidderEntry, row_to_auction
from gspinfer.cli import main
from gspinfer.inference import (
    DEFAULT_PRECISION,
    FEASIBILITY_TOL,
    DeviationCurve,
    InferenceError,
    PointPrediction,
    boundary,
    build_deviation_curve,
    build_region,
    check_assumptions,
    default_value_cap,
    feasible_values_mult,
    link_from_curve,
    min_additive_regret,
    min_additive_regret_bisect,
    min_mult_regret,
    value_interval,
)
from gspinfer.pipeline import AccountSummary, InferenceConfig, ListingArtifacts, export, infer_account, ingest

import row_scans
from row_scans import exact, icc, tuple_curve
from test_auction import CellSweep, auctions_to_table, random_params


@dataclass(frozen=True)
class RationalizablePoint:
    """A candidate (value-per-click, additive regret) pair."""

    value: float
    epsilon: float


def feasible(point: RationalizablePoint, curve: DeviationCurve, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff ``v * dP(b') <= dC(b') + eps`` holds for every grid bid."""
    if point.value < 0:
        raise InferenceError(f"value must be non-negative (got {point.value})")
    v, eps = point.value, point.epsilon
    for dp, dc in zip(curve.delta_p, curve.delta_c):
        if v * dp > dc + eps + tol:
            return False
    return True


def micro_curve(with_identity=False):
    """The two-deviation fixture: rows (0.1, 0.06) and (-0.2, -0.15)."""
    if with_identity:
        return DeviationCurve(
            grid=(0.5, 1.0, 2.0),
            delta_p=(-0.2, 0.0, 0.1),
            delta_c=(-0.15, 0.0, 0.06),
            baseline_p=0.4,
            baseline_c=0.2,
        )
    return DeviationCurve(
        grid=(0.5, 2.0),
        delta_p=(-0.2, 0.1),
        delta_c=(-0.15, 0.06),
        baseline_p=0.4,
        baseline_c=0.2,
    )


def random_monotone_curve(rng: random.Random, max_rows=8, force_positive_dp=True):
    """Penny-scale monotone rows, moderately conditioned for oracle tests."""
    n = rng.randint(2, max_rows)
    dps = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
    while force_positive_dp and max(dps) <= 0:
        dps = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
    dcs = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
    grid = tuple(round(0.1 * (k + 1), 2) for k in range(n))
    p0 = rng.randint(10, 100) / 100.0
    c0 = rng.randint(0, 60) / 100.0 * p0
    return DeviationCurve(grid=grid, delta_p=tuple(dps), delta_c=tuple(dcs), baseline_p=p0, baseline_c=c0)


def best_deviation(curve: DeviationCurve, v: float) -> float:
    """Grid bid maximizing ``v * dP - dC``; ties go to the smaller bid."""
    if v < 0:
        raise InferenceError(f"value must be non-negative (got {v})")
    best_bid = curve.grid[0]
    best_val = -math.inf
    for b, dp, dc in zip(curve.grid, curve.delta_p, curve.delta_c):
        val = v * dp - dc
        if val > best_val:
            best_val = val
            best_bid = b
    return best_bid


def min_mult_regret_bisect(
    curve: DeviationCurve,
    precision: float = DEFAULT_PRECISION,
    v_max: float = math.inf,
) -> PointPrediction:
    """Reference for ``min_mult_regret``: bisection on the feasibility of ``delta``.

    Maintains ``(lo, hi)`` with the value set empty at ``lo`` and non-empty at
    ``hi``; stops when ``hi - lo < precision`` or the value interval at ``hi``
    is narrower than ``precision``. The value prediction is the midpoint of
    the interval at the accepted regret level. Each feasibility test is the
    row scan's, on the curve as tuples, so the oracle shares no array code
    with ``min_mult_regret``.
    """
    if precision <= 0:
        raise InferenceError(f"precision must be positive (got {precision})")
    rows = tuple_curve(curve)
    interval = row_scans.feasible_values_mult(rows, 0.0, v_max)
    iterations = 0
    if interval is None:
        hi = 1.0 - precision
        interval = row_scans.feasible_values_mult(rows, hi, v_max)
        if interval is None:
            raise InferenceError("not rationalizable under value cap")
        lo = 0.0
        while hi - lo >= precision and interval[1] - interval[0] >= precision:
            mid = 0.5 * (lo + hi)
            trial = row_scans.feasible_values_mult(rows, mid, v_max)
            iterations += 1
            if trial is None:
                lo = mid
            else:
                hi = mid
                interval = trial
        delta_star = hi
    else:
        delta_star = 0.0
    if not math.isfinite(interval[1]):
        raise InferenceError("value interval is unbounded; pass a finite value cap")
    v_star = 0.5 * (interval[0] + interval[1])
    return PointPrediction(
        delta_star=delta_star,
        v_star=v_star,
        v_interval=interval,
        iterations=iterations,
    )


class TestDeviationCurve:
    @pytest.mark.parametrize("grid", [(math.nan,), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_grid_rejected(self, grid):
        zeros = (0.0,) * len(grid)
        with pytest.raises(InferenceError, match="must be finite"):
            DeviationCurve(grid=grid, delta_p=zeros, delta_c=zeros, baseline_p=0.5, baseline_c=0.1)

    def test_columns_are_read_only_float64_copies(self):
        dps = np.array([-0.2, 0.1])
        curve = DeviationCurve(grid=[0.5, 2], delta_p=dps, delta_c=(-0.15, 0.06), baseline_p=0.4, baseline_c=0.2)
        dps[0] = 1.0
        assert curve == micro_curve() and curve.delta_p[0] == -0.2
        unpickled = pickle.loads(pickle.dumps(curve))  # as a worker process returns it
        assert unpickled == curve
        for column in (curve.grid, curve.delta_p, curve.delta_c, unpickled.grid, unpickled.delta_p, unpickled.delta_c):
            assert column.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0


class TestNonFiniteArguments:
    # each used to answer: an IndexError or inf, every value, a NaN bound, a NaN bound, a prediction
    @pytest.mark.parametrize("v", [math.nan, math.inf, -0.1])
    def test_boundary_needs_a_finite_non_negative_value(self, v):
        with pytest.raises(InferenceError, match="v must be finite and non-negative"):
            boundary(micro_curve(), v)

    def test_value_interval_rejects_nan_eps(self):
        with pytest.raises(InferenceError, match="eps must not be NaN"):
            value_interval(micro_curve(), math.nan)

    def test_value_interval_rejects_nan_cap(self):
        with pytest.raises(InferenceError, match="v_max must not be NaN"):
            value_interval(micro_curve(), 0.02, v_max=math.nan)
        assert value_interval(micro_curve(), 0.02, v_max=math.inf) == value_interval(micro_curve(), 0.02)

    def test_feasible_values_mult_rejects_nan_cap(self):
        with pytest.raises(InferenceError, match="v_max must not be NaN"):
            feasible_values_mult(micro_curve(), 0.2, v_max=math.nan)

    def test_min_mult_regret_rejects_nan_precision(self):
        with pytest.raises(InferenceError, match="precision must be positive"):
            min_mult_regret(micro_curve(), precision=math.nan, v_max=1.4)


class TestFeasibility:
    def test_micro_point_feasible(self):
        assert feasible(RationalizablePoint(0.7, 0.01), micro_curve())

    def test_micro_point_infeasible(self):
        assert not feasible(RationalizablePoint(0.7, 0.009), micro_curve())

    def test_large_eps_at_zero_value(self):
        curve = micro_curve()
        assert feasible(RationalizablePoint(0.0, 1000.0), curve)

    def test_negative_value_rejected(self):
        with pytest.raises(InferenceError):
            feasible(RationalizablePoint(-0.1, 0.0), micro_curve())


class TestValueInterval:
    def test_micro_interval(self):
        lo, hi = value_interval(micro_curve(), 0.02)
        assert lo == pytest.approx(0.65, abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-12)

    def test_micro_degenerate(self):
        lo, hi = value_interval(micro_curve(), 0.01)
        assert lo == pytest.approx(0.7, abs=1e-9)
        assert hi == pytest.approx(0.7, abs=1e-9)

    def test_micro_empty(self):
        assert value_interval(micro_curve(), 0.0) is None

    def test_zero_dp_row_feasibility_gate(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.0, 0.1), delta_c=(0.05, 0.2), baseline_p=0.5, baseline_c=0.1
        )
        # the dP=0 row requires 0 <= 0.05 + eps
        assert value_interval(curve, -0.04) is not None
        assert value_interval(curve, -0.06) is None

    def test_interval_monotone_in_eps(self):
        rng = random.Random(5)
        for _ in range(100):
            curve = random_monotone_curve(rng)
            e1 = rng.uniform(-0.2, 0.5)
            e2 = e1 + rng.uniform(0.0, 0.5)
            i1 = value_interval(curve, e1)
            i2 = value_interval(curve, e2)
            if i1 is not None:
                assert i2 is not None
                assert i2[0] <= i1[0] + 1e-12 and i1[1] <= i2[1] + 1e-12


class TestBoundaryAndBestDeviation:
    def test_micro_boundary(self):
        assert boundary(micro_curve(), 0.7) == pytest.approx(0.01, abs=1e-12)

    def test_boundary_at_zero(self):
        assert boundary(micro_curve(), 0.0) == pytest.approx(0.15, abs=1e-12)

    def test_identity_row_floors_boundary(self):
        curve = micro_curve(with_identity=True)
        rng = random.Random(3)
        for _ in range(50):
            assert boundary(curve, rng.uniform(0, 5)) >= 0.0

    def test_best_deviation_rows(self):
        curve = micro_curve()
        assert best_deviation(curve, 1.0) == 2.0  # 0.04 beats -0.05
        assert best_deviation(curve, 0.5) == 0.5  # 0.05 beats -0.01

    def test_best_deviation_monotone_when_icc_increasing(self):
        rng = random.Random(9)
        checked = 0
        while checked < 40:
            curve = random_monotone_curve(rng)
            if not check_assumptions(curve).icc_increasing:
                continue
            checked += 1
            vs = [k * 0.1 for k in range(0, 30)]
            bids = [best_deviation(curve, v) for v in vs]
            for a, b in zip(bids, bids[1:]):
                assert b >= a

    def test_boundary_point_is_feasible_and_tight(self):
        rng = random.Random(21)
        for _ in range(100):
            curve = random_monotone_curve(rng)
            v = rng.uniform(0, 3)
            e = boundary(curve, v)
            assert feasible(RationalizablePoint(v, e), curve)
            assert not feasible(RationalizablePoint(v, e - 1e-8), curve, tol=1e-12)


class TestMinAdditiveRegret:
    def test_micro_value(self):
        eps0, (lo, hi) = min_additive_regret(micro_curve())
        assert eps0 == pytest.approx(0.01, abs=1e-12)
        assert lo == pytest.approx(0.7, abs=1e-9) and hi == pytest.approx(0.7, abs=1e-9)

    def test_positive_dp_only_rows(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.05, 0.1), delta_c=(0.0, 0.04), baseline_p=0.5, baseline_c=0.1
        )
        eps0, interval = min_additive_regret(curve)
        assert eps0 <= 0.0 + 1e-12
        assert interval[0] == 0.0

    def test_matches_bisection_ladder(self):
        rng = random.Random(33)
        for _ in range(200):
            curve = random_monotone_curve(rng)
            exact, _ = min_additive_regret(curve)
            ladder = min_additive_regret_bisect(curve, tol=1e-10)
            assert exact == pytest.approx(ladder, abs=1e-8)

    def test_unbounded_when_all_dp_negative(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(-0.2, -0.1), delta_c=(0.1, 0.2), baseline_p=0.5, baseline_c=0.1
        )
        with pytest.raises(InferenceError, match="unbounded"):
            min_additive_regret(curve)

    def test_consistency_around_eps0(self):
        rng = random.Random(41)
        for _ in range(100):
            curve = random_monotone_curve(rng)
            eps0, _ = min_additive_regret(curve)
            assert value_interval(curve, eps0 + 1e-6) is not None
            assert value_interval(curve, eps0 - 1e-6) is None


def pairwise_eps0(curve: DeviationCurve) -> float:
    """Reference for ``min_additive_regret``: the O(n^3) breakpoint enumeration.

    The boundary minimum over ``v = 0`` and the intersection of every pair of
    half-plane lines, each checked with a full O(n) ``boundary`` call.
    """
    dps, dcs = curve.delta_p, curve.delta_c
    candidates = [0.0]
    for i in range(len(dps)):
        for j in range(i + 1, len(dps)):
            denom = dps[i] - dps[j]
            if denom != 0.0:
                v = (dcs[i] - dcs[j]) / denom
                if v > 0.0 and math.isfinite(v):
                    candidates.append(v)
    return min(boundary(curve, v) for v in candidates)


def curve_from_rows(rows) -> DeviationCurve:
    dps, dcs = zip(*rows)
    grid = tuple(0.01 * (k + 1) for k in range(len(rows)))
    return DeviationCurve(grid=grid, delta_p=dps, delta_c=dcs, baseline_p=0.5, baseline_c=0.1)


# a narrow penny range, so equal dP (and equal rows) are common
PENNIES = st.integers(-20, 20).map(lambda k: k / 100.0)
PENNY_ROWS = st.lists(st.tuples(PENNIES, PENNIES), min_size=1, max_size=12)


@st.composite
def near_collinear_rows(draw):
    """Rows on one line, each nudged by -1e-15, 0 or +1e-15."""
    slope = draw(st.integers(-50, 50)) / 100.0
    intercept = draw(PENNIES)
    dps = draw(st.lists(PENNIES, min_size=1, max_size=12))
    return [(dp, slope * dp + intercept + draw(st.sampled_from((-1e-15, 0.0, 1e-15)))) for dp in dps]


class TestHullMatchesPairwiseOracle:
    @settings(max_examples=600, deadline=None)
    @given(rows=PENNY_ROWS | near_collinear_rows())
    @example(rows=[(0.1, 0.05)])
    @example(rows=[(0.0, -0.02)])
    @example(rows=[(-0.1, 0.05)])
    @example(rows=[(-0.2, 0.1), (-0.1, -0.05), (-0.1, 0.2)])
    def test_eps0_matches_oracle(self, rows):
        curve = curve_from_rows(rows)
        if max(curve.delta_p) < 0.0:
            with pytest.raises(InferenceError, match="unbounded"):
                min_additive_regret(curve)
            return
        eps0, _ = min_additive_regret(curve)
        assert abs(eps0 - pairwise_eps0(curve)) <= 1e-15

    @pytest.mark.parametrize("seed, grid_step", [(1, 0.01), (2, 0.01), (3, 0.01), (7, 0.004)])
    def test_exact_on_simulated_curves(self, tmp_path, capsys, seed, grid_step):
        cfg = tmp_path / "cfg"
        cfg.write_text("listings = 2\nperiods = 20\nauctions_per_period = 3\n")
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(log)]) == 0
        grid = InferenceConfig(grid_step=grid_step).bid_grid()
        for history in ingest(str(log)):
            curve = build_deviation_curve(history, grid)
            assert min_additive_regret(curve)[0] == pairwise_eps0(curve)


# few values and both zeros, so that runs of equal dP and gains tying at 0.0 and -0.0 are common
SIGNED = st.sampled_from((-0.2, -0.1, -0.0, 0.0, 0.1, 0.2))


class TestArrayFormsMatchRowScans:
    """Each query on the curve's arrays returns what its row scan in ``row_scans`` returns, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(st.tuples(SIGNED, SIGNED), min_size=1, max_size=6), v=st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    @example(rows=[(0.1, 0.0), (-0.1, 0.0), (0.2, 0.1)], v=0.0)  # gains 0.0 then -0.0
    @example(rows=[(-0.1, 0.0), (0.1, 0.0), (0.2, 0.1)], v=0.0)  # gains -0.0 then 0.0
    @example(rows=[(0.1, 0.0), (0.1, -0.0)], v=0.0)  # upper bounds 0.0 then -0.0 at eps = -0.0
    @example(rows=[(0.1, -0.0), (0.1, 0.0)], v=0.0)  # upper bounds -0.0 then 0.0 at eps = -0.0
    @example(rows=[(0.1, 0.1), (0.1, 0.2), (0.2, 0.1)], v=1.0)  # dP runs a, a, b
    @example(rows=[(0.1, 0.1), (0.2, 0.2), (0.1, 0.0)], v=1.0)  # dP runs a, b, a
    @example(rows=[(0.2, -0.1), (0.1, 0.2), (0.1, 0.0)], v=1.0)  # equal dP sorted by dC
    @example(rows=[(-0.1, 0.0)], v=0.0)  # one row: a lower bound of -0.0
    @example(rows=[(0.1, 0.1)], v=1.0)  # one row
    def test_every_query_matches(self, rows, v):
        curve = curve_from_rows(rows)
        tuples = tuple_curve(curve)
        assert exact(boundary(curve, v)) == exact(row_scans.boundary(tuples, v))
        assert exact(link_from_curve(curve)) == exact(row_scans.link_from_curve(tuples))
        assert exact(check_assumptions(curve)) == exact(row_scans.check_assumptions(tuples))
        for cap in (math.inf, 1.0):
            for eps in (-0.0, 0.0, 0.05):
                assert exact(value_interval(curve, eps, cap)) == exact(row_scans.value_interval(tuples, eps, cap))
            for delta in (0.0, 0.2, 0.5):
                assert exact(feasible_values_mult(curve, delta, cap)) == exact(
                    row_scans.feasible_values_mult(tuples, delta, cap))
        if max(tuples.delta_p) > 0.0:
            for eps_cap in (-0.0, 0.0, 0.5):
                assert exact(default_value_cap(curve, eps_cap)) == exact(row_scans.default_value_cap(tuples, eps_cap))


class TestIccAndAssumptions:
    def test_icc_values(self):
        curve = micro_curve(with_identity=True)
        assert icc(tuple_curve(curve), 1, 0) == pytest.approx(0.75)
        assert icc(tuple_curve(curve), 2, 1) == pytest.approx(0.6)

    def test_icc_undefined_marker(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.1, 0.1), delta_c=(0.0, 0.05), baseline_p=0.5, baseline_c=0.1
        )
        assert icc(tuple_curve(curve), 1, 0) is None

    def test_micro_with_identity_flags_icc_violation(self):
        report = check_assumptions(micro_curve(with_identity=True))
        assert report.delta_p_monotone and report.delta_c_monotone
        assert not report.icc_increasing
        assert report.violation_sites == ((1, 2),)

    def test_increasing_icc_passes(self):
        curve = DeviationCurve(
            grid=(0.5, 1.0, 2.0),
            delta_p=(-0.2, 0.0, 0.1),
            delta_c=(-0.15, 0.0, 0.08),
            baseline_p=0.4,
            baseline_c=0.2,
        )
        report = check_assumptions(curve)
        assert report.delta_p_monotone and report.delta_c_monotone and report.icc_increasing
        assert report.violation_sites == ()

    def test_constant_dp_vacuously_increasing(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0, 3.0),
            delta_p=(0.1, 0.1, 0.1),
            delta_c=(0.0, 0.02, 0.05),
            baseline_p=0.5,
            baseline_c=0.1,
        )
        report = check_assumptions(curve)
        assert report.delta_p_monotone and report.delta_c_monotone and report.icc_increasing

    def test_non_monotone_sites_reported(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.1, 0.05), delta_c=(0.2, 0.1), baseline_p=0.5, baseline_c=0.1
        )
        report = check_assumptions(curve)
        assert not report.delta_p_monotone and not report.delta_c_monotone
        assert (0, 1) in report.violation_sites


class TestMultiplicative:
    def test_delta_zero_reduces_to_additive(self):
        rng = random.Random(55)
        for _ in range(50):
            curve = random_monotone_curve(rng)
            assert feasible_values_mult(curve, 0.0) == value_interval(curve, 0.0)

    def test_micro_degenerate_at_one_ninth(self):
        interval = feasible_values_mult(micro_curve(), 1.0 / 9.0)
        assert interval is not None
        assert interval[0] == pytest.approx(0.7, abs=1e-9)
        assert interval[1] == pytest.approx(0.7, abs=1e-9)

    def test_micro_empty_below(self):
        assert feasible_values_mult(micro_curve(), 0.05) is None

    def test_delta_domain(self):
        with pytest.raises(InferenceError):
            feasible_values_mult(micro_curve(), 1.0)
        with pytest.raises(InferenceError):
            feasible_values_mult(micro_curve(), -0.01)

    def test_micro_point_prediction(self):
        pred = min_mult_regret(micro_curve(), precision=1e-7)
        assert pred.delta_star == pytest.approx(1.0 / 9.0, abs=1e-4)
        assert pred.v_star == pytest.approx(0.7, abs=1e-4)
        assert min_additive_regret(micro_curve())[0] == pytest.approx(0.01, abs=1e-9)
        assert pred.iterations > 0
        # exact: the least ratio eps(v) / (v*P0 - C0) = 0.01 / 0.08 sits at the breakpoint v = 0.7
        assert pred.delta_star == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert pred.v_interval == pytest.approx((0.7, 0.7), abs=1e-15)

    def test_edge_parallel_to_baseline_ties(self):
        # the row (0.3, 0.15) is proportional to (P0, C0) = (0.6, 0.3), so the
        # ratio is least on the whole edge from the breakpoint v = 0.7 up to the cap
        curve = DeviationCurve(
            grid=(0.5, 1.0), delta_p=(-0.2, 0.3), delta_c=(-0.2, 0.15), baseline_p=0.6, baseline_c=0.3
        )
        pred = min_mult_regret(curve, v_max=4.0)
        assert pred.delta_star == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert pred.v_interval == (pytest.approx(0.7, abs=1e-12), 4.0)
        with pytest.raises(InferenceError, match="unbounded"):
            min_mult_regret(curve)

    def test_row_proportional_to_baseline_is_feasible_at_delta_star(self):
        # the row (0.42, 0.42) is proportional to (P0, C0) up to one ulp of C0, so its
        # coefficient cancels at delta* = 0.42 / 1.23 and only its right-hand side counts
        curve = DeviationCurve(
            grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
            delta_p=(-0.26, -0.19, -0.17, -0.12, -0.09, 0.11, 0.19, 0.42),
            delta_c=(-0.42, -0.39, -0.32, -0.29, -0.22, 0.3, 0.39, 0.42),
            baseline_p=0.81,
            baseline_c=0.8100000000000002,
        )
        delta_star = min_mult_regret(curve, v_max=20.0).delta_star
        assert delta_star == 0.3414634146341463
        assert feasible_values_mult(curve, delta_star, 20.0) == (1.3278688524590165, 20.0)
        assert feasible_values_mult(curve, delta_star - 1e-6, 20.0) is None

    def test_zero_regret_curve_gives_delta_zero(self):
        # identity row plus strictly losing deviations: (v, 0) feasible
        curve = DeviationCurve(
            grid=(0.5, 1.0, 2.0),
            delta_p=(-0.2, 0.0, 0.1),
            delta_c=(-0.1, 0.0, 0.09),
            baseline_p=0.4,
            baseline_c=0.2,
        )
        assert feasible(RationalizablePoint(0.6, 0.0), curve)
        pred = min_mult_regret(curve, v_max=5.0)
        assert pred.delta_star == 0.0
        assert pred.iterations == 0

    def test_not_rationalizable_error(self):
        # dP=0 row with dC < 0 and zero baselines: infeasible at every delta
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.0, 0.1), delta_c=(-0.5, 0.0), baseline_p=0.0, baseline_c=0.0
        )
        with pytest.raises(InferenceError, match="not rationalizable"):
            min_mult_regret(curve)

    def test_degenerate_all_zero_dp(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(0.0, 0.0), delta_c=(0.0, 0.1), baseline_p=0.5, baseline_c=0.2
        )
        interval = feasible_values_mult(curve, 0.3, v_max=4.0)
        assert interval is not None
        assert interval[1] == 4.0
        pred = min_mult_regret(curve, v_max=4.0)
        assert pred.delta_star == 0.0

    def test_mult_additive_consistency(self):
        rng = random.Random(77)
        for _ in range(100):
            curve = random_monotone_curve(rng)
            try:
                pred = min_mult_regret(curve, v_max=20.0)
                eps0, _ = min_additive_regret(curve)
            except InferenceError:
                continue
            implied = (
                pred.delta_star / (1.0 - pred.delta_star)
                * (pred.v_star * curve.baseline_p - curve.baseline_c)
            )
            assert implied >= eps0 - 1e-6


def compare_with_bisection(curve: DeviationCurve, precision: float, v_max: float) -> None:
    """``min_mult_regret`` against the bisection oracle: the same outcome, ``delta*`` and ``v*`` close.

    The bisection may accept slightly below ``delta*`` through the
    feasibility slack. It stops at most ``precision`` above ``delta*`` when
    it stops on the gap rule; its second rule (value interval narrower than
    ``precision``) can stop it further above, so there only the upper side is
    checked. One known difference: with the cap exactly at ``C0/P0`` the
    bisection accepts ``1 - precision`` through the slack alone (the
    deviation utility is 0 at the cap), and the exact search finds no value.
    """
    def outcome(search):
        try:
            return search(curve, precision=precision, v_max=v_max)
        except InferenceError as exc:
            return str(exc)

    exact, oracle = outcome(min_mult_regret), outcome(min_mult_regret_bisect)
    if isinstance(exact, str) and not isinstance(oracle, str):
        assert exact == "not rationalizable under value cap"
        assert v_max * curve.baseline_p - curve.baseline_c <= 1e-12 and oracle.delta_star == 1.0 - precision
        return
    assert type(exact) is type(oracle) and (not isinstance(exact, str) or exact == oracle)
    if isinstance(exact, str):
        return
    lo, hi = sorted(oracle.v_interval)
    assert lo - 1e-9 <= exact.v_star <= hi + 1e-9
    assert exact.delta_star - oracle.delta_star <= 1e-8
    if hi - lo >= precision or oracle.delta_star == 0.0:
        assert oracle.delta_star - exact.delta_star <= max(precision, 1e-8)


class TestExactMatchesBisection:
    def test_random_penny_curves(self):
        rng = random.Random(0xDE17A)
        for _ in range(3000):
            curve = random_monotone_curve(rng)
            for cap in (math.inf, 20.0, rng.randint(1, 100) / 100.0):
                compare_with_bisection(curve, 1e-9, cap)

    @pytest.mark.parametrize("config, seed, grid_step", [
        ("listings = 1\nperiods = 20\nauctions_per_period = 3\ngrid_step = 0.004\n", 5, 0.004),
        ("listings = 2\nperiods = 30\nauctions_per_period = 10\n", 3, None),
    ])
    def test_golden_digest_markets(self, tmp_path, capsys, config, seed, grid_step):
        # the markets of the two pinned-digest tests in test_pipeline.py
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(log)]) == 0
        _, artifacts = infer_account(ingest(str(log)), InferenceConfig(grid_step=grid_step))
        assert artifacts
        for art in artifacts.values():
            for precision in (1e-6, 1e-9):
                for cap in (art.region.value_cap, math.inf):
                    compare_with_bisection(art.curve, precision, cap)


class TestConvexity:
    def test_convex_combinations_stay_feasible(self):
        rng = random.Random(99)
        for _ in range(20):
            curve = random_monotone_curve(rng)
            for _ in range(50):
                v1, v2 = rng.uniform(0, 3), rng.uniform(0, 3)
                e1 = boundary(curve, v1) + abs(rng.gauss(0, 0.1))
                e2 = boundary(curve, v2) + abs(rng.gauss(0, 0.1))
                lam = rng.random()
                v = lam * v1 + (1 - lam) * v2
                e = lam * e1 + (1 - lam) * e2
                assert feasible(RationalizablePoint(v, e), curve)


def build_deviation_curve_per_period(history, grid) -> DeviationCurve:
    """``build_deviation_curve`` with each period's means taken and added to the running sums on their own.

    The oracle for its sweeps and block reductions: every cell comes from the per-cell reference
    ``CellSweep`` and every sum adds in the same order, so the two agree bit for bit.
    """
    grid = [float(b) for b in grid]
    bounds = history.period_bounds().tolist()
    step = max(1, BLOCK_CELLS // (len(grid) * max(b - a for a, b in zip(bounds, bounds[1:]))))
    sums = np.zeros((2, 1 + len(grid)))  # click probability, payment; column 0 is the realized bid
    for first in range(0, len(bounds) - 1, step):
        last = min(first + step, len(bounds) - 1)
        block = history.rows(bounds[first], bounds[last])
        bids = np.column_stack((block.own_bid, np.broadcast_to(grid, (len(block), len(grid)))))
        cells = CellSweep(block, history.listing_id).evaluate_many(bids)
        for start, end in zip(bounds[first:last], bounds[first + 1:last + 1]):
            rows = slice(start - bounds[first], end - bounds[first])
            for k in (0, 1):
                mean = np.add.reduce(cells[k][rows], axis=0) / (end - start)
                sums[k, 0] += mean[0]
                sums[k, 1:] += mean[1:] - mean[0]
    sums /= len(bounds) - 1
    return DeviationCurve(grid, sums[0, 1:].tolist(), sums[1, 1:].tolist(), sums[0, 0], sums[1, 0])


def curve_bits(curve: DeviationCurve) -> tuple[bytes, ...]:
    """A curve's numbers as float64 bytes, so that ``-0.0`` and ``0.0`` differ."""
    return tuple(np.asarray(x, dtype=np.float64).tobytes()
                 for x in (curve.grid, curve.delta_p, curve.delta_c, curve.baseline_p, curve.baseline_c))


@st.composite
def uneven_periods(draw):
    """A history of 1 to 40 periods of 1 to 12 random auctions each, of uneven or equal sizes, and 1 to 80 grid bids."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    periods = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 12), min_size=periods, max_size=periods)
                 | st.integers(1, 12).map(lambda n: [n] * periods))
    auctions, periods = [], []
    for t, n in enumerate(sizes, start=1):
        bid = rng.randint(0, 20) / 10.0  # the player b0's, one per period
        for _ in range(n):
            params = random_params(rng)
            auctions.append(replace(params, entries=(replace(params.entries[0], bid=bid), *params.entries[1:])))
            periods.append(t)
    grid = sorted({rng.randint(0, 300) / 100.0 for _ in range(draw(st.integers(1, 80)))})
    return auctions_to_table(auctions, "b0", periods=periods), grid


class TestBuildDeviationCurve:
    @settings(max_examples=150, deadline=None)
    @given(case=uneven_periods())
    def test_blocks_match_the_per_period_loop(self, case):
        history, grid = case
        assert curve_bits(build_deviation_curve(history, grid)) == curve_bits(
            build_deviation_curve_per_period(history, grid))

    def params_with_player(self, own_bid):
        return AuctionParams(
            entries=(
                BidderEntry("L0", 1.0, 1.0, own_bid),
                BidderEntry("c000", 1.0, 0.5, 0.52),
                BidderEntry("c001", 1.0, 0.5, 0.5),
            ),
            rank_reserve=0.25,
            mainline_reserve=0.25,
            mainline_cap=0,
            position_curve=(0.5, 0.4, 0.2),
        )

    def history(self, bids, n_auct=1):
        auctions = [self.params_with_player(b) for b in bids for _ in range(n_auct)]
        return auctions_to_table(auctions, "L0", periods=[t + 1 for t in range(len(bids)) for _ in range(n_auct)])

    @pytest.mark.parametrize("grid, message", [([], "at least one grid point"),
                                               ([0.3, 0.2, 0.8], "strictly increasing"),
                                               ([0.3, 0.3], "strictly increasing"),
                                               ([0.3, math.nan], "strictly increasing")])
    def test_grid_is_checked_before_any_sweep(self, grid, message, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the history was swept")

        monkeypatch.setattr(inference, "DeviationSweep", no_sweep)
        with pytest.raises(InferenceError, match=message):
            build_deviation_curve(self.history([0.51, 0.3]), grid)

    def test_identity_deviation_is_zero(self):
        hist = self.history([0.51, 0.51, 0.51])
        curve = build_deviation_curve(hist, [0.3, 0.51, 0.8])
        k = curve.grid.tolist().index(0.51)
        assert curve.delta_p[k] == 0.0 and curve.delta_c[k] == 0.0

    def test_losing_to_sole_winner_at_reserve(self):
        # single period, single auction: from unallocated to sole winner at r=0.3
        params = AuctionParams(
            entries=(BidderEntry("L0", 1.0, 0.5, 0.1),),
            rank_reserve=0.3,
            mainline_reserve=0.3,
            position_curve=(1.0,),
        )
        hist = auctions_to_table([params], "L0")
        curve = build_deviation_curve(hist, [0.1, 1.0])
        assert curve.delta_p[1] == pytest.approx(0.5)
        assert curve.delta_c[1] == pytest.approx(0.15)
        assert curve.baseline_p == 0.0 and curve.baseline_c == 0.0

    def test_three_point_sweep_matches_replay(self):
        from gspinfer.auction import replay_at_bid

        hist = self.history([0.51, 0.3], n_auct=2)
        grid = [0.5, 1.0, 2.0]
        curve = build_deviation_curve(hist, grid)
        for k, b in enumerate(grid):
            dp_expect = 0.0
            dc_expect = 0.0
            bounds = hist.period_bounds().tolist()
            for start, end in zip(bounds, bounds[1:]):
                ps, cs, p0s, c0s = [], [], [], []
                for a in range(start, end):
                    params = row_to_auction(hist, a)
                    p, c = replay_at_bid(params, "L0", b)
                    p0, c0 = replay_at_bid(params, "L0", float(hist.own_bid[a]))
                    ps.append(p); cs.append(c); p0s.append(p0); c0s.append(c0)
                dp_expect += sum(ps) / len(ps) - sum(p0s) / len(p0s)
                dc_expect += sum(cs) / len(cs) - sum(c0s) / len(c0s)
            assert curve.delta_p[k] == pytest.approx(dp_expect / 2, abs=1e-15)
            assert curve.delta_c[k] == pytest.approx(dc_expect / 2, abs=1e-15)
        for a, b in zip(curve.delta_p, curve.delta_p[1:]):
            assert b >= a - 1e-15
        for a, b in zip(curve.delta_c, curve.delta_c[1:]):
            assert b >= a - 1e-15

    def test_empty_history_errors(self):
        with pytest.raises(Exception):
            self.history([])


class TestRegion:
    def test_default_value_cap_formula(self):
        curve = micro_curve()
        assert default_value_cap(curve, 0.08) == pytest.approx((0.08 + 0.06) / 0.1)

    def test_region_boundary_samples(self, tmp_path):
        # the region keeps no boundary: export renders it from the curve at boundary_samples even values
        curve = micro_curve()
        region = build_region(curve, eps_cap=0.08)
        assert region.value_cap == pytest.approx(1.4)
        assert region.epsilon_min == pytest.approx(0.01)
        config = InferenceConfig(epsilon_max=0.08, boundary_samples=141)
        art = ListingArtifacts(curve, region, min_mult_regret(curve, v_max=region.value_cap), mean_bid=0.5)
        export(AccountSummary(1), {"L0": art}, config, str(tmp_path))
        rows = (tmp_path / "nr_boundary_L0.csv").read_text().splitlines()
        assert rows[0] == "v,epsilon" and len(rows) == 1 + 141
        v, e = map(float, rows[1 + 70].split(","))
        assert v == 70 * (region.value_cap / 140) and e == boundary(curve, v)
        assert v == pytest.approx(0.7) and e == pytest.approx(0.01)
        assert rows[1] == f"0.0,{boundary(curve, 0.0)!r}" and boundary(curve, 0.0) == pytest.approx(0.15)

    def test_region_needs_positive_dp(self):
        curve = DeviationCurve(
            grid=(1.0, 2.0), delta_p=(-0.2, -0.1), delta_c=(-0.2, -0.1), baseline_p=0.5, baseline_c=0.1
        )
        with pytest.raises(InferenceError):
            build_region(curve, eps_cap=0.5)
