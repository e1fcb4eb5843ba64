import math

import numpy as np
import pytest

from gspinfer.inference import RationalizablePoint, boundary, build_deviation_curve, feasible
from gspinfer.simulate import (
    BackgroundSpec,
    LearnerConfig,
    LearnerSpec,
    ListingHistory,
    MarketSpec,
    SimulationError,
    default_bid_grid,
    hedge_step,
    realized_regret,
    simulate_market,
    tuned_hedge_rate,
)


class TestHedgeStep:
    def test_uniform_fixed_point(self):
        w = np.full(4, 0.25)
        out = hedge_step(w, np.full(4, 0.37), eta=0.5)
        assert np.allclose(out, w)

    def test_zero_rate_identity(self):
        w = np.array([0.1, 0.2, 0.7])
        out = hedge_step(w, np.array([1.0, -1.0, 0.5]), eta=0.0)
        assert np.allclose(out, w)

    def test_exp_weight_arithmetic(self):
        out = hedge_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), eta=math.log(2.0))
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])

    def test_shift_invariance(self):
        w = np.array([0.3, 0.3, 0.4])
        p = np.array([0.5, -0.2, 0.1])
        a = hedge_step(w, p, eta=0.7)
        b = hedge_step(w, p + 123.4, eta=0.7)
        assert np.allclose(a, b)

    def test_non_finite_payoff_rejected(self):
        with pytest.raises(SimulationError):
            hedge_step(np.array([0.5, 0.5]), np.array([1.0, math.inf]), eta=0.1)

    def test_bad_weights_rejected(self):
        with pytest.raises(SimulationError):
            hedge_step(np.array([0.5, 0.4]), np.array([0.0, 0.0]), eta=0.1)


def simple_market(competitors=2):
    return MarketSpec(
        position_curve=(1.0, 0.5),
        rank_reserve=0.05,
        mainline_reserve=0.05,
        mainline_cap=0,
        background=BackgroundSpec(count=competitors, bid_low=0.1, bid_high=0.9,
                                  score_low=1.0, score_high=1.0,
                                  quality_low=0.5, quality_high=0.5),
    )


def one_learner(algorithm, value=0.7, grid=None):
    grid = grid or default_bid_grid(1.0, 0.1)
    return LearnerSpec("L000", value, LearnerConfig(algorithm, grid))


class TestSimulateMarket:
    def test_rejects_bad_horizon(self):
        with pytest.raises(SimulationError):
            simulate_market(simple_market(), [one_learner("hedge")], periods=0, auctions_per_period=1, seed=0)

    def test_rejects_empty_roster(self):
        with pytest.raises(SimulationError):
            simulate_market(simple_market(), [], periods=5, auctions_per_period=1, seed=0)

    def test_same_seed_identical_histories(self):
        args = (simple_market(), [one_learner("hedge")], 20, 2, 123)
        assert simulate_market(*args) == simulate_market(*args)

    def test_different_seed_differs(self):
        a = simulate_market(simple_market(), [one_learner("hedge")], 20, 2, 1)
        b = simulate_market(simple_market(), [one_learner("hedge")], 20, 2, 2)
        assert a != b

    def test_bids_stay_on_grid(self):
        grid = default_bid_grid(1.0, 0.1)
        hist, = simulate_market(simple_market(), [one_learner("epsilon_greedy", grid=grid)], 30, 1, 5)
        for rec in hist.periods:
            assert rec.own_bid in grid

    def test_best_response_settles_after_first_period(self):
        # static opponents: a single fixed background draw each period
        spec = MarketSpec(
            position_curve=(1.0, 0.5),
            rank_reserve=0.0,
            mainline_reserve=0.0,
            mainline_cap=0,
            background=BackgroundSpec(count=1, bid_low=0.4, bid_high=0.4,
                                      score_low=1.0, score_high=1.0,
                                      quality_low=0.5, quality_high=0.5),
        )
        grid = default_bid_grid(1.0, 0.05)
        hist, = simulate_market(spec, [one_learner("fixed_best_response", value=0.7, grid=grid)], 10, 1, 9)
        bids = [rec.own_bid for rec in hist.periods]
        # brute-force the per-period argmax against the static environment
        from gspinfer.auction import deviation_profile

        params = hist.periods[0].auction_sample[0]
        ps, cs = deviation_profile(params, "L000", grid)
        payoff = [0.7 * p - c for p, c in zip(ps, cs)]
        best = grid[max(range(len(grid)), key=lambda k: (payoff[k], -k))]
        assert all(b == best for b in bids[1:])

    def test_history_carries_truth_and_player_entry(self):
        hist, = simulate_market(simple_market(), [one_learner("hedge", value=0.61)], 5, 2, 3)
        assert hist.truth == 0.61
        for rec in hist.periods:
            for params in rec.auction_sample:
                assert params.entry("L000").bid == rec.own_bid

    def test_drift_schedule_rotates_background_bids(self):
        spec = MarketSpec(
            position_curve=(1.0, 0.5),
            rank_reserve=0.0,
            mainline_reserve=0.0,
            mainline_cap=0,
            background=BackgroundSpec(count=1, bid_low=0.5, bid_high=0.5,
                                      score_low=1.0, score_high=1.0,
                                      quality_low=0.5, quality_high=0.5,
                                      drift_amplitude=0.4, drift_period=8),
        )
        hist, = simulate_market(spec, [one_learner("hedge")], 8, 1, 2)
        comp_bids = [rec.auction_sample[0].entry("c000").bid for rec in hist.periods]
        assert max(comp_bids) > 0.5 > min(comp_bids)
        hist2, = simulate_market(spec, [one_learner("hedge")], 8, 1, 2)
        assert hist == hist2

    def test_multi_learner_views_are_consistent(self):
        learners = [
            LearnerSpec("L000", 0.7, LearnerConfig("hedge", default_bid_grid(1.0, 0.1))),
            LearnerSpec("L001", 0.5, LearnerConfig("hedge", default_bid_grid(1.0, 0.1))),
        ]
        h0, h1 = simulate_market(simple_market(), learners, 8, 2, 77)
        for r0, r1 in zip(h0.periods, h1.periods):
            for a0, a1 in zip(r0.auction_sample, r1.auction_sample):
                # each player's view anonymizes the other as the first competitor
                assert a0.entry("c000").bid == r1.own_bid
                assert a1.entry("c000").bid == r0.own_bid


class TestRealizedRegret:
    def test_best_response_has_no_regret_in_static_env(self):
        spec = MarketSpec(
            position_curve=(1.0, 0.5),
            rank_reserve=0.0,
            mainline_reserve=0.0,
            mainline_cap=0,
            background=BackgroundSpec(count=1, bid_low=0.4, bid_high=0.4,
                                      score_low=1.0, score_high=1.0,
                                      quality_low=0.5, quality_high=0.5),
        )
        grid = default_bid_grid(1.0, 0.05)
        hist, = simulate_market(spec, [one_learner("fixed_best_response", value=0.7, grid=grid)], 20, 1, 9)
        eps = realized_regret(hist, 0.7, grid)
        # one arbitrary first-period bid dilutes the average by at most its gap
        assert eps <= 0.0 + 0.5 / 20 + 1e-12
        # with the warm-up period dropped, every bid is the grid argmax
        trimmed = ListingHistory(hist.listing_id, hist.periods[1:], hist.truth)
        assert realized_regret(trimmed, 0.7, grid) <= 1e-12

    def test_regret_dominates_every_fixed_arm(self):
        hist, = simulate_market(simple_market(), [one_learner("hedge")], 15, 2, 31)
        grid = default_bid_grid(1.0, 0.1)
        eps = realized_regret(hist, 0.7, grid)
        curve = build_deviation_curve(hist, grid)
        for dp, dc in zip(curve.delta_p, curve.delta_c):
            assert eps >= 0.7 * dp - dc - 1e-9

    def test_matches_curve_boundary(self):
        hist, = simulate_market(simple_market(), [one_learner("epsilon_greedy")], 12, 2, 8)
        grid = default_bid_grid(1.0, 0.1)
        eps = realized_regret(hist, 0.55, grid)
        curve = build_deviation_curve(hist, grid)
        assert eps == pytest.approx(boundary(curve, 0.55), abs=1e-12)

    def test_ground_truth_containment(self):
        for seed in range(5):
            hist, = simulate_market(simple_market(), [one_learner("hedge", value=0.66)], 25, 2, seed)
            grid = default_bid_grid(1.0, 0.1)
            eps = realized_regret(hist, 0.66, grid)
            curve = build_deviation_curve(hist, grid)
            assert feasible(RationalizablePoint(0.66, eps), curve, tol=1e-9)

    def test_value_must_be_nonnegative(self):
        hist, = simulate_market(simple_market(), [one_learner("hedge")], 5, 1, 1)
        with pytest.raises(SimulationError):
            realized_regret(hist, -0.1, default_bid_grid(1.0, 0.1))


class TestHedgeRegretGuarantee:
    def test_short_horizon_regret_is_controlled(self):
        # small version of the long-horizon guarantee; the acceptance suite
        # runs the full 50-seed, T<=2000 sweep
        grid = default_bid_grid(1.0, 1.0 / 49)
        k = len(grid)
        t = 300
        vals = []
        for seed in range(8):
            hist, = simulate_market(
                simple_market(),
                [LearnerSpec("L000", 0.7, LearnerConfig("hedge", grid, learning_rate=tuned_hedge_rate(k, t)))],
                t, 1, seed,
            )
            vals.append(realized_regret(hist, 0.7, grid))
        mean = sum(vals) / len(vals)
        assert mean <= math.sqrt(math.log(k) / t) + 3.0 * np.std(vals) / math.sqrt(len(vals)) + 0.02
