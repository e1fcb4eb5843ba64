import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspinfer.auction import BLOCK_CELLS, DeviationSweep, row_to_auction
from gspinfer.inference import boundary, build_deviation_curve
from gspinfer.pipeline import default_bid_grid
from gspinfer.simulate import (
    ALGORITHMS,
    BackgroundSpec,
    LearnerConfig,
    LearnerSpec,
    MarketSpec,
    SimulationError,
    _LearnerState,
    hedge_step,
    realized_regret,
    simulate_market,
    tuned_hedge_rate,
)

from test_auction import auctions_to_table
from test_inference import RationalizablePoint, feasible


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

    def test_underflow_of_every_weight_names_the_rate(self):
        # the best arm has weight 0 and every other weight underflows: 0 / 0 used to make NaN weights
        with pytest.raises(SimulationError, match="learning_rate 1e\\+06 is too large"):
            hedge_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), eta=1e6)


def hedge_state(weights, seed):
    """A hedge learner on the grid 0, 1, ..., so its bid is its arm, with the given weights."""
    state = _LearnerState(LearnerSpec("L000", 0.5, LearnerConfig("hedge", range(len(weights)))), 10,
                          np.random.default_rng(seed), 1.0)
    state.weights = np.asarray(weights, dtype=float)
    return state


class TestHedgeDraw:
    @pytest.mark.parametrize("kind", ["random", "one-hot", "single arm", "exact zeros"])
    def test_draw_is_rng_choice_and_consumes_the_same_stream(self, kind):
        shapes = np.random.default_rng(99)
        for seed in range(200):
            k = 1 if kind == "single arm" else int(shapes.integers(2, 60))
            weights = shapes.random(k) ** 3
            if kind == "one-hot":
                weights = np.eye(k)[shapes.integers(k)]
            elif kind == "exact zeros":
                weights[shapes.integers(k, size=k // 2)] = 0.0
                weights[shapes.integers(k)] += 0.5
            weights = weights / weights.sum()
            state, rng = hedge_state(weights, seed), np.random.default_rng(seed)
            for _ in range(5):
                assert state.commit() == rng.choice(k, p=weights)
            assert state.rng.random() == rng.random()


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

    @pytest.mark.parametrize("algorithm", ["hedge", "epsilon_greedy", "fixed_best_response"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_learner_value_is_rejected_before_any_draw(self, monkeypatch, algorithm, value):
        # NaN and inf used to reach the log (which ingest rejects) or fail late inside hedge
        def no_draws(*args):
            raise AssertionError("drew the background")

        monkeypatch.setattr(BackgroundSpec, "draws", no_draws)
        with pytest.raises(SimulationError, match="truth value must be non-negative and finite"):
            simulate_market(simple_market(), [one_learner(algorithm, value=value)], 3, 2, 0)

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
        for bid in hist.own_bid.tolist():
            assert bid in grid

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
        bids = hist.own_bid[hist.period_bounds()[:-1]].tolist()
        # brute-force the per-period argmax against the static environment
        from test_auction import deviation_profile

        params = row_to_auction(hist, 0)
        ps, cs = deviation_profile(params, "L000", grid)
        payoff = [0.7 * p - c for p, c in zip(ps, cs)]
        best = grid[max(range(len(grid)), key=lambda k: (payoff[k], -k))]
        assert all(b == best for b in bids[1:])

    def test_history_carries_truth_and_player_entry(self):
        hist, = simulate_market(simple_market(), [one_learner("hedge", value=0.61)], 5, 2, 3)
        assert hist.truth == 0.61
        bounds = hist.period_bounds().tolist()
        assert len(bounds) == 6 and len(hist) == 10
        for start, end in zip(bounds, bounds[1:]):
            for a in range(start, end):
                assert row_to_auction(hist, a).entry("L000").bid == hist.own_bid[start]

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
        comp_bids = [row_to_auction(hist, a).entry("c000").bid for a in hist.period_bounds()[:-1]]
        assert max(comp_bids) > 0.5 > min(comp_bids)
        hist2, = simulate_market(spec, [one_learner("hedge")], 8, 1, 2)
        assert hist == hist2

    def test_multi_learner_views_are_consistent(self):
        learners = [
            LearnerSpec("L000", 0.7, LearnerConfig("hedge", default_bid_grid(1.0, 0.1))),
            LearnerSpec("L001", 0.5, LearnerConfig("hedge", default_bid_grid(1.0, 0.1))),
        ]
        h0, h1 = simulate_market(simple_market(), learners, 8, 2, 77)
        assert len(h0) == len(h1) == 16
        for a in range(len(h0)):
            a0, a1 = row_to_auction(h0, a), row_to_auction(h1, a)
            # each player's view anonymizes the other as the first competitor
            assert a0.entry("c000").bid == h1.own_bid[a]
            assert a1.entry("c000").bid == h0.own_bid[a]

    def test_without_background_competitors(self):
        spec = MarketSpec(position_curve=(1.0, 0.5), background=BackgroundSpec(count=0))
        alone, = simulate_market(spec, [one_learner("hedge")], 6, 2, 1)
        assert alone.offsets.tolist() == [0] * 13
        pair = simulate_market(spec, [one_learner("hedge"), LearnerSpec("L001", 0.4, LearnerConfig("hedge", (0.2, 0.6)))], 6, 2, 1)
        for a in range(len(pair[0])):
            assert row_to_auction(pair[0], a).entry("c000").bid == pair[1].own_bid[a]

    @pytest.mark.parametrize("spec, match", [
        (MarketSpec(position_curve=(0.5, 0.6)), "strictly decreasing"),
        (MarketSpec(rank_reserve=0.3, mainline_reserve=0.1), "mainline_reserve"),
        (MarketSpec(background=BackgroundSpec(score_low=1e-8, score_high=2e-8)), "score must lie"),
        (MarketSpec(background=BackgroundSpec(bid_low=2000.0, bid_high=3000.0)), "bid must lie"),
    ])
    def test_malformed_market_raises_simulation_error(self, spec, match):
        with pytest.raises(SimulationError, match=match):
            simulate_market(spec, [one_learner("hedge")], 3, 2, 0)

    def test_table_round_trips_through_reference_auctions(self):
        learners = [
            LearnerSpec("L000", 0.7, LearnerConfig("hedge", default_bid_grid(1.0, 0.1))),
            LearnerSpec("L001", 0.5, LearnerConfig("hedge", default_bid_grid(1.0, 0.1)), own_score=1.2),
        ]
        for hist in simulate_market(simple_market(), learners, 6, 3, 4):
            auctions = [row_to_auction(hist, a) for a in range(len(hist))]
            back = auctions_to_table(auctions, hist.listing_id, periods=hist.period.tolist())
            assert back == type(hist)(**{**hist.__dict__, "truth": None})


class ChoiceState(_LearnerState):
    """A learner whose hedge draw is ``rng.choice``, as the simulator drew it before the CDF form."""

    def commit(self) -> float:
        if self.spec.config.algorithm == "hedge":
            return self.grid[int(self.rng.choice(len(self.grid), p=self.weights))]
        return super().commit()


def simulate_market_per_learner(env, learners, periods, auctions_per_period, seed):
    """One sweep per learner and period (a lone learner's in blocks of periods): the oracle for ``simulate_market``.

    The tables' other columns are ``simulate_market``'s; every own bid and learner-opponent bid is rewritten here.
    """
    n, n_learners = auctions_per_period, len(learners)
    rows = periods * n
    tables = [replace(h, own_bid=np.full(rows, np.nan), bid=h.bid.copy())
              for h in simulate_market(env, learners, periods, n, seed)]
    for table in tables:
        table.bid.reshape(rows, -1)[:, :n_learners - 1] = np.nan
    _, *learner_ss = np.random.SeedSequence(seed).spawn(1 + n_learners)
    states = [ChoiceState(ls, periods, np.random.Generator(np.random.PCG64(ss)), env.position_curve[0])
              for ls, ss in zip(learners, learner_ss)]
    queued = [[] for _ in learners]
    for t in range(periods):
        bids = [st.commit() for st in states]
        for i, table in enumerate(tables):
            table.own_bid[t * n:(t + 1) * n] = bids[i]
            table.bid.reshape(rows, -1)[t * n:(t + 1) * n, :n_learners - 1] = bids[:i] + bids[i + 1:]
        for st, table, queue in zip(states, tables, queued):
            if not queue:
                stop = min(t + max(1, BLOCK_CELLS // (n * len(st.grid))), periods) if n_learners == 1 else t + 1
                ps, cs = DeviationSweep(table.rows(t * n, stop * n), table.listing_id).evaluate_many(st.grid)
                utility = st.spec.value * ps - cs
                queue += [np.add.reduce(utility[a:a + n], axis=0) / n for a in range(0, len(utility), n)]
            st.update(queue.pop(0))
    return tables


GRID = default_bid_grid(1.0, 0.1)
# rosters by name: the learners' algorithms and grids
ROSTERS = {
    **{f"lone {alg}": [(alg, GRID)] for alg in ALGORITHMS},
    "two hedge": [("hedge", GRID), ("hedge", GRID)],
    "two, one on (0.2, 0.6)": [("epsilon_greedy", GRID), ("hedge", (0.2, 0.6))],
    "three, every algorithm": [("hedge", GRID), ("fixed_best_response", (0.2, 0.6)), ("epsilon_greedy", GRID)],
    "three, off-grid bids": [("hedge", (0.05, 0.25, 0.55, 0.95)), ("hedge", GRID), ("fixed_best_response", (0.33,))],
}


class TestMarketSweep:
    @pytest.mark.parametrize("roster", list(ROSTERS))
    @pytest.mark.parametrize("auctions", [1, 10])
    @pytest.mark.parametrize("drift", [0.0, 0.5])
    def test_matches_one_sweep_per_learner_and_period(self, roster, auctions, drift):
        learners = [LearnerSpec(f"L{i:03d}", 0.3 + 0.25 * i, LearnerConfig(alg, grid), own_score=1.0 + 0.1 * i)
                    for i, (alg, grid) in enumerate(ROSTERS[roster])]
        market = MarketSpec(background=BackgroundSpec(drift_amplitude=drift, drift_period=7))
        for seed in range(3):
            got = simulate_market(market, learners, 15, auctions, seed)
            expected = simulate_market_per_learner(market, learners, 15, auctions, seed)
            assert got == expected
            for a, b in zip(got, expected):
                assert a.own_bid.tobytes() == b.own_bid.tobytes() and a.bid.tobytes() == b.bid.tobytes()


def draw_loop(spec, rng, period):
    """One auction's background entries, one scalar ``rng.uniform`` call per number: the oracle for ``draws``."""
    scale = 1.0
    if spec.drift_amplitude:
        scale = 1.0 + spec.drift_amplitude * math.sin(2.0 * math.pi * period / spec.drift_period)
    out = []
    for _ in range(spec.count):
        bid = max(float(rng.uniform(spec.bid_low, spec.bid_high)) * scale, 0.0)
        score = float(rng.uniform(spec.score_low, spec.score_high))
        quality = float(rng.uniform(spec.quality_low, spec.quality_high))
        out.append((score, bid, quality))
    return out


@st.composite
def background_specs(draw):
    def bounds(low, high):
        a = draw(st.floats(low, high))
        return a, draw(st.one_of(st.just(a), st.floats(a, high)))  # low == high included

    bid, score, quality = bounds(-0.5, 1.0), bounds(1e-3, 2.0), bounds(0.0, 1.0)
    return BackgroundSpec(
        count=draw(st.integers(0, 4)), bid_low=bid[0], bid_high=bid[1], score_low=score[0], score_high=score[1],
        quality_low=quality[0], quality_high=quality[1],
        drift_amplitude=draw(st.one_of(st.sampled_from([0.0, 0.3, 1.5]), st.floats(0.0, 3.0))),
        drift_period=draw(st.integers(1, 9)),
    )


class TestBackgroundDraws:
    @settings(max_examples=200, deadline=None)
    @given(spec=background_specs(), periods=st.integers(1, 8), per_period=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_one_call_matches_the_scalar_loop_bit_for_bit(self, spec, periods, per_period, seed):
        loop_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [draw_loop(spec, loop_rng, t) for t in range(1, periods + 1) for _ in range(per_period)]
        got = spec.draws(rng, periods, per_period)
        assert got.shape == (periods * per_period, spec.count, 3)
        # (score, quality, bid) against the loop's (score, bid, quality); bit equality keeps the sign of zeros
        expected = np.array(expected, dtype=np.float64).reshape(got.shape)[:, :, [0, 2, 1]]
        assert got.tobytes() == expected.tobytes()
        assert rng.random() == loop_rng.random()  # both consumed the stream alike

    def test_negative_scale_clamps_bids_at_zero_keeping_the_sign(self):
        spec = BackgroundSpec(count=2, bid_low=0.0, bid_high=0.0, drift_amplitude=2.0, drift_period=4)
        bids = spec.draws(np.random.default_rng(0), 4, 1)[:, :, 2]
        # period 3 scales by 1 + 2 sin(3 pi / 2) = -1: max(-0.0, 0.0) is -0.0
        assert [math.copysign(1.0, b) for b in bids[:, 0].tolist()] == [1.0, 1.0, -1.0, 1.0]
        clamped = BackgroundSpec(count=3, bid_low=0.2, bid_high=0.9, drift_amplitude=1.5, drift_period=4)
        bids = clamped.draws(np.random.default_rng(1), 4, 2)[:, :, 2]
        assert (bids[4:6] == 0.0).all() and (bids[:4] > 0.0).all() and (bids[6:] > 0.0).all()


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
        trimmed = hist.rows(hist.period_bounds()[1], len(hist))
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
