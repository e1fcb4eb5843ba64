import math
import random

import pytest

from gspinfer.auction import (
    AllocationError,
    AuctionParams,
    BidderEntry,
    DeviationSweep,
    MAX_MAGNITUDE,
    ValidationError,
    click_probability,
    cost_per_click,
    deviation_profile,
    expected_payment,
    rank_and_allocate,
    replay_at_bid,
    utility,
)


def two_entry_params():
    return AuctionParams(
        entries=(BidderEntry("a", 1.0, 0.4, 2.0), BidderEntry("b", 1.0, 0.5, 1.0)),
        rank_reserve=0.0,
        mainline_reserve=0.0,
        mainline_cap=1,
        position_curve=(1.0, 0.5),
    )


class TestRankAndAllocate:
    def test_two_entries_rank_order(self):
        alloc = rank_and_allocate(two_entry_params())
        assert alloc.position_of == {"a": 1, "b": 2}
        assert alloc.bidder_at == {1: "a", 2: "b"}

    def test_reserve_excludes_sole_bidder(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.5, 0.2),),
            rank_reserve=0.5,
            mainline_reserve=0.5,
        )
        alloc = rank_and_allocate(params)
        assert alloc.position_of == {} and alloc.bidder_at == {}

    def test_tie_breaks_toward_lower_id(self):
        params = AuctionParams(
            entries=(BidderEntry("z", 2.0, 0.5, 0.5), BidderEntry("a", 1.0, 0.5, 1.0)),
            position_curve=(1.0, 0.5),
        )
        alloc = rank_and_allocate(params)
        assert alloc.position_of == {"a": 1, "z": 2}

    def test_mainline_vacancy_left_open_for_unqualified(self):
        # the sole bidder misses the mainline reserve: slot 1 stays vacant
        params = AuctionParams(
            entries=(BidderEntry("b", 1.0, 0.5, 0.6),),
            rank_reserve=0.1,
            mainline_reserve=0.7,
            mainline_cap=1,
            position_curve=(1.0, 0.5),
            mainline_positions=frozenset({1}),
        )
        alloc = rank_and_allocate(params)
        assert alloc.position_of == {"b": 2}

    def test_mainline_overflow_goes_to_rest(self):
        params = AuctionParams(
            entries=(
                BidderEntry("a", 1.0, 0.5, 1.0),
                BidderEntry("b", 1.0, 0.5, 0.9),
                BidderEntry("c", 1.0, 0.5, 0.8),
            ),
            rank_reserve=0.0,
            mainline_reserve=0.5,
            mainline_cap=1,
            position_curve=(1.0, 0.6, 0.3),
            mainline_positions=frozenset({1}),
        )
        alloc = rank_and_allocate(params)
        assert alloc.position_of == {"a": 1, "b": 2, "c": 3}

    def test_validation_names_invariant(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            AuctionParams(entries=(), position_curve=(0.5, 0.5))
        with pytest.raises(ValidationError, match="score"):
            BidderEntry("a", -1.0, 0.5, 1.0)
        with pytest.raises(ValidationError, match="quality"):
            BidderEntry("a", 1.0, 1.5, 1.0)
        with pytest.raises(ValidationError, match="bid"):
            BidderEntry("a", 1.0, 0.5, -0.1)
        with pytest.raises(ValidationError, match="mainline_reserve"):
            AuctionParams(entries=(), rank_reserve=0.5, mainline_reserve=0.1)
        with pytest.raises(ValidationError, match="unique"):
            AuctionParams(entries=(BidderEntry("a", 1, 0.5, 1), BidderEntry("a", 1, 0.5, 2)))


class TestPricing:
    def test_two_entry_cpc(self):
        params = two_entry_params()
        alloc = rank_and_allocate(params)
        assert cost_per_click("a", alloc, params) == 1.0

    def test_sole_bidder_pays_reserve(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.5, 1.0),),
            rank_reserve=0.3,
            mainline_reserve=0.3,
            mainline_cap=0,
            position_curve=(1.0,),
        )
        alloc = rank_and_allocate(params)
        assert cost_per_click("a", alloc, params) == pytest.approx(0.3, abs=1e-12)

    def test_mainline_reserve_dominates(self):
        # s_i=2 at a mainline slot with m=3; successor rank-score 1
        params = AuctionParams(
            entries=(BidderEntry("a", 2.0, 0.5, 2.0), BidderEntry("b", 1.0, 0.5, 1.0)),
            rank_reserve=0.0,
            mainline_reserve=3.0,
            mainline_cap=1,
            position_curve=(1.0, 0.5),
            mainline_positions=frozenset({1}),
        )
        alloc = rank_and_allocate(params)
        assert alloc.position_of["a"] == 1
        assert cost_per_click("a", alloc, params) == pytest.approx(1.5, abs=1e-12)

    def test_unallocated_raises(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.5, 0.1),),
            rank_reserve=0.5,
            mainline_reserve=0.5,
        )
        alloc = rank_and_allocate(params)
        with pytest.raises(AllocationError):
            cost_per_click("a", alloc, params)


class TestClicksAndUtility:
    def test_click_probability_product(self):
        params = two_entry_params()
        alloc = rank_and_allocate(params)
        assert click_probability("a", alloc, params) == pytest.approx(0.4)

    def test_unallocated_zero(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.5, 0.1),),
            rank_reserve=0.5,
            mainline_reserve=0.5,
        )
        alloc = rank_and_allocate(params)
        assert click_probability("a", alloc, params) == 0.0
        assert expected_payment("a", alloc, params) == 0.0
        assert utility("a", alloc, params, 5.0) == 0.0

    def test_zero_quality(self):
        params = AuctionParams(entries=(BidderEntry("a", 1.0, 0.0, 1.0),))
        alloc = rank_and_allocate(params)
        assert click_probability("a", alloc, params) == 0.0

    def test_expected_payment_product(self):
        params = two_entry_params()
        alloc = rank_and_allocate(params)
        # P = 0.4, cpc = 1
        assert expected_payment("a", alloc, params) == pytest.approx(0.4)

    def test_reserve_priced_payment(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.5, 1.0),),
            rank_reserve=0.3,
            mainline_reserve=0.3,
            position_curve=(1.0,),
        )
        alloc = rank_and_allocate(params)
        assert expected_payment("a", alloc, params) == pytest.approx(0.15)

    def test_utility_examples(self):
        params = two_entry_params()
        alloc = rank_and_allocate(params)
        # v=1: value equals price
        assert utility("a", alloc, params, 1.0) == pytest.approx(0.0)

    def test_utility_arithmetic(self):
        params = AuctionParams(
            entries=(BidderEntry("a", 1.0, 0.4, 1.0), BidderEntry("b", 1.0, 0.5, 0.5)),
            position_curve=(1.0, 0.5),
        )
        alloc = rank_and_allocate(params)
        # P=0.4, C=0.4*0.5=0.2, v=0.7 -> 0.08
        assert utility("a", alloc, params, 0.7) == pytest.approx(0.08)


def random_params(rng: random.Random, player_last=False):
    """Random instance on coarse grids so rank-score ties actually occur."""
    n = rng.randint(1, 6)
    entries = []
    for k in range(n):
        entries.append(
            BidderEntry(
                id=f"b{k}",
                score=rng.choice([0.5, 1.0, 1.0, 1.5, 2.0]),
                quality=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
                bid=rng.randint(0, 20) / 10.0,
            )
        )
    n_pos = rng.randint(1, 5)
    curve = tuple(sorted({round(rng.uniform(0.05, 1.0), 2) for _ in range(n_pos)}, reverse=True))
    cap = rng.randint(0, 3)
    n_main = rng.randint(0, min(cap, len(curve)))
    r = rng.choice([0.0, 0.1, 0.5, 1.0])
    m = r + rng.choice([0.0, 0.2, 0.8])
    return AuctionParams(
        entries=tuple(entries),
        rank_reserve=r,
        mainline_reserve=m,
        mainline_cap=cap,
        position_curve=curve,
        mainline_positions=frozenset(range(1, n_main + 1)),
    )


def large_params(rng: random.Random):
    """Random instance with scores, bids and reserves up to MAX_MAGNITUDE.

    Rank-scores reach 1e18, past 2**53, where int64-to-float64 division rounds
    twice; repeated values keep ties in play.
    """
    entries = []
    for k in range(rng.randint(1, 6)):
        entries.append(
            BidderEntry(
                id=f"b{k}",
                score=rng.choice([0.001, 0.5, 37.5, 999.999, MAX_MAGNITUDE]),
                quality=rng.choice([0.0, 0.3, 1.0]),
                bid=rng.choice([0.0, 1.0, 123.456789, 999.999999, MAX_MAGNITUDE, round(rng.uniform(0, 1000), 6)]),
            )
        )
    curve = tuple(sorted({round(rng.uniform(0.05, 1.0), 2) for _ in range(rng.randint(1, 5))}, reverse=True))
    cap = rng.randint(0, 3)
    r = rng.choice([0.0, 1.0, 500.0])
    return AuctionParams(
        entries=tuple(entries),
        rank_reserve=r,
        mainline_reserve=min(MAX_MAGNITUDE, r + rng.choice([0.0, 0.2, 400.0])),
        mainline_cap=cap,
        position_curve=curve,
        mainline_positions=frozenset(range(1, rng.randint(0, min(cap, len(curve))) + 1)),
    )


def assert_sweep_matches_replay(instances, bids):
    """Every cell of the batched sweep equals ``replay_at_bid``.

    Each ``(params, player)`` instance is swept alone, then the instances of
    each player id are swept as one mixed batch (the kernel takes one bidder
    id), at the whole grid and at one own bid per auction.
    """
    for params, player in instances:
        ps, cs = DeviationSweep([params], player).evaluate_many(bids)
        assert ps.shape == cs.shape == (1, len(bids))
        for k, b in enumerate(bids):
            assert (ps[0, k], cs[0, k]) == replay_at_bid(params, player, b), (params, player, b)
    by_player: dict[str, list[AuctionParams]] = {}
    for params, player in instances:
        by_player.setdefault(player, []).append(params)
    for player, batch in by_player.items():
        sweep = DeviationSweep(batch, player)
        ps, cs = sweep.evaluate_many(bids)
        own = [bids[(7 * a) % len(bids)] for a in range(len(batch))]
        p0, c0 = sweep.evaluate(own)
        assert ps.shape == (len(batch), len(bids)) and p0.shape == (len(batch),)
        for a, params in enumerate(batch):
            for k, b in enumerate(bids):
                assert (ps[a, k], cs[a, k]) == replay_at_bid(params, player, b), (params, player, b)
            assert (p0[a], c0[a]) == replay_at_bid(params, player, own[a]), (params, player, own[a])
        one_p, one_c = sweep.evaluate(bids[-1])
        assert one_p.tolist() == ps[:, -1].tolist() and one_c.tolist() == cs[:, -1].tolist()


class TestSweepMatchesReplay:
    def test_differential_random_instances(self):
        rng = random.Random(20240811)
        bids = [k / 10.0 for k in range(0, 25)]
        instances = []
        for _ in range(400):
            params = random_params(rng)
            instances.append((params, rng.choice(params.entries).id))
        assert_sweep_matches_replay(instances, bids)

    def test_differential_large_magnitudes(self):
        rng = random.Random(20261018)
        bids = [0.0, 0.5, 1.0, 10.0, 123.456789, 500.0, 999.999, 999.999999, MAX_MAGNITUDE]
        instances = []
        for _ in range(400):
            params = large_params(rng)
            instances.append((params, rng.choice(params.entries).id))
        assert sum(e.rank_score_int() >= 2**53 for params, _ in instances for e in params.entries) > 100
        assert_sweep_matches_replay(instances, bids)

    def test_bids_outside_the_magnitude_bound_raise(self):
        sweep = DeviationSweep([two_entry_params()], "b")
        for bad in (-0.01, MAX_MAGNITUDE * 1.001, math.nan):
            with pytest.raises(ValidationError):
                sweep.evaluate_many([0.5, bad])
            with pytest.raises(ValidationError):
                replay_at_bid(two_entry_params(), "b", bad)

    def test_unknown_bidder_raises(self):
        with pytest.raises(AllocationError):
            DeviationSweep([two_entry_params(), two_entry_params()], "z")

    def test_profile_wrapper(self):
        params = two_entry_params()
        ps, cs = deviation_profile(params, "b", [0.0, 1.0, 3.0])
        assert ps == [pytest.approx(x) for x in (0.25, 0.25, 0.5)]
        # at 3.0, b outranks a (q=3 vs 2) and pays a's rank-score / s_b = 2
        assert cs[2] == pytest.approx(0.5 * 2.0)


class TestMechanismProperties:
    def test_own_bid_monotonicity(self):
        rng = random.Random(7)
        bids = [k / 20.0 for k in range(0, 61)]
        for _ in range(150):
            params = random_params(rng)
            player = rng.choice(params.entries).id
            ps, cs = deviation_profile(params, player, bids)
            for x, y in zip(ps, ps[1:]):
                assert y >= x - 1e-12
            for x, y in zip(cs, cs[1:]):
                assert y >= x - 1e-12

    def test_allocation_consistency_and_reserves(self):
        rng = random.Random(11)
        for _ in range(300):
            params = random_params(rng)
            alloc = rank_and_allocate(params)
            for eid, pos in alloc.position_of.items():
                assert alloc.bidder_at[pos] == eid
                q = params.entry(eid).rank_score_int()
                assert q >= params.rank_reserve_int()
                if pos in params.mainline_positions:
                    assert q >= params.mainline_reserve_int()
            for pos, eid in alloc.bidder_at.items():
                assert alloc.position_of[eid] == pos
                assert 1 <= pos <= len(params.position_curve)

    def test_never_charged_above_own_bid(self):
        rng = random.Random(13)
        for _ in range(300):
            params = random_params(rng)
            alloc = rank_and_allocate(params)
            for eid in alloc.position_of:
                entry = params.entry(eid)
                assert cost_per_click(eid, alloc, params) <= entry.bid + 1e-9

    def test_determinism(self):
        rng = random.Random(17)
        for _ in range(50):
            params = random_params(rng)
            a1 = rank_and_allocate(params)
            a2 = rank_and_allocate(params)
            assert a1.position_of == a2.position_of and a1.bidder_at == a2.bidder_at
