import functools
import math
import random
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspinfer.auction import (
    AllocationError,
    AllocationResult,
    AuctionParams,
    BidderEntry,
    DeviationSweep,
    ListingHistory,
    MAX_MAGNITUDE,
    MICRO,
    MIN_SCORE,
    ValidationError,
    click_probability,
    cost_per_click,
    expected_payment,
    rank_and_allocate,
    replay_at_bid,
    row_to_auction,
)


def utility(bidder_id: str, alloc: AllocationResult, params: AuctionParams, value: float) -> float:
    """Expected utility ``value * click_probability - expected_payment``."""
    if value < 0:
        raise ValidationError(f"value must be non-negative (got {value})")
    return value * click_probability(bidder_id, alloc, params) - expected_payment(bidder_id, alloc, params)


def auctions_to_table(auctions, bidder_id: str, periods=None) -> ListingHistory:
    """``bidder_id``'s view of reference auctions as a table, all in period 1 unless ``periods`` are given.

    Competitors keep their order and ``ahead`` compares their ids with ``bidder_id``.
    """
    own = [params.entry(bidder_id) for params in auctions]
    others = [[e for e in params.entries if e.id != bidder_id] for params in auctions]
    flat = [e for es in others for e in es]
    curves: dict[tuple[float, ...], int] = {}

    def column(xs, dtype=np.float64):
        return np.array(list(xs), dtype=dtype)

    return ListingHistory(
        bidder_id, column([1] * len(auctions) if periods is None else periods, np.int64),
        column(e.bid for e in own), column(e.score for e in own), column(e.quality for e in own),
        column(p.rank_reserve for p in auctions), column(p.mainline_reserve for p in auctions),
        column((p.mainline_cap for p in auctions), np.int64),
        column((len(p.mainline_positions) for p in auctions), np.int64),
        column((curves.setdefault(p.position_curve, len(curves)) for p in auctions), np.int64), tuple(curves),
        np.cumsum([0] + [len(es) for es in others]), column(e.score for e in flat),
        column(e.quality for e in flat), column(e.bid for e in flat), column((e.id < bidder_id for e in flat), bool),
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


def deviation_profile(params, bidder_id, bids):
    """(click probability, expected payment) of one auction at each own bid in ``bids``."""
    p, c = DeviationSweep(auctions_to_table([params], bidder_id), bidder_id).evaluate_many(bids)
    return p[0].tolist(), c[0].tolist()


def assert_sweep_matches_replay(instances, bids):
    """Every cell of the batched sweep equals ``replay_at_bid``.

    Each ``(params, player)`` instance is swept alone, then the instances of
    each player id are swept as one mixed batch (the kernel takes one bidder
    id), at the whole grid and at one own bid per auction.
    """
    for params, player in instances:
        ps, cs = DeviationSweep(auctions_to_table([params], player), player).evaluate_many(bids)
        assert ps.shape == cs.shape == (1, len(bids))
        for k, b in enumerate(bids):
            assert (ps[0, k], cs[0, k]) == replay_at_bid(params, player, b), (params, player, b)
    by_player: dict[str, list[AuctionParams]] = {}
    for params, player in instances:
        by_player.setdefault(player, []).append(params)
    for player, batch in by_player.items():
        sweep = DeviationSweep(auctions_to_table(batch, player), player)
        ps, cs = sweep.evaluate_many(bids)
        own = [[bids[(7 * a) % len(bids)]] for a in range(len(batch))]
        p0, c0 = sweep.evaluate_many(own)
        assert ps.shape == (len(batch), len(bids)) and p0.shape == (len(batch), 1)
        for a, params in enumerate(batch):
            for k, b in enumerate(bids):
                assert (ps[a, k], cs[a, k]) == replay_at_bid(params, player, b), (params, player, b)
            assert (p0[a, 0], c0[a, 0]) == replay_at_bid(params, player, own[a][0]), (params, player, own[a])
        one_p, one_c = sweep.evaluate_many([[bids[-1]]] * len(batch))
        assert one_p.tolist() == ps[:, -1:].tolist() and one_c.tolist() == cs[:, -1:].tolist()


_EXACT_FLOAT = 2**53  # integers below this convert to float64 exactly


class CellSweep:
    """The per-cell reference for :class:`DeviationSweep`: the same ``(P, C)``, computed cell by cell.

    Every ``(auction, bid)`` cell counts the opponents above the bidder's
    rank-score, finds its slot and next-slot price, and divides, with the
    exact-integer branch for prices or denominators at or above 2**53.
    """

    __slots__ = ("_s", "_den", "_r", "_m", "_n_main", "_last_main", "_last", "_gamma",
                 "_keys_q", "_keys_n", "_lut", "_off_q", "_off_n", "_alpha", "_off_a", "_exact")

    def __init__(self, table: ListingHistory, bidder_id: str):
        if bidder_id != table.listing_id:
            raise AllocationError(f"no entry with id {bidder_id!r}")
        n = len(table)
        counts = table.offsets[1:] - table.offsets[:-1]
        w = int(counts.max())
        s_int = np.rint(table.own_score * MICRO).astype(np.int64).reshape(n, 1)
        r_int = np.rint(table.rank_reserve * MICRO * MICRO).astype(np.int64).reshape(n, 1)
        m_int = np.rint(table.mainline_reserve * MICRO * MICRO).astype(np.int64).reshape(n, 1)
        n_main = table.mainline_count.reshape(n, 1)
        # opponents' rank-scores and keys, one row per auction, padded with -1;
        # a key exceeds the bidder's rank-score exactly when the opponent ranks above it
        q = np.rint(table.score * MICRO).astype(np.int64) * np.rint(table.bid * MICRO).astype(np.int64)
        cell = (np.arange(n) * w - table.offsets[:-1]).repeat(counts) + np.arange(len(q))
        grid = np.full(n * w, -1, dtype=np.int64)
        grid[cell] = q
        keys = grid.copy()
        keys[cell] += table.ahead
        grid, keys = grid.reshape(n, w), keys.reshape(n, w)
        # opponents passing the mainline reserve, then those passing only the
        # rank reserve: keys padded with -1, rank-scores padded with 0, each sorted
        qual = grid >= m_int
        rest = (grid >= r_int) & ~qual
        keys_q, q_q, keys_n, q_n = (np.where(mask, x, pad) for mask in (qual, rest) for x, pad in ((keys, -1), (grid, 0)))
        for x in (keys_q, q_q, keys_n, q_n):
            x.sort(axis=1)
        w_q, w_n = int(qual.sum(axis=1).max()), int(rest.sum(axis=1).max())
        # price lookups: the qualified rank-scores just below (up to the
        # mainline count), then the rest queue's, each descending, 0 if vacant
        w_qd = max(w_q, int(n_main.max())) + 1
        lut = np.zeros((n, w_qd + w_n + 1), dtype=np.int64)
        lut[:, :w_q] = q_q[:, w - w_q:][:, ::-1]
        lut[:, w_qd:w_qd + w_n] = q_n[:, w - w_n:][:, ::-1]
        # a slot past the last position has click factor 0
        w_a = max(max(map(len, table.curves)), w_qd + w_n)
        alpha = np.zeros((len(table.curves), w_a))
        for i, c in enumerate(table.curves):
            alpha[i, :len(c)] = c
        self._s, self._den, self._r, self._m = s_int, s_int * MICRO, r_int, m_int
        self._n_main, self._last_main = n_main, n_main - 1
        self._last = np.array([len(c) - 1 for c in table.curves])[table.curve].reshape(n, 1)
        self._gamma = table.own_quality.reshape(n, 1)
        self._keys_q = [keys_q[:, k:k + 1] for k in range(w - w_q, w)]
        self._keys_n = [keys_n[:, k:k + 1] for k in range(w - w_n, w)]
        self._lut, self._alpha = lut.reshape(-1), alpha.reshape(-1)
        self._off_q = np.arange(0, lut.size, lut.shape[1]).reshape(n, 1)
        self._off_n = self._off_q + w_qd
        self._off_a = table.curve.reshape(n, 1) * w_a
        # no price or denominator reaches 2**53: numpy's division is exact
        self._exact = max(int(lut.max()), int(m_int.max()), int(s_int.max()) * MICRO) < _EXACT_FLOAT

    def _cells(self, bids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if bids.size and not (bids.min() >= 0.0 and bids.max() <= MAX_MAGNITUDE):
            raise ValidationError(f"bids must lie in [0, {MAX_MAGNITUDE:g}]")
        q_p = self._s * np.rint(bids * MICRO).astype(np.int64)
        a_q = _opponents_above(self._keys_q, q_p)
        a_n = _opponents_above(self._keys_n, q_p)
        main = (q_p >= self._m) & (a_q < self._n_main)
        hi = np.maximum(a_q, self._n_main)
        # 0-based slot: in the mainline after the qualified bidders above; in
        # the rest after the mainline (or every qualified bidder above, if
        # more) and every unqualified bidder above
        pos = np.where(main, a_q, hi + a_n)
        # next slot's rank-score: the qualified bidder just below, and from the
        # last mainline slot on also the head of the rest queue; none after the last slot
        next_q = self._lut.take(np.where(main, a_q, hi) + self._off_q)
        head = self._lut.take(np.where(main, 0, a_n) + self._off_n)
        next_q = np.where(pos >= self._last_main, np.maximum(next_q, head), next_q)
        next_q[pos >= self._last] = 0
        price = np.maximum(next_q, np.where(main, self._m, self._r))
        p = np.where(q_p >= self._r, self._alpha.take(pos + self._off_a), 0.0) * self._gamma
        c = p * (price / self._den)
        if not self._exact:
            den = np.broadcast_to(self._den, price.shape)
            for i in np.flatnonzero((price >= _EXACT_FLOAT) | (den >= _EXACT_FLOAT)).tolist():
                c.flat[i] = p.flat[i] * (int(price.flat[i]) / int(den.flat[i]))
        return p, c

    def evaluate_many(self, bids: np.ndarray | Sequence) -> tuple[np.ndarray, np.ndarray]:
        """``(P, C)`` of shape ``(A, G)``: ``(G,)`` bids in every auction, or one row of an ``(A, G)`` matrix in each."""
        bids = np.asarray(bids, dtype=np.float64)
        return self._cells(bids if bids.ndim == 2 else bids.reshape(1, -1))


def _opponents_above(key_cols: list[np.ndarray], q_p: np.ndarray) -> np.ndarray:
    """Per cell, how many of the ``(A, 1)`` key columns exceed the rank-score."""
    n = np.zeros(q_p.shape, dtype=np.int64)
    for keys in key_cols:
        n += keys > q_p
    return n


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
        sweep = DeviationSweep(auctions_to_table([two_entry_params()], "b"), "b")
        for bad in (-0.01, MAX_MAGNITUDE * 1.001, math.nan):
            with pytest.raises(ValidationError):
                sweep.evaluate_many([0.5, bad])
            with pytest.raises(ValidationError):
                replay_at_bid(two_entry_params(), "b", bad)

    def test_unknown_bidder_raises(self):
        with pytest.raises(AllocationError):
            auctions_to_table([two_entry_params(), two_entry_params()], "z")
        with pytest.raises(AllocationError):
            DeviationSweep(auctions_to_table([two_entry_params(), two_entry_params()], "b"), "z")

    def test_row_range_matches_whole_table(self):
        rng = random.Random(5)
        batch = [random_params(rng) for _ in range(60)]
        batch = [p for p in batch if any(e.id == "b0" for e in p.entries)]
        table = auctions_to_table(batch, "b0", periods=range(len(batch)))
        bids = [k / 10.0 for k in range(25)]
        ps, cs = DeviationSweep(table, "b0").evaluate_many(bids)
        for start, stop in ((0, 1), (3, 17), (len(batch) - 5, len(batch))):
            sub_p, sub_c = DeviationSweep(table.rows(start, stop), "b0").evaluate_many(bids)
            assert sub_p.tolist() == ps[start:stop].tolist() and sub_c.tolist() == cs[start:stop].tolist()

    def test_profile_wrapper(self):
        params = two_entry_params()
        ps, cs = deviation_profile(params, "b", [0.0, 1.0, 3.0])
        assert ps == [pytest.approx(x) for x in (0.25, 0.25, 0.5)]
        # at 3.0, b outranks a (q=3 vs 2) and pays a's rank-score / s_b = 2
        assert cs[2] == pytest.approx(0.5 * 2.0)


def state_edges(rng: random.Random):
    """Auctions of bidder ``p`` and bids at the edges of its threshold states.

    The bids put ``p``'s micro rank-score on an opponent's key, one either
    side of it, or on a reserve (exactly where ``p``'s micro-score divides the
    threshold, and at the micro bids around it otherwise), plus random bids,
    unsorted and repeated. Opponents tie with each other and with ``p``, win
    or lose the tie by id, and reach 2**53; in some tables no auction has any.
    """
    most = rng.randint(0, 5)  # opponents per auction, at most
    large = rng.random() < 0.3  # rank-scores near 1e16 and above, priced past 2**53

    def magnitude(*small):
        return round(rng.uniform(95, MAX_MAGNITUDE), 6) if large else rng.choice(small)

    auctions = []
    for _ in range(rng.randint(1, 6)):
        curve = tuple(sorted({round(rng.uniform(0.05, 1.0), 2) for _ in range(rng.randint(1, 4))}, reverse=True))
        cap = rng.randint(0, len(curve) + 1)
        n_main = rng.choice([0, min(cap, len(curve)), rng.randint(0, min(cap, len(curve)))])
        r = rng.choice([0.0, 1e-6, 0.5, 1.0, 40.0])
        opponents = [BidderEntry(f"{rng.choice('az')}{k}", magnitude(1e-6, 1e-3, 0.5, 1.0, MAX_MAGNITUDE),
                                 rng.choice([0.0, 0.5, 1.0]), magnitude(0.0, 0.5, 1.0, 2.5, MAX_MAGNITUDE))
                     for k in range(rng.randint(0, most))]
        own = BidderEntry("p", magnitude(MIN_SCORE, 2e-6, 1e-3, 0.5, 1.0, 3.0, MAX_MAGNITUDE),
                          rng.choice([0.0, 0.7, 1.0]), rng.choice([0.0, 1.0]))
        auctions.append(AuctionParams(
            entries=(own, *opponents), rank_reserve=r,
            mainline_reserve=min(MAX_MAGNITUDE, r + rng.choice([0.0, 0.5, 60.0])), mainline_cap=cap,
            position_curve=curve, mainline_positions=frozenset(range(1, n_main + 1))))
    micro = {0, 10**9, rng.randint(0, 10**9)}
    for params in auctions:
        s = round(params.entry("p").score * MICRO)
        keys = [e.rank_score_int() + (e.id < "p") for e in params.entries if e.id != "p"]
        for t in (*keys, params.rank_reserve_int(), params.mainline_reserve_int()):
            for edge in (t - 1, t, t + 1):
                micro.update(edge // s + d for d in (-1, 0, 1))
    bids = [m / MICRO for m in micro if 0 <= m <= 10**9]
    rng.shuffle(bids)
    bids += rng.choices(bids, k=rng.randint(0, 8))
    return auctions, bids


def bits(cells):
    """``(P, C)`` as float64 bytes, so that ``-0.0`` and ``0.0`` differ."""
    return tuple(np.ascontiguousarray(x, dtype=np.float64).tobytes() for x in cells)


class TestSweepMatchesCells:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_cell_matches_the_per_cell_reference(self, seed, data):
        auctions, bids = state_edges(random.Random(seed))
        table = auctions_to_table(auctions, "p")
        sweep, cells = DeviationSweep(table, "p"), CellSweep(table, "p")
        assert bits(sweep.evaluate_many(bids)) == bits(cells.evaluate_many(bids))
        # one row of bids per auction, and one bid per auction
        rows = np.array([data.draw(st.permutations(bids)) for _ in range(len(table))])
        assert bits(sweep.evaluate_many(rows)) == bits(cells.evaluate_many(rows))
        assert bits(sweep.evaluate_many(rows[:, :1])) == bits(cells.evaluate_many(rows[:, :1]))
        # a row range of the sweep is the sweep of the row range
        start = data.draw(st.integers(0, len(table) - 1))
        stop = data.draw(st.integers(start + 1, len(table)))
        part = DeviationSweep(table.rows(start, stop), "p")
        assert bits(sweep.rows(start, stop).evaluate_many(bids)) == bits(part.evaluate_many(bids))
        assert bits(sweep.rows(start, stop).evaluate_many(rows[start:stop])) == bits(
            part.evaluate_many(rows[start:stop]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_any_bid_vector_matches_the_per_cell_reference(self, seed):
        # a sorted vector takes the shared-grid lookup, with or without repeats; an unsorted one is looked up
        # per threshold, as a matrix is; one scalar bid gives one column and no bids no column
        auctions, bids = state_edges(random.Random(seed))
        table = auctions_to_table(auctions, "p")
        sweep, cells = DeviationSweep(table, "p"), CellSweep(table, "p")
        for vector in (sorted(bids), sorted(set(bids)), sorted(bids, reverse=True), bids + bids[:1], bids[0],
                       np.float64(bids[-1]), [], np.array([])):
            got, want = sweep.evaluate_many(vector), cells.evaluate_many(vector)
            assert got[0].shape == want[0].shape == (len(table), np.size(vector))
            assert bits(got) == bits(want)

    def test_the_edges_are_reached(self):
        # over 200 draws the bids land on a key, either side of one and on a nonzero reserve, some
        # rank-score at or above 2**53 rounds as a float64, and some table has no opponent at all
        seen = set()
        for seed in range(200):
            auctions, bids = state_edges(random.Random(seed))
            if all(len(params.entries) == 1 for params in auctions):
                seen.add("no opponents")
            for params in auctions:
                s = round(params.entry("p").score * MICRO)
                ranks = {s * round(b * MICRO) for b in bids}
                keys = {e.rank_score_int() + (e.id < "p") for e in params.entries if e.id != "p"}
                seen.update(name for name, shift in (("key", 0), ("key - 1", -1), ("key + 1", 1))
                            if any(k + shift in ranks for k in keys))
                if ranks & ({params.rank_reserve_int(), params.mainline_reserve_int()} - {0}):
                    seen.add("reserve")
                if any(q >= _EXACT_FLOAT and float(q) != q for q in (e.rank_score_int() for e in params.entries)):
                    seen.add("2**53")
        assert seen == {"no opponents", "key", "key - 1", "key + 1", "reserve", "2**53"}


@functools.cache
def clash_table() -> ListingHistory:
    """Bidder ``p``'s table of auctions with 0 to 1001 competitors, every row valid."""
    return auctions_to_table([AuctionParams(
        entries=(BidderEntry("p", 1.0, 0.5, 0.7), *(BidderEntry(f"x{k}", 1.0, 0.5, 0.5) for k in range(w))),
        rank_reserve=0.1, mainline_reserve=0.2, mainline_cap=1, position_curve=(0.9, 0.5),
        mainline_positions=frozenset({1}),
    ) for w in (0, 1, 2, 3, 7, 8, 999, 1000, 1001)], "p")


class TestTableColumnCheck:
    def test_column_check_matches_row_check(self):
        # every column rule flags exactly the rows whose scalar check names a fault
        rng = random.Random(23)
        auctions = [random_params(rng) for _ in range(200)]
        auctions = [p for p in auctions if any(e.id == "b0" for e in p.entries)]
        table = auctions_to_table(auctions, "b0")
        fields = {}
        for name in ("own_score", "own_quality", "own_bid", "rank_reserve", "mainline_reserve", "score", "quality", "bid"):
            col = getattr(table, name).copy()
            spots = rng.sample(range(len(col)), min(4, len(col)))
            for i, x in zip(spots, (-0.5, 0.5 * MIN_SCORE, 1.5, 2 * MAX_MAGNITUDE)):
                col[i] = x
            fields[name] = col
        for name in ("mainline_cap", "mainline_count"):
            col = getattr(table, name).copy()
            col[rng.randrange(len(col))] = -1 if name == "mainline_cap" else 9
            fields[name] = col
        bad = type(table)(**{**table.__dict__, **fields, "curves": table.curves + ((0.5, 0.6),)})
        bad = type(bad)(**{**bad.__dict__, "curve": np.where(np.arange(len(bad)) % 17 == 0, len(bad.curves) - 1, bad.curve)})
        flagged = bad.invalid_rows()
        assert 0 < flagged.sum() < len(bad)
        for a in range(len(bad)):
            assert flagged[a] == (bad.row_error(a) is not None), (a, bad.row_error(a))

    # a listing id shares a competitor's id in a log only when it is c<j> with at least three digits, no padding
    # beyond them, and the row has more than j competitors
    @pytest.mark.parametrize("lid", ["c000", "c001", "c002", "c999", "c1000", "c0001", "c00", "c7", "c", "c-01",
                                     "camp", "c\u0663", "L0"])
    def test_id_clash_with_a_competitor_matches_row_check(self, lid):
        table = replace(clash_table(), listing_id=lid)
        flagged = table.invalid_rows()
        assert flagged.tolist() == [table.row_error(a) is not None for a in range(len(table))]

    def test_row_error_is_the_reference_message(self):
        table = auctions_to_table([two_entry_params()], "b")
        assert table.row_error(0) is None and not table.invalid_rows().any()
        tiny = type(table)(**{**table.__dict__, "score": np.array([1e-7])})
        with pytest.raises(ValidationError) as exc:
            BidderEntry("c000", 1e-7, 0.4, 2.0)
        assert tiny.row_error(0) == str(exc.value)

    def test_row_to_auction_inverts_the_table(self):
        params = AuctionParams(
            entries=(BidderEntry("L1", 1.0, 0.5, 0.7), BidderEntry("c000", 1.5, 0.4, 0.3),
                     BidderEntry("c001", 0.9, 0.2, 1.2)),
            rank_reserve=0.1, mainline_reserve=0.2, mainline_cap=1, position_curve=(0.9, 0.5),
            mainline_positions=frozenset({1}),
        )
        table = auctions_to_table([params, params], "L1", periods=[4, 5])
        assert row_to_auction(table, 1) == params
        assert table.period.tolist() == [4, 5] and table.period_bounds().tolist() == [0, 1, 2]


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
