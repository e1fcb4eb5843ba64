"""Single-auction GSP mechanics: rank-score allocation, pricing, clicks, utility.

An auction is described by :class:`AuctionParams`. Bidders are ranked by
rank-score ``q = score * bid``; bidders passing the rank reserve fill
positions in rank order, with the first positions ("mainline") reserved for
bidders that also pass the higher mainline reserve. The winner of position
``j`` pays, per click, the minimum bid that would have kept position ``j``.

Ranking never compares raw floats: scores and bids are quantized to 1e-6
("micro") units and rank-scores compared as exact integers, so ties are
detected reliably and results are reproducible bit-for-bit. Prices are
derived from the same integers and returned as floats.

:func:`rank_and_allocate` and :func:`replay_at_bid` work on one auction and
are the reference; :class:`DeviationSweep` evaluates one bidder over a batch
of auctions and bids as numpy arrays with the same integer ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

MICRO = 10**6  # quantization of scores and bids for exact rank comparisons

# Largest accepted score, bid or reserve. Ranking multiplies micro-units, so at
# 1e3 both micro(score) * micro(bid) and reserve * MICRO * MICRO stay at or
# below 1e18, inside int64 for an array form of the ranking.
MAX_MAGNITUDE = 1e3


class AuctionError(ValueError):
    """Base class for auction-level errors."""


class ValidationError(AuctionError):
    """Malformed auction inputs; the message names the violated invariant."""


class AllocationError(AuctionError):
    """An operation was asked about a bidder without the required slot."""


def _micro(x: float) -> int:
    return round(x * MICRO)


@dataclass(frozen=True)
class BidderEntry:
    """One bidder's observable state: platform score, click factor, bid."""

    id: str
    score: float
    quality: float
    bid: float

    def __post_init__(self):
        if not 0.0 < self.score <= MAX_MAGNITUDE:
            raise ValidationError(f"score must lie in (0, {MAX_MAGNITUDE:g}] (entry {self.id!r}: score={self.score})")
        if not 0.0 <= self.quality <= 1.0:
            raise ValidationError(f"quality must lie in [0, 1] (entry {self.id!r}: quality={self.quality})")
        if not 0.0 <= self.bid <= MAX_MAGNITUDE:
            raise ValidationError(f"bid must lie in [0, {MAX_MAGNITUDE:g}] (entry {self.id!r}: bid={self.bid})")

    def rank_score_int(self) -> int:
        """Exact integer rank-score (micro-score times micro-bid)."""
        return _micro(self.score) * _micro(self.bid)


@dataclass(frozen=True)
class AuctionParams:
    """Observable state of one auction.

    ``position_curve`` holds the position click factors, strictly decreasing.
    ``mainline_positions`` must be the first ``len(mainline_positions)``
    positions (1-based); it defaults to the first
    ``min(mainline_cap, len(position_curve))`` positions.
    """

    entries: tuple[BidderEntry, ...]
    rank_reserve: float = 0.0
    mainline_reserve: float = 0.0
    mainline_cap: int = 0
    position_curve: tuple[float, ...] = (1.0,)
    mainline_positions: frozenset[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "position_curve", tuple(self.position_curve))
        if self.mainline_positions is None:
            n_main = min(self.mainline_cap, len(self.position_curve))
            object.__setattr__(self, "mainline_positions", frozenset(range(1, n_main + 1)))
        else:
            object.__setattr__(self, "mainline_positions", frozenset(self.mainline_positions))
        self._validate()

    def _validate(self):
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("entry ids must be unique")
        if not self.position_curve:
            raise ValidationError("position_curve must be non-empty")
        for a in self.position_curve:
            if not 0.0 < a <= 1.0:
                raise ValidationError(f"position_curve values must lie in (0, 1] (got {a})")
        for a, b in zip(self.position_curve, self.position_curve[1:]):
            if not b < a:
                raise ValidationError("position_curve must be strictly decreasing")
        if not 0.0 <= self.rank_reserve <= MAX_MAGNITUDE:
            raise ValidationError(f"rank_reserve must lie in [0, {MAX_MAGNITUDE:g}] (got {self.rank_reserve})")
        if not self.rank_reserve <= self.mainline_reserve <= MAX_MAGNITUDE:
            raise ValidationError(
                f"mainline_reserve must lie in [rank_reserve, {MAX_MAGNITUDE:g}] (got {self.mainline_reserve})"
            )
        if self.mainline_cap < 0:
            raise ValidationError(f"mainline_cap must be non-negative (got {self.mainline_cap})")
        m = self.mainline_positions
        if len(m) > self.mainline_cap:
            raise ValidationError("mainline_positions may not exceed mainline_cap")
        if len(m) > len(self.position_curve):
            raise ValidationError("mainline_positions may not exceed the number of positions")
        if m != frozenset(range(1, len(m) + 1)):
            raise ValidationError("mainline_positions must be the first positions")

    def entry(self, bidder_id: str) -> BidderEntry:
        for e in self.entries:
            if e.id == bidder_id:
                return e
        raise AllocationError(f"no entry with id {bidder_id!r}")

    def rank_reserve_int(self) -> int:
        return round(self.rank_reserve * MICRO * MICRO)

    def mainline_reserve_int(self) -> int:
        return round(self.mainline_reserve * MICRO * MICRO)


@dataclass(frozen=True)
class AllocationResult:
    """Positions assigned by :func:`rank_and_allocate` (1-based indices)."""

    position_of: dict[str, int]
    bidder_at: dict[int, str]

    def position(self, bidder_id: str) -> int | None:
        return self.position_of.get(bidder_id)


def rank_and_allocate(params: AuctionParams) -> AllocationResult:
    """Assign positions by decreasing rank-score.

    Only bidders whose rank-score passes the rank reserve are allocated.
    Bidders that also pass the mainline reserve fill the mainline positions
    in rank order (at most ``mainline_cap`` of them); everyone else fills the
    remaining positions in rank order. Rank-score ties break toward the
    smaller bidder id.
    """
    r_int = params.rank_reserve_int()
    m_int = params.mainline_reserve_int()
    ranked = sorted(
        ((e.rank_score_int(), e.id) for e in params.entries if e.rank_score_int() >= r_int),
        key=lambda t: (-t[0], t[1]),
    )
    n_main = len(params.mainline_positions)
    n_pos = len(params.position_curve)
    position_of: dict[str, int] = {}
    bidder_at: dict[int, str] = {}
    main_used = 0
    rest_next = n_main + 1
    for q, eid in ranked:
        if q >= m_int and main_used < n_main:
            main_used += 1
            pos = main_used
        elif rest_next <= n_pos:
            pos = rest_next
            rest_next += 1
        else:
            continue  # no slot available for this bidder; later ones may still fit mainline
        position_of[eid] = pos
        bidder_at[pos] = eid
    return AllocationResult(position_of, bidder_at)


def cost_per_click(bidder_id: str, alloc: AllocationResult, params: AuctionParams) -> float:
    """Per-click price: the minimal bid that keeps the bidder's position.

    ``max`` of the next position's rank-score, the rank reserve and (for
    mainline slots) the mainline reserve, all divided by the bidder's score.
    A vacant next position contributes 0.
    """
    j = alloc.position(bidder_id)
    if j is None:
        raise AllocationError(f"bidder {bidder_id!r} is not allocated")
    next_id = alloc.bidder_at.get(j + 1)
    price_int = params.entry(next_id).rank_score_int() if next_id is not None else 0
    r_int = params.rank_reserve_int()
    if r_int > price_int:
        price_int = r_int
    if j in params.mainline_positions:
        m_int = params.mainline_reserve_int()
        if m_int > price_int:
            price_int = m_int
    return price_int / (_micro(params.entry(bidder_id).score) * MICRO)


def click_probability(bidder_id: str, alloc: AllocationResult, params: AuctionParams) -> float:
    """Position factor times bidder click factor; 0 if unallocated."""
    j = alloc.position(bidder_id)
    if j is None:
        return 0.0
    return params.position_curve[j - 1] * params.entry(bidder_id).quality


def expected_payment(bidder_id: str, alloc: AllocationResult, params: AuctionParams) -> float:
    """Click probability times cost per click; 0 if unallocated."""
    j = alloc.position(bidder_id)
    if j is None:
        return 0.0
    return click_probability(bidder_id, alloc, params) * cost_per_click(bidder_id, alloc, params)


def utility(bidder_id: str, alloc: AllocationResult, params: AuctionParams, value: float) -> float:
    """Expected utility ``value * click_probability - expected_payment``."""
    if value < 0:
        raise ValidationError(f"value must be non-negative (got {value})")
    return value * click_probability(bidder_id, alloc, params) - expected_payment(bidder_id, alloc, params)


def replay_at_bid(params: AuctionParams, bidder_id: str, bid: float) -> tuple[float, float]:
    """Click probability and expected payment with ``bidder_id``'s bid replaced.

    Reference implementation: rebuilds the auction and re-runs the allocator.
    Prefer :class:`DeviationSweep` when evaluating many bids or auctions.
    """
    entries = tuple(replace(e, bid=bid) if e.id == bidder_id else e for e in params.entries)
    params.entry(bidder_id)  # raise early if the bidder is unknown
    swapped = replace(params, entries=entries)
    alloc = rank_and_allocate(swapped)
    return (
        click_probability(bidder_id, alloc, swapped),
        expected_payment(bidder_id, alloc, swapped),
    )


# Cells per DeviationSweep call when a whole history is replayed: bounds the
# working set of :func:`replay_periods` (a listing at once would hold every
# auction x bid cell in memory).
BLOCK_CELLS = 4096

_EXACT_FLOAT = 2**53  # integers below this convert to float64 exactly


class DeviationSweep:
    """One bidder's (click probability, expected payment) over a batch of auctions.

    ``DeviationSweep(auctions, bidder_id)`` turns a sequence of
    :class:`AuctionParams` into integer columns once: per auction the
    opponents' rank-scores split by reserve (as counting keys that carry the
    tie-break toward the smaller id, and sorted for the next-slot price), the
    bidder's micro-score and quality, the reserves, the mainline count and the
    padded position curve. Every bid of every auction is then one cell of a
    numpy kernel:

    * :meth:`evaluate_many` ``(bids)`` returns ``(P, C)`` of shape ``(A, G)``,
      one row per auction, one column per bid;
    * :meth:`evaluate` ``(bid)`` returns ``(P, C)`` of shape ``(A,)`` for one
      bid, or for one bid per auction when ``bid`` has ``A`` entries.

    Every cell equals ``replay_at_bid(auctions[a], bidder_id, bid)`` bit for
    bit: the ranking is the same integer comparison with the same ties, and
    a price at or above 2**53, which int64-to-float64 division would round
    twice, is divided as Python integers. Bids must lie in
    ``[0, MAX_MAGNITUDE]``, which keeps every rank-score inside int64.

    The benchmark's tracer times the auction layer by wrapping this class by
    name (its constructor, ``evaluate`` and ``evaluate_many``), so the
    kernel stays behind these three entry points.
    """

    __slots__ = ("_s", "_den", "_r", "_m", "_n_main", "_last_main", "_last", "_gamma",
                 "_keys_q", "_keys_n", "_lut", "_off_q", "_off_n", "_alpha", "_off_a", "_exact")

    def __init__(self, auctions: Sequence[AuctionParams], bidder_id: str):
        ints: list[int] = []
        gammas: list[float] = []
        curves: list[tuple[float, ...]] = []
        # per auction: rank-scores (sorted descending) and counting keys of the
        # opponents passing the mainline reserve, then of those passing only
        # the rank reserve
        rows: list[tuple[list[int], list[int], list[int], list[int]]] = []
        top = 0
        for params in auctions:
            r_int = params.rank_reserve_int()
            m_int = params.mainline_reserve_int()
            own = None
            qual_q: list[int] = []
            qual_k: list[int] = []
            non_q: list[int] = []
            non_k: list[int] = []
            for e in params.entries:
                if e.id == bidder_id:
                    own = e
                    continue
                q = e.rank_score_int()
                if q < r_int:
                    continue
                # the key exceeds the bidder's rank-score exactly when the
                # opponent ranks above it: ties go to the smaller id
                if q >= m_int:
                    qual_q.append(q)
                    qual_k.append(q + (e.id < bidder_id))
                else:
                    non_q.append(q)
                    non_k.append(q + (e.id < bidder_id))
                if q > top:
                    top = q
            if own is None:
                raise AllocationError(f"no entry with id {bidder_id!r}")
            s_int = _micro(own.score)
            n_main = len(params.mainline_positions)
            ints += (s_int, s_int * MICRO, r_int, m_int, n_main, n_main - 1, len(params.position_curve) - 1)
            if m_int > top:
                top = m_int
            if s_int * MICRO > top:
                top = s_int * MICRO
            gammas.append(own.quality)
            curves.append(params.position_curve)
            qual_q.sort(reverse=True)
            non_q.sort(reverse=True)
            rows.append((qual_q, qual_k, non_q, non_k))
        n_auctions = len(gammas)
        w_q = max((len(r[0]) for r in rows), default=0)
        w_n = max((len(r[2]) for r in rows), default=0)
        # price lookups: the qualified rank-scores just below (up to the
        # mainline count), then the rest queue's, each padded with 0 (vacant)
        w_qd = max(w_q, max(ints[4::7], default=0)) + 1
        w_nd = w_n + 1
        # a slot past the last position has click factor 0
        w_a = max(max(map(len, curves), default=0), w_qd + w_n)
        keys: list[int] = []
        lut: list[int] = []
        for qual_q, qual_k, non_q, non_k in rows:
            keys += qual_k
            keys += [-1] * (w_q - len(qual_k))
            keys += non_k
            keys += [-1] * (w_n - len(non_k))
            lut += qual_q
            lut += [0] * (w_qd - len(qual_q))
            lut += non_q
            lut += [0] * (w_nd - len(non_q))
        alpha: list[float] = []
        for c in curves:
            alpha += c
            alpha += [0.0] * (w_a - len(c))
        cols = np.array(ints, dtype=np.int64).reshape(n_auctions, 7)
        self._s, self._den, self._r, self._m, self._n_main, self._last_main, self._last = (
            cols[:, k:k + 1] for k in range(7)
        )
        self._gamma = np.array(gammas, dtype=np.float64).reshape(n_auctions, 1)
        key_cols = np.array(keys, dtype=np.int64).reshape(n_auctions, w_q + w_n)
        self._keys_q = [key_cols[:, k:k + 1] for k in range(w_q)]
        self._keys_n = [key_cols[:, k:k + 1] for k in range(w_q, w_q + w_n)]
        self._lut = np.array(lut, dtype=np.int64)
        self._alpha = np.array(alpha, dtype=np.float64)
        row = np.arange(n_auctions, dtype=np.int64).reshape(n_auctions, 1)
        self._off_q = row * (w_qd + w_nd)
        self._off_n = self._off_q + w_qd
        self._off_a = row * w_a
        # no price or denominator reaches 2**53: numpy's division is exact
        self._exact = top < _EXACT_FLOAT

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

    def evaluate_many(self, bids: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
        """``(P, C)`` of shape ``(A, G)``: every auction at every bid."""
        return self._cells(np.asarray(bids, dtype=np.float64).reshape(1, -1))

    def evaluate(self, bid) -> tuple[np.ndarray, np.ndarray]:
        """``(P, C)`` of shape ``(A,)``: one bid, or one bid per auction."""
        p, c = self._cells(np.asarray(bid, dtype=np.float64).reshape(-1, 1))
        return p.reshape(-1), c.reshape(-1)


def _opponents_above(key_cols: list[np.ndarray], q_p: np.ndarray) -> np.ndarray:
    """Per cell, how many of the ``(A, 1)`` key columns exceed the rank-score."""
    n = np.zeros(q_p.shape, dtype=np.int64)
    for keys in key_cols:
        n += keys > q_p
    return n


def deviation_profile(
    params: AuctionParams, bidder_id: str, bids: Sequence[float]
) -> tuple[list[float], list[float]]:
    """(click probability, expected payment) for each own-bid in ``bids``."""
    p, c = DeviationSweep((params,), bidder_id).evaluate_many(bids)
    return p[0].tolist(), c[0].tolist()


def replay_periods(periods, bidder_id: str, bids: Sequence[float]):
    """Replay a bidder's periods at every bid and at its own bids.

    ``periods`` are records with an ``auction_sample`` of
    :class:`AuctionParams` and the ``own_bid`` committed for them. Yields, per
    period and in order, ``(P, C, P0, C0)``: the ``(n, G)`` cells of its ``n``
    auctions at ``bids`` and the ``(n,)`` cells at its own bid. Whole periods
    share one :class:`DeviationSweep` call of about :data:`BLOCK_CELLS` cells.
    """
    bids = np.asarray(bids, dtype=np.float64)
    block: list = []
    cells = 0
    for rec in periods:
        n = len(rec.auction_sample) * len(bids)
        if block and cells + n > BLOCK_CELLS:
            yield from _replay_block(block, bidder_id, bids)
            block, cells = [], 0
        block.append(rec)
        cells += n
    if block:
        yield from _replay_block(block, bidder_id, bids)


def _replay_block(block, bidder_id, bids):
    auctions = [params for rec in block for params in rec.auction_sample]
    own = [rec.own_bid for rec in block for _ in rec.auction_sample]
    sweep = DeviationSweep(auctions, bidder_id)
    p, c = sweep.evaluate_many(bids)
    p0, c0 = sweep.evaluate(own)
    start = 0
    for rec in block:
        end = start + len(rec.auction_sample)
        yield p[start:end], c[start:end], p0[start:end], c0[start:end]
        start = end


def sum_in_order(xs: np.ndarray) -> float:
    """Left-to-right float sum of a vector, as a Python loop adds (numpy sums pairwise)."""
    total = 0.0
    for x in xs.tolist():
        total += x
    return total
