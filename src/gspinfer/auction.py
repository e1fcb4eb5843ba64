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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

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
    slots_main = min(n_main, params.mainline_cap)
    n_pos = len(params.position_curve)
    position_of: dict[str, int] = {}
    bidder_at: dict[int, str] = {}
    main_used = 0
    rest_next = n_main + 1
    for q, eid in ranked:
        if q >= m_int and main_used < slots_main:
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
    Prefer :class:`DeviationSweep` when evaluating many bids on one auction.
    """
    entries = tuple(replace(e, bid=bid) if e.id == bidder_id else e for e in params.entries)
    params.entry(bidder_id)  # raise early if the bidder is unknown
    swapped = replace(params, entries=entries)
    alloc = rank_and_allocate(swapped)
    return (
        click_probability(bidder_id, alloc, swapped),
        expected_payment(bidder_id, alloc, swapped),
    )


class DeviationSweep:
    """Evaluate one bidder's (click probability, expected payment) across bids.

    Precomputes the opponents' ranking structure once so that each bid
    evaluates in O(log n). Produces exactly the same numbers as
    :func:`replay_at_bid` (same integer ranking, same tie-breaks).
    """

    __slots__ = (
        "_pid", "_gamma", "_s_int", "_r_int", "_m_int", "_alpha", "_n_pos",
        "_n_main", "_slots_main", "_qual_desc", "_qual_asc", "_qual_ties",
        "_non_desc", "_non_asc", "_non_ties",
    )

    def __init__(self, params: AuctionParams, bidder_id: str):
        player = params.entry(bidder_id)
        self._pid = bidder_id
        self._gamma = player.quality
        self._s_int = _micro(player.score)
        self._r_int = params.rank_reserve_int()
        self._m_int = params.mainline_reserve_int()
        self._alpha = params.position_curve
        self._n_pos = len(params.position_curve)
        self._n_main = len(params.mainline_positions)
        self._slots_main = min(self._n_main, params.mainline_cap)
        qual: list[tuple[int, str]] = []
        non: list[tuple[int, str]] = []
        for e in params.entries:
            if e.id == bidder_id:
                continue
            q = e.rank_score_int()
            if q < self._r_int:
                continue
            (qual if q >= self._m_int else non).append((q, e.id))
        self._qual_desc, self._qual_asc, self._qual_ties = self._prep(qual)
        self._non_desc, self._non_asc, self._non_ties = self._prep(non)

    @staticmethod
    def _prep(items: list[tuple[int, str]]):
        ordered = sorted(items, key=lambda t: (-t[0], t[1]))
        desc_q = [q for q, _ in ordered]
        asc_q = sorted(desc_q)
        ties: dict[int, list[str]] = {}
        for q, eid in items:
            ties.setdefault(q, []).append(eid)
        for ids in ties.values():
            ids.sort()
        return desc_q, asc_q, ties

    def _count_above(self, asc_q: list[int], ties: dict[int, list[str]], q_p: int) -> int:
        above = len(asc_q) - bisect_right(asc_q, q_p)
        tied = ties.get(q_p)
        if tied:
            above += bisect_left(tied, self._pid)
        return above

    def evaluate(self, bid: float) -> tuple[float, float]:
        q_p = self._s_int * _micro(bid)
        if q_p < self._r_int:
            return (0.0, 0.0)
        a_q = self._count_above(self._qual_asc, self._qual_ties, q_p)
        a_n = self._count_above(self._non_asc, self._non_ties, q_p)
        mainline = False
        next_q = 0
        if q_p >= self._m_int and a_q < self._slots_main:
            pos = a_q + 1
            mainline = True
            if pos + 1 <= self._n_main:
                if a_q < len(self._qual_desc):
                    next_q = self._qual_desc[a_q]
            elif self._n_pos > self._n_main:
                # player sits on the last mainline slot; next is the head of the
                # rest queue: every non-qualified candidate (even ones ranked
                # above the player) plus the qualified overflow below the player
                if self._non_desc:
                    next_q = self._non_desc[0]
                if a_q < len(self._qual_desc) and self._qual_desc[a_q] > next_q:
                    next_q = self._qual_desc[a_q]
        else:
            skip = self._slots_main - a_q if a_q < self._slots_main else 0
            rest_above = (a_q + a_n) - min(a_q, self._slots_main)
            pos = self._n_main + rest_above + 1
            if pos > self._n_pos:
                return (0.0, 0.0)
            if pos + 1 <= self._n_pos:
                if a_n < len(self._non_desc):
                    next_q = self._non_desc[a_n]
                idx = a_q + skip
                if idx < len(self._qual_desc) and self._qual_desc[idx] > next_q:
                    next_q = self._qual_desc[idx]
        price_int = next_q
        if self._r_int > price_int:
            price_int = self._r_int
        if mainline and self._m_int > price_int:
            price_int = self._m_int
        p = self._alpha[pos - 1] * self._gamma
        return (p, p * (price_int / (self._s_int * MICRO)))

    def evaluate_many(self, bids: Iterable[float]) -> tuple[list[float], list[float]]:
        ps: list[float] = []
        cs: list[float] = []
        for b in bids:
            p, c = self.evaluate(b)
            ps.append(p)
            cs.append(c)
        return ps, cs


def deviation_profile(
    params: AuctionParams, bidder_id: str, bids: Sequence[float]
) -> tuple[list[float], list[float]]:
    """(click probability, expected payment) for each own-bid in ``bids``."""
    return DeviationSweep(params, bidder_id).evaluate_many(bids)
