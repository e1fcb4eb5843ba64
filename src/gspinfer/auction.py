"""Single-auction GSP mechanics: rank-score allocation, pricing, clicks.

An auction is described by :class:`AuctionParams`. Bidders are ranked by
rank-score ``q = score * bid``; bidders passing the rank reserve fill
positions in rank order, with the first positions ("mainline") reserved for
bidders that also pass the higher mainline reserve. The winner of position
``j`` pays, per click, the minimum bid that would have kept position ``j``.

Ranking never compares raw floats: scores and bids are quantized to 1e-6
("micro") units and rank-scores compared as exact integers, so ties are
detected reliably and results are reproducible bit-for-bit. Prices are
derived from the same integers and returned as floats.

A listing's auctions live in one columnar table, :class:`ListingHistory`.
:class:`DeviationSweep` evaluates the listing over a row range of it as numpy
arrays. A bidder's slot and price are step functions of its bid, changing
only where its rank-score reaches an opponent's or a reserve, so the sweep
prices each auction once per such threshold state and looks every bid up.
:class:`AuctionParams`, :func:`rank_and_allocate` and :func:`replay_at_bid`
work on one auction and are the scalar reference; :func:`row_to_auction`
turns a table row into one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

MICRO = 10**6  # quantization of scores and bids for exact rank comparisons

# Largest accepted score, bid or reserve. Ranking multiplies micro-units, so at
# 1e3 both micro(score) * micro(bid) and reserve * MICRO * MICRO stay at or
# below 1e18, inside int64 for an array form of the ranking.
MAX_MAGNITUDE = 1e3

# Smallest accepted score: one micro-unit. A smaller score would round to 0,
# ranking its bidder at rank-score 0 and pricing its clicks at x / 0.
MIN_SCORE = 1e-6


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
        if not MIN_SCORE <= self.score <= MAX_MAGNITUDE:
            raise ValidationError(
                f"score must lie in [{MIN_SCORE:g}, {MAX_MAGNITUDE:g}] (entry {self.id!r}: score={self.score})"
            )
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


def replay_at_bid(params: AuctionParams, bidder_id: str, bid: float) -> tuple[float, float]:
    """Click probability and expected payment with ``bidder_id``'s bid replaced.

    Reference implementation: rebuilds the auction and re-runs the allocator.
    :class:`DeviationSweep` evaluates many bids and auctions at once.
    """
    entries = tuple(replace(e, bid=bid) if e.id == bidder_id else e for e in params.entries)
    params.entry(bidder_id)  # raise early if the bidder is unknown
    swapped = replace(params, entries=entries)
    alloc = rank_and_allocate(swapped)
    return (
        click_probability(bidder_id, alloc, swapped),
        expected_payment(bidder_id, alloc, swapped),
    )


# per-auction columns of a ListingHistory, then per-competitor columns
_ROW_COLUMNS = ("period", "own_bid", "own_score", "own_quality", "rank_reserve", "mainline_reserve",
                "mainline_cap", "mainline_count", "curve")
_COMPETITOR_COLUMNS = ("score", "quality", "bid", "ahead")


@dataclass(frozen=True, eq=False)
class ListingHistory:
    """One listing's auctions as a columnar table: the in-memory form of its log.

    Row ``a`` is one auction, rows ordered by period: ``period``, the own bid
    (one per period), score and quality, both reserves, ``mainline_cap``,
    ``mainline_count`` and ``curve``, an index into the interned position
    ``curves``. The competitors of row ``a`` are entries
    ``offsets[a]:offsets[a + 1]`` of the flat competitor columns; ``ahead``
    marks those that rank above the listing on a rank-score tie. ``truth`` is
    a synthetic listing's true value-per-click. Tables compare equal when
    every row holds the same values.
    """

    listing_id: str
    period: np.ndarray
    own_bid: np.ndarray
    own_score: np.ndarray
    own_quality: np.ndarray
    rank_reserve: np.ndarray
    mainline_reserve: np.ndarray
    mainline_cap: np.ndarray
    mainline_count: np.ndarray
    curve: np.ndarray
    curves: tuple[tuple[float, ...], ...]
    offsets: np.ndarray
    score: np.ndarray
    quality: np.ndarray
    bid: np.ndarray
    ahead: np.ndarray
    truth: float | None = None

    def __post_init__(self):
        if not len(self.period):
            raise ValidationError(f"listing {self.listing_id} has no auctions")

    def __len__(self) -> int:
        return len(self.period)

    def __eq__(self, other):
        if not isinstance(other, ListingHistory):
            return NotImplemented
        columns = (*_ROW_COLUMNS[:-1], "offsets", *_COMPETITOR_COLUMNS)
        return (self.listing_id, self.truth) == (other.listing_id, other.truth) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in columns
        ) and all(self.curves[i] == other.curves[j] for i, j in set(zip(self.curve.tolist(), other.curve.tolist())))

    def rows(self, start: int, stop: int) -> ListingHistory:
        """The table of rows ``start:stop``; its columns are views of this one's."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return replace(
            self, offsets=self.offsets[start:stop + 1] - lo,
            **{f: getattr(self, f)[start:stop] for f in _ROW_COLUMNS},
            **{f: getattr(self, f)[lo:hi] for f in _COMPETITOR_COLUMNS},
        )

    def period_bounds(self) -> np.ndarray:
        """The first row of each period, then the row count."""
        return np.r_[0, np.flatnonzero(self.period[1:] != self.period[:-1]) + 1, len(self)]

    def mean_bid(self) -> float:
        """The own bid averaged over periods."""
        bids = self.own_bid[self.period_bounds()[:-1]].tolist()
        return sum(bids) / len(bids)

    def invalid_rows(self) -> np.ndarray:
        """Per row, whether :meth:`row_error` finds a fault; every column is checked at once."""
        bad = ~_entries_ok(self.own_score, self.own_quality, self.own_bid)
        counts = self.offsets[1:] - self.offsets[:-1]
        bad[np.arange(len(self)).repeat(counts)[~_entries_ok(self.score, self.quality, self.bid)]] = True
        digits = self.listing_id[1:]
        if digits.isascii() and digits.isdigit() and self.listing_id == _log_name(int(digits)):
            bad |= counts > int(digits)  # a row with more competitors gives one of them the listing's id
        # slots per position curve, -1 if the curve is malformed
        slots = np.array([len(c) if c and all(0.0 < a <= 1.0 for a in c) and all(b < a for a, b in zip(c, c[1:]))
                          else -1 for c in self.curves])
        r, m, n_main = self.rank_reserve, self.mainline_reserve, self.mainline_count
        bad |= (self.mainline_cap < 0) | (n_main > self.mainline_cap) | (n_main > slots[self.curve])
        return bad | ~((r >= 0.0) & (r <= MAX_MAGNITUDE) & (r <= m) & (m <= MAX_MAGNITUDE))

    def row_error(self, a: int) -> str | None:
        """What the reference :class:`AuctionParams` rejects in row ``a`` (see :func:`row_to_auction`), or None."""
        try:
            row_to_auction(self, a)
        except ValidationError as exc:
            return str(exc)
        return None


def _entries_ok(score: np.ndarray, quality: np.ndarray, bid: np.ndarray) -> np.ndarray:
    """Column form of the :class:`BidderEntry` bounds: True where the entry is in range."""
    return ((score >= MIN_SCORE) & (score <= MAX_MAGNITUDE) & (quality >= 0.0) & (quality <= 1.0)
            & (bid >= 0.0) & (bid <= MAX_MAGNITUDE))


def _log_name(k: int) -> str:
    """A log's id for competitor ``k`` of an auction."""
    return f"c{k:03d}"


def log_ahead(listing_id: str, offsets: np.ndarray) -> np.ndarray:
    """The ``ahead`` column of competitors with a log's ids: ties break toward the smaller id."""
    counts = offsets[1:] - offsets[:-1]
    names = np.array([_log_name(k) < listing_id for k in range(int(counts.max(initial=0)))], dtype=bool)
    return names[np.arange(offsets[-1]) - offsets[:-1].repeat(counts)]


def row_to_auction(table: ListingHistory, a: int) -> AuctionParams:
    """Row ``a`` of a table as the reference :class:`AuctionParams`, entries named as in a log."""
    lo, hi = table.offsets[a], table.offsets[a + 1]
    competitors = zip(table.score[lo:hi].tolist(), table.quality[lo:hi].tolist(), table.bid[lo:hi].tolist())
    own = BidderEntry(table.listing_id, float(table.own_score[a]), float(table.own_quality[a]), float(table.own_bid[a]))
    return AuctionParams(
        entries=(own, *(BidderEntry(_log_name(k), *c) for k, c in enumerate(competitors))),
        rank_reserve=float(table.rank_reserve[a]),
        mainline_reserve=float(table.mainline_reserve[a]),
        mainline_cap=int(table.mainline_cap[a]),
        position_curve=table.curves[table.curve[a]],
        mainline_positions=frozenset(range(1, int(table.mainline_count[a]) + 1)),
    )


# Cells per DeviationSweep when a whole history is replayed: bounds the
# working set (a listing at once would hold every auction x bid cell in memory).
BLOCK_CELLS = 4096

_EXACT_FLOAT = 2**53  # integers below this convert to float64 exactly


class DeviationSweep:
    """One bidder's (click probability, expected payment) over a row range of its table.

    ``DeviationSweep(table, bidder_id)`` takes listing ``bidder_id``'s
    :class:`ListingHistory`, or rows of it. In GSP the bidder's slot and price
    change only where its rank-score reaches a threshold: an opponent's key
    (its rank-score, plus one if it wins the tie) or a reserve. So each
    auction with ``w`` opponents has ``w + 3`` threshold states. The
    constructor sorts each auction's thresholds, prices every state once at
    one rank-score inside it, and keeps the least micro bid that reaches each
    threshold. :meth:`evaluate_many` ``(bids)`` returns ``(P, C)`` of shape
    ``(A, G)``, one row per auction and one column per bid: the same ``(G,)``
    bids in every auction, or an ``(A, G)`` matrix with one row of bids per
    auction. It counts the thresholds each bid reaches and looks the state up.
    :meth:`rows` is the sweep of a row range, sharing this one's arrays.

    Every cell equals ``replay_at_bid(row_to_auction(table, a), bidder_id, bid)``
    bit for bit: the ranking is the same integer comparison with the same
    ties, and a price at or above 2**53, which int64-to-float64 division would
    round twice, is divided as Python integers. Bids must lie in
    ``[0, MAX_MAGNITUDE]``, which keeps every rank-score inside int64.

    The benchmark's tracer times the auction layer by wrapping this class by
    name (its constructor and ``evaluate_many``), so the kernel stays behind
    these two entry points.
    """

    __slots__ = ("_least", "_p", "_c")

    def __init__(self, table: ListingHistory, bidder_id: str):
        if bidder_id != table.listing_id:
            raise AllocationError(f"no entry with id {bidder_id!r}")
        self._least, self._p, self._c = _threshold_states(table)

    def rows(self, start: int, stop: int) -> DeviationSweep:
        """The sweep of table rows ``start:stop``; its arrays are views of this one's."""
        view = object.__new__(type(self))
        view._least, view._p, view._c = self._least[start:stop], self._p[start:stop], self._c[start:stop]
        return view

    def evaluate_many(self, bids: np.ndarray | Sequence) -> tuple[np.ndarray, np.ndarray]:
        """``(P, C)`` of shape ``(A, G)``: ``(G,)`` bids in every auction, or one row of an ``(A, G)`` matrix in each."""
        bids = np.asarray(bids, dtype=np.float64)
        if bids.size and not (bids.min() >= 0.0 and bids.max() <= MAX_MAGNITUDE):
            raise ValidationError(f"bids must lie in [0, {MAX_MAGNITUDE:g}]")
        micro = np.rint(bids * MICRO).astype(np.int64)
        n, t = self._least.shape
        flat = micro.reshape(-1)
        if micro.ndim < 2 and (flat[1:] >= flat[:-1]).all():
            # a shared sorted grid: the first bid that reaches each threshold, then per bid the thresholds reached
            g = len(flat)
            first = np.searchsorted(flat, self._least) + np.arange(0, n * (g + 1), g + 1).reshape(n, 1)
            state = np.bincount(first.reshape(-1), minlength=n * (g + 1)).reshape(n, g + 1)[:, :g].cumsum(axis=1)
        else:  # per threshold, the bids that reach it
            state = np.zeros(np.broadcast_shapes((n, 1), micro.shape), dtype=np.int64)
            for least in self._least.T:
                state += least[:, None] <= micro
        state += np.arange(0, n * (t + 1), t + 1).reshape(n, 1)
        return self._p.take(state), self._c.take(state)


def _threshold_states(table: ListingHistory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per auction, the least micro bid reaching each sorted threshold, and ``(P, C)`` in each threshold state.

    State ``k`` holds the rank-scores that reach exactly the first ``k``
    thresholds; it is priced at its least rank-score (the ``k``-th threshold,
    or one below the first). A state between equal thresholds is never looked up.
    """
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
    last = np.array([len(c) - 1 for c in table.curves])[table.curve].reshape(n, 1)
    den = s_int * MICRO
    thresholds = np.sort(np.concatenate((keys, r_int, m_int), axis=1), axis=1)
    q_p = np.concatenate((thresholds[:, :1] - 1, thresholds), axis=1)
    # the bidder's slot and next-slot price in each state
    a_q = _opponents_above([keys_q[:, k:k + 1] for k in range(w - w_q, w)], q_p)
    a_n = _opponents_above([keys_n[:, k:k + 1] for k in range(w - w_n, w)], q_p)
    main = (q_p >= m_int) & (a_q < n_main)
    hi = np.maximum(a_q, n_main)
    # 0-based slot: in the mainline after the qualified bidders above; in
    # the rest after the mainline (or every qualified bidder above, if
    # more) and every unqualified bidder above
    pos = np.where(main, a_q, hi + a_n)
    # next slot's rank-score: the qualified bidder just below, and from the
    # last mainline slot on also the head of the rest queue; none after the last slot
    off_q = np.arange(0, lut.size, lut.shape[1]).reshape(n, 1)
    lut = lut.reshape(-1)
    next_q = lut.take(np.where(main, a_q, hi) + off_q)
    head = lut.take(np.where(main, 0, a_n) + off_q + w_qd)
    next_q = np.where(pos >= n_main - 1, np.maximum(next_q, head), next_q)
    next_q[pos >= last] = 0
    price = np.maximum(next_q, np.where(main, m_int, r_int))
    p = np.where(q_p >= r_int, alpha.reshape(-1).take(pos + table.curve.reshape(n, 1) * w_a), 0.0)
    p *= table.own_quality.reshape(n, 1)
    c = p * (price / den)
    # a price or denominator at or above 2**53 is divided exactly, as Python integers
    if max(int(lut.max()), int(m_int.max()), int(s_int.max()) * MICRO) >= _EXACT_FLOAT:
        den = np.broadcast_to(den, price.shape)
        for i in np.flatnonzero((price >= _EXACT_FLOAT) | (den >= _EXACT_FLOAT)).tolist():
            c.flat[i] = p.flat[i] * (int(price.flat[i]) / int(den.flat[i]))
    return -(-thresholds // s_int), p, c


def _opponents_above(key_cols: list[np.ndarray], q_p: np.ndarray) -> np.ndarray:
    """Per cell, how many of the ``(A, 1)`` key columns exceed the rank-score."""
    n = np.zeros(q_p.shape, dtype=np.int64)
    for keys in key_cols:
        n += keys > q_p
    return n
