"""The auction log: reading it into listing tables and writing them back, byte for byte.

The log format is JSONL with one record per (listing, period, auction draw):

    {"listing_id": "L000", "period": 1, "own_bid": 0.4,
     "competitors": [{"score": 1.1, "bid": 0.3, "quality": 0.5}, ...],
     "rank_reserve": 0.05, "mainline_reserve": 0.1, "mainline_cap": 2,
     "position_curve": [1.0, 0.6, 0.35, 0.2]}

Optional per-record fields: ``own_score``/``own_quality`` (default 1.0),
``truth_value`` (ground truth on synthetic logs), ``mainline_count``
(default ``min(mainline_cap, len(position_curve))``). Strings, booleans and
non-finite numbers where a number belongs, scores below
:data:`~gspinfer.auction.MIN_SCORE` and scores, bids or reserves above
:data:`~gspinfer.auction.MAX_MAGNITUDE` are rejected with the line number.
Synthetic and real data flow through the same reader into one
:class:`~gspinfer.auction.ListingHistory` table per listing.

The reader checks each record's shape as its line is decoded and each
column of numbers once per block of :data:`BLOCK_LINES` lines, with C-level
operations, and formats no message; only when a check fails does it walk
the records one by one, and the walk names the fault. Either pass holds the
tables it builds plus one block of numbers as Python objects: each block is
moved to int64/float64 arrays, and the arrays are gathered into table order
one column at a time, each column's blocks dropped as it is gathered.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .auction import ListingHistory, log_ahead

REQUIRED_FIELDS = {
    "listing_id", "period", "own_bid", "competitors",
    "rank_reserve", "mainline_reserve", "mainline_cap", "position_curve",
}
OPTIONAL_FIELDS = {"own_score", "own_quality", "truth_value", "mainline_count"}
COMPETITOR_FIELDS = {"score", "bid", "quality"}
#: Longest listing id in UTF-8 bytes: ``nr_boundary_<id>.csv`` must fit a 255-byte file name.
MAX_ID_BYTES = 255 - len("nr_boundary_.csv")


class ParseError(ValueError):
    """A malformed log record or bundle; carries the line number when there is one."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


_INT64 = 2**63


def _value(x, kind: type):
    """``x`` if it is a log or bundle value of ``kind``, else ValueError.

    ``float`` means a finite number, ``int`` an integer; neither accepts a bool.
    """
    ok = (isinstance(x, (int, float)) and math.isfinite(x)) if kind is float else isinstance(x, kind)
    if not ok or (isinstance(x, bool) and kind is not bool):
        raise ValueError(f"expected {kind.__name__}, got {x!r}")
    return x


def _checked(x, kind: type, line: int, field: str):
    """``x`` if it is a log value of ``kind`` (:func:`_value`, as in a bundle), else a ParseError naming ``field``."""
    try:
        _value(x, kind)
    except (ValueError, OverflowError) as exc:
        raise ParseError(line, f"{field}: {exc}") from exc
    if kind is int and not -_INT64 <= x < _INT64:
        raise ParseError(line, f"{field}: {x} does not fit in 64 bits")
    return x


def _floats(xs: list, line: int, fields) -> list[float]:
    """``xs`` as floats if each is a log number, else a ParseError naming its field (``fields``, in order)."""
    return [float(_checked(x, float, line, field)) for x, field in zip(xs, fields)]


def _check_id(listing_id, line: int | None) -> str:
    """``listing_id`` if it is a non-empty string that can name ``nr_boundary_<id>.csv``, else a ParseError."""
    if not isinstance(listing_id, str) or not listing_id:
        raise ParseError(line, "listing_id must be a non-empty string")
    try:
        size = len(listing_id.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
        size = None
    if size is None or size > MAX_ID_BYTES or "/" in listing_id or "\0" in listing_id:
        raise ParseError(line, f"listing_id must name a file: no '/', NUL or lone surrogate, at most {MAX_ID_BYTES} UTF-8 bytes")
    return listing_id


def _parse_record(obj, line: int):
    """One record's listing id, period, mainline cap and count, truth, position curve, own numbers and competitors."""
    if not isinstance(obj, dict):
        raise ParseError(line, "record must be a JSON object")
    unknown = obj.keys() - REQUIRED_FIELDS - OPTIONAL_FIELDS
    if unknown:
        raise ParseError(line, f"unknown fields {sorted(unknown)}")
    missing = REQUIRED_FIELDS - obj.keys()
    if missing:
        raise ParseError(line, f"missing fields {sorted(missing)}")
    listing_id = _check_id(obj["listing_id"], line)
    period = _checked(obj["period"], int, line, "period")
    own_fields = ("own_bid", "own_score", "own_quality", "rank_reserve", "mainline_reserve")
    own = _floats([obj.get(f, 1.0) for f in own_fields], line, own_fields)
    competitors = obj["competitors"]
    if not isinstance(competitors, list):
        raise ParseError(line, "competitors must be a list")
    for k, comp in enumerate(competitors):
        if not isinstance(comp, dict) or comp.keys() != COMPETITOR_FIELDS:
            raise ParseError(line, f"competitor {k} must have exactly fields {sorted(COMPETITOR_FIELDS)}")
    flat = _floats([c[f] for c in competitors for f in ("score", "quality", "bid")], line,
                   (f"competitor {k} {f}" for k in range(len(competitors)) for f in ("score", "quality", "bid")))
    curve = obj["position_curve"]
    if not isinstance(curve, list) or not curve:
        raise ParseError(line, "position_curve must be a non-empty list")
    curve = tuple(_floats(curve, line, ["position_curve"] * len(curve)))
    cap = _checked(obj["mainline_cap"], int, line, "mainline_cap")
    n_main = obj.get("mainline_count")
    if n_main is None:
        n_main = min(cap, len(curve))
    elif not 0 <= _checked(n_main, int, line, "mainline_count") <= len(curve):
        raise ParseError(line, "mainline_count must be an integer in [0, len(position_curve)]")
    truth = obj.get("truth_value")
    if truth is not None:
        truth = float(_checked(truth, float, line, "truth_value"))
    return listing_id, period, cap, n_main, truth, curve, own, flat


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


_DECODER = json.JSONDecoder(parse_constant=_non_finite)


def ingest(path: str) -> list[ListingHistory]:
    """Read an auction log into one table per listing, ordered by listing id.

    The log is read column by column (:func:`_columns`): each record's shape
    is checked as its line is decoded, each column's types, int64 or float64
    range and finiteness once per block of :data:`BLOCK_LINES` lines, and one
    own bid per period and one truth per listing once the file is read. Only
    when one of these fails is the log read again record by record
    (:func:`_walk`), which names the fault. The range, contiguous-period and
    truth checks run on the tables of either pass.

    Raises :class:`ParseError` with the offending line number for undecodable
    lines, schema violations, out-of-range numbers (the first bad line before
    any other error), inconsistent per-period data, or non-contiguous periods.
    """
    tables, error = _columns(path), None
    if tables is None:
        tables, error = _walk(path)
    faults = []
    for table, lines in tables:
        rows = np.flatnonzero(table.invalid_rows())
        if len(rows):
            row = rows[np.argmin(lines[rows])]
            faults.append((int(lines[row]), table.row_error(row)))
    if faults:  # an out-of-range number on a line before the error, if any
        raise ParseError(*min(faults))
    if error:
        raise error
    for table, lines in tables:
        lid, first_line = table.listing_id, int(lines.min())
        steps = np.diff(table.period)  # rows are ordered by period
        gaps = np.flatnonzero((steps != 0) & (steps != 1))
        if len(gaps):
            a, b = table.period[gaps[0]:gaps[0] + 2].tolist()
            raise ParseError(first_line, f"listing {lid!r} has non-contiguous periods ({a} then {b})")
        if (table.truth or 0.0) < 0:
            raise ParseError(first_line, f"listing {lid!r}: truth value must be non-negative")
    return [table for table, _ in tables]


_FIELDS = REQUIRED_FIELDS | OPTIONAL_FIELDS
_RECORD = itemgetter(
    "listing_id", "period", "own_bid", "rank_reserve", "mainline_reserve", "mainline_cap",
    "competitors", "position_curve",
)
_ENTRY = itemgetter("score", "quality", "bid")
_SCAN = _DECODER.scan_once  # (value, end) of the JSON value at an index; StopIteration if there is none

#: Lines of log whose numbers ingest holds as Python objects: after each block of this many lines they are
#: checked and moved to int64/float64 arrays, so ingest holds the tables it builds plus one block.
BLOCK_LINES = 512


class _Numbers:
    """A log's numbers, gathered per record into lists that :meth:`flush` moves to arrays a block at a time.

    Per record ``ints`` gets its line, listing index, period, mainline cap and count, curve index and
    competitor count, ``own`` its own bid, score and quality and both reserves, ``flat`` its competitors'
    score, quality and bid, ``values`` its position curve, and ``truth_rows``/``truth_values`` its listing
    index and truth, if it has one. Each of the 15 columns (7 + 5 + 3) keeps its own list of blocks.
    """

    def __init__(self):
        self.ints, self.own, self.flat, self.values, self.truth_rows, self.truth_values = [], [], [], [], [], []
        self.blocks = [[] for _ in range(15)]
        self.truths = [], []

    def flush(self) -> None:
        """Move the lists to arrays, or raise ValueError or OverflowError, with no message, on a bad number.

        Element types are ``int`` for the integer columns and ``int`` or ``float``, so never a ``bool``,
        for the rest; integers must fit in int64 and numbers be finite as float64.
        """
        if not (set(map(type, self.ints)) <= {int}
                and set(map(type, chain(self.own, self.flat, self.values, self.truth_values))) <= {int, float}):
            raise ValueError
        ints = np.array(self.ints, dtype=np.int64).reshape(-1, 7)
        own, flat, values, truth = (np.array(x, dtype=np.float64)
                                    for x in (self.own, self.flat, self.values, self.truth_values))
        if not all(np.isfinite(x).all() for x in (own, flat, values, truth)):
            raise ValueError
        for blocks, column in zip(self.blocks, chain(ints.T, own.reshape(-1, 5).T, flat.reshape(-1, 3).T)):
            blocks.append(column.copy())  # contiguous, and not a view that keeps the whole block
        self.truths[0].append(np.array(self.truth_rows, dtype=np.int64))
        self.truths[1].append(truth)
        for x in (self.ints, self.own, self.flat, self.values, self.truth_rows, self.truth_values):
            x.clear()  # in place: the readers hold the lists

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of every flushed record, in file order; its blocks are dropped."""
        blocks = self.blocks[j]
        self.blocks[j] = []
        return np.concatenate(blocks)


def _lines(path: str, numbers: _Numbers):
    """Each line of the log, bytes, with its number; ``numbers`` is flushed after every :data:`BLOCK_LINES` lines.

    The caller flushes the last block.
    """
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
        for line_no, raw in enumerate(fh, start=1):
            yield line_no, raw
            if not line_no % BLOCK_LINES:
                numbers.flush()


def _columns(path: str) -> list[tuple[ListingHistory, np.ndarray]] | None:
    """:func:`_tables` of a well-formed log, or None, with no message, if any record is malformed.

    Each line is decoded and its record's shape checked with C-level
    operations: a JSON object with the required fields and no unknown one,
    list-typed ``competitors``, each an object of exactly ``score``,
    ``quality`` and ``bid``, and a non-empty ``position_curve`` list. Its
    values are gathered raw, and every :data:`BLOCK_LINES` lines each column
    of the block is checked once (:meth:`_Numbers.flush`): element types,
    integers within int64, numbers within float64 and finite. Then one own
    bid per period and one truth per listing are checked.
    """
    ids: dict[str, int] = {}  # listing id -> index, in order of first appearance
    curves: list[dict[tuple[float, ...], int]] = []  # per listing, its distinct position curves
    numbers = _Numbers()
    ints, own, flat, values = numbers.ints, numbers.own, numbers.flat, numbers.values
    try:
        for line_no, raw in _lines(path, numbers):
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            obj, end = _SCAN(text, 0)  # the walk's decode without its wrapper: any failure is a fault
            if end != len(text) or type(obj) is not dict or not REQUIRED_FIELDS <= obj.keys() <= _FIELDS:
                return None
            lid, period, bid, r, m, cap, comps, curve = _RECORD(obj)
            k = ids.get(lid)  # an unhashable id raises TypeError
            if k is None:
                k = ids[_check_id(lid, line_no)] = len(curves)
                curves.append({})
            # every entry has the three fields, so their lengths sum to three per entry only if none has more
            if type(comps) is not list or sum(map(len, comps)) != 3 * len(comps):
                return None
            flat.extend(chain.from_iterable(map(_ENTRY, comps)))
            if type(curve) is not list or not curve:
                return None
            values.extend(curve)  # typed raw, not through the curve keys: True == 1.0 and hashes alike
            n_main = obj.get("mainline_count")
            if n_main is None:
                n_main = min(cap, len(curve))
            elif not 0 <= n_main <= len(curve):
                return None
            truth = obj.get("truth_value")
            if truth is not None:
                numbers.truth_rows.append(k)
                numbers.truth_values.append(truth)
            interned = curves[k]
            index = interned.setdefault(tuple(map(float, curve)), len(interned))
            ints.extend((line_no, k, period, cap, n_main, index, len(comps)))
            own.extend((bid, obj.get("own_score", 1.0), obj.get("own_quality", 1.0), r, m))
        numbers.flush()
    except (ValueError, TypeError, KeyError, OverflowError, StopIteration, RecursionError):
        return None
    rows, truth = (np.concatenate(x) for x in numbers.truths)
    order = np.argsort(rows, kind="stable")
    listing, truth = rows[order], truth[order]
    first = np.diff(listing, prepend=-1) != 0  # each listing's first truth in file order
    if not (first[1:] | (truth[1:] == truth[:-1])).all():
        return None
    tables = _tables(ids, curves, numbers, dict(zip(listing[first].tolist(), truth[first].tolist())))
    for table, _ in tables:
        period, bid = table.period, table.own_bid
        if not ((period[1:] != period[:-1]) | (bid[1:] == bid[:-1])).all():
            return None
    return tables


def _walk(path: str) -> tuple[list[tuple[ListingHistory, np.ndarray]], ParseError | None]:
    """:func:`_tables` of the records before the first malformed one, each checked on its own, and its ParseError.

    The error is None when every record is well-formed.
    """
    ids: dict[str, int] = {}
    curves: list[dict[tuple[float, ...], int]] = []
    numbers = _Numbers()
    bids: dict[tuple[int, int], float] = {}
    truths: dict[int, float | None] = {}
    error = None
    try:
        for line_no, raw in _lines(path, numbers):
            try:  # bad UTF-8 or JSON, a non-finite constant, an over-long integer, deep nesting
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                obj = _DECODER.decode(text)
            except (ValueError, RecursionError) as exc:
                raise ParseError(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            lid, period, cap, n_main, truth, curve, floats, entries = _parse_record(obj, line_no)
            k = ids.setdefault(lid, len(curves))
            if k == len(curves):
                curves.append({})
            index = curves[k].setdefault(curve, len(curves[k]))
            numbers.ints.extend((line_no, k, period, cap, n_main, index, len(entries) // 3))
            numbers.own.extend(floats)
            numbers.flat.extend(entries)
            if bids.setdefault((k, period), floats[0]) != floats[0]:
                raise ParseError(line_no, f"inconsistent own_bid within listing {lid!r} period {period}")
            if truth is not None and truths.get(k) not in (None, truth):
                raise ParseError(line_no, f"inconsistent truth_value for listing {lid!r}")
            if truths.get(k) is None:  # the first truth, as the column pass keeps: 0.0 and -0.0 are equal
                truths[k] = truth
    except ParseError as exc:
        error = exc
    numbers.flush()
    return _tables(ids, curves, numbers, truths), error


def _tables(ids: dict[str, int], curves: list[dict], numbers: _Numbers, truths: dict[int, float | None]):
    """One table per listing, ordered by listing id, each with the line of each row.

    Row ``j`` of ``numbers``' columns is the ``j``-th record of the file. A
    listing's rows are ordered by period, a period's auctions in file order.
    Each column is gathered into that order on its own and its blocks are
    dropped as it is, so the gather holds one copy of the numbers plus two
    columns.
    """
    names = sorted(ids)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[ids[lid] for lid in names]] = np.arange(len(names))
    period, listing = numbers.column(2), rank[numbers.column(1)]
    order = np.lexsort((period, listing))  # by listing id, then period; stable within a period
    period, listing = period[order], listing[order]
    count = numbers.column(6)
    shift = (np.cumsum(count) - count)[order]  # each row's first competitor entry in the file
    count = count[order]
    line, cap, n_main, curve = (numbers.column(j)[order] for j in (0, 3, 4, 5))
    own = [numbers.column(j)[order] for j in range(7, 12)]
    offsets = np.r_[0, np.cumsum(count)]
    shift -= offsets[:-1]
    score, quality, bid = (_gather(numbers.column(j), shift, count, offsets) for j in (12, 13, 14))
    bounds = np.searchsorted(listing, np.arange(len(names) + 1)).tolist()
    tables = []
    for lid, lo, hi in zip(names, bounds, bounds[1:]):
        a, b = offsets[lo], offsets[hi]
        table = ListingHistory(  # the columns in field order
            lid, period[lo:hi], *(column[lo:hi] for column in own), cap[lo:hi], n_main[lo:hi], curve[lo:hi],
            tuple(curves[ids[lid]]), offsets[lo:hi + 1] - a, score[a:b], quality[a:b], bid[a:b],
            log_ahead(lid, offsets[lo:hi + 1] - a), truths.get(ids[lid]),
        )
        tables.append((table, line[lo:hi]))
    return tables


def _gather(source: np.ndarray, shift: np.ndarray, count: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """A competitor column in row order: row ``i``'s ``count[i]`` entries start at ``source[offsets[i] + shift[i]]``.

    Indexed a block of :data:`BLOCK_LINES` rows at a time, so no index as long as the column is made.
    """
    out = np.empty_like(source)
    for lo in range(0, len(count), BLOCK_LINES):
        a, b = offsets[lo], offsets[min(lo + BLOCK_LINES, len(count))]
        out[a:b] = source[np.repeat(shift[lo:lo + BLOCK_LINES], count[lo:lo + BLOCK_LINES]) + np.arange(a, b)]
    return out


class _EntryTexts(dict):
    """A competitor entry's log text by its (score, bid, quality) float64 bytes, formatted on first lookup."""

    def __missing__(self, key: bytes) -> str:
        # numpy's "S24" drops trailing zero bytes; the width restores them
        text = self[key] = '{"score":%r,"bid":%r,"quality":%r}' % struct.unpack("=3d", key.ljust(24, b"\0"))
        return text


def write_histories(histories: Sequence[ListingHistory], path: str) -> None:
    """Serialize histories to the JSONL auction-log format (round-trip exact).

    Lines are formatted from the columns as ``json.dumps(record, separators=(",", ":"))`` writes them;
    each distinct competitor entry is formatted once per call.
    """
    entries = _EntryTexts()
    with open(path, "w", encoding="utf-8") as fh:
        for h in histories:
            # an entry's key is its 24 bytes, so -0.0 and 0.0 stay apart
            keys = np.stack((h.score, h.bid, h.quality), axis=1).view("S24").ravel().tolist()
            competitors = [entries[k] for k in keys]
            curves = [json.dumps(list(c), separators=(",", ":")) for c in h.curves]
            lid, offsets = json.dumps(h.listing_id), h.offsets.tolist()
            truth = "" if h.truth is None else ',"truth_value":' + json.dumps(h.truth)
            rows = zip(offsets, offsets[1:], h.period.tolist(), h.own_bid.tolist(), h.rank_reserve.tolist(),
                       h.mainline_reserve.tolist(), h.mainline_cap.tolist(), h.curve.tolist(),
                       h.mainline_count.tolist(), h.own_score.tolist(), h.own_quality.tolist())
            fh.write("".join(
                '{"listing_id":%s,"period":%r,"own_bid":%r,"competitors":[%s],"rank_reserve":%r,'
                '"mainline_reserve":%r,"mainline_cap":%r,"position_curve":%s,"mainline_count":%r%s%s%s}\n' % (
                    lid, period, own_bid, ",".join(competitors[lo:hi]), r, m, cap, curves[curve], n_main,
                    "" if own_score == 1.0 else ',"own_score":%r' % own_score,
                    "" if own_quality == 1.0 else ',"own_quality":%r' % own_quality, truth)
                for lo, hi, period, own_bid, r, m, cap, curve, n_main, own_score, own_quality in rows
            ))
