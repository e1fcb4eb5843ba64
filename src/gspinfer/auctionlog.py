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

The reader opens the log once and reads each record once. :func:`_fast`
checks a record with C-level operations and formats no message; only a
record it refuses goes through :func:`_parse_record`, which checks each
value on its own and names the fault. The reader holds the tables it
builds plus one block of numbers as Python objects: each block of
:data:`BLOCK_LINES` lines is moved to int64/float64 arrays, and the arrays
are gathered into table order one column at a time, each column's blocks
dropped as it is gathered.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from contextlib import contextmanager, suppress
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


def _parse_record(text: str, line: int):
    """The record on a stripped line: listing id, period, mainline cap and count, truth, position curve, own
    numbers and competitors, each value checked on its own; else a ParseError naming the first fault."""
    try:  # bad JSON, a non-finite constant, an over-long integer, deep nesting
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(line, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
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

    The file is opened once and each record read once (:func:`_read`): a
    record goes through C-level checks (:func:`_fast`), and only one they
    refuse is checked value by value (:func:`_parse_record`), which names the
    fault. One own bid per period and one truth per listing are checked as
    the records come. The range, contiguous-period and truth checks run on
    the tables built from the records before the first fault.

    Raises :class:`ParseError` with the offending line number for undecodable
    lines, schema violations, out-of-range numbers (the first bad line before
    any other error), inconsistent per-period data, or non-contiguous periods.
    """
    tables, error = _read(path)
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
_RECORD = itemgetter("listing_id", "period", "mainline_cap", "competitors", "position_curve")
_ENTRY = itemgetter("score", "quality", "bid")
_SCAN = _DECODER.scan_once  # (value, end) of the JSON value at an index; StopIteration if there is none
_NUMBER = {int, float}


def _fast(text: str):
    """What :func:`_parse_record` returns for the record on a stripped line, or None if it may be malformed.

    Each check is one C-level operation and none formats a message. The
    listing id is only checked to be a string: the reader checks each new one.
    """
    try:
        obj, end = _SCAN(text, 0)  # the decoder's own scan: no value, a second value or a bad one is a fault
        if end != len(text) or type(obj) is not dict or not REQUIRED_FIELDS <= obj.keys() <= _FIELDS:
            return None
        lid, period, cap, comps, curve = _RECORD(obj)
        n_main, truth = obj.get("mainline_count"), obj.get("truth_value")
        # every entry has the three fields, so their lengths sum to three per entry only if none has more
        if not (type(lid) is str and type(period) is int and type(cap) is int and -_INT64 <= period < _INT64
                and -_INT64 <= cap < _INT64 and type(comps) is list and sum(map(len, comps)) == 3 * len(comps)
                and type(curve) is list and curve
                and (n_main is None or type(n_main) is int and 0 <= n_main <= len(curve))):
            return None
        values = [obj["own_bid"], obj.get("own_score", 1.0), obj.get("own_quality", 1.0), obj["rank_reserve"],
                  obj["mainline_reserve"], *chain.from_iterable(map(_ENTRY, comps)), *curve]
        if truth is not None:
            values.append(truth)
        if not set(map(type, values)) <= _NUMBER:  # so never a bool
            return None
        values = list(map(float, values))  # an integer past float64 overflows
        if not all(map(math.isfinite, values)):
            return None
    except (ValueError, TypeError, KeyError, OverflowError, StopIteration, RecursionError):
        return None
    end = 5 + 3 * len(comps)
    return (lid, period, cap, min(cap, len(curve)) if n_main is None else n_main,
            None if truth is None else values[-1], tuple(values[end:end + len(curve)]), values[:5], values[5:end])


#: Lines of log whose numbers ingest holds as Python objects: after each block of this many lines they are
#: moved to int64/float64 arrays, so ingest holds the tables it builds plus one block.
BLOCK_LINES = 512


class _Numbers:
    """A log's numbers, gathered per record into lists that :meth:`flush` moves to arrays a block at a time.

    Per record ``ints`` gets its line, listing index, period, mainline cap and count, curve index and
    competitor count, ``own`` its own bid, score and quality and both reserves, and ``flat`` its
    competitors' score, quality and bid. Each of the 15 columns (7 + 5 + 3) keeps its own list of blocks.
    """

    def __init__(self):
        self.ints, self.own, self.flat = [], [], []
        self.blocks = [[] for _ in range(15)]

    def flush(self) -> None:
        """Move the lists, whose numbers are checked, to int64 and float64 arrays, one per column."""
        ints = np.array(self.ints, dtype=np.int64).reshape(-1, 7)
        own, flat = (np.array(x, dtype=np.float64) for x in (self.own, self.flat))
        for blocks, column in zip(self.blocks, chain(ints.T, own.reshape(-1, 5).T, flat.reshape(-1, 3).T)):
            blocks.append(column.copy())  # contiguous, and not a view that keeps the whole block
        for x in (self.ints, self.own, self.flat):
            x.clear()

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of every flushed record, in file order; its blocks are dropped."""
        blocks = self.blocks[j]
        self.blocks[j] = []
        return np.concatenate(blocks)


def _read(path: str) -> tuple[list[tuple[ListingHistory, np.ndarray]], ParseError | None]:
    """:func:`_tables` of the records before the first malformed one, and its ParseError (None if there is none).

    A record is read by :func:`_fast`, or by :func:`_parse_record` if that refuses it. The numbers are moved
    to arrays after every :data:`BLOCK_LINES` lines.
    """
    ids: dict[str, int] = {}  # listing id -> index, in order of first appearance
    curves: list[dict[tuple[float, ...], int]] = []  # per listing, its distinct position curves
    numbers = _Numbers()
    bids: dict[tuple[int, int], float] = {}  # (listing index, period) -> the first own bid
    truths: dict[int, float] = {}  # listing index -> the first truth: 0.0 and -0.0 are equal
    error = None
    try:
        with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
            for line_no, raw in enumerate(fh, start=1):
                if not (line_no - 1) % BLOCK_LINES:  # lines 1 to BLOCK_LINES make the first block
                    numbers.flush()
                try:
                    text = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise ParseError(line_no, f"invalid JSON ({exc})") from exc
                if not text:
                    continue
                lid, period, cap, n_main, truth, curve, own, flat = _fast(text) or _parse_record(text, line_no)
                k = ids.get(lid)
                if k is None:
                    k = ids[_check_id(lid, line_no)] = len(curves)
                    curves.append({})
                index = curves[k].setdefault(curve, len(curves[k]))
                numbers.ints.extend((line_no, k, period, cap, n_main, index, len(flat) // 3))
                numbers.own.extend(own)
                numbers.flat.extend(flat)
                if bids.setdefault((k, period), own[0]) != own[0]:
                    raise ParseError(line_no, f"inconsistent own_bid within listing {lid!r} period {period}")
                if truth is not None and truths.setdefault(k, truth) != truth:
                    raise ParseError(line_no, f"inconsistent truth_value for listing {lid!r}")
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

    Lines are formatted as ``json.dumps(record, separators=(",", ":"))`` writes them, each distinct competitor
    entry once per call, and replace ``path`` whole (:func:`_replacing`): a failed write leaves the old file.
    """
    entries = _EntryTexts()
    with _replacing(path) as fh:
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


@contextmanager
def _replacing(path: str, newline: str | None = None):
    """A text file that becomes ``path``: written under a temporary name in its directory, then renamed to it.

    If writing raises, the temporary file is removed, so no file is ever half-written under ``path``. Only a
    new name or a regular file is replaced so; anything else (a symlink, a FIFO, a device) is written through.
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(path), f".gspinfer-{os.getpid()}.tmp")  # short: ``path`` may fill NAME_MAX
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
