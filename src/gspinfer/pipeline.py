"""Auction-log ingestion, per-account inference, and plot-ready exports.

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
column of numbers once, with C-level operations, and formats no message;
only when a check fails does it walk the records one by one, and the walk
names the fault.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .auction import MAX_MAGNITUDE, ListingHistory, log_ahead
from .inference import (
    DEFAULT_PRECISION,
    DeviationCurve,
    InferenceError,
    PointPrediction,
    RationalizableRegion,
    build_deviation_curve,
    build_region,
    min_mult_regret,
)

if TYPE_CHECKING:
    from .geometry import RateStudyResult

REQUIRED_FIELDS = {
    "listing_id", "period", "own_bid", "competitors",
    "rank_reserve", "mainline_reserve", "mainline_cap", "position_curve",
}
OPTIONAL_FIELDS = {"own_score", "own_quality", "truth_value", "mainline_count"}
COMPETITOR_FIELDS = {"score", "bid", "quality"}


#: Most deviation-grid points a config may ask for: a 1e-5 step on [0, bid_max].
MAX_GRID_POINTS = 100_001
#: Narrowest histogram bucket a config may ask for: 10 000 buckets on [0, 1).
MIN_BUCKET_WIDTH = 1e-4
#: Longest listing id in UTF-8 bytes: ``nr_boundary_<id>.csv`` must fit a 255-byte file name.
MAX_ID_BYTES = 255 - len("nr_boundary_.csv")


class ParseError(ValueError):
    """A malformed log record or bundle; carries the line number when there is one."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def default_bid_grid(bid_max: float, step_fraction: float = 0.01) -> tuple[float, ...]:
    """Even grid from 0 with step ``step_fraction * bid_max``, up to the last point not above ``bid_max``."""
    if bid_max <= 0:
        raise InferenceError("bid_max must be positive")
    n = math.floor(1.0 / step_fraction + 1e-9)
    return tuple(round(k * step_fraction * bid_max, 12) for k in range(n + 1))


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for per-listing inference.

    ``grid_step=None`` means one percent of ``bid_max``. ``value_cap=None``
    derives the cap from the steepest half-plane at ``epsilon_max``.
    """

    bid_max: float = 1.0
    grid_step: float | None = None
    epsilon_max: float = 1.0
    precision: float = DEFAULT_PRECISION
    learning_threshold: float = 1e-4
    boundary_samples: int = 201
    histogram_bucket_width: float = 0.05
    value_cap: float | None = None

    def bid_grid(self) -> tuple[float, ...]:
        """The deviation grid; raises :class:`InferenceError` for any config value no listing could run with."""
        if not 0.0 < self.bid_max <= MAX_MAGNITUDE:
            raise InferenceError(f"bid_max must lie in (0, {MAX_MAGNITUDE:g}] (got {self.bid_max})")
        step = self.grid_step if self.grid_step is not None else 0.01 * self.bid_max
        fraction = step / self.bid_max
        # default_bid_grid makes floor(1 / fraction + 1e-9) + 1 points
        if not 0 < step <= self.bid_max or fraction == 0.0 or 1.0 / fraction + 1e-9 >= MAX_GRID_POINTS:
            raise InferenceError(
                f"grid step must lie in (0, bid_max] and make at most {MAX_GRID_POINTS} grid points (got {step})"
            )
        if not MIN_BUCKET_WIDTH <= self.histogram_bucket_width <= 1.0:
            raise InferenceError(
                f"histogram_bucket_width must lie in (0, 1] and be at least {MIN_BUCKET_WIDTH:g} "
                f"(got {self.histogram_bucket_width})"
            )
        if not 0.0 < 1.0 - self.precision < 1.0:
            raise InferenceError(f"precision must lie in (0, 1), with 1 - precision below 1 (got {self.precision})")
        if self.boundary_samples < 2:
            raise InferenceError(f"boundary_samples must be at least 2 (got {self.boundary_samples})")
        if self.value_cap is not None and not (self.value_cap > 0 and math.isfinite(self.value_cap)):
            raise InferenceError(f"value cap must be positive and finite (got {self.value_cap})")
        for name in ("epsilon_max", "learning_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise InferenceError(f"{name} must be finite (got {getattr(self, name)})")
        grid = default_bid_grid(self.bid_max, fraction)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InferenceError(f"bid_max {self.bid_max} is too small for a grid rounded to 12 decimals")
        return grid

    def bucket_edges(self) -> list[float]:
        """The ``delta*`` histogram's edges: multiples of the width, then 1.0 (the last bucket counts up to 1)."""
        width = self.histogram_bucket_width
        return [k * width for k in range(max(1, round(1.0 / width)))] + [1.0]


@dataclass(frozen=True)
class ListingArtifacts:
    """Everything inferred for one listing; its id is its key in every artifacts dict."""

    curve: DeviationCurve
    region: RationalizableRegion
    prediction: PointPrediction
    mean_bid: float


@dataclass(frozen=True)
class AccountSummary:
    """What an account run found beyond its listings: how many succeeded and which failed."""

    listing_count: int
    errors: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Ingestion / serialization
# ---------------------------------------------------------------------------


_INT64 = 2**63


def _checked(x, kind: type, line: int, field: str):
    """``x`` if it is a log value of ``kind`` (the bundle codec's :func:`_value`), else a ParseError naming ``field``."""
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
    is checked as its line is decoded, and each column's types, int64 or
    float64 range and finiteness once the file is read, with one own bid per
    period and one truth per listing. Only when one of these fails is the
    log read again record by record (:func:`_walk`), which names the fault.
    The range, contiguous-period and truth checks run on the tables of
    either pass.

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


def _columns(path: str) -> list[tuple[ListingHistory, np.ndarray]] | None:
    """:func:`_tables` of a well-formed log, or None, with no message, if any record is malformed.

    Each line is decoded and its record's shape checked with C-level
    operations: a JSON object with the required fields and no unknown one,
    list-typed ``competitors``, each an object of exactly ``score``,
    ``quality`` and ``bid``, and a non-empty ``position_curve`` list. Its
    values are gathered raw into columns. Then each column is checked once:
    element types (``int`` for the integer columns, ``int`` or ``float``,
    so never a ``bool``, for the rest), integers within int64, numbers within
    float64 and finite, one own bid per period and one truth per listing.
    """
    ids: dict[str, int] = {}  # listing id -> index, in order of first appearance
    curves: list[dict[tuple[float, ...], int]] = []  # per listing, its distinct position curves
    ints, own, flat, values, truth_rows, truth_values = [], [], [], [], [], []
    try:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
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
                    truth_rows.append(k)
                    truth_values.append(truth)
                interned = curves[k]
                index = interned.setdefault(tuple(map(float, curve)), len(interned))
                ints.extend((line_no, k, period, cap, n_main, index, len(comps)))
                own.extend((bid, obj.get("own_score", 1.0), obj.get("own_quality", 1.0), r, m))
        if not set(map(type, ints)) <= {int}:
            return None
        if not set(map(type, chain(own, flat, values, truth_values))) <= {int, float}:
            return None
        ints = np.array(ints, dtype=np.int64)
        own, flat, truth_values = (np.array(x, dtype=np.float64) for x in (own, flat, truth_values))
    except (ValueError, TypeError, KeyError, OverflowError, StopIteration, RecursionError):
        return None
    if not (np.isfinite(own).all() and np.isfinite(flat).all() and np.isfinite(truth_values).all()
            and all(map(math.isfinite, chain.from_iterable(chain.from_iterable(curves))))):
        return None
    order = np.argsort(truth_rows, kind="stable")
    listing, truth = np.array(truth_rows, dtype=np.int64)[order], truth_values[order]
    first = np.diff(listing, prepend=-1) != 0  # each listing's first truth in file order
    if not (first[1:] | (truth[1:] == truth[:-1])).all():
        return None
    tables = _tables(ids, curves, ints, own, flat, dict(zip(listing[first].tolist(), truth[first].tolist())))
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
    ints, own, flat = [], [], []
    bids: dict[tuple[int, int], float] = {}
    truths: dict[int, float | None] = {}
    error = None
    try:
        with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
            for line_no, raw in enumerate(fh, start=1):
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
                ints.extend((line_no, k, period, cap, n_main, index, len(entries) // 3))
                own.extend(floats)
                flat.extend(entries)
                if bids.setdefault((k, period), floats[0]) != floats[0]:
                    raise ParseError(line_no, f"inconsistent own_bid within listing {lid!r} period {period}")
                if truth is not None and truths.get(k) not in (None, truth):
                    raise ParseError(line_no, f"inconsistent truth_value for listing {lid!r}")
                if truth is not None or k not in truths:
                    truths[k] = truth
    except ParseError as exc:
        error = exc
    return _tables(ids, curves, ints, own, flat, truths), error


def _tables(ids: dict[str, int], curves: list[dict], ints, own, flat, truths: dict[int, float | None]):
    """One table per listing, ordered by listing id, each with the line of each row.

    Row ``j`` of the gathered columns is the ``j``-th record of the file:
    ``ints`` holds its line, listing index, period, mainline cap and count,
    curve index and competitor count, ``own`` its own bid, score and quality
    and both reserves, and ``flat`` its competitors' score, quality and bid.
    A listing's rows are ordered by period, a period's auctions in file order.
    """
    ints = np.asarray(ints, dtype=np.int64).reshape(-1, 7)
    names = sorted(ids)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[ids[lid] for lid in names]] = np.arange(len(names))
    count = ints[:, 6]
    starts = np.cumsum(count) - count  # each record's first competitor entry
    order = np.lexsort((ints[:, 2], rank[ints[:, 1]]))  # by listing id, then period; stable within a period
    # gathered column by column: each is contiguous, and no reordered copy of the whole block is made
    line, listing, period, cap, n_main, curve, count = (column[order] for column in ints.T)
    own = [column[order] for column in np.asarray(own, dtype=np.float64).reshape(-1, 5).T]
    offsets = np.r_[0, np.cumsum(count)]
    entries = np.repeat(starts[order] - offsets[:-1], count) + np.arange(offsets[-1])
    score, quality, bid = (column[entries] for column in np.asarray(flat, dtype=np.float64).reshape(-1, 3).T)
    bounds = np.searchsorted(rank[listing], np.arange(len(names) + 1)).tolist()
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


# ---------------------------------------------------------------------------
# Account inference
# ---------------------------------------------------------------------------


def infer_listing(history: ListingHistory, config: InferenceConfig, grid: Sequence[float]) -> ListingArtifacts:
    """Deviation curve on ``grid``, bounded region, and point prediction for one listing.

    ``grid`` is ``config.bid_grid()``, which :func:`infer_account` computes once.
    """
    curve = build_deviation_curve(history, grid)
    region = build_region(
        curve,
        eps_cap=config.epsilon_max,
        v_max=config.value_cap,
        boundary_samples=config.boundary_samples,
    )
    prediction = min_mult_regret(curve, precision=config.precision, v_max=region.value_cap)
    return ListingArtifacts(
        curve=curve,
        region=region,
        prediction=prediction,
        mean_bid=history.mean_bid(),
    )


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    """A ``concurrent.futures`` process pool, imported on first use: it loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _infer_one(args: tuple[ListingHistory, InferenceConfig, tuple[float, ...]]):
    history, config, grid = args
    try:
        return history.listing_id, infer_listing(history, config, grid), None
    except ValueError as exc:
        return history.listing_id, None, str(exc)


def infer_account(
    histories: Sequence[ListingHistory],
    config: InferenceConfig,
    jobs: int = 1,
) -> tuple[AccountSummary, dict[str, ListingArtifacts]]:
    """Run inference over every listing; the summary counts them and keeps each failure.

    A listing whose inference fails is recorded under ``errors`` and the run
    continues; a bad config value (from :meth:`InferenceConfig.bid_grid`) or
    ``jobs`` below 1 raises :class:`InferenceError` before any listing runs.
    ``jobs > 1`` fans listings out to a process pool; results are identical
    to the serial run.
    """
    if jobs < 1:
        raise InferenceError(f"jobs must be at least 1 (got {jobs})")
    grid = config.bid_grid()
    ordered = sorted(histories, key=lambda h: h.listing_id)
    tasks = [(h, config, grid) for h in ordered]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_infer_one, tasks))
    else:
        results = [_infer_one(t) for t in tasks]
    artifacts: dict[str, ListingArtifacts] = {}
    errors: list[tuple[str, str]] = []
    for lid, art, err in results:
        if err is not None:
            errors.append((lid, err))
        else:
            artifacts[lid] = art
    return AccountSummary(listing_count=len(artifacts), errors=tuple(errors)), artifacts


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _json_text(obj) -> str:
    """The JSON form of every output: two-space indent, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_dump(obj, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj))
    return path


@cache  # once per class
def _schema(kind: type) -> dict:
    """A dataclass's fields as ``{name: type}``; the name is also the field's bundle key."""
    hints = get_type_hints(kind)
    return {f.name: hints[f.name] for f in fields(kind)}


def _encode(obj):
    """A dataclass as a bundle object of its fields, recursively; anything else as it is (a tuple is a JSON list)."""
    if is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    return obj


def artifacts_to_json(
    summary: AccountSummary, artifacts: dict[str, ListingArtifacts], config: InferenceConfig
) -> dict:
    """A JSON-encodable bundle holding everything needed to re-run exports.

    Each dataclass is an object of its fields, keyed by their names, and a
    listing's id is its key in ``listings``. One fact sits beside that
    codec: each ``prediction`` also holds a copy of its region's
    ``epsilon_min``, because ``perfbench/checks.py`` reads it there.
    """
    bundle = _encode({"config": config, "summary": summary, "listings": dict(sorted(artifacts.items()))})
    for listing in bundle["listings"].values():
        listing["prediction"]["epsilon_min"] = listing["region"]["epsilon_min"]
    return bundle


def _value(x, kind: type):
    """``x`` if it is a bundle value of ``kind``, else ValueError.

    ``float`` means a finite number, ``int`` an integer; neither accepts a bool.
    """
    ok = (isinstance(x, (int, float)) and math.isfinite(x)) if kind is float else isinstance(x, kind)
    if not ok or (isinstance(x, bool) and kind is not bool):
        raise ValueError(f"expected {kind.__name__}, got {x!r}")
    return x


def _decode(kind, x):
    """Bundle value ``x`` as a value of type ``kind``, else ValueError or KeyError.

    A dataclass or a dict of kinds is read from an object with exactly its
    keys, ``tuple[...]`` from a list, ``dict[str, X]`` from an object and
    ``X | None`` from null too; anything else is checked by :func:`_value`.
    """
    if type(kind) is type and not is_dataclass(kind):  # not isinstance: 3.10 calls tuple[...] a type
        return _value(x, kind)
    if isinstance(kind, dict) or is_dataclass(kind):
        names = _schema(kind) if is_dataclass(kind) else kind
        unknown = sorted(_value(x, dict).keys() - names.keys())
        if unknown:
            raise ValueError(f"unexpected key {unknown[0]!r}")
        values = {name: _decode(t, x[name]) for name, t in names.items()}
        return kind(**values) if is_dataclass(kind) else values
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple([_decode(args[0], v) for v in _value(x, list)])
        if not isinstance(x, list) or len(x) != len(args):
            raise ValueError(f"expected a list of {len(args)}, got {x!r}")
        return tuple(map(_decode, args, x))
    if origin is dict:
        return {_value(k, str): _decode(args[1], v) for k, v in _value(x, dict).items()}
    return None if x is None else _decode(args[0], x)  # X | None


def artifacts_from_json(
    bundle: dict,
) -> tuple[AccountSummary, dict[str, ListingArtifacts], InferenceConfig]:
    """Inverse of :func:`artifacts_to_json`: the summary, artifacts and config it encodes.

    A bundle that lacks a key, has a key it does not write, holds a value of the
    wrong type or shape, a config that :meth:`InferenceConfig.bid_grid` rejects,
    a listing id that cannot name a file or a wrong listing count raises :class:`ParseError`.
    """
    try:
        top = _decode({"summary": AccountSummary, "listings": dict[str, dict], "config": InferenceConfig}, bundle)
        top["config"].bid_grid()
        if top["summary"].listing_count != len(top["listings"]):
            raise ValueError(f"listing_count {top['summary'].listing_count} but {len(top['listings'])} listings")
        artifacts = {}
        for lid, listing in top["listings"].items():
            _check_id(lid, None)
            prediction = dict(_value(listing["prediction"], dict))
            _value(prediction.pop("epsilon_min"), float)  # the region's, copied for readers of the file
            artifacts[lid] = _decode(ListingArtifacts, {**listing, "prediction": prediction})
        return top["summary"], artifacts, top["config"]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(None, f"bad artifacts bundle: {type(exc).__name__}: {exc}") from exc


def predictions_payload(artifacts: dict[str, ListingArtifacts]) -> list[dict]:
    """Per-listing point predictions, the content of ``predictions.json``."""
    return [
        {
            "listing_id": lid,
            "delta_star": art.prediction.delta_star,
            "v_star": art.prediction.v_star,
            "eps0": art.region.epsilon_min,
            "shading_ratio": art.mean_bid / art.prediction.v_star if art.prediction.v_star > 0 else None,
        }
        for lid, art in sorted(artifacts.items())
    ]


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export(
    summary: AccountSummary,
    artifacts: dict[str, ListingArtifacts],
    config: InferenceConfig,
    out_dir: str,
) -> list[str]:
    """Write the per-listing boundary CSVs and the account-level outputs.

    Emits ``nr_boundary_<id>.csv``, ``predictions.json``,
    ``account_summary.json``, ``histogram_delta.csv`` and
    ``scatter_v_delta.csv``; returns the written paths. ``config`` gives the
    ``delta*`` histogram's bucket width and the scatter's learning threshold.
    Re-running on the same inputs reproduces the files byte for byte. An
    ``out_dir`` that holds a boundary CSV of a listing not in ``artifacts``
    raises :class:`FileExistsError` naming it, before anything is written, so
    the boundary files name the run's listings.
    """
    boundaries = {f"nr_boundary_{lid}.csv" for lid in artifacts}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("nr_boundary_") and name.endswith(".csv") and name not in boundaries:
                raise FileExistsError(f"{os.path.join(out_dir, name)} is the boundary of a listing this run does not "
                                      "export; remove it or choose another output directory")
    os.makedirs(out_dir, exist_ok=True)
    written = [
        _write_csv(os.path.join(out_dir, f"nr_boundary_{lid}.csv"), ["v", "epsilon"],
                   ([repr(v), repr(e)] for v, e in artifacts[lid].region.boundary))
        for lid in sorted(artifacts)
    ]
    predictions = predictions_payload(artifacts)
    written.append(_json_dump(predictions, os.path.join(out_dir, "predictions.json")))
    # the roll-up, summed in listing-id order: delta* histogram, learning-phase scatter, mean shading ratio
    width, threshold = config.histogram_bucket_width, config.learning_threshold
    edges = config.bucket_edges()
    counts = [0] * (len(edges) - 1)
    for p in predictions:
        if p["delta_star"] > 0.0:
            counts[min(int(p["delta_star"] / width), len(counts) - 1)] += 1
    scatter = [p for p in predictions if p["delta_star"] > threshold]
    ratios = [p["shading_ratio"] for p in predictions if p["shading_ratio"] is not None]
    account = {
        **_encode(summary),
        "bucket_width": width,
        "learning_threshold": threshold,
        "nonpositive_count": len(predictions) - sum(counts),
        "histogram_counts": counts,
        "scatter_count": len(scatter),
        "mean_shading_ratio": sum(ratios) / len(ratios) if ratios else None,
    }
    written.append(_json_dump(account, os.path.join(out_dir, "account_summary.json")))
    written.append(_write_csv(
        os.path.join(out_dir, "histogram_delta.csv"), ["bucket_low", "bucket_high", "count"],
        [["-inf", "0.0", account["nonpositive_count"]]]
        + [[repr(edges[k]), repr(edges[k + 1]), count] for k, count in enumerate(counts)],
    ))
    written.append(_write_csv(os.path.join(out_dir, "scatter_v_delta.csv"), ["listing_id", "v_star", "delta_star"],
                              ([p["listing_id"], repr(p["v_star"]), repr(p["delta_star"])] for p in scatter)))
    return written


def write_rate_study(result: RateStudyResult, out_dir: str) -> list[str]:
    """CSV table of per-budget errors plus a JSON summary of the fitted slope."""
    os.makedirs(out_dir, exist_ok=True)
    table = _write_csv(os.path.join(out_dir, "rate_study.csv"), ["N", "mean_dh", "std_dh"],
                       ([n, repr(mean), repr(std)] for n, mean, std in result.rows()))
    summary = _json_dump(
        {
            "slope": result.slope,
            "slope_stderr": result.slope_stderr,
            "gamma_target": result.gamma_target,
            "grid_sizes": list(result.grid_sizes),
        },
        os.path.join(out_dir, "rate_study_summary.json"),
    )
    return [table, summary]
