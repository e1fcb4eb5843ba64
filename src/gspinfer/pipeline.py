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
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
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


@dataclass(frozen=True)
class ListingArtifacts:
    """Everything inferred for one listing; its id is its key in every artifacts dict."""

    curve: DeviationCurve
    region: RationalizableRegion
    prediction: PointPrediction
    mean_bid: float
    shading_ratio: float | None


@dataclass(frozen=True)
class AccountSummary:
    """Account-level roll-up of the per-listing point predictions.

    The histogram partitions (0, 1) into buckets of ``bucket_width``, the last
    ending at 1, plus a dedicated bucket for listings whose smallest
    rationalizable error is non-positive.
    The scatter holds exactly the listings whose error exceeds
    ``learning_threshold``.
    """

    listing_count: int
    bucket_width: float
    nonpositive_count: int
    histogram_counts: tuple[int, ...]
    shading_ratios: dict[str, float]
    scatter: tuple[tuple[str, float, float], ...]
    learning_threshold: float
    errors: tuple[tuple[str, str], ...] = ()

    def bucket_edges(self) -> list[float]:
        """Multiples of the width, then 1.0: the last bucket counts every ``delta*`` up to 1."""
        return [k * self.bucket_width for k in range(len(self.histogram_counts))] + [1.0]


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
    """``xs`` as floats if each is a log number, else a ParseError naming its field (``fields()``, in order)."""
    try:
        return [float(_value(x, float)) for x in xs]
    except (ValueError, OverflowError):
        for x, field in zip(xs, fields()):
            _checked(x, float, line, field)
        raise


def _parse_record(obj, line: int):
    """One record's listing id, period, truth, position curve, competitors and other columns."""
    if not isinstance(obj, dict):
        raise ParseError(line, "record must be a JSON object")
    unknown = obj.keys() - REQUIRED_FIELDS - OPTIONAL_FIELDS
    if unknown:
        raise ParseError(line, f"unknown fields {sorted(unknown)}")
    missing = REQUIRED_FIELDS - obj.keys()
    if missing:
        raise ParseError(line, f"missing fields {sorted(missing)}")
    listing_id = obj["listing_id"]
    if not isinstance(listing_id, str) or not listing_id:
        raise ParseError(line, "listing_id must be a non-empty string")
    period = _checked(obj["period"], int, line, "period")
    own_fields = ("own_bid", "own_score", "own_quality", "rank_reserve", "mainline_reserve")
    own = _floats([obj.get(f, 1.0) for f in own_fields], line, lambda: own_fields)
    competitors = obj["competitors"]
    if not isinstance(competitors, list):
        raise ParseError(line, "competitors must be a list")
    for k, comp in enumerate(competitors):
        if not isinstance(comp, dict) or comp.keys() != COMPETITOR_FIELDS:
            raise ParseError(line, f"competitor {k} must have exactly fields {sorted(COMPETITOR_FIELDS)}")
    flat = _floats([c[f] for c in competitors for f in ("score", "quality", "bid")], line, lambda: (
        f"competitor {k} {f}" for k in range(len(competitors)) for f in ("score", "quality", "bid")))
    curve = obj["position_curve"]
    if not isinstance(curve, list) or not curve:
        raise ParseError(line, "position_curve must be a non-empty list")
    curve = tuple(_floats(curve, line, lambda: ["position_curve"] * len(curve)))
    cap = _checked(obj["mainline_cap"], int, line, "mainline_cap")
    n_main = obj.get("mainline_count")
    if n_main is None:
        n_main = min(cap, len(curve))
    elif not 0 <= _checked(n_main, int, line, "mainline_count") <= len(curve):
        raise ParseError(line, "mainline_count must be an integer in [0, len(position_curve)]")
    truth = obj.get("truth_value")
    if truth is not None:
        truth = float(_checked(truth, float, line, "truth_value"))
    return listing_id, period, truth, curve, (period, cap, n_main), own, flat


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


_DECODER = json.JSONDecoder(parse_constant=_non_finite)


def ingest(path: str) -> list[ListingHistory]:
    """Read an auction log into one table per listing, ordered by listing id.

    Raises :class:`ParseError` with the offending line number for undecodable
    lines, schema violations, out-of-range numbers (checked per column once
    the records are read), inconsistent per-period data, or non-contiguous periods.
    """
    records: dict[str, list[tuple]] = {}  # per listing, in file order: ints, floats, competitors
    curves: dict[str, dict[tuple[float, ...], int]] = {}  # per listing, its distinct position curves
    bids: dict[tuple[str, int], float] = {}
    truths: dict[str, float | None] = {}
    error = None
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
        for line_no, raw in enumerate(fh, start=1):
            try:
                try:  # bad UTF-8 or JSON, a non-finite constant, an over-long integer, deep nesting
                    text = raw.decode("utf-8").strip()
                    if not text:
                        continue
                    obj = _DECODER.decode(text)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                lid, period, truth, curve, ints, floats, flat = _parse_record(obj, line_no)
                interned = curves.setdefault(lid, {})
                records.setdefault(lid, []).append(((line_no, *ints, interned.setdefault(curve, len(interned))), floats, flat))
                if bids.setdefault((lid, period), floats[0]) != floats[0]:
                    raise ParseError(line_no, f"inconsistent own_bid within listing {lid!r} period {period}")
                if truth is not None and truths.get(lid) not in (None, truth):
                    raise ParseError(line_no, f"inconsistent truth_value for listing {lid!r}")
                if truth is not None or lid not in truths:
                    truths[lid] = truth
            except ParseError as exc:
                error = exc
                break
    tables = [_listing_table(lid, records[lid], tuple(curves[lid]), truths[lid]) for lid in sorted(records)]
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


def _listing_table(lid: str, records: list[tuple], curves: tuple, truth) -> tuple[ListingHistory, np.ndarray]:
    """One listing's records as a table ordered by period, and the line of each row."""
    records = sorted(records, key=lambda r: r[0][1])  # stable: a period's auctions keep their order
    line, period, cap, n_main, curve = np.array([r[0] for r in records], dtype=np.int64).T.copy()
    own = np.array([r[1] for r in records], dtype=np.float64).T.copy()
    score, quality, bid = np.array([x for r in records for x in r[2]], dtype=np.float64).reshape(-1, 3).T.copy()
    offsets = np.cumsum([0] + [len(r[2]) // 3 for r in records])
    table = ListingHistory(  # the columns in field order
        lid, period, *own, cap, n_main, curve, curves, offsets, score, quality, bid, log_ahead(lid, offsets), truth,
    )
    return table, line


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
    mean_bid = history.mean_bid()
    shading = mean_bid / prediction.v_star if prediction.v_star > 0 else None
    return ListingArtifacts(
        curve=curve,
        region=region,
        prediction=prediction,
        mean_bid=mean_bid,
        shading_ratio=shading,
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
    """Run inference over every listing and roll up the account summary.

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
    width = config.histogram_bucket_width
    n_buckets = max(1, round(1.0 / width))
    counts = [0] * n_buckets
    nonpos = 0
    shading: dict[str, float] = {}
    scatter: list[tuple[str, float, float]] = []
    for lid, art in artifacts.items():
        d = art.prediction.delta_star
        if d <= 0.0:
            nonpos += 1
        else:
            counts[min(int(d / width), n_buckets - 1)] += 1
        if art.shading_ratio is not None:
            shading[lid] = art.shading_ratio
        if d > config.learning_threshold:
            scatter.append((lid, art.prediction.v_star, d))
    summary = AccountSummary(
        listing_count=len(artifacts),
        bucket_width=width,
        nonpositive_count=nonpos,
        histogram_counts=tuple(counts),
        shading_ratios=shading,
        scatter=tuple(scatter),
        learning_threshold=config.learning_threshold,
        errors=tuple(errors),
    )
    return summary, artifacts


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

    A bundle that lacks a key, has a key it does not write, or holds a value
    of the wrong type or shape raises :class:`ParseError`.
    """
    try:
        top = _decode({"summary": AccountSummary, "listings": dict[str, dict], "config": InferenceConfig}, bundle)
        artifacts = {}
        for lid, listing in top["listings"].items():
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
            "delta_star": artifacts[lid].prediction.delta_star,
            "v_star": artifacts[lid].prediction.v_star,
            "eps0": artifacts[lid].region.epsilon_min,
            "shading_ratio": artifacts[lid].shading_ratio,
        }
        for lid in sorted(artifacts)
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
    out_dir: str,
) -> list[str]:
    """Write the per-listing boundary CSVs and the account-level outputs.

    Emits ``nr_boundary_<id>.csv``, ``predictions.json``,
    ``account_summary.json``, ``histogram_delta.csv`` and
    ``scatter_v_delta.csv``; returns the written paths. Re-running on the
    same inputs reproduces the files byte for byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = [
        _write_csv(os.path.join(out_dir, f"nr_boundary_{lid}.csv"), ["v", "epsilon"],
                   ([repr(v), repr(e)] for v, e in artifacts[lid].region.boundary))
        for lid in sorted(artifacts)
    ]
    written.append(_json_dump(predictions_payload(artifacts), os.path.join(out_dir, "predictions.json")))
    # the summary's own fields, with the per-listing ratios and the scatter rolled up
    account = _encode(summary)
    shading = account.pop("shading_ratios")
    del account["scatter"]
    account["scatter_count"] = len(summary.scatter)
    account["mean_shading_ratio"] = sum(shading.values()) / len(shading) if shading else None
    written.append(_json_dump(account, os.path.join(out_dir, "account_summary.json")))
    edges = summary.bucket_edges()
    written.append(_write_csv(
        os.path.join(out_dir, "histogram_delta.csv"), ["bucket_low", "bucket_high", "count"],
        [["-inf", "0.0", summary.nonpositive_count]]
        + [[repr(edges[k]), repr(edges[k + 1]), count] for k, count in enumerate(summary.histogram_counts)],
    ))
    written.append(_write_csv(os.path.join(out_dir, "scatter_v_delta.csv"), ["listing_id", "v_star", "delta_star"],
                              ([lid, repr(v), repr(d)] for lid, v, d in summary.scatter)))
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
