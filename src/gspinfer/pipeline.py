"""Auction-log ingestion, per-account inference, and plot-ready exports.

The log format is JSONL with one record per (listing, period, auction draw):

    {"listing_id": "L000", "period": 1, "own_bid": 0.4,
     "competitors": [{"score": 1.1, "bid": 0.3, "quality": 0.5}, ...],
     "rank_reserve": 0.05, "mainline_reserve": 0.1, "mainline_cap": 2,
     "position_curve": [1.0, 0.6, 0.35, 0.2]}

Optional per-record fields: ``own_score``/``own_quality`` (default 1.0),
``truth_value`` (ground truth on synthetic logs), ``mainline_count``
(default ``min(mainline_cap, len(position_curve))``). Non-finite numbers
(``NaN``, ``Infinity``) and scores, bids or reserves above
:data:`~gspinfer.auction.MAX_MAGNITUDE` are rejected with the line number.
Synthetic and real data flow through the same reader.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .auction import MAX_MAGNITUDE, AuctionParams, BidderEntry
from .geometry import RateStudyResult
from .inference import (
    AssumptionReport,
    DeviationCurve,
    InferenceError,
    PointPrediction,
    RationalizableRegion,
    build_deviation_curve,
    build_region,
    min_mult_regret,
)
from .simulate import ListingHistory, PeriodRecord, default_bid_grid

REQUIRED_FIELDS = {
    "listing_id", "period", "own_bid", "competitors",
    "rank_reserve", "mainline_reserve", "mainline_cap", "position_curve",
}
OPTIONAL_FIELDS = {"own_score", "own_quality", "truth_value", "mainline_count"}
COMPETITOR_FIELDS = {"score", "bid", "quality"}


class ParseError(ValueError):
    """A malformed log record or bundle; carries the line number when there is one."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for per-listing inference.

    ``grid_step=None`` means one percent of ``bid_max``. ``value_cap=None``
    derives the cap from the steepest half-plane at ``epsilon_max``.
    """

    bid_max: float = 1.0
    grid_step: float | None = None
    epsilon_max: float = 1.0
    precision: float = 1e-6
    learning_threshold: float = 1e-4
    boundary_samples: int = 201
    histogram_bucket_width: float = 0.05
    value_cap: float | None = None

    def bid_grid(self) -> tuple[float, ...]:
        if not 0.0 < self.bid_max <= MAX_MAGNITUDE:
            raise InferenceError(f"bid_max must lie in (0, {MAX_MAGNITUDE:g}] (got {self.bid_max})")
        step = self.grid_step if self.grid_step is not None else 0.01 * self.bid_max
        if step <= 0 or step > self.bid_max:
            raise InferenceError(f"grid step must lie in (0, bid_max] (got {step})")
        return default_bid_grid(self.bid_max, step / self.bid_max)


@dataclass(frozen=True)
class ListingArtifacts:
    """Everything inferred for one listing."""

    listing_id: str
    curve: DeviationCurve
    region: RationalizableRegion
    prediction: PointPrediction
    mean_bid: float
    shading_ratio: float | None


@dataclass(frozen=True)
class AccountSummary:
    """Account-level roll-up of the per-listing point predictions.

    The histogram partitions [0, 1) into even buckets plus a dedicated
    bucket for listings whose smallest rationalizable error is non-positive.
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
        n = len(self.histogram_counts)
        return [k * self.bucket_width for k in range(n)] + [min(1.0, n * self.bucket_width)]


# ---------------------------------------------------------------------------
# Ingestion / serialization
# ---------------------------------------------------------------------------


def _parse_record(obj: dict, line: int) -> tuple[str, int, float, float | None, AuctionParams]:
    if not isinstance(obj, dict):
        raise ParseError(line, "record must be a JSON object")
    unknown = set(obj) - REQUIRED_FIELDS - OPTIONAL_FIELDS
    if unknown:
        raise ParseError(line, f"unknown fields {sorted(unknown)}")
    missing = REQUIRED_FIELDS - set(obj)
    if missing:
        raise ParseError(line, f"missing fields {sorted(missing)}")
    listing_id = obj["listing_id"]
    if not isinstance(listing_id, str) or not listing_id:
        raise ParseError(line, "listing_id must be a non-empty string")
    period = obj["period"]
    if not isinstance(period, int):
        raise ParseError(line, "period must be an integer")
    competitors = obj["competitors"]
    if not isinstance(competitors, list):
        raise ParseError(line, "competitors must be a list")
    entries = [
        BidderEntry(
            listing_id,
            float(obj.get("own_score", 1.0)),
            float(obj.get("own_quality", 1.0)),
            float(obj["own_bid"]),
        )
    ]
    for k, comp in enumerate(competitors):
        if not isinstance(comp, dict) or set(comp) != COMPETITOR_FIELDS:
            raise ParseError(line, f"competitor {k} must have exactly fields {sorted(COMPETITOR_FIELDS)}")
        entries.append(BidderEntry(f"c{k:03d}", float(comp["score"]), float(comp["quality"]), float(comp["bid"])))
    curve = obj["position_curve"]
    if not isinstance(curve, list) or not curve:
        raise ParseError(line, "position_curve must be a non-empty list")
    cap = obj["mainline_cap"]
    if not isinstance(cap, int):
        raise ParseError(line, "mainline_cap must be an integer")
    n_main = obj.get("mainline_count")
    if n_main is None:
        n_main = min(cap, len(curve))
    elif not isinstance(n_main, int) or not 0 <= n_main <= len(curve):
        raise ParseError(line, "mainline_count must be an integer in [0, len(position_curve)]")
    params = AuctionParams(
        entries=tuple(entries),
        rank_reserve=float(obj["rank_reserve"]),
        mainline_reserve=float(obj["mainline_reserve"]),
        mainline_cap=cap,
        position_curve=tuple(float(a) for a in curve),
        mainline_positions=frozenset(range(1, n_main + 1)),
    )
    truth = obj.get("truth_value")
    return listing_id, period, float(obj["own_bid"]), (None if truth is None else float(truth)), params


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


_DECODER = json.JSONDecoder(parse_constant=_non_finite)


def ingest(path: str) -> list[ListingHistory]:
    """Read an auction log into histories grouped by listing, ordered by period.

    Raises :class:`ParseError` with the offending line number for undecodable
    lines, schema violations, inconsistent per-period data, or non-contiguous
    periods.
    """
    groups: dict[str, dict[int, list[AuctionParams]]] = {}
    bids: dict[tuple[str, int], float] = {}
    truths: dict[str, float | None] = {}
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
        for line_no, raw in enumerate(fh, start=1):
            try:  # bad UTF-8 or JSON, a non-finite constant, an over-long integer, deep nesting
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                obj = _DECODER.decode(text)
            except (ValueError, RecursionError) as exc:
                raise ParseError(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            try:
                lid, period, own_bid, truth, params = _parse_record(obj, line_no)
            except (ValueError, TypeError, OverflowError) as exc:
                if isinstance(exc, ParseError):
                    raise
                raise ParseError(line_no, str(exc)) from exc
            key = (lid, period)
            if key in bids and bids[key] != own_bid:
                raise ParseError(line_no, f"inconsistent own_bid within listing {lid!r} period {period}")
            if lid in truths and truth is not None and truths[lid] is not None and truths[lid] != truth:
                raise ParseError(line_no, f"inconsistent truth_value for listing {lid!r}")
            bids[key] = own_bid
            if truth is not None:
                truths[lid] = truth
            truths.setdefault(lid, None)
            first_line.setdefault(lid, line_no)
            groups.setdefault(lid, {}).setdefault(period, []).append(params)
    histories = []
    for lid in sorted(groups):
        period_map = groups[lid]
        ordered = sorted(period_map)
        for a, b in zip(ordered, ordered[1:]):
            if b != a + 1:
                raise ParseError(
                    first_line[lid], f"listing {lid!r} has non-contiguous periods ({a} then {b})"
                )
        try:
            periods = tuple(
                PeriodRecord(
                    period_index=t,
                    own_bid=bids[(lid, t)],
                    auction_sample=tuple(period_map[t]),
                )
                for t in ordered
            )
            histories.append(ListingHistory(listing_id=lid, periods=periods, truth=truths[lid]))
        except ValueError as exc:
            raise ParseError(first_line[lid], f"listing {lid!r}: {exc}") from exc
    return histories


def history_records(history: ListingHistory) -> Iterable[dict]:
    """The JSONL records (as dicts) encoding one history."""
    for rec in history.periods:
        for params in rec.auction_sample:
            own = params.entry(history.listing_id)
            competitors = [
                {"score": e.score, "bid": e.bid, "quality": e.quality}
                for e in params.entries
                if e.id != history.listing_id
            ]
            out = {
                "listing_id": history.listing_id,
                "period": rec.period_index,
                "own_bid": rec.own_bid,
                "competitors": competitors,
                "rank_reserve": params.rank_reserve,
                "mainline_reserve": params.mainline_reserve,
                "mainline_cap": params.mainline_cap,
                "position_curve": list(params.position_curve),
                "mainline_count": len(params.mainline_positions),
            }
            if own.score != 1.0:
                out["own_score"] = own.score
            if own.quality != 1.0:
                out["own_quality"] = own.quality
            if history.truth is not None:
                out["truth_value"] = history.truth
            yield out


def write_histories(histories: Sequence[ListingHistory], path: str) -> None:
    """Serialize histories to the JSONL auction-log format (round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        for history in histories:
            for obj in history_records(history):
                fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


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
        listing_id=history.listing_id,
        curve=curve,
        region=region,
        prediction=prediction,
        mean_bid=mean_bid,
        shading_ratio=shading,
    )


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
    continues; a bad grid step raises :class:`InferenceError` before any
    listing runs. ``jobs > 1`` fans listings out to a process pool; results
    are identical to the serial run.
    """
    grid = config.bid_grid()
    ordered = sorted(histories, key=lambda h: h.listing_id)
    tasks = [(h, config, grid) for h in ordered]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _json_dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj))


def artifacts_to_json(
    summary: AccountSummary, artifacts: dict[str, ListingArtifacts], config: InferenceConfig
) -> dict:
    """A JSON-encodable bundle holding everything needed to re-run exports."""
    listings = {}
    for lid in sorted(artifacts):
        art = artifacts[lid]
        listings[lid] = {
            "curve": asdict(art.curve),
            "region": {
                "epsilon_cap": art.region.epsilon_cap,
                "value_cap": art.region.value_cap,
                "epsilon_min": art.region.epsilon_min,
                "boundary": [list(p) for p in art.region.boundary],
                "assumptions": asdict(art.region.assumption_report),
            },
            "prediction": {
                "delta_star": art.prediction.delta_star,
                "v_star": art.prediction.v_star,
                "v_interval": list(art.prediction.v_interval_at_delta_star),
                "epsilon_min": art.region.epsilon_min,
                "iterations": art.prediction.iterations,
            },
            "mean_bid": art.mean_bid,
            "shading_ratio": art.shading_ratio,
        }
    return {
        "config": asdict(config),
        "summary": asdict(summary),
        "listings": listings,
    }


def _value(x, kind: type, optional: bool = False):
    """``x`` if it is a bundle value of ``kind``, else ValueError.

    ``float`` means a finite number, ``int`` an integer; neither accepts a
    bool. ``optional`` also accepts None.
    """
    if optional and x is None:
        return x
    if isinstance(x, bool) and kind is not bool:
        ok = False
    elif kind is float:
        ok = isinstance(x, (int, float)) and math.isfinite(x)
    else:
        ok = isinstance(x, kind)
    if not ok:
        raise ValueError(f"expected {kind.__name__}, got {x!r}")
    return x


def _row(xs, *kinds: type) -> tuple:
    """A JSON list with one value per kind, checked by :func:`_value`."""
    if not isinstance(xs, list) or len(xs) != len(kinds):
        raise ValueError(f"expected a list of {len(kinds)}, got {xs!r}")
    return tuple(map(_value, xs, kinds))


def _block(x, *keys: str) -> dict:
    """``x`` if it is a bundle object with no key outside ``keys``, else ValueError."""
    if not isinstance(x, dict):
        raise ValueError(f"expected an object, got {x!r}")
    unknown = sorted(set(x) - set(keys))
    if unknown:
        raise ValueError(f"unexpected key {unknown[0]!r}")
    return x


def artifacts_from_json(
    bundle: dict,
) -> tuple[AccountSummary, dict[str, ListingArtifacts], InferenceConfig]:
    """Inverse of :func:`artifacts_to_json`: the summary, artifacts and config it encodes.

    A bundle that lacks a key, has a key it does not write, or holds a value
    of the wrong type or shape raises :class:`ParseError`.
    """
    try:
        _block(bundle, "config", "summary", "listings")
        s = bundle["summary"]
        summary = AccountSummary(**{
            **s,
            "listing_count": _value(s["listing_count"], int),
            "bucket_width": _value(s["bucket_width"], float),
            "nonpositive_count": _value(s["nonpositive_count"], int),
            "histogram_counts": tuple(_value(n, int) for n in s["histogram_counts"]),
            "shading_ratios": {lid: _value(r, float) for lid, r in s["shading_ratios"].items()},
            "scatter": tuple(_row(row, str, float, float) for row in s["scatter"]),
            "learning_threshold": _value(s["learning_threshold"], float),
            "errors": tuple(_row(row, str, str) for row in s["errors"]),
        })
        artifacts = {}
        for lid, payload in bundle["listings"].items():
            _block(payload, "curve", "region", "prediction", "mean_bid", "shading_ratio")
            c = payload["curve"]
            curve = DeviationCurve(**{
                **c,
                **{k: tuple(_value(x, float) for x in c[k]) for k in ("grid", "delta_p", "delta_c")},
                **{k: _value(c[k], float) for k in ("baseline_p", "baseline_c")},
            })
            reg = _block(payload["region"], "epsilon_cap", "value_cap", "epsilon_min", "boundary", "assumptions")
            assumptions = reg["assumptions"]
            pred = _block(payload["prediction"], "delta_star", "v_star", "v_interval", "epsilon_min", "iterations")
            _value(pred["epsilon_min"], float)  # a copy of the region's eps0
            artifacts[lid] = ListingArtifacts(
                listing_id=lid,
                curve=curve,
                region=RationalizableRegion(
                    curve=curve,
                    epsilon_cap=_value(reg["epsilon_cap"], float),
                    value_cap=_value(reg["value_cap"], float),
                    epsilon_min=_value(reg["epsilon_min"], float),
                    boundary=tuple(_row(p, float, float) for p in reg["boundary"]),
                    assumption_report=AssumptionReport(**{
                        **assumptions,
                        **{k: _value(assumptions[k], bool)
                           for k in ("delta_p_monotone", "delta_c_monotone", "icc_increasing")},
                        "violation_sites": tuple(_row(p, int, int) for p in assumptions["violation_sites"]),
                    }),
                ),
                prediction=PointPrediction(
                    delta_star=_value(pred["delta_star"], float),
                    v_star=_value(pred["v_star"], float),
                    v_interval_at_delta_star=_row(pred["v_interval"], float, float),
                    iterations=_value(pred["iterations"], int),
                ),
                mean_bid=_value(payload["mean_bid"], float),
                shading_ratio=_value(payload["shading_ratio"], float, optional=True),
            )
        config = bundle["config"]
        config = InferenceConfig(**{
            **config,
            **{k: _value(config[k], float) for k in (
                "bid_max", "epsilon_max", "precision", "learning_threshold", "histogram_bucket_width")},
            **{k: _value(config[k], float, optional=True) for k in ("grid_step", "value_cap")},
            "boundary_samples": _value(config["boundary_samples"], int),
        })
        return summary, artifacts, config
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
    written: list[str] = []
    for lid in sorted(artifacts):
        art = artifacts[lid]
        path = os.path.join(out_dir, f"nr_boundary_{lid}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["v", "epsilon"])
            for v, e in art.region.boundary:
                writer.writerow([repr(v), repr(e)])
        written.append(path)

    path = os.path.join(out_dir, "predictions.json")
    _json_dump(predictions_payload(artifacts), path)
    written.append(path)

    path = os.path.join(out_dir, "account_summary.json")
    _json_dump(
        {
            "listing_count": summary.listing_count,
            "nonpositive_count": summary.nonpositive_count,
            "bucket_width": summary.bucket_width,
            "histogram_counts": list(summary.histogram_counts),
            "learning_threshold": summary.learning_threshold,
            "scatter_count": len(summary.scatter),
            "mean_shading_ratio": (
                sum(summary.shading_ratios.values()) / len(summary.shading_ratios)
                if summary.shading_ratios
                else None
            ),
            "errors": [list(e) for e in summary.errors],
        },
        path,
    )
    written.append(path)

    path = os.path.join(out_dir, "histogram_delta.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_low", "bucket_high", "count"])
        writer.writerow(["-inf", "0.0", summary.nonpositive_count])
        edges = summary.bucket_edges()
        for k, count in enumerate(summary.histogram_counts):
            writer.writerow([repr(edges[k]), repr(edges[k + 1]), count])
    written.append(path)

    path = os.path.join(out_dir, "scatter_v_delta.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["listing_id", "v_star", "delta_star"])
        for lid, v_star, d_star in summary.scatter:
            writer.writerow([lid, repr(v_star), repr(d_star)])
    written.append(path)
    return written


def write_rate_study(result: RateStudyResult, out_dir: str) -> list[str]:
    """CSV table of per-budget errors plus a JSON summary of the fitted slope."""
    os.makedirs(out_dir, exist_ok=True)
    table = os.path.join(out_dir, "rate_study.csv")
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "mean_dh", "std_dh"])
        for n, mean, std in result.rows():
            writer.writerow([n, repr(mean), repr(std)])
    summary = os.path.join(out_dir, "rate_study_summary.json")
    _json_dump(
        {
            "slope": result.slope,
            "slope_stderr": result.slope_stderr,
            "gamma_target": result.gamma_target,
            "grid_sizes": list(result.grid_sizes),
        },
        summary,
    )
    return [table, summary]
