"""Per-account inference and plot-ready exports.

Logs are read into :class:`~gspinfer.auction.ListingHistory` tables and
written back by :mod:`gspinfer.auctionlog`; :func:`ingest`,
:func:`write_histories` and :class:`ParseError` are also found here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from typing import TYPE_CHECKING, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .auction import MAX_MAGNITUDE, ListingHistory
from .auctionlog import ParseError, _check_id, _replacing, _value, ingest, write_histories  # noqa: F401 - read from here too
from .inference import (
    DEFAULT_PRECISION,
    DeviationCurve,
    InferenceError,
    PointPrediction,
    RationalizableRegion,
    boundary,
    build_deviation_curve,
    build_region,
    min_mult_regret,
)

if TYPE_CHECKING:
    from .geometry import RateStudyResult

#: Most deviation-grid points a config may ask for: a 1e-5 step on [0, bid_max].
MAX_GRID_POINTS = 100_001
#: Narrowest histogram bucket a config may ask for: 10 000 buckets on [0, 1).
MIN_BUCKET_WIDTH = 1e-4


def default_bid_grid(bid_max: float, step_fraction: float = 0.01) -> tuple[float, ...]:
    """Even grid from 0 with step ``step_fraction * bid_max``, up to the last point not above ``bid_max``."""
    if bid_max <= 0:
        raise InferenceError("bid_max must be positive")
    n = math.floor(1.0 / step_fraction + 1e-9)
    return tuple(round(k * step_fraction * bid_max, 12) for k in range(n + 1))


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for per-listing inference; making one with a value no listing could run with raises InferenceError.

    ``grid_step=None`` means one percent of ``bid_max``. ``value_cap=None``
    derives the cap from the steepest half-plane at ``epsilon_max``.
    ``boundary_samples`` is the number of even values on ``[0, value_cap]``
    at which :func:`export` renders each listing's boundary.
    """

    bid_max: float = 1.0
    grid_step: float | None = None
    epsilon_max: float = 1.0
    precision: float = DEFAULT_PRECISION
    learning_threshold: float = 1e-4
    boundary_samples: int = 201
    histogram_bucket_width: float = 0.05
    value_cap: float | None = None

    def __post_init__(self):
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
        object.__setattr__(self, "_grid", grid)  # not a field: the codec, == and repr see only the knobs

    def bid_grid(self) -> tuple[float, ...]:
        """The deviation grid, built and checked once, when the config was made."""
        return self._grid

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
# Account inference
# ---------------------------------------------------------------------------


def infer_listing(history: ListingHistory, config: InferenceConfig) -> ListingArtifacts:
    """Deviation curve on ``config.bid_grid()``, bounded region, and point prediction for one listing."""
    curve = build_deviation_curve(history, config.bid_grid())
    region = build_region(curve, eps_cap=config.epsilon_max, v_max=config.value_cap)
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


def _infer_one(args: tuple[ListingHistory, InferenceConfig]):
    history, config = args
    try:
        return history.listing_id, infer_listing(history, config), None
    except ValueError as exc:
        return history.listing_id, None, str(exc)


def infer_account(
    histories: Sequence[ListingHistory],
    config: InferenceConfig,
    jobs: int = 1,
) -> tuple[AccountSummary, dict[str, ListingArtifacts]]:
    """Run inference over every listing; the summary counts them and keeps each failure.

    A listing whose inference fails is recorded under ``errors`` and the run
    continues; ``jobs`` below 1 raises :class:`InferenceError` before any
    listing runs. ``jobs > 1`` fans listings out to a process pool, each task
    carrying the config and so its grid; results are identical to the serial run.
    """
    if jobs < 1:
        raise InferenceError(f"jobs must be at least 1 (got {jobs})")
    tasks = [(h, config) for h in sorted(histories, key=lambda h: h.listing_id)]
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
    text = _json_text(obj)
    with _replacing(path) as fh:
        fh.write(text)
    return path


@cache  # once per class
def _schema(kind: type) -> dict:
    """A dataclass's fields as ``{name: type}``; the name is also the field's bundle key."""
    hints = get_type_hints(kind)
    return {f.name: hints[f.name] for f in fields(kind)}


def _encode(obj):
    """A dataclass as a bundle object of its fields, recursively; an array as a list; anything else as it is."""
    if is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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


def _decode(kind, x):
    """Bundle value ``x`` as a value of type ``kind``, else ValueError or KeyError.

    A dataclass or a dict of kinds is read from an object with exactly its keys,
    ``tuple[...]`` or a float array from a list, ``dict[str, X]`` from an object
    and ``X | None`` from null too; anything else is checked by :func:`_value`.
    """
    if kind is np.ndarray:
        return [_value(v, float) for v in _value(x, list)]
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
    wrong type or shape, a config :class:`InferenceConfig` rejects when it is made,
    a listing id that cannot name a file or a wrong listing count raises :class:`ParseError`.
    """
    try:
        top = _decode({"summary": AccountSummary, "listings": dict[str, dict], "config": InferenceConfig}, bundle)
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
    with _replacing(path, newline="") as fh:
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
    ``scatter_v_delta.csv``; returns the written paths. Each boundary CSV is
    :func:`~gspinfer.inference.boundary` of the listing's curve at
    ``config.boundary_samples`` even values on ``[0, value_cap]``; ``config``
    also gives the ``delta*`` histogram's bucket width and the scatter's
    learning threshold. Re-running on the same inputs reproduces the files
    byte for byte, and each file is renamed into place once written, so none
    is ever left half-written under its own name. Before anything is written,
    an ``out_dir`` that holds a boundary CSV of a listing not in ``artifacts``
    raises :class:`FileExistsError` naming it, so the boundary files name the run's listings.
    """
    boundaries = {f"nr_boundary_{lid}.csv" for lid in artifacts}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("nr_boundary_") and name.endswith(".csv") and name not in boundaries:
                raise FileExistsError(f"{os.path.join(out_dir, name)} is the boundary of a listing this run does not "
                                      "export; remove it or choose another output directory")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for lid, art in sorted(artifacts.items()):
        step = art.region.value_cap / (config.boundary_samples - 1)
        rows = ([repr(k * step), repr(boundary(art.curve, k * step))] for k in range(config.boundary_samples))
        written.append(_write_csv(os.path.join(out_dir, f"nr_boundary_{lid}.csv"), ["v", "epsilon"], rows))
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
