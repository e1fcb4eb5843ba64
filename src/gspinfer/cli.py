"""Command-line pipeline: simulate, infer, predict, rate-study, export.

Configuration is a flat ``key = value`` text file (``#`` comments allowed);
values are parsed as JSON, so lists like ``position_curve = [1.0, 0.6]``
work. A number is a JSON number, ``NaN``, ``Infinity`` or ``-Infinity``,
never a string; only ``algorithm`` takes unquoted text. Unknown keys are
errors. A key in :data:`FIELD_KEYS` sets one field of ``InferenceConfig``,
``MarketSpec``, ``BackgroundSpec``, ``LearnerConfig`` or ``RateStudyConfig``
and defaults to that field's default; the classes are named, not imported,
so a command loads only the modules it runs. The other keys, in
:data:`RUN_KEYS`, carry their own defaults. A class's error that begins
with a field's name gets that field's key instead. Command-line flags
override config values; each subcommand takes only the flags it reads.
Exits 0 on success and 1 with a JSON error list on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .pipeline import (
    InferenceConfig,
    ParseError,
    _json_dump,
    _json_text,
    artifacts_from_json,
    artifacts_to_json,
    export,
    infer_account,
    ingest,
    predictions_payload,
    write_histories,
    write_rate_study,
)

if TYPE_CHECKING:
    from .simulate import LearnerSpec


def _integer(x) -> int:
    """A config integer: a JSON number with no fraction (``1e3`` is 1000), not a boolean or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _real(x) -> float:
    """A config number: a JSON number, ``NaN``, ``Infinity`` or ``-Infinity``, not a boolean or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _numbers(kind):
    """Parser for a JSON list of numbers, each parsed with ``kind``, as a tuple."""

    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError("expected a JSON list")
        return tuple(kind(x) for x in value)

    return parse


def _optional(kind):
    """Parser for a field whose default is None: ``null``, or a value ``kind`` takes."""

    def parse(value):
        return None if value is None else kind(value)

    return parse


def _text(x) -> str:
    """Config text: a JSON string or unquoted text, not a number, boolean, list or null."""
    if not isinstance(x, str):
        raise ValueError(f"expected text, got {x!r}")
    return x


# key -> (parser, default), for the keys no dataclass owns
RUN_KEYS: dict[str, tuple] = {
    "seed": (_integer, 0),
    "jobs": (_integer, 1),
    "listings": (_integer, 3),
    "periods": (_integer, 200),
    "auctions_per_period": (_integer, 5),
    "algorithm": (_text, "hedge"),
    "value_low": (_real, 0.3),
    "value_high": (_real, 0.9),
}
# key -> (parser, class, field): the key sets that field, and its default is the field's
FIELD_KEYS: dict[str, tuple] = {
    "bid_max": (_real, "InferenceConfig", "bid_max"),
    "grid_step": (_optional(_real), "InferenceConfig", "grid_step"),
    "epsilon_max": (_real, "InferenceConfig", "epsilon_max"),
    "precision": (_real, "InferenceConfig", "precision"),
    "learning_threshold": (_real, "InferenceConfig", "learning_threshold"),
    "boundary_samples": (_integer, "InferenceConfig", "boundary_samples"),
    "histogram_bucket_width": (_real, "InferenceConfig", "histogram_bucket_width"),
    "value_cap": (_optional(_real), "InferenceConfig", "value_cap"),
    "learning_rate": (_optional(_real), "LearnerConfig", "learning_rate"),
    "exploration": (_real, "LearnerConfig", "exploration"),
    "competitors": (_integer, "BackgroundSpec", "count"),
    "competitor_bid_low": (_real, "BackgroundSpec", "bid_low"),
    "competitor_bid_high": (_real, "BackgroundSpec", "bid_high"),
    "competitor_score_low": (_real, "BackgroundSpec", "score_low"),
    "competitor_score_high": (_real, "BackgroundSpec", "score_high"),
    "competitor_quality_low": (_real, "BackgroundSpec", "quality_low"),
    "competitor_quality_high": (_real, "BackgroundSpec", "quality_high"),
    "drift_amplitude": (_real, "BackgroundSpec", "drift_amplitude"),
    "drift_period": (_integer, "BackgroundSpec", "drift_period"),
    "rank_reserve": (_real, "MarketSpec", "rank_reserve"),
    "mainline_reserve": (_real, "MarketSpec", "mainline_reserve"),
    "mainline_cap": (_integer, "MarketSpec", "mainline_cap"),
    "mainline_count": (_optional(_integer), "MarketSpec", "mainline_count"),
    "position_curve": (_numbers(_real), "MarketSpec", "position_curve"),
    "rate_sample_sizes": (_numbers(_integer), "RateStudyConfig", "sample_sizes"),
    "rate_replications": (_integer, "RateStudyConfig", "replications"),
    "rate_smoothness_order": (_integer, "RateStudyConfig", "smoothness_order"),
    "rate_holder_exponent": (_real, "RateStudyConfig", "holder_exponent"),
    "rate_grid_coeff": (_real, "RateStudyConfig", "grid_coeff"),
    "rate_eps_cap": (_real, "RateStudyConfig", "eps_cap"),
    "direction_count": (_integer, "RateStudyConfig", "direction_count"),
}
CONFIG_KEYS: dict[str, tuple] = {**RUN_KEYS, **FIELD_KEYS}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    """Parse a flat key=value config file: the :data:`RUN_KEYS` defaults plus every key the file sets."""
    values = {k: default for k, (_, default) in RUN_KEYS.items()}
    if path is None:
        return values
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 gets its line number
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw_val = line.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                parsed = json.loads(raw_val)
            except (json.JSONDecodeError, RecursionError):  # a bare word, or nesting too deep to decode
                parsed = raw_val
            try:
                values[key] = CONFIG_KEYS[key][0](parsed)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    return values


@contextmanager
def _keyed(cls):
    """The config key of each field of ``cls`` that a key sets, by field name.

    A class's error about one field begins with the field's name; one raised
    in the block is re-raised with the key in its place.
    """
    keys = {name: key for key, (_, owner, name) in FIELD_KEYS.items() if owner == cls.__name__}
    try:
        yield keys
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if keys.get(field, field) == field:
            raise
        raise type(exc)(f"{keys[field]} {rest}") from exc


def _build(cls, cfg: dict, **given):
    """``cls`` with the fields whose keys ``cfg`` sets, plus ``given``; every other field keeps its default."""
    with _keyed(cls) as keys:
        return cls(**{name: cfg[key] for name, key in keys.items() if key in cfg}, **given)


def build_learners(cfg: dict) -> list[LearnerSpec]:
    """Learner roster with ground-truth values drawn from the seeded range.

    The learners bid on the grid that ``infer`` replays, ``InferenceConfig.bid_grid()``.
    """
    from .simulate import LearnerConfig, LearnerSpec, SimulationError

    grid = _build(InferenceConfig, cfg).bid_grid()
    low, high = cfg["value_low"], cfg["value_high"]
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise SimulationError(f"values must be finite with value_low <= value_high (got {low}, {high})")
    if low < 0:  # a drawn value below 0 would be refused only when the seed happened to draw one
        raise SimulationError(f"value_low must be non-negative (got {low})")
    if cfg["seed"] < 0:
        raise SimulationError(f"seed must be non-negative (got {cfg['seed']})")
    config = _build(LearnerConfig, cfg, algorithm=cfg["algorithm"], bid_grid=grid)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg["seed"], 0xB1D5))))
    return [
        LearnerSpec(listing_id=f"L{k:03d}", value=float(rng.uniform(low, high)), config=config)
        for k in range(cfg["listings"])
    ]


def cmd_simulate(args, cfg) -> int:
    from .simulate import BackgroundSpec, MarketSpec, simulate_market

    learners = build_learners(cfg)
    market = _build(MarketSpec, cfg, background=_build(BackgroundSpec, cfg))
    histories = simulate_market(market, learners, cfg["periods"], cfg["auctions_per_period"], cfg["seed"])
    write_histories(histories, args.out)
    records = sum(map(len, histories))
    print(f"wrote {records} records ({cfg['periods']} periods) for {len(histories)} listings to {args.out}")
    return 0


def cmd_infer(args, cfg) -> int:
    histories = ingest(args.log)  # first, as in predict: a log error is named before a config error
    config = _build(InferenceConfig, cfg)
    summary, artifacts = infer_account(histories, config, jobs=cfg["jobs"])
    bundle = artifacts_to_json(summary, artifacts, config)
    written = export(summary, artifacts, config, args.out)  # first: it refuses an --out that holds another run's files
    _json_dump(bundle, os.path.join(args.out, "artifacts.json"))
    print(f"inferred {summary.listing_count} listings ({len(summary.errors)} failed); wrote {len(written) + 1} files to {args.out}")
    return 0


def cmd_predict(args, cfg) -> int:
    summary, artifacts = infer_account(ingest(args.log), _build(InferenceConfig, cfg), jobs=cfg["jobs"])
    predictions = predictions_payload(artifacts)
    if args.out:
        _json_dump(predictions, args.out)
    else:
        sys.stdout.write(_json_text(predictions))
    if summary.errors:
        sys.stderr.write(json.dumps({"errors": [list(e) for e in summary.errors]}) + "\n")
    return 0


def cmd_rate_study(args, cfg) -> int:
    from .geometry import RateStudyConfig, run_rate_study

    config = _build(RateStudyConfig, cfg, seed=cfg["seed"])
    with _keyed(RateStudyConfig):  # a sampled region's error names the field too
        result = run_rate_study(config)
    written = write_rate_study(result, args.out)
    print(
        f"slope {result.slope:.4f} (target {result.gamma_target:.4f}, stderr {result.slope_stderr:.4f}); wrote {written}"
    )
    return 0


def cmd_export(args, cfg) -> int:
    with open(args.bundle, "r", encoding="utf-8") as fh:
        try:
            bundle = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(None, f"{args.bundle}: not a JSON bundle: {exc}") from exc
    summary, artifacts, config = artifacts_from_json(bundle)
    written = export(summary, artifacts, config, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


# flag -> add_argument keywords; each subcommand takes the flags its command reads
FLAGS: dict[str, dict] = {
    "--config": {"help": "flat key=value config file"},
    "--seed": {"type": int, "help": "override the config seed"},
    "--jobs": {"type": int, "help": "worker processes for per-listing inference"},
    "--grid-step": {"type": float, "help": "deviation grid step"},
    "--epsilon-max": {"type": float, "help": "regret cap for the bounded set"},
    "--precision": {"type": float, "help": "delta* above 1 - precision is not rationalizable"},
}
INFERENCE_FLAGS = ("--config", "--jobs", "--grid-step", "--epsilon-max", "--precision")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gspinfer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, flags):
        p = sub.add_parser(name, help=about)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "generate a synthetic auction log", ("--config", "--seed", "--grid-step"))
    p.add_argument("--out", required=True, help="output JSONL path")

    p = command("infer", cmd_infer, "full inference + exports for a log", INFERENCE_FLAGS)
    p.add_argument("log", help="input JSONL auction log")
    p.add_argument("--out", required=True, help="output directory")

    p = command("predict", cmd_predict, "point predictions only", INFERENCE_FLAGS)
    p.add_argument("log", help="input JSONL auction log")
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = command("rate-study", cmd_rate_study, "subsampling convergence experiment", ("--config", "--seed"))
    p.add_argument("--out", required=True, help="output directory")

    p = command("export", cmd_export, "re-emit exports from a saved artifacts bundle", ())
    p.add_argument("bundle", help="artifacts.json written by 'infer'")
    p.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None))
        for key in ("seed", "jobs", "grid_step", "epsilon_max", "precision"):
            val = getattr(args, key, None)
            if val is not None:
                cfg[key] = val
        return args.func(args, cfg)
    except (ValueError, OSError, MemoryError) as exc:  # every gspinfer error class is a ValueError
        sys.stderr.write(json.dumps({"errors": [str(exc) or type(exc).__name__]}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
