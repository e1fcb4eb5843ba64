"""Command-line pipeline: simulate, infer, predict, rate-study, export.

Configuration is a flat ``key = value`` text file (``#`` comments allowed);
values are parsed as JSON, so lists like ``position_curve = [1.0, 0.6]``
work. A number is a JSON number, ``NaN``, ``Infinity`` or ``-Infinity``,
never a string; only ``algorithm`` takes unquoted text. Unknown keys are
errors. Command-line flags override config values; each subcommand takes
only the flags it reads.
Exits 0 on success and 1 with a JSON error list on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
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
    from .simulate import LearnerSpec, MarketSpec


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
    """Parser for a JSON list of numbers, each parsed with ``kind``."""

    def parse(value) -> list:
        if not isinstance(value, list):
            raise ValueError("expected a JSON list")
        return [kind(x) for x in value]

    return parse


# key -> (parser, default); None defaults mean "derived elsewhere"
CONFIG_KEYS: dict[str, tuple] = {
    # shared
    "seed": (_integer, 0),
    "jobs": (_integer, 1),
    "bid_max": (_real, 1.0),
    "grid_step": (_real, None),
    # inference
    "epsilon_max": (_real, 1.0),
    "precision": (_real, 1e-6),
    "learning_threshold": (_real, 1e-4),
    "boundary_samples": (_integer, 201),
    "histogram_bucket_width": (_real, 0.05),
    "value_cap": (_real, None),
    # simulation
    "listings": (_integer, 3),
    "periods": (_integer, 200),
    "auctions_per_period": (_integer, 5),
    "algorithm": (str, "hedge"),
    "learning_rate": (_real, None),
    "exploration": (_real, 0.1),
    "value_low": (_real, 0.3),
    "value_high": (_real, 0.9),
    "competitors": (_integer, 3),
    "competitor_bid_low": (_real, 0.05),
    "competitor_bid_high": (_real, 1.0),
    "competitor_score_low": (_real, 0.8),
    "competitor_score_high": (_real, 1.2),
    "competitor_quality_low": (_real, 0.3),
    "competitor_quality_high": (_real, 0.9),
    "drift_amplitude": (_real, 0.0),
    "drift_period": (_integer, 50),
    "rank_reserve": (_real, 0.05),
    "mainline_reserve": (_real, 0.1),
    "mainline_cap": (_integer, 2),
    "mainline_count": (_integer, None),
    "position_curve": (_numbers(_real), [1.0, 0.6, 0.35, 0.2]),
    # rate study
    "rate_sample_sizes": (_numbers(_integer), [10**3, 10**4, 10**5, 10**6]),
    "rate_replications": (_integer, 20),
    "rate_smoothness_order": (_integer, 0),
    "rate_holder_exponent": (_real, 1.0),
    "rate_grid_coeff": (_real, 1.5),
    "rate_eps_cap": (_real, 0.4),
    "direction_count": (_integer, 720),
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    """Parse a flat key=value config file against the known-key registry."""
    values = {k: default for k, (_, default) in CONFIG_KEYS.items()}
    if path is None:
        return values
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw_val = line.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            caster, default = CONFIG_KEYS[key]
            try:
                parsed = json.loads(raw_val)
            except json.JSONDecodeError:
                parsed = raw_val
            if parsed is None and default is None:
                values[key] = None
                continue
            try:
                if parsed is None:
                    raise ValueError("null is allowed only for a key whose default is null")
                values[key] = caster(parsed)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    return values


def _inference_config(cfg: dict) -> InferenceConfig:
    return InferenceConfig(**{f.name: cfg[f.name] for f in fields(InferenceConfig)})


def _market_spec(cfg: dict) -> MarketSpec:
    from .simulate import BackgroundSpec, MarketSpec

    return MarketSpec(
        position_curve=tuple(float(a) for a in cfg["position_curve"]),
        rank_reserve=cfg["rank_reserve"],
        mainline_reserve=cfg["mainline_reserve"],
        mainline_cap=cfg["mainline_cap"],
        mainline_count=cfg["mainline_count"],
        background=BackgroundSpec(
            count=cfg["competitors"],
            bid_low=cfg["competitor_bid_low"],
            bid_high=cfg["competitor_bid_high"],
            score_low=cfg["competitor_score_low"],
            score_high=cfg["competitor_score_high"],
            quality_low=cfg["competitor_quality_low"],
            quality_high=cfg["competitor_quality_high"],
            drift_amplitude=cfg["drift_amplitude"],
            drift_period=cfg["drift_period"],
        ),
    )


def build_learners(cfg: dict) -> list[LearnerSpec]:
    """Learner roster with ground-truth values drawn from the seeded range.

    The learners bid on the grid that ``infer`` replays, ``InferenceConfig.bid_grid``.
    """
    from .simulate import LearnerConfig, LearnerSpec, SimulationError

    grid = _inference_config(cfg).bid_grid()
    low, high = cfg["value_low"], cfg["value_high"]
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise SimulationError(f"values must be finite with value_low <= value_high (got {low}, {high})")
    if cfg["seed"] < 0:
        raise SimulationError(f"seed must be non-negative (got {cfg['seed']})")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg["seed"], 0xB1D5))))
    out = []
    for k in range(cfg["listings"]):
        value = float(rng.uniform(cfg["value_low"], cfg["value_high"]))
        out.append(
            LearnerSpec(
                listing_id=f"L{k:03d}",
                value=value,
                config=LearnerConfig(
                    algorithm=cfg["algorithm"],
                    bid_grid=grid,
                    learning_rate=cfg["learning_rate"],
                    exploration=cfg["exploration"],
                ),
            )
        )
    return out


def cmd_simulate(args, cfg) -> int:
    from .simulate import simulate_market

    learners = build_learners(cfg)
    histories = simulate_market(
        _market_spec(cfg), learners, cfg["periods"], cfg["auctions_per_period"], cfg["seed"]
    )
    write_histories(histories, args.out)
    print(f"wrote {sum(len(h.period_bounds()) - 1 for h in histories)} periods for {len(histories)} listings to {args.out}")
    return 0


def cmd_infer(args, cfg) -> int:
    config = _inference_config(cfg)
    summary, artifacts = infer_account(ingest(args.log), config, jobs=cfg["jobs"])
    bundle = artifacts_to_json(summary, artifacts, config)
    os.makedirs(args.out, exist_ok=True)
    _json_dump(bundle, os.path.join(args.out, "artifacts.json"))
    written = export(summary, artifacts, args.out)
    print(f"inferred {summary.listing_count} listings ({len(summary.errors)} failed); wrote {len(written) + 1} files to {args.out}")
    return 0


def cmd_predict(args, cfg) -> int:
    summary, artifacts = infer_account(ingest(args.log), _inference_config(cfg), jobs=cfg["jobs"])
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

    rate_cfg = RateStudyConfig(
        sample_sizes=cfg["rate_sample_sizes"],
        replications=cfg["rate_replications"],
        smoothness_order=cfg["rate_smoothness_order"],
        holder_exponent=cfg["rate_holder_exponent"],
        seed=cfg["seed"],
        eps_cap=cfg["rate_eps_cap"],
        direction_count=cfg["direction_count"],
        grid_coeff=cfg["rate_grid_coeff"],
    )
    result = run_rate_study(rate_cfg)
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
    summary, artifacts, _ = artifacts_from_json(bundle)
    written = export(summary, artifacts, args.out)
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
    except (ValueError, OSError) as exc:  # every gspinfer error class is a ValueError
        sys.stderr.write(json.dumps({"errors": [str(exc)]}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
