"""Synthetic markets of learning bidders with known ground-truth values.

Bids are committed once per period (a batch of auctions); within a period
``n`` auctions are drawn from a configurable background-competition
generator. Learners receive full-information per-arm payoffs: the average
utility every grid bid would have earned against that period's batch. The
emitted histories carry the true value-per-click so inference can be
validated end to end.

Each listing's view of an auction stores its own entry (id = listing id)
alongside anonymized competitor entries ("c000", "c001", ...) in a fixed
order, so a history serialized to the auction-log format and read back is
identical to the in-memory one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .auction import AuctionParams, BidderEntry, DeviationSweep, replay_periods, sum_in_order

ALGORITHMS = ("hedge", "epsilon_greedy", "fixed_best_response")


class SimulationError(ValueError):
    """Bad simulation inputs."""


@dataclass(frozen=True)
class PeriodRecord:
    """One batch stage: the committed bid plus the sampled auctions."""

    period_index: int
    own_bid: float
    auction_sample: tuple[AuctionParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "auction_sample", tuple(self.auction_sample))
        if not self.auction_sample:
            raise SimulationError(f"period {self.period_index} has an empty auction sample")


@dataclass(frozen=True)
class ListingHistory:
    """A listing's full sequence of play, optionally with its true value."""

    listing_id: str
    periods: tuple[PeriodRecord, ...]
    truth: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise SimulationError(f"listing {self.listing_id} has no periods")
        for a, b in zip(self.periods, self.periods[1:]):
            if not b.period_index > a.period_index:
                raise SimulationError("periods must be ordered by period_index")
        if self.truth is not None and self.truth < 0:
            raise SimulationError("truth value must be non-negative")

    def mean_bid(self) -> float:
        return sum(rec.own_bid for rec in self.periods) / len(self.periods)


@dataclass(frozen=True)
class LearnerConfig:
    """Learning rule over a discrete bid grid.

    ``learning_rate=None`` means the standard tuned rate
    ``sqrt(8 * ln K / T)`` for hedge. Payoffs are divided by
    ``alpha_1 * max(value, max bid)`` before hedge updates so the usual
    tuning for unit-range payoffs applies. Each learner's random stream is
    spawned from the market seed passed to :func:`simulate_market`.
    """

    algorithm: str
    bid_grid: tuple[float, ...]
    learning_rate: float | None = None
    exploration: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "bid_grid", tuple(float(b) for b in self.bid_grid))
        if self.algorithm not in ALGORITHMS:
            raise SimulationError(f"unknown algorithm {self.algorithm!r} (expected one of {ALGORITHMS})")
        if not self.bid_grid:
            raise SimulationError("bid_grid must be non-empty")
        for a, b in zip(self.bid_grid, self.bid_grid[1:]):
            if not b > a:
                raise SimulationError("bid_grid must be strictly increasing")
        if self.bid_grid[0] < 0:
            raise SimulationError("bids must be non-negative")
        if not 0.0 <= self.exploration <= 1.0:
            raise SimulationError("exploration must lie in [0, 1]")


def default_bid_grid(bid_max: float, step_fraction: float = 0.01) -> tuple[float, ...]:
    """Even grid from 0 with step ``step_fraction * bid_max``, up to the last point not above ``bid_max``."""
    if bid_max <= 0:
        raise SimulationError("bid_max must be positive")
    n = math.floor(1.0 / step_fraction + 1e-9)
    return tuple(round(k * step_fraction * bid_max, 12) for k in range(n + 1))


def hedge_step(weights: np.ndarray, payoffs: np.ndarray, eta: float) -> np.ndarray:
    """Exponential-weights update ``w'_k proportional to w_k * exp(eta * payoff_k)``.

    Shift-invariant: adding a constant to every payoff leaves the result
    unchanged (the maximum payoff is subtracted before exponentiation).
    """
    weights = np.asarray(weights, dtype=float)
    payoffs = np.asarray(payoffs, dtype=float)
    if weights.shape != payoffs.shape:
        raise SimulationError("weights and payoffs must have the same shape")
    if not np.all(np.isfinite(payoffs)):
        raise SimulationError("payoffs must be finite")
    if np.any(weights < 0) or not math.isclose(float(weights.sum()), 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise SimulationError("weights must form a probability vector")
    if eta < 0:
        raise SimulationError("learning rate must be non-negative")
    scaled = weights * np.exp(eta * (payoffs - payoffs.max()))
    return scaled / scaled.sum()


def tuned_hedge_rate(n_arms: int, horizon: int) -> float:
    """The standard horizon-tuned hedge rate ``sqrt(8 ln K / T)``."""
    return math.sqrt(8.0 * math.log(n_arms) / horizon)


@dataclass(frozen=True)
class BackgroundSpec:
    """Generator for anonymous competitor entries drawn fresh each auction.

    ``drift_amplitude``/``drift_period`` rotate the bid scale sinusoidally
    across periods to exercise slowly changing environments.
    """

    count: int = 3
    bid_low: float = 0.05
    bid_high: float = 1.0
    score_low: float = 0.8
    score_high: float = 1.2
    quality_low: float = 0.3
    quality_high: float = 0.9
    drift_amplitude: float = 0.0
    drift_period: int = 50

    def draw(self, rng: np.random.Generator, period: int) -> list[tuple[float, float, float]]:
        scale = 1.0
        if self.drift_amplitude:
            scale = 1.0 + self.drift_amplitude * math.sin(2.0 * math.pi * period / self.drift_period)
        out = []
        for _ in range(self.count):
            bid = max(float(rng.uniform(self.bid_low, self.bid_high)) * scale, 0.0)
            score = float(rng.uniform(self.score_low, self.score_high))
            quality = float(rng.uniform(self.quality_low, self.quality_high))
            out.append((score, bid, quality))
        return out


@dataclass(frozen=True)
class MarketSpec:
    """Shared auction rules plus the background-competition generator."""

    position_curve: tuple[float, ...] = (1.0, 0.6, 0.35, 0.2)
    rank_reserve: float = 0.05
    mainline_reserve: float = 0.1
    mainline_cap: int = 2
    mainline_count: int | None = None
    background: BackgroundSpec = field(default_factory=BackgroundSpec)

    def mainline_positions(self) -> frozenset[int]:
        n = self.mainline_count
        if n is None:
            n = min(self.mainline_cap, len(self.position_curve))
        return frozenset(range(1, n + 1))


@dataclass(frozen=True)
class LearnerSpec:
    """One simulated bidder: identity, true value, and its learning rule."""

    listing_id: str
    value: float
    config: LearnerConfig
    own_score: float = 1.0
    own_quality: float = 1.0


class _LearnerState:
    def __init__(self, spec: LearnerSpec, horizon: int, rng: np.random.Generator, alpha_top: float):
        self.spec = spec
        grid = spec.config.bid_grid
        self.grid = grid
        k = len(grid)
        self.rng = rng
        eta = spec.config.learning_rate
        self.eta = tuned_hedge_rate(k, horizon) if eta is None else eta
        self.weights = np.full(k, 1.0 / k)
        self.mean_payoff = np.zeros(k)
        self.rounds = 0
        self.last_payoffs: np.ndarray | None = None
        # payoff normalization keeps hedge tuning on a unit scale
        self.scale = alpha_top * max(spec.value, grid[-1], 1e-12)

    def commit(self) -> float:
        alg = self.spec.config.algorithm
        if alg == "hedge":
            idx = int(self.rng.choice(len(self.grid), p=self.weights))
        elif alg == "epsilon_greedy":
            if self.rounds == 0 or self.rng.random() < self.spec.config.exploration:
                idx = int(self.rng.integers(len(self.grid)))
            else:
                idx = int(np.argmax(self.mean_payoff))
        else:  # fixed_best_response
            if self.last_payoffs is None:
                idx = len(self.grid) // 2
            else:
                idx = int(np.argmax(self.last_payoffs))
        return self.grid[idx]

    def update(self, payoffs: np.ndarray) -> None:
        if self.spec.config.algorithm == "hedge":
            self.weights = hedge_step(self.weights, payoffs / self.scale, self.eta)
        self.mean_payoff = (self.mean_payoff * self.rounds + payoffs) / (self.rounds + 1)
        self.last_payoffs = payoffs
        self.rounds += 1


def simulate_market(
    env: MarketSpec,
    learners: Sequence[LearnerSpec],
    periods: int,
    auctions_per_period: int,
    seed: int,
) -> list[ListingHistory]:
    """Run the repeated batch game and return one history per learner.

    Every period each learner commits a bid (before the period's auctions are
    drawn), the batch is realized, and each learner observes the average
    utility of every grid bid against it. Reruns with the same seed produce
    identical histories.
    """
    if not learners:
        raise SimulationError("at least one learner is required")
    if periods < 1:
        raise SimulationError(f"periods must be at least 1 (got {periods})")
    if auctions_per_period < 1:
        raise SimulationError(f"auctions_per_period must be at least 1 (got {auctions_per_period})")
    ids = [ls.listing_id for ls in learners]
    if len(set(ids)) != len(ids):
        raise SimulationError("listing ids must be unique")

    root = np.random.SeedSequence(seed)
    env_ss, *learner_ss = root.spawn(1 + len(learners))
    env_rng = np.random.Generator(np.random.PCG64(env_ss))
    alpha_top = env.position_curve[0]
    states = [
        _LearnerState(ls, periods, np.random.Generator(np.random.PCG64(ss)), alpha_top)
        for ls, ss in zip(learners, learner_ss)
    ]
    mainline = env.mainline_positions()
    records: list[list[PeriodRecord]] = [[] for _ in learners]

    for t in range(1, periods + 1):
        bids = [st.commit() for st in states]
        raw_batches: list[list[tuple[float, float, float]]] = [
            env.background.draw(env_rng, t) for _ in range(auctions_per_period)
        ]
        period_samples: list[list[AuctionParams]] = [[] for _ in learners]
        for raw in raw_batches:
            for i, st in enumerate(states):
                competitors: list[BidderEntry] = []
                k = 0
                for jdx, other in enumerate(states):
                    if jdx == i:
                        continue
                    competitors.append(
                        BidderEntry(
                            f"c{k:03d}", other.spec.own_score, other.spec.own_quality, bids[jdx]
                        )
                    )
                    k += 1
                for score, bid, quality in raw:
                    competitors.append(BidderEntry(f"c{k:03d}", score, quality, bid))
                    k += 1
                params = AuctionParams(
                    entries=(
                        BidderEntry(st.spec.listing_id, st.spec.own_score, st.spec.own_quality, bids[i]),
                        *competitors,
                    ),
                    rank_reserve=env.rank_reserve,
                    mainline_reserve=env.mainline_reserve,
                    mainline_cap=env.mainline_cap,
                    position_curve=env.position_curve,
                    mainline_positions=mainline,
                )
                period_samples[i].append(params)
        for i, st in enumerate(states):
            # bids are fixed within the period: one sweep covers the learner's batch
            ps, cs = DeviationSweep(period_samples[i], st.spec.listing_id).evaluate_many(st.grid)
            st.update(np.add.reduce(st.spec.value * ps - cs, axis=0) / auctions_per_period)
            records[i].append(
                PeriodRecord(period_index=t, own_bid=bids[i], auction_sample=tuple(period_samples[i]))
            )

    return [
        ListingHistory(listing_id=ls.listing_id, periods=tuple(recs), truth=ls.value)
        for ls, recs in zip(learners, records)
    ]


def realized_regret(history: ListingHistory, value: float, bid_grid: Sequence[float]) -> float:
    """Average regret of the history against the best fixed grid bid.

    ``max_{b'} (1/T) sum_t [U(b', ...) - U(b_t, ...)]`` with per-period
    utilities averaged over that period's auction sample. May be negative.
    """
    if value < 0:
        raise SimulationError(f"value must be non-negative (got {value})")
    periods = history.periods
    if not periods:
        raise SimulationError("history has no periods")
    grid = [float(b) for b in bid_grid]
    diffs = np.zeros(len(grid))
    for ps, cs, p0s, c0s in replay_periods(periods, history.listing_id, grid):
        n = len(p0s)
        arm_u = np.add.reduce(value * ps - cs, axis=0)
        own_u = sum_in_order(value * p0s - c0s)
        diffs += arm_u / n - own_u / n
    return float(np.max(diffs)) / len(periods)
