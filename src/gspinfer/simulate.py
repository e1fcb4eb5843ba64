"""Synthetic markets of learning bidders with known ground-truth values.

Bids are committed once per period (a batch of auctions); within a period
``n`` auctions are drawn from a configurable background-competition
generator. Learners receive full-information per-arm payoffs: the average
utility every grid bid would have earned against that period's batch. The
emitted histories carry the true value-per-click so inference can be
validated end to end.

Payoffs come from one :class:`~gspinfer.auction.DeviationSweep` per period
for the whole market: the learners' tables are interleaved into one market
table (rows by period, then learner, then auction), and each period's rows
are swept at once at every learner's grid bids. A lone learner's
competitors are all drawn up front, so its payoffs are swept in blocks of
whole periods.

Each listing's history is its :class:`~gspinfer.auction.ListingHistory`
table. Its competitors are, in a fixed order, the other learners and then
the background draws (a log names them "c000", "c001", ...), so a history
serialized to the auction-log format and read back is identical to the
in-memory one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .auction import BLOCK_CELLS, MAX_MAGNITUDE, DeviationSweep, ListingHistory, log_ahead
from .inference import boundary, build_deviation_curve

ALGORITHMS = ("hedge", "epsilon_greedy", "fixed_best_response")


class SimulationError(ValueError):
    """Bad simulation inputs."""


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
        if self.learning_rate is not None and not 0.0 <= self.learning_rate < math.inf:
            raise SimulationError(f"learning_rate must be non-negative and finite (got {self.learning_rate})")


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
    total = scaled.sum()
    if not total > 0.0:
        raise SimulationError(f"learning_rate {eta:g} is too large: every hedge weight underflowed to 0")
    return scaled / total


def tuned_hedge_rate(n_arms: int, horizon: int) -> float:
    """The standard horizon-tuned hedge rate ``sqrt(8 ln K / T)``."""
    return math.sqrt(8.0 * math.log(n_arms) / horizon)


@dataclass(frozen=True)
class BackgroundSpec:
    """Generator for anonymous competitor entries drawn fresh each auction.

    ``drift_amplitude``/``drift_period`` rotate the bid scale sinusoidally
    across periods to exercise slowly changing environments. :meth:`draws`
    makes a whole market's entries, each uniform on its ranges, in one call.
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

    def __post_init__(self):
        if self.count < 0:
            raise SimulationError(f"count must be non-negative (got {self.count})")
        for name, low, high in (
            ("bid", self.bid_low, self.bid_high),
            ("score", self.score_low, self.score_high),
            ("quality", self.quality_low, self.quality_high),
        ):
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise SimulationError(f"competitor {name} range must be finite with low <= high (got {low}, {high})")
        if self.drift_period < 1:
            raise SimulationError(f"drift_period must be at least 1 (got {self.drift_period})")
        a = abs(self.drift_amplitude)
        drifted = max(self.bid_high * (1 + a), self.bid_low * (1 - a))  # largest bid * s, s in [1 - a, 1 + a]
        # a bid_high above the cap is left to the entry check, which names the bid
        if not math.isfinite(a) or self.bid_high <= MAX_MAGNITUDE < drifted:
            raise SimulationError(
                f"drift_amplitude must be finite and keep every drifted bid at most {MAX_MAGNITUDE:g} "
                f"(got {self.drift_amplitude})"
            )

    def draws(self, rng: np.random.Generator, periods: int, per_period: int) -> np.ndarray:
        """Every auction's entries as a ``(periods * per_period, count, 3)`` array of (score, quality, bid).

        One ``rng`` call takes a bid, a score and a quality per entry, auction by auction; period ``t``
        (from 1) scales its bids by ``1 + drift_amplitude * sin(2 pi t / drift_period)``, clamped at 0.
        """
        lows = (self.bid_low, self.score_low, self.quality_low)
        highs = (self.bid_high, self.score_high, self.quality_high)
        out = rng.uniform(lows, highs, (periods * per_period, self.count, 3))  # bid, score, quality
        scale = [1.0 + self.drift_amplitude * math.sin(2.0 * math.pi * t / self.drift_period)
                 for t in range(1, periods + 1)]
        out[..., 0] *= np.repeat(scale, per_period)[:, None]
        out[out[..., 0] < 0.0, 0] = 0.0  # as max(bid, 0.0) does: np.maximum would turn -0.0 into 0.0
        return out[..., [1, 2, 0]]


@dataclass(frozen=True)
class MarketSpec:
    """Shared auction rules plus the background-competition generator."""

    position_curve: tuple[float, ...] = (1.0, 0.6, 0.35, 0.2)
    rank_reserve: float = 0.05
    mainline_reserve: float = 0.1
    mainline_cap: int = 2
    mainline_count: int | None = None
    background: BackgroundSpec = field(default_factory=BackgroundSpec)


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
            # rng.choice(len(grid), p=weights) without re-checking p: one double against the CDF
            cdf = self.weights.cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(self.rng.random(), side="right"))
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
        alg = self.spec.config.algorithm
        if alg == "hedge":
            self.weights = hedge_step(self.weights, payoffs / self.scale, self.eta)
        elif alg == "epsilon_greedy":
            self.mean_payoff = (self.mean_payoff * self.rounds + payoffs) / (self.rounds + 1)
        else:  # fixed_best_response
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

    for ls in learners:
        if not 0.0 <= ls.value < math.inf:
            raise SimulationError(f"truth value must be non-negative and finite (got {ls.value})")

    root = np.random.SeedSequence(seed)
    env_ss, *learner_ss = root.spawn(1 + len(learners))
    env_rng = np.random.Generator(np.random.PCG64(env_ss))
    # The background has its own random stream, drawn for every period at once. Per auction the
    # entrants are the learners, then the draws; each learner's competitors are the others, in order.
    n, n_learners, m = auctions_per_period, len(learners), env.background.count
    rows = periods * n
    own = np.broadcast_to([(ls.own_score, ls.own_quality, 0.0) for ls in learners], (rows, n_learners, 3))
    entrants = np.concatenate([own, env.background.draws(env_rng, periods, n)], axis=1)  # score, quality, bid
    offsets = np.arange(rows + 1) * (n_learners - 1 + m)
    most = min(env.mainline_cap, len(env.position_curve))
    n_main = most if env.mainline_count is None else env.mainline_count
    if env.mainline_count is not None and n_main < 0:
        raise SimulationError(f"mainline_count must be non-negative (got {n_main})")
    if n_main > most >= 0:  # a negative cap keeps its own message
        raise SimulationError(f"mainline_count must be at most min(mainline_cap, positions) = {most} (got {n_main})")
    tables = []
    for i, ls in enumerate(learners):
        score, quality, bid = entrants[:, [j for j in range(n_learners + m) if j != i]].reshape(-1, 3).T.copy()
        # the columns in field order; own bids start at the learner's largest,
        # so the check below covers every bid it can make
        table = ListingHistory(
            ls.listing_id, np.arange(1, periods + 1).repeat(n), np.full(rows, float(ls.config.bid_grid[-1])),
            np.full(rows, float(ls.own_score)),
            np.full(rows, float(ls.own_quality)), np.full(rows, float(env.rank_reserve)),
            np.full(rows, float(env.mainline_reserve)), np.full(rows, env.mainline_cap),
            np.full(rows, n_main), np.zeros(rows, dtype=np.int64), (tuple(env.position_curve),),
            offsets, score, quality, bid, log_ahead(ls.listing_id, offsets), ls.value,
        )
        bad = np.flatnonzero(table.invalid_rows())
        if len(bad):
            raise SimulationError(table.row_error(int(bad[0])))
        tables.append(table)

    alpha_top = env.position_curve[0]
    states = [
        _LearnerState(ls, periods, np.random.Generator(np.random.PCG64(ss)), alpha_top)
        for ls, ss in zip(learners, learner_ss)
    ]
    # Payoffs are swept for every period whose competitors are known: a lone
    # learner's are all drawn up front (swept in blocks of whole periods),
    # other learners' bids are known one period at a time, when one sweep of
    # the market table covers every learner's rows at the union of their grids.
    market = tables[0] if n_learners == 1 else _interleave(tables, periods, n)
    grids = [st.grid for st in states]
    grid = grids[0] if len(set(grids)) == 1 else tuple(np.unique(np.concatenate(grids)).tolist())
    columns = [None if g == grid else np.searchsorted(grid, g) for g in grids]
    step = max(1, BLOCK_CELLS // (n * len(grid))) if n_learners == 1 else 1
    width = n_learners * n  # rows per period of the market table
    own_bid = market.own_bid.reshape(periods, n_learners, n)
    # each learner's competitors open with the other learners, in order
    opponent_bid = market.bid.reshape(periods, n_learners, n, n_learners - 1 + m)[..., :n_learners - 1]
    opponents = np.array([[j for j in range(n_learners) if j != i] for i in range(n_learners)], dtype=np.int64)
    start = stop = 0
    for t in range(periods):
        bids = np.array([st.commit() for st in states])
        own_bid[t] = bids[:, None]
        opponent_bid[t] = bids[opponents][:, None]
        if t == stop:
            start, stop = t, min(t + step, periods)
            ps, cs = DeviationSweep(market.rows(start * width, stop * width), market.listing_id).evaluate_many(grid)
        for i, st in enumerate(states):
            a = (t - start) * width + i * n
            p, c = ps[a:a + n], cs[a:a + n]
            if columns[i] is not None:
                p, c = p[:, columns[i]], c[:, columns[i]]
            st.update(np.add.reduce(st.spec.value * p - c, axis=0) / n)
    if n_learners > 1:
        for i, table in enumerate(tables):
            table.own_bid[:] = own_bid[:, i].reshape(-1)
            table.bid.reshape(periods, n, -1)[..., :n_learners - 1] = opponent_bid[:, i]
    return tables


def _interleave(tables: Sequence[ListingHistory], periods: int, n: int) -> ListingHistory:
    """Tables of ``periods * n`` rows with one competitor count as one, rows by period, then table, then auction.

    Every row keeps its own table's columns, ``ahead`` included; the position curves are the first table's.
    """
    columns = {f.name: np.stack([getattr(tb, f.name).reshape(periods, n, -1) for tb in tables], axis=1).reshape(-1)
               for f in fields(ListingHistory) if f.name not in ("listing_id", "curves", "offsets", "truth")}
    per_row = int(tables[0].offsets[1])
    return ListingHistory("market", **columns, curves=tables[0].curves,
                          offsets=np.arange(len(columns["period"]) + 1) * per_row)


def realized_regret(history: ListingHistory, value: float, bid_grid: Sequence[float]) -> float:
    """Average regret of the history against the best fixed grid bid.

    ``max_{b'} (1/T) sum_t [U(b', ...) - U(b_t, ...)]`` with per-period
    utilities averaged over that period's auctions: the lower boundary of the
    rationalizable set at ``value``. May be negative.
    """
    if value < 0:
        raise SimulationError(f"value must be non-negative (got {value})")
    return boundary(build_deviation_curve(history, bid_grid), value)
