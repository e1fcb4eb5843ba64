"""Support-function geometry of the rationalizable set and its estimation error.

The bounded rationalizable set is fully described by a one-dimensional link
function ``f(z)``: the lower convex envelope of the payment changes ``dC``
against the click-probability changes ``dP``. Support functions of the set
and of its bounded truncation are evaluated straight from ``f``, Hausdorff
distances are taken as the largest support gap over a fan of directions, and
a subsampling study measures how fast the estimated set approaches the truth
as the auction-evaluation budget ``N`` grows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .auction import MICRO
from .inference import DeviationCurve, LinkFunction, link_from_curve


class GeometryError(ValueError):
    """Bad geometry inputs (unbounded regions, bad caps, bad configs)."""


def link_eval(link: LinkFunction, z: float) -> float:
    """Interpolate the payment change at click change ``z``; NaN out of range."""
    zs = link.z_knots
    cs = link.c_values
    if z < zs[0] or z > zs[-1]:
        return math.nan
    if z == zs[0]:
        return cs[0]
    k = bisect_right(zs, z)
    if k >= len(zs):
        return cs[-1]
    z0, z1 = zs[k - 1], zs[k]
    c0, c1 = cs[k - 1], cs[k]
    return c0 + (c1 - c0) * (z - z0) / (z1 - z0)


def support_nr(link: LinkFunction, u) -> float:
    """Support function of the (unbounded) rationalizable set.

    ``u`` is a direction pair. Infinite unless the direction points downward
    in regret and its slope ``u1/|u2|`` lies within the attainable
    click-change range, in which case the value is ``|u2| * f(u1/|u2|)``.
    """
    u1, u2 = u
    if u2 >= 0.0:
        return math.inf
    z = u1 / abs(u2)
    if z < link.z_knots[0] or z > link.z_knots[-1]:
        return math.inf
    return abs(u2) * link_eval(link, z)


class SupportRegion:
    """The bounded rationalizable set, evaluated through its link function.

    Its top-right vertex is ``(value_cap, eps_cap)``, where the boundary
    meets the regret cap: ``value_cap`` is the least ``(c + eps_cap) / z``
    over knots with ``z > 0``. Its lowest point on the regret axis is
    ``(0, eps_at_zero)``, where ``eps_at_zero = -min f`` is the boundary
    height at ``v = 0``. Since ``eps_cap > eps_at_zero``, every
    ``c + eps_cap`` is positive, and so is ``value_cap``.
    """

    def __init__(self, link: LinkFunction, eps_cap: float):
        zs, cs = link.z_knots, link.c_values
        eps_at_zero = -min(cs)
        if not eps_cap > eps_at_zero:
            raise GeometryError(f"eps_cap must exceed the boundary height at v = 0, {eps_at_zero:g} (got {eps_cap})")
        corners = [(c + eps_cap) / z for z, c in zip(zs, cs) if z > 0.0]
        if not corners:
            raise GeometryError("no deviation gains clicks; the capped set has no right corner")
        self.link = link
        self.eps_cap = float(eps_cap)
        self.value_cap = float(min(corners))
        self.eps_at_zero = float(eps_at_zero)
        # click-change slopes where the boundary touches v = 0 and v = value_cap
        self._z_lo = zs[min(range(len(zs)), key=lambda k: (cs[k], zs[k]))]
        self._z_hi = zs[max(range(len(zs)), key=lambda k: (self.value_cap * zs[k] - cs[k], zs[k]))]

    def support(self, u: tuple[float, float]) -> float:
        """Support function in direction ``u``.

        Downward directions with slope between the tangency slopes at
        ``v = 0`` and ``v = value_cap`` are supported on the curved boundary;
        every other direction at a vertex.
        """
        u1, u2 = u
        if u2 >= 0.0:
            if u1 >= 0.0:
                return u1 * self.value_cap + u2 * self.eps_cap
            return u2 * self.eps_cap
        z = u1 / abs(u2)
        if z > self._z_hi:
            return u1 * self.value_cap + u2 * self.eps_cap
        if z < self._z_lo:
            return u2 * self.eps_at_zero
        return abs(u2) * link_eval(self.link, z)


class _Supportable(Protocol):
    def support(self, u: tuple[float, float]) -> float: ...


def hausdorff(region_a: _Supportable, region_b: _Supportable, direction_count: int = 720) -> float:
    """Largest support gap over evenly spaced unit directions.

    For convex sets this equals the Hausdorff distance up to the angular
    resolution of the fan. Raises if either region is unbounded in some
    sampled direction.
    """
    if direction_count < 4:
        raise GeometryError("direction_count must be at least 4")
    worst = 0.0
    for k in range(direction_count):
        theta = 2.0 * math.pi * k / direction_count
        u = (math.cos(theta), math.sin(theta))
        ha = region_a.support(u)
        hb = region_b.support(u)
        if not (math.isfinite(ha) and math.isfinite(hb)):
            raise GeometryError(
                "unbounded region in the sampled directions; apply regret/value caps first"
            )
        gap = abs(ha - hb)
        if gap > worst:
            worst = gap
    return worst


# ---------------------------------------------------------------------------
# Subsampling rate study
# ---------------------------------------------------------------------------


class SingleSlotMarket:
    """Two-position market against one uniform-score rival, in closed form.

    The tracked bidder (score 1) faces a single competitor whose rank-score
    is uniform on ``[rival_low, rival_high]``; no reserves, no mainline. The
    winner pays the rival's score, the loser sits on the second position for
    free, so the population click and payment curves are smooth and Lipschitz
    on the bid range. The market is fixed: every rate study samples it.
    """

    alpha_top = 1.0
    alpha_bottom = 0.1
    quality = 1.0
    own_bid = 0.3
    rival_low = 0.0
    rival_high = 1.0

    def population_pc(self, bid: float) -> tuple[float, float]:
        """Exact expected click probability and payment at ``bid``."""
        lo, hi = self.rival_low, self.rival_high
        b = min(max(bid, lo), hi)
        f = (b - lo) / (hi - lo)
        p = self.quality * (self.alpha_bottom + (self.alpha_top - self.alpha_bottom) * f)
        c = self.quality * self.alpha_top * (b * b - lo * lo) / (2.0 * (hi - lo))
        return p, c

    def sample_pc(self, bid: float, rivals: np.ndarray) -> tuple[float, float]:
        """Empirical click/payment means of ``bid`` over the rival draws.

        Mirrors the exact auction engine: rank-scores compare at micro
        resolution and score ties go to the tracked bidder (its id sorts
        first).
        """
        rival_q = np.rint(rivals * MICRO)
        win = rival_q <= round(float(bid) * MICRO)
        p = self.quality * (self.alpha_bottom + (self.alpha_top - self.alpha_bottom) * win.mean())
        c = self.quality * self.alpha_top * float(np.mean(win * (rival_q / MICRO)))
        return float(p), c

    def population_curve(self, bids: Sequence[float]) -> DeviationCurve:
        p0, c0 = self.population_pc(self.own_bid)
        ps, cs = np.array([self.population_pc(b) for b in bids]).T
        return DeviationCurve(grid=bids, delta_p=ps - p0, delta_c=cs - c0, baseline_p=p0, baseline_c=c0)


#: The market every rate study samples.
_MARKET = SingleSlotMarket()


@dataclass(frozen=True)
class RateStudyConfig:
    """Design of the subsampling convergence experiment on :data:`_MARKET`.

    ``sample_sizes`` are total auction-evaluation budgets ``N``; each budget
    is split evenly across the deviation grid (plus one baseline arm), so
    refining the grid trades per-arm noise against interpolation bias. The
    grid size grows as ``grid_coeff * (N / ln N)^(1/(2*gamma+1))`` with
    ``gamma = smoothness_order + holder_exponent`` describing the environment
    link function.
    """

    sample_sizes: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6)
    replications: int = 20
    smoothness_order: int = 0
    holder_exponent: float = 1.0
    seed: int = 0
    eps_cap: float = 0.4
    direction_count: int = 720
    grid_coeff: float = 1.5

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if len(self.sample_sizes) < 3:
            raise GeometryError(f"sample_sizes must hold 3 sample sizes or more to fit a slope (got {self.sample_sizes})")
        if any(n < 2 for n in self.sample_sizes):
            raise GeometryError(f"sample_sizes must be at least 2 (got {self.sample_sizes})")
        for a, b in zip(self.sample_sizes, self.sample_sizes[1:]):
            if not b > a:
                raise GeometryError(f"sample_sizes must be increasing (got {self.sample_sizes})")
        if self.replications < 1:
            raise GeometryError(f"replications must be at least 1 (got {self.replications})")
        if self.smoothness_order < 0:
            raise GeometryError(f"smoothness_order must be non-negative (got {self.smoothness_order})")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise GeometryError(f"holder_exponent must lie in (0, 1] (got {self.holder_exponent})")
        if not (self.grid_coeff > 0 and math.isfinite(self.grid_coeff)):
            raise GeometryError(f"grid_coeff must be positive and finite (got {self.grid_coeff})")
        for n in self.sample_sizes:  # one draw for each of the g grid arms and the baseline arm
            g = self.grid_size(n)
            if n < g + 1:
                raise GeometryError(f"sample_sizes must cover every arm (budget {n} too small for a {g}-point grid)")
        if self.seed < 0:
            raise GeometryError(f"seed must be non-negative (got {self.seed})")
        height = _MARKET.population_pc(_MARKET.own_bid)[1]  # the true boundary at v = 0: a zero bid pays nothing
        if not (self.eps_cap > height and math.isfinite(self.eps_cap)):
            raise GeometryError(
                f"eps_cap must be finite and exceed {height:g}, the market's boundary height at v = 0 (got {self.eps_cap})"
            )
        if self.direction_count < 4:
            raise GeometryError(f"direction_count must be at least 4 (got {self.direction_count})")

    @property
    def gamma(self) -> float:
        return self.smoothness_order + self.holder_exponent

    def grid_size(self, n: int) -> int:
        g = self.grid_coeff * (n / math.log(n)) ** (1.0 / (2.0 * self.gamma + 1.0))
        return max(4, int(round(g)))


@dataclass(frozen=True)
class RateStudyResult:
    """Per-budget Hausdorff errors and the fitted log-log convergence slope."""

    sample_sizes: tuple[int, ...]
    mean_dh: tuple[float, ...]
    std_dh: tuple[float, ...]
    slope: float
    slope_stderr: float
    gamma_target: float
    grid_sizes: tuple[int, ...]

    def rows(self) -> list[tuple[int, float, float]]:
        return list(zip(self.sample_sizes, self.mean_dh, self.std_dh))


def _estimate_region(cfg: RateStudyConfig, n: int, rng: np.random.Generator) -> SupportRegion:
    g = cfg.grid_size(n)
    bids = np.linspace(_MARKET.rival_low, _MARKET.rival_high, g)
    batch = n // (g + 1)
    draws = rng.uniform(_MARKET.rival_low, _MARKET.rival_high, size=(g + 1) * batch)
    ps, cs = np.array([_MARKET.sample_pc(b, draws[k * batch:(k + 1) * batch]) for k, b in enumerate(bids)]).T
    p0, c0 = _MARKET.sample_pc(_MARKET.own_bid, draws[g * batch:])
    curve = DeviationCurve(grid=bids, delta_p=ps - p0, delta_c=cs - c0, baseline_p=p0, baseline_c=c0)
    return SupportRegion(link_from_curve(curve), cfg.eps_cap)


def true_region(cfg: RateStudyConfig) -> SupportRegion:
    """Population region from the closed-form curves on a dense grid of 2001 points."""
    bids = np.linspace(_MARKET.rival_low, _MARKET.rival_high, 2001)
    return SupportRegion(link_from_curve(_MARKET.population_curve([float(b) for b in bids])), cfg.eps_cap)


def run_rate_study(cfg: RateStudyConfig) -> RateStudyResult:
    """Estimate set-recovery error against the evaluation budget and fit its rate.

    For each budget ``N`` and replication, draws a fresh subsample, builds the
    estimated bounded region, and measures its Hausdorff distance to the
    population region; the slope of ``log mean d_H`` on ``log(N^-1 log N)`` is
    fitted by least squares.
    """
    truth = true_region(cfg)
    streams = iter(np.random.SeedSequence(cfg.seed).spawn(len(cfg.sample_sizes) * cfg.replications))
    means: list[float] = []
    stds: list[float] = []
    for n in cfg.sample_sizes:
        distances = []
        for r in range(1, cfg.replications + 1):
            rng = np.random.Generator(np.random.PCG64(next(streams)))
            try:
                region = _estimate_region(cfg, n, rng)
            except GeometryError as exc:  # a sampled region's height at v = 0 varies with its draws
                raise GeometryError(f"{exc}, in replication {r} of sample size {n}") from exc
            distances.append(hausdorff(region, truth, cfg.direction_count))
        arr = np.asarray(distances)
        means.append(float(arr.mean()))
        stds.append(float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)
    x = np.array([math.log(math.log(n) / n) for n in cfg.sample_sizes])
    y = np.log(np.asarray(means))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    slope_stderr = math.sqrt(sigma2 / float(((x - x.mean()) ** 2).sum()))
    gamma = cfg.gamma
    return RateStudyResult(
        sample_sizes=cfg.sample_sizes,
        mean_dh=tuple(means),
        std_dh=tuple(stds),
        slope=float(slope),
        slope_stderr=slope_stderr,
        gamma_target=gamma / (2.0 * gamma + 1.0),
        grid_sizes=tuple(cfg.grid_size(n) for n in cfg.sample_sizes),
    )
