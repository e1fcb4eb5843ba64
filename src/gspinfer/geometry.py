"""Support-function geometry of the rationalizable set and its estimation error.

The bounded rationalizable set is fully described by a one-dimensional link
function ``f(z)``: the payment change at click-probability change ``z``
(``dC`` composed with the inverse of ``dP``). Support functions of the set
and of its bounded truncation are evaluated straight from ``f``, Hausdorff
distances are taken as the largest support gap over a fan of directions, and
a subsampling study measures how fast the estimated set approaches the truth
as the auction-evaluation budget ``N`` grows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .auction import AuctionParams, BidderEntry
from .inference import DeviationCurve

_SLOPE_TOL = 1e-12


class GeometryError(ValueError):
    """Bad geometry inputs (unbounded regions, empty links, bad configs)."""


@dataclass(frozen=True)
class SupportQuery:
    """A unit direction in the (value, regret) plane."""

    u: tuple[float, float]

    def __post_init__(self):
        u1, u2 = self.u
        norm = math.hypot(u1, u2)
        if not math.isclose(norm, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise GeometryError(f"direction must have unit norm (got {norm})")


def _direction(u) -> tuple[float, float]:
    if isinstance(u, SupportQuery):
        return u.u
    return (float(u[0]), float(u[1]))


@dataclass(frozen=True)
class LinkFunction:
    """Piecewise-linear payment-change versus click-change curve.

    Knots are sorted by ``z``; ties keep the largest payment change (the
    conservative side for feasibility). ``convexified`` marks that the raw
    knots violated increasing incremental cost per click and were replaced by
    their lower convex hull.
    """

    z_knots: tuple[float, ...]
    c_values: tuple[float, ...]
    convexified: bool = False

    def __post_init__(self):
        if not self.z_knots or len(self.z_knots) != len(self.c_values):
            raise GeometryError("link function needs matching, non-empty knots")
        for a, b in zip(self.z_knots, self.z_knots[1:]):
            if not b > a:
                raise GeometryError("z knots must be strictly increasing")

    @property
    def z_min(self) -> float:
        return self.z_knots[0]

    @property
    def z_max(self) -> float:
        return self.z_knots[-1]

    def is_convex(self, tol: float = _SLOPE_TOL) -> bool:
        return _slopes_convex(self.z_knots, self.c_values, tol)


def _slopes_convex(zs: Sequence[float], cs: Sequence[float], tol: float = _SLOPE_TOL) -> bool:
    prev = None
    for k in range(len(zs) - 1):
        s = (cs[k + 1] - cs[k]) / (zs[k + 1] - zs[k])
        if prev is not None and s < prev - tol * max(1.0, abs(prev)):
            return False
        prev = s
    return True


def _lower_hull(zs: Sequence[float], cs: Sequence[float]) -> tuple[list[float], list[float]]:
    hull: list[tuple[float, float]] = []
    for p in zip(zs, cs):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or above the chord
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return [z for z, _ in hull], [c for _, c in hull]


def link_from_curve(curve: DeviationCurve, convexify: bool = True) -> LinkFunction:
    """Build the link function from a deviation curve.

    Sorts knots by click change, deduplicates ties keeping the largest
    payment change, and (by default) falls back to the lower convex hull when
    the knots violate increasing incremental cost per click.
    """
    pairs = sorted(zip(curve.delta_p, curve.delta_c))
    zs: list[float] = []
    cs: list[float] = []
    for z, c in pairs:
        if zs and z == zs[-1]:
            if c > cs[-1]:
                cs[-1] = c
        else:
            zs.append(z)
            cs.append(c)
    convexified = False
    if convexify and len(zs) >= 3 and not _slopes_convex(zs, cs):
        zs, cs = _lower_hull(zs, cs)
        convexified = True
    return LinkFunction(tuple(zs), tuple(cs), convexified)


def link_eval(link: LinkFunction, z: float) -> float:
    """Interpolate the payment change at click change ``z``; NaN out of range."""
    if z < link.z_min or z > link.z_max:
        return math.nan
    zs = link.z_knots
    cs = link.c_values
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

    ``u`` is a direction (pair or :class:`SupportQuery`). Infinite unless the
    direction points downward in regret and its slope ``u1/|u2|`` lies within
    the attainable click-change range, in which case the value is
    ``|u2| * f(u1/|u2|)``.
    """
    u1, u2 = _direction(u)
    if u2 >= 0.0:
        return math.inf
    z = u1 / abs(u2)
    if z < link.z_min or z > link.z_max:
        return math.inf
    return abs(u2) * link_eval(link, z)


def _tangency_knots(link: LinkFunction, value_cap: float) -> tuple[float, float]:
    """Click-change slopes where the boundary touches v = 0 and v = value_cap."""
    zs = link.z_knots
    cs = link.c_values
    z_lo = zs[min(range(len(zs)), key=lambda k: (cs[k], zs[k]))]
    z_hi = zs[max(range(len(zs)), key=lambda k: (value_cap * zs[k] - cs[k], zs[k]))]
    return z_lo, z_hi


def natural_value_cap(link: LinkFunction, eps_cap: float) -> float:
    """Largest rationalizable value at regret ``eps_cap``: the set's right corner.

    ``min`` over knots with positive click change of ``(c(z) + eps_cap) / z``.
    This is the ``value_cap`` for which the bounded support formula is the
    exact support function of the capped set.
    """
    best = math.inf
    for z, c in zip(link.z_knots, link.c_values):
        if z > 0.0:
            bound = (c + eps_cap) / z
            if bound < best:
                best = bound
    if not math.isfinite(best):
        raise GeometryError("no deviation gains clicks; the capped set has no right corner")
    if best <= 0.0:
        raise GeometryError("the regret cap leaves no non-negative rationalizable value")
    return best


def _support_cases(
    link: LinkFunction,
    u: tuple[float, float],
    eps_cap: float,
    value_cap: float,
    eps_at_zero: float,
    z_lo: float,
    z_hi: float,
) -> float:
    u1, u2 = u
    if u2 >= 0.0:
        if u1 >= 0.0:
            return u1 * value_cap + u2 * eps_cap
        return u2 * eps_cap
    z = u1 / abs(u2)
    if z > z_hi:
        return u1 * value_cap + u2 * eps_cap
    if z < z_lo:
        return u2 * eps_at_zero
    return abs(u2) * link_eval(link, z)


def support_nrb(
    link: LinkFunction,
    u,
    eps_cap: float,
    value_cap: float,
    eps_at_zero: float,
) -> float:
    """Support function of the bounded rationalizable set.

    ``u`` is a direction (pair or :class:`SupportQuery`). The point
    ``(value_cap, eps_cap)`` is treated as the set's top-right vertex (pass
    the natural corner where the boundary meets ``eps_cap`` for exact
    geometry) and ``eps_at_zero`` as the boundary height on the value axis.
    Downward directions use the curved part between the tangency slopes at
    ``v = 0`` and ``v = value_cap``; everything outside is supported at a
    vertex.
    """
    if not eps_cap > eps_at_zero:
        raise GeometryError("eps_cap must exceed the boundary height at v = 0")
    z_lo, z_hi = _tangency_knots(link, value_cap)
    return _support_cases(link, _direction(u), eps_cap, value_cap, eps_at_zero, z_lo, z_hi)


class SupportRegion:
    """A bounded rationalizable set evaluated through its link function."""

    def __init__(self, link: LinkFunction, eps_cap: float, value_cap: float,
                 eps_at_zero: float | None = None):
        if eps_at_zero is None:
            eps_at_zero = -min(link.c_values)
        if not eps_cap > eps_at_zero:
            raise GeometryError("eps_cap must exceed the boundary height at v = 0")
        if not value_cap > 0:
            raise GeometryError("value_cap must be positive")
        self.link = link
        self.eps_cap = float(eps_cap)
        self.value_cap = float(value_cap)
        self.eps_at_zero = float(eps_at_zero)
        self._z_lo, self._z_hi = _tangency_knots(link, value_cap)

    @classmethod
    def from_curve(
        cls, curve: DeviationCurve, eps_cap: float, value_cap: float | None = None
    ) -> "SupportRegion":
        link = link_from_curve(curve)
        if value_cap is None:
            value_cap = natural_value_cap(link, eps_cap)
        return cls(link, eps_cap, value_cap, -min(link.c_values))

    def support(self, u) -> float:
        return _support_cases(
            self.link, _direction(u), self.eps_cap, self.value_cap,
            self.eps_at_zero, self._z_lo, self._z_hi,
        )


class PolygonRegion:
    """Convex polygon given by its vertices; support is the max vertex dot."""

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 1:
            raise GeometryError("polygon needs at least one vertex")
        self.vertices = [(float(x), float(y)) for x, y in vertices]

    def support(self, u) -> float:
        u1, u2 = _direction(u)
        return max(u1 * x + u2 * y for x, y in self.vertices)

    def translate(self, shift: tuple[float, float]) -> "PolygonRegion":
        dx, dy = shift
        return PolygonRegion([(x + dx, y + dy) for x, y in self.vertices])


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


@dataclass(frozen=True)
class SingleSlotMarket:
    """Two-position market against one uniform-score rival, in closed form.

    The tracked bidder (score 1) faces a single competitor whose rank-score
    is uniform on ``[rival_low, rival_high]``; no reserves, no mainline. The
    winner pays the rival's score, the loser sits on the second position for
    free, so the population click and payment curves are smooth and Lipschitz
    on the bid range.
    """

    alpha_top: float = 1.0
    alpha_bottom: float = 0.1
    quality: float = 1.0
    own_bid: float = 0.3
    rival_low: float = 0.0
    rival_high: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha_bottom < self.alpha_top <= 1.0:
            raise GeometryError("need 0 < alpha_bottom < alpha_top <= 1")
        if not self.rival_low < self.rival_high:
            raise GeometryError("rival score support must be non-degenerate")
        if not self.rival_low <= self.own_bid <= self.rival_high:
            raise GeometryError("own_bid must lie inside the rival score support")

    def population_pc(self, bid: float) -> tuple[float, float]:
        """Exact expected click probability and payment at ``bid``."""
        lo, hi = self.rival_low, self.rival_high
        b = min(max(bid, lo), hi)
        f = (b - lo) / (hi - lo)
        p = self.quality * (self.alpha_bottom + (self.alpha_top - self.alpha_bottom) * f)
        c = self.quality * self.alpha_top * (b * b - lo * lo) / (2.0 * (hi - lo))
        return p, c

    def sample_pc(self, bids: np.ndarray, rivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Empirical click/payment means of each bid over the rival draws.

        Mirrors the exact auction engine: rank-scores compare at micro
        resolution and score ties go to the tracked bidder (its id sorts
        first).
        """
        rival_q = np.rint(rivals * 1e6)
        bids_q = np.array([round(float(b) * 1e6) for b in np.atleast_1d(bids)])
        p_out = np.empty(len(bids_q))
        c_out = np.empty(len(bids_q))
        gamma = self.quality
        for k, bq in enumerate(bids_q):
            win = rival_q <= bq
            p_out[k] = gamma * (self.alpha_bottom + (self.alpha_top - self.alpha_bottom) * win.mean())
            c_out[k] = gamma * self.alpha_top * float(np.mean(win * (rival_q / 1e6)))
        return p_out, c_out

    def auction_params(self, rival: float, own_bid: float) -> AuctionParams:
        """The same auction as one draw, for cross-checks against the engine."""
        return AuctionParams(
            entries=(
                BidderEntry("p", 1.0, self.quality, own_bid),
                BidderEntry("r", 1.0, 0.5, rival),
            ),
            rank_reserve=0.0,
            mainline_reserve=0.0,
            mainline_cap=0,
            position_curve=(self.alpha_top, self.alpha_bottom),
        )

    def population_curve(self, bids: Sequence[float]) -> DeviationCurve:
        p0, c0 = self.population_pc(self.own_bid)
        ps, cs = zip(*(self.population_pc(b) for b in bids))
        return DeviationCurve(
            grid=tuple(bids),
            delta_p=tuple(p - p0 for p in ps),
            delta_c=tuple(c - c0 for c in cs),
            baseline_p=p0,
            baseline_c=c0,
        )


@dataclass(frozen=True)
class RateStudyConfig:
    """Design of the subsampling convergence experiment.

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
    market: SingleSlotMarket = field(default_factory=SingleSlotMarket)
    eps_cap: float = 0.4
    direction_count: int = 720
    grid_coeff: float = 1.5
    truth_knots: int = 2001

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        for a, b in zip(self.sample_sizes, self.sample_sizes[1:]):
            if not b > a:
                raise GeometryError("sample_sizes must be increasing")
        if self.replications < 1:
            raise GeometryError("need at least one replication")
        if self.smoothness_order < 0 or not 0.0 < self.holder_exponent <= 1.0:
            raise GeometryError("smoothness must satisfy k >= 0 and 0 < alpha <= 1")

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


def _estimate_region(
    cfg: RateStudyConfig, n: int, rng: np.random.Generator
) -> SupportRegion:
    market = cfg.market
    g = cfg.grid_size(n)
    bids = np.linspace(market.rival_low, market.rival_high, g)
    batch = n // (g + 1)
    if batch < 1:
        raise GeometryError(f"budget {n} too small for a {g}-point grid")
    draws = rng.uniform(market.rival_low, market.rival_high, size=(g + 1) * batch)
    ps = np.empty(g)
    cs = np.empty(g)
    for k in range(g):
        chunk = draws[k * batch:(k + 1) * batch]
        p, c = market.sample_pc(np.array([bids[k]]), chunk)
        ps[k], cs[k] = p[0], c[0]
    base = draws[g * batch:(g + 1) * batch]
    p0, c0 = market.sample_pc(np.array([market.own_bid]), base)
    curve = DeviationCurve(
        grid=tuple(float(b) for b in bids),
        delta_p=tuple(ps - p0[0]),
        delta_c=tuple(cs - c0[0]),
        baseline_p=float(p0[0]),
        baseline_c=float(c0[0]),
    )
    return SupportRegion.from_curve(curve, cfg.eps_cap)


def true_region(cfg: RateStudyConfig) -> SupportRegion:
    """Population region from the closed-form curves on a dense grid."""
    market = cfg.market
    bids = np.linspace(market.rival_low, market.rival_high, cfg.truth_knots)
    curve = market.population_curve([float(b) for b in bids])
    return SupportRegion.from_curve(curve, cfg.eps_cap)


def run_rate_study(cfg: RateStudyConfig) -> RateStudyResult:
    """Estimate set-recovery error against the evaluation budget and fit its rate.

    For each budget ``N`` and replication, draws a fresh subsample, builds the
    estimated bounded region, and measures its Hausdorff distance to the
    population region; the slope of ``log mean d_H`` on ``log(N^-1 log N)`` is
    fitted by least squares.
    """
    if len(cfg.sample_sizes) < 3:
        raise GeometryError("need at least 3 sample sizes to identify a slope")
    truth = true_region(cfg)
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(len(cfg.sample_sizes) * cfg.replications)
    means: list[float] = []
    stds: list[float] = []
    grids: list[int] = []
    idx = 0
    for n in cfg.sample_sizes:
        vals = []
        for _ in range(cfg.replications):
            rng = np.random.Generator(np.random.PCG64(streams[idx]))
            idx += 1
            est = _estimate_region(cfg, n, rng)
            vals.append(hausdorff(est, truth, cfg.direction_count))
        arr = np.asarray(vals)
        means.append(float(arr.mean()))
        stds.append(float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)
        grids.append(cfg.grid_size(n))
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
        grid_sizes=tuple(grids),
    )
