"""Rationalizable (value, regret) sets from observed bidding histories.

Given a listing's history of bids and sampled auctions, the deviation curve
records, for every counterfactual bid ``b'`` on a grid, the average change in
click probability ``dP(b')`` and in payment ``dC(b')`` had the bidder played
``b'`` in every period (opponents and auction parameters held fixed).

A pair ``(v, eps)`` is rationalizable when the history has at most ``eps``
average regret for a bidder with value-per-click ``v``:

    for every grid bid b':   v * dP(b') <= dC(b') + eps

so the rationalizable set is the intersection of half-planes, one per grid
bid, and each query on it is a numpy reduction over the rows of the curve's
read-only float64 arrays. Everything else here is exact piecewise-linear
geometry on that family: the value interval at a given ``eps``, the lower
boundary ``eps(v)`` (the convex conjugate of the lower convex hull of the
points ``(dP, dC)``), the smallest rationalizable additive regret ``eps0``,
read off that hull's edge slopes, and the smallest *multiplicative* regret
``delta*`` (regret measured relative to the deviation utility), read exactly
off the same hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .auction import BLOCK_CELLS, DeviationSweep, ListingHistory

# Feasibility comparisons allow this much constraint slack: all quantities are
# averages of penny-grid money values, so 1e-9 is far below one data ulp.
FEASIBILITY_TOL = 1e-9

#: Default precision of ``min_mult_regret``: a ``delta*`` above ``1 - precision`` is not rationalizable.
DEFAULT_PRECISION = 1e-6


class InferenceError(ValueError):
    """Raised when a history or curve cannot support the requested inference."""


@dataclass(frozen=True, eq=False)
class DeviationCurve:
    """Counterfactual deviation landscape for one listing.

    ``delta_p[k]`` / ``delta_c[k]`` are the average changes in click
    probability / payment from switching every period's bid to ``grid[k]``.
    ``baseline_p`` / ``baseline_c`` are the averages realized by the actual
    bid sequence. The columns are read-only float64 arrays, copied from what
    is given; every value must be finite and the grid strictly increasing.
    """

    grid: np.ndarray
    delta_p: np.ndarray
    delta_c: np.ndarray
    baseline_p: float
    baseline_c: float

    def __post_init__(self):
        for name in ("grid", "delta_p", "delta_c"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "baseline_p", float(self.baseline_p))
        object.__setattr__(self, "baseline_c", float(self.baseline_c))
        if not (self.grid.ndim == 1 and self.grid.shape == self.delta_p.shape == self.delta_c.shape):
            raise InferenceError("grid, delta_p and delta_c must have equal length")
        if not (np.isfinite((self.grid, self.delta_p, self.delta_c)).all()
                and math.isfinite(self.baseline_p) and math.isfinite(self.baseline_c)):
            raise InferenceError("curve values must be finite")
        _check_grid(self.grid)

    def __eq__(self, other):
        if not isinstance(other, DeviationCurve):
            return NotImplemented
        return (self.baseline_p, self.baseline_c) == (other.baseline_p, other.baseline_c) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("grid", "delta_p", "delta_c"))

    def __reduce__(self):  # through the constructor, so an unpickled curve's columns are read-only too
        return DeviationCurve, (self.grid, self.delta_p, self.delta_c, self.baseline_p, self.baseline_c)


def _check_grid(grid: np.ndarray) -> None:
    if not len(grid):
        raise InferenceError("deviation curve must have at least one grid point")
    if not (grid[1:] > grid[:-1]).all():
        raise InferenceError("grid must be strictly increasing")


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the monotonicity and no-free-clicks conditions.

    ``violation_sites`` holds the grid index pairs whose comparison failed:
    ``(i, i+1)`` for a monotonicity violation between adjacent rows, and the
    endpoints of the later segment for an incremental-cost-per-click
    violation between adjacent segments.
    """

    delta_p_monotone: bool
    delta_c_monotone: bool
    icc_increasing: bool
    violation_sites: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class PointPrediction:
    """Smallest multiplicative regret ``delta_star``, the values ``v_interval`` it rationalizes, and their midpoint."""

    delta_star: float
    v_star: float
    v_interval: tuple[float, float]
    iterations: int

    def __post_init__(self):
        if not 0.0 <= self.delta_star <= 1.0:
            raise InferenceError(f"delta_star must lie in [0, 1] (got {self.delta_star})")


@dataclass(frozen=True)
class RationalizableRegion:
    """The rationalizable set's value cap, ``eps0`` and diagnostics; its lower boundary is :func:`boundary`."""

    value_cap: float
    epsilon_min: float
    assumptions: AssumptionReport


def build_deviation_curve(history: ListingHistory, grid: Sequence[float]) -> DeviationCurve:
    """Replay a listing's history at every grid bid and average the changes.

    For each period the player's bid is swapped for the grid bid in every
    auction of the period (opponents fixed) and the per-period means of click
    probability and payment are taken; ``delta_*`` are the period averages of
    (counterfactual - realized). The grid is checked before any replay. Whole
    periods share one :class:`~gspinfer.auction.DeviationSweep` of at most
    about ``BLOCK_CELLS // 2`` threshold states, evaluated once at each auction's
    realized bid; the grid is then looked up in blocks of whole periods of at
    most about :data:`BLOCK_CELLS` cells, each through :meth:`~gspinfer.auction.DeviationSweep.rows`.
    """
    grid = np.array(grid, dtype=np.float64)
    _check_grid(grid)
    bounds = history.period_bounds()
    sizes = np.diff(bounds)
    step = max(1, BLOCK_CELLS // (len(grid) * int(sizes.max())))  # periods per block
    # periods per sweep: whole blocks holding at most BLOCK_CELLS // 2 threshold states (a state's
    # pricing keeps about twice the temporaries of a cell's lookup)
    states = int(np.diff(history.offsets).max()) + 3
    chunk = step * max(1, BLOCK_CELLS // (2 * states * step * int(sizes.max())))
    sums = np.zeros((2, 1 + len(grid)))  # click probability, payment; column 0 is the realized bid
    for start in range(0, len(sizes), chunk):
        end = min(start + chunk, len(sizes))
        sweep = DeviationSweep(history.rows(bounds[start], bounds[end]), history.listing_id)
        realized = sweep.evaluate_many(history.own_bid[bounds[start]:bounds[end], None])
        for first in range(start, end, step):
            last = min(first + step, end)
            lo, hi = bounds[first] - bounds[start], bounds[last] - bounds[start]
            cells = sweep.rows(lo, hi).evaluate_many(grid)
            # sums over a non-inner axis add in sample order, keeping the curve bit-identical to a scalar replay
            # each period's auctions on one axis, padded to the block's longest period with -0.0, which adds nothing
            size = sizes[first:last]
            place = np.arange(hi - lo) - np.repeat(bounds[first:last] - bounds[first], size)  # within its period
            at = np.repeat(np.arange(last - first), size), place
            for k in (0, 1):
                periods = np.full((last - first, size.max(), 1 + len(grid)), -0.0)
                periods[at + (0,)] = realized[k][lo:hi, 0]
                periods[at + (slice(1, None),)] = cells[k]
                mean = np.add.reduce(periods, axis=1) / size[:, None]  # every period's mean at once
                # the running sum, then each period's realized mean and deviations, added in period order
                rows = np.empty((1 + last - first, 1 + len(grid)))
                rows[0] = sums[k]
                rows[1:] = mean
                rows[1:, 1:] -= rows[1:, :1]
                sums[k] = np.add.reduce(rows, axis=0)
    sums /= len(sizes)
    return DeviationCurve(grid, sums[0, 1:], sums[1, 1:], sums[0, 0], sums[1, 0])


def value_interval(
    curve: DeviationCurve, eps: float, v_max: float = math.inf
) -> tuple[float, float] | None:
    """Values rationalizable at additive regret ``eps``, or None if empty.

    One half-line ``v * dP(b') <= dC(b') + eps`` per grid bid, intersected
    with ``[0, v_max]``. A NaN ``eps`` or ``v_max`` raises :class:`InferenceError`.
    """
    if math.isnan(eps):
        raise InferenceError("eps must not be NaN")
    return _half_line_interval(curve.delta_p, curve.delta_c + eps, v_max)


def _half_line_interval(a: np.ndarray, rhs: np.ndarray, v_max: float) -> tuple[float, float] | None:
    """Values ``v`` in ``[0, v_max]`` with ``v * a[k] <= rhs[k]`` for every row ``k``, or None.

    Positive coefficients give upper bounds, negative ones lower bounds, and
    zero coefficients are pure feasibility tests. The bounds are those a walk
    from 0 and ``v_max`` keeps, so ``0.0`` and ``-0.0`` come out as it leaves them.
    """
    if math.isnan(v_max):
        raise InferenceError("v_max must not be NaN")
    up, down = a > 0.0, a < 0.0
    if rhs[~(up | down)].min(initial=0.0) < -FEASIBILITY_TOL:
        return None
    lower = max(0.0, (rhs[down] / a[down]).max(initial=0.0).item())  # Python's max keeps 0.0 against -0.0
    highs = rhs[up] / a[up]
    least = highs.min(initial=math.inf)
    upper = _first(highs, least) if least < v_max else v_max
    if lower > upper + FEASIBILITY_TOL:
        return None
    return (lower, upper)


def boundary(curve: DeviationCurve, v: float) -> float:
    """The set's lower boundary at a finite ``v >= 0``: the largest deviation gain (the first of equal ones)."""
    if not 0.0 <= v < math.inf:
        raise InferenceError(f"v must be finite and non-negative (got {v})")
    gains = v * curve.delta_p - curve.delta_c
    return _first(gains, gains.max())


def _first(x: np.ndarray, value: np.float64) -> float:
    """The first entry of ``x`` equal to ``value``, its max or min: ``0.0`` or ``-0.0`` as a walk keeps it.

    Not ``x[x.argmax()]``: ``infer`` runs no other arg-reduction, and paging its code in adds 64 KB of RSS.
    """
    return x[x == value][0].item()


@dataclass(frozen=True)
class LinkFunction:
    """Piecewise-linear payment change against click change, knots sorted by ``z``.

    :func:`link_from_curve` builds it as the lower convex hull of the
    ``(dP, dC)`` rows, the envelope whose convex conjugate is the
    rationalizable set's lower boundary.
    """

    z_knots: tuple[float, ...]
    c_values: tuple[float, ...]

    def __post_init__(self):
        if not self.z_knots or len(self.z_knots) != len(self.c_values):
            raise InferenceError("link function needs matching, non-empty knots")
        for a, b in zip(self.z_knots, self.z_knots[1:]):
            if not b > a:
                raise InferenceError("z knots must be strictly increasing")


def link_from_curve(curve: DeviationCurve) -> LinkFunction:
    """The link function of a deviation curve: one monotone-chain pass over its rows sorted by ``dP``, then ``dC``.

    Of equal click changes only the first, smallest payment change is kept
    (the binding constraint). Points on or above a chord are dropped, so the
    edge slopes strictly increase: where the rows violate increasing
    incremental cost per click the hull drops knots, and
    :func:`check_assumptions` reports that violation.
    """
    order = np.lexsort((curve.delta_c, curve.delta_p))  # stable, as sorting the (dP, dC) pairs is
    hull: list[tuple[float, float]] = []
    for z, c in zip(curve.delta_p[order].tolist(), curve.delta_c[order].tolist()):
        if hull and z == hull[-1][0]:
            continue
        while len(hull) >= 2:
            (z1, c1), (z2, c2) = hull[-2:]
            if (c2 - c1) * (z - z2) < (c - c2) * (z2 - z1):
                break
            hull.pop()
        hull.append((z, c))
    zs, cs = zip(*hull)
    return LinkFunction(zs, cs)


def _hull_breakpoints(curve: DeviationCurve) -> list[float]:
    """``0`` and the positive finite edge slopes of the link function: where ``boundary`` bends."""
    link = link_from_curve(curve)
    zs, cs = link.z_knots, link.c_values
    slopes = [(c1 - c2) / (z1 - z2) for z1, c1, z2, c2 in zip(zs, cs, zs[1:], cs[1:])]
    return [0.0] + [v for v in slopes if v > 0.0 and math.isfinite(v)]


def min_additive_regret(curve: DeviationCurve) -> tuple[float, tuple[float, float]]:
    """Smallest additive regret with a non-empty value interval, and that interval.

    The boundary ``eps(v) = max_k (v * dP_k - dC_k)`` is the convex conjugate
    of the lower convex hull of the points ``(dP_k, dC_k)``, so its
    breakpoints are the hull's edge slopes and its minimum over ``v >= 0``
    sits at ``v = 0`` or at a positive edge slope: O(n log n + h * n) for
    ``h`` hull vertices.
    """
    if curve.delta_p.max() < 0.0:
        raise InferenceError("minimum regret is unbounded below (every deviation loses clicks)")
    eps0 = min(boundary(curve, v) for v in _hull_breakpoints(curve))
    interval = value_interval(curve, eps0)
    if interval is None:  # guard against a one-ulp-short minimum
        interval = value_interval(curve, eps0 + 1e-12)
    if interval is None:
        raise InferenceError("internal error: empty interval at the computed minimum regret")
    return eps0, interval


def min_additive_regret_bisect(
    curve: DeviationCurve, tol: float = 1e-9
) -> float:
    """Ladder-and-bisection cross-check for :func:`min_additive_regret`.

    Brackets the smallest feasible regret by walking down from the boundary
    value at v = 0, then bisects the feasibility predicate. Kept as an
    independent route for testing the hull-based minimum.
    """
    if curve.delta_p.max() < 0.0:
        raise InferenceError("minimum regret is unbounded below (every deviation loses clicks)")
    hi = boundary(curve, 0.0)
    span = max(1.0, abs(hi))
    lo = hi - span
    for _ in range(200):
        if value_interval(curve, lo) is None:
            break
        hi = lo
        span *= 2.0
        lo = hi - span
    else:
        raise InferenceError("failed to bracket the minimum regret")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if value_interval(curve, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def check_assumptions(curve: DeviationCurve) -> AssumptionReport:
    """Flag monotonicity of dP/dC and non-decreasing adjacent-segment ICC.

    Monotonicity compares each row with the next. An ICC segment runs from
    row 0 or a row whose dP differs from the row before to the next such row,
    so a run of equal dP enters the ICC through its first row only.
    The ICC flag uses weak inequality on adjacent segments (equal slopes keep
    the piecewise-linear cost-vs-clicks curve convex); it is reported False
    outright when dP itself is non-monotone, since segment order is then
    meaningless. Each comparison allows a slack of 1e-12.
    """
    tol = 1e-12
    dp, dc = curve.delta_p, curve.delta_c
    falls_p, falls_c = dp[1:] < dp[:-1] - tol, dc[1:] < dc[:-1] - tol
    steps = np.repeat(np.arange(len(dp) - 1), falls_p.astype(int) + falls_c)  # a step failing both is listed twice
    knots = np.flatnonzero(np.concatenate(([True], dp[1:] != dp[:-1])))
    icc = np.diff(dc[knots]) / np.diff(dp[knots])
    drops = icc[1:] < icc[:-1] - tol
    sites = np.concatenate((np.column_stack((steps, steps + 1)), np.column_stack((knots[1:-1], knots[2:]))[drops]))
    dp_mono = not falls_p.any()
    return AssumptionReport(dp_mono, not falls_c.any(), dp_mono and not drops.any(), tuple(map(tuple, sites.tolist())))


def feasible_values_mult(
    curve: DeviationCurve, delta: float, v_max: float = math.inf
) -> tuple[float, float] | None:
    """Values rationalizable at multiplicative regret ``delta``.

    The constraint ``v*dP(b') <= dC(b') + delta/(1-delta) * (v*P0 - C0)`` is
    rearranged, after multiplying by ``1 - delta > 0``, into

        v * [(1-delta)*dP(b') - delta*P0] <= (1-delta)*dC(b') - delta*C0

    one half-line per grid bid, intersected with ``[0, v_max]``. A row
    proportional to ``(P0, C0)`` cancels at its own ``delta``: a coefficient
    within 1e-12 of the larger of its two terms counts as 0, so the row only
    tests its right-hand side instead of bounding ``v`` by rounding noise.
    A NaN ``v_max`` raises :class:`InferenceError`.
    """
    if not 0.0 <= delta < 1.0:
        raise InferenceError(f"delta must lie in [0, 1) (got {delta})")
    one_minus = 1.0 - delta
    p_term = delta * curve.baseline_p
    a = one_minus * curve.delta_p
    coefficient = a - p_term
    coefficient[np.abs(coefficient) <= 1e-12 * np.maximum(np.abs(a), abs(p_term))] = 0.0
    return _half_line_interval(coefficient, one_minus * curve.delta_c - delta * curve.baseline_c, v_max)


def min_mult_regret(
    curve: DeviationCurve,
    precision: float = DEFAULT_PRECISION,
    v_max: float = math.inf,
) -> PointPrediction:
    """Smallest multiplicative regret rationalizing the curve, read off the ``eps0`` hull.

    ``delta`` is feasible when ``boundary(v) <= r * (v*P0 - C0)`` for some ``v``, with ``r = delta/(1-delta)``.
    The least ratio ``r*`` of the two sides sits at 0, a hull breakpoint below ``v_max``, ``v_max``, or
    (uncapped) the limit ``max(dP)/P0``, where the values are unbounded; ``delta* = r*/(1+r*)``. ``v*`` is
    the midpoint of the candidates tying ``r*`` (to 1e-12, relative); ``iterations`` counts candidates; a
    ``delta*`` above ``1 - precision`` is not rationalizable.
    """
    if not precision > 0:
        raise InferenceError(f"precision must be positive (got {precision})")
    interval = feasible_values_mult(curve, 0.0, v_max)
    delta_star, ratios = 0.0, []
    if interval is None:
        p0, c0 = curve.baseline_p, curve.baseline_c
        vs = [v for v in _hull_breakpoints(curve) if v < v_max] + ([v_max] if math.isfinite(v_max) else [])
        ratios = [(max(0.0, boundary(curve, v) / (v * p0 - c0)), v) for v in vs if v * p0 - c0 > 0.0]
        if math.isinf(v_max) and p0 > 0.0:
            ratios.append((max(0.0, curve.delta_p.max().item() / p0), math.inf))
        r = min(ratios)[0] if ratios else math.inf
        delta_star = r / (1.0 + r) if ratios else 1.0
        if delta_star > 1.0 - precision:
            raise InferenceError("not rationalizable under value cap")
        tied = [v for ratio, v in ratios if ratio <= r * (1.0 + 1e-12)]
        interval = (min(tied), max(tied))
    if not math.isfinite(interval[1]):
        raise InferenceError("value interval is unbounded; pass a finite value cap")
    return PointPrediction(
        delta_star=delta_star,
        v_star=0.5 * (interval[0] + interval[1]),
        v_interval=interval,
        iterations=len(ratios),
    )


def default_value_cap(curve: DeviationCurve, eps_cap: float) -> float:
    """Value cap from the steepest half-plane crossed with the regret cap.

    Intersects ``v * max(dP) - eps = max(dC)`` with ``eps = eps_cap``. Needs
    some deviation that gains clicks; otherwise the caller must supply a cap.

    It pairs the largest ``dP`` with the largest ``dC``, which may come from
    different rows, so it is at least ``geometry.SupportRegion.value_cap``,
    the capped set's true right corner. On simulated logs the two rarely
    differ and the predictions do not move, but on monotone penny curves
    the corner moves some ``v*`` and makes some curves not rationalizable,
    so ``infer`` keeps this cap.
    """
    sup_dp = curve.delta_p.max().item()
    if sup_dp <= 0.0:
        raise InferenceError(
            "no deviation gains clicks; supply an explicit value cap"
        )
    return (eps_cap + _first(curve.delta_c, curve.delta_c.max())) / sup_dp


def build_region(curve: DeviationCurve, eps_cap: float, v_max: float | None = None) -> RationalizableRegion:
    """The value cap, ``eps0`` and the assumption diagnostics of one curve.

    ``v_max`` overrides the default steepest-half-plane value cap.
    """
    cap = float(v_max) if v_max is not None else default_value_cap(curve, eps_cap)
    if not (cap > 0 and math.isfinite(cap)):
        raise InferenceError(f"value cap must be positive and finite (got {cap})")
    eps0, _ = min_additive_regret(curve)
    return RationalizableRegion(value_cap=cap, epsilon_min=eps0, assumptions=check_assumptions(curve))
