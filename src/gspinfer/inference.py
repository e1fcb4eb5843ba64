"""Rationalizable (value, regret) sets from observed bidding histories.

Given a listing's history of bids and sampled auctions, the deviation curve
records, for every counterfactual bid ``b'`` on a grid, the average change in
click probability ``dP(b')`` and in payment ``dC(b')`` had the bidder played
``b'`` in every period (opponents and auction parameters held fixed).

A pair ``(v, eps)`` is rationalizable when the history has at most ``eps``
average regret for a bidder with value-per-click ``v``:

    for every grid bid b':   v * dP(b') <= dC(b') + eps

so the rationalizable set is the intersection of half-planes, one per grid
bid. Everything else here is exact piecewise-linear geometry on that family:
the value interval at a given ``eps``, the lower boundary ``eps(v)`` (the
convex conjugate of the lower convex hull of the points ``(dP, dC)``), the
smallest rationalizable additive regret ``eps0``, read off that hull's edge
slopes, and the smallest *multiplicative* regret ``delta*`` (regret measured
relative to the deviation utility), read exactly off the same hull.
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


@dataclass(frozen=True)
class DeviationCurve:
    """Counterfactual deviation landscape for one listing.

    ``delta_p[k]`` / ``delta_c[k]`` are the average changes in click
    probability / payment from switching every period's bid to ``grid[k]``.
    ``baseline_p`` / ``baseline_c`` are the averages realized by the actual
    bid sequence.
    """

    grid: tuple[float, ...]
    delta_p: tuple[float, ...]
    delta_c: tuple[float, ...]
    baseline_p: float
    baseline_c: float

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(b) for b in self.grid))
        object.__setattr__(self, "delta_p", tuple(float(x) for x in self.delta_p))
        object.__setattr__(self, "delta_c", tuple(float(x) for x in self.delta_c))
        object.__setattr__(self, "baseline_p", float(self.baseline_p))
        object.__setattr__(self, "baseline_c", float(self.baseline_c))
        if not (len(self.grid) == len(self.delta_p) == len(self.delta_c)):
            raise InferenceError("grid, delta_p and delta_c must have equal length")
        _check_grid(self.grid)
        for x in (*self.delta_p, *self.delta_c, self.baseline_p, self.baseline_c):
            if not math.isfinite(x):
                raise InferenceError("curve values must be finite")


def _check_grid(grid: Sequence[float]) -> None:
    if not grid:
        raise InferenceError("deviation curve must have at least one grid point")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
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
    """The bounded rationalizable set: caps, boundary samples, diagnostics."""

    value_cap: float
    epsilon_min: float
    boundary: tuple[tuple[float, float], ...]
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
    grid = [float(b) for b in grid]
    _check_grid(grid)
    bids = np.array(grid)
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
            cells = sweep.rows(lo, hi).evaluate_many(bids)
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
    return DeviationCurve(grid, sums[0, 1:].tolist(), sums[1, 1:].tolist(), sums[0, 0], sums[1, 0])


def value_interval(
    curve: DeviationCurve, eps: float, v_max: float = math.inf
) -> tuple[float, float] | None:
    """Values rationalizable at additive regret ``eps``, or None if empty.

    One half-line ``v * dP(b') <= dC(b') + eps`` per grid bid, intersected
    with ``[0, v_max]``.
    """
    return _half_line_interval(((dp, dc + eps) for dp, dc in zip(curve.delta_p, curve.delta_c)), v_max)


def _half_line_interval(rows, v_max: float) -> tuple[float, float] | None:
    """Values ``v`` in ``[0, v_max]`` with ``v * a <= rhs`` for every ``(a, rhs)`` row, or None.

    Positive coefficients give upper bounds, negative ones lower bounds, and
    zero coefficients are pure feasibility tests.
    """
    lower = 0.0
    upper = v_max
    for a, rhs in rows:
        if a > 0.0:
            bound = rhs / a
            if bound < upper:
                upper = bound
        elif a < 0.0:
            bound = rhs / a
            if bound > lower:
                lower = bound
        elif rhs < -FEASIBILITY_TOL:
            return None
    if lower > upper + FEASIBILITY_TOL:
        return None
    return (lower, min(upper, v_max))


def boundary(curve: DeviationCurve, v: float) -> float:
    """Lower boundary of the rationalizable set: the largest deviation gain at ``v``."""
    if v < 0:
        raise InferenceError(f"value must be non-negative (got {v})")
    return max(v * dp - dc for dp, dc in zip(curve.delta_p, curve.delta_c))


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
    """The link function of a deviation curve: one monotone-chain pass over its rows sorted by ``dP``.

    Of equal click changes only the first, smallest payment change is kept
    (the binding constraint). Points on or above a chord are dropped, so the
    edge slopes strictly increase: where the rows violate increasing
    incremental cost per click the hull drops knots, and
    :func:`check_assumptions` reports that violation.
    """
    hull: list[tuple[float, float]] = []
    for z, c in sorted(zip(curve.delta_p, curve.delta_c)):
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
    if max(curve.delta_p) < 0.0:
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
    if max(curve.delta_p) < 0.0:
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


def icc(curve: DeviationCurve, i: int, j: int) -> float | None:
    """Incremental cost per click between grid rows ``i`` and ``j``.

    ``(dC_i - dC_j) / (dP_i - dP_j)``; None when the click changes are equal
    (excluded from monotonicity checks).
    """
    dp = curve.delta_p[i] - curve.delta_p[j]
    if dp == 0.0:
        return None
    return (curve.delta_c[i] - curve.delta_c[j]) / dp


def check_assumptions(curve: DeviationCurve) -> AssumptionReport:
    """Flag monotonicity of dP/dC and non-decreasing adjacent-segment ICC.

    The ICC flag uses weak inequality on adjacent segments (equal slopes keep
    the piecewise-linear cost-vs-clicks curve convex); it is reported False
    outright when dP itself is non-monotone, since segment order is then
    meaningless. Each comparison allows a slack of 1e-12.
    """
    tol = 1e-12
    sites: list[tuple[int, int]] = []
    dp_mono = True
    dc_mono = True
    n = len(curve.grid)
    for k in range(n - 1):
        if curve.delta_p[k + 1] < curve.delta_p[k] - tol:
            dp_mono = False
            sites.append((k, k + 1))
        if curve.delta_c[k + 1] < curve.delta_c[k] - tol:
            dc_mono = False
            sites.append((k, k + 1))
    icc_inc = True
    prev: float | None = None
    last = 0
    for k in range(1, n):
        ratio = icc(curve, k, last)
        if ratio is None:
            continue
        if prev is not None and ratio < prev - tol:
            icc_inc = False
            sites.append((last, k))
        prev = ratio
        last = k
    if not dp_mono:
        icc_inc = False
    return AssumptionReport(dp_mono, dc_mono, icc_inc, tuple(sites))


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
    """
    if not 0.0 <= delta < 1.0:
        raise InferenceError(f"delta must lie in [0, 1) (got {delta})")
    one_minus = 1.0 - delta
    p_term = delta * curve.baseline_p
    c_term = delta * curve.baseline_c

    def coefficient(dp: float) -> float:
        a = one_minus * dp
        return 0.0 if abs(a - p_term) <= 1e-12 * max(abs(a), abs(p_term)) else a - p_term

    return _half_line_interval(
        ((coefficient(dp), one_minus * dc - c_term) for dp, dc in zip(curve.delta_p, curve.delta_c)), v_max
    )


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
    if precision <= 0:
        raise InferenceError(f"precision must be positive (got {precision})")
    interval = feasible_values_mult(curve, 0.0, v_max)
    delta_star, ratios = 0.0, []
    if interval is None:
        p0, c0 = curve.baseline_p, curve.baseline_c
        vs = [v for v in _hull_breakpoints(curve) if v < v_max] + ([v_max] if math.isfinite(v_max) else [])
        ratios = [(max(0.0, boundary(curve, v) / (v * p0 - c0)), v) for v in vs if v * p0 - c0 > 0.0]
        if math.isinf(v_max) and p0 > 0.0:
            ratios.append((max(0.0, max(curve.delta_p) / p0), math.inf))
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
    sup_dp = max(curve.delta_p)
    if sup_dp <= 0.0:
        raise InferenceError(
            "no deviation gains clicks; supply an explicit value cap"
        )
    return (eps_cap + max(curve.delta_c)) / sup_dp


def build_region(
    curve: DeviationCurve,
    eps_cap: float,
    v_max: float | None = None,
    boundary_samples: int = 201,
) -> RationalizableRegion:
    """Assemble the bounded rationalizable set for one curve.

    Samples the lower boundary on an even value grid over ``[0, value_cap]``
    and attaches the assumption diagnostics. ``v_max`` overrides the default
    steepest-half-plane value cap.
    """
    if boundary_samples < 2:
        raise InferenceError("boundary_samples must be at least 2")
    cap = float(v_max) if v_max is not None else default_value_cap(curve, eps_cap)
    if not (cap > 0 and math.isfinite(cap)):
        raise InferenceError(f"value cap must be positive and finite (got {cap})")
    eps0, _ = min_additive_regret(curve)
    step = cap / (boundary_samples - 1)
    pts = tuple(
        (k * step, boundary(curve, k * step)) for k in range(boundary_samples)
    )
    return RationalizableRegion(
        value_cap=cap,
        epsilon_min=eps0,
        boundary=pts,
        assumptions=check_assumptions(curve),
    )
