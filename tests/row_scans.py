"""Row-by-row references for the array forms of ``gspinfer.inference``.

Each query on a deviation curve is one numpy reduction over its rows. The
functions here are the same queries as loops over the rows in Python, kept
as they were before the curve became arrays. They read the curve as tuples
of Python floats (:func:`tuple_curve`), and the session fixture in
``conftest.py`` checks every array form against them bit for bit
(:func:`exact`).
"""

import math
import struct
from dataclasses import dataclass, fields, is_dataclass

from gspinfer.inference import (
    FEASIBILITY_TOL,
    AssumptionReport,
    DeviationCurve,
    InferenceError,
    LinkFunction,
)


@dataclass(frozen=True)
class TupleCurve:
    """A deviation curve's columns as tuples of Python floats, the form the row scans read."""

    grid: tuple[float, ...]
    delta_p: tuple[float, ...]
    delta_c: tuple[float, ...]
    baseline_p: float
    baseline_c: float


def tuple_curve(curve: DeviationCurve) -> TupleCurve:
    return TupleCurve(tuple(curve.grid.tolist()), tuple(curve.delta_p.tolist()), tuple(curve.delta_c.tolist()),
                      curve.baseline_p, curve.baseline_c)


def exact(x):
    """``x`` with each float as its float64 bytes and each leaf beside its type.

    Two results are bit-identical, of the same types, exactly when their
    ``exact`` forms are equal: ``-0.0`` differs from ``0.0``, and a numpy
    scalar from a Python number.
    """
    if isinstance(x, (tuple, list)):
        return tuple(map(exact, x))
    if is_dataclass(x):
        return type(x), exact([getattr(x, f.name) for f in fields(x)])
    return type(x), struct.pack("<d", x) if isinstance(x, float) else x


def half_line_interval(rows, v_max: float) -> tuple[float, float] | None:
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


def value_interval(curve: TupleCurve, eps: float, v_max: float = math.inf) -> tuple[float, float] | None:
    """Values rationalizable at additive regret ``eps``, or None if empty."""
    return half_line_interval(((dp, dc + eps) for dp, dc in zip(curve.delta_p, curve.delta_c)), v_max)


def boundary(curve: TupleCurve, v: float) -> float:
    """Lower boundary of the rationalizable set: the largest deviation gain at ``v``."""
    if v < 0:
        raise InferenceError(f"value must be non-negative (got {v})")
    return max(v * dp - dc for dp, dc in zip(curve.delta_p, curve.delta_c))


def link_from_curve(curve: TupleCurve) -> LinkFunction:
    """The link function of a deviation curve: one monotone-chain pass over its rows sorted by ``dP``."""
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


def icc(curve: TupleCurve, i: int, j: int) -> float | None:
    """Incremental cost per click between grid rows ``i`` and ``j``.

    ``(dC_i - dC_j) / (dP_i - dP_j)``; None when the click changes are equal
    (excluded from monotonicity checks).
    """
    dp = curve.delta_p[i] - curve.delta_p[j]
    if dp == 0.0:
        return None
    return (curve.delta_c[i] - curve.delta_c[j]) / dp


def check_assumptions(curve: TupleCurve) -> AssumptionReport:
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
    curve: TupleCurve, delta: float, v_max: float = math.inf
) -> tuple[float, float] | None:
    """Values rationalizable at multiplicative regret ``delta``: one half-line per row.

    A coefficient within 1e-12 of the larger of its two terms counts as 0.
    """
    if not 0.0 <= delta < 1.0:
        raise InferenceError(f"delta must lie in [0, 1) (got {delta})")
    one_minus = 1.0 - delta
    p_term = delta * curve.baseline_p
    c_term = delta * curve.baseline_c

    def coefficient(dp: float) -> float:
        a = one_minus * dp
        return 0.0 if abs(a - p_term) <= 1e-12 * max(abs(a), abs(p_term)) else a - p_term

    return half_line_interval(
        ((coefficient(dp), one_minus * dc - c_term) for dp, dc in zip(curve.delta_p, curve.delta_c)), v_max
    )


def default_value_cap(curve: TupleCurve, eps_cap: float) -> float:
    """Value cap from the steepest half-plane crossed with the regret cap."""
    sup_dp = max(curve.delta_p)
    if sup_dp <= 0.0:
        raise InferenceError(
            "no deviation gains clicks; supply an explicit value cap"
        )
    return (eps_cap + max(curve.delta_c)) / sup_dp
