"""Output checks against oracles that do not share the production algorithm.

* Deviation-curve cells are recomputed with ``replay_at_bid`` (which rebuilds
  each auction and re-runs the allocator) from the bench's own reader of the
  log, not from ``ingest`` or ``DeviationSweep``.
* ``eps0`` is compared with ``min_additive_regret_bisect`` (ladder and
  bisection on the feasibility predicate, not breakpoint enumeration).
* ``delta*`` must be minimal: the multiplicative value set is non-empty at
  ``delta*`` and empty at ``delta* - precision``.
"""

from __future__ import annotations

import copy
import json
import random

from gspinfer.auction import AuctionParams, BidderEntry, replay_at_bid
from gspinfer.inference import DeviationCurve, feasible_values_mult, min_additive_regret_bisect

# Curve cells are averages of O(1) quantities over at most a few thousand
# auctions, so summation-order differences stay far below this.
CURVE_TOL = 1e-9
# The bisection stops within 1e-9 of the feasibility threshold, and the
# feasibility test itself allows 1e-9 of slack.
EPS0_TOL = 1e-7


class Tally:
    """Checks attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


def read_log(path: str) -> dict[str, list[tuple[float, list[AuctionParams]]]]:
    """Each listing's periods, in order, as (own bid, auctions), from the JSONL log."""
    listings: dict[str, dict[int, tuple[float, list[AuctionParams]]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            lid = rec["listing_id"]
            own_bid = float(rec["own_bid"])
            entries = [BidderEntry(lid, float(rec.get("own_score", 1.0)), float(rec.get("own_quality", 1.0)), own_bid)]
            for k, comp in enumerate(rec["competitors"]):
                entries.append(BidderEntry(f"c{k:03d}", float(comp["score"]), float(comp["quality"]), float(comp["bid"])))
            curve = tuple(float(a) for a in rec["position_curve"])
            n_main = rec.get("mainline_count", min(rec["mainline_cap"], len(curve)))
            params = AuctionParams(
                entries=tuple(entries),
                rank_reserve=float(rec["rank_reserve"]),
                mainline_reserve=float(rec["mainline_reserve"]),
                mainline_cap=rec["mainline_cap"],
                position_curve=curve,
                mainline_positions=frozenset(range(1, n_main + 1)),
            )
            listings.setdefault(lid, {}).setdefault(rec["period"], (own_bid, []))[1].append(params)
    return {lid: [periods[t] for t in sorted(periods)] for lid, periods in listings.items()}


def replay_cells(lid: str, periods, bids: list[float]):
    """``(dP, dC)`` at each bid plus the baseline ``(P0, C0)``, by replaying every auction.

    Per-period means over the period's auctions, averaged over periods: the
    definition in ``gspinfer.inference``.
    """
    sum_dp = [0.0] * len(bids)
    sum_dc = [0.0] * len(bids)
    sum_p0 = sum_c0 = 0.0
    for own_bid, auctions in periods:
        n = len(auctions)
        acc_p = [0.0] * len(bids)
        acc_c = [0.0] * len(bids)
        p0 = c0 = 0.0
        for params in auctions:
            p, c = replay_at_bid(params, lid, own_bid)
            p0 += p
            c0 += c
            for j, bid in enumerate(bids):
                p, c = replay_at_bid(params, lid, bid)
                acc_p[j] += p
                acc_c[j] += c
        sum_p0 += p0 / n
        sum_c0 += c0 / n
        for j in range(len(bids)):
            sum_dp[j] += acc_p[j] / n - p0 / n
            sum_dc[j] += acc_c[j] / n - c0 / n
    t = len(periods)
    return [x / t for x in sum_dp], [x / t for x in sum_dc], sum_p0 / t, sum_c0 / t


def sample_cells(bundle: dict, seed: int, count: int) -> dict[str, list[int]]:
    """A seeded sample of grid indices per listing, spread over the listings."""
    rng = random.Random(seed)
    lids = sorted(bundle["listings"])
    cells: dict[str, set[int]] = {lid: set() for lid in lids}
    for i in range(max(count, len(lids))):
        lid = lids[i % len(lids)]
        cells[lid].add(rng.randrange(len(bundle["listings"][lid]["curve"]["grid"])))
    return {lid: sorted(ks) for lid, ks in cells.items() if ks}


def _curve(payload: dict) -> DeviationCurve:
    c = payload["curve"]
    return DeviationCurve(
        grid=tuple(c["grid"]),
        delta_p=tuple(c["delta_p"]),
        delta_c=tuple(c["delta_c"]),
        baseline_p=c["baseline_p"],
        baseline_c=c["baseline_c"],
    )


def check_bundle(tally: Tally, bundle: dict, log: dict, cells: dict[str, list[int]]) -> None:
    """Run every oracle check on an ``artifacts.json`` bundle."""
    precision = bundle["config"]["precision"]
    for lid, payload in sorted(bundle["listings"].items()):
        curve = _curve(payload)
        if lid in cells:
            ks = cells[lid]
            dp, dc, p0, c0 = replay_cells(lid, log[lid], [curve.grid[k] for k in ks])
            base_ok = abs(p0 - curve.baseline_p) <= CURVE_TOL and abs(c0 - curve.baseline_c) <= CURVE_TOL
            tally.check(f"{lid} baseline", base_ok, f"replay ({p0}, {c0}) vs ({curve.baseline_p}, {curve.baseline_c})")
            for j, k in enumerate(ks):
                ok = abs(dp[j] - curve.delta_p[k]) <= CURVE_TOL and abs(dc[j] - curve.delta_c[k]) <= CURVE_TOL
                tally.check(
                    f"{lid} cell {k}", ok, f"replay ({dp[j]}, {dc[j]}) vs ({curve.delta_p[k]}, {curve.delta_c[k]})"
                )
        pred = payload["prediction"]
        eps0 = pred["epsilon_min"]
        bisect = min_additive_regret_bisect(curve)
        tally.check(f"{lid} eps0", abs(bisect - eps0) <= EPS0_TOL, f"bisection {bisect} vs {eps0}")
        cap = payload["region"]["value_cap"]
        d = pred["delta_star"]
        at = feasible_values_mult(curve, d, cap) if 0.0 <= d < 1.0 else None
        below = feasible_values_mult(curve, max(0.0, d - precision), cap) if 0.0 < d < 1.0 else None
        tally.check(
            f"{lid} delta* minimal",
            at is not None and below is None,
            f"delta*={d}: set at delta* {at}, at delta*-precision {below}",
        )


def corrupt(bundle: dict, cells: dict[str, list[int]]) -> dict:
    """A copy with one sampled ``delta_c`` perturbed and one ``delta*`` nudged up."""
    bad = copy.deepcopy(bundle)
    lid = sorted(cells)[0]
    bad["listings"][lid]["curve"]["delta_c"][cells[lid][0]] += 1e-4
    precision = bad["config"]["precision"]
    pred = max(bad["listings"].values(), key=lambda p: p["prediction"]["delta_star"])["prediction"]
    pred["delta_star"] = min(pred["delta_star"] + 3 * precision, 0.5 * (1.0 + pred["delta_star"]))
    return bad
