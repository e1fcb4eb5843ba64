"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from gspinfer.auction import DeviationSweep
from gspinfer.geometry import (
    RateStudyConfig,
    hausdorff,
    run_rate_study,
)
from gspinfer.inference import (
    DeviationCurve,
    boundary,
    build_deviation_curve,
    check_assumptions,
    min_additive_regret,
    min_mult_regret,
    value_interval,
)
from gspinfer.pipeline import InferenceConfig, default_bid_grid, export, infer_account, ingest, write_histories
from gspinfer.simulate import (
    BackgroundSpec,
    LearnerConfig,
    LearnerSpec,
    MarketSpec,
    realized_regret,
    simulate_market,
    tuned_hedge_rate,
)

from test_geometry import PolygonRegion, polygon_hausdorff_oracle, random_convex_polygon
from test_inference import RationalizablePoint, best_deviation, feasible


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def micro_curve():
    return DeviationCurve(
        grid=(0.5, 2.0),
        delta_p=(-0.2, 0.1),
        delta_c=(-0.15, 0.06),
        baseline_p=0.4,
        baseline_c=0.2,
    )


def test_criterion_1_micro_fixture_exactness():
    t0 = time.time()
    curve = micro_curve()
    eps0, _ = min_additive_regret(curve)
    lo, hi = value_interval(curve, 0.02)
    pred = min_mult_regret(curve, precision=1e-7)
    elapsed = time.time() - t0
    ok = (
        abs(eps0 - 0.01) < 1e-4
        and abs(boundary(curve, 0.7) - 0.01) < 1e-4
        and abs(lo - 0.65) < 1e-4
        and abs(hi - 0.8) < 1e-4
        and abs(pred.delta_star - 1.0 / 9.0) < 1e-4
        and abs(pred.v_star - 0.7) < 1e-4
        and elapsed < 1.0
    )
    report(1, "micro-fixture exactness", ok, f"{elapsed:.3f}s")


def random_penny_curve(rng):
    n = rng.randint(2, 8)
    dps = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
    dcs = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
    grid = tuple(round(0.1 * (k + 1), 2) for k in range(n))
    p0 = rng.randint(20, 100) / 100.0
    c0 = rng.randint(0, 80) / 100.0 * p0 * 10.0  # ratio c0/p0 <= 8 < lattice cap
    return DeviationCurve(grid=grid, delta_p=tuple(dps), delta_c=tuple(dcs),
                          baseline_p=p0, baseline_c=c0)


def test_criterion_2_brute_force_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(0xB0B)
    n_lattice = 2000
    v_max = 20.0
    v_lat = np.linspace(0.0, v_max, n_lattice)
    dv = v_lat[1] - v_lat[0]
    d_lat = np.linspace(0.0, 1.0 - 1.0 / n_lattice, n_lattice)
    dd = d_lat[1] - d_lat[0]
    ratio = d_lat / (1.0 - d_lat)
    checked = 0
    while checked < 200:
        curve = random_penny_curve(rng)
        dps = np.asarray(curve.delta_p)
        dcs = np.asarray(curve.delta_c)
        if dps.max() <= 0:
            continue
        # additive brute force on the value lattice
        eps_of_v = (v_lat[:, None] * dps[None, :] - dcs[None, :]).max(axis=1)
        arg = int(np.argmin(eps_of_v))
        if arg in (0, n_lattice - 1) and dps.min() < 0:
            continue  # envelope minimum not bracketed by the lattice
        checked += 1
        eps0_brute = float(eps_of_v[arg])
        eps0, _ = min_additive_regret(curve)
        assert abs(eps0 - eps0_brute) <= float(np.abs(dps).max()) * dv + 1e-9

        # value interval at two regret levels above the minimum
        for eps in (eps0 + 0.05, eps0 + 0.21):
            mask = (v_lat[:, None] * dps[None, :] <= dcs[None, :] + eps + 1e-12).all(axis=1)
            interval = value_interval(curve, eps, v_max=v_max)
            assert interval is not None and mask.any()
            idx = np.flatnonzero(mask)
            assert abs(v_lat[idx[0]] - max(interval[0], 0.0)) <= dv + 1e-9
            assert abs(v_lat[idx[-1]] - min(interval[1], v_max)) <= dv + 1e-9

        # multiplicative brute force over the (delta, value) lattice, in blocks
        # of delta rows: the first feasible row lies in the first block with one
        util0 = v_lat * curve.baseline_p - curve.baseline_c
        delta_brute = None
        for first in range(0, n_lattice, 100):
            block = ratio[first:first + 100, None]
            feas = np.ones((len(block), n_lattice), dtype=bool)
            for dp, dc in zip(dps, dcs):
                rhs = dc + block * util0[None, :]
                feas &= v_lat[None, :] * dp <= rhs + 1e-12
            rows = feas.any(axis=1)
            if rows.any():
                delta_brute = float(d_lat[first + int(np.argmax(rows))])
                break
        assert delta_brute is not None
        pred = min_mult_regret(curve, precision=1e-9, v_max=v_max)
        assert pred.delta_star <= delta_brute + 1e-9
        probe = min(pred.delta_star + 0.02, 1.0 - 1e-9)
        from gspinfer.inference import feasible_values_mult

        wide = feasible_values_mult(curve, probe, v_max=v_max)
        growth = max((wide[1] - wide[0]) if wide else 0.0, 1e-12) / 0.02
        slack = dd + dv / growth
        assert delta_brute - pred.delta_star <= slack + 1e-9
    elapsed = time.time() - t0
    report(2, "brute-force oracle equivalence", checked == 200 and elapsed < 120.0,
           f"200 curves, {elapsed:.1f}s")


def containment_market():
    return MarketSpec(
        position_curve=(1.0, 0.6, 0.3),
        rank_reserve=0.05,
        mainline_reserve=0.1,
        mainline_cap=1,
        background=BackgroundSpec(count=2, bid_low=0.05, bid_high=0.95,
                                  score_low=0.9, score_high=1.1,
                                  quality_low=0.4, quality_high=0.8),
    )


def test_criterion_3_ground_truth_containment():
    t0 = time.time()
    grid = default_bid_grid(1.0, 0.05)
    failures = 0
    runs = 0
    spec = containment_market()
    for algorithm in ("hedge", "fixed_best_response"):
        for horizon in (50, 500):
            for seed in range(25):
                value = 0.2 + 0.6 * ((seed * 7919) % 25) / 25.0
                learner = LearnerSpec(
                    "L000", value, LearnerConfig(algorithm, grid)
                )
                hist, = simulate_market(spec, [learner], horizon, 1, seed)
                eps = realized_regret(hist, value, grid)
                curve = build_deviation_curve(hist, grid)
                runs += 1
                if not feasible(RationalizablePoint(value, eps), curve, tol=1e-9):
                    failures += 1
    elapsed = time.time() - t0
    report(3, "ground-truth containment", runs == 100 and failures == 0,
           f"{runs} runs, {failures} failures, {elapsed:.1f}s")


def test_criterion_4_hedge_regret_decay():
    t0 = time.time()
    k = 50
    grid = default_bid_grid(1.0, 1.0 / (k - 1))
    assert len(grid) == k
    spec = MarketSpec(
        position_curve=(1.0, 0.5),
        rank_reserve=0.0,
        mainline_reserve=0.0,
        mainline_cap=0,
        background=BackgroundSpec(count=2, bid_low=0.1, bid_high=0.9,
                                  score_low=1.0, score_high=1.0,
                                  quality_low=0.5, quality_high=0.5),
    )
    horizons = (250, 500, 1000, 2000)
    means = []
    last_vals = None
    for horizon in horizons:
        vals = []
        for seed in range(50):
            learner = LearnerSpec(
                "L000", 0.7,
                LearnerConfig("hedge", grid, learning_rate=tuned_hedge_rate(k, horizon)),
            )
            hist, = simulate_market(spec, [learner], horizon, 1, seed)
            vals.append(realized_regret(hist, 0.7, grid))
        means.append(sum(vals) / len(vals))
        last_vals = vals
    non_increasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    sigma = float(np.std(last_vals)) / math.sqrt(len(last_vals))
    bound = math.sqrt(math.log(k) / horizons[-1]) + 3.0 * sigma
    elapsed = time.time() - t0
    ok = non_increasing and means[-1] <= bound
    report(4, "hedge regret decay", ok,
           f"means={['%.4f' % m for m in means]}, bound={bound:.4f}, {elapsed:.1f}s")


def test_criterion_5_convex_geometry_suite():
    t0 = time.time()
    rng = random.Random(6021023)

    # NR convexity: 1000 random convex combinations per curve, zero violations
    violations = 0
    curves = []
    for _ in range(20):
        n = rng.randint(2, 8)
        dps = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
        dcs = sorted(rng.randint(-50, 50) / 100.0 for _ in range(n))
        curves.append(DeviationCurve(
            grid=tuple(round(0.1 * (j + 1), 2) for j in range(n)),
            delta_p=tuple(dps), delta_c=tuple(dcs), baseline_p=0.5, baseline_c=0.2,
        ))
    for curve in curves:
        for _ in range(1000):
            v1, v2 = rng.uniform(0, 4), rng.uniform(0, 4)
            e1 = boundary(curve, v1) + abs(rng.gauss(0, 0.2))
            e2 = boundary(curve, v2) + abs(rng.gauss(0, 0.2))
            lam = rng.random()
            pt = RationalizablePoint(lam * v1 + (1 - lam) * v2, lam * e1 + (1 - lam) * e2)
            if not feasible(pt, curve):
                violations += 1

    # boundary consistency
    boundary_ok = True
    for curve in curves:
        for _ in range(50):
            v = rng.uniform(0, 4)
            e = boundary(curve, v)
            if not feasible(RationalizablePoint(v, e), curve):
                boundary_ok = False
            if feasible(RationalizablePoint(v, e - 1e-8), curve, tol=1e-9):
                boundary_ok = False

    # best deviation monotone wherever the incremental-cost check passes
    monotone_ok = True
    for curve in curves:
        if not check_assumptions(curve).icc_increasing:
            continue
        bids = [best_deviation(curve, 0.05 * j) for j in range(80)]
        if any(b < a for a, b in zip(bids, bids[1:])):
            monotone_ok = False

    # Hausdorff symmetry + triangle inequality over 100 polygon triples
    sym_tri_ok = True
    triples = 0
    while triples < 100:
        polys = [random_convex_polygon(rng) for _ in range(3)]
        if any(len(p) < 3 for p in polys):
            continue
        triples += 1
        a, b, c = (PolygonRegion(p) for p in polys)
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        if abs(dab - dba) > 1e-12:
            sym_tri_ok = False
        if dab > hausdorff(a, c) + hausdorff(c, b) + 1e-9:
            sym_tri_ok = False

    # translate test within angular resolution
    translate_ok = True
    for _ in range(20):
        verts = random_convex_polygon(rng)
        if len(verts) < 3:
            continue
        poly = PolygonRegion(verts)
        d = rng.uniform(0.2, 2.0)
        measured = hausdorff(poly, poly.translate((0.0, d)))
        if abs(measured - d) > max(1e-9, d * 2e-5):
            translate_ok = False

    # support-based distance against the direct vertex oracle
    oracle_ok = True
    checked = 0
    while checked < 30:
        va, vb = random_convex_polygon(rng), random_convex_polygon(rng)
        if len(va) < 3 or len(vb) < 3:
            continue
        checked += 1
        got = hausdorff(PolygonRegion(va), PolygonRegion(vb), 720)
        want = polygon_hausdorff_oracle(va, vb)
        radius = max(math.hypot(x, y) for x, y in va + vb)
        if not (want - (2.0 * radius * math.pi / 720) - 1e-9 <= got <= want + 1e-9):
            oracle_ok = False

    elapsed = time.time() - t0
    ok = (violations == 0 and boundary_ok and monotone_ok and sym_tri_ok
          and translate_ok and oracle_ok)
    report(5, "convex-geometry suite", ok,
           f"{violations} convexity violations, {elapsed:.1f}s")


def test_criterion_6_rate_study_slope():
    t0 = time.time()
    cfg = RateStudyConfig(
        sample_sizes=(10**3, 10**4, 10**5, 10**6),
        replications=20,
        smoothness_order=0,
        holder_exponent=1.0,
        seed=2026,
    )
    res = run_rate_study(cfg)
    elapsed = time.time() - t0
    ok = 0.20 <= res.slope <= 0.50 and elapsed < 1800.0
    report(6, "rate-study slope", ok,
           f"slope={res.slope:.4f} target={res.gamma_target:.3f} "
           f"dh={['%.4f' % m for m in res.mean_dh]} {elapsed:.1f}s")


def acceptance_account(tmpdir):
    grid = default_bid_grid(1.0, 0.05)
    learners = [
        LearnerSpec("L000", 0.55, LearnerConfig("hedge", grid)),
        LearnerSpec("L001", 0.75, LearnerConfig("epsilon_greedy", grid)),
        LearnerSpec("L002", 0.35, LearnerConfig("fixed_best_response", grid)),
    ]
    return simulate_market(containment_market(), learners, 25, 2, 404)


def test_criterion_7_pipeline_determinism(tmp_path):
    t0 = time.time()
    histories = acceptance_account(tmp_path)
    config = InferenceConfig(bid_max=1.0, grid_step=0.05, epsilon_max=1.0)
    summary_mem, arts_mem = infer_account(histories, config)
    log = tmp_path / "log.jsonl"
    write_histories(histories, str(log))
    ingested = ingest(str(log))
    summary_disk, arts_disk = infer_account(ingested, config)
    bit_for_bit = all(
        arts_mem[lid].prediction == arts_disk[lid].prediction
        and arts_mem[lid].curve == arts_disk[lid].curve
        and arts_mem[lid].region.boundary == arts_disk[lid].region.boundary
        for lid in arts_mem
    ) and summary_mem == summary_disk

    out1, out2 = tmp_path / "x", tmp_path / "y"
    files1 = export(summary_disk, arts_disk, config, str(out1))
    files2 = export(summary_disk, arts_disk, config, str(out2))
    bytes_equal = all(
        Path(f1).read_bytes() == Path(f2).read_bytes() for f1, f2 in zip(files1, files2)
    )
    log2 = tmp_path / "log2.jsonl"
    write_histories(acceptance_account(tmp_path), str(log2))
    rerun_equal = log.read_bytes() == log2.read_bytes()
    elapsed = time.time() - t0
    ok = bit_for_bit and bytes_equal and rerun_equal
    report(7, "pipeline determinism", ok, f"{elapsed:.1f}s")


def test_criterion_8_summary_format_reproduction(tmp_path):
    t0 = time.time()
    histories = acceptance_account(tmp_path)
    config = InferenceConfig(bid_max=1.0, grid_step=0.05, epsilon_max=1.0)
    summary, artifacts = infer_account(histories, config)
    out = tmp_path / "out"
    files = export(summary, artifacts, config, str(out))

    # the roll-up as exported, computed from the predictions
    account = json.loads((out / "account_summary.json").read_text())
    histogram = [line.split(",") for line in (out / "histogram_delta.csv").read_text().splitlines()[1:]]
    scatter = [line.split(",") for line in (out / "scatter_v_delta.csv").read_text().splitlines()[1:]]
    predictions = json.loads((out / "predictions.json").read_text())
    conserved = (
        account["nonpositive_count"] + sum(account["histogram_counts"]) == summary.listing_count
        and [int(row[2]) for row in histogram] == [account["nonpositive_count"], *account["histogram_counts"]]
    )
    scatter_ids = {row[0] for row in scatter}
    scatter_exact = scatter_ids == {
        lid for lid, art in artifacts.items()
        if art.prediction.delta_star > config.learning_threshold
    } and account["scatter_count"] == len(scatter)
    edges = config.bucket_edges()
    partition = edges[0] == 0.0 and abs(edges[-1] - 1.0) < 1e-12 and all(
        b > a for a, b in zip(edges, edges[1:])
    ) and [float(row[1]) for row in histogram[1:]] == edges[1:]
    shading_positive = all(p["shading_ratio"] > 0 for p in predictions if p["shading_ratio"] is not None)
    names = {f.split("/")[-1] for f in files}
    expected = {"predictions.json", "account_summary.json", "histogram_delta.csv",
                "scatter_v_delta.csv"} | {f"nr_boundary_{lid}.csv" for lid in artifacts}
    elapsed = time.time() - t0
    ok = conserved and scatter_exact and partition and shading_positive and names == expected
    report(8, "summary format reproduction", ok, f"{elapsed:.1f}s")
