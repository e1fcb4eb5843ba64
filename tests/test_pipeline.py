import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gspinfer import pipeline
from gspinfer import cli
from gspinfer.cli import CONFIG_KEYS, FIELD_KEYS, RUN_KEYS, ConfigError, build_learners, load_config, main
from gspinfer.inference import DeviationCurve, InferenceError
from gspinfer.pipeline import (
    AccountSummary,
    InferenceConfig,
    ParseError,
    artifacts_from_json,
    artifacts_to_json,
    default_bid_grid,
    export,
    infer_account,
    infer_listing,
    ingest,
    write_histories,
)
from gspinfer.simulate import (
    BackgroundSpec,
    LearnerConfig,
    LearnerSpec,
    MarketSpec,
    simulate_market,
)


def micro_fixture_records():
    """One auction whose deviation landscape reproduces the two-row fixture.

    Player bids 0.51 against rank-scores 0.52 and 0.5 with reserve 0.25 on a
    three-slot curve (0.5, 0.4, 0.2): baseline P=0.4, C=0.2, and the penny
    sweep lands on rows (0.1, 0.06) and (-0.2, -0.15).
    """
    return [
        {
            "listing_id": "L0",
            "period": 1,
            "own_bid": 0.51,
            "competitors": [
                {"score": 1.0, "bid": 0.52, "quality": 0.5},
                {"score": 1.0, "bid": 0.5, "quality": 0.5},
            ],
            "rank_reserve": 0.25,
            "mainline_reserve": 0.25,
            "mainline_cap": 0,
            "position_curve": [0.5, 0.4, 0.2],
        }
    ]


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def tiny_market_histories(seed=11, periods=12, listings=2):
    grid = default_bid_grid(1.0, 0.1)
    learners = [
        LearnerSpec(f"L{k:03d}", 0.4 + 0.2 * k, LearnerConfig("hedge", grid))
        for k in range(listings)
    ]
    spec = MarketSpec(
        position_curve=(1.0, 0.5),
        rank_reserve=0.05,
        mainline_reserve=0.05,
        mainline_cap=0,
        background=BackgroundSpec(count=2, quality_low=0.5, quality_high=0.5),
    )
    return simulate_market(spec, learners, periods, 2, seed)


def _set(field, value):
    return lambda rec: rec.__setitem__(field, value)


# one record edit per number the reader must reject, and the word the error names
BAD_NUMBERS = [
    (_set("rank_reserve", math.inf), "Infinity"),
    (lambda rec: rec.update(rank_reserve=1e300, mainline_reserve=1e300), "rank_reserve must"),
    (lambda rec: rec["competitors"][0].__setitem__("bid", 1e305), "bid"),
    (lambda rec: rec["competitors"][0].__setitem__("score", 1e305), "score"),
    (_set("mainline_reserve", math.nan), "NaN"),
    (_set("mainline_reserve", "NaN"), "mainline_reserve"),
    (_set("own_bid", 10**400), "int too large"),
    (_set("mainline_count", 10**5), "mainline_count"),
    (_set("period", 2**63), "period: 9223372036854775808 does not fit in 64 bits"),
    # a score below one micro-unit would rank at rank-score 0
    (_set("own_score", 1e-7), "entry 'L0': score=1e-07"),
    (lambda rec: rec["competitors"][0].__setitem__("score", 1e-7), "entry 'c000': score=1e-07"),
    # numbers are JSON numbers: no strings, no booleans
    (_set("own_bid", "0.4"), "own_bid: expected float"),
    (_set("period", True), "period: expected int"),
    (_set("mainline_cap", True), "mainline_cap: expected int"),
    (lambda rec: rec["competitors"][0].__setitem__("bid", True), "competitor 0 bid: expected float"),
]


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert ingest(str(path)) == []

    def test_round_trip_identity(self, tmp_path):
        histories = tiny_market_histories()
        path = tmp_path / "log.jsonl"
        write_histories(histories, str(path))
        back = ingest(str(path))
        assert back == sorted(histories, key=lambda h: h.listing_id)

    def test_negative_bid_reports_line(self, tmp_path):
        records = micro_fixture_records()
        records[0]["own_bid"] = -0.2
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="line 1.*bid"):
            ingest(str(path))

    def test_missing_field_reports_line(self, tmp_path):
        records = micro_fixture_records()
        del records[0]["rank_reserve"]
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="line 1.*rank_reserve"):
            ingest(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        records = micro_fixture_records()
        records[0]["surprise"] = 1
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="unknown fields.*surprise"):
            ingest(str(path))

    def test_non_contiguous_periods_rejected(self, tmp_path):
        records = micro_fixture_records() + micro_fixture_records()
        records[1]["period"] = 3
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="non-contiguous"):
            ingest(str(path))

    def test_inconsistent_bid_rejected(self, tmp_path):
        records = micro_fixture_records() + micro_fixture_records()
        records[1]["own_bid"] = 0.77
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="inconsistent own_bid"):
            ingest(str(path))

    def test_inconsistent_truth_rejected(self, tmp_path):
        records = micro_fixture_records() + micro_fixture_records()
        records[0]["truth_value"], records[1]["truth_value"] = 0.5, 0.6
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="line 2: inconsistent truth_value for listing 'L0'"):
            ingest(str(path))

    def test_negative_truth_rejected(self, tmp_path):
        records = micro_fixture_records()
        records[0]["truth_value"] = -0.5
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="line 1: listing 'L0': truth value must be non-negative"):
            ingest(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        histories = tiny_market_histories()
        path = tmp_path / "log.jsonl"
        write_histories(histories, str(path))
        lines = path.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + "".join(line + " \t \n" * (k % 2) + "\n" * (k % 3 == 0)
                                         for k, line in enumerate(lines)))
        assert ingest(str(spaced)) == ingest(str(path))

    def test_listing_id_of_a_competitor_rejected(self, tmp_path):
        # competitors take the ids c000, c001, ... in their order on the line
        records = [dict(micro_fixture_records()[0], listing_id="c001")]
        path = tmp_path / "log.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match="line 1: entry ids must be unique"):
            ingest(str(path))
        records[0]["competitors"] = records[0]["competitors"][:1]
        write_jsonl(records, path)
        assert [h.listing_id for h in ingest(str(path))] == ["c001"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"listing_id": "a"\n')
        with pytest.raises(ParseError, match="line 1"):
            ingest(str(path))

    @pytest.mark.parametrize("line, match", [
        (b'{"listing_id": "\xff"}', "can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
    ], ids=["utf8", "nesting"])
    def test_undecodable_line_reports_line(self, tmp_path, line, match):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(json.dumps(micro_fixture_records()[0]).encode() + b"\n" + line + b"\n")
        with pytest.raises(ParseError, match=f"line 2.*{match}"):
            ingest(str(path))

    @pytest.mark.parametrize("mutate, match", BAD_NUMBERS, ids=[m for _, m in BAD_NUMBERS])
    def test_bad_number_reports_line(self, tmp_path, mutate, match):
        records = micro_fixture_records() + micro_fixture_records()
        mutate(records[1])
        path = tmp_path / "bad.jsonl"
        write_jsonl(records, path)
        with pytest.raises(ParseError, match=f"line 2.*{match}"):
            ingest(str(path))


# JSON-like values, including the numbers a log may carry: non-finite, huge, negative
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
RECORD_FIELDS = sorted(micro_fixture_records()[0]) + ["own_score", "own_quality", "truth_value", "mainline_count"]


@st.composite
def fuzzed_records(draw):
    """The micro fixture with some fields replaced, dropped, or added."""
    rec = micro_fixture_records()[0]
    for field in draw(st.lists(st.sampled_from(RECORD_FIELDS), max_size=3)):
        if draw(st.booleans()):
            rec[field] = draw(JSON_VALUES)
        else:
            rec.pop(field, None)
    if draw(st.booleans()):
        rec["competitors"] = draw(st.lists(
            st.fixed_dictionaries({"score": JSON_VALUES, "bid": JSON_VALUES, "quality": JSON_VALUES}), max_size=2
        ))
    return rec


class TestIngestFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(fuzzed_records() | JSON_VALUES, min_size=1, max_size=3))
    def test_ingest_yields_histories_or_parse_error(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            write_jsonl(records, path)
            try:
                histories = ingest(path)
            except ParseError as exc:
                assert exc.line >= 1
            else:
                assert isinstance(histories, list)


class TestMicroFixturePipeline:
    def test_single_listing_account_reproduces_fixture(self, tmp_path):
        path = tmp_path / "micro.jsonl"
        write_jsonl(micro_fixture_records(), path)
        histories = ingest(str(path))
        config = InferenceConfig(bid_max=1.0, grid_step=0.01, epsilon_max=0.08, boundary_samples=141)
        summary, artifacts = infer_account(histories, config)
        assert summary.listing_count == 1 and not summary.errors
        art = artifacts["L0"]
        assert art.curve.baseline_p == pytest.approx(0.4, abs=1e-12)
        assert art.curve.baseline_c == pytest.approx(0.2, abs=1e-12)
        assert art.prediction.delta_star == pytest.approx(1.0 / 9.0, abs=1e-4)
        assert art.prediction.v_star == pytest.approx(0.7, abs=1e-4)
        assert art.region.epsilon_min == pytest.approx(0.01, abs=1e-9)
        assert art.shading_ratio == pytest.approx(0.51 / art.prediction.v_star)

    def test_boundary_csv_row_at_point_prediction(self, tmp_path):
        path = tmp_path / "micro.jsonl"
        write_jsonl(micro_fixture_records(), path)
        histories = ingest(str(path))
        config = InferenceConfig(bid_max=1.0, grid_step=0.01, epsilon_max=0.08, boundary_samples=141)
        summary, artifacts = infer_account(histories, config)
        out = tmp_path / "out"
        export(summary, artifacts, str(out))
        rows = (out / "nr_boundary_L0.csv").read_text().strip().splitlines()
        v, eps = rows[71].split(",")  # header + 70 rows before v=0.7
        assert float(v) == pytest.approx(0.7, abs=1e-9)
        assert float(eps) == pytest.approx(0.01, abs=1e-9)


class TestAccountSummary:
    @pytest.mark.parametrize("width", [0.3, 0.4, 0.7, 0.07])
    def test_bucket_edges_end_at_one_when_the_width_does_not_divide_it(self, width):
        # the last bucket counts every delta* up to 1, so its upper edge is 1.0
        summary, _ = infer_account([], InferenceConfig(histogram_bucket_width=width))
        edges = summary.bucket_edges()
        assert len(edges) == round(1.0 / width) + 1
        assert edges[0] == 0.0 and edges[-1] == 1.0 and all(b > a for a, b in zip(edges, edges[1:]))

    def test_exact_best_responders_fall_in_nonpositive_bucket(self, tmp_path):
        spec = MarketSpec(
            position_curve=(1.0, 0.5),
            rank_reserve=0.0,
            mainline_reserve=0.0,
            mainline_cap=0,
            background=BackgroundSpec(count=1, bid_low=0.4, bid_high=0.4,
                                      score_low=1.0, score_high=1.0,
                                      quality_low=0.5, quality_high=0.5),
        )
        grid = default_bid_grid(1.0, 0.05)
        learners = [
            LearnerSpec(f"L{k:03d}", 0.6 + 0.1 * k, LearnerConfig("fixed_best_response", grid))
            for k in range(3)
        ]
        histories = simulate_market(spec, learners, 40, 1, 5)
        # drop the arbitrary first-period bid so play is exactly optimal
        histories = [h.rows(h.period_bounds()[1], len(h)) for h in histories]
        # top bidders gain no clicks from any deviation, so the value cap
        # cannot be derived from the curve and must come from the config
        summary, artifacts = infer_account(
            histories, InferenceConfig(grid_step=0.05, epsilon_max=1.0, value_cap=2.0)
        )
        assert summary.listing_count == 3
        assert summary.nonpositive_count == 3
        assert sum(summary.histogram_counts) == 0
        assert summary.scatter == ()

    def test_learning_listings_spread_and_conserve(self):
        histories = tiny_market_histories(seed=29, periods=10, listings=4)
        summary, artifacts = infer_account(histories, InferenceConfig(grid_step=0.1, epsilon_max=1.0))
        assert summary.listing_count == 4
        assert summary.nonpositive_count + sum(summary.histogram_counts) == 4
        # mid-training hedge listings carry positive error mass (pinned seed)
        assert len(summary.scatter) >= 1
        above = {lid for lid, v, d in summary.scatter}
        for lid, art in artifacts.items():
            if art.prediction.delta_star > summary.learning_threshold:
                assert lid in above
            else:
                assert lid not in above

    def test_failed_listing_recorded_and_run_continues(self, tmp_path):
        # a listing whose every deviation loses clicks cannot be capped
        records = micro_fixture_records()
        solo = {
            "listing_id": "Z9",
            "period": 1,
            "own_bid": 1.0,
            "competitors": [],
            "rank_reserve": 0.0,
            "mainline_reserve": 0.0,
            "mainline_cap": 0,
            "position_curve": [1.0],
        }
        path = tmp_path / "mixed.jsonl"
        write_jsonl(records + [solo], path)
        histories = ingest(str(path))
        config = InferenceConfig(bid_max=1.0, grid_step=0.01, epsilon_max=0.08)
        summary, artifacts = infer_account(histories, config)
        assert summary.listing_count == 1
        assert len(summary.errors) == 1 and summary.errors[0][0] == "Z9"
        assert "L0" in artifacts

    def test_pool_has_no_more_workers_than_listings(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        histories = tiny_market_histories(seed=3, periods=4, listings=2)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        assert infer_account(histories, config, jobs=8) == infer_account(histories, config, jobs=1)
        infer_account(histories, config, jobs=2)
        assert started == [2, 2]

    def test_parallel_jobs_match_serial(self):
        histories = tiny_market_histories(seed=3, periods=8, listings=3)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        s1, a1 = infer_account(histories, config, jobs=1)
        s2, a2 = infer_account(histories, config, jobs=2)
        assert s1 == s2
        assert a1 == a2


def write_histories_dumps(histories, path):
    """The log writer as one ``json.dumps`` per record: the oracle for ``write_histories``."""
    with open(path, "w", encoding="utf-8") as fh:
        for h in histories:
            offsets = h.offsets.tolist()
            competitors = [{"score": s, "bid": b, "quality": q}
                           for s, q, b in zip(h.score.tolist(), h.quality.tolist(), h.bid.tolist())]
            rows = zip(h.period.tolist(), h.own_bid.tolist(), h.rank_reserve.tolist(), h.mainline_reserve.tolist(),
                       h.mainline_cap.tolist(), h.curve.tolist(), h.mainline_count.tolist(),
                       h.own_score.tolist(), h.own_quality.tolist())
            for a, (period, own_bid, r, m, cap, curve, n_main, own_score, own_quality) in enumerate(rows):
                out = {
                    "listing_id": h.listing_id, "period": period, "own_bid": own_bid,
                    "competitors": competitors[offsets[a]:offsets[a + 1]],
                    "rank_reserve": r, "mainline_reserve": m, "mainline_cap": cap,
                    "position_curve": list(h.curves[curve]), "mainline_count": n_main,
                }
                if own_score != 1.0:
                    out["own_score"] = own_score
                if own_quality != 1.0:
                    out["own_quality"] = own_quality
                if h.truth is not None:
                    out["truth_value"] = h.truth
                fh.write(json.dumps(out, separators=(",", ":")) + "\n")


def writer_tables():
    """Tables that exercise every optional field and form of the log writer, by name."""
    grid = default_bid_grid(1.0, 0.1)
    learners = [
        LearnerSpec("L\u00e9\u4e2d", 1, LearnerConfig("hedge", grid), own_score=1.3, own_quality=0.7),
        LearnerSpec("L001", 0.45, LearnerConfig("epsilon_greedy", grid), own_quality=0.25),
        LearnerSpec("L002", 0.8, LearnerConfig("fixed_best_response", grid)),
    ]
    market = MarketSpec(position_curve=(1, 0.6, 0.35), background=BackgroundSpec(count=3, drift_amplitude=0.3))
    scored, plain_quality, plain = simulate_market(market, learners, 5, 2, 3)
    no_mainline, = simulate_market(replace(market, mainline_count=0), learners[2:], 4, 3, 5)
    curves = ((1.0, 0.5), (1, 0.6, 0.2), (0.9,))
    # entries repeated within and across two listings, whose k-th entries differ only in the sign of a zero
    entries = np.array([[1.0, 0.0, 0.5], [1.0, -0.0, 0.5], [1.1, 0.3, 0.0], [1.1, 0.3, -0.0]])  # score, bid, quality
    signed = [replace(plain, listing_id=f"L10{k}", **dict(zip(("score", "bid", "quality"),
                                                              np.resize(entries[order], (len(plain.bid), 3)).T.copy())))
              for k, order in enumerate(([0, 1, 2, 3], [1, 0, 3, 2]))]
    return {
        "scored, non-ASCII id, int truth": [scored],
        "own quality only": [plain_quality],
        "no truth": [replace(plain, truth=None)],
        "mainline_count 0": [no_mainline],
        "several curves": [replace(no_mainline, curves=curves, curve=np.arange(len(no_mainline)) % 3)],
        "whole market": [scored, plain_quality, plain],
        "signed zeros, repeated entries": signed,
    }


class TestWriteHistories:
    @pytest.mark.parametrize("name", list(writer_tables()))
    def test_bytes_match_json_dumps_and_ingest_round_trips(self, tmp_path, name):
        tables = writer_tables()[name]
        write_histories(tables, str(tmp_path / "log.jsonl"))
        write_histories_dumps(tables, str(tmp_path / "oracle.jsonl"))
        assert (tmp_path / "log.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        assert ingest(str(tmp_path / "log.jsonl")) == sorted(tables, key=lambda h: h.listing_id)

    @settings(max_examples=60, deadline=None)
    @given(numbers=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
           period=st.integers(0, 2**62), truth=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_number_is_written_as_json_dumps_writes_it(self, numbers, period, truth):
        # the writer must match json.dumps on any finite number, in range or not
        table, = writer_tables()["scored, non-ASCII id, int truth"]
        own_bid, bid = table.own_bid.copy(), table.bid.copy()
        own_bid[0], bid[1] = numbers[:2]
        table = replace(table, own_bid=own_bid, bid=bid, own_score=np.full(len(table), numbers[2]),
                        rank_reserve=np.full(len(table), numbers[3]), period=table.period + period, truth=truth)
        with tempfile.TemporaryDirectory() as tmp:
            write_histories([table], os.path.join(tmp, "log.jsonl"))
            write_histories_dumps([table], os.path.join(tmp, "oracle.jsonl"))
            with open(os.path.join(tmp, "log.jsonl"), "rb") as a, open(os.path.join(tmp, "oracle.jsonl"), "rb") as b:
                assert a.read() == b.read()


def loaded_after(statement: str, names: set[str]) -> str:
    """The sorted list of ``names`` a fresh interpreter has in ``sys.modules`` after ``statement``, as printed."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys; {statement}; print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    # the pool loads multiprocessing; only --jobs > 1 uses it. geometry is rate-study's, simulate is simulate's
    names = {"concurrent.futures.process", "multiprocessing", "gspinfer.geometry", "gspinfer.simulate"}
    assert loaded_after("import gspinfer.cli", names) == "[]"


def test_infer_and_predict_leave_the_simulator_and_pool_unloaded(tmp_path):
    # keys that simulate and rate-study read are parsed without importing their modules
    cfg = tmp_path / "cfg"
    cfg.write_text("position_curve = [1.0, 0.5]\nalgorithm = hedge\ncompetitors = 2\nrate_replications = 3\n"
                   "grid_step = 0.1\n")
    log = tmp_path / "log.jsonl"
    write_histories(tiny_market_histories(), str(log))
    names = {"multiprocessing", "gspinfer.geometry", "gspinfer.simulate"}
    for argv in (["infer", str(log), "--config", str(cfg), "--out", str(tmp_path / "out")],
                 ["predict", str(log), "--config", str(cfg), "--out", str(tmp_path / "p.json")]):
        loaded = loaded_after(f"from gspinfer.cli import main; assert main({argv!r}) == 0", names)
        assert loaded.splitlines()[-1] == "[]"


def test_package_import_loads_no_submodule():
    names = {f"gspinfer.{m}" for m in ("auction", "inference", "pipeline", "simulate", "geometry", "cli")}
    assert loaded_after("import gspinfer", names | {"numpy"}) == "[]"


def test_package_namespace_resolves_each_public_name_from_its_module():
    import gspinfer

    for modname in ("auction", "inference", "pipeline", "simulate", "geometry"):
        module = importlib.import_module(f"gspinfer.{modname}")
        public = [v for k, v in vars(module).items()
                  if not k.startswith("_") and callable(v) and v.__module__ == module.__name__]
        assert public
        for value in public:
            assert getattr(gspinfer, value.__name__) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        gspinfer.no_such_name  # noqa: B018
    from gspinfer import pipeline as module

    assert module is pipeline


class TestDeterminism:
    def test_serialize_ingest_matches_in_memory_bitwise(self, tmp_path):
        histories = tiny_market_histories(seed=101)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        _, direct = infer_account(histories, config)
        path = tmp_path / "log.jsonl"
        write_histories(histories, str(path))
        _, via_disk = infer_account(ingest(str(path)), config)
        for lid in direct:
            assert direct[lid].prediction == via_disk[lid].prediction
            assert direct[lid].curve == via_disk[lid].curve

    def test_reexport_byte_identical(self, tmp_path):
        histories = tiny_market_histories(seed=55)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        files1 = export(summary, artifacts, str(out1))
        files2 = export(summary, artifacts, str(out2))
        for f1, f2 in zip(files1, files2):
            assert open(f1, "rb").read() == open(f2, "rb").read()


class TestBundleCodec:
    def test_numpy_scalar_curve_exports_the_same_bytes(self, tmp_path, monkeypatch):
        # v* is derived from the baselines and written with repr: a numpy
        # scalar there would print as np.float64(...) in scatter_v_delta.csv
        histories = tiny_market_histories(seed=55)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        assert summary.scatter
        build = pipeline.build_deviation_curve

        def numpy_curve(history, grid):
            c = build(history, grid)
            curve = DeviationCurve(
                grid=np.asarray(c.grid), delta_p=np.asarray(c.delta_p), delta_c=np.asarray(c.delta_c),
                baseline_p=np.float64(c.baseline_p), baseline_c=np.float64(c.baseline_c),
            )
            assert type(curve.baseline_p) is float and type(curve.baseline_c) is float
            assert curve == c
            return curve

        monkeypatch.setattr(pipeline, "build_deviation_curve", numpy_curve)
        summary_np, artifacts_np = infer_account(histories, config)
        files = export(summary, artifacts, str(tmp_path / "a"))
        files_np = export(summary_np, artifacts_np, str(tmp_path / "b"))
        assert [os.path.basename(f) for f in files] == [os.path.basename(f) for f in files_np]
        for f, f_np in zip(files, files_np):
            assert open(f, "rb").read() == open(f_np, "rb").read(), f

    @staticmethod
    def account(tmp_path, **config):
        """A summary with scatter, shading ratios and errors, its artifacts and config."""
        # a listing whose every deviation loses clicks fails and is kept under errors
        solo = dict(micro_fixture_records()[0], listing_id="Z9", own_bid=1.0, competitors=[],
                    position_curve=[1.0], rank_reserve=0.0, mainline_reserve=0.0)
        path = tmp_path / "solo.jsonl"
        write_jsonl([solo], path)
        histories = tiny_market_histories(seed=7, listings=3) + ingest(str(path))
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0, **config)
        summary, artifacts = infer_account(histories, config)
        assert summary.scatter and summary.shading_ratios and summary.errors
        return summary, artifacts, config

    def test_round_trip_restores_objects(self, tmp_path):
        summary, artifacts, config = self.account(tmp_path)
        bundle = json.loads(json.dumps(artifacts_to_json(summary, artifacts, config)))
        assert artifacts_from_json(bundle) == (summary, artifacts, config)
        # re-encoding what was read gives back the file's bytes, as artifacts.json writes them
        text = json.dumps(bundle, indent=2, sort_keys=True)
        assert json.dumps(artifacts_to_json(*artifacts_from_json(bundle)), indent=2, sort_keys=True) == text

    def test_every_one_place_damage_rejected(self, tmp_path):
        # each value in turn replaced by one of another JSON type, then each
        # object in turn given a key the bundle does not write
        account = self.account(tmp_path, boundary_samples=5)
        bundle = json.loads(json.dumps(artifacts_to_json(*account)))

        def places(node):
            for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
                yield node, key
                if isinstance(value, (dict, list)):
                    yield from places(value)

        def accepted(damaged: str) -> list[str]:
            try:
                artifacts_from_json(bundle)
            except ParseError:
                return []
            return [damaged]

        kinds, missed = set(), []
        for node, key in places(bundle):
            value = node[key]
            kinds.add(type(value))
            node[key] = 0 if isinstance(value, str) else "x"
            missed += accepted(f"{key!r} = {node[key]!r}")
            node[key] = value
        objects = [bundle] + [node[key] for node, key in places(bundle) if isinstance(node[key], dict)]
        for obj in objects:
            obj["surprise"] = None
            missed += accepted(f"surprise in {sorted(obj)[:3]}")
            del obj["surprise"]
        assert missed == []
        assert kinds == {dict, list, str, int, float, bool, type(None)} and len(objects) > 10
        assert artifacts_from_json(bundle) == account


class TestEmptyAccountExport:
    def test_zero_listings_still_produce_valid_files(self, tmp_path):
        summary = AccountSummary(
            listing_count=0,
            bucket_width=0.05,
            nonpositive_count=0,
            histogram_counts=(0,) * 20,
            shading_ratios={},
            scatter=(),
            learning_threshold=1e-4,
        )
        files = export(summary, {}, str(tmp_path / "out"))
        names = {f.split("/")[-1] for f in files}
        assert names == {"predictions.json", "account_summary.json",
                         "histogram_delta.csv", "scatter_v_delta.csv"}
        assert json.loads((tmp_path / "out" / "predictions.json").read_text()) == []
        scatter = (tmp_path / "out" / "scatter_v_delta.csv").read_text().strip().splitlines()
        assert scatter == ["listing_id,v_star,delta_star"]


class TestConfigFile:
    def test_defaults_without_file(self):
        # a key the file leaves out keeps its field's default: no file builds the default classes
        from gspinfer.geometry import RateStudyConfig

        cfg = load_config(None)
        assert cfg == {key: default for key, (_, default) in RUN_KEYS.items()} and cfg["jobs"] == 1
        assert cli._build(InferenceConfig, cfg) == InferenceConfig() and InferenceConfig().epsilon_max == 1.0
        assert cli._build(MarketSpec, cfg, background=cli._build(BackgroundSpec, cfg)) == MarketSpec()
        assert cli._build(RateStudyConfig, cfg, seed=cfg["seed"]) == RateStudyConfig()
        learners = build_learners(cfg)
        assert len(learners) == 3 and {ls.config for ls in learners} == {
            LearnerConfig("hedge", InferenceConfig().bid_grid())}

    def test_each_field_key_names_a_field_its_parser_round_trips(self):
        import gspinfer

        assert set(RUN_KEYS).isdisjoint(FIELD_KEYS) and CONFIG_KEYS == {**RUN_KEYS, **FIELD_KEYS}
        for key, (parse, owner, name) in FIELD_KEYS.items():
            field = {f.name: f for f in fields(getattr(gspinfer, owner))}[name]
            # repr tells 201 from 201.0, so a number parser on an integer field fails here
            assert repr(parse(json.loads(json.dumps(field.default)))) == repr(field.default), key
            if field.default is None:
                assert parse(None) is None, key
            else:
                with pytest.raises(ValueError):
                    parse(None)

    @pytest.mark.parametrize("step", [0.01, 0.004, 0.05, 0.06, 0.15])
    def test_learners_bid_on_the_inference_grid(self, step):
        # simulate's learners and infer's replay use one grid, ending at or below bid_max
        cfg = {**load_config(None), "grid_step": step, "listings": 1}
        grid = build_learners(cfg)[0].config.bid_grid
        assert grid == InferenceConfig(grid_step=step).bid_grid()
        assert grid[-1] <= InferenceConfig().bid_max

    def test_bid_grid_bounds_what_a_config_allocates(self):
        # the grid has floor(bid_max / step) + 1 points and the histogram round(1 / width) buckets
        assert len(InferenceConfig(grid_step=1e-5).bid_grid()) == pipeline.MAX_GRID_POINTS
        assert InferenceConfig(histogram_bucket_width=pipeline.MIN_BUCKET_WIDTH).bid_grid()
        with pytest.raises(InferenceError, match="at most 100001 grid points"):
            InferenceConfig(grid_step=1e-6).bid_grid()
        with pytest.raises(InferenceError, match="at least 0.0001"):
            InferenceConfig(histogram_bucket_width=1e-300).bid_grid()

    def test_list_elements_are_numbers(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("rate_sample_sizes = [1e3, 2000]\nposition_curve = [1, 0.5]\n")
        cfg = load_config(str(path))
        assert cfg["rate_sample_sizes"] == (1000, 2000) and cfg["position_curve"] == (1.0, 0.5)
        for bad in ('[1, "a"]', "[[1]]", "[true]", "[1e400]"):
            path.write_text(f"rate_sample_sizes = {bad}\n")
            with pytest.raises(ConfigError, match="bad value for 'rate_sample_sizes'"):
                load_config(str(path))

    def test_parses_values_and_lists(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# comment\n"
            "epsilon_max = 0.5\n"
            "position_curve = [1.0, 0.7]\n"
            "algorithm = epsilon_greedy\n"
            "listings = 4\n"
        )
        cfg = load_config(str(path))
        assert cfg["epsilon_max"] == 0.5
        assert cfg["position_curve"] == (1.0, 0.7)
        assert cfg["algorithm"] == "epsilon_greedy"
        assert cfg["listings"] == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epsilon_maxx = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("listings = banana\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [
        # null only for a field whose default is None
        ("epsilon_max", "null"), ("boundary_samples", "null"), ("periods", "null"), ("listings", "null"),
        ("value_low", "null"), ("algorithm", "null"), ("position_curve", "null"),
        # algorithm is text, quoted or not
        ("algorithm", "5"), ("algorithm", "true"), ("algorithm", "[1]"),
        # an integer key takes no fraction and no boolean; a number key no boolean
        ("periods", "2.9"), ("competitors", "2.5"), ("rate_replications", "1.5"), ("jobs", "true"),
        ("rate_sample_sizes", "[1000, 2.5]"), ("epsilon_max", "true"),
        # no string, quoted or not, is a number
        ("periods", '"5"'), ("epsilon_max", '"0.5"'), ("precision", "inf"), ("rate_sample_sizes", '["1000"]'),
    ])
    def test_value_of_the_wrong_json_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "cfg"
        path.write_text(f"# header\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf":2: bad value for '{key}'"):
            load_config(str(path))

    def test_null_and_integral_numbers_where_allowed(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("grid_step = null\nvalue_cap = null\nlearning_rate = null\nmainline_count = null\n"
                        "periods = 2.0\nrate_replications = 1e1\nseed = -0.0\nepsilon_max = 2\n")
        cfg = load_config(str(path))
        assert [cfg[k] for k in ("grid_step", "value_cap", "learning_rate", "mainline_count")] == [None] * 4
        assert [(cfg[k], type(cfg[k])) for k in ("periods", "rate_replications", "seed", "epsilon_max")] == [
            (2, int), (10, int), (0, int), (2.0, float)]

    def test_config_that_is_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_bytes(b"periods = 5\nalgorithm = h\xffdge\n")
        with pytest.raises(ConfigError, match=r"cfg:2: not UTF-8"):
            load_config(str(path))

    def test_number_too_large_for_int_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# header\nperiods = 1e400\n")
        with pytest.raises(ConfigError, match=r":2: bad value for 'periods'"):
            load_config(str(path))

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(
        st.tuples(
            st.sampled_from(sorted(CONFIG_KEYS)),
            (st.integers() | st.floats() | JSON_VALUES).map(json.dumps)
            | st.sampled_from(["1e400", "-1e400", "Infinity", "NaN", "1e-400", str(10**400)])
            | st.text(max_size=8),
        ),
        max_size=4,
    ))
    def test_every_config_parses_or_raises_config_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{key} = {value}\n" for key, value in lines))
            try:
                cfg = load_config(path)
            except ConfigError:
                pass
            else:
                assert set(cfg) == set(RUN_KEYS) | {key for key, _ in lines}


class TestCli:
    def test_simulate_infer_export_cycle(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "listings = 2\nperiods = 6\nauctions_per_period = 2\n"
            "grid_step = 0.1\nepsilon_max = 1.0\ncompetitors = 2\n"
        )
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", "9", "--out", str(log)]) == 0
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), str(log), "--out", str(out)]) == 0
        assert (out / "artifacts.json").exists()
        # re-export from the bundle reproduces every export byte for byte
        out2 = tmp_path / "out2"
        assert main(["export", str(out / "artifacts.json"), "--out", str(out2)]) == 0
        exported = sorted(p.name for p in out2.iterdir())
        assert exported == [
            "account_summary.json", "histogram_delta.csv", "nr_boundary_L000.csv",
            "nr_boundary_L001.csv", "predictions.json", "scatter_v_delta.csv",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(exported + ["artifacts.json"])
        for name in exported:
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_infer_outputs_match_pinned_digests(self, tmp_path, capsys):
        # A fine grid (n = 251) on a small seeded market: any rewrite of the
        # envelope, the curve or the encoders that drifts an output byte fails.
        cfg = tmp_path / "cfg"
        cfg.write_text("listings = 1\nperiods = 20\nauctions_per_period = 3\ngrid_step = 0.004\n")
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(log)]) == 0
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), str(log), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("predictions.json", "artifacts.json")}
        assert digests == {
            "predictions.json": "356f294afd10806e3eb220b4b8a40ec3d06889018dece45a0b2a239433b35be6",
            "artifacts.json": "41969c63db3909f318a05c08c5565fd92daa14bbff9e32dc216ae17ea5b3b0a9",
        }

    def test_simulate_outputs_match_pinned_digests(self, tmp_path, capsys):
        # Two learners that meet each other as competitors, ten auctions a
        # period on the 101-point grid: any drift in the payoffs the learners
        # see, or in the replay of their log, moves a digest.
        cfg = tmp_path / "cfg"
        cfg.write_text("listings = 2\nperiods = 30\nauctions_per_period = 10\n")
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(log)]) == 0
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), str(log), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in (("log.jsonl", log), ("predictions.json", out / "predictions.json"))}
        assert digests == {
            "log.jsonl": "18c19396ce4afcc090f6d0f0bda7632ad41890d70d14941b3ea0d95f89b8c62b",
            "predictions.json": "d7102c78393ac609df5884a70588f7711b1943556ee4e72b74644ac468cea41c",
        }

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("step", ["0", "-0.01", "1.5", "nan", "1e-6"])
    def test_bad_grid_step_exits_with_error_list(self, tmp_path, capsys, command, step):
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main([command, str(log), "--grid-step", step, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("grid step must lie in (0, bid_max]")
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "infer", "predict"])
    def test_bid_max_beyond_magnitude_bound_exits_with_error_list(self, tmp_path, capsys, command):
        # learners and the deviation grid bid up to bid_max, and no bid may
        # exceed the magnitude bound that keeps rank-scores inside int64
        cfg = tmp_path / "cfg"
        cfg.write_text("bid_max = 2000\nlistings = 1\nperiods = 3\n")
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        args = ["--out", str(tmp_path / "o")] if command == "simulate" else [str(log), "--out", str(tmp_path / "o")]
        assert main([command, "--config", str(cfg), *args]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("bid_max must lie in (0, 1000]")

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("width", ["0", "-0.05", "NaN", "1.5", "1e-300", "5e-5"])
    def test_bad_bucket_width_exits_with_error_list(self, tmp_path, capsys, command, width):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"histogram_bucket_width = {width}\n")
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main([command, "--config", str(cfg), str(log), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("histogram_bucket_width must lie in (0, 1]")
        assert captured.out == "" and not (tmp_path / "o").exists()

    # config line -> start of the one error; each used to be recorded once per listing, with exit 0
    BAD_INFERENCE_CONFIG = {
        "precision = 0": "precision must lie in (0, 1)",
        "precision = 1e-300": "precision must lie in (0, 1)",
        "boundary_samples = 1": "boundary_samples must be at least 2",
        "value_cap = 0": "value cap must be positive and finite",
        "bid_max = 1e-300": "bid_max 1e-300 is too small",
        "epsilon_max = NaN": "epsilon_max must be finite",
        # a NaN threshold left the scatter silently empty
        "learning_threshold = NaN": "learning_threshold must be finite",
        "learning_threshold = Infinity": "learning_threshold must be finite",
        # each ran serially and exited 0
        "jobs = 0": "jobs must be at least 1 (got 0)",
        "jobs = -4": "jobs must be at least 1 (got -4)",
    }

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("line", list(BAD_INFERENCE_CONFIG))
    def test_bad_inference_config_exits_with_error_list(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main([command, "--config", str(cfg), str(log), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1 and errors[0].startswith(self.BAD_INFERENCE_CONFIG[line])
        assert captured.out == "" and not (tmp_path / "o").exists()

    # config lines -> the key the one error names; each used to end in a traceback, name a competitor's
    # bid or another spelling, or run with a truncated or null value
    BAD_SIMULATION_KEY = {
        "drift_amplitude = NaN": "drift_amplitude",
        "drift_amplitude = 1e308": "drift_amplitude",
        "drift_amplitude = -1000": "drift_amplitude",
        "learning_rate = NaN": "learning_rate",
        "learning_rate = Infinity": "learning_rate",
        "learning_rate = -0.5": "learning_rate",
        "periods = null": "periods",
        "listings = null": "listings",
        "value_low = null": "value_low",
        "periods = 2.9": "periods",
        "competitors = 2.5": "competitors",
        "rate_replications = 1.5": "rate_replications",
        # every weight underflowed and hedge divided 0 by 0: numpy's "Probabilities contain NaN"
        "learning_rate = 1e6\nlistings = 2\nperiods = 50\nauctions_per_period = 2": "learning_rate",
        # a number is a JSON number, NaN or +-Infinity, never a string
        'periods = "5"': "periods",
        'epsilon_max = "0.5"': "epsilon_max",
        "precision = inf": "precision",
        # a log may not hold a negative count, so neither may a simulated one; a negative cap keeps its message
        "mainline_count = -1": "mainline_count must be non-negative (got -1)",
        "mainline_cap = -1": "mainline_cap must be non-negative (got -1)",
        # too large a count used to get the reference's message, which names neither the key nor the value
        "mainline_count = 3": "mainline_count must be at most min(mainline_cap, positions) = 2 (got 3)",
        "mainline_cap = 9\nmainline_count = 9": "mainline_count must be at most min(mainline_cap, positions) = 4 (got 9)",
        # each named its dataclass field, or no field at all, instead of the key
        "rate_grid_coeff = 0": "rate_grid_coeff",
        "rate_holder_exponent = NaN": "rate_holder_exponent",
        "rate_smoothness_order = -1": "rate_smoothness_order",
        "rate_sample_sizes = [1000, 100, 10000]": "rate_sample_sizes",
        "rate_sample_sizes = [2, 3, 4]": "rate_sample_sizes",
        "rate_replications = 0": "rate_replications",
        "competitors = -1": "competitors",
        # each named its range ("competitor bid range") instead of the key
        "competitor_bid_high = 0.02": "competitor_bid_high",
        "competitor_score_low = NaN": "competitor_score_low",
        "competitor_score_high = 0.5": "competitor_score_high",
        "competitor_quality_low = -Infinity": "competitor_quality_low",
        "competitor_quality_high = Infinity": "competitor_quality_high",
        # each failed only once the study ran, naming no key or only after the true region was built
        "rate_eps_cap = 0": "rate_eps_cap",
        "rate_eps_cap = Infinity": "rate_eps_cap",
        "rate_sample_sizes = [1000, 2000]": "rate_sample_sizes",
        "direction_count = 2": "direction_count",
    }

    @pytest.mark.parametrize("command, lines", [
        ("simulate", "value_high = 0"),
        ("simulate", "value_high = 1e400"),
        ("simulate", "competitor_bid_high = 0.01"),
        ("simulate", "competitor_score_high = 0.1"),
        ("simulate", "competitor_quality_high = 0.1"),
        ("simulate", "competitor_bid_low = NaN"),
        ("simulate", "competitor_score_high = 1e400"),
        ("simulate", "drift_amplitude = 0.5\ndrift_period = 0"),
        ("simulate", "seed = -1"),
        ("simulate", 'position_curve = [1, "a"]'),
        ("simulate", "position_curve = [[1]]"),
        ("rate-study", "seed = -1"),
        ("rate-study", "rate_sample_sizes = [1, 10, 100]"),
        ("rate-study", "rate_sample_sizes = [1e3, 1e400, 1e5]"),
        ("rate-study", 'rate_sample_sizes = [1e3, "a", 1e5]'),
        ("rate-study", "rate_grid_coeff = NaN"),
        *(("rate-study" if key.startswith(("rate_", "direction_count")) else "simulate", line)
          for line, key in BAD_SIMULATION_KEY.items()),
    ])
    def test_bad_simulation_config_exits_with_error_list(self, tmp_path, capsys, command, lines):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"listings = 1\nperiods = 2\nrate_replications = 1\n{lines}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1
        assert self.BAD_SIMULATION_KEY.get(lines, "") in errors[0]
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_predict_out_matches_infer_predictions(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        out = tmp_path / "out"
        assert main(["infer", str(log), "--grid-step", "0.1", "--out", str(out)]) == 0
        pred = tmp_path / "pred.json"
        assert main(["predict", str(log), "--grid-step", "0.1", "--out", str(pred)]) == 0
        assert pred.read_bytes() == (out / "predictions.json").read_bytes()
        capsys.readouterr()
        assert main(["predict", str(log), "--grid-step", "0.1"]) == 0
        assert capsys.readouterr().out.encode() == pred.read_bytes()

    def test_predict_stdout(self, tmp_path, capsys):
        log = tmp_path / "micro.jsonl"
        write_jsonl(micro_fixture_records(), log)
        assert main(["predict", str(log), "--epsilon-max", "0.08"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["listing_id"] == "L0"
        assert payload[0]["delta_star"] == pytest.approx(1.0 / 9.0, abs=1e-4)

    def test_predict_reports_a_failed_listing_and_keeps_the_rest(self, tmp_path, capsys):
        # a lone bidder at bid 1.0 already takes the top slot, so no deviation gains clicks
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main(["predict", str(log), "--grid-step", "0.1"]) == 0
        good = capsys.readouterr().out
        lone = dict(micro_fixture_records()[0], listing_id="Z", own_bid=1.0, competitors=[])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(lone) + "\n")
        assert main(["predict", str(log), "--grid-step", "0.1"]) == 0
        captured = capsys.readouterr()
        assert [p["listing_id"] for p in json.loads(good)] == ["L000", "L001"] and captured.out == good
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"errors": [["Z", "no deviation gains clicks; supply an explicit value cap"]]}

    def test_rate_study_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("rate_sample_sizes = [1000, 2000, 4000]\nrate_replications = 2\n")
        out = tmp_path / "rs"
        assert main(["rate-study", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_study.csv").exists()
        summary = json.loads((out / "rate_study_summary.json").read_text())
        assert "slope" in summary and summary["gamma_target"] == pytest.approx(1 / 3)
        # any drift in the market's draws, the link function or the support fan moves a digest
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("rate_study.csv", "rate_study_summary.json")}
        assert digests == {
            "rate_study.csv": "0246cf1dcb86f04c3297f193afd78f41e60b922cef48c674dbc178f48a567a85",
            "rate_study_summary.json": "071c548d803a8b37a189f226141505e662ba1fa7e1c321444cd26d5377e6d515",
        }

    def test_error_exit_code_and_json(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["infer", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["errors"]

    @pytest.mark.parametrize("command", ["predict", "infer"])
    def test_bad_number_exits_with_error_list(self, tmp_path, capsys, command):
        records = micro_fixture_records()
        records[0]["rank_reserve"] = math.inf
        records[0]["mainline_reserve"] = math.inf
        log = tmp_path / "bad.jsonl"
        write_jsonl(records, log)
        assert main([command, str(log), "--out", str(tmp_path / "o")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("line 1:")

    # damage -> (edit of the decoded bundle, or None for a text edit; expected message)
    BUNDLE_DAMAGE = {
        "empty-object": (None, "KeyError: 'summary'"),
        "truncated": (None, "not a JSON bundle"),
        "one-number-boundary-row": (
            lambda b, lst: lst["region"].update(boundary=[[1]]), "expected a list of 2, got [1]"),
        "string-bucket-width": (
            lambda b, lst: b["summary"].update(bucket_width="0.05"), "expected float, got '0.05'"),
        "string-value-cap": (
            lambda b, lst: lst["region"].update(value_cap="2.0"), "expected float, got '2.0'"),
        "string-delta-star": (
            lambda b, lst: lst["prediction"].update(delta_star="0.1"), "expected float, got '0.1'"),
        "bool-value-cap": (lambda b, lst: lst["region"].update(value_cap=True), "expected float, got True"),
        "nan-delta-star": (lambda b, lst: lst["prediction"].update(delta_star=math.nan), "expected float, got nan"),
        "float-iterations": (lambda b, lst: lst["prediction"].update(iterations=3.0), "expected int, got 3.0"),
        "one-number-v-interval": (
            lambda b, lst: lst["prediction"].update(v_interval=[0.5]), "expected a list of 2, got [0.5]"),
        "string-in-curve": (lambda b, lst: lst["curve"].update(delta_p=["0.1"]), "expected float, got '0.1'"),
        # the curve's own checks, reached through the decoder
        "reversed-grid": (
            lambda b, lst: lst["curve"].update(grid=lst["curve"]["grid"][::-1]), "grid must be strictly increasing"),
        "short-delta-p": (
            lambda b, lst: lst["curve"].update(delta_p=lst["curve"]["delta_p"][:-1]),
            "grid, delta_p and delta_c must have equal length"),
        "bool-count": (lambda b, lst: b["summary"].update(nonpositive_count=True), "expected int, got True"),
        "float-config-count": (
            lambda b, lst: b["config"].update(boundary_samples=201.0), "expected int, got 201.0"),
        "surprise-in-prediction": (
            lambda b, lst: lst["prediction"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-region": (lambda b, lst: lst["region"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-listing": (lambda b, lst: lst.update(surprise=1), "unexpected key 'surprise'"),
        "id-in-listing": (lambda b, lst: lst.update(listing_id="L000"), "unexpected key 'listing_id'"),
        "surprise-at-top": (lambda b, lst: b.update(surprise=1), "unexpected key 'surprise'"),
    }

    @pytest.mark.parametrize("damage", list(BUNDLE_DAMAGE))
    def test_export_bad_bundle_exits_with_error_list(self, tmp_path, capsys, damage):
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        out = tmp_path / "out"
        assert main(["infer", str(log), "--grid-step", "0.1", "--out", str(out)]) == 0
        bundle = out / "artifacts.json"
        text = bundle.read_text()
        edit, message = self.BUNDLE_DAMAGE[damage]
        if edit is None:
            bundle.write_text("{}" if damage == "empty-object" else text[: len(text) // 2])
        else:
            decoded = json.loads(text)
            edit(decoded, next(iter(decoded["listings"].values())))
            bundle.write_text(json.dumps(decoded))
        capsys.readouterr()
        assert main(["export", str(bundle), "--out", str(tmp_path / "again")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert len(errors) == 1
        assert message in errors[0]

    def test_subcommands_take_only_the_flags_they_read(self, capsys):
        with pytest.raises(SystemExit):
            main(["export", "bundle.json", "--out", "o", "--jobs", "2"])
        with pytest.raises(SystemExit):
            main(["simulate", "--out", "o", "--epsilon-max", "0.5"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parse_error_surfaces(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"listing_id": 5}\n')
        assert main(["predict", str(bad)]) == 1
        assert "errors" in json.loads(capsys.readouterr().err)
