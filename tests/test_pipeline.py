import hashlib
import importlib
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import everywhere
from gspinfer import auctionlog, inference, pipeline
from gspinfer import cli
from gspinfer.auction import BLOCK_CELLS
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
    predictions_payload,
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


def exported_rollup(summary, artifacts, config, out):
    """The account roll-up as ``export`` writes it: account summary, histogram rows, scatter rows, predictions."""
    export(summary, artifacts, config, str(out))
    account = json.loads((out / "account_summary.json").read_text())
    histogram = [line.split(",") for line in (out / "histogram_delta.csv").read_text().splitlines()[1:]]
    scatter = [line.split(",") for line in (out / "scatter_v_delta.csv").read_text().splitlines()[1:]]
    return account, histogram, scatter, json.loads((out / "predictions.json").read_text())


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

    @pytest.mark.parametrize("lid", ["a/b", "a\u0000b", "x" * 240, "\u00e9" * 120, "a\ud800b"],
                             ids=["slash", "nul", "240-bytes", "240-utf8-bytes", "lone-surrogate"])
    def test_listing_id_that_cannot_name_a_file_rejected(self, tmp_path, lid):
        # export writes nr_boundary_<id>.csv; each of these ids used to fail only there, after artifacts.json
        path = tmp_path / "log.jsonl"
        write_jsonl([dict(micro_fixture_records()[0], listing_id=lid)], path)
        with pytest.raises(ParseError, match="^line 1: listing_id must name a file"):
            ingest(str(path))

    def test_longest_listing_id_names_a_file(self, tmp_path):
        lid = "\u00e9" * 119 + "x"  # 239 UTF-8 bytes: nr_boundary_<id>.csv is 255
        path = tmp_path / "log.jsonl"
        write_jsonl([dict(micro_fixture_records()[0], listing_id=lid)], path)
        config = InferenceConfig(epsilon_max=0.08)
        summary, artifacts = infer_account(ingest(str(path)), config)
        export(summary, artifacts, config, str(tmp_path / "out"))
        assert (tmp_path / "out" / f"nr_boundary_{lid}.csv").is_file()

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


def ingest_outcome(path):
    """``ingest``'s tables, or the line and message of its ParseError."""
    try:
        return ingest(path)
    except ParseError as exc:
        return exc.line, str(exc)


def typed(table):
    """A table's position curves and truth with the type of each number, which table equality does not compare."""
    return [[(type(x), repr(x)) for x in c] for c in table.curves], (type(table.truth), repr(table.truth))


def assert_fast_path_matches_parse_record(path):
    """``ingest`` against ``ingest`` with every record read by ``_parse_record``, the reference.

    Both give equal tables, curves and truth compared by value and type, or the same line and message.
    """
    parse = inspect.unwrap(auctionlog._parse_record)
    with mock.patch.object(auctionlog, "_fast", lambda text: None), mock.patch.object(auctionlog, "_parse_record", parse):
        expected = ingest_outcome(path)
    got = ingest_outcome(path)
    assert got == expected
    if isinstance(got, list):
        assert [typed(t) for t in got] == [typed(t) for t in expected]


# block lengths that put a 3- or 12-line log's lines in several blocks, and the program's own
BLOCK_LENGTHS = st.sampled_from([2, 3, 4, 5, auctionlog.BLOCK_LINES])


class TestIngestFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(fuzzed_records() | JSON_VALUES, min_size=1, max_size=3), block=BLOCK_LENGTHS)
    def test_ingest_yields_histories_or_parse_error(self, records, block):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(auctionlog, "BLOCK_LINES", block):
            path = os.path.join(tmp, "log.jsonl")
            write_jsonl(records, path)
            try:
                histories = ingest(path)
            except ParseError as exc:
                assert exc.line >= 1
            else:
                assert isinstance(histories, list)
            assert_fast_path_matches_parse_record(path)


@cache
def base_log() -> tuple[str, ...]:
    """A valid 12-line log: two listings, three periods of two auctions, three competitors an auction."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        write_histories(tiny_market_histories(seed=11, periods=3), path)
        with open(path, encoding="utf-8") as fh:
            return tuple(fh)


DROP, BAD_JSON, EXTRA_DATA, OVERFLOW = object(), object(), object(), "1e400"  # json.dumps writes inf as Infinity
# every place a base record holds a value (a field, a competitor's field, a position-curve element) and two it may not
PLACES = [(f,) for f in RECORD_FIELDS] + [
    ("competitors", k, f) for k in range(3) for f in ("score", "quality", "bid")] + [
    ("position_curve", 0), ("position_curve", 1), ("surprise",), ("competitors", 1, "surprise")]
# bools, integers and strings for a float; numbers beyond int64 and float64; a nested list; range faults
ODD_VALUES = [True, False, 0, 1, 2, "0.4", 1.5, None, 2**63, -(2**63) - 1, 10**400, OVERFLOW, [0.6], [], -0.2, 1e-7,
              2000.0, DROP, BAD_JSON, EXTRA_DATA]


def mutated_log(order, mutations) -> str:
    """The base log's lines in ``order``, each ``(line, place, value)`` set on the record at that line."""
    records = [json.loads(line) for line in base_log()]
    lines = [None] * len(records)
    for i, (*path, key), value in mutations:
        if value is BAD_JSON or value is EXTRA_DATA:
            lines[i] = '{"listing_id": "L000", "period":\n' if value is BAD_JSON else base_log()[i].strip() + " {}\n"
            continue
        container = records[i]
        try:
            for step in path:
                container = container[step]
            if value is DROP:
                del container[key]
            else:
                container[key] = value
        except (LookupError, TypeError):  # an earlier mutation removed or replaced the place
            pass
    return "".join(lines[i] or json.dumps(records[i]).replace(f'"{OVERFLOW}"', OVERFLOW) + "\n" for i in order)


class TestColumnPass:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(order=st.permutations(range(12)),
           mutations=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(PLACES), st.sampled_from(ODD_VALUES)),
                              max_size=3),
           block=BLOCK_LENGTHS)
    # [1.0, 0.5] on line 1, then [True, 0.5], equal and hashed alike as curve keys: a bool for a float
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(1, ("position_curve", 0), True)])
    # [1, 0.5] on line 1, then [1.0, 0.5]: one float curve
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(0, ("position_curve", 0), 1)])
    # an out-of-range bid on line 3 beats the parse error on line 6
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(2, ("own_bid",), -0.2), (5, ("period",), "x")])
    # a list in a curve, which cannot be a key
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(4, ("position_curve", 1), [0.6])])
    # 2**63 is a truth but no period; past float64, an integer that does not convert and a literal that is inf
    @example(block=auctionlog.BLOCK_LINES, order=range(12),
             mutations=[(3, ("truth_value",), 2**63), (7, ("period",), 2**63)])
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(3, ("competitors", 1, "bid"), 10**400)])
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(3, ("competitors", 1, "bid"), OVERFLOW)])
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(3, ("own_quality",), OVERFLOW)])
    # two finite bids past MAX_MAGNITUDE whose sum overflows: a range fault, read by the fast path
    @example(block=auctionlog.BLOCK_LINES, order=range(12),
             mutations=[(3, ("competitors", 1, "bid"), 1.7e308), (3, ("competitors", 2, "bid"), 1.7e308)])
    # a second value on a line, and a competitor with a fourth field
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(3, ("period",), EXTRA_DATA)])
    @example(block=auctionlog.BLOCK_LINES, order=range(12), mutations=[(3, ("competitors", 1, "surprise"), 0.5)])
    # blocks of 4 lines (1-4, 5-8, 9-12): a type fault in the first, a middle and the last block,
    # on the last line of a block and on the first line of the next
    @example(block=4, order=range(12), mutations=[(1, ("own_bid",), True)])
    @example(block=4, order=range(12), mutations=[(5, ("competitors", 0, "bid"), True)])
    @example(block=4, order=range(12), mutations=[(10, ("period",), 2**63)])
    @example(block=4, order=range(12), mutations=[(3, ("own_quality",), OVERFLOW)])
    @example(block=4, order=range(12), mutations=[(4, ("mainline_cap",), True)])
    # blocks of 5: the fault is on line 12, in the last block, which holds two lines and is moved after the loop
    @example(block=5, order=range(12), mutations=[(11, ("position_curve", 0), True)])
    # blocks of 2: a range fault in the first block beats a type fault five blocks later, and a parse error
    # in a middle block stops the reader with a block half gathered
    @example(block=2, order=range(12), mutations=[(0, ("own_bid",), -0.2), (9, ("own_bid",), True)])
    @example(block=2, order=range(12), mutations=[(2, ("own_bid",), -0.2), (6, ("period",), BAD_JSON)])
    def test_mutated_log_matches_the_walk(self, order, mutations, block):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(auctionlog, "BLOCK_LINES", block):
            path = os.path.join(tmp, "log.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutated_log(order, mutations))
            assert_fast_path_matches_parse_record(path)

    def test_equal_truths_of_either_sign_keep_the_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl([dict(micro_fixture_records()[0], truth_value=t) for t in (0.0, -0.0)], path)
        assert_fast_path_matches_parse_record(str(path))
        assert repr(ingest(str(path))[0].truth) == "0.0"

    @pytest.mark.parametrize("block", [2, 3, auctionlog.BLOCK_LINES])
    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n\n  \n\n"], ids=["empty", "newline", "blank-lines"])
    def test_log_without_records_matches_the_walk(self, tmp_path, block, text):
        path = tmp_path / "log.jsonl"
        path.write_text(text)
        with mock.patch.object(auctionlog, "BLOCK_LINES", block):
            assert ingest(str(path)) == []
            assert_fast_path_matches_parse_record(str(path))


# Ingest's traced peak over the bytes its tables keep, on the 2 x 200 x 10 market below, after one warm-up call:
# 1.60 in the log's own order and with its lines shuffled (1142 KB over 712 KB; numpy 2.4, Python 3.11). The bound
# leaves 22% above that. A second read of the file to name a fault, as ingest once had, measured 1.84; holding the
# whole log's numbers as Python objects until the file is read measured 4.17 and 4.80 (cold).
PEAK_OVER_KEPT = 1.95


def simulated_market(tmp_path, listings, periods, auctions):
    """The seed-1 hedge market of ``listings x periods x auctions`` the memory bounds are measured on."""
    cfg = tmp_path / "market.cfg"
    cfg.write_text(f"listings = {listings}\nperiods = {periods}\nauctions_per_period = {auctions}\nalgorithm = hedge\n"
                   "epsilon_max = 0.5\ngrid_step = 0.01\nposition_curve = [1.0, 0.6, 0.35, 0.2]\nseed = 1\n")
    c = load_config(str(cfg))
    market = MarketSpec(position_curve=tuple(c["position_curve"]))
    return simulate_market(market, build_learners(c), c["periods"], c["auctions_per_period"], 1)


def test_ingest_holds_its_tables_plus_one_block(tmp_path):
    path = str(tmp_path / "log.jsonl")
    write_histories(simulated_market(tmp_path, 2, 200, 10), path)
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = str(tmp_path / "shuffled.jsonl")
    with open(shuffled, "w", encoding="utf-8") as fh:
        fh.writelines(lines[k] for k in np.random.default_rng(0).permutation(len(lines)))
    del lines
    ingest(path)  # what a first call leaves behind would count as kept: the ratio must not hang on test order
    for log in (path, shuffled):
        tracemalloc.start()
        try:
            tables = ingest(log)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, tables)) == 2 * 200 * 10
        assert peak <= PEAK_OVER_KEPT * kept, (log, peak, kept)
        del tables


# build_deviation_curve's traced peak over the bytes of one block of float64 cells (8 * BLOCK_CELLS), on the
# markets below: the per-cell kernel, which priced every (auction, bid) cell of a block at once, read 17.07 and
# 17.03 (numpy 2.4, Python 3.11); the bound leaves 17% above the larger. The threshold-state sweep reads 15.1
# and 7.9: a sweep prices at most BLOCK_CELLS // 2 states, and larger sweeps read 26 and more on the first.
CURVE_PEAK_OVER_BLOCK = 20.0


@pytest.mark.parametrize("shape, grid_step", [((2, 200, 10), None), ((1, 50, 4), 0.004)])
def test_curve_holds_a_bounded_working_set(tmp_path, shape, grid_step):
    grid = InferenceConfig(grid_step=grid_step).bid_grid()
    build = inspect.unwrap(pipeline.build_deviation_curve)  # without the suite's oracle around it
    for history in simulated_market(tmp_path, *shape):
        tracemalloc.start()
        try:
            build(history, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CURVE_PEAK_OVER_BLOCK * 8 * BLOCK_CELLS, (shape, len(grid), peak)


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
        assert predictions_payload(artifacts)[0]["shading_ratio"] == pytest.approx(0.51 / art.prediction.v_star)

    def test_boundary_csv_row_at_point_prediction(self, tmp_path):
        path = tmp_path / "micro.jsonl"
        write_jsonl(micro_fixture_records(), path)
        histories = ingest(str(path))
        config = InferenceConfig(bid_max=1.0, grid_step=0.01, epsilon_max=0.08, boundary_samples=141)
        summary, artifacts = infer_account(histories, config)
        out = tmp_path / "out"
        export(summary, artifacts, config, str(out))
        rows = (out / "nr_boundary_L0.csv").read_text().strip().splitlines()
        v, eps = rows[71].split(",")  # header + 70 rows before v=0.7
        assert float(v) == pytest.approx(0.7, abs=1e-9)
        assert float(eps) == pytest.approx(0.01, abs=1e-9)

    @pytest.mark.parametrize("knob", [{"boundary_samples": 1}, {"histogram_bucket_width": 0.0}])
    def test_a_config_export_could_not_use_cannot_be_made(self, tmp_path, knob):
        # one boundary sample would divide by zero, and a zero bucket width raised ZeroDivisionError after the
        # boundary CSVs and predictions.json were written; replace() refuses either config, so export never runs
        config = InferenceConfig(grid_step=0.1)
        summary, artifacts = infer_account(tiny_market_histories(seed=17), config)
        with pytest.raises(InferenceError):
            export(summary, artifacts, replace(config, **knob), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestAccountSummary:
    @pytest.mark.parametrize("width", [0.3, 0.4, 0.7, 0.07])
    def test_bucket_edges_end_at_one_when_the_width_does_not_divide_it(self, width):
        # the last bucket counts every delta* up to 1, so its upper edge is 1.0
        edges = InferenceConfig(histogram_bucket_width=width).bucket_edges()
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
        config = InferenceConfig(grid_step=0.05, epsilon_max=1.0, value_cap=2.0)
        summary, artifacts = infer_account(histories, config)
        account, histogram, scatter, _ = exported_rollup(summary, artifacts, config, tmp_path / "out")
        assert summary.listing_count == 3
        assert account["nonpositive_count"] == 3 and histogram[0] == ["-inf", "0.0", "3"]
        assert sum(account["histogram_counts"]) == 0 and all(row[2] == "0" for row in histogram[1:])
        assert account["scatter_count"] == 0 and scatter == []

    def test_learning_listings_spread_and_conserve(self, tmp_path):
        histories = tiny_market_histories(seed=29, periods=10, listings=4)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        account, histogram, scatter, predictions = exported_rollup(summary, artifacts, config, tmp_path / "out")
        assert summary.listing_count == 4
        assert account["nonpositive_count"] + sum(account["histogram_counts"]) == 4
        assert [int(row[2]) for row in histogram] == [account["nonpositive_count"], *account["histogram_counts"]]
        # mid-training hedge listings carry positive error mass (pinned seed)
        assert len(scatter) >= 1 and account["scatter_count"] == len(scatter)
        above = {lid for lid, v, d in scatter}
        assert scatter == [[p["listing_id"], repr(p["v_star"]), repr(p["delta_star"])]
                           for p in predictions if p["listing_id"] in above]
        for lid, art in artifacts.items():
            if art.prediction.delta_star > config.learning_threshold:
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


def run_python(code: str, *argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """``python -c code argv`` in a fresh interpreter that imports this gspinfer, with ``stdin`` on a pipe."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, env=env, capture_output=True, check=False)


def loaded_after(statement: str, names: set[str]) -> str:
    """The sorted list of ``names`` a fresh interpreter has in ``sys.modules`` after ``statement``, as printed."""
    out = run_python(f"import sys; {statement}; print(sorted(set({sorted(names)!r}) & set(sys.modules)))")
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout.decode().strip()


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


# gspinfer's command line, for run_python: its arguments follow the code
CLI = "import sys; from gspinfer.cli import main; sys.exit(main(sys.argv[1:]))"
# a shape fault and a type fault on line 4 of a piped log; a log on a pipe can be read only once
PIPED_FAULTS = {"shape": ("competitors", {}), "type": ("own_bid", True)}


@pytest.mark.parametrize("fault", sorted(PIPED_FAULTS))
@pytest.mark.parametrize("command", ["predict", "infer"])
def test_piped_log_with_a_malformed_line_exits_with_its_line(tmp_path, command, fault):
    # ingest used to open the log again to name the fault, found a drained pipe and read no listing
    log = tmp_path / "log.jsonl"
    write_histories(tiny_market_histories(seed=17), str(log))
    lines = log.read_text().splitlines(keepends=True)
    field, value = PIPED_FAULTS[fault]
    lines[3] = json.dumps(dict(json.loads(lines[3]), **{field: value})) + "\n"
    out = tmp_path / "o"
    done = run_python(CLI, command, "/dev/stdin", "--grid-step", "0.1",
                      *(["--out", str(out)] if command == "infer" else []), stdin="".join(lines).encode())
    assert done.returncode == 1 and done.stdout == b"" and not out.exists(), (done.returncode, done.stdout)
    errors = json.loads(done.stderr)["errors"]
    assert len(errors) == 1 and errors[0].startswith(f"line 4: {field}")


def test_piped_log_gives_the_predictions_of_the_file(tmp_path):
    log = tmp_path / "log.jsonl"
    write_histories(tiny_market_histories(seed=17), str(log))
    assert main(["infer", str(log), "--grid-step", "0.1", "--out", str(tmp_path / "file")]) == 0
    expected = (tmp_path / "file" / "predictions.json").read_bytes()
    done = run_python(CLI, "infer", "/dev/stdin", "--grid-step", "0.1", "--out", str(tmp_path / "pipe"),
                      stdin=log.read_bytes())
    assert done.returncode == 0 and (tmp_path / "pipe" / "predictions.json").read_bytes() == expected
    done = run_python(CLI, "predict", "/dev/stdin", "--grid-step", "0.1", stdin=log.read_bytes())
    assert done.returncode == 0 and done.stdout == expected


def test_package_import_loads_no_submodule():
    names = {f"gspinfer.{m}" for m in ("auction", "auctionlog", "inference", "pipeline", "simulate", "geometry", "cli")}
    assert loaded_after("import gspinfer", names | {"numpy"}) == "[]"


def test_package_namespace_resolves_each_public_name_from_its_module():
    import gspinfer

    for modname in ("auction", "auctionlog", "inference", "pipeline", "simulate", "geometry"):
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
        files1 = export(summary, artifacts, config, str(out1))
        files2 = export(summary, artifacts, config, str(out2))
        for f1, f2 in zip(files1, files2):
            assert Path(f1).read_bytes() == Path(f2).read_bytes()


class TestBundleCodec:
    def test_numpy_scalar_curve_exports_the_same_bytes(self, tmp_path, monkeypatch):
        # v* is derived from the baselines and written with repr: a numpy
        # scalar there would print as np.float64(...) in scatter_v_delta.csv
        histories = tiny_market_histories(seed=55)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        assert any(art.prediction.delta_star > config.learning_threshold for art in artifacts.values())
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
        files = export(summary, artifacts, config, str(tmp_path / "a"))
        files_np = export(summary_np, artifacts_np, config, str(tmp_path / "b"))
        assert [os.path.basename(f) for f in files] == [os.path.basename(f) for f in files_np]
        for f, f_np in zip(files, files_np):
            assert Path(f).read_bytes() == Path(f_np).read_bytes(), f

    @staticmethod
    def account(tmp_path):
        """A summary with errors, its artifacts (some in the scatter, each with a shading ratio) and config."""
        # a listing whose every deviation loses clicks fails and is kept under errors
        solo = dict(micro_fixture_records()[0], listing_id="Z9", own_bid=1.0, competitors=[],
                    position_curve=[1.0], rank_reserve=0.0, mainline_reserve=0.0)
        path = tmp_path / "solo.jsonl"
        write_jsonl([solo], path)
        histories = tiny_market_histories(seed=7, listings=3) + ingest(str(path))
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        payload = predictions_payload(artifacts)
        assert summary.errors and all(p["shading_ratio"] for p in payload)
        assert any(p["delta_star"] > config.learning_threshold for p in payload)
        return summary, artifacts, config

    def test_no_numpy_value_reaches_an_output(self, tmp_path):
        # a numpy int among the violation sites makes json.dumps raise, and a
        # numpy float prints as np.float64(...) in the CSVs
        summary, artifacts, config = self.account(tmp_path)
        assert any(art.region.assumptions.violation_sites and art.prediction.delta_star > config.learning_threshold
                   for art in artifacts.values())

        def leaves(x):
            if isinstance(x, dict):
                x = [*x.keys(), *x.values()]
            if isinstance(x, (list, tuple)):
                for y in x:
                    yield from leaves(y)
            else:
                yield x

        outputs = (artifacts_to_json(summary, artifacts, config), predictions_payload(artifacts))
        assert {type(x) for x in leaves(outputs)} <= {int, float, str, bool, type(None)}
        # the boundary rows export renders from each curve, where a numpy float would print as np.float64(...)
        export(summary, artifacts, config, str(tmp_path / "out"))
        for lid in artifacts:
            rows = (tmp_path / "out" / f"nr_boundary_{lid}.csv").read_text().splitlines()
            assert rows[0] == "v,epsilon" and len(rows) == 1 + config.boundary_samples
            for row in rows[1:]:
                v, e = row.split(",")
                assert repr(float(v)) == v and repr(float(e)) == e

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
        account = self.account(tmp_path)
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


class TestWritesReplaceWholeFiles:
    def test_write_that_raises_part_way_leaves_no_file(self, tmp_path):
        def rows():
            for k in range(10_000):  # past the file buffer, so part of the file has reached the disk
                yield [k, "x" * 50]
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            pipeline._write_csv(str(tmp_path / "rows.csv"), ["k", "text"], rows())
        with pytest.raises(TypeError):
            pipeline._json_dump({"a": 1, "b": object()}, str(tmp_path / "out.json"))
        assert os.listdir(tmp_path) == []

    def test_write_that_raises_part_way_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        pipeline._write_csv(str(path), ["k"], [[1], [2]])
        before = path.read_bytes()

        def rows():
            yield from ([k] for k in range(10_000))
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError):
            pipeline._write_csv(str(path), ["k"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_predict_out_writes_through_a_symlink(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main(["predict", str(log), "--grid-step", "0.1"]) == 0
        expected = capsys.readouterr().out.encode()
        (tmp_path / "target").mkdir()
        target, link = tmp_path / "target" / "pred.json", tmp_path / "pred.json"
        target.write_text("old")
        link.symlink_to(target)
        assert main(["predict", str(log), "--grid-step", "0.1", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl", "pred.json", "target"]
        assert os.listdir(tmp_path / "target") == ["pred.json"]


class TestEmptyAccountExport:
    def test_zero_listings_still_produce_valid_files(self, tmp_path):
        files = export(AccountSummary(listing_count=0), {}, InferenceConfig(), str(tmp_path / "out"))
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
        # too deep for json.loads, which raises RecursionError, not a decode error: it escaped as a traceback
        pytest.param("position_curve", "[" * 100_000 + "]" * 100_000, id="position_curve-nested-too-deep"),
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
        # The artifacts.json pin is the bundle without the roll-ups export computes.
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
            "artifacts.json": "31a4618ef84128cc31c89c09b4d8e90f0550c1ef59863589d3f39deb6d2b325e",
        }

    def test_predict_samples_no_boundary(self, tmp_path, capsys):
        # predict writes no boundary CSV, so the boundary queries it makes do not grow with boundary_samples
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        counts = []
        for samples in (2, 1001):
            cfg = tmp_path / "cfg"
            cfg.write_text(f"grid_step = 0.1\nboundary_samples = {samples}\n")
            calls = []
            query = inference.boundary

            def counted(curve, v):
                calls.append(v)
                return query(curve, v)

            with everywhere(query, counted):
                assert main(["predict", "--config", str(cfg), str(log)]) == 0
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] < 1001

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

    # market -> (config lines, seed, whether a listing that fails is appended to the simulated log):
    # the two markets pinned above, and one with a failed listing and a roll-up on non-default knobs
    PIN_MARKETS = {
        "fine-grid": ("listings = 1\nperiods = 20\nauctions_per_period = 3\ngrid_step = 0.004\n", 5, False),
        "two-learners": ("listings = 2\nperiods = 30\nauctions_per_period = 10\n", 3, False),
        "failed-listing": ("listings = 3\nperiods = 12\nauctions_per_period = 2\ngrid_step = 0.05\n"
                           "histogram_bucket_width = 0.07\nlearning_threshold = 0.05\n", 9, True),
    }
    # market -> output -> sha256: every file infer writes, every file export writes from its
    # artifacts.json (export/<name>), and predict's stdout
    OUTPUT_PINS = {
        "fine-grid": {
            "account_summary.json": "94c56541691495defd780d84d7d63fa44c4312758e1669fa99e04dba449a37ef",
            "artifacts.json": "31a4618ef84128cc31c89c09b4d8e90f0550c1ef59863589d3f39deb6d2b325e",
            "histogram_delta.csv": "a6e0146711c54cceba61b6f5cc93fc50ee03e248dd465e425c5a5d47f170f893",
            "nr_boundary_L000.csv": "026fc1425a998490ba27adb31f42fab89aa56176094e0f9fbc3822b001e0e5c9",
            "predictions.json": "356f294afd10806e3eb220b4b8a40ec3d06889018dece45a0b2a239433b35be6",
            "scatter_v_delta.csv": "d350aabf4f92e6619d15d54b9ab38fd1fa013ea0e1c051235bf7f723595a2599",
            "export/account_summary.json": "94c56541691495defd780d84d7d63fa44c4312758e1669fa99e04dba449a37ef",
            "export/histogram_delta.csv": "a6e0146711c54cceba61b6f5cc93fc50ee03e248dd465e425c5a5d47f170f893",
            "export/nr_boundary_L000.csv": "026fc1425a998490ba27adb31f42fab89aa56176094e0f9fbc3822b001e0e5c9",
            "export/predictions.json": "356f294afd10806e3eb220b4b8a40ec3d06889018dece45a0b2a239433b35be6",
            "export/scatter_v_delta.csv": "d350aabf4f92e6619d15d54b9ab38fd1fa013ea0e1c051235bf7f723595a2599",
            "predict stdout": "356f294afd10806e3eb220b4b8a40ec3d06889018dece45a0b2a239433b35be6",
        },
        "two-learners": {
            "account_summary.json": "63c5adb4805706689b63a944b0816af99e3fd7fd31fca619266db24b9ff7962c",
            "artifacts.json": "c61ea2773f3e0927b8f74855de7a9821a718329e571674531d43f6834def71f9",
            "histogram_delta.csv": "e164fa44edf3f35d9a42641484703122a4f18f710ef8842dd13927df5e2e7560",
            "nr_boundary_L000.csv": "47ad14867834a0c2fd972a440aa352a0daa4785d796ba8f93a14822d878c33de",
            "nr_boundary_L001.csv": "7c798e6860d10e7d111650eb538a4e1c828914d3d548f003c8d1095c1ff75e5d",
            "predictions.json": "d7102c78393ac609df5884a70588f7711b1943556ee4e72b74644ac468cea41c",
            "scatter_v_delta.csv": "3ff3a14ad49cdd5c6c7485f80d0e88a4ee95bafea3b88799ed99178fd20150bd",
            "export/account_summary.json": "63c5adb4805706689b63a944b0816af99e3fd7fd31fca619266db24b9ff7962c",
            "export/histogram_delta.csv": "e164fa44edf3f35d9a42641484703122a4f18f710ef8842dd13927df5e2e7560",
            "export/nr_boundary_L000.csv": "47ad14867834a0c2fd972a440aa352a0daa4785d796ba8f93a14822d878c33de",
            "export/nr_boundary_L001.csv": "7c798e6860d10e7d111650eb538a4e1c828914d3d548f003c8d1095c1ff75e5d",
            "export/predictions.json": "d7102c78393ac609df5884a70588f7711b1943556ee4e72b74644ac468cea41c",
            "export/scatter_v_delta.csv": "3ff3a14ad49cdd5c6c7485f80d0e88a4ee95bafea3b88799ed99178fd20150bd",
            "predict stdout": "d7102c78393ac609df5884a70588f7711b1943556ee4e72b74644ac468cea41c",
        },
        "failed-listing": {
            "account_summary.json": "17447e46c70c47d3426071f625425b1b3a3ee65c2df1502b0e3630b5ecc70ac9",
            "artifacts.json": "9212eeb2a67895afaaf6d65f2e84b1c151734eaefff0fc88f27f8b3ef80a694a",
            "histogram_delta.csv": "9217364a0abf085dd79b589bd982945866cc6616990a8cc9e6ac6e0adfc128a3",
            "nr_boundary_L000.csv": "3e152e2900f0030d5a4d3982fc2b2c37f65f8e7af7cbd8ad3e05042df14d45d4",
            "nr_boundary_L001.csv": "fd0a8e7a5a8d8acdea6fd0be1faf0f952d6b2eec41981af7b9545b00ceb0f01f",
            "nr_boundary_L002.csv": "b07abbe8765201d2eb73a87d6a940f57992db6500a3f807a59907f20acff008a",
            "predictions.json": "8165298693ce4abf91078cea4ab63a810955262f8f9346d5ee770719143447ad",
            "scatter_v_delta.csv": "c2052d6b0af8f4b978716832b84b116356ed22be29cb64bba57a0e7a791efb2a",
            "export/account_summary.json": "17447e46c70c47d3426071f625425b1b3a3ee65c2df1502b0e3630b5ecc70ac9",
            "export/histogram_delta.csv": "9217364a0abf085dd79b589bd982945866cc6616990a8cc9e6ac6e0adfc128a3",
            "export/nr_boundary_L000.csv": "3e152e2900f0030d5a4d3982fc2b2c37f65f8e7af7cbd8ad3e05042df14d45d4",
            "export/nr_boundary_L001.csv": "fd0a8e7a5a8d8acdea6fd0be1faf0f952d6b2eec41981af7b9545b00ceb0f01f",
            "export/nr_boundary_L002.csv": "b07abbe8765201d2eb73a87d6a940f57992db6500a3f807a59907f20acff008a",
            "export/predictions.json": "8165298693ce4abf91078cea4ab63a810955262f8f9346d5ee770719143447ad",
            "export/scatter_v_delta.csv": "c2052d6b0af8f4b978716832b84b116356ed22be29cb64bba57a0e7a791efb2a",
            "predict stdout": "8165298693ce4abf91078cea4ab63a810955262f8f9346d5ee770719143447ad",
        },
    }

    @pytest.mark.parametrize("market", list(PIN_MARKETS))
    def test_every_output_matches_its_pin(self, tmp_path, capsys, market):
        lines, seed, failing = self.PIN_MARKETS[market]
        cfg = tmp_path / "cfg"
        cfg.write_text(lines)
        log = tmp_path / "log.jsonl"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(log)]) == 0
        if failing:  # a lone bidder at bid 1.0 already takes the top slot, so no deviation gains clicks
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(micro_fixture_records()[0], listing_id="Z", own_bid=1.0, competitors=[])) + "\n")
        out = tmp_path / "out"
        assert main(["infer", "--config", str(cfg), str(log), "--out", str(out)]) == 0
        assert main(["export", str(out / "artifacts.json"), "--out", str(tmp_path / "export")]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), str(log)]) == 0
        stdout = capsys.readouterr().out.encode()
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        digests.update({f"export/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (tmp_path / "export").iterdir()})
        digests["predict stdout"] = hashlib.sha256(stdout).hexdigest()
        assert digests == self.OUTPUT_PINS[market]

    BAD_GRID_STEPS = ["0", "-0.01", "1.5", "nan", "1e-6"]

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("step", BAD_GRID_STEPS)
    def test_bad_grid_step_exits_with_error_list(self, tmp_path, capsys, command, step):
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        assert main([command, str(log), "--grid-step", step, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("grid step must lie in (0, bid_max]")
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["infer", "predict"])
    def test_a_log_error_is_named_before_a_config_error(self, tmp_path, capsys, command):
        # the log is read before the config is made, and so checked
        assert main([command, str(tmp_path / "missing.jsonl"), "--grid-step", "0", "--out", str(tmp_path / "o")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert len(errors) == 1 and "missing.jsonl" in errors[0]

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

    @pytest.mark.parametrize("command", ["simulate", "infer", "predict", "rate-study"])
    def test_config_nested_too_deep_exits_with_error_list(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"position_curve = {'[' * 100_000}{']' * 100_000}\n")
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        args = [str(log)] if command in ("infer", "predict") else []
        assert main([command, "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        errors = json.loads(captured.err)["errors"]
        assert len(errors) == 1 and errors[0].startswith(f"{cfg}:1: bad value for 'position_curve'")
        assert captured.out == "" and not (tmp_path / "o").exists()

    BAD_BUCKET_WIDTHS = ["0", "-0.05", "NaN", "1.5", "1e-300", "5e-5"]

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("width", BAD_BUCKET_WIDTHS)
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

    # each bad inference value the commands above refuse, but jobs, which only infer_account reads
    @pytest.mark.parametrize("line, start", [
        *((line, start) for line, start in BAD_INFERENCE_CONFIG.items() if not line.startswith("jobs")),
        *((f"grid_step = {step}", "grid step must lie in (0, bid_max]") for step in BAD_GRID_STEPS),
        *((f"histogram_bucket_width = {w}", "histogram_bucket_width must lie in (0, 1]") for w in BAD_BUCKET_WIDTHS),
        ("bid_max = 2000", "bid_max must lie in (0, 1000]"),
    ])
    def test_bad_inference_value_refuses_the_config_itself(self, line, start):
        # a config that exists is valid, so no caller has to check one again
        key, _, value = line.partition(" = ")
        with pytest.raises(InferenceError) as caught:
            InferenceConfig(**{key: int(value) if key == "boundary_samples" else float(value)})
        assert str(caught.value).startswith(start)

    def test_each_command_builds_its_grid_once(self, tmp_path, capsys):
        # checking a config builds no grid beyond the one the command runs on
        cfg = tmp_path / "cfg"
        cfg.write_text("listings = 2\nperiods = 4\nauctions_per_period = 2\ngrid_step = 0.1\n")
        log, out = tmp_path / "log.jsonl", tmp_path / "out"
        commands = {
            "simulate": ["simulate", "--config", str(cfg), "--out", str(log)],
            "infer": ["infer", str(log), "--config", str(cfg), "--out", str(out)],
            "export": ["export", str(out / "artifacts.json"), "--out", str(tmp_path / "export")],
            "predict": ["predict", str(log), "--config", str(cfg)],
        }
        build, builds = pipeline.default_bid_grid, {}

        def counted(*args):
            builds[command] += 1
            return build(*args)

        for command, argv in commands.items():
            builds[command] = 0
            with everywhere(build, counted):
                assert main(argv) == 0
        assert builds == {"simulate": 1, "infer": 1, "export": 1, "predict": 1}

    def test_pickled_config_keeps_its_grid(self):
        # an equivalence: a --jobs worker runs on the grid of the config it unpickles
        config = InferenceConfig(grid_step=0.004)
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and copy.bid_grid() == config.bid_grid() and len(copy.bid_grid()) == 251

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
        # at or below the fixed market's boundary height at v = 0, the true region has no cap to meet
        "rate_eps_cap = 0.045": "rate_eps_cap must be finite and exceed 0.045",
        "rate_eps_cap = 1e-12": "rate_eps_cap must be finite and exceed 0.045",
        # above it, but below the height one sample's draws gave: it exited 1 mid-study naming no key
        "rate_eps_cap = 0.0451\nrate_sample_sizes = [200, 400, 800]": (
            "rate_eps_cap must exceed the boundary height at v = 0, 0.0567028 (got 0.0451), "
            "in replication 1 of sample size 200"),
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

    @pytest.mark.parametrize("lid", ["a/b", "a\u0000b", "x" * 300], ids=["slash", "nul", "300-bytes"])
    def test_listing_id_that_cannot_name_a_file_exits_before_any_output(self, tmp_path, capsys, lid):
        # each used to end partway through export, leaving artifacts.json and no predictions.json
        log = tmp_path / "bad.jsonl"
        write_jsonl([dict(micro_fixture_records()[0], listing_id=lid)], log)
        assert main(["infer", str(log), "--out", str(tmp_path / "o")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert len(errors) == 1 and errors[0].startswith("line 1: listing_id must name a file")
        assert not (tmp_path / "o").exists()

    # damage -> (edit of the decoded bundle, or None for a text edit; expected message)
    BUNDLE_DAMAGE = {
        "empty-object": (None, "KeyError: 'summary'"),
        "truncated": (None, "not a JSON bundle"),
        "one-integer-v-interval": (
            lambda b, lst: lst["prediction"].update(v_interval=[1]), "expected a list of 2, got [1]"),
        "string-bucket-width": (
            lambda b, lst: b["config"].update(histogram_bucket_width="0.05"), "expected float, got '0.05'"),
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
        "bool-count": (lambda b, lst: b["summary"].update(listing_count=True), "expected int, got True"),
        "float-config-count": (
            lambda b, lst: b["config"].update(boundary_samples=201.0), "expected int, got 201.0"),
        "surprise-in-prediction": (
            lambda b, lst: lst["prediction"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-region": (lambda b, lst: lst["region"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-listing": (lambda b, lst: lst.update(surprise=1), "unexpected key 'surprise'"),
        "id-in-listing": (lambda b, lst: lst.update(listing_id="L000"), "unexpected key 'listing_id'"),
        "surprise-at-top": (lambda b, lst: b.update(surprise=1), "unexpected key 'surprise'"),
        # the roll-ups export computes from the predictions, and the region's copy of epsilon_max
        "old-histogram-counts": (
            lambda b, lst: b["summary"].update(histogram_counts=[0] * 20), "unexpected key 'histogram_counts'"),
        "old-nonpositive-count": (
            lambda b, lst: b["summary"].update(nonpositive_count=0), "unexpected key 'nonpositive_count'"),
        "old-scatter": (lambda b, lst: b["summary"].update(scatter=[]), "unexpected key 'scatter'"),
        "old-shading-ratios": (lambda b, lst: b["summary"].update(shading_ratios={}), "unexpected key 'shading_ratios'"),
        "old-shading-ratio": (lambda b, lst: lst.update(shading_ratio=0.5), "unexpected key 'shading_ratio'"),
        "old-epsilon-cap": (lambda b, lst: lst["region"].update(epsilon_cap=1.0), "unexpected key 'epsilon_cap'"),
        # a bundle that still holds the rendered boundary samples, which export now computes from the curve
        "old-region-boundary": (
            lambda b, lst: lst["region"].update(boundary=[[0.0, 0.15], [1.4, 0.08]]), "unexpected key 'boundary'"),
        # the config's copies of the roll-up's knobs
        "old-bucket-width": (lambda b, lst: b["summary"].update(bucket_width=0.05), "unexpected key 'bucket_width'"),
        "old-learning-threshold": (
            lambda b, lst: b["summary"].update(learning_threshold=1e-4), "unexpected key 'learning_threshold'"),
        # values export computes with, checked before it runs
        "zero-bucket-width": (
            lambda b, lst: b["config"].update(histogram_bucket_width=0), "histogram_bucket_width must lie in (0, 1]"),
        "tiny-bucket-width": (
            lambda b, lst: b["config"].update(histogram_bucket_width=1e-300), "histogram_bucket_width must lie in (0, 1]"),
        "negative-bucket-width": (
            lambda b, lst: b["config"].update(histogram_bucket_width=-0.05), "histogram_bucket_width must lie in (0, 1]"),
        "huge-delta-star": (
            lambda b, lst: lst["prediction"].update(delta_star=1e308), "delta_star must lie in [0, 1]"),
        "negative-delta-star": (
            lambda b, lst: lst["prediction"].update(delta_star=-0.5), "delta_star must lie in [0, 1]"),
        "slash-listing-id": (
            lambda b, lst: b["listings"].update({"a/b": b["listings"].pop(next(iter(b["listings"])))}),
            "listing_id must name a file"),
        "long-listing-id": (
            lambda b, lst: b["listings"].update({"x" * 300: b["listings"].pop(next(iter(b["listings"])))}),
            "listing_id must name a file"),
        "miscounted-listings": (
            lambda b, lst: b["summary"].update(listing_count=3), "listing_count 3 but 2 listings"),
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

    @pytest.mark.parametrize("command", ["infer", "export"])
    def test_out_holding_another_listings_boundary_is_refused(self, tmp_path, capsys, command):
        # each used to write beside the first run's nr_boundary_L001.csv, so the boundary files in the
        # directory no longer named the run's listings
        log = tmp_path / "log.jsonl"
        write_histories(tiny_market_histories(seed=17), str(log))
        out = tmp_path / "out"
        assert main(["infer", str(log), "--grid-step", "0.1", "--out", str(out)]) == 0
        renamed = tmp_path / "renamed.jsonl"
        renamed.write_text(log.read_text().replace('"L001"', '"Z001"'))
        args = ["infer", str(renamed), "--grid-step", "0.1", "--out", str(out)]
        if command == "export":
            assert main([*args[:-1], str(tmp_path / "other")]) == 0
            args = ["export", str(tmp_path / "other" / "artifacts.json"), "--out", str(out)]
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"errors": [
            f"{out / 'nr_boundary_L001.csv'} is the boundary of a listing this run does not export; "
            "remove it or choose another output directory"]}
        assert captured.out == "" and {path.name: path.read_bytes() for path in out.iterdir()} == before
        # the same listings may be written again
        assert main(["infer", str(log), "--grid-step", "0.1", "--out", str(out)]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

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
