import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gspinfer import pipeline
from gspinfer.cli import CONFIG_KEYS, ConfigError, build_learners, load_config, main
from gspinfer.inference import DeviationCurve
from gspinfer.pipeline import (
    AccountSummary,
    InferenceConfig,
    ParseError,
    artifacts_from_json,
    artifacts_to_json,
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
    default_bid_grid,
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
        histories = [
            type(h)(listing_id=h.listing_id, periods=h.periods[1:], truth=h.truth)
            for h in histories
        ]
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

    def test_parallel_jobs_match_serial(self):
        histories = tiny_market_histories(seed=3, periods=8, listings=3)
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        s1, a1 = infer_account(histories, config, jobs=1)
        s2, a2 = infer_account(histories, config, jobs=2)
        assert s1 == s2
        assert a1 == a2


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

    def test_round_trip_restores_objects(self, tmp_path):
        # a listing whose every deviation loses clicks fails and is kept under errors
        solo = dict(micro_fixture_records()[0], listing_id="Z9", own_bid=1.0, competitors=[],
                    position_curve=[1.0], rank_reserve=0.0, mainline_reserve=0.0)
        path = tmp_path / "solo.jsonl"
        write_jsonl([solo], path)
        histories = tiny_market_histories(seed=7, listings=3) + ingest(str(path))
        config = InferenceConfig(grid_step=0.1, epsilon_max=1.0)
        summary, artifacts = infer_account(histories, config)
        assert summary.scatter and summary.shading_ratios and summary.errors
        bundle = json.loads(json.dumps(artifacts_to_json(summary, artifacts, config)))
        assert artifacts_from_json(bundle) == (summary, artifacts, config)


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
        cfg = load_config(None)
        assert cfg["epsilon_max"] == 1.0 and cfg["jobs"] == 1

    @pytest.mark.parametrize("step", [0.01, 0.004, 0.05, 0.06, 0.15])
    def test_learners_bid_on_the_inference_grid(self, step):
        # simulate's learners and infer's replay use one grid, ending at or below bid_max
        cfg = {**load_config(None), "grid_step": step, "listings": 1}
        grid = build_learners(cfg)[0].config.bid_grid
        assert grid == InferenceConfig(grid_step=step).bid_grid()
        assert grid[-1] <= cfg["bid_max"]

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
        assert cfg["position_curve"] == [1.0, 0.7]
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
                assert set(cfg) == set(CONFIG_KEYS)


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
            "predictions.json": "fac06b1109f3bbf31a05cb7ec8cb64258ad66f6a98d6ec6d70caa7be342f9429",
            "artifacts.json": "185454eb378f7b68a6d5acacbf0a2083348c48bca45219eb43f81eaa31cdd209",
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
            "predictions.json": "eb2934a3cdae34a791f34c3bfb5fbbc1cb6f532b819133cbb84d6baa4d14032d",
        }

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("step", ["0", "-0.01", "1.5"])
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

    def test_rate_study_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("rate_sample_sizes = [1000, 2000, 4000]\nrate_replications = 2\n")
        out = tmp_path / "rs"
        assert main(["rate-study", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_study.csv").exists()
        summary = json.loads((out / "rate_study_summary.json").read_text())
        assert "slope" in summary and summary["gamma_target"] == pytest.approx(1 / 3)

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
        "bool-count": (lambda b, lst: b["summary"].update(nonpositive_count=True), "expected int, got True"),
        "float-config-count": (
            lambda b, lst: b["config"].update(boundary_samples=201.0), "expected int, got 201.0"),
        "surprise-in-prediction": (
            lambda b, lst: lst["prediction"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-region": (lambda b, lst: lst["region"].update(surprise=1), "unexpected key 'surprise'"),
        "surprise-in-listing": (lambda b, lst: lst.update(surprise=1), "unexpected key 'surprise'"),
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
