"""The benchmark under ``perfbench/`` still finds every name it imports or wraps.

The bench's checks import oracles from ``gspinfer``, the bench and its checks
read keys of ``artifacts.json``, and its tracer wraps entry points by name, so
a rename in ``src/`` fails here rather than in a bench run. The files under
``perfbench/`` are only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import gspinfer.auction
from gspinfer.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """``perfbench/<name>.py`` as a module of its own, off ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checks_import():
    assert load("checks").Tally


def test_tracer_wraps_every_entry_point_and_puts_them_back():
    tracer = load("tracer")
    sweep = gspinfer.auction.DeviationSweep
    try:
        missing = tracer.install(tracer.Tracer())
        assert gspinfer.auction.DeviationSweep is not sweep
    finally:
        tracer.uninstall()
    assert missing == []
    assert gspinfer.auction.DeviationSweep is sweep


@pytest.fixture(scope="module")
def infer_run(tmp_path_factory):
    """A small simulated log and the ``artifacts.json`` bundle ``infer`` writes for it."""
    tmp = tmp_path_factory.mktemp("bench_names")
    cfg, log, out = tmp / "cfg", tmp / "log.jsonl", tmp / "out"
    cfg.write_text("listings = 2\nperiods = 12\nauctions_per_period = 3\ngrid_step = 0.1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(log)]) == 0
    assert main(["infer", str(log), "--config", str(cfg), "--out", str(out)]) == 0
    return log, json.loads((out / "artifacts.json").read_text())


def test_infer_bundle_holds_the_keys_the_bench_reads(infer_run):
    _, bundle = infer_run
    summary = bundle["summary"]
    assert isinstance(summary["errors"], list) and isinstance(summary["listing_count"], int)
    assert summary["listing_count"] == len(bundle["listings"]) == 2
    for listing in bundle["listings"].values():
        assert len(listing["curve"]["grid"]) == 11
        assert isinstance(listing["prediction"]["iterations"], int)


def test_bench_checks_pass_on_an_infer_bundle_and_fail_on_a_corrupted_one(infer_run):
    checks = load("checks")
    log, bundle = infer_run
    auctions, cells = checks.read_log(str(log)), checks.sample_cells(bundle, 1, 8)
    clean, bad = checks.Tally(), checks.Tally()
    checks.check_bundle(clean, bundle, auctions, cells)
    checks.check_bundle(bad, checks.corrupt(bundle, cells), auctions, cells)
    assert clean.attempted > 0 and clean.failures == []
    assert bad.failed >= 1
