"""The benchmark under ``perfbench/`` still finds every name it imports or wraps.

The bench's checks import oracles from ``gspinfer`` and its tracer wraps entry
points by name, so a rename in ``src/`` fails here rather than in a bench run.
The files under ``perfbench/`` are only read.
"""

import importlib.util
from pathlib import Path

import gspinfer.auction

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
