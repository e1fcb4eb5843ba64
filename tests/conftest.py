import functools
import sys

import pytest

from gspinfer import auctionlog, inference


@pytest.fixture(scope="session", autouse=True)
def column_pass_reads_every_well_formed_log():
    """Every log a test ingests whose records are well-formed is read by the column pass alone.

    ``ingest`` walks the records only when the column pass finds a fault; a walk
    that then finds none means the column pass rejected a log it should read.
    """
    walk = auctionlog._walk

    @functools.wraps(walk)
    def checked_walk(path):
        tables, error = walk(path)
        assert error is not None, f"the column pass rejected {path}, whose records are well-formed"
        return tables, error

    auctionlog._walk = checked_walk
    yield
    auctionlog._walk = walk


@pytest.fixture(scope="session", autouse=True)
def every_curve_matches_the_per_period_loop():
    """Every deviation curve a test builds in-process is bit-equal to ``build_deviation_curve_per_period``'s.

    Each module that holds ``build_deviation_curve`` by name, the tests' own included, gets the checked one.
    """
    from test_inference import build_deviation_curve_per_period, curve_bits

    build = inference.build_deviation_curve

    @functools.wraps(build)
    def checked_build(history, grid):
        curve = build(history, grid)
        assert curve_bits(curve) == curve_bits(build_deviation_curve_per_period(history, grid))
        return curve

    holders = [m for m in list(sys.modules.values())
               if getattr(m, "__dict__", {}).get("build_deviation_curve") is build]
    for module in holders:
        module.build_deviation_curve = checked_build
    yield
    for module in holders:
        module.build_deviation_curve = build
