import functools
import sys

import pytest

from gspinfer import auctionlog, inference


@pytest.fixture(scope="session", autouse=True)
def fast_path_reads_every_well_formed_record():
    """No record a test ingests is read by ``_parse_record``: ``_fast`` reads every well-formed one.

    ``ingest`` sends a record to ``_parse_record`` only when ``_fast`` refuses it, to name its fault;
    a record ``_parse_record`` then returns means ``_fast`` refused a record it should read.
    """
    parse = auctionlog._parse_record

    @functools.wraps(parse)
    def checked_parse(text, line):
        parse(text, line)
        raise AssertionError(f"the fast path refused line {line}, which _parse_record reads: {text[:200]}")

    auctionlog._parse_record = checked_parse
    yield
    auctionlog._parse_record = parse


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
