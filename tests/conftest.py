import functools
import sys
from contextlib import ExitStack, contextmanager

import numpy as np
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


@contextmanager
def everywhere(fn, replacement):
    """``replacement`` in place of ``fn`` in each module that holds ``fn`` by its name, the tests' own included."""
    name = fn.__name__
    holders = [m for m in list(sys.modules.values()) if getattr(m, "__dict__", {}).get(name) is fn]
    for module in holders:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module in holders:
            setattr(module, name, fn)


@pytest.fixture(scope="session", autouse=True)
def every_curve_matches_the_per_period_loop():
    """Every deviation curve a test builds in-process is bit-equal to ``build_deviation_curve_per_period``'s."""
    from test_inference import build_deviation_curve_per_period, curve_bits

    build = inference.build_deviation_curve

    @functools.wraps(build)
    def checked_build(history, grid):
        curve = build(history, grid)
        assert curve_bits(curve) == curve_bits(build_deviation_curve_per_period(history, grid))
        return curve

    with everywhere(build, checked_build):
        yield


@pytest.fixture(scope="session", autouse=True)
def every_curve_query_matches_its_row_scan():
    """Each array-form query on a curve returns exactly what its row scan in ``row_scans`` returns.

    Bit for bit and type for type (:func:`row_scans.exact`), on every curve the suite builds and
    at every argument it is asked for; the row scan gets the curve as tuples and numpy scalar
    arguments as Python numbers.
    """
    import row_scans

    def python(x):
        return x.item() if isinstance(x, np.generic) else x

    def checked(fn, reference):
        @functools.wraps(fn)
        def check(curve, *args, **kwargs):
            got = fn(curve, *args, **kwargs)
            want = reference(row_scans.tuple_curve(curve), *map(python, args),
                             **{k: python(v) for k, v in kwargs.items()})
            assert row_scans.exact(got) == row_scans.exact(want), f"{fn.__name__}: {got!r} != row scan {want!r}"
            return got
        return check

    with ExitStack() as stack:
        # value_interval and feasible_values_mult make every call of _half_line_interval
        for name in ("boundary", "value_interval", "feasible_values_mult", "default_value_cap", "link_from_curve",
                     "check_assumptions"):
            fn = getattr(inference, name)
            stack.enter_context(everywhere(fn, checked(fn, getattr(row_scans, name))))
        yield
