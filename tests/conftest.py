import functools

import pytest

from gspinfer import pipeline


@pytest.fixture(scope="session", autouse=True)
def column_pass_reads_every_well_formed_log():
    """Every log a test ingests whose records are well-formed is read by the column pass alone.

    ``ingest`` walks the records only when the column pass finds a fault; a walk
    that then finds none means the column pass rejected a log it should read.
    """
    walk = pipeline._walk

    @functools.wraps(walk)
    def checked_walk(path):
        tables, error = walk(path)
        assert error is not None, f"the column pass rejected {path}, whose records are well-formed"
        return tables, error

    pipeline._walk = checked_walk
    yield
    pipeline._walk = walk
