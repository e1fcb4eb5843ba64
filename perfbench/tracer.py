"""In-memory spans around the public entry points of each gspinfer layer.

Nothing in ``src/`` is edited: the tracer replaces the entry points listed in
``ENTRY_POINTS`` (and the ``DeviationSweep`` class) with timing wrappers in
every ``gspinfer`` module that holds a reference to them. A span is
``(name, start, end, id, parent)``; ids are ``(pid, seq)`` pairs, so spans of
forked pool workers keep pointing at the parent span that forked them.

Hot scalar helpers (``boundary``, ``value_interval``, and the per-bid
``DeviationSweep.evaluate`` calls made inside ``evaluate_many``) are not
wrapped; their counts are computed from the inputs by the bench.

Run as a script, it is the traced form of the ``gspinfer`` command::

    python3 perfbench/tracer.py SPANS_PATH infer log.jsonl --out results/

which runs ``gspinfer.cli.main`` with the remaining arguments and writes the
spans of the process to SPANS_PATH (one JSON object per line) when the
command ends. Forked pool workers append theirs to ``SPANS_PATH.<pid>``.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
from time import perf_counter

# (module, attribute, span name)
ENTRY_POINTS = (
    ("gspinfer.cli", "main", "cli.main"),
    ("gspinfer.pipeline", "ingest", "pipeline.ingest"),
    ("gspinfer.pipeline", "infer_account", "pipeline.infer_account"),
    ("gspinfer.pipeline", "infer_listing", "pipeline.infer_listing"),
    ("gspinfer.pipeline", "artifacts_to_json", "pipeline.artifacts_to_json"),
    ("gspinfer.pipeline", "export", "pipeline.export"),
    ("gspinfer.pipeline", "write_histories", "pipeline.write_histories"),
    ("gspinfer.inference", "build_deviation_curve", "inference.curve"),
    ("gspinfer.inference", "min_additive_regret", "inference.eps0"),
    ("gspinfer.inference", "build_region", "inference.region"),
    ("gspinfer.inference", "min_mult_regret", "inference.mult_regret"),
    ("gspinfer.inference", "check_assumptions", "inference.assumptions"),
    ("gspinfer.simulate", "simulate_market", "simulate.market"),
    ("gspinfer.simulate", "hedge_step", "simulate.hedge"),
)
SWEEP_SPAN = "auction.sweep"


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self, worker_path: str | None = None):
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.seq = 0
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.fork_depth = 0
        self.counters: dict[str, int] = {}
        self.worker_path = worker_path

    def _forked(self) -> None:
        # A pool worker starts with a copy of the parent's state: keep the open
        # parent spans as ancestors, drop the parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.fork_depth = len(self.stack)

    def call(self, name: str, fn, args, kwargs):
        if os.getpid() != self.pid:
            self._forked()
        sid = (self.pid, self.seq)
        self.seq += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((name, start, end, sid, parent))
            if self.pid != self.root_pid and len(self.stack) == self.fork_depth and self.worker_path:
                self._append(f"{self.worker_path}.{self.pid}")

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "id": list(i), "parent": list(p) if p else None}
            for n, s, e, i, p in self.spans
        ]

    def _append(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
        self.spans = []


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer)
        return result

    return traced


def _traced_sweep(tracer: Tracer, base):
    class TracedSweep(base):
        __slots__ = ()

        def __init__(self, params, bidder_id):
            tracer.call(SWEEP_SPAN, base.__init__, (self, params, bidder_id), {})

        def evaluate(self, bid):
            return tracer.call(SWEEP_SPAN, base.evaluate, (self, bid), {})

        def evaluate_many(self, bids):
            # evaluate_many calls self.evaluate once per bid; running it on the
            # plain class keeps those inner calls out of the trace.
            self.__class__ = base
            try:
                return tracer.call(SWEEP_SPAN, base.evaluate_many, (self, bids), {})
            finally:
                self.__class__ = TracedSweep

    return TracedSweep


def _rss_after_ingest(tracer: Tracer) -> None:
    tracer.counters["rss_after_ingest_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _replace_everywhere(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "gspinfer" or modname.startswith("gspinfer."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point; returns the ones this version of gspinfer lacks."""
    import importlib

    missing = []
    for modname, attr, span in ENTRY_POINTS:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        after = _rss_after_ingest if span == "pipeline.ingest" else None
        _replace_everywhere(fn, _wrap(tracer, span, fn, after))
    auction = importlib.import_module("gspinfer.auction")
    sweep = getattr(auction, "DeviationSweep", None)
    if sweep is None:
        missing.append("gspinfer.auction.DeviationSweep")
    else:
        _replace_everywhere(sweep, _traced_sweep(tracer, sweep))
    return missing


def uninstall() -> None:
    """Put every wrapped entry point back."""
    import importlib

    for modname, attr, _ in ENTRY_POINTS:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        original = getattr(fn, "__wrapped__", None)
        if original is not None:
            _replace_everywhere(fn, original)
    auction = importlib.import_module("gspinfer.auction")
    traced = getattr(auction, "DeviationSweep", None)
    if traced is not None and traced.__name__ == "TracedSweep":
        _replace_everywhere(traced, traced.__mro__[1])


def _add(tracer: Tracer, key: str, n: int) -> None:
    tracer.counters[key] = tracer.counters.get(key, 0) + n


def count_pool_bytes(tracer: Tracer) -> None:
    """Count the bytes the process pool pickles to and from its workers.

    Every task and result crosses the process boundary through
    ``ForkingPickler``: ``dumps`` in the parent sends tasks, ``loads`` in the
    parent receives results. Counts made in the workers are discarded.
    """
    from multiprocessing.reduction import ForkingPickler

    dumps, loads = ForkingPickler.dumps, ForkingPickler.loads

    def counted_dumps(cls, obj, protocol=None):
        buf = dumps(obj, protocol)
        _add(tracer, "pool_task_bytes", len(buf))
        return buf

    def counted_loads(data, *args, **kwargs):
        _add(tracer, "pool_result_bytes", len(data))
        return loads(data, *args, **kwargs)

    ForkingPickler.dumps = classmethod(counted_dumps)
    ForkingPickler.loads = staticmethod(counted_loads)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(worker_path=spans_path)
    missing = install(tracer)
    count_pool_bytes(tracer)
    import gspinfer.cli

    try:
        code = gspinfer.cli.main(cli_args)
    finally:
        flush_start = perf_counter()
        lines = [json.dumps(rec) for rec in tracer.records()]
        header = {
            "pid": tracer.root_pid,
            "counters": tracer.counters,
            "missing": missing,
            "flush_s": perf_counter() - flush_start,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
