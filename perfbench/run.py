#!/usr/bin/env python3
"""gspinfer benchmark: seeded workloads run through the ``gspinfer`` command line.

From the repository root::

    python3 perfbench/run.py --workload account --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload account --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --self-test

Each run builds the workload's auction log from ``--seed`` with the program's
own ``simulate_market`` + ``write_histories`` (set-up), then runs the timed
command in a fresh interpreter again and again for ``--seconds``, then checks
the outputs (see ``checks.py``). With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced runs of the
command (see ``tracer.py``) and prints the per-layer metrics. The last line of
standard output is one JSON object; the lines before it give every metric
with its unit, the sample counts, the failure base and the provenance.
``--self-test`` runs the negative control and a smoke run of every workload.
Metric names and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = "import sys; from gspinfer.cli import main; sys.exit(main())"
MIN_SAMPLES = 3
CHECK_CELLS = 8


class BenchError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class Workload:
    """A market to simulate and the command timed on it."""

    name: str
    command: str  # "infer" or "simulate"
    listings: int
    periods: int
    auctions: int
    jobs: int = 1
    grid_step: float | None = None

    def smoke(self) -> "Workload":
        return dataclasses.replace(self, listings=min(self.listings, 2), periods=8, auctions=2)


# Why each exists is in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("account", "infer", listings=2, periods=200, auctions=10),
        Workload("fine-grid", "infer", listings=1, periods=50, auctions=4, grid_step=0.004),
        Workload("simulate", "simulate", listings=2, periods=200, auctions=10),
        Workload("account-jobs2", "infer", listings=2, periods=200, auctions=10, jobs=2),
    )
}

# The README example config, resized per workload.
CONFIG = """\
listings = {listings}
periods = {periods}
auctions_per_period = {auctions}
algorithm = hedge
epsilon_max = 0.5
grid_step = 0.01
position_curve = [1.0, 0.6, 0.35, 0.2]
seed = {seed}
"""
LEARNER_GRID = 101  # bid_max 1.0 / grid_step 0.01, both ends included


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_command(argv: list[str], transcript: Path) -> tuple[float, int]:
    """Run one command to completion: (wall seconds, peak RSS in KB).

    The wall time runs from just before the process is started to just after
    it has been reaped, so interpreter start-up and imports are included. The
    RSS is the high-water mark of the process and of every child it reaped
    (the pool workers), as ``wait4`` reports it. ``launch.py`` starts the
    command so that the bench's own memory does not count (see there).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = transcript.with_suffix(".rusage")
    with open(transcript, "wb") as out:
        launcher = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), str(result), *argv],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
    code = int(result.read_text().split()[2]) if launcher.returncode == 0 else launcher.returncode
    if code != 0:
        tail = transcript.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[3:])} exited with {code}:\n{tail}")
    wall, kb, _ = result.read_text().split()
    return float(wall), int(kb)


def command_args(w: Workload, cfg: Path, log: Path, out: Path, seed: int, jobs: int | None = None) -> list[str]:
    if w.command == "simulate":
        return ["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    args = ["infer", str(log), "--config", str(cfg), "--out", str(out), "--jobs", str(jobs or w.jobs)]
    if w.grid_step is not None:
        args += ["--grid-step", repr(w.grid_step)]
    return args


def untraced(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


def traced(args: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *args]


def generate_log(cfg: Path, log: Path) -> None:
    """The workload's input: the program's simulator and log writer on the config."""
    from gspinfer.cli import build_learners, load_config
    from gspinfer.pipeline import write_histories
    from gspinfer.simulate import MarketSpec, simulate_market

    c = load_config(str(cfg))
    market = MarketSpec(position_curve=tuple(float(a) for a in c["position_curve"]))
    histories = simulate_market(market, build_learners(c), c["periods"], c["auctions_per_period"], c["seed"])
    write_histories(histories, str(log))


# ---------------------------------------------------------------------------
# Spans to per-layer metrics
# ---------------------------------------------------------------------------


def load_spans(path: Path) -> tuple[dict, list[dict]]:
    """Header and spans written by ``tracer.py``, with the pool workers' spans."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh if line.strip()]
    for extra in sorted(path.parent.glob(path.name + ".*")):
        with open(extra, "r", encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh if line.strip()]
    return header, spans


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts derived from one traced run's spans.

    A span's self time is its duration minus that of its children in the same
    process; children in pool workers run in parallel and are not subtracted.
    Sums run over every process.
    """
    children: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None and s["parent"][0] == s["id"][0]:
            key = tuple(s["parent"])
            children[key] = children.get(key, 0.0) + s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name):
        return sum(s["end"] - s["start"] - children.get(tuple(s["id"]), 0.0) for s in named(name))

    m = {"auction.sweep_s": total("auction.sweep")}
    if named("pipeline.infer_account"):
        listing = sorted(s["end"] - s["start"] for s in named("pipeline.infer_listing"))
        m.update({
            "inference.curve_self_s": self_total("inference.curve"),
            "inference.eps0_s": total("inference.eps0"),
            "inference.eps0_calls": len(named("inference.eps0")),
            "inference.region_self_s": self_total("inference.region"),
            "inference.mult_regret_self_s": self_total("inference.mult_regret"),
            "inference.assumptions_s": total("inference.assumptions"),
            "pipeline.ingest_s": total("pipeline.ingest"),
            "pipeline.listing_s_p50": statistics.median(listing),
            "pipeline.listing_s_max": listing[-1],
            "pipeline.listings": len(listing),
        })
        exports = named("pipeline.export")
        bundles = named("pipeline.artifacts_to_json")
        if exports and bundles:  # artifacts_to_json, the bundle write, export
            m["pipeline.export_s"] = exports[-1]["end"] - bundles[0]["start"]
    if named("simulate.market"):
        m.update({
            "simulate.market_s": total("simulate.market"),
            "simulate.self_s": self_total("simulate.market"),
            "simulate.hedge_s": total("simulate.hedge"),
            "pipeline.write_s": total("pipeline.write_histories"),
        })
    return m


def counter_metrics(header: dict) -> dict[str, float]:
    """The counts ``tracer.py`` took in the command's own process."""
    c = header["counters"]
    m = {"pipeline.pool_task_bytes": c.get("pool_task_bytes", 0), "pipeline.pool_result_bytes": c.get("pool_result_bytes", 0)}
    if "rss_after_ingest_kb" in c:
        m["pipeline.rss_after_ingest_mb"] = c["rss_after_ingest_kb"] / 1024.0
    return m


def accounting(header: dict, spans: list[dict], wall: float, export_s: float) -> dict[str, float]:
    """How much of the command's wall time the top-level layer spans cover.

    The top-level layer spans are the direct children of ``cli.main``, with
    ``artifacts_to_json`` ... ``export`` taken as one interval so the bundle
    write between them counts as export. The rest of the wall time, less the
    tracer's own write-out, is the command-line overhead: interpreter start,
    imports, configuration and argument parsing.
    """
    main = [s for s in spans if s["name"] == "cli.main" and s["id"][0] == header["pid"]]
    top = [s for s in spans if main and s["parent"] == main[0]["id"]]
    covered = sum(s["end"] - s["start"] for s in top if s["name"] not in ("pipeline.artifacts_to_json", "pipeline.export"))
    covered += export_s
    return {
        "cli.overhead_s": wall - covered - header["flush_s"],
        "trace.coverage": covered / wall,
        "trace.flush_s": header["flush_s"],
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def median(xs):
    """The median; for counts, the lower middle value, so it stays a count."""
    if all(isinstance(x, int) for x in xs):
        return statistics.median_low(xs)
    return statistics.median(xs)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, time and check one workload; returns metrics and details."""
    import checks

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg, log = work / "market.cfg", work / "market.jsonl"
    transcript = work / "transcript.txt"
    tally = checks.Tally()

    cfg.write_text(CONFIG.format(listings=w.listings, periods=w.periods, auctions=w.auctions, seed=seed))
    setup_times, digests = [], []

    def set_up() -> None:
        """Produce the input log once more; setup_s is the median over the run."""
        t0 = time.perf_counter()
        cfg.write_text(CONFIG.format(listings=w.listings, periods=w.periods, auctions=w.auctions, seed=seed))
        generate_log(cfg, log)
        setup_times.append(time.perf_counter() - t0)
        digests.append(sha256(log))

    setup_spans: list[dict] = []
    if trace:
        import tracer

        t = tracer.Tracer()
        tracer.install(t)
        try:
            generate_log(cfg, work / "traced-setup.jsonl")
        finally:
            tracer.uninstall()
        setup_spans = t.records()

    # Warm-up: byte-compile the package once, as an installed program would be.
    run_command([sys.executable, "-c", "import gspinfer.cli"], transcript)

    out = work / ("out.jsonl" if w.command == "simulate" else "out")
    first = work / ("first.jsonl" if w.command == "simulate" else "first")
    walls, rss, traced_walls, traced_samples = [], [], [], []
    listings_attempted = listings_failed = 0
    output_digest = None

    def settle(i: int) -> None:
        """Check one run's output against the first run's and keep the first."""
        nonlocal output_digest, listings_attempted, listings_failed
        if w.command == "infer":
            bundle = json.loads((out / "artifacts.json").read_text(encoding="utf-8"))
            errors = bundle["summary"]["errors"]
            listings_attempted += bundle["summary"]["listing_count"] + len(errors)
            listings_failed += len(errors)
            digest = sha256(out / "predictions.json")
        else:
            digest = sha256(out)
        if output_digest is None:
            output_digest = digest
            out.rename(first)
        else:
            tally.check(f"run {i} output identical to run 0", digest == output_digest, digest)
            (shutil.rmtree if out.is_dir() else os.remove)(out)

    args = command_args(w, cfg, log, out, seed)
    deadline = time.perf_counter() + seconds
    i = 0
    # A set-up before each of the first three timed runs and every third one
    # after: spread over the window, the set-ups see the same machine as the
    # runs they are compared with.
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        if len(walls) % 3 == 0 or len(setup_times) < MIN_SAMPLES:
            set_up()
        wall, kb = run_command(untraced(args), transcript)
        walls.append(wall)
        rss.append(kb / 1024.0)
        settle(i)
        i += 1
        if trace:
            spans_path = work / f"spans-{i}.jsonl"
            wall, _ = run_command(traced(args, spans_path), transcript)
            header, spans = load_spans(spans_path)
            traced_walls.append(wall)
            traced_samples.append((header, spans, wall))
            settle(i)
            i += 1

    # Output checks.
    tally.check("set-up logs identical", len(set(digests)) == 1, str(digests))
    if w.command == "simulate":
        tally.check("simulate output equals the library's log", sha256(first) == digests[0], "CLI vs simulate_market")
        # The simulated log must read back and infer cleanly: run infer on it.
        bundle_dir = work / "check"
        check_args = command_args(dataclasses.replace(w, command="infer"), cfg, first, bundle_dir, seed)
        if trace:
            run_command(traced(check_args, work / "spans-check.jsonl"), transcript)
            check_header, other_spans = load_spans(work / "spans-check.jsonl")
        else:
            run_command(untraced(check_args), transcript)
        checked_log = first
    else:
        bundle_dir = first
        checked_log = log
        other_spans = setup_spans
        if w.jobs > 1:
            serial = work / "serial"
            run_command(untraced(command_args(w, cfg, log, serial, seed, jobs=1)), transcript)
            for name in ("predictions.json", "artifacts.json"):
                same = (serial / name).read_bytes() == (first / name).read_bytes()
                tally.check(f"--jobs {w.jobs} {name} equals --jobs 1", same, "bytes differ")
    bundle = json.loads((bundle_dir / "artifacts.json").read_text(encoding="utf-8"))
    if w.command == "simulate":
        errors = bundle["summary"]["errors"]
        listings_attempted += bundle["summary"]["listing_count"] + len(errors)
        listings_failed += len(errors)
    checks.check_bundle(tally, bundle, checks.read_log(str(checked_log)), checks.sample_cells(bundle, seed, CHECK_CELLS))

    records = sum(1 for _ in open(checked_log, "rb"))
    result = {
        "attempted": listings_attempted + tally.attempted,
        "failed": listings_failed + tally.failed,
        "failures": tally.failures,
        "listings": listings_attempted,
        "checks": tally.attempted,
        "samples": len(walls),
        "walls": walls,
        "records": records,
        "log_bytes": os.path.getsize(checked_log),
        "log_sha256": sha256(checked_log),
        "setup_samples": len(setup_times),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": median(setup_times),
            "wall_s": min(walls),
            "records_per_s": records / min(walls),
            "peak_rss_mb": median(rss),
            "pass_ratio": 1.0 - result["failed"] / result["attempted"],
        }
        return result

    # Per-layer metrics: medians over the traced runs of the command. A layer
    # the command does not run is taken from the bench's own traced call into
    # it: set-up (simulate, write) or the simulate workload's infer check.
    per_run = []
    for header, spans, wall in traced_samples:
        m = span_metrics(spans)
        per_run.append({**m, **counter_metrics(header), **accounting(header, spans, wall, m.get("pipeline.export_s", 0.0))})
    layers = {k: median([m[k] for m in per_run]) for k in per_run[0]}
    other = span_metrics(other_spans)
    if w.command == "simulate":
        other.update(counter_metrics(check_header))
    for k, v in other.items():
        layers.setdefault(k, v)
    n_grid = len(next(iter(bundle["listings"].values()))["curve"]["grid"])
    evals_per_record = LEARNER_GRID if w.command == "simulate" else n_grid + 1
    layers.update({
        "auction.evals": records * evals_per_record,
        "auction.evals_per_s": records * evals_per_record / layers["auction.sweep_s"],
        "inference.breakpoint_pairs": n_grid * (n_grid - 1) // 2 * layers["inference.eps0_calls"],
        "inference.bisect_iters": sum(p["prediction"]["iterations"] for p in bundle["listings"].values()),
        "pipeline.records": records,
        "pipeline.log_bytes": result["log_bytes"],
        "pipeline.ingest_records_per_s": records / layers["pipeline.ingest_s"],
        "pipeline.write_records_per_s": records / layers["pipeline.write_s"],
        "simulate.auction_periods": records,
        "trace.overhead_s": min(traced_walls) - min(walls),
    })
    result["untraced_wall_s"] = min(walls)
    result["traced_wall_s"] = min(traced_walls)
    result["metrics"] = layers
    return result


# ---------------------------------------------------------------------------
# Provenance, reporting, entry point
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(w: Workload, seed: int, result: dict) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "gspinfer").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "input_log_sha256": result["log_sha256"],
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def report(w: Workload, seed: int, trace: bool, result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in result["metrics"]:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print("provenance " + json.dumps(provenance(w, seed, result), sort_keys=True))
    print(
        f"counts: {result['records']} records, {result['log_bytes']} log bytes, "
        f"{result['samples']} untraced command runs, {result['setup_samples']} set-ups"
    )
    print(
        f"fail_ratio = {result['failed']}/{result['attempted']} "
        f"(base: {result['listings']} listings over all runs + {result['checks']} output checks)"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    q1, q2, q3 = statistics.quantiles(result["walls"], n=4)
    print(
        f"untraced command walls: fastest {min(result['walls']):.4f} s, quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s "
        f"over {len(result['walls'])} runs: " + " ".join(f"{x:.4f}" for x in result["walls"])
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if trace:
        r = result["metrics"]
        print(
            f"accounting: untraced wall {result['untraced_wall_s']:.4f} s, traced wall {result['traced_wall_s']:.4f} s; "
            f"layers cover {r['trace.coverage']:.1%} of the traced wall, cli.overhead_s {r['cli.overhead_s']:.4f} s, "
            f"tracer write-out {r['trace.flush_s']:.4f} s"
        )
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def import_program() -> None:
    """Import gspinfer from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gspinfer" / "__init__.py").is_file():
        raise BenchError(f"no gspinfer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gspinfer

    if Path(gspinfer.__file__).resolve().parent != (SRC / "gspinfer").resolve():
        raise BenchError(f"imported gspinfer from {gspinfer.__file__}, not from {SRC}")


def self_test() -> int:
    """Negative control, then a smoke run of every workload in both modes."""
    import checks

    ok = True
    w = WORKLOADS["account"].smoke()
    work = WORK / f"self-test-{os.getpid()}"
    result = run_workload(w, 1, 0.0, False, work)
    bundle = json.loads((work / "first" / "artifacts.json").read_text(encoding="utf-8"))
    log = checks.read_log(str(work / "market.jsonl"))
    cells = checks.sample_cells(bundle, 1, CHECK_CELLS)
    clean, bad = checks.Tally(), checks.Tally()
    checks.check_bundle(clean, bundle, log, cells)
    checks.check_bundle(bad, checks.corrupt(bundle, cells), log, cells)
    caught = any(" cell " in f for f in bad.failures) and any("delta* minimal" in f for f in bad.failures)
    print(f"negative control: clean bundle {clean.failed}/{clean.attempted} failed; "
          f"corrupted bundle {bad.failed}/{bad.attempted} failed")
    for failure in bad.failures:
        print(f"  caught {failure}")
    if result["failed"] or clean.failed or not caught:
        ok = False
        print("negative control: FAIL")
    shutil.rmtree(work, ignore_errors=True)
    spec = load_spec()
    for name, wl in WORKLOADS.items():
        for trace in (False, True):
            work = WORK / f"self-test-{os.getpid()}"
            result = run_workload(wl.smoke(), 1, 0.0, trace, work)
            line = report(wl.smoke(), 1, trace, result, spec)
            shutil.rmtree(work, ignore_errors=True)
            print(f"smoke {name} trace={int(trace)}: {'ok' if line['correct'] else 'FAIL'}")
            ok = ok and line["correct"]
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0, help="how long the timed phase lasts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the workload at a tiny size")
    p.add_argument("--self-test", action="store_true", help="negative control plus a smoke run of every workload")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        import_program()
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        spec = load_spec()
        w = WORKLOADS[args.workload]
        if args.smoke:
            w = w.smoke()
        work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        try:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        line = report(w, args.seed, bool(args.trace), result, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
