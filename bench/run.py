"""pushsplit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pushsplit is imported from its
``src`` directory.  Inputs are generated from the seed (see workloads.py)
into a temporary directory inside the checkout, which is removed at the
end.  A round is a fresh interpreter (worker.py) that runs passes of the
workload's fixed query list through ``pushsplit.cli.main`` for up to
ROUND_S seconds, with pushsplit's caches emptied before each pass: one
client, one thread, closed loop.  Rounds repeat until the next pass would
end after ``--seconds``.  A query's latency is its median over the passes, peak
RSS is a median over passes, and every end-to-end time but setup_s is
scaled to a reference speed of the machine (reference.py).  Every answer is checked
by oracle.py, which never calls pushsplit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds (tracer.py) and prints the per-layer metrics;
counts come from one traced pass, times are medians over traced passes.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from oracle import check
from reference import REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
ROUND_S = 15             # passes per fresh interpreter, in seconds
RUN_LIMIT_S = 170        # the whole run must end well inside 180 s
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Ledger:
    """Counts attempted and failed queries.

    A query fails when its exit code is unexpected, its answer is wrong,
    or its output differs from that of an earlier query with the same argv
    (in this pass or an earlier one).  An exit code and output identical
    to one already checked and passed are not checked again.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._seen: dict[tuple, str] = {}
        self._passed: set[tuple[tuple, str]] = set()

    def record(self, query, code, output: bytes | None) -> None:
        self.attempted += 1
        key = tuple(query.argv)
        digest = f"{code!r}:{hashlib.sha256(output or b'').hexdigest()}"
        if (key, digest) in self._passed:
            return
        reason = check(query.expect, code, output)
        if reason is None and self._seen.setdefault(key, digest) != digest:
            reason = "output differs from an identical earlier query"
        if reason is None:
            self._passed.add((key, digest))
        else:
            self.failed += 1
            self.reasons.append(f"{' '.join(query.argv)}: {reason}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND
    samples beyond it (the maximum when there are too few samples)."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter doing ``import pushsplit.cli``."""
    argv = [sys.executable, "-c", "import pushsplit.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("import pushsplit.cli failed: "
                             + done.stderr.decode(errors="replace")[-400:])
        if i:   # the first import also writes bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def run_round(index: int, queries, workdir: str, traced: bool, budget: float,
              ledger: Ledger, timeout: float) -> list[dict]:
    """One fresh interpreter running passes of the query list for about
    ``budget`` seconds; returns one record per pass."""
    outdir = os.path.join(workdir, f"round{index}")
    os.mkdir(outdir)
    plan = {"src": os.path.join(ROOT, "src"), "trace": traced,
            "seconds": budget, "outdir": outdir,
            "queries": [q.argv for q in queries]}
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
             result_path], cwd=ROOT, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {index} did not finish in {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"round {index} worker failed: "
                         + done.stderr.decode(errors="replace")[-800:])
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    passes = result["passes"]
    for number, record in enumerate(passes):
        record["bytes_out"] = 0
        for i, (query, code) in enumerate(zip(queries, record["codes"])):
            out = os.path.join(outdir, f"p{number}", f"q{i}.out")
            output = None
            if os.path.exists(out):
                with open(out, "rb") as handle:
                    output = handle.read()
                record["bytes_out"] += len(output)
            ledger.record(query, code, output)
        record["traced"] = traced
        record["numpy"] = result["numpy"]
    shutil.rmtree(outdir)
    return passes


def run_rounds(queries, workdir: str, seconds: float, trace: bool,
               ledger: Ledger, began: float) -> list[dict]:
    """Passes from plain rounds, or from plain and traced rounds in turn,
    until the next pass would end after ``seconds``."""
    passes: list[dict] = []
    longest = 0.0
    index = 0
    while True:
        now = time.perf_counter()
        budget = min(ROUND_S, seconds - (now - began))
        if index >= (2 if trace else 1) and budget < longest:
            return passes
        remaining = RUN_LIMIT_S - (now - began)
        if remaining <= 0:
            raise BenchError("no time left for the rounds this run needs")
        traced = trace and index % 2 == 1
        done = run_round(index, queries, workdir, traced, budget, ledger,
                         remaining)
        longest = max([longest] + [p["wall_s"] for p in done])
        passes += done
        index += 1


def speed_scale(passes: list[dict]) -> float:
    """REFERENCE_S over the run's median time of the reference task.

    A time measured in this run, multiplied by this, is the time on the
    machine where the task takes REFERENCE_S (see reference.py).
    """
    return REFERENCE_S / statistics.median(
        t for p in passes for t in p["reference_s"])


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, str]:
    typical = [statistics.median(times)
               for times in zip(*(p["latencies_s"] for p in passes))]
    tail_s, tail_pct = tail(typical)
    measured = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
    }
    scale = speed_scale(passes)
    # Set-up is mostly reading and mapping files, whose speed does not
    # follow the reference task's, so it is reported as measured.
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update((name, (value * scale, unit))
                   for name, (value, unit) in measured.items())
    metrics["peak_rss_mb"] = (
        statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB")
    note = (f"latencies are each query's median over {len(passes)} passes; "
            f"latency_tail_ms is p{tail_pct:.1f} of {len(typical)} queries "
            f"({TAIL_BEYOND} beyond it); wall_s, latency_p50_ms and "
            f"latency_tail_ms are scaled by {scale:.4f} to the reference "
            f"speed; as measured they are " + ", ".join(
                f"{value:.6g} {unit}" for value, unit in measured.values()))
    return metrics, note


# Per-layer metrics, named <layer>.<stat>; see README.md for the end-to-end
# metric and workload each one should move.
PER_LAYER = (
    ("exactla.rank_mod", ("calls", "busy_s", "cells", "full_rank_frac")),
    ("exactla.rank_rational", ("calls", "busy_s", "cells")),
    ("polyring.multiplication_matrix", ("calls", "busy_s", "cells", "nnz")),
    ("polyring.parse_form", ("calls", "busy_s")),
    ("endomorphism.load_endomorphism", ("busy_s",)),
    ("endomorphism.validate_finite", ("calls", "self_s", "rank_calls_per_verdict")),
    ("splitting.splitting_from_endo", ("calls", "self_s", "rank_calls")),
    ("splitting.splitting_universal", ("calls", "busy_s")),
    ("splitting.box_counts", ("hit_frac",)),
    ("varieties.load_custom_table", ("busy_s",)),
    ("pullback.build_pullback_report", ("calls", "self_s")),
    ("adjunction.surface_adjunction", ("calls", "self_s")),
    ("cli.main", ("self_s", "bytes_out")),
    ("trace", ("overhead_frac", "unaccounted_frac")),
)


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(passes: list[dict]) -> tuple[dict, str]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = traced[0]["layers"]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    box = traced[0]["box_counts"]
    calls = lambda layer: first["calls"].get(layer, 0)
    count = lambda name: first["counts"].get(name, 0)
    timed = lambda kind, layer: statistics.median(
        r["layers"][kind].get(layer, 0.0) for r in traced)
    stats = {
        "calls": ("count", calls),
        "busy_s": ("s", lambda layer: timed("busy_s", layer)),
        "self_s": ("s", lambda layer: timed("self_s", layer)),
        "cells": ("count", lambda layer: count(f"{layer}.cells")),
        "nnz": ("count", lambda layer: count(f"{layer}.nnz")),
        "rank_calls": ("count", lambda layer: count(f"{layer}.rank_calls")),
        "full_rank_frac": ("ratio", lambda layer: _frac(
            count(f"{layer}.full_rank"), calls(layer))),
        "rank_calls_per_verdict": ("ratio", lambda layer: _frac(
            count(f"{layer}.rank_calls"), calls(layer))),
        "hit_frac": ("ratio", lambda layer: _frac(
            box["hits"], box["hits"] + box["misses"])),
        "bytes_out": ("B", lambda layer: traced[0]["bytes_out"]),
        "overhead_frac": ("ratio", lambda layer: traced_wall / plain_wall - 1),
        # traced wall time not covered by any layer's self time
        "unaccounted_frac": ("ratio", lambda layer: statistics.median(
            1 - sum(r["layers"]["self_s"].values()) / r["wall_s"]
            for r in traced)),
    }
    metrics = {}
    for layer, names in PER_LAYER:
        for stat in names:
            unit, value = stats[stat]
            metrics[f"{layer}.{stat}"] = (value(layer), unit)
    repeat = all(r["layers"]["calls"] == first["calls"]
                 and r["layers"]["counts"] == first["counts"] for r in traced)
    note = (f"{len(traced)} traced and {len(plain)} plain passes; traced wall "
            f"{traced_wall:.3f} s against {plain_wall:.3f} s plain; counts "
            f"{'repeat exactly' if repeat else 'DIFFER'} between traced passes")
    return metrics, note


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pushsplit", "cli.py")):
        print(f"error: no pushsplit sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        queries = WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger()
        setup_s = None if args.trace else measure_setup(env)
        passes = run_rounds(queries, workdir, args.seconds, bool(args.trace),
                            ledger, began)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, note = per_layer(passes)
    else:
        metrics, note = end_to_end(passes, setup_s)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes of "
          f"{len(queries)} queries; nproc {len(os.sched_getaffinity(0))}, python "
          f"{platform.python_version()}, numpy {passes[0]['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  {note}")
    print("  pass wall_s: " + " ".join(
        f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print(f"  failed_frac = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed_frac}")
    for reason in ledger.reasons[:10]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
