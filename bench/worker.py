"""One round of a workload, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan names the source directory to import pushsplit from, whether to
trace, the argv of each query, the directory for their output files and
a time budget.  The round runs the query list through
``pushsplit.cli.main`` in this process, pass after pass, while another
pass fits in the budget (at least one pass).  Every pass starts with
pushsplit's caches emptied, so each pass does the work of a fresh
process.  Each query of pass p writes ``--out OUTDIR/p<p>/q<i>.out``.
After each query the worker times reference.py's task once.  Per pass,
the result file holds each query's latency and exit code, the reference
timings, this process's peak RSS so far and, when tracing, the layer
summary.  A pass's wall time is the sum of its query latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference


def reset_caches() -> None:
    """Empty every functools cache in pushsplit's modules."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pushsplit"
                                   or name.startswith("pushsplit.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(main, queries: list[list[str]], outdir: str) -> dict:
    """Each query in turn, then one timing of the reference task."""
    os.mkdir(outdir)
    latencies, codes, reference_s = [], [], []
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        for i, argv in enumerate(queries):
            argv = argv + ["--out", os.path.join(outdir, f"q{i}.out")]
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = "traceback: " + traceback.format_exc(limit=-1).strip()
            latencies.append(time.perf_counter() - start)
            codes.append(code)
            sink.seek(0)
            sink.truncate()
            start = time.perf_counter()
            reference.task()
            reference_s.append(time.perf_counter() - start)
    return {"wall_s": sum(latencies), "latencies_s": latencies,
            "codes": codes, "reference_s": reference_s}


def run(plan: dict) -> dict:
    src = os.path.realpath(plan["src"])
    sys.path.insert(0, src)
    import pushsplit.cli
    import numpy

    loaded = os.path.realpath(pushsplit.cli.__file__)
    if not loaded.startswith(src + os.sep):
        raise RuntimeError(f"pushsplit imported from {loaded}, not from {src}")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main = pushsplit.cli.main
    deadline = time.perf_counter() + plan["seconds"]
    passes = []
    while True:
        reset_caches()
        if tracer:
            tracer.reset()
        record = run_pass(main, plan["queries"],
                          os.path.join(plan["outdir"], f"p{len(passes)}"))
        box = pushsplit.splitting._box_counts.cache_info()
        record.update(
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            box_counts={"hits": box.hits, "misses": box.misses},
            layers=tracer.summary() if tracer else None)
        passes.append(record)
        if time.perf_counter() + record["wall_s"] > deadline:
            return {"passes": passes, "numpy": numpy.__version__}


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as handle:
        result = run(json.load(handle))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
