"""The measured program for the table1-* workloads, one process per run.

Usage: ``python3 perfbench/solve_child.py JOBS.json RESULT.json`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  It imports
``repro.api``, prints ``ready`` (the end of set-up) and then a JSON
line with the BLAS threads in effect.  It then parses and solves the whole suite in sequence, pass
after pass, until the job file's ``seconds`` have passed.  With
``--setup-only`` in place of the two paths it exits after those lines.

In a traced run passes alternate: untraced, traced, untraced, ...  The
traced ones wrap the layers' entry points (see ``spans.py``), so the
ratio of their wall times is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time

from spans import ROOT, Patches, SpanRecorder
from speed import probe

#: Symbols that report OpenBLAS's thread count, by build.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Threads the OpenBLAS loaded in this process uses, or ``None`` if
    no OpenBLAS is loaded or it cannot be asked."""
    import numpy  # noqa: F401  (loads BLAS)

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in _BLAS_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                return getter()
    return None


def run_pass(jobs, timeout, recorder=None):
    """Parse and solve every job once; returns the pass record.

    ``probes`` holds a speed probe (``speed.py``) before the first job
    and after each job; ``wall`` is the pass time without them.
    """
    import repro.api
    from repro.pb import opb

    solve = repro.api.solve
    if recorder is not None:
        solve = recorder.wrap(ROOT, solve)
    times, answers, stats = [], [], []
    start = time.perf_counter()
    probes = [probe()]
    for job in jobs:
        begin = time.perf_counter()
        result = solve(opb.parse(job["opb"]), job["solver"], timeout=timeout)
        times.append(time.perf_counter() - begin)
        probes.append(probe())
        model = result.best_assignment
        answers.append([result.status, result.best_cost,
                        None if model is None else sorted(model.items())])
        s = result.stats
        stats.append({"decisions": s.decisions, "conflicts": s.conflicts,
                      "prunings": s.prunings,
                      "lower_bound_calls": s.lower_bound_calls,
                      "lb_stats": s.lb_stats})
    wall = time.perf_counter() - start - sum(probes)
    record = {"wall": wall, "times": times, "probes": probes, "answers": answers,
              "stats": stats, "traced": recorder is not None}
    if recorder is not None:
        record["self_time"] = dict(recorder.self_time)
        record["calls"] = dict(recorder.calls)
    return record


def main(job_path, result_path):
    with open(job_path) as handle:
        spec = json.load(handle)
    passes = []
    least = 2 if spec["trace"] else 1
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < least or time.perf_counter() < deadline:
        if spec["trace"] and len(passes) % 2 == 1:
            with Patches(SpanRecorder()) as recorder:
                passes.append(run_pass(spec["jobs"], spec["timeout"], recorder))
        else:
            passes.append(run_pass(spec["jobs"], spec["timeout"]))
    with open(result_path, "w") as handle:
        json.dump({"passes": passes}, handle)


if __name__ == "__main__":
    import repro.api  # noqa: F401  (set-up ends once this import is done)

    print("ready", flush=True)
    print(json.dumps({"blas_threads": blas_threads()}), flush=True)
    if sys.argv[1:] != ["--setup-only"]:
        main(sys.argv[1], sys.argv[2])
