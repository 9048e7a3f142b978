"""The repository's benchmark: Table 1 solves and service jobs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-lpr --seed 1 --seconds 30 --trace 0

Workloads (why each exists is in ``BENCHMARK.json``):

* ``table1-lpr``    bsolo-lpr on the grout, mcnc and ptl families;
* ``table1-search`` bsolo-mis and bsolo-lgr on the same families plus
  the acc satisfaction row;
* ``service-mix``   ``python -m repro serve`` under two closed-loop
  clients posting a seeded mix of cache misses, renamed duplicates,
  proof jobs and large bodies.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones, from a run that wraps each layer's entry points.  Every answer is
checked against a HiGHS reference computed after the timed part; the
share of instances or jobs without the reference answer (failed_share)
is the result's ``failed`` over ``attempted``, and each one is listed.
The last line of standard output is the JSON result; the lines before
it name each metric with its unit, every failure, and the environment.
The measured program runs in child processes with BLAS limited to one
thread.

End-to-end metrics.  On table1-* an instance's time is parse plus
solve (see ``instance_times``) and a "job" is one instance; on
service-mix a job's time is its latency from the start of ``POST /jobs``
to its terminal SSE event.

* ``setup_s``: median over fresh processes of the time from spawn to
  ready (``import repro.api`` done, or the server's first 200 /healthz),
  each scaled by a reference spawn timed right before it (``speed.py``);
* ``suite_s``: table1-*: the sum of the instance times; service-mix:
  the fastest round's wall time for the whole job stream;
* ``solve_s_geomean``: geometric mean of instance times, or of the job
  latencies of every round;
* ``job_p50_ms`` / ``job_p95_ms``: median and 95th percentile of them;
* ``jobs_per_s``: instances or jobs per second of ``suite_s``;
* ``peak_rss_mb``: the largest peak resident set of any program process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from speed import REFERENCE_S, SPAWN_REFERENCE_S, spawn_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where runs keep their temporary files, inside the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Environment that limits BLAS (and OpenMP) to one thread.
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

WORKLOADS = ("table1-lpr", "table1-search", "service-mix")

#: Fresh processes started per run to time set-up; the median is reported.
SETUP_SAMPLES = 5

#: Traced self time must add up to the traced suite time within this share.
SUM_TOLERANCE = 0.05

#: service-mix jobs per second of ``--seconds``, over all rounds; sized
#: so one run lasts about ``--seconds`` on a 2-core machine.
SERVICE_JOBS_PER_SECOND = 16

#: service-mix rounds, each on a fresh server (see ``run_service``).
SERVICE_ROUNDS = 2

#: Traced solver layers (span names in ``spans.py``); each reports
#: ``<layer>_s`` (self time) and ``<layer>_share`` (of the traced suite).
SOLVER_LAYERS = ("lp.simplex.solve", "lp.relaxation.compute", "mis.compute",
                 "lagrangian.compute", "engine.propagate",
                 "engine.conflict.analyze", "core.preprocess", "core.cuts",
                 "core.branching", "pb.opb.parse", "core.other")

#: Layers that also report a call count, under this name.
CALLS = {"lp.simplex.solve": "lp.simplex.calls",
         "lp.relaxation.compute": "lp.relaxation.compute_calls",
         "mis.compute": "mis.compute_calls",
         "lagrangian.compute": "lagrangian.compute_calls",
         "engine.propagate": "engine.propagate_calls",
         "engine.conflict.analyze": "engine.conflict.analyze_calls"}

#: Solver-layer counters taken from ``SolveResult.stats``.
SEARCH = ("lp.simplex.iterations", "lp.simplex.warm_share", "search.decisions",
          "search.conflicts", "search.prune_ratio")

#: Service layers, measured from outside over HTTP.
SERVICE_LAYERS = ("service.admit_ms_p50", "service.admit_ms_p95",
                  "service.queue_ms_p50", "service.run_ms_p50",
                  "service.worker_overhead_ms_p50", "service.delivery_ms_p50",
                  "service.cache_hit_ratio")


def percentile(values: List[float], share: float) -> float:
    """The ``share`` quantile (0 < share < 1), interpolated."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: List[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(value) for value in values) / len(values))


def solver_layer_names() -> List[str]:
    """Every per-layer metric name of the solver layers."""
    names = []
    for layer in SOLVER_LAYERS:
        names += [layer + "_s", layer + "_share"] + (
            [CALLS[layer]] if layer in CALLS else [])
    return names + list(SEARCH)


def fingerprint(seed: int) -> Dict:
    """Where and on what the run happened.  ``blas_threads`` is the
    count in effect in a program process, started as all of them are."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    process, _, info = start_child(["--setup-only"], child_env())
    try:
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": info["blas_threads"],
            "commit": commit, "seed": seed}


def child_env() -> Dict[str, str]:
    """Environment of every program process."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = SRC
    return env


# ----------------------------------------------------------------------
# table1-*: one solving process per run
# ----------------------------------------------------------------------
def start_child(args: List[str], env: Dict[str, str]):
    """Start ``solve_child.py`` and wait for ``ready``; returns the
    process, the seconds from spawn to ready scaled by a reference spawn
    timed right before (``speed.py``), and the child's info line."""
    reference = spawn_time(env)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "solve_child.py")] + args,
        env=env, stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError("solve_child did not start: %r" % line)
    info = json.loads(process.stdout.readline())
    return process, ready * SPAWN_REFERENCE_S / reference, info


def run_table1(workload: str, seed: int, seconds: float, trace: bool):
    """Returns ``(metrics, attempted, failures)``."""
    from answers import check, read_opb, reference
    from suites import BUDGET, table1_jobs

    jobs = table1_jobs(workload, seed)
    env = child_env()
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as work:
        job_path = os.path.join(work, "jobs.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w") as handle:
            json.dump({"jobs": jobs, "seconds": seconds, "trace": trace,
                       "timeout": BUDGET}, handle)
        setups = []
        runs = [["--setup-only"]] * (SETUP_SAMPLES - 1) + [[job_path, result_path]]
        for args in runs:
            process, ready, _ = start_child(args, env)
            setups.append(ready)
            try:
                process.communicate(timeout=150)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
            if process.returncode != 0:
                raise RuntimeError("solve_child exited with %d" % process.returncode)
        with open(result_path) as handle:
            passes = json.load(handle)["passes"]

    # Untimed: reference answers, then every answer of every pass.
    instances = [read_opb(job["opb"]) for job in jobs]
    expected = [reference(instance) for instance in instances]
    failures, attempted = [], 0
    for number, record in enumerate(passes):
        for job, instance, want, (status, cost, model) in zip(
                jobs, instances, expected, record["answers"]):
            attempted += 1
            why = check(instance, want, status, cost,
                        None if model is None else dict(model))
            if why:
                failures.append("pass %d %s: %s" % (number + 1, job["label"], why))

    plain = [record for record in passes if not record["traced"]]
    traced = [record for record in passes if record["traced"]]
    times = instance_times(plain)
    suite_s = sum(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "suite_s": suite_s,
        "solve_s_geomean": geomean(times),
        "job_p50_ms": 1000 * percentile(times, 0.50),
        "job_p95_ms": 1000 * percentile(times, 0.95),
        "jobs_per_s": len(times) / suite_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if trace:
        layers, problem = table1_layers(traced, suite_s)
        metrics.update(layers)
        if problem:
            failures.append(problem)
    return metrics, attempted, failures


def instance_times(passes: List[Dict]) -> List[float]:
    """Each instance's parse-and-solve time: the median over passes of
    its wall time scaled (``speed.py``) by the probes taken on the same
    core just before and after it."""
    scaled = [[REFERENCE_S * took * 2 / (before + after)
               for took, before, after in zip(
                   record["times"], record["probes"], record["probes"][1:])]
              for record in passes]
    return [statistics.median(samples) for samples in zip(*scaled)]


def table1_layers(traced: List[Dict], untraced_suite_s: float):
    """Per-layer metrics and a sum-check problem, if any.

    Self times and shares come from the fastest traced pass, so they add
    up to that pass's wall time; the overhead ratio compares traced and
    untraced suite times taken the same way (``instance_times``).
    """
    fastest = min(traced, key=lambda record: record["wall"])
    metrics: Dict[str, float] = {}
    for layer in SOLVER_LAYERS:
        spent = fastest["self_time"].get(layer, 0.0)
        metrics[layer + "_s"] = spent
        metrics[layer + "_share"] = spent / fastest["wall"]
        if layer in CALLS:
            metrics[CALLS[layer]] = fastest["calls"].get(layer, 0)
    total = sum(fastest["self_time"].values()) / fastest["wall"]
    stats = fastest["stats"]
    lpr = [entry["lb_stats"].get("lpr", {}) for entry in stats]
    lp_calls = sum(entry.get("calls", 0) for entry in lpr)
    metrics.update({
        "lp.simplex.iterations": sum(entry.get("iterations", 0) for entry in lpr),
        "lp.simplex.warm_share": (
            sum(entry.get("warm_calls", 0) for entry in lpr) / lp_calls
            if lp_calls else 0.0),
        "search.decisions": sum(entry["decisions"] for entry in stats),
        "search.conflicts": sum(entry["conflicts"] for entry in stats),
        "search.prune_ratio": (
            sum(entry["prunings"] for entry in stats)
            / max(1, sum(entry["lower_bound_calls"] for entry in stats))),
        "trace.suite_s": fastest["wall"],
        "trace.sum_ratio": total,
        "trace.overhead_ratio": sum(instance_times(traced)) / untraced_suite_s,
    })
    metrics.update({name: 0.0 for name in SERVICE_LAYERS})
    problem = None
    if abs(total - 1.0) > SUM_TOLERANCE:
        problem = "traced self times sum to %.3f of the traced suite time" % total
    return metrics, problem


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def service_round(env, workers, warmup, stream):
    """One server from spawn to shutdown: fill the cache with the
    warm-up jobs, run the timed stream, then read every job back.

    Returns ``(scaled setup seconds, wall, records, resources, cache
    counters of the timed stream, shutdown problems)``.
    """
    import service

    server = service.Server(env, workers)
    try:
        for job in warmup:
            record = service.submit(server, job)
            if record.get("event") != "result":
                raise RuntimeError("warm-up job %s: %s" % (job["label"], record))
        before = service.cache_counters(server.port)
        records, wall = service.closed_loop(server, stream)
        resources = [service.job_resource(server.port, record["id"])
                     if "id" in record else None for record in records]
        after = service.cache_counters(server.port)
        counters = {outcome: count - before.get(outcome, 0)
                    for outcome, count in after.items()}
    finally:
        problems = server.stop()
    return server.setup_scaled, wall, records, resources, counters, problems


def run_service(seed: int, seconds: float, trace: bool):
    """Returns ``(metrics, attempted, failures)``.

    The same job stream runs in ``SERVICE_ROUNDS`` rounds, each on a
    fresh server.  A job's time is its latency scaled by the speed
    sampled meanwhile (``speed.py``); the latency metrics are taken over
    every job of every round.
    """
    import service
    from answers import check, read_opb, reference

    from suites import service_jobs

    env = child_env()
    workers = max(1, len(os.sched_getaffinity(0)) - 1)
    warmup, stream = service_jobs(
        int(SERVICE_JOBS_PER_SECOND * seconds / SERVICE_ROUNDS), seed)
    for job in warmup + stream:
        job["body"] = json.dumps({"instance": job["opb"], "proof": job["proof"]}
                                 ).encode("utf-8")
    setups, failures, rounds = [], [], []
    for _ in range(SETUP_SAMPLES - SERVICE_ROUNDS):
        server = service.Server(env, workers)
        setups.append(server.setup_scaled)
        failures.extend(server.stop())
    for _ in range(SERVICE_ROUNDS):
        setup, wall, records, resources, counters, problems = service_round(
            env, workers, warmup, stream)
        setups.append(setup)
        failures.extend(problems)
        rounds.append((wall, records, resources, counters))

    # Untimed: reference answers and the check of every returned model.
    expected = [reference(read_opb(job["opb"])) for job in stream]
    run_ms, overhead_ms, queue_ms, delivery_ms = [], [], [], []
    for number, (_, records, resources, _) in enumerate(rounds):
        for job, want, record, resource_ in zip(stream, expected, records, resources):
            label = "round %d %s" % (number + 1, job["label"])
            if resource_ is None or resource_["state"] != "done":
                state = resource_["state"] if resource_ else record.get("state")
                failures.append("%s: job %s %s" % (
                    label, state, (resource_ or record).get("error", "")))
                record.pop("scaled", None)
                continue
            result = resource_["result"]
            why = check(read_opb(job["opb"]), want, result.get("status"),
                        result.get("cost"), result.get("model"))
            if why:
                failures.append("%s: %s" % (label, why))
            queue = resource_.get("queue_seconds", 0.0)
            run = resource_.get("elapsed_seconds", 0.0)
            queue_ms.append(1000 * queue)
            run_ms.append(1000 * run)
            if not result.get("cached"):
                overhead_ms.append(1000 * (run - result["stats"]["elapsed"]))
            delivery_ms.append(
                1000 * (record["latency"] - record["admit"] - queue - run))

    latencies = [record["scaled"] for _, records, _, _ in rounds
                 for record in records if "scaled" in record]
    admits = [1000 * records[index]["admit"] for _, records, _, _ in rounds
              for index in range(len(stream)) if "admit" in records[index]]
    wall = min(wall for wall, _, _, _ in rounds)
    hits = sum(counters.get("hit", 0) for _, _, _, counters in rounds)
    misses = sum(counters.get("miss", 0) for _, _, _, counters in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "suite_s": wall,
        "solve_s_geomean": geomean(latencies),
        "job_p50_ms": 1000 * percentile(latencies, 0.50),
        "job_p95_ms": 1000 * percentile(latencies, 0.95),
        "jobs_per_s": len(stream) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if trace:
        # The solver layers run in forked workers, out of reach of the
        # wrappers; this run is timed exactly like an untraced one, and
        # its layers partition each job's latency by construction.
        metrics.update({name: 0.0 for name in solver_layer_names()})
        metrics.update({
            "trace.suite_s": wall,
            "trace.sum_ratio": 1.0,
            "trace.overhead_ratio": 1.0,
            "service.admit_ms_p50": percentile(admits, 0.50),
            "service.admit_ms_p95": percentile(admits, 0.95),
            "service.queue_ms_p50": percentile(queue_ms, 0.50),
            "service.run_ms_p50": percentile(run_ms, 0.50),
            "service.worker_overhead_ms_p50": percentile(overhead_ms, 0.50),
            "service.delivery_ms_p50": percentile(delivery_ms, 0.50),
            "service.cache_hit_ratio": hits / max(1, hits + misses),
        })
    return metrics, len(stream) * SERVICE_ROUNDS, failures


# ----------------------------------------------------------------------
def declared() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    the checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(metrics: Dict[str, float], trace: bool, attempted: int,
                failures: List[str]) -> Dict:
    """The final JSON object: the declared metrics of this mode only."""
    units = declared()["per_layer" if trace else "end_to_end"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError("no value for declared metric(s) %s" % missing)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(ONE_THREAD)  # before numpy loads, here and in children
    trace = bool(args.trace)
    print("# env %s" % json.dumps(fingerprint(args.seed), sort_keys=True))
    if args.workload == "service-mix":
        metrics, attempted, failures = run_service(args.seed, args.seconds, trace)
    else:
        metrics, attempted, failures = run_table1(
            args.workload, args.seed, args.seconds, trace)
    result = result_line(metrics, trace, attempted, failures)
    for name, metric in result["metrics"].items():
        print("%-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("failed_share %.4f (%d of %d)" % (
        len(failures) / attempted, len(failures), attempted))
    for failure in failures:
        print("FAILED %s" % failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
