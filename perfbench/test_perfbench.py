"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The last two run the benchmark briefly (about two minutes in all).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from answers import INFEASIBLE, check, read_opb, reference, renamed, write_opb
from run import instance_times
from spans import SpanRecorder
from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# x1 + x2 >= 1, x2 + x3 >= 1, x1 + x3 >= 1, costs 3/2/2: optimum 4 (x2, x3).
TRIANGLE = """* #variable= 3 #constraint= 3
min: +3 x1 +2 x2 +2 x3 ;
+1 x1 +1 x2 >= 1 ;
+1 x2 +1 x3 >= 1 ;
+1 x1 +1 x3 >= 1 ;
"""


def test_reference_and_a_right_answer():
    instance = read_opb(TRIANGLE)
    assert reference(instance) == 4
    assert check(instance, 4, "optimal", 4, {"1": 0, "2": 1, "3": 1}) is None


def test_checker_flags_a_corrupted_cost():
    instance = read_opb(TRIANGLE)
    assert "reference optimum" in check(instance, 4, "optimal", 5,
                                        {1: 0, 2: 1, 3: 1})
    # right cost claimed for a model that costs more
    assert "model costs" in check(instance, 4, "optimal", 4, {1: 1, 2: 1, 3: 0})


def test_checker_flags_an_infeasible_model():
    instance = read_opb(TRIANGLE)
    assert "violates constraint" in check(instance, 4, "optimal", 2,
                                          {1: 0, 2: 0, 3: 1})
    assert "unassigned" in check(instance, 4, "optimal", 4, {2: 1, 3: 1})


def test_checker_flags_budget_hits_and_wrong_verdicts():
    instance = read_opb(TRIANGLE)
    assert "status unknown" in check(instance, 4, "unknown", 4, {1: 0, 2: 1, 3: 1})
    infeasible = read_opb("+1 x1 >= 1 ;\n+1 ~x1 >= 1 ;\n")
    assert reference(infeasible) == INFEASIBLE
    assert check(infeasible, INFEASIBLE, "unsatisfiable", None, None) is None
    assert check(infeasible, INFEASIBLE, "satisfiable", None, {1: 1})


def test_renaming_keeps_the_optimum_and_round_trips():
    import random

    instance = read_opb(TRIANGLE)
    other = renamed(instance, random.Random(3))
    assert reference(other) == 4
    again = read_opb(write_opb(other))
    assert again.constraints == other.constraints
    assert again.objective == other.objective


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] encloses a [1, 4] (which encloses b [2, 3]) and
    # c [5, 9] (which encloses another a [6, 7]).
    now = [0.0]
    recorder = SpanRecorder(clock=lambda: now[0])

    def advance(to):
        now[0] = to

    def span(name, start, end, *children):
        def body():
            for child in children:
                child()
            advance(end)

        def call():
            advance(start)
            recorder.wrap(name, body)()
        return call

    span("root", 0, 10,
         span("a", 1, 4, span("b", 2, 3)),
         span("c", 5, 9, span("a", 6, 7)))()
    assert dict(recorder.self_time) == {"root": 3.0, "a": 3.0, "b": 1.0, "c": 3.0}
    assert dict(recorder.calls) == {"root": 1, "a": 2, "b": 1, "c": 1}
    assert sum(recorder.self_time.values()) == 10.0


def test_instance_times_scale_by_the_probes_around_each_instance():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S
    # Scaled samples: first instance 1.0, 1.0, 1.0; second 0.667, 1.2, 0.5.
    passes = [
        {"times": [2.0, 1.0], "probes": [slow, slow, fast]},
        {"times": [1.0, 1.2], "probes": [fast, fast, fast]},
        {"times": [1.5, 1.0], "probes": [fast, slow, slow]},
    ]
    assert instance_times(passes) == pytest.approx([1.0, 2 / 3])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload,trace", [
    ("table1-lpr", 0), ("table1-search", 1), ("service-mix", 0),
    ("service-mix", 1)])
def test_output_names_every_declared_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-lpr",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
