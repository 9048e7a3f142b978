"""Record solver metrics for the metric-parity test.

Solves seeded grout, mcnc, ptl and random instances under every
``lower_bound`` method in {mis, lgr, lpr, hybrid} on the counter
propagation engine, replays one :class:`repro.incremental.SolverSession` push/pop
``solve_under`` stream, and runs one proof-logged solve, each with a
fresh :class:`repro.obs.metrics.MetricsRegistry`.  Every counter value
and each histogram's sample count, per label set, is written as JSON
together with the instances (as OPB text) for
``tests/test_metrics_parity.py`` to replay.

The committed file is the reference for "same metrics": regenerate it
only for a change that is meant to alter what the solver counts, and
say so in the change log.

Run from the repository root::

    PYTHONPATH=src python tools/record_metric_parity.py \
        --output tests/data/metric_parity.json

``--traces DIR`` also writes each case's JSONL trace to ``DIR`` (for
comparing the event stream of two versions; not part of the fixture).
"""

from __future__ import annotations

import argparse
import json
import os
from io import StringIO
from typing import Any, Dict, List, Optional

from repro.api import solve
from repro.benchgen import constraint_stream, generate_planted, ptl_suite
from repro.certify import ProofLogger
from repro.core.options import SolverOptions
from repro.experiments.table1 import family_instances
from repro.incremental import SolverSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, JsonlTracer
from repro.pb.constraints import Constraint
from repro.pb.opb import parse, write

METHODS = ("mis", "lgr", "lpr", "hybrid")
ENGINES = ("counter",)
#: Family -> scale of the one instance drawn from ``family_instances``.
SCALES = {"grout": 0.8, "mcnc": 0.8, "ptl": 0.5}
RANDOM_SEED = 1
#: Extra options of the random cases: restarts after every conflict, so
#: ``solver_restarts`` is exercised too.
RANDOM_OPTIONS = {"restarts": True, "restart_interval": 1}
STREAM_SEED = 3
STREAM_METHOD = "hybrid"
PROOF_METHOD = "lpr"


def instance_texts() -> Dict[str, str]:
    """Label -> OPB text of every instance the cases solve."""
    texts = {}
    for family, scale in SCALES.items():
        instances, labels = family_instances(family, 1, scale)
        texts["%s@%s" % (labels[0], scale)] = write(instances[0])
    planted, _ = generate_planted(60, 30, max_arity=5, seed=RANDOM_SEED)
    texts["random-%d" % RANDOM_SEED] = write(planted)
    texts["ptl-proof"] = write(ptl_suite(count=2, seed=9)[1])
    stream = constraint_stream(seed=STREAM_SEED)
    texts["stream-%d" % STREAM_SEED] = write(stream.instance)
    return texts


def stream_steps() -> List[Dict[str, Any]]:
    """The session stream's steps as JSON (push constraints as terms)."""
    steps = []
    for step in constraint_stream(seed=STREAM_SEED).steps:
        push = None
        if step.push is not None:
            push = [[list(term) for term in step.push.terms], step.push.rhs]
        steps.append(
            {"pop": step.pop, "push": push, "assumptions": list(step.assumptions)}
        )
    return steps


def case_specs(texts: Dict[str, str]) -> List[Dict[str, Any]]:
    """Every case: instance label, options, and the session/proof mode."""
    cases = []
    for label in texts:
        if label.startswith(("ptl-proof", "stream-")):
            continue
        for method in METHODS:
            for engine in ENGINES:
                options = {"lower_bound": method, "propagation": engine}
                if label.startswith("random-"):
                    options.update(RANDOM_OPTIONS)
                cases.append(
                    {
                        "name": "%s/%s/%s" % (label, method, engine),
                        "instance": label,
                        "options": options,
                    }
                )
    cases.append(
        {
            "name": "stream-%d/%s/session" % (STREAM_SEED, STREAM_METHOD),
            "instance": "stream-%d" % STREAM_SEED,
            "options": {"lower_bound": STREAM_METHOD},
            "steps": stream_steps(),
        }
    )
    cases.append(
        {
            "name": "ptl-proof/%s/proof" % PROOF_METHOD,
            "instance": "ptl-proof",
            "options": {"lower_bound": PROOF_METHOD},
            "proof": True,
        }
    )
    return cases


def run_case(case: Dict[str, Any], text: str, tracer=None) -> MetricsRegistry:
    """Solve one case with a fresh registry (and ``tracer``, if given)."""
    registry = MetricsRegistry()
    instance = parse(text)
    options = SolverOptions(
        metrics=registry,
        tracer=tracer,
        **case["options"],
    )
    if "steps" in case:
        session = SolverSession(instance, options)
        for step in case["steps"]:
            if step["pop"]:
                session.pop()
            if step["push"] is not None:
                terms, rhs = step["push"]
                session.push()
                session.add_constraint(
                    Constraint(tuple(tuple(term) for term in terms), rhs)
                )
            session.solve_under(step["assumptions"])
    elif case.get("proof"):
        solve(instance, options=options.replace(proof=ProofLogger(StringIO())))
    else:
        solve(instance, options=options)
    return registry


def samples(registry: MetricsRegistry) -> Dict[str, Dict[str, Any]]:
    """``{"counters": {key: value}, "histograms": {key: count}}``; a key
    is the family name plus its sorted ``label=value`` pairs."""
    counters: Dict[str, Any] = {}
    histograms: Dict[str, int] = {}
    for name, family in registry.as_dict().items():
        for sample in family["samples"]:
            labels = ",".join(
                "%s=%s" % pair for pair in sorted(sample["labels"].items())
            )
            key = "%s{%s}" % (name, labels) if labels else name
            if family["type"] == "histogram":
                histograms[key] = sample["count"]
            else:
                counters[key] = sample["value"]
    return {"counters": counters, "histograms": histograms}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="JSON file to write")
    parser.add_argument("--traces", help="directory for per-case JSONL traces")
    args = parser.parse_args(argv)
    texts = instance_texts()
    cases = case_specs(texts)
    for index, case in enumerate(cases):
        tracer = NULL_TRACER
        if args.traces:
            os.makedirs(args.traces, exist_ok=True)
            tracer = JsonlTracer(os.path.join(args.traces, "%02d.jsonl" % index))
        registry = run_case(case, texts[case["instance"]], tracer)
        tracer.close()
        case.update(samples(registry))
    with open(args.output, "w") as handle:
        json.dump({"instances": texts, "cases": cases}, handle, indent=1)
        handle.write("\n")
    print("wrote %d cases to %s" % (len(cases), args.output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
