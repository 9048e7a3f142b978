"""Gate: a disabled metrics registry must cost nothing on propagation.

``SolverOptions(metrics=NULL_METRICS)`` resolves, through
:func:`repro.obs.sink_for`, to the null tracer, and an engine built with
it must stay on its raw propagation loop.  This script replays the same
seeded decision walk (decide, propagate, step one level back on a
conflict, rewind to the root between rounds) on an engine built with no
sink and on one built with that disabled sink, and compares the best
time of each side over several interleaved trials.  Alternating the two
sides makes slow drift on the host hit both equally.

One ptl, one grout and one planted random instance are replayed.  Timing
noise on a shared machine can exceed 2% in a single sample, so a run
that measures above the bar is retried; an overhead that is structural
fails every attempt.  Run from the repository root::

    PYTHONPATH=src python tools/check_metrics_overhead.py

It prints each attempt and exits non-zero when all of them are above the
bar.
"""

from __future__ import annotations

import random
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.benchgen import generate_planted, ptl_suite, routing_suite
from repro.core.options import SolverOptions
from repro.engine.interface import Conflict, make_engine
from repro.obs import NULL_METRICS, sink_for
from repro.pb.instance import PBInstance

#: Largest accepted slowdown of the disabled side, in percent.
LIMIT_PCT = 2.0
ROUNDS = 60
TRIALS = 6
ATTEMPTS = 3
SEED = 1000


def instances() -> List[PBInstance]:
    """The replayed instances: one each of ptl, grout and planted random."""
    return [
        ptl_suite(1, seed=5, nodes=20, extra_edges=15)[0],
        routing_suite(1, seed=9)[0],
        generate_planted(
            num_variables=30,
            num_constraints=45,
            max_arity=8,
            max_coefficient=6,
            seed=700,
        )[0],
    ]


def drive_replay(
    instance: PBInstance, engine_name: str, seed: int, rounds: int, tracer=None
) -> float:
    """Seconds taken by one seeded decision walk on a fresh engine.

    Constraint loading is outside the timed region; the decide,
    propagate and backtrack calls are inside it.
    """
    engine = make_engine(engine_name, instance.num_variables, tracer=tracer)
    for constraint in instance.constraints:
        engine.add_constraint(constraint)
    engine.propagate()
    rng = random.Random(seed)
    order = list(range(1, instance.num_variables + 1))
    trail = engine.trail
    values = trail._value
    decide, propagate = engine.decide, engine.propagate
    coin = rng.random
    started = time.perf_counter()
    for _ in range(rounds):
        rng.shuffle(order)
        for variable in order:
            if values[variable] >= 0:
                continue
            decide(variable if coin() < 0.5 else -variable)
            if isinstance(propagate(), Conflict):
                level = trail.decision_level
                if level == 0:
                    return time.perf_counter() - started
                engine.backtrack(level - 1)
        engine.backtrack(0)
    return time.perf_counter() - started


def measure_overhead(
    replayed: Sequence[PBInstance],
    engine_name: str = "counter",
    rounds: int = ROUNDS,
    trials: int = TRIALS,
    seed: int = SEED,
) -> Dict[str, float]:
    """Best-of-``trials`` seconds per side and the overhead in percent."""
    disabled = sink_for(SolverOptions(metrics=NULL_METRICS))
    best: Dict[str, Optional[float]] = {"baseline": None, "disabled": None}
    for _ in range(max(1, trials)):
        for label, tracer in (("baseline", None), ("disabled", disabled)):
            seconds = sum(
                drive_replay(instance, engine_name, seed + index, rounds, tracer)
                for index, instance in enumerate(replayed)
            )
            if best[label] is None or seconds < best[label]:
                best[label] = seconds
    baseline, slowed = best["baseline"], best["disabled"]
    overhead = (slowed / baseline - 1.0) * 100.0 if baseline > 0 else 0.0
    return {
        "baseline_seconds": round(baseline, 6),
        "disabled_seconds": round(slowed, 6),
        "overhead_pct": round(overhead, 3),
    }


def main() -> int:
    """Run up to ``ATTEMPTS`` measurements on the default engine."""
    engine_name = SolverOptions().propagation
    replayed = instances()
    results = []
    for attempt in range(ATTEMPTS):
        outcome = measure_overhead(replayed, engine_name)
        print("attempt %d (%s): %s" % (attempt, engine_name, outcome))
        results.append(outcome["overhead_pct"])
        if outcome["overhead_pct"] < LIMIT_PCT:
            return 0
    print(
        "disabled-metrics overhead above %.1f%% on %s in every attempt: %r"
        % (LIMIT_PCT, engine_name, results),
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
