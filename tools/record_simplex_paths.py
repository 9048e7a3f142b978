"""Record node LPs and their simplex outcomes for the pivot-path test.

Builds relaxations with :func:`repro.lp.standard_form.build_lp_data` on
grout, mcnc and ptl instances from :mod:`repro.benchgen`, under seeded
random partial assignments and with Section 5 cuts as extra rows, and
solves each with :class:`repro.lp.simplex.SimplexSolver`.  The LPs and
what the solver returned (status, iterations, batched pivots, objective,
``x`` and duals) are written as JSON for
``tests/test_simplex_paths.py`` to replay.

The committed file is the reference for "same pivots": regenerate it
only for a change that is meant to alter the pivot sequence, and say so
in the change log.

Run from the repository root::

    PYTHONPATH=src python tools/record_simplex_paths.py \
        --output tests/data/simplex_paths.json
"""

from __future__ import annotations

import argparse
import json
import random
from typing import Dict, List

from repro.core.cuts import CutGenerator
from repro.experiments.table1 import family_instances
from repro.lp.simplex import OPTIMAL, SimplexSolver
from repro.lp.standard_form import build_lp_data

#: Family -> ``(scale, instances, nodes per instance)`` to draw: the
#: benchmark suite's small shapes plus one larger instance, some of whose
#: LPs run past a refactorization.
SHAPES = {
    "grout": ((0.6, 3, 14), (1.0, 1, 8)),
    "mcnc": ((0.5, 3, 14), (1.0, 1, 8)),
    "ptl": ((0.3, 3, 14), (0.8, 1, 8)),
}
SEED = 20051


def node_lps(instance, rng: random.Random, count: int) -> List[Dict]:
    """Up to ``count`` non-empty node LPs of ``instance``."""
    variables = sorted(instance.variables())
    total_cost = sum(instance.objective.costs.values())
    cuts = CutGenerator(instance)
    records = []
    for _ in range(4 * count):
        if len(records) == count:
            break
        share = rng.choice((0.0, 0.2, 0.4, 0.6, 0.7))
        fixed = {var: rng.randint(0, 1) for var in variables if rng.random() < share}
        extra = []
        if total_cost and rng.random() < 0.7:
            upper = rng.randint(1, total_cost)
            knapsack, pairs, _ = cuts.cuts_for(upper)
            if knapsack is not None:
                extra.append(knapsack)
            extra.extend(cut for cut, _ in pairs)
        data = build_lp_data(instance, fixed, extra)
        if data is None or data.num_rows == 0:
            continue
        solver = SimplexSolver(
            data.c, data.A, data.b, data.senses, upper=[1.0] * data.num_columns
        )
        result = solver.solve()
        record = {
            "c": data.c.tolist(),
            "rows": [
                [[j, float(v)] for j, v in enumerate(row) if v != 0.0]
                for row in data.A.tolist()
            ],
            "b": data.b.tolist(),
            "senses": list(data.senses),
            "status": result.status,
            "iterations": result.iterations,
            "batch_pivots": solver.batch_pivots,
        }
        if result.status == OPTIMAL:
            record["objective"] = result.objective
            record["x"] = result.x.tolist()
            record["duals"] = result.duals.tolist()
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    lps: List[Dict] = []
    for family, shapes in SHAPES.items():
        for scale, count, nodes in shapes:
            instances, labels = family_instances(family, count, scale)
            for instance, label in zip(instances, labels):
                for record in node_lps(instance, rng, nodes):
                    record["source"] = "%s@%s" % (label, scale)
                    lps.append(record)
    with open(args.output, "w") as handle:
        json.dump({"seed": SEED, "lps": lps}, handle, separators=(",", ":"))
        handle.write("\n")
    print("wrote %d LPs to %s" % (len(lps), args.output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
