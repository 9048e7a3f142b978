"""Pivot-path regression: recorded node LPs replay to the same outcomes.

``tests/data/simplex_paths.json`` holds node relaxations built by
``build_lp_data`` on grout, mcnc and ptl instances (random partial
assignments, Section 5 cuts as extra rows) together with what the
simplex returned when they were recorded (``tools/record_simplex_paths.py``).
The counts must match exactly — the same pivots in the same order — and
the float outputs to 1e-9.
"""

import json
import os

import numpy as np
import pytest

from repro.lp.simplex import OPTIMAL, SimplexSolver

DATA = os.path.join(os.path.dirname(__file__), "data", "simplex_paths.json")

with open(DATA) as _handle:
    RECORDS = json.load(_handle)["lps"]


def dense(record):
    A = np.zeros((len(record["b"]), len(record["c"])))
    for i, row in enumerate(record["rows"]):
        for j, value in row:
            A[i, j] = value
    return A


def test_recording_covers_both_phases_and_refactorization():
    statuses = {record["status"] for record in RECORDS}
    assert statuses == {OPTIMAL, "infeasible"}
    assert len(RECORDS) >= 140
    assert max(record["iterations"] for record in RECORDS) > 120


@pytest.mark.parametrize(
    "record", RECORDS, ids=["%d-%s" % (i, r["source"]) for i, r in enumerate(RECORDS)]
)
def test_replay_matches_recording(record):
    solver = SimplexSolver(
        record["c"], dense(record), record["b"], record["senses"],
        upper=np.ones(len(record["c"])),
    )
    result = solver.solve()
    assert result.status == record["status"]
    assert result.iterations == record["iterations"]
    assert solver.batch_pivots == record["batch_pivots"]
    if record["status"] == OPTIMAL:
        assert result.objective == pytest.approx(record["objective"], abs=1e-9)
        np.testing.assert_allclose(result.x, record["x"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.duals, record["duals"], rtol=0, atol=1e-9)
