"""Metric parity: recorded solves replay to the same registry contents.

``tests/data/metric_parity.json`` holds seeded grout, mcnc, ptl and
random instances solved under every lower-bound method on the counter
propagation engine, one incremental-session stream and one proof run,
together with every counter value and each histogram's sample count the
:class:`~repro.obs.metrics.MetricsRegistry` held afterwards
(``tools/record_metric_parity.py``).  Replaying a case must give the
same numbers: the registry is fed from the search-event stream, and the
search itself is deterministic.  A counter absent from the recording
must read 0 (every solver family is registered up front).
"""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "record_metric_parity", os.path.join(_ROOT, "tools", "record_metric_parity.py")
)
recorder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(recorder)

with open(os.path.join(_ROOT, "tests", "data", "metric_parity.json")) as _handle:
    DATA = json.load(_handle)


def test_recording_covers_every_axis():
    cases = DATA["cases"]
    options = [case["options"] for case in cases]
    assert {o["lower_bound"] for o in options} == {"mis", "lgr", "lpr", "hybrid"}
    assert {o.get("propagation") for o in options} - {None} == {"counter"}
    assert any("steps" in case for case in cases)
    proof = [case for case in cases if case.get("proof")]
    assert proof and proof[0]["counters"]["solver_uncertified_prunes"] > 0
    for family in ("solver_prunings", "solver_restarts", "lp_batch_pivots"):
        assert any(case["counters"].get(family) for case in cases), family


@pytest.mark.parametrize(
    "case", DATA["cases"], ids=[case["name"] for case in DATA["cases"]]
)
def test_replay_matches_recording(case):
    registry = recorder.run_case(case, DATA["instances"][case["instance"]])
    replay = recorder.samples(registry)
    assert replay["histograms"] == case["histograms"]
    counters = replay["counters"]
    for key, value in case["counters"].items():
        assert counters.get(key) == value, key
    extra = {key: value for key, value in counters.items() if key not in case["counters"]}
    assert not any(extra.values()), extra
