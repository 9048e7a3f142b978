#!/usr/bin/env python
"""Benchmark regression tracking: diff two ``BENCH_*.json`` reports.

Compares a candidate benchmark report (``python -m repro.experiments
propbench`` / ``lbbench`` output) against a committed baseline and exits
non-zero when a tracked metric regressed beyond tolerance.  What is
compared depends on whether the two reports were produced with the same
configuration:

scale-invariant (always compared)
    ``lockstep_*`` booleans — backend/bounder equivalence claims.  A
    ``True`` in the baseline that turned ``False`` is always a
    regression, at any scale.

relative metrics (same-config only)
    ``speedup_*`` ratios — compared with ``--tolerance`` percent
    allowed degradation.  This prefix covers both the per-call counters (``speedup_mis_calls_per_sec``)
    and the end-to-end wall-clock keys (``speedup_<backend>_wall`` from
    propbench solve mode, ``speedup_<config>_wall`` from lbbench solve
    mode).  Skipped when the configs differ: a speedup measured on tiny
    CI instances is not comparable to one measured at full scale.

absolute rates (same-config only)
    ``props_per_sec`` / ``conflicts_per_sec`` / ``calls_per_sec`` —
    compared with ``--rate-tolerance`` percent allowed degradation
    (generous by default: absolute rates are machine-dependent).

solution quality (same-config only)
    per-instance ``costs`` must not get worse, and the number of solved
    ``statuses`` must not drop.

candidate self-checks (no baseline needed)
    ``metrics_overhead.overhead_pct`` must stay under
    ``--overhead-limit`` — the zero-overhead-when-disabled contract.

``--quick`` regenerates a quick candidate in-process (the CI smoke
configuration of propbench) and diffs it against the committed baseline;
because the configs differ only the scale-invariant checks and the
self-checks apply.

Exit codes: 0 no regression, 1 regression(s) found, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Leaf keys treated as absolute throughput rates (machine-dependent).
RATE_KEYS = ("props_per_sec", "conflicts_per_sec", "calls_per_sec")


def _flatten(
    prefix: str, node: Any, leaves: Dict[str, Any]
) -> None:
    """Flatten a nested report dict into ``path -> leaf value``."""
    if isinstance(node, dict):
        for key in node:
            _flatten("%s.%s" % (prefix, key) if prefix else key,
                     node[key], leaves)
    else:
        leaves[prefix] = node


def _leaf_name(path: str) -> str:
    """The final component of a flattened metric path."""
    return path.rsplit(".", 1)[-1]


def compare_reports(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance: float = 25.0,
    rate_tolerance: float = 50.0,
    overhead_limit: float = 10.0,
) -> List[Dict[str, Any]]:
    """Diff two benchmark reports; returns the list of findings.

    Each finding is ``{"metric", "baseline", "candidate", "kind",
    "regression"}``; callers decide what to do with non-regression
    informational entries.
    """
    same_config = baseline.get("config") == candidate.get("config")
    findings: List[Dict[str, Any]] = []

    def record(metric: str, kind: str, base: Any, cand: Any,
               regression: bool, note: str = "") -> None:
        """Append one comparison outcome."""
        findings.append(
            {
                "metric": metric,
                "kind": kind,
                "baseline": base,
                "candidate": cand,
                "regression": regression,
                "note": note,
            }
        )

    base_leaves: Dict[str, Any] = {}
    cand_leaves: Dict[str, Any] = {}
    _flatten("", baseline.get("families", {}), base_leaves)
    _flatten("", candidate.get("families", {}), cand_leaves)

    for path, base_value in sorted(base_leaves.items()):
        name = _leaf_name(path)
        cand_value = cand_leaves.get(path)
        if name.startswith("lockstep_"):
            if cand_value is None:
                continue
            record(
                path, "lockstep", base_value, cand_value,
                regression=bool(base_value) and not bool(cand_value),
            )
            continue
        if not same_config:
            continue
        if cand_value is None:
            continue
        if name.startswith("speedup_"):
            if not isinstance(base_value, (int, float)) or not base_value:
                continue
            floor = base_value * (1.0 - tolerance / 100.0)
            record(
                path, "relative", base_value, cand_value,
                regression=isinstance(cand_value, (int, float))
                and cand_value < floor,
                note="floor %.3f (tolerance %.0f%%)" % (floor, tolerance),
            )
            continue
        if name in RATE_KEYS:
            if not isinstance(base_value, (int, float)) or not base_value:
                continue
            floor = base_value * (1.0 - rate_tolerance / 100.0)
            record(
                path, "rate", base_value, cand_value,
                regression=isinstance(cand_value, (int, float))
                and cand_value < floor,
                note="floor %.1f (tolerance %.0f%%)" % (floor, rate_tolerance),
            )
            continue
        if name == "costs" and isinstance(base_value, list):
            if not isinstance(cand_value, list) or len(cand_value) != len(base_value):
                continue
            worse = any(
                c is not None and b is not None and c > b
                for b, c in zip(base_value, cand_value)
            )
            record(path, "costs", base_value, cand_value, regression=worse)
            continue
        if name == "statuses" and isinstance(base_value, list):
            if not isinstance(cand_value, list):
                continue
            solved = lambda statuses: sum(  # noqa: E731 - local helper
                1 for s in statuses if s in ("optimal", "unsatisfiable")
            )
            record(
                path, "statuses", base_value, cand_value,
                regression=solved(cand_value) < solved(base_value),
            )

    # Candidate self-checks: the disabled-metrics overhead contract.
    for path, value in sorted(cand_leaves.items()):
        if _leaf_name(path) == "overhead_pct":
            record(
                path, "overhead", None, value,
                regression=isinstance(value, (int, float))
                and value > overhead_limit,
                note="limit %.1f%%" % overhead_limit,
            )
    return findings


def format_findings(findings: List[Dict[str, Any]]) -> str:
    """Human-readable diff table; regressions flagged with ``REGRESSION``."""
    if not findings:
        return "no comparable metrics found"
    lines = []
    for item in findings:
        flag = "REGRESSION" if item["regression"] else "ok"
        note = (" [%s]" % item["note"]) if item["note"] else ""
        lines.append(
            "%-10s %-9s %s: %s -> %s%s"
            % (flag, item["kind"], item["metric"],
               item["baseline"], item["candidate"], note)
        )
    regressions = sum(1 for item in findings if item["regression"])
    lines.append(
        "%d metrics compared, %d regression(s)" % (len(findings), regressions)
    )
    return "\n".join(lines)


def _load(path: str) -> Dict[str, Any]:
    """Read one benchmark report, exiting with code 2 on failure."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print("benchdiff: cannot read %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(2)


def _quick_candidate() -> Dict[str, Any]:
    """Regenerate a quick propbench report (the CI smoke configuration)."""
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
    )
    from repro.experiments.propbench import run_propbench

    return run_propbench(
        count=2, scale=0.25, rounds=10, trials=1,
        max_conflicts=200, time_limit=10.0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring for semantics."""
    parser = argparse.ArgumentParser(
        prog="benchdiff",
        description="Diff two BENCH_*.json reports and flag regressions",
    )
    parser.add_argument(
        "baseline", nargs="?", default=None,
        help="committed baseline report (e.g. BENCH_propagation.json)",
    )
    parser.add_argument(
        "candidate", nargs="?", default=None,
        help="freshly generated report to check",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=(
            "generate a quick propbench candidate in-process and diff it "
            "against the baseline (default BENCH_propagation.json)"
        ),
    )
    parser.add_argument(
        "--tolerance", type=float, default=25.0, metavar="PCT",
        help="allowed degradation of relative metrics (default 25%%)",
    )
    parser.add_argument(
        "--rate-tolerance", type=float, default=50.0, metavar="PCT",
        help="allowed degradation of absolute rates (default 50%%)",
    )
    parser.add_argument(
        "--overhead-limit", type=float, default=10.0, metavar="PCT",
        help="maximum disabled-metrics overhead self-check (default 10%%)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the findings as JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        baseline_path = args.baseline or "BENCH_propagation.json"
        baseline = _load(baseline_path)
        candidate = _quick_candidate()
        print("benchdiff --quick: fresh propbench vs %s" % baseline_path)
    else:
        if not args.baseline or not args.candidate:
            parser.error("need BASELINE and CANDIDATE (or --quick)")
        baseline = _load(args.baseline)
        candidate = _load(args.candidate)

    findings = compare_reports(
        baseline, candidate,
        tolerance=args.tolerance,
        rate_tolerance=args.rate_tolerance,
        overhead_limit=args.overhead_limit,
    )
    print(format_findings(findings))
    if args.report:
        payload = {
            "regressions": sum(1 for f in findings if f["regression"]),
            "findings": findings,
        }
        try:
            with open(args.report, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print("benchdiff: cannot write report: %s" % exc, file=sys.stderr)
            return 2
    return 1 if any(f["regression"] for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
