"""Command-line interface: ``bsolo [options] instance.opb``.

Solves an OPB file with any registered solver configuration and prints a
result summary.  Mirrors the way the original bsolo prototype was driven
in the paper's experiments, plus the observability surface: ``--trace``
writes a JSONL search-event trace, ``--profile`` prints the per-phase
wall-time breakdown, ``--stats-json`` persists machine-readable stats,
and ``--progress`` prints periodic ``c``-prefixed heartbeats.

``--proof FILE.pbp`` makes the run *certifying*: the solver records a
cutting-planes derivation of its answer that the independent checker
(``python -m repro certify instance.opb FILE.pbp``, implemented by
:func:`certify_main`) can replay without trusting any search code.  See
``docs/PROOFS.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .api import available_solvers, solver_descriptions
from .engine import available_engines, engine_descriptions
from .experiments.runner import run_one
from .obs.report import format_profile
from .obs.trace import JsonlTracer
from .pb.opb import parse_file


def build_parser() -> argparse.ArgumentParser:
    """The ``bsolo`` argument parser (solver list in the epilog)."""
    solver_lines = "\n".join(
        "  %-16s %s" % (name, description)
        for name, description in solver_descriptions().items()
    )
    engine_lines = "\n".join(
        "  %-16s %s" % (name, description)
        for name, description in engine_descriptions().items()
    )
    parser = argparse.ArgumentParser(
        prog="bsolo",
        description=(
            "Pseudo-boolean optimizer with lower bounding "
            "(reproduction of Manquinho & Marques-Silva, DATE 2005)"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="registered solvers:\n%s\n\npropagation backends:\n%s\n\n"
               "Table 1 aliases: pbs, galena, cplex, scherzo"
               % (solver_lines, engine_lines),
    )
    parser.add_argument(
        "instance", help="path to an .opb (or, with --wbo, .wbo) file"
    )
    parser.add_argument(
        "--wbo",
        action="store_true",
        help=(
            "treat the instance as a WBO soft-constraint file and "
            "minimize the total violation weight (implied by a .wbo "
            "extension)"
        ),
    )
    parser.add_argument(
        "--wbo-mode",
        default="direct",
        choices=["direct", "core-guided"],
        metavar="MODE",
        help=(
            "WBO strategy: 'direct' PBO compilation or the session-driven "
            "unsat-'core-guided' loop (default: direct)"
        ),
    )
    parser.add_argument(
        "--solver",
        default="bsolo-lpr",
        choices=available_solvers(include_aliases=True),
        metavar="NAME",
        help="registered solver name (default: bsolo-lpr); see the list below",
    )
    parser.add_argument(
        "--portfolio",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run an N-worker parallel portfolio (diversified solver "
            "configurations with incumbent exchange) instead of --solver"
        ),
    )
    parser.add_argument(
        "--propagation",
        default="counter",
        choices=available_engines(),
        metavar="ENGINE",
        help=(
            "propagation backend (default: counter); see the list below"
        ),
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget (default: unlimited)",
    )
    parser.add_argument(
        "--lb-schedule",
        default="static",
        choices=["static", "adaptive"],
        metavar="POLICY",
        help=(
            "bound-call scheduling policy (bsolo-* solvers): 'static' "
            "bounds every lb-frequency-th node, 'adaptive' tunes the "
            "interval from the recent prune rate (default: static)"
        ),
    )
    parser.add_argument(
        "--cold-bounds",
        action="store_true",
        help=(
            "disable the trail-delta MIS cache and recompute every MIS "
            "bound from scratch (the LP bound is always solved cold)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print search statistics",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="write status, cost and full stats as one JSON object",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help=(
            "write a JSONL search-event trace (bsolo-* and pbs solvers; "
            "one event per line, run-header first, result last)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect per-phase wall times and print the profile table",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a 'c progress' line every N conflicts (bsolo-* solvers)",
    )
    parser.add_argument(
        "--progress-interval",
        type=int,
        default=1000,
        metavar="N",
        help="conflicts between progress reports (default: 1000)",
    )
    parser.add_argument(
        "--model",
        action="store_true",
        help="print the best assignment as a literal list",
    )
    parser.add_argument(
        "--proof",
        metavar="FILE.pbp",
        default=None,
        help=(
            "write a checkable cutting-planes proof of the answer "
            "(bsolo-* solvers); verify it afterwards with "
            "'python -m repro certify INSTANCE FILE.pbp'"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help=(
            "collect solver metrics (counters/gauges/histograms) and "
            "write the text exposition to FILE ('-' for stdout as "
            "c-prefixed lines); with --portfolio the workers' snapshots "
            "are merged"
        ),
    )
    parser.add_argument(
        "--hotspot",
        metavar="FILE",
        default=None,
        help=(
            "profile the solve with the per-phase hotspot profiler, "
            "write collapsed stacks (flamegraph input) to FILE and print "
            "the top self-time table (single-solver runs only)"
        ),
    )
    return parser


def _format_stat(value: Any) -> str:
    """Deterministic rendering: floats always get 6 decimals."""
    if isinstance(value, float):
        return "%.6f" % value
    return str(value)


def _print_stats(stats: Dict[str, Any], prefix: str = "") -> None:
    """Flatten nested stat dicts into sorted ``c key value`` lines."""
    for key, value in sorted(stats.items()):
        name = prefix + key
        if isinstance(value, dict):
            _print_stats(value, prefix=name + ".")
            continue
        print("c %s %s" % (name, _format_stat(value)))


def _print_progress(stats, best, lower) -> None:
    print(
        "c progress conflicts=%d decisions=%d best=%s lower=%s"
        % (
            stats.conflicts,
            stats.decisions,
            "-" if best is None else best,
            "-" if lower is None else lower,
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Solve one OPB instance; returns 0 when the run finished solved."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.progress_interval < 1:
        parser.error("--progress-interval must be >= 1")
    if args.portfolio is not None and args.portfolio < 1:
        parser.error("--portfolio must be >= 1")
    if args.portfolio is not None and args.hotspot:
        parser.error(
            "--hotspot is not supported with --portfolio (the profiler "
            "cannot cross the worker process boundary)"
        )
    if args.proof and args.portfolio is not None:
        parser.error(
            "--proof is not supported with --portfolio (proof sinks cannot "
            "cross the worker process boundary)"
        )
    if args.proof and not args.solver.startswith("bsolo"):
        parser.error(
            "--proof requires a bsolo-* solver (solver %r does not log "
            "derivations)" % args.solver
        )
    if args.wbo or args.instance.endswith(".wbo"):
        return _wbo_main(parser, args)
    instance = parse_file(args.instance)

    registry = None
    if args.metrics:
        from .obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    hotspot = None

    if args.portfolio is not None:
        import time as _time

        from .portfolio import PortfolioSolver

        solver = PortfolioSolver(
            instance, workers=args.portfolio, time_limit=args.time_limit,
            trace_path=args.trace, metrics=registry,
        )
        started = _time.monotonic()
        result = solver.solve()
        seconds = _time.monotonic() - started
        solver_label = "portfolio-%d" % args.portfolio
        print("c portfolio workers=%d winner=%s incumbents_shared=%d failures=%d"
              % (args.portfolio, result.stats.winner,
                 result.stats.incumbents_shared, result.stats.failures))
        if args.trace:
            print("c trace merged=%s (per-worker: %s.w<id>); inspect with "
                  "'python -m repro obs report %s'"
                  % (args.trace, args.trace, args.trace))
    else:
        tracer = None
        if args.trace:
            try:
                tracer = JsonlTracer(args.trace)
            except OSError as exc:
                parser.error("cannot open --trace file: %s" % exc)
            tracer.instance_label = args.instance
        proof_logger = None
        if args.proof:
            from .certify import ProofLogger

            try:
                proof_logger = ProofLogger(args.proof)
            except OSError as exc:
                parser.error("cannot open --proof file: %s" % exc)
        if args.hotspot:
            from .obs.prof import HotspotProfiler

            hotspot = HotspotProfiler()
        try:
            record = run_one(
                args.solver,
                instance,
                args.instance,
                args.time_limit,
                tracer=tracer,
                profile=args.profile or bool(args.hotspot),
                on_progress=_print_progress if args.progress else None,
                progress_interval=args.progress_interval,
                propagation=args.propagation,
                lb_schedule=args.lb_schedule,
                incremental_bounds=not args.cold_bounds,
                proof=proof_logger,
                metrics=registry,
                hotspot=hotspot,
            )
        finally:
            if tracer is not None:
                tracer.close()
            if proof_logger is not None:
                proof_logger.close()
        result = record.result
        seconds = record.seconds
        solver_label = args.solver
        if proof_logger is not None:
            print(
                "c proof file=%s steps=%d"
                % (args.proof, proof_logger.steps_logged)
            )

    print("s %s" % result.status.upper())
    if result.best_cost is not None:
        print("o %d" % result.best_cost)
    if args.model and result.best_assignment:
        literals = [
            ("x%d" % var) if value else ("-x%d" % var)
            for var, value in sorted(result.best_assignment.items())
        ]
        print("v " + " ".join(literals))
    print("c time %.3fs" % seconds)
    if args.profile:
        counters = {
            "uncertified_prunes": getattr(
                result.stats, "uncertified_prunes", 0
            ),
        }
        for line in format_profile(
            result.stats.phase_times, result.stats.elapsed, counters=counters
        ).splitlines():
            print("c " + line)
    if hotspot is not None:
        from .obs.prof import format_hotspots

        try:
            with open(args.hotspot, "w") as sink:
                hotspot.write_collapsed(sink)
        except OSError as exc:
            print("c hotspot write failed: %s" % exc, file=sys.stderr)
        else:
            print("c hotspot collapsed stacks written to %s" % args.hotspot)
        for line in format_hotspots(hotspot).splitlines():
            print("c " + line)
    if registry is not None:
        text = registry.render_text()
        if args.metrics == "-":
            for line in text.splitlines():
                print("c " + line)
        else:
            try:
                with open(args.metrics, "w") as sink:
                    sink.write(text)
            except OSError as exc:
                print("c metrics write failed: %s" % exc, file=sys.stderr)
            else:
                print("c metrics written to %s" % args.metrics)
    if args.stats:
        _print_stats(result.stats.as_dict())
    if args.stats_json:
        payload = {
            "instance": args.instance,
            "solver": solver_label,
            "status": result.status,
            "cost": result.best_cost,
            "seconds": round(seconds, 6),
            "stats": result.stats.as_dict(),
        }
        with open(args.stats_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if result.solved else 1


def _wbo_main(parser: argparse.ArgumentParser, args) -> int:
    """The ``--wbo`` path of :func:`main`: soft-constraint solving.

    Supports the core flags (``--time-limit``, ``--propagation``,
    ``--wbo-mode``, ``--stats``, ``--stats-json``, ``--model``); the
    single-solver instruments and the portfolio do not apply to the
    two-level WBO search and are rejected rather than ignored.
    """
    import time as _time

    from .core.options import SolverOptions
    from .pb.opb import parse_wbo_file
    from .wbo import WBOSolver

    for flag, name in (
        (args.portfolio, "--portfolio"),
        (args.proof, "--proof"),
        (args.trace, "--trace"),
        (args.hotspot, "--hotspot"),
        (args.metrics, "--metrics"),
    ):
        if flag:
            parser.error("%s is not supported with --wbo" % name)
    try:
        wbo = parse_wbo_file(args.instance)
    except OSError as exc:
        parser.error("cannot read instance: %s" % exc)
    options = SolverOptions(
        time_limit=args.time_limit,
        propagation=args.propagation,
        lb_schedule=args.lb_schedule,
        incremental_bounds=not args.cold_bounds,
    )
    solver = WBOSolver(wbo, options, mode=args.wbo_mode)
    started = _time.monotonic()
    result = solver.solve()
    seconds = _time.monotonic() - started
    print("c wbo mode=%s hard=%d soft=%d cores=%d"
          % (args.wbo_mode, len(wbo.hard), len(wbo.soft), len(solver.cores)))
    print("s %s" % result.status.upper())
    if result.cost is not None:
        print("o %d" % result.cost)
    if result.violated_soft is not None:
        print("c violated_soft %s"
              % (" ".join(map(str, result.violated_soft)) or "-"))
    if args.model and result.best_assignment:
        literals = [
            ("x%d" % var) if value else ("-x%d" % var)
            for var, value in sorted(result.best_assignment.items())
        ]
        print("v " + " ".join(literals))
    print("c time %.3fs" % seconds)
    if args.stats:
        _print_stats(result.stats.as_dict())
    if args.stats_json:
        payload = {
            "instance": args.instance,
            "solver": result.solver_name,
            "status": result.status,
            "cost": result.cost,
            "violated_soft": list(result.violated_soft or ()),
            "seconds": round(seconds, 6),
            "stats": result.stats.as_dict(),
        }
        with open(args.stats_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if result.solved else 1


def certify_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro certify instance.opb proof.pbp``.

    Replays a proof log against the parsed instance with the independent
    checker (:mod:`repro.certify` — no search code imported) and reports
    the verdict.  Exit codes: 0 the proof verifies, 1 it verifies but
    claims no answer (``e unknown``), 2 it is rejected.
    """
    from .certify import CheckOutcome, ProofChecker, ProofError

    parser = argparse.ArgumentParser(
        prog="bsolo certify",
        description=(
            "Independently verify a cutting-planes proof log produced by "
            "a 'bsolo --proof' run (see docs/PROOFS.md)"
        ),
    )
    parser.add_argument("instance", help="path to the .opb file that was solved")
    parser.add_argument("proof", help="path to the .pbp proof log")
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the verdict lines; rely on the exit code",
    )
    args = parser.parse_args(argv)

    try:
        instance = parse_file(args.instance)
    except OSError as exc:
        parser.error("cannot read instance: %s" % exc)
    checker = ProofChecker(instance)
    try:
        outcome: CheckOutcome = checker.check_file(args.proof)
    except OSError as exc:
        parser.error("cannot read proof: %s" % exc)
    except ProofError as exc:
        if not args.quiet:
            print("s NOT VERIFIED")
            print("c %s" % exc)
        return 2

    if not args.quiet:
        print("s VERIFIED")
        claim = outcome.status
        if outcome.cost is not None:
            claim += " %d" % outcome.cost
        print("c claim %s" % claim)
        print("c steps %d" % outcome.steps)
        if outcome.conditional:
            print("c conditional yes (proof contains assumption steps)")
    return 0 if outcome.certified else 1


def obs_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro obs {merge,report} ...``.

    ``merge OUT IN [IN ...]`` merges per-worker JSONL traces into one
    worker-tagged, clock-aligned timeline (what ``--portfolio --trace``
    does automatically).  ``report TRACE`` prints a human summary: the
    per-worker table with phase totals and the straggler line for merged
    timelines, the progress/summary view for single-solver traces.
    """
    from .obs.merge import format_worker_report, merge_trace_files
    from .obs.report import format_progress, trace_summary
    from .obs.trace import read_trace

    parser = argparse.ArgumentParser(
        prog="bsolo obs",
        description="Inspect and merge JSONL search traces",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    merge_parser = commands.add_parser(
        "merge", help="merge per-worker traces into one timeline"
    )
    merge_parser.add_argument("output", help="merged timeline to write")
    merge_parser.add_argument(
        "inputs", nargs="+",
        help="per-worker trace files (worker ids follow argument order)",
    )
    report_parser = commands.add_parser(
        "report", help="summarise a trace (merged or single-solver)"
    )
    report_parser.add_argument("trace", help="JSONL trace file to summarise")
    args = parser.parse_args(argv)

    if args.command == "merge":
        try:
            count = merge_trace_files(args.output, args.inputs)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        print("merged %d records from %d traces into %s"
              % (count, len(args.inputs), args.output))
        return 0

    try:
        records = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if any("worker_id" in record for record in records):
        print(format_worker_report(records))
    else:
        summary = trace_summary(records)
        for key, value in sorted(summary.items()):
            print("%s: %s" % (key, value))
        progress = format_progress(records)
        if progress:
            print(progress)
    return 0


if __name__ == "__main__":
    sys.exit(main())
