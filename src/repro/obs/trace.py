"""Trace sinks: the no-op null tracer and a buffered JSONL writer.

The solver is instrumented with ``if tracer.enabled: tracer.emit(...)``
guards, so with the default :data:`NULL_TRACER` a solve performs zero
event construction and zero sink writes — tracing must be free when off.

When enabled, :class:`JsonlTracer` writes one JSON object per line::

    {"kind": "run_header", "t": 0.0, "solver": "bsolo", ...}
    {"kind": "decision", "t": 0.000123, "literal": -3, "level": 1}
    ...
    {"kind": "result", "t": 0.042, "status": "optimal", "cost": 4, ...}

``t`` is the monotonic time in seconds since the first event of the
trace.  Events are buffered and flushed in batches so tracing long runs
does not turn into one syscall per decision.

Two properties matter for fleet use (portfolio workers):

* **crash safety** — a finalizer drains the buffer when the tracer is
  garbage-collected or the interpreter exits, so a worker that dies
  without calling :meth:`JsonlTracer.close` still leaves every buffered
  event on disk; a worker killed mid-write leaves at worst one
  truncated *final* line, which :func:`read_trace` tolerates (the trace
  is truncated, never corrupt);
* **clock alignment** — the first record carries an ``epoch`` field
  (wall-clock seconds at the first event), so the portfolio coordinator
  can shift each worker's monotonic ``t`` values onto a common
  timeline (see :mod:`repro.obs.merge`).
"""

from __future__ import annotations

import json
import time
import weakref
from typing import IO, Any, Dict, List, Optional, Union

from .events import Event


def _drain(file: IO[str], buffer: List[str], owns_file: bool) -> None:
    """Finalizer body: flush whatever is buffered, then release the file.

    Takes the file and the (shared, mutated-in-place) buffer list rather
    than the tracer so the finalizer holds no reference that would keep
    the tracer alive.
    """
    try:
        if buffer:
            file.write("\n".join(buffer) + "\n")
            buffer.clear()
        file.flush()
        if owns_file:
            file.close()
    except (OSError, ValueError):
        pass  # interpreter teardown: the file may already be gone


class Tracer:
    """No-op base tracer; also the interface sinks implement.

    ``enabled`` is the contract with instrumented code: call sites must
    skip event construction entirely when it is False.
    """

    enabled = False

    #: Optional label stamped into the run header by the solver (set by
    #: the CLI / harness before solve()).
    instance_label = ""

    def emit(self, event: Event) -> None:
        """Record one event (base class: drop it)."""
        pass

    def flush(self) -> None:
        """Push buffered events to the sink (base class: no-op)."""
        pass

    def close(self) -> None:
        """Release the sink (base class: no-op)."""
        pass

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullTracer(Tracer):
    """Disabled tracer (the default everywhere)."""


#: Shared no-op instance: safe because it holds no state.
NULL_TRACER = NullTracer()


class TeeTracer(Tracer):
    """Forwards every event to several enabled sinks, in order (closing
    them is left to their owners)."""

    enabled = True

    def __init__(self, *sinks: Tracer):
        self.sinks = sinks

    @property
    def instance_label(self) -> str:  # type: ignore[override]
        """The first sink's label (read at run-header time)."""
        return getattr(self.sinks[0], "instance_label", "")

    def emit(self, event: Event) -> None:
        """Hand ``event`` to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        """Flush every sink."""
        for sink in self.sinks:
            sink.flush()


class JsonlTracer(Tracer):
    """Buffered JSONL trace writer with monotonic timestamps."""

    enabled = True

    def __init__(
        self,
        sink: Union[str, IO[str]],
        buffer_size: int = 256,
        clock=time.monotonic,
        wall_clock=time.time,
    ):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if isinstance(sink, str):
            self._file: IO[str] = open(sink, "w")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._buffer: List[str] = []
        self._buffer_size = buffer_size
        self._clock = clock
        self._wall_clock = wall_clock
        self._start: Optional[float] = None
        self._closed = False
        self.instance_label = ""
        #: Events accepted so far.
        self.events_emitted = 0
        #: Physical sink writes performed (for overhead accounting).
        self.writes = 0
        # Crash safety: drain the buffer at GC / interpreter exit.  The
        # finalizer captures the buffer *list* (mutated in place by
        # flush) so it always sees the current backlog, and never the
        # tracer itself, so it does not keep the tracer alive.
        self._finalizer = weakref.finalize(
            self, _drain, self._file, self._buffer, self._owns_file
        )

    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        """Buffer one event, stamped with the run-relative time.

        The first event additionally carries ``epoch``: the wall-clock
        time the trace started, for cross-process timeline alignment.
        """
        now = self._clock()
        record: Dict[str, Any] = {"kind": event.kind, "t": 0.0}
        if self._start is None:
            self._start = now
            record["epoch"] = round(self._wall_clock(), 6)
        else:
            record["t"] = round(now - self._start, 6)
        record.update(event.payload())
        self._buffer.append(json.dumps(record, separators=(",", ":"), default=str))
        self.events_emitted += 1
        if len(self._buffer) >= self._buffer_size:
            self.flush()

    def flush(self) -> None:
        """Write the buffered JSONL lines out."""
        if not self._buffer:
            return
        self._file.write("\n".join(self._buffer) + "\n")
        self.writes += 1
        self._buffer.clear()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._closed:
            return
        self._finalizer.detach()
        self.flush()
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True


def read_trace(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into a list of record dicts.

    A worker killed mid-write leaves at worst one truncated *final*
    line; by default it is silently dropped (the trace is truncated, not
    corrupt).  A malformed line anywhere *else* — or the final one under
    ``strict=True`` — raises ``ValueError``: that is real corruption,
    not a crash artifact.
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    while lines and not lines[-1]:
        lines.pop()
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1 and not strict:
                break  # truncated tail from a mid-write crash
            raise ValueError(
                "corrupt trace line %d in %s: %r" % (index + 1, path, line[:80])
            )
    return records
