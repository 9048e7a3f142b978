"""Service metric families on the shared observability registry.

The service instruments itself with the same
:class:`repro.obs.metrics.MetricsRegistry` machinery as the solver
metrics; ``GET /metrics`` exposes the service families only (worker
processes send no solver metrics back).  Families, all prefixed
``service_``:

``service_jobs_total{outcome}``
    terminal job counter — ``done`` / ``cancelled`` / ``failed`` /
    ``rejected`` (admission refused).
``service_cache{outcome}``
    canonical-form cache counter — ``hit`` / ``miss`` / ``bypass``
    (cache disabled for the request: ``cache=false`` or a proof job).
``service_queue_depth``
    gauge of jobs waiting for a worker slot.
``service_active_jobs``
    gauge of jobs currently solving in a worker process.
``service_job_seconds{phase}``
    latency histogram over :data:`repro.obs.metrics.LATENCY_BUCKETS` —
    ``queue`` (admission to worker start) and ``solve`` (worker start to
    terminal state).
``service_http_requests_total{route, code}``
    HTTP request counter by route template and status code.
"""

from __future__ import annotations

from ..obs.metrics import LATENCY_BUCKETS, MetricsRegistry


class ServiceMetrics:
    """The service's instrument handles, resolved once at startup."""

    def __init__(self, registry: MetricsRegistry = None):
        if registry is None:
            registry = MetricsRegistry()
        #: The backing registry; ``GET /metrics`` renders it.
        self.registry = registry
        self._jobs = registry.counter(
            "service_jobs_total",
            "terminal job outcomes",
            labels=("outcome",),
        )
        self._cache = registry.counter(
            "service_cache",
            "canonical-form result cache outcomes",
            labels=("outcome",),
        )
        self.queue_depth = registry.gauge(
            "service_queue_depth", "jobs waiting for a worker slot"
        )
        self.active_jobs = registry.gauge(
            "service_active_jobs", "jobs currently running in a worker"
        )
        self._job_seconds = registry.histogram(
            "service_job_seconds",
            "job phase latencies",
            labels=("phase",),
            buckets=LATENCY_BUCKETS,
        )
        self._http = registry.counter(
            "service_http_requests_total",
            "HTTP requests by route and status code",
            labels=("route", "code"),
        )

    # ------------------------------------------------------------------
    def job_outcome(self, outcome: str) -> None:
        """Count one terminal (or rejected) job."""
        self._jobs.labels(outcome=outcome).inc()

    def cache_outcome(self, outcome: str) -> None:
        """Count one cache lookup outcome (hit/miss/bypass)."""
        self._cache.labels(outcome=outcome).inc()

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record a queue-wait or solve latency observation."""
        self._job_seconds.labels(phase=phase).observe(seconds)

    def http_request(self, route: str, code: int) -> None:
        """Count one HTTP request against its route template."""
        self._http.labels(route=route, code=str(code)).inc()

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """The deterministic text exposition (``GET /metrics`` body)."""
        return self.registry.render_text()
