"""The service-mix workload: ``python -m repro serve`` driven over HTTP.

The server runs in its own process, so nothing the load generator does
holds the server's interpreter lock.  Two client threads form a closed
loop: each posts a job, reads that job's Server-Sent Events stream until
the terminal event, then posts the next, so at most two connections are
open at once.  Waiting on the stream, rather than polling, times the
server and not a client poll interval.  Everything else (queue and run
time, the model, cache counters) is read over HTTP after the timed part.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from speed import SPAWN_REFERENCE_S, Sampler, spawn_time

#: Seconds allowed for the server to bind, answer, or shut down.
_START_TIMEOUT = 30.0
_STOP_TIMEOUT = 20.0

TERMINAL_EVENTS = ("result", "cancelled", "failed")

#: Closed-loop clients: callers that each wait for their reply.
CLIENTS = 2


def request(port: int, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One HTTP request on a fresh connection; ``(status, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def wait_terminal(port: int, job_id: str) -> Tuple[str, Dict, List[int]]:
    """Read a job's SSE stream to its terminal event.

    Returns the terminal event's name and data and the pids named by
    ``started`` events.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    pids: List[int] = []
    try:
        connection.request("GET", "/jobs/%s/events" % job_id)
        response = connection.getresponse()
        if response.status != 200:
            raise RuntimeError("events of %s: HTTP %d" % (job_id, response.status))
        event = None
        while True:
            raw = response.readline()
            if not raw:
                raise RuntimeError("stream of %s ended early" % job_id)
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("event:"):
                event = line[len("event:"):].strip()
            elif line.startswith("data:"):
                data = json.loads(line[len("data:"):])
                if event == "started":
                    pids.append(data["pid"])
                if event in TERMINAL_EVENTS:
                    return event, data, pids
    finally:
        connection.close()


class Server:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, env: Dict[str, str], workers: int):
        reference = spawn_time(env)
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.worker_pids: List[int] = []
        try:
            banner = self.process.stdout.readline()
            fields = dict(part.split("=", 1) for part in banner.split()
                          if "=" in part)
            if "port" not in fields:
                raise RuntimeError("server printed no port: %r" % banner)
            self.port = int(fields["port"])
            while True:
                try:
                    status, _ = request(self.port, "GET", "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > _START_TIMEOUT:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        #: Seconds from spawning the process to the first 200 /healthz,
        #: scaled by a reference spawn timed right before (``speed.py``).
        self.setup_scaled = ((time.perf_counter() - start)
                             * SPAWN_REFERENCE_S / reference)

    def stop(self) -> List[str]:
        """Interrupt the server, wait for it, and list any problems:
        a server that had to be killed or a worker that outlived it."""
        problems = []
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            problems.append("server ignored SIGINT for %.0f s" % _STOP_TIMEOUT)
        self.process.stdout.close()
        for pid in self.worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                problems.append("worker %d outlived the server" % pid)
        return problems


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def submit(server: Server, job: Dict) -> Dict:
    """Post one job and wait for its terminal event; the client record,
    with ``time.monotonic`` stamps."""
    start = time.monotonic()
    status, raw = request(server.port, "POST", "/jobs", job["body"])
    admitted = time.monotonic()
    if status != 202:
        return {"label": job["label"], "state": "rejected",
                "error": "HTTP %d %s" % (status, raw[:200])}
    job_id = json.loads(raw)["id"]
    event, data, pids = wait_terminal(server.port, job_id)
    end = time.monotonic()
    server.worker_pids.extend(pids)
    return {"label": job["label"], "id": job_id, "event": event,
            "cached": bool(data.get("cached")), "start": start, "end": end,
            "latency": end - start, "admit": admitted - start}


def closed_loop(server: Server, jobs: List[Dict]):
    """Run ``jobs`` in order through ``CLIENTS`` closed-loop clients.

    Returns the client records (in job order), the wall time from the
    first post to the last terminal event, and a speed ``Sampler`` that
    ran meanwhile.
    """
    records: List[Optional[Dict]] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                records[index] = submit(server, jobs[index])
            except Exception as exc:  # reported as that job's failure
                records[index] = {"label": jobs[index]["label"],
                                  "state": "error", "error": repr(exc)}

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    with Sampler() as sampler:
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic()
    for record in records:
        if "latency" in record:
            record["scaled"] = record["latency"] * sampler.scale(
                record["start"], record["end"])
    return records, (end - start) * sampler.scale(start, end)


def cache_counters(port: int) -> Dict[str, float]:
    """``service_cache`` outcome counters from ``GET /metrics``."""
    status, raw = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError("/metrics: HTTP %d" % status)
    counters = {}
    for line in raw.decode("utf-8").splitlines():
        if line.startswith("service_cache{"):
            labels, value = line.rsplit(" ", 1)
            outcome = labels.split('outcome="', 1)[1].split('"', 1)[0]
            counters[outcome] = float(value)
    return counters


def job_resource(port: int, job_id: str) -> Dict:
    """``GET /jobs/{id}``."""
    status, raw = request(port, "GET", "/jobs/%s" % job_id)
    if status != 200:
        raise RuntimeError("/jobs/%s: HTTP %d" % (job_id, status))
    return json.loads(raw)
