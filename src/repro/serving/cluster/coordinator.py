"""The shard coordinator: supervised multi-process serving.

``ShardCoordinator`` partitions ``db_id``s across N spawned worker
processes via a consistent-hash ring, routes requests over pipes, and
supervises the fleet:

* **death detection** — a supervisor thread declares a worker dead when
  its process exits (SIGKILL, OOM, segfault) or its heartbeats go stale
  (hung interpreter); the stale case gets a SIGKILL first so the two
  paths converge;
* **journal-resolved outstanding** — on death the coordinator reloads
  the shard's on-disk journal segment: outstanding requests the dead
  worker *committed* are answered from the segment (they happened —
  re-running them would double-serve), uncommitted ones are shed from
  the shard with a typed :class:`ShardUnavailableError` and re-routed;
* **restart with budget + backoff** — each worker may restart
  ``restart_budget`` times, delayed ``backoff_base * 2**n`` seconds; a
  restarted worker re-opens its segment and warms its result cache from
  it (per-shard journal recovery);
* **rebalance on permanent death** — budget exhausted (or the worker's
  sliding :class:`~repro.serving.health.HealthMonitor` grade reaches
  ``unhealthy`` — a flapping worker is demoted early), the shard is
  removed from the ring, survivors adopt its segment's committed results
  into their caches, and its uncommitted requests retry on their new
  owners; with no owners left the error escapes to the caller;
* **snapshot merge** — each worker ships its engine's metrics snapshot
  as JSON (never pickled live objects); the coordinator labels it by
  shard and folds it into one :class:`MetricsRegistry` view.

The coordinator's own counts (requests by terminal status, supervision
events) have one home, the registry the coordinator owns
(``coordinator.metrics``); :meth:`ShardCoordinator.stats` reads them
back.

End-to-end deadlines survive the process hop: the coordinator forwards
the *remaining* budget (configured deadline minus coordinator-side queue
time) with each request, and the worker engine runs the request under
exactly that allowance.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Sequence

from repro.datasets.types import Example
from repro.observability.metrics import MetricsRegistry
from repro.serving.cluster.config import ClusterConfig, example_to_wire
from repro.serving.cluster.ring import HashRing
from repro.serving.health import HealthMonitor
from repro.serving.journal import JournalCorruptionError, ServingJournal

__all__ = ["ShardCoordinator", "ShardUnavailableError", "ClusterStats"]

#: worker lifecycle states; ``stopped`` is a worker that exited on shutdown
SPAWNING, READY, DEAD, RESTARTING, REMOVED, STOPPED = (
    "spawning",
    "ready",
    "dead",
    "restarting",
    "removed",
    "stopped",
)


class ShardUnavailableError(RuntimeError):
    """No live shard can serve this request.

    Raised (as a Future exception) when a request's shard died and either
    the re-route budget is exhausted or the ring has no owner left for
    its ``db_id``.  Typed so callers can distinguish a shed from a
    pipeline failure — and so the restart-budget-exhaustion smoke can
    assert sheds instead of hangs.
    """

    def __init__(self, db_id: str, reason: str):
        super().__init__(f"no shard available for db_id {db_id!r}: {reason}")
        self.db_id = db_id
        self.reason = reason


class _Request:
    __slots__ = ("seq", "example", "future", "reroutes", "enqueued_at")

    def __init__(self, seq: int, example: Example, enqueued_at: float):
        self.seq = seq
        self.example = example
        self.future: Future = Future()
        self.reroutes = 0
        self.enqueued_at = enqueued_at


class _WorkerHandle:
    """Coordinator-side state of one shard worker."""

    def __init__(self, worker_id: int, segment_path):
        self.id = worker_id
        self.segment_path = segment_path
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        #: the pipe reader of the current process generation
        self.receiver: Optional[threading.Thread] = None
        self.state = SPAWNING
        self.conn_closed = False
        self.last_heartbeat = time.monotonic()
        self.spawned_at = time.monotonic()
        self.restarts_used = 0
        self.restart_at = 0.0
        #: seq → _Request dispatched to this worker, not yet resolved
        self.outstanding: dict[int, _Request] = {}
        #: requests parked while the worker is spawning/restarting
        self.pending: list[_Request] = []
        self.results = 0
        self.send_lock = threading.Lock()
        self.final_stats: Optional[dict] = None
        #: the worker's segment browned out or was quarantined: it keeps
        #: serving (degraded), it is NOT a death
        self.storage_degraded = False
        self.storage_reason = ""


class ClusterStats:
    """Merged cluster accounting (JSON-ready via :meth:`to_dict`)."""

    def __init__(self, payload: dict):
        self._payload = payload

    def to_dict(self) -> dict:
        return dict(self._payload)

    def __getitem__(self, key):
        return self._payload[key]

    def format(self) -> str:
        p = self._payload
        lines = [
            f"shards      : {p['shards']} configured, "
            f"{len(p['ring_nodes'])} on ring {p['ring_nodes']}",
            f"requests    : {p['dispatched']} dispatched / "
            f"{p['completed']} completed / {p['failed']} failed / "
            f"{p['shed_unavailable']} shard-unavailable",
            f"supervision : {p['deaths']} deaths, {p['restarts']} restarts, "
            f"{p['rebalances']} rebalances, {p['reroutes']} reroutes, "
            f"{p['resolved_from_journal']} resolved-from-journal, "
            f"{p.get('storage_degraded', 0)} storage-degraded",
            "per-shard   : "
            + ", ".join(
                f"shard{k}={n}" for k, n in sorted(p["results_by_shard"].items())
            ),
        ]
        return "\n".join(lines)


class ShardCoordinator:
    """Spawn, route to, and supervise a sharded worker fleet."""

    def __init__(
        self,
        config: ClusterConfig,
        on_result: Optional[Callable[[int, int], None]] = None,
        mp_context: str = "spawn",
    ):
        self.config = config
        self.metrics = MetricsRegistry()
        #: hook called as (worker_id, results_from_that_worker) after each
        #: result message — the serve-bench kill harness SIGKILLs a worker
        #: from here at a deterministic position in its response stream
        self.on_result = on_result
        self._ctx = multiprocessing.get_context(mp_context)
        self.ring = HashRing(range(config.shards), vnodes=config.ring_vnodes)
        #: sliding per-worker health; a death records a failure, a served
        #: result a success — "unhealthy" demotes the worker permanently
        self.health = HealthMonitor(window=16, degraded_at=0.25, unhealthy_at=0.5)
        self._lock = threading.RLock()
        self._workers: dict[int, _WorkerHandle] = {}
        #: stops the supervisor first: a worker told to drain is not a death
        self._draining = threading.Event()
        #: stops the pipe receivers, once every drained worker has reported
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._started = False
        #: requests submitted; also the next seq when the caller gives none
        self._dispatched = 0
        self._m_requests = self.metrics.counter(
            "repro_cluster_requests_total",
            "cluster requests by terminal status",
            labelnames=("status",),
        )
        self._m_events = self.metrics.counter(
            "repro_cluster_supervision_total",
            "supervision events (death/restart/rebalance/reroute/...)",
            labelnames=("event",),
        )
        self.metrics.register_collector("cluster", lambda: self.stats().to_dict())
        self.metrics.register_collector("cluster_health", self.health.snapshot)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ShardCoordinator":
        """Spawn every worker and start the supervisor."""
        if self._started:
            return self
        self._started = True
        os.makedirs(self.config.journal_dir, exist_ok=True)
        for worker_id in range(self.config.shards):
            handle = _WorkerHandle(
                worker_id, self.config.segment_path(worker_id)
            )
            self._workers[worker_id] = handle
            self._spawn(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker process and its receiver."""
        from repro.serving.cluster.worker import worker_main

        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.id, self.config.to_dict(), child_conn),
            name=f"shard-{handle.id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.conn_closed = False
        handle.state = SPAWNING
        handle.spawned_at = time.monotonic()
        handle.last_heartbeat = time.monotonic()
        handle.receiver = threading.Thread(
            target=self._receive,
            args=(handle, parent_conn),
            name=f"cluster-recv-{handle.id}",
            daemon=True,
        )
        handle.receiver.start()

    def __enter__(self) -> "ShardCoordinator":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------- routing

    def submit(self, example: Example, seq: Optional[int] = None) -> Future:
        """Route one request to its shard; returns a Future.

        The Future resolves to the worker's committed-record dict
        (``{"status", "result", "cost", ...}``) or raises
        :class:`ShardUnavailableError` / a typed worker rejection.
        """
        if not self._started:
            raise RuntimeError("coordinator not started")
        with self._lock:
            if seq is None:
                seq = self._dispatched
            self._dispatched += 1
            request = _Request(seq, example, time.monotonic())
            self._dispatch(request)
        return request.future

    def run(self, workload: Sequence[Example]) -> list:
        """Serve a whole workload; one committed-record dict (or None for
        a shed/failed request) per position."""
        futures = [self.submit(example, seq=seq) for seq, example in enumerate(workload)]
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout=self.config.request_timeout))
            except Exception:
                results.append(None)
        return results

    def _dispatch(self, request: _Request) -> None:
        """Send (or park) a request on its owning shard; lock held."""
        owner = self.ring.lookup(request.example.db_id)
        if owner is None:
            self._resolve_shed(request, "consistent-hash ring is empty")
            return
        handle = self._workers[owner]
        if handle.state in (SPAWNING, RESTARTING, DEAD):
            # parked; flushed on ready (or re-routed on permanent death)
            handle.pending.append(request)
            return
        self._send_request(handle, request)

    def _send_request(self, handle: _WorkerHandle, request: _Request) -> None:
        handle.outstanding[request.seq] = request
        deadline_remaining = deadline = self.config.spec.deadline_seconds
        if deadline is not None:
            elapsed = time.monotonic() - request.enqueued_at
            deadline_remaining = max(deadline - elapsed, 1e-3)
        message = {
            "type": "request",
            "seq": request.seq,
            "example": example_to_wire(request.example),
            "deadline_seconds": deadline_remaining,
        }
        try:
            with handle.send_lock:
                handle.conn.send(message)
        except (OSError, ValueError):
            # pipe already broken: leave it in outstanding — the death
            # handler resolves it from the journal or re-routes it
            handle.conn_closed = True

    def _resolve_shed(self, request: _Request, reason: str) -> None:
        self._m_requests.labels(status="shed_unavailable").inc()
        request.future.set_exception(
            ShardUnavailableError(request.example.db_id, reason)
        )

    def _reroute(self, request: _Request, reason: str) -> None:
        """Retry-on-new-owner after a shard death; lock held."""
        request.reroutes += 1
        self._m_events.labels(event="reroute").inc()
        if request.reroutes > self.config.max_reroutes:
            self._resolve_shed(
                request, f"re-route budget exhausted after: {reason}"
            )
            return
        self._dispatch(request)

    # ----------------------------------------------------------- receiving

    def _receive(self, handle: _WorkerHandle, conn) -> None:
        """Pipe reader for one worker generation (daemon thread)."""
        while not self._stop.is_set():
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            self._on_message(handle, message)
        handle.conn_closed = True

    def _on_message(self, handle: _WorkerHandle, message: dict) -> None:
        kind = message.get("type")
        if kind == "heartbeat":
            handle.last_heartbeat = time.monotonic()
            return
        if kind == "ready":
            with self._lock:
                handle.state = READY
                handle.last_heartbeat = time.monotonic()
                parked, handle.pending = handle.pending, []
                for request in parked:
                    self._send_request(handle, request)
            return
        if kind == "result":
            record = message["record"]
            with self._lock:
                request = handle.outstanding.pop(message["seq"], None)
                handle.results += 1
                results = handle.results
                if request is not None:
                    self._m_requests.labels(status=record.get("status", "ok")).inc()
            if request is not None:
                self.health.record(f"worker-{handle.id}", True)
                request.future.set_result(record)
            if self.on_result is not None:
                self.on_result(handle.id, results)
            return
        if kind == "error":
            with self._lock:
                request = handle.outstanding.pop(message["seq"], None)
                if request is not None:
                    self._m_requests.labels(status="failed").inc()
            if request is not None:
                request.future.set_exception(
                    RuntimeError(message.get("error", "worker error"))
                )
            return
        if kind == "storage":
            # Degraded-not-dead: the shard's segment went read-only (or
            # was quarantined corrupt) but the worker still serves from
            # memory.  No death, no restart — routing stays put; the
            # degradation is surfaced in stats/metrics.
            with self._lock:
                first = not handle.storage_degraded
                handle.storage_degraded = True
                handle.storage_reason = message.get("reason", "")
                if first:
                    self._m_events.labels(event="storage_degraded").inc()
            return
        if kind == "stats":
            with self._lock:
                handle.final_stats = message
            return
        # "adopted" and anything unknown: informational only

    # ---------------------------------------------------------- supervision

    def _supervise(self) -> None:
        poll = min(0.02, self.config.heartbeat_interval / 2)
        while not self._draining.wait(poll):
            now = time.monotonic()
            with self._lock:
                for handle in self._workers.values():
                    if handle.state in (DEAD, REMOVED):
                        continue
                    if handle.state == RESTARTING:
                        if now >= handle.restart_at:
                            handle.restarts_used += 1
                            self._m_events.labels(event="restart").inc()
                            self._spawn(handle)
                        continue
                    dead = handle.process is not None and not handle.process.is_alive()
                    dead = dead or handle.conn_closed
                    grace = (
                        self.config.heartbeat_timeout
                        if handle.state == READY
                        else max(self.config.heartbeat_timeout, 60.0)
                    )
                    hung = now - handle.last_heartbeat > grace
                    if hung and not dead:
                        # converge the hung path onto the death path
                        self._kill_process(handle)
                        dead = True
                    if dead:
                        self._handle_death(
                            handle, "hung (heartbeat timeout)" if hung else "process exited"
                        )

    def _kill_process(self, handle: _WorkerHandle) -> None:
        try:
            if handle.process is not None and handle.process.pid:
                os.kill(handle.process.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def _handle_death(self, handle: _WorkerHandle, reason: str) -> None:
        """One worker died; resolve, then restart or rebalance. Lock held."""
        handle.state = DEAD
        self._m_events.labels(event="death").inc()
        self.health.record(f"worker-{handle.id}", False, detail=reason)
        if handle.process is not None:
            handle.process.join(timeout=5)

        # The segment on disk is the worker's last word: anything it
        # committed happened and must not re-run; anything else re-runs
        # exactly once elsewhere.
        try:
            segment = ServingJournal(handle.segment_path)
        except (OSError, JournalCorruptionError):
            # unreadable or corrupt segment: everything outstanding
            # re-runs elsewhere (safe — nothing outstanding was ever
            # answered to a caller, so re-serving cannot double-serve)
            segment = None
        orphans: list[_Request] = []
        outstanding, handle.outstanding = handle.outstanding, {}
        parked, handle.pending = handle.pending, []
        for request in list(outstanding.values()) + parked:
            record = segment.committed(request.seq) if segment is not None else None
            if record is not None:
                self._m_events.labels(event="resolved_from_journal").inc()
                self._m_requests.labels(status=record.get("status", "ok")).inc()
                request.future.set_result(record)
            else:
                orphans.append(request)

        exhausted = handle.restarts_used >= self.config.restart_budget
        flapping = self.health.component_grade(f"worker-{handle.id}") == "unhealthy"
        if exhausted or (flapping and handle.restarts_used > 0):
            self._remove_worker(handle, orphans, reason)
        else:
            handle.state = RESTARTING
            handle.restart_at = time.monotonic() + self.config.backoff_base * (
                2**handle.restarts_used
            )
            # orphans stay with this shard; they re-dispatch on ready
            handle.pending.extend(orphans)

    def _remove_worker(
        self, handle: _WorkerHandle, orphans: list[_Request], reason: str
    ) -> None:
        """Permanent death: rebalance the ring and re-route orphans."""
        handle.state = REMOVED
        self.ring.remove(handle.id)
        self._m_events.labels(event="rebalance").inc()
        # Survivors adopt the dead shard's committed results so repeat
        # questions re-routed to them keep their result-cache hits (the
        # byte-identical recovery property across a rebalance).
        for other in self._workers.values():
            if other.id == handle.id or other.state in (DEAD, REMOVED):
                continue
            try:
                with other.send_lock:
                    other.conn.send(
                        {"type": "adopt", "segment": str(handle.segment_path)}
                    )
            except (OSError, ValueError):
                other.conn_closed = True
        for request in orphans:
            self._reroute(request, f"shard {handle.id} removed ({reason})")

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker process (chaos/testing hook)."""
        with self._lock:
            handle = self._workers[worker_id]
        self._kill_process(handle)

    # ------------------------------------------------------------ reporting

    def stats(self) -> ClusterStats:
        """Merged cluster accounting snapshot.

        A worker result whose committed record is a failure counts as
        ``failed``, as the in-process engine counts it.
        """
        with self._lock:
            dispatched = self._dispatched
            requests = self._m_requests.counts()
            events = self._m_events.counts()
            workers = {
                handle.id: {
                    "state": handle.state,
                    "restarts_used": handle.restarts_used,
                    "results": handle.results,
                    "outstanding": len(handle.outstanding),
                    "storage_degraded": handle.storage_degraded,
                }
                for handle in self._workers.values()
            }
            results_by_shard = {
                handle.id: handle.results for handle in self._workers.values()
            }
            ring_nodes = self.ring.nodes()
        failed = requests.get("failed", 0)
        shed = requests.get("shed_unavailable", 0)
        return ClusterStats(
            {
                "shards": self.config.shards,
                "ring_nodes": ring_nodes,
                "workers": workers,
                "results_by_shard": results_by_shard,
                "dispatched": dispatched,
                "completed": sum(requests.values()) - failed - shed,
                "failed": failed,
                "shed_unavailable": shed,
                "deaths": events.get("death", 0),
                "restarts": events.get("restart", 0),
                "rebalances": events.get("rebalance", 0),
                "reroutes": events.get("reroute", 0),
                "resolved_from_journal": events.get("resolved_from_journal", 0),
                "storage_degraded": events.get("storage_degraded", 0),
            }
        )

    def shard_snapshots(self) -> dict[int, dict]:
        """Final per-shard stats payloads (populated during shutdown)."""
        with self._lock:
            return {
                handle.id: dict(handle.final_stats)
                for handle in self._workers.values()
                if handle.final_stats is not None
            }

    def merged_metrics(self) -> MetricsRegistry:
        """One shard-labelled registry merging every worker's snapshot.

        Cluster-level instruments/collectors live on the coordinator's
        own registry; this adds each worker's shipped snapshot to it — each
        collected section as ``shard<K>.<section>`` and each instrument as
        ``shard<K>.metric.<name>`` — the merged document ``repro metrics``
        renders for the whole cluster.
        """
        registry = self.metrics
        for worker_id, payload in sorted(self.shard_snapshots().items()):
            snapshot = payload["metrics"]
            for section, flat in snapshot["collected"].items():
                registry.register_collector(
                    f"shard{worker_id}.{section}", lambda d=flat: d
                )
            for name, instrument in snapshot["metrics"].items():
                registry.register_collector(
                    f"shard{worker_id}.metric.{name}",
                    lambda inst=instrument: inst.get("samples", {}),
                )
        return registry

    # ------------------------------------------------------------- shutdown

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop supervision, drain workers, collect final snapshots.

        Supervision stops first: a worker exiting because it was told to
        drain is not a death, so a clean shutdown counts none and
        restarts nothing.  Every worker that has exited ends ``stopped``
        (a removed one stays ``removed``), and each pipe reader is joined.
        """
        self._draining.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        with self._lock:
            live = [
                handle
                for handle in self._workers.values()
                if handle.state in (READY, SPAWNING)
                and handle.process is not None
                and handle.process.is_alive()
            ]
        for handle in live:
            try:
                with handle.send_lock:
                    handle.conn.send({"type": "shutdown"})
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for handle in live:
            remaining = max(deadline - time.monotonic(), 0.1)
            handle.process.join(timeout=remaining)
        self._stop.set()
        for handle in self._workers.values():
            if handle.process is not None and handle.process.is_alive():
                self._kill_process(handle)
                handle.process.join(timeout=5)
            # the process has exited, so its reader sees end-of-pipe
            if handle.receiver is not None:
                handle.receiver.join(timeout=5)
            try:
                if handle.conn is not None:
                    handle.conn.close()
            except OSError:
                pass
        # fail anything still unresolved — shutdown must never leave a
        # caller blocked on a Future
        with self._lock:
            for handle in self._workers.values():
                exited = handle.process is None or not handle.process.is_alive()
                if exited and handle.state != REMOVED:
                    handle.state = STOPPED
                for request in list(handle.outstanding.values()) + handle.pending:
                    if not request.future.done():
                        self._resolve_shed(request, "coordinator shut down")
                handle.outstanding = {}
                handle.pending = []
