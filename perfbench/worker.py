"""One measured process: set the system up, drive one workload, check it.

``run.py`` starts this file as a fresh interpreter for every sample, with
``PYTHONPATH`` pointing at the checkout's ``src`` and the BLAS/OpenMP pools
pinned to one thread.

Modes:

* ``--setup-only``: build everything a workload needs, report how long the
  process took from spawn to ready, exit.  ``run.py`` takes the median of
  several of these as ``setup_s``.
* default: the same set-up, then the closed-loop timed phase, then the
  output checks and scoring.  With ``--segments N`` the timed phase runs
  in N parts, each started by a ``go`` line on stdin.  With ``--trace``
  the public entry points of every layer are wrapped (``tracer.py``)
  before the dataset is built, and the per-layer figures are reported
  next to the end-to-end ones.

The last line of stdout is one JSON object; everything before it is for
people.  A failed output check exits with status 1 and no JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import importlib
import json
import math
import queue
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

#: the paper's configuration: GPT-4o profile, 21 candidates, pipeline seed 0
MODEL = "gpt-4o"
CANDIDATES = 21
PIPELINE_SEED = 0
#: closed-loop clients per workload (the machine has 2 cores).  zipf-async
#: has one: with a second client, a result hit's latency hinged on whether
#: the leader's pool thread had a core of its own to take the interpreter
#: lock from the event loop (p50 0.14 ms or 0.5 ms for identical input).
IN_FLIGHT = {"cold-threaded": 2, "zipf-async": 1, "drift-routed": 1}
WORKERS = 2
ZIPF_SKEW = 1.2
#: drift-routed: one seeded mutation (+ invalidate + reindex) every K
#: requests, on each database in turn.  Value churn only: with the schema
#: changes mixed in, tokens_per_request differed twofold between seeds
#: (1362-2719), because how many renames and column changes a seed drew
#: decided how many later answers escalated.
MUTATE_EVERY = 25
MUTATION_KINDS = ("value_churn",)
#: requests per second of --seconds: the rate each workload sustained on a
#: 2-core host when the benchmark was defined.  The request count is fixed
#: by --seconds rather than by elapsed time, so a faster or slower host (or
#: program) does not change which requests a seed sends.
NOMINAL_RPS = {"cold-threaded": 28, "zipf-async": 250, "drift-routed": 50}
#: sending stops after this many multiples of --seconds (a gross regression
#: still ends inside the run budget, with fewer requests sent)
OVERRUN = 5
#: the latency percentile reported next to the median
TAIL = 0.95

#: the functions the sensitivity test may slow down from outside
DELAY_TARGETS = {
    "Refiner.align": ("repro.core.refinement", "Refiner", "align"),
    "MicroBatcher.submit": ("repro.serving.aio.batcher", "MicroBatcher", "submit"),
    "ReindexWorker.reindex": ("repro.livedata.reindex", "ReindexWorker", "reindex"),
}


class CheckFailed(RuntimeError):
    """An output check failed: the run posts no number."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IN_FLIGHT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawn")
    parser.add_argument("--tmp", required=True,
                        help="fresh directory for the journal and checkpoint")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--segments", type=int, default=1,
                        help="split the timed phase into this many parts; "
                             "before each part wait for 'go' on stdin")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--delay", default="",
                        help="NAME=MS: sleep MS before every call of NAME")
    return parser.parse_args(argv)


# --------------------------------------------------------------- requests


def _spread_order(dev):
    """Dev questions dealt round-robin across databases (fixed ranks)."""
    by_db: dict = {}
    for example in dev:
        by_db.setdefault(example.db_id, []).append(example)
    queues = [list(q) for _, q in sorted(by_db.items())]
    order = []
    while any(queues):
        for q in queues:
            if q:
                order.append(q.pop(0))
    return order


def distinct_questions(dev) -> list:
    """Dev questions with distinct result-cache keys, in dev order.

    Some dev questions repeat another's text on the same database; as
    requests they would be result-cache hits, so they are left out.
    """
    from repro.caching import normalize_question

    seen = set()
    pool = []
    for example in dev:
        key = (example.db_id, normalize_question(example.question))
        if key not in seen:
            seen.add(key)
            pool.append(example)
    return pool


def make_requests(workload: str, dev, seed: int, seconds: float) -> list:
    """The seeded request list; each request is its own Example object.

    Copies carry identical field values, so the program sees the same
    questions; the distinct objects let the traced run tell two in-flight
    requests for the same question apart.
    """
    pool = distinct_questions(dev)
    count = round(seconds * NOMINAL_RPS[workload])
    if workload == "cold-threaded":
        order = list(pool)
        random.Random(seed).shuffle(order)
        order = order[:count]
    else:
        # Zipf(1.2) over a fixed popularity ranking (round-robin across the
        # databases, so the head spans all ten).  Stratified: rank r is
        # sent floor(count * p_r) times, the seed picks which ranks get the
        # remaining requests and shuffles the order.  Which questions repeat
        # how often then barely depends on the seed, so neither does the
        # hit/miss mix.
        ranked = _spread_order(pool)
        weights = np.arange(1, len(ranked) + 1, dtype=float) ** -ZIPF_SKEW
        expected = count * weights / weights.sum()
        copies = np.floor(expected).astype(int)
        rng = np.random.default_rng(seed)
        fraction = expected - copies
        extra = rng.choice(len(ranked), size=count - copies.sum(), replace=False,
                           p=fraction / fraction.sum())
        copies[extra] += 1
        order = [ranked[i] for i in rng.permutation(np.repeat(
            np.arange(len(ranked)), copies))]
    return [dataclasses.replace(example) for example in order]


# ----------------------------------------------------------------- set-up


def _import_program():
    """Import every module the run touches (timed as part of set-up).

    Traced and untraced runs import the same set, which includes every
    module the tracer wraps a function of.
    """
    from tracer import TARGETS

    for name in ("repro", "repro.evaluation.metrics", "repro.serving",
                 *sorted({module for module, _, _ in TARGETS.values()})):
        importlib.import_module(name)
    return sys.modules["repro"]


def _install_delay(spec: str):
    """Slow one named public function down by a fixed sleep; count calls."""
    name, _, ms = spec.partition("=")
    if name not in DELAY_TARGETS or not ms:
        raise SystemExit(f"--delay must be one of {sorted(DELAY_TARGETS)}=MS")
    module_name, cls_name, attr = DELAY_TARGETS[name]
    module = sys.modules[module_name]
    cls = getattr(module, cls_name)
    original = getattr(cls, attr)
    seconds = float(ms) / 1000.0
    counter = {"name": name, "calls": 0}

    def delayed(*args, **kwargs):
        counter["calls"] += 1
        time.sleep(seconds)
        return original(*args, **kwargs)

    setattr(cls, attr, delayed)
    return counter


class System:
    """Everything one workload serves through, built during set-up."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import OpenSearchSQL
        from repro.datasets.bird import build_bird_like
        from repro.llm.simulated import SimulatedLLM
        from repro.llm.skills import skill_by_name

        marks = {}
        start = time.perf_counter()
        self.benchmark = build_bird_like()
        marks["datasets.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.pipeline = OpenSearchSQL(
            self.benchmark,
            SimulatedLLM(skill_by_name(MODEL), seed=PIPELINE_SEED),
            PipelineConfig(n_candidates=CANDIDATES, seed=PIPELINE_SEED),
        )
        marks["core.preprocessing.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self._build_engine(workload, seed, tmp)
        marks["setup.engine_s"] = time.perf_counter() - start
        self.marks = marks

    def _build_engine(self, workload: str, seed: int, tmp: Path) -> None:
        from repro.observability import MetricsRegistry
        from repro.serving import AsyncServingEngine, ServingEngine, ServingJournal

        self.workload = workload
        self.metrics = MetricsRegistry()
        self.journal = ServingJournal(tmp / "journal.jsonl")
        self.journal.write_header(
            {"benchmark": "bird", "model": MODEL, "candidates": CANDIDATES,
             "seed": PIPELINE_SEED, "workload": workload}
        )
        served = self.pipeline
        self.tiered = self.driver = self.reindexer = self.registry = None
        if workload == "drift-routed":
            from repro.routing import TieredPipeline

            served = self.tiered = TieredPipeline(self.pipeline)
        engine_cls = AsyncServingEngine if workload == "zipf-async" else ServingEngine
        self.engine = engine_cls(
            served,
            workers=WORKERS,
            queue_capacity=32,
            result_cache_size=512,
            extraction_cache_size=1024,
            fewshot_cache_size=1024,
            journal=self.journal,
            metrics=self.metrics,
        )
        if workload == "drift-routed":
            from repro.livedata import EpochRegistry, MutationDriver, ReindexWorker

            self.registry = EpochRegistry()
            self.engine.attach_livedata(self.registry)
            self.driver = MutationDriver(self.benchmark, self.registry, seed=seed,
                                         kinds=MUTATION_KINDS)
            self.reindexer = ReindexWorker(
                self.pipeline,
                tmp / "reindex.jsonl",
                registry=self.registry,
                health=self.engine.health,
            )

    def epoch(self, db_id: str) -> int:
        return self.registry.epoch(db_id) if self.registry is not None else 0

    def close(self) -> None:
        self.engine.shutdown()
        if self.reindexer is not None:
            self.reindexer.close()


# --------------------------------------------------------------- the loop


class Ledger:
    """Client-side record of every request sent in the timed phase."""

    def __init__(self):
        self.sent = 0
        self.completed = 0
        self.failed = 0
        self.refused = 0
        #: (request, epoch at send, result or None, latency seconds)
        self.rows: list = []
        self.errors: list[str] = []
        self.mutations = 0
        self.invalidated = 0

    def add(self, request, epoch, result, latency, error=None, refused=False):
        self.sent += 1
        if refused:
            self.refused += 1
        elif result is None:
            self.failed += 1
        else:
            self.completed += 1
        if error:
            self.errors.append(error)
        self.rows.append((request, epoch, result, latency))


def _refusals():
    from repro.reliability.faults import BudgetExceededError, CircuitOpenError
    from repro.serving.admission import AdmissionError
    from repro.serving.bulkhead import (
        BulkheadFullError,
        DbCircuitOpenError,
        QuarantinedError,
    )

    return (AdmissionError, BudgetExceededError, CircuitOpenError,
            BulkheadFullError, DbCircuitOpenError, QuarantinedError)


def drive_threaded(system: System, requests, first: int, last: int,
                   stop_at: float, ledger: Ledger, tracer=None) -> None:
    """Closed loop over requests[first:last], IN_FLIGHT outstanding, all
    sent from this thread."""
    engine = system.engine
    refusals = _refusals()
    in_flight = IN_FLIGHT[system.workload]
    done: queue.SimpleQueue = queue.SimpleQueue()
    cursor = first
    outstanding = 0

    def send(request) -> bool:
        epoch = system.epoch(request.db_id)
        root = tracer.request_begin(request) if tracer else None
        sent_at = time.perf_counter()
        try:
            future = engine.submit(request, block=True)
        except refusals as exc:
            if tracer:
                tracer.request_end(root)
            ledger.add(request, epoch, None, math.inf,
                       error=f"refused: {exc}", refused=True)
            return False
        finally:
            if tracer:
                tracer.leave(root)
        future.add_done_callback(
            lambda f: done.put((request, epoch, sent_at, time.perf_counter(), f, root))
        )
        return True

    def collect() -> None:
        request, epoch, sent_at, answered_at, future, root = done.get()
        if tracer:
            tracer.request_end(root, answered_at)
        try:
            result = future.result()
        except Exception as exc:  # a failed request is counted, not raised
            ledger.add(request, epoch, None, math.inf,
                       error=f"{type(exc).__name__}: {exc}")
            return
        ledger.add(request, epoch, result, answered_at - sent_at)

    while cursor < last and time.perf_counter() < stop_at:
        if outstanding < in_flight:
            outstanding += send(requests[cursor])
            cursor += 1
            if system.driver is not None and cursor % MUTATE_EVERY == 0:
                # mutations land on a request boundary: drain first
                while outstanding:
                    collect()
                    outstanding -= 1
                _mutate(system, ledger)
            continue
        collect()
        outstanding -= 1
    while outstanding:
        collect()
        outstanding -= 1


def _mutate(system: System, ledger: Ledger) -> None:
    databases = sorted(system.benchmark.databases)
    event = system.driver.mutate(databases[ledger.mutations % len(databases)])
    dropped = system.engine.invalidate_db(event.db_id)
    system.reindexer.reindex(event.db_id, epoch=event.epoch)
    ledger.mutations += 1
    ledger.invalidated += sum(dropped.values())


def drive_async(system: System, requests, first: int, last: int,
                stop_at: float, ledger: Ledger, tracer=None) -> None:
    """IN_FLIGHT client coroutines over requests[first:last] on one event
    loop in this thread."""
    engine = system.engine
    refusals = _refusals()
    cursor = [first]

    async def client() -> None:
        while cursor[0] < last and time.perf_counter() < stop_at:
            request = requests[cursor[0]]
            cursor[0] += 1
            root = tracer.request_begin(request) if tracer else None
            sent_at = time.perf_counter()
            try:
                result = await engine.submit_async(request)
            except refusals as exc:
                ledger.add(request, 0, None, math.inf,
                           error=f"refused: {exc}", refused=True)
            except Exception as exc:  # counted as failed
                ledger.add(request, 0, None, math.inf,
                           error=f"{type(exc).__name__}: {exc}")
            else:
                ledger.add(request, 0, result, time.perf_counter() - sent_at)
            finally:
                if tracer:
                    tracer.request_end(root)
                    tracer.leave(root)
            # A real client waits on I/O between requests; yielding here
            # lets the loop deliver the other client's finished leader.
            await asyncio.sleep(0)

    async def main() -> None:
        await asyncio.gather(*(client() for _ in range(IN_FLIGHT[system.workload])))

    asyncio.run(main())


# ------------------------------------------------------ checks and scores


def check_and_score(system: System, ledger: Ledger) -> dict:
    """Every output check; returns the quality figures.  Raises CheckFailed."""
    from repro.caching import GoldResultCache
    from repro.evaluation.metrics import score_example

    stats = system.engine.stats()
    _check(ledger.sent == ledger.completed + ledger.failed + ledger.refused,
           "a sent request is neither completed, failed nor refused")
    _check(stats.completed == ledger.completed,
           f"engine completed {stats.completed} != client {ledger.completed}")
    _check(stats.failed == ledger.failed,
           f"engine failed {stats.failed} != client {ledger.failed}")
    _check(stats.submitted == ledger.sent,
           f"engine saw {stats.submitted} submissions, client sent {ledger.sent}")
    accepted = system.journal.accepted_seqs()
    _check(accepted == system.journal.committed_seqs(),
           "journal has accepted requests that never committed")
    _check(len(accepted) == ledger.sent - ledger.refused,
           f"journal accepted {len(accepted)} of {ledger.sent - ledger.refused}")
    # Answers served from a cache or a leader equal the fresh answer of
    # their key: one final SQL per (question, catalog epoch).
    answers: dict = {}
    for request, epoch, result, _ in ledger.rows:
        if result is None:
            continue
        key = (request.question_id, epoch)
        first = answers.setdefault(key, result.final_sql)
        _check(first == result.final_sql,
               f"{request.question_id} served two answers in epoch {epoch}")
    if system.driver is not None:
        live = system.engine.livedata_stats
        _check(live["stale_served"] == 0,
               f"{live['stale_served']} stale answers served")
        _check(ledger.mutations == len(system.driver.events), "mutation count")
    # ex: every distinct answer the pipeline produced, scored once against
    # gold on the final database state.
    gold = GoldResultCache()
    fresh: dict = {}
    for request, _, result, _ in ledger.rows:
        if result is not None:
            fresh.setdefault(id(result), (request, result))
    correct = 0
    for request, result in fresh.values():
        executor = system.pipeline.executor(request.db_id)
        outcome = gold.outcome(request, executor)
        correct += score_example(request, result.final_sql, executor, outcome).correct
    _check(fresh, "no request completed")
    tokens = sum(result.cost.total_tokens for _, result in fresh.values())
    model_seconds = sum(
        result.cost.total_model_seconds for _, result in fresh.values()
    )
    if system.workload == "zipf-async":
        # one batched backend invocation is charged once
        model_seconds = system.engine.batcher.stats()["backend_busy_seconds"]
    return {
        "ex": 100.0 * correct / len(fresh),
        "fresh_answers": len(fresh),
        "tokens": tokens,
        "model_seconds": model_seconds,
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; infinite values (failures) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def end_to_end(ledger: Ledger, wall: float, cpu: float, quality: dict) -> dict:
    latencies = [row[3] for row in ledger.rows]
    beyond = sum(1 for value in latencies if value > _percentile(latencies, TAIL))
    _check(beyond >= 10, f"only {beyond} samples beyond p95 "
           f"({len(latencies)} requests); the run is too short to report it")
    p95 = _percentile(latencies, TAIL)
    _check(math.isfinite(p95), "more than 5% of requests failed or were refused")
    completed = ledger.completed
    metrics = {
        "wall_rps": (completed / wall, "req/s"),
        "latency_p50_ms": (1000.0 * _percentile(latencies, 0.5), "ms"),
        "latency_p95_ms": (1000.0 * p95, "ms"),
        "cpu_ms_per_request": (1000.0 * cpu / completed, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ex": (quality["ex"], "%"),
        "tokens_per_request": (quality["tokens"] / completed, "tokens"),
        "model_s_per_request": (quality["model_seconds"] / completed, "virtual_s"),
        "served_pct": (100.0 * completed / ledger.sent, "%"),
    }
    print(f"samples  : {len(latencies)} requests sent, {completed} completed, "
          f"{ledger.failed} failed, {ledger.refused} refused; "
          f"{beyond} latency samples beyond p95; "
          f"{quality['fresh_answers']} distinct answers scored for ex")
    if ledger.errors:
        print(f"errors   : {len(ledger.errors)}, first: {ledger.errors[0]}")
    return metrics


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = _parse_args(argv)
    tmp = Path(args.tmp)
    tracer = None
    import_start = time.perf_counter()
    repro = _import_program()
    import_s = time.perf_counter() - import_start
    checkout_src = Path(__file__).resolve().parent.parent / "src"
    if Path(repro.__file__).resolve().parent.parent != checkout_src:
        print(f"error: imported repro from {repro.__file__}, not {checkout_src}",
              file=sys.stderr)
        return 2
    delay = _install_delay(args.delay) if args.delay else None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    system = System(args.workload, args.seed, tmp)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        system.close()
        return 0

    requests = make_requests(args.workload, system.benchmark.dev, args.seed,
                             args.seconds)
    ledger = Ledger()
    drive = drive_async if args.workload == "zipf-async" else drive_threaded
    if tracer:
        tracer.begin_timed_phase()
    # The timed phase may run in parts, each started by "go" on stdin, so
    # that run.py can measure other set-ups in between: the phase then
    # samples the host over a longer span.  Only time inside the parts
    # counts; the engine and its caches carry over unchanged.
    if args.segments > 1:
        print("ready", flush=True)
    wall = cpu = 0.0
    budget = OVERRUN * args.seconds
    for part in range(args.segments):
        if args.segments > 1 and sys.stdin.readline().strip() != "go":
            return 1
        first = len(requests) * part // args.segments
        last = len(requests) * (part + 1) // args.segments
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        drive(system, requests, first, last, wall_start + budget - wall, ledger,
              tracer)
        wall += time.perf_counter() - wall_start
        cpu += time.process_time() - cpu_start
        if args.segments > 1:
            print("paused", flush=True)
    if tracer:
        tracer.end_timed_phase()
    system.close()
    try:
        quality = check_and_score(system, ledger)
        metrics = end_to_end(ledger, wall, cpu, quality)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    if delay is not None:
        print(f"delay    : {delay['name']} called {delay['calls']} times")
    payload = {
        "setup_s": setup_s,
        "attempted": ledger.sent,
        "failed": ledger.sent - ledger.completed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if tracer:
        marks = dict(system.marks, **{"setup.import_s": import_s})
        payload["layers"] = tracer.layer_metrics(system, ledger, marks)
        print(f"trace    : {len(tracer.spans)} spans, "
              f"{len(tracer.roots)} requests")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
