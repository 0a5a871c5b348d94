"""Span tracing for the traced run, installed from the benchmark's side.

The program is not edited: ``Tracer.install`` replaces the public entry
points of every layer with wrappers that record a span (name, start, end,
parent span, request id).  The originals are never restored; the traced
process exits when the run ends.  Functions imported by value
(``parse_select``, ``render``, ``count_tokens``, ``build_bird_like``) are
replaced in every loaded ``repro`` module that holds them, because that
is where they are looked up.

Parents come from a context variable, so nesting is exact within a thread
and within an asyncio task.  Work handed to another thread (the threaded
engine's worker, the async engine's run pool) starts a span with no
parent; when that call carries the request's ``Example`` the span is
attached to the request by object identity (``make_requests`` gives every
request its own object).

Attribution limits, stated once: a micro-batch wave executes every
member's LLM call on the thread that closed the wave, so those spans
belong to that thread's request; spans outside any request (mutations,
reindexing, set-up) count towards their layer but to no request.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import time
from pathlib import Path

#: span name → (module, class or None, attribute)
TARGETS = {
    "datasets.build_bird_like": ("repro.datasets.bird", None, "build_bird_like"),
    "pipeline.init": ("repro.core.pipeline", "OpenSearchSQL", "__init__"),
    "pipeline.answer": ("repro.core.pipeline", "OpenSearchSQL", "answer"),
    "routing.answer": ("repro.routing.tiered", "TieredPipeline", "answer"),
    "routing.route": ("repro.routing.tiered", "TieredPipeline", "route"),
    "routing.fastpath": ("repro.routing.fastpath", "FastPathPipeline", "answer"),
    "extraction.run": ("repro.core.extraction", "Extractor", "run"),
    "fewshot.search": ("repro.core.fewshot", "FewShotLibrary", "search"),
    "generation.run": ("repro.core.generation", "Generator", "run"),
    "refinement.run": ("repro.core.refinement", "Refiner", "run"),
    "refinement.correct": ("repro.core.refinement", "Refiner", "correct"),
    "alignment.align": ("repro.core.refinement", "Refiner", "align"),
    "sqlkit.parse": ("repro.sqlkit.parser", None, "parse_select"),
    "sqlkit.render": ("repro.sqlkit.render", None, "render"),
    "execution.execute": ("repro.execution.executor", "SQLExecutor", "execute"),
    "embedding.embed": ("repro.embedding.vectorizer", "HashingVectorizer", "embed"),
    "embedding.search": ("repro.embedding.index", "FlatIndex", "search"),
    "embedding.search_hnsw": ("repro.embedding.hnsw", "HNSWIndex", "search"),
    "llm.complete": ("repro.llm.simulated", "SimulatedLLM", "complete"),
    "llm.complete_batch": ("repro.llm.simulated", "SimulatedLLM", "complete_batch"),
    "llm.count_tokens": ("repro.llm.base", None, "count_tokens"),
    "caching.get": ("repro.caching", "LRUCache", "get"),
    "caching.put": ("repro.caching", "LRUCache", "put"),
    "journal.accept": ("repro.serving.journal", "ServingJournal", "accept"),
    "journal.commit": ("repro.serving.journal", "ServingJournal", "commit"),
    "aio.begin": ("repro.serving.aio.singleflight", "SingleFlight", "begin"),
    "aio.batch_submit": ("repro.serving.aio.batcher", "MicroBatcher", "submit"),
    "aio.submit_async": ("repro.serving.aio.engine", "AsyncServingEngine",
                         "submit_async"),
    "engine.submit": ("repro.serving.engine", "ServingEngine", "submit"),
    "engine.handle": ("repro.serving.engine", "ServingEngine", "_handle"),
    "metrics.counter_inc": ("repro.observability.metrics", "Counter", "inc"),
    "metrics.series_inc": ("repro.observability.metrics", "_CounterSeries", "inc"),
    "metrics.gauge_set": ("repro.observability.metrics", "Gauge", "set"),
    "metrics.gauge_series_set": ("repro.observability.metrics", "_GaugeSeries",
                                 "set"),
    "metrics.gauge_series_inc": ("repro.observability.metrics", "_GaugeSeries",
                                 "inc"),
    "metrics.observe": ("repro.observability.metrics", "Histogram", "observe"),
    "metrics.series_observe": ("repro.observability.metrics", "_HistogramSeries",
                               "observe"),
    "livedata.mutate": ("repro.livedata.mutations", "MutationDriver", "mutate"),
    "livedata.invalidate": ("repro.serving.engine", "ServingEngine",
                            "invalidate_db"),
    "livedata.reindex": ("repro.livedata.reindex", "ReindexWorker", "reindex"),
    "livedata.checkpoint_append": ("repro.livedata.reindex", "ReindexCheckpoint",
                                   "append"),
}

#: spans that start a request's work on another thread; argument 1 (after
#: ``self``) is the request's Example
REQUEST_ENTRIES = {"engine.handle", "pipeline.answer", "routing.answer"}


def _note_refinement(args, kwargs, result):
    ok = sum(1 for c in result.candidates if c.outcome is not None and c.outcome.ok)
    return ok, len(result.candidates)


#: span name → what to keep from (args, kwargs, result)
NOTES = {
    "refinement.run": _note_refinement,
    "execution.execute": lambda a, k, r: r.status.is_error,
    "llm.complete": lambda a, k, r: sum(resp.usage.total_tokens for resp in r),
    "sqlkit.parse": lambda a, k, r: a[0],
    "aio.begin": lambda a, k, r: r[1],
    "livedata.invalidate": lambda a, k, r: sum(r.values()),
    "livedata.reindex": lambda a, k, r: r.vectors,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "note")

    def __init__(self, name, parent, rid, start):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = start
        self.end = start
        self.note = None


def _merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span recorder; spans are analysed when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.roots: dict[int, Span] = {}
        self._rid_of: dict[int, int] = {}
        self.timed_start = None
        self.timed_end = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for name, (module_name, cls_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if cls_name is None:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
            else:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def _wrap(self, name, fn):
        current = self.current
        spans = self.spans
        clock = time.perf_counter
        note = NOTES.get(name)
        entry = name in REQUEST_ENTRIES
        roots = self.roots
        rid_of = self._rid_of

        def open_span(args):
            parent = current.get()
            if parent is None and entry and len(args) > 1:
                rid = rid_of.get(id(args[1]))
                parent = roots.get(rid) if rid is not None else None
            return Span(name, parent, parent.rid if parent else None, clock())

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = open_span(args)
                token = current.set(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    current.reset(token)
                    spans.append(span)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_span(args)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                current.reset(token)
                spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ requests

    def request_begin(self, request):
        """Open the client-side span of one request and make it current."""
        rid = len(self.roots)
        root = Span("request", None, rid, time.perf_counter())
        self.roots[rid] = root
        self._rid_of[id(request)] = rid
        return root, self.current.set(root)

    def leave(self, handle) -> None:
        self.current.reset(handle[1])

    @staticmethod
    def request_end(handle, at=None) -> None:
        handle[0].end = time.perf_counter() if at is None else at

    def begin_timed_phase(self) -> None:
        self.timed_start = time.perf_counter()

    def end_timed_phase(self) -> None:
        self.timed_end = time.perf_counter()

    # ------------------------------------------------------------ analysis

    def layer_metrics(self, system, ledger, marks: dict) -> dict:
        """Every per-layer figure of the traced run (see design.json)."""
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)

        def self_time(span: Span) -> float:
            kids = children.get(id(span), ())
            covered = _merged_length(((c.start, c.end) for c in kids),
                                     span.start, span.end)
            return span.end - span.start - covered

        setup = [s for s in spans if s.start < self.timed_start]
        timed = [s for s in spans
                 if self.timed_start <= s.start <= self.timed_end]
        by_name: dict[str, list[Span]] = {}
        for span in timed:
            by_name.setdefault(span.name, []).append(span)

        def named(*names):
            return [s for n in names for s in by_name.get(n, ())]

        def total_self(*names) -> float:
            return sum(self_time(s) for s in named(*names))

        done = max(1, ledger.completed)
        mutations = max(1, ledger.mutations)

        def per_request_ms(*names) -> float:
            return 1000.0 * total_self(*names) / done

        def calls(*names) -> float:
            return len(named(*names)) / done

        def setup_layer(*names):
            picked = [s for s in setup if s.name in names]
            return len(picked), sum(self_time(s) for s in picked)

        out: dict[str, float] = {}
        out.update(marks)
        for layer, names in (
            ("sqlkit", ("sqlkit.parse",)),
            ("embedding", ("embedding.embed",)),
            ("llm", ("llm.complete", "llm.complete_batch", "llm.count_tokens")),
            ("execution", ("execution.execute",)),
        ):
            count, seconds = setup_layer(*names)
            kind = {"sqlkit": "parse", "embedding": "embed"}.get(layer)
            prefix = f"{layer}.setup_{kind}" if kind else f"{layer}.setup"
            out[f"{prefix}_calls"] = count
            out[f"{prefix}_s"] = seconds

        # serving.engine: the request entry points, minus waiting
        engine_self, queue_wait, follower_wait, followers = 0.0, 0.0, 0.0, 0
        for span in named("engine.handle"):
            engine_self += self_time(span)
            submit = [c for c in children.get(id(span.parent), ())
                      if c.name == "engine.submit"]
            if submit:
                queue_wait += max(0.0, span.start - submit[0].end)
        engine_self += total_self("engine.submit")
        for span in named("aio.submit_async"):
            kids = children.get(id(span), ())
            begin = [c for c in kids if c.name == "aio.begin"]
            if not begin:
                engine_self += self_time(span)
                continue
            # After SingleFlight.begin the task is suspended until its next
            # span: a follower waits for its leader, a leader for its own
            # pipeline run (on a pool thread, attached to the request root)
            # plus the hand-offs around it.
            begun = begin[0].end
            after = [c.start for c in kids if c.start >= begun]
            resumed = min(after) if after else span.end
            waited = resumed - begun
            if begin[0].note:
                runs = [c for c in children.get(id(span.parent), ())
                        if c.name in REQUEST_ENTRIES and c.start >= begun]
                waited -= sum(min(r.end, resumed) - r.start for r in runs)
                queue_wait += max(0.0, waited)
            else:
                follower_wait += waited
                followers += 1
            covered = _merged_length(
                [(c.start, c.end) for c in kids] + [(begun, resumed)],
                span.start, span.end,
            )
            engine_self += span.end - span.start - covered
        out["serving.engine.self_ms"] = 1000.0 * engine_self / done
        out["serving.engine.queue_wait_ms"] = 1000.0 * queue_wait / done

        batcher = getattr(system.engine, "batcher", None)
        stats = batcher.stats() if batcher is not None else {}
        out["serving.aio.coalesced_share"] = followers / done
        out["serving.aio.batch_members_mean"] = (
            stats["calls"] / stats["flushes"] if stats.get("flushes") else 0.0
        )
        out["serving.aio.batch_wait_ms"] = per_request_ms("aio.batch_submit")
        out["serving.aio.follower_wait_ms"] = 1000.0 * follower_wait / done

        appends = named("journal.accept", "journal.commit")
        out["serving.journal.appends_per_request"] = len(appends) / done
        out["serving.journal.append_us"] = (
            1e6 * sum(self_time(s) for s in appends) / len(appends) if appends else 0.0
        )
        out["serving.journal.bytes_per_request"] = (
            Path(system.journal.path).stat().st_size / done
        )

        engine = system.engine
        for tier, cache in (("result", engine.result_cache),
                            ("extraction", engine.extraction_cache),
                            ("fewshot", engine.fewshot_cache)):
            out[f"caching.{tier}_hit_ratio"] = cache.stats.hit_rate
        lookups = named("caching.get")
        out["caching.lookup_us"] = (
            1e6 * sum(self_time(s) for s in lookups) / len(lookups) if lookups else 0.0
        )
        out["caching.invalidated_per_mutation"] = (
            ledger.invalidated / mutations if ledger.mutations else 0.0
        )

        out["core.pipeline.answers_per_request"] = calls("pipeline.answer")
        out["core.pipeline.answer_ms"] = per_request_ms("pipeline.answer")
        out["core.extraction.self_ms"] = per_request_ms("extraction.run")
        out["core.fewshot.search_ms"] = per_request_ms("fewshot.search")
        out["core.fewshot.calls"] = calls("fewshot.search")
        out["core.generation.self_ms"] = per_request_ms("generation.run")
        out["core.refinement.self_ms"] = per_request_ms(
            "refinement.run", "refinement.correct"
        )
        ok = sum(s.note[0] for s in named("refinement.run"))
        candidates = sum(s.note[1] for s in named("refinement.run"))
        out["core.refinement.valid_candidate_ratio"] = (
            ok / candidates if candidates else 0.0
        )
        out["core.refinement.corrections_per_request"] = calls("refinement.correct")
        out["core.alignment.ms"] = per_request_ms("alignment.align")
        out["core.alignment.calls"] = calls("alignment.align")

        parses = named("sqlkit.parse")
        out["sqlkit.parse_ms"] = per_request_ms("sqlkit.parse")
        out["sqlkit.parse_calls"] = len(parses) / done
        out["sqlkit.parse_unique_ratio"] = (
            len({s.note for s in parses}) / len(parses) if parses else 0.0
        )
        out["sqlkit.render_ms"] = per_request_ms("sqlkit.render")

        executions = named("execution.execute")
        out["execution.execute_ms"] = per_request_ms("execution.execute")
        out["execution.calls"] = len(executions) / done
        out["execution.error_ratio"] = (
            sum(1 for s in executions if s.note) / len(executions)
            if executions else 0.0
        )

        out["embedding.embed_ms"] = per_request_ms("embedding.embed")
        out["embedding.embed_calls"] = calls("embedding.embed")
        out["embedding.search_ms"] = per_request_ms(
            "embedding.search", "embedding.search_hnsw"
        )
        out["embedding.search_calls"] = calls(
            "embedding.search", "embedding.search_hnsw"
        )

        completions = named("llm.complete")
        out["llm.complete_ms"] = per_request_ms("llm.complete", "llm.complete_batch")
        out["llm.calls"] = len(completions) / done
        out["llm.count_tokens_ms"] = per_request_ms("llm.count_tokens")
        out["llm.tokens_per_call"] = (
            sum(s.note for s in completions) / len(completions) if completions else 0.0
        )

        routing = system.tiered.routing_stats() if system.tiered else {}
        routed = routing.get("requests", 0)
        decisions = routing.get("decisions", {})
        out["routing.route_us"] = 1000.0 * per_request_ms("routing.route")
        out["routing.fast_share"] = decisions.get("fast", 0) / routed if routed else 0.0
        out["routing.heavy_share"] = (
            decisions.get("heavy", 0) / routed if routed else 0.0
        )
        out["routing.escalation_ratio"] = (
            sum(routing.get("escalations", {}).values()) / routed if routed else 0.0
        )
        out["routing.fastpath_ms"] = per_request_ms("routing.fastpath")

        def per_mutation_ms(name) -> float:
            if not ledger.mutations:
                return 0.0
            return 1000.0 * total_self(name) / mutations

        out["livedata.mutate_ms"] = per_mutation_ms("livedata.mutate")
        out["livedata.invalidate_ms"] = per_mutation_ms("livedata.invalidate")
        out["livedata.reindex_ms"] = per_mutation_ms("livedata.reindex")
        out["livedata.reindex_vectors"] = (
            sum(s.note for s in named("livedata.reindex")) / mutations
            if ledger.mutations else 0.0
        )
        checkpoints = named("livedata.checkpoint_append")
        out["livedata.checkpoint_append_us"] = (
            1e6 * sum(self_time(s) for s in checkpoints) / len(checkpoints)
            if checkpoints else 0.0
        )
        out["livedata.stale_retries"] = (
            engine.livedata_stats["stale_retried"] / done
        )

        metric_names = {n for n in TARGETS if n.startswith("metrics.")}
        updates = [s for s in timed if s.name in metric_names]
        outermost = [s for s in updates
                     if s.parent is None or s.parent.name not in metric_names]
        out["observability.metric_updates_per_request"] = len(outermost) / done
        out["observability.metrics_us_per_request"] = (
            1e6 * sum(self_time(s) for s in updates) / done
        )

        # request wall time that no span of that request covers
        by_rid: dict[int, list] = {}
        for span in timed:
            if span.rid is not None:
                by_rid.setdefault(span.rid, []).append((span.start, span.end))
        total = uncovered = 0.0
        for rid, root in self.roots.items():
            length = root.end - root.start
            total += length
            uncovered += length - _merged_length(by_rid.get(rid, ()),
                                                 root.start, root.end)
        out["trace.unattributed_pct"] = 100.0 * uncovered / total if total else 0.0
        return out
