"""Micro-batching of same-stage LLM calls across concurrent requests.

Concurrent pipeline runs each issue a stream of LLM calls.  The
:class:`MicroBatcher` parks every call at a rendezvous and flushes a
**wave** when all currently active runs are parked (or a safety window
expires), then partitions the wave by ``(client, stage)`` and issues one
batched backend invocation per group via ``client.complete_batch``.

The batching window is *adaptive*, not a fixed timer: a wave closes the
moment every eligible runner has either parked its next call or finished
its run.  That makes the wave composition a pure function of each
request's deterministic call sequence — wave *k* contains exactly the
*k*-th call of every run that has a *k*-th call — so batch sizes and the
accounted backend-busy seconds are reproducible across runs and the CI
determinism diff can hold.  The wall-clock ``safety_timeout`` exists
only as a liveness backstop for pathological stalls; in a healthy run it
never fires.

Virtual-time accounting (the certified win): a batched invocation of
*n* member calls is charged

    ``CALL_OVERHEAD_SECONDS + max(member_seconds - CALL_OVERHEAD_SECONDS)``

— one API overhead for the whole batch plus the *slowest* member's
decode time, the continuous-batching model where members decode in
parallel on one backend.  Per-member responses are byte-identical to
lone ``complete()`` calls (``SimulatedLLM`` draws are order-independent
by construction), so each request's charged tokens/cost — and therefore
EX, journal payloads, and recovered reports — are independent of how
traffic happened to batch.  Only the engine-level backend-busy clock
(the async makespan) sees the overlap.

Clients without ``complete_batch`` fall back to a per-call loop and are
honestly charged serial time: no simulator support, no batching win.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.llm.simulated import CALL_OVERHEAD_SECONDS
from repro.llm.tasks import (
    ColumnSelectionTask,
    CorrectionTask,
    CoTAugmentTask,
    EntityExtractionTask,
    GenerationTask,
    SelectAlignmentTask,
)

__all__ = ["MicroBatcher", "BatchingLLM", "stage_of"]

#: task class → pipeline stage; calls only batch within one stage (and
#: one client — tiers never share a backend invocation).
_STAGE_BY_TASK = {
    EntityExtractionTask: "extraction",
    ColumnSelectionTask: "extraction",
    CoTAugmentTask: "generation",
    GenerationTask: "generation",
    SelectAlignmentTask: "alignment",
    CorrectionTask: "refinement",
}


def stage_of(task: object) -> str:
    """The batching stage for one task payload (``"other"`` if unknown)."""
    return _STAGE_BY_TASK.get(type(task), "other")


class _Call:
    __slots__ = ("client", "prompt", "temperature", "n", "task",
                 "claimed", "done", "responses", "error")

    def __init__(self, client, prompt, temperature, n, task):
        self.client = client
        self.prompt = prompt
        self.temperature = temperature
        self.n = n
        self.task = task
        self.claimed = False
        self.done = threading.Event()
        self.responses = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Barrier rendezvous collecting concurrent LLM calls into waves."""

    def __init__(
        self,
        max_batch: int = 32,
        safety_timeout: float = 5.0,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.safety_timeout = safety_timeout
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: list[_Call] = []
        #: runs announced (engine-side, pre-offload) but not yet begun —
        #: counted as active so wave 1 waits for the whole cohort instead
        #: of flushing against whichever thread the pool started first
        self._expected = 0
        self._running = 0
        # accounting (guarded by _cond)
        self.calls = 0
        self.flushes = 0
        self.batched_calls = 0
        self.max_batch_seen = 0
        self.busy_seconds = 0.0
        self.timeouts = 0

    # ------------------------------------------------------ runner census

    def expect(self, n: int = 1) -> None:
        """Announce ``n`` pipeline runs about to be offloaded."""
        with self._cond:
            self._expected += n
            self._cond.notify_all()

    def abandon(self, n: int = 1) -> None:
        """Retract announced runs that will never start (cancellation)."""
        with self._cond:
            self._expected = max(0, self._expected - n)
            self._cond.notify_all()

    def runner_begun(self) -> None:
        """An announced run started executing on its worker thread."""
        with self._cond:
            self._expected = max(0, self._expected - 1)
            self._running += 1
            self._cond.notify_all()

    def runner_finished(self) -> None:
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def _active(self) -> int:
        return self._expected + self._running

    # ------------------------------------------------------------ submit

    def submit(self, client, prompt, temperature, n, task):
        """Park one LLM call until its wave flushes; return its responses.

        Called from runner threads (inside a pipeline run).  The caller
        that completes the wave — by being its last parked member, or by
        safety timeout — claims the whole wave and executes it; everyone
        else sleeps until the claimant posts their responses.
        """
        call = _Call(client, prompt, temperature, n, task)
        wave: Optional[list[_Call]] = None
        timed_out = False
        with self._cond:
            self.calls += 1
            self._pending.append(call)
            self._cond.notify_all()
            deadline = self._clock() + self.safety_timeout
            while not call.claimed:
                if (
                    len(self._pending) >= self.max_batch
                    or len(self._pending) >= max(1, self._active())
                ):
                    wave = self._claim()
                    break
                remaining = deadline - self._clock()
                if remaining <= 0:
                    wave = self._claim()
                    timed_out = True
                    break
                self._cond.wait(remaining)
            if timed_out:
                self.timeouts += 1
        if wave is not None:
            self._execute(wave)
        call.done.wait()
        if call.error is not None:
            raise call.error
        return call.responses

    def _claim(self) -> list[_Call]:
        """Take the pending wave (caller holds the lock)."""
        wave, self._pending = self._pending, []
        for member in wave:
            member.claimed = True
        self._cond.notify_all()
        return wave

    # ----------------------------------------------------------- execute

    def _execute(self, wave: list[_Call]) -> None:
        """Run one wave, group by (client, stage), post responses."""
        groups: dict[tuple[int, str], list[_Call]] = {}
        for call in wave:
            groups.setdefault((id(call.client), stage_of(call.task)), []).append(call)
        for members in groups.values():
            try:
                seconds = self._invoke(members)
            except BaseException as exc:  # noqa: BLE001 — posted per member
                for member in members:
                    member.error = exc
                    member.done.set()
                continue
            with self._cond:
                self.flushes += 1
                self.busy_seconds += seconds
                self.max_batch_seen = max(self.max_batch_seen, len(members))
                if len(members) >= 2:
                    self.batched_calls += 1
            for member in members:
                member.done.set()

    @staticmethod
    def _invoke(members: list[_Call]) -> float:
        """One backend invocation; returns its charged virtual seconds."""
        client = members[0].client
        if hasattr(client, "complete_batch"):
            response_lists = client.complete_batch(
                [
                    {
                        "prompt": m.prompt,
                        "temperature": m.temperature,
                        "n": m.n,
                        "task": m.task,
                    }
                    for m in members
                ]
            )
            seconds = 0.0
            for member, responses in zip(members, response_lists):
                member.responses = responses
                member_seconds = sum(r.latency_seconds for r in responses)
                seconds = max(seconds, member_seconds - CALL_OVERHEAD_SECONDS)
            return CALL_OVERHEAD_SECONDS + seconds
        # No batched entry point: serial per-call fallback, serial time.
        seconds = 0.0
        for member in members:
            member.responses = client.complete(
                member.prompt,
                temperature=member.temperature,
                n=member.n,
                task=member.task,
            )
            seconds += sum(r.latency_seconds for r in member.responses)
        return seconds

    def reset_stats(self) -> None:
        """Zero the accounting; the runner census is state and stays."""
        with self._cond:
            self.calls = self.flushes = self.batched_calls = 0
            self.max_batch_seen = self.timeouts = 0
            self.busy_seconds = 0.0

    def stats(self) -> dict:
        with self._cond:
            return {
                "calls": self.calls,
                "flushes": self.flushes,
                "batched_calls": self.batched_calls,
                "max_batch": self.max_batch_seen,
                "mean_batch": round(self.calls / self.flushes, 2)
                if self.flushes
                else 0.0,
                "backend_busy_seconds": round(self.busy_seconds, 4),
                "safety_timeouts": self.timeouts,
            }


class BatchingLLM:
    """Transparent client shim parking every ``complete`` at the batcher.

    Attribute access falls through to the wrapped client so skill
    profiles, seeds and fault-injection knobs stay reachable; only the
    call path is re-routed.  One batcher may serve several wrapped
    clients (routing tiers) — waves group per client, so tiers never
    share a backend invocation.
    """

    def __init__(self, inner, batcher: MicroBatcher):
        self.inner = inner
        self.batcher = batcher

    def complete(self, prompt, *, temperature=0.0, n=1, task=None):
        return self.batcher.submit(self.inner, prompt, temperature, n, task)

    def __getattr__(self, name):
        return getattr(self.inner, name)
