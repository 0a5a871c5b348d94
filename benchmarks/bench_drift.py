"""Live-mutation certification: drift at every request boundary.

Not a paper table: this bench certifies the live-data layer's
robustness contract.  A routed serving run is interleaved with seeded
catalog mutations (value churn, added/dropped columns, renamed tables)
at request boundaries — after each mutation the engine's caches are
invalidated and the crash-safe :class:`~repro.livedata.reindex.
ReindexWorker` rebuilds the mutated database's indexes with the startup
preprocessor — then
simulated SIGKILLs are enumerated at every reindex-checkpoint append
boundary (:func:`~repro.livedata.driftfuzz.run_drift_fuzz`).  The
certification asserts, for the whole campaign:

1. **zero stale serves** — no answer completes against a catalog that
   moved under it undetected (``stale_served`` ends at exactly 0; the
   epoch guard turns every such race into a typed
   ``StaleCatalogError`` + one bounded retry);
2. **zero double-reindexes** — the checkpoint carries exactly one
   ``done`` record per ``(db_id, epoch)``; a replayed bump is a typed
   ``DoubleReindexError``, never a second billed pass;
3. **byte-identical kill/resume** — a reindex worker killed at any
   checkpoint append boundary (clean or torn mid-line) resumes to a
   checkpoint file byte-identical to an uninterrupted reindex;
4. **determinism** — two campaigns with the same seed produce
   byte-identical outcome documents (CI also diffs two CLI
   invocations of ``repro drift-fuzz --out``).

Uses the five-database ``cluster-smoke`` profile.  Sizes shrink under
``REPRO_SERVING_SMOKE=1`` for CI.
"""

import json
import os

from repro.livedata.driftfuzz import DriftFuzzConfig, run_drift_fuzz

SMOKE = bool(int(os.environ.get("REPRO_SERVING_SMOKE", "0")))
REQUESTS = 6 if SMOKE else 10
DISTINCT = 4 if SMOKE else 5
MUTATE_EVERY = 2 if SMOKE else 1


def _config():
    return DriftFuzzConfig(
        requests=REQUESTS,
        distinct=DISTINCT,
        seed=0,
        candidates=3,
        routing=True,
        mutate_every=MUTATE_EVERY,
    )


def _compute(tmp_dir):
    first = run_drift_fuzz(_config(), tmp_dir / "run1")
    second = run_drift_fuzz(_config(), tmp_dir / "run2")
    return {"first": first, "second": second}


def test_drift_robustness_certification(benchmark, tmp_path):
    runs = benchmark.pedantic(_compute, args=(tmp_path,), rounds=1, iterations=1)
    result = runs["first"]

    # The campaign actually drifted: mutations landed, every one was
    # reindexed, and the kill enumeration covered both cut shapes.
    assert result.mutations, "no mutations applied"
    assert len(result.reindexes) == len(result.mutations)
    kinds = {o.kind for o in result.outcomes}
    assert kinds >= {"clean", "torn"}, kinds
    assert result.cut_points > 0

    # 1. Zero stale serves — and every stale race that was detected got
    # retried rather than served.
    assert result.stale_serves == 0, result.livedata
    assert result.livedata.get("stale_retried", 0) <= result.livedata.get(
        "stale_detected", 0
    )

    # Journal commits carry the epoch stamps the mutations produced: the
    # stamps a replayed live-mutation schedule must reproduce.
    assert result.epoch_stamps, "no schema_epoch stamps journaled"

    # 2. Zero double-reindexes.
    assert result.duplicate_done == 0

    # 3. Every simulated SIGKILL resumed byte-identically (or refused a
    # completed checkpoint with the typed already-done outcome).
    by_class: dict = {}
    for outcome in result.outcomes:
        by_class.setdefault(outcome.outcome, []).append(outcome.cut)
    assert "diverged" not in by_class, by_class["diverged"]
    assert "traceback" not in by_class, by_class["traceback"]
    assert by_class.get("already-done"), "full-length cut never enumerated"
    assert result.ok, [o.to_dict() for o in result.outcomes if not o.ok]

    # 4. Same seed, same world: the full outcome documents are
    # byte-identical across two independent campaigns.
    first_doc = json.dumps(result.to_dict(), sort_keys=True)
    second_doc = json.dumps(runs["second"].to_dict(), sort_keys=True)
    assert first_doc == second_doc

    summary = result.summary()
    print()
    print(
        f"campaign    : {summary['requests']} requests, "
        f"{summary['mutations']} mutations, {summary['reindexes']} reindexes"
    )
    print(
        f"kill cuts   : {summary['cuts']} over "
        f"{summary['append_boundaries']} append boundaries "
        f"({json.dumps(summary['outcomes'], sort_keys=True)})"
    )
    print(
        f"certified   : stale_serves=0, double_reindexes=0, "
        f"catchup {summary['catchup_seconds']}s (virtual)"
    )
