"""Crash-consistency certification: power cuts at every append boundary.

Not a paper table: this bench certifies the storage layer's recovery
contract.  A 3-shard routed reference run is journaled through a
recording opener, then :func:`~repro.storage.crashfuzz.run_crash_fuzz`
enumerates simulated power cuts —

* a **clean cut** after every global append (all segments truncated to
  their exact byte lengths at that instant),
* a **torn cut** inside every append (the next record survives only to
  its midpoint byte), and
* seeded **bit-flip** trials (silent media corruption in a completed
  run)

— and recovers each one through the production
``ShardedJournalView``/``recover_run`` path.  The certification
asserts, for every cut:

1. **no wrong answers** — recovery is byte-identical to the reference
   report, or fails with a *typed* error; a silently divergent report
   (``wrong-report``) fails the bench;
2. **no double-serves** — no cut shape makes the merged view replay a
   seq twice;
3. **no tracebacks** — damage always surfaces as
   ``JournalCorruptionError`` / ``JournalVersionError``, never a bare
   exception escaping the recovery path;
4. **repairability** — every bit-flip that trips the corruption check
   is repaired by ``repro fsck --repair`` semantics
   (:func:`~repro.storage.fsck.repair_file`), after which recovery is
   byte-identical again;
5. **determinism** — two campaigns with the same seed produce
   element-identical outcome lists (CI also diffs two CLI invocations).

Uses the five-database ``cluster-smoke`` profile.  Sizes shrink under
``REPRO_SERVING_SMOKE=1`` for CI.
"""

import json
import os

from repro.storage.crashfuzz import CrashFuzzConfig, run_crash_fuzz

SMOKE = bool(int(os.environ.get("REPRO_SERVING_SMOKE", "0")))
REQUESTS = 8 if SMOKE else 12
DISTINCT = 4 if SMOKE else 6
BITFLIPS = 2 if SMOKE else 4


def _config():
    return CrashFuzzConfig(
        shards=3,
        requests=REQUESTS,
        distinct=DISTINCT,
        seed=0,
        candidates=3,
        routing=True,
        bitflips=BITFLIPS,
    )


def _compute(tmp_dir):
    first = run_crash_fuzz(_config(), tmp_dir / "run1")
    second = run_crash_fuzz(_config(), tmp_dir / "run2")
    return {"first": first, "second": second}


def test_crash_consistency_certification(benchmark, tmp_path):
    runs = benchmark.pedantic(_compute, args=(tmp_path,), rounds=1, iterations=1)
    result = runs["first"]
    outcomes = result.outcomes

    # The enumeration actually covered something on every axis.
    kinds = {o.kind for o in outcomes}
    assert kinds >= {"clean", "torn", "flip"}, kinds
    assert result.cut_points > 0

    # 1-3. Never a wrong answer, a double-serve, or a traceback.
    by_class: dict = {}
    for outcome in outcomes:
        by_class.setdefault(outcome.outcome, []).append(outcome.cut)
    assert "wrong-report" not in by_class, by_class["wrong-report"]
    assert "double-serve" not in by_class, by_class["double-serve"]
    assert "traceback" not in by_class, by_class["traceback"]

    # Power cuts recover byte-identically (or typed-empty before any
    # segment existed); the certification flag rolls all rules up.
    assert result.ok, [o.to_dict() for o in outcomes if not o.ok]

    # 4. Every corruption-tripping flip was repaired back to identical.
    flips = [o for o in outcomes if o.kind == "flip"]
    assert flips
    for flip in flips:
        if flip.outcome == "typed-loss":
            assert flip.repaired == "identical", flip.to_dict()

    # 5. Same seed, same verdicts — the campaign is deterministic.
    first_doc = json.dumps(
        [o.to_dict() for o in outcomes], sort_keys=True
    )
    second_doc = json.dumps(
        [o.to_dict() for o in runs["second"].outcomes], sort_keys=True
    )
    assert first_doc == second_doc

    summary = result.summary()
    print()
    print(
        f"enumeration : {summary['cuts']} cuts over "
        f"{summary['append_boundaries']} append boundaries "
        f"({len(flips)} bit-flip trials)"
    )
    print(f"outcomes    : {json.dumps(summary['outcomes'], sort_keys=True)}")
    print("certified   : no wrong answers, no double-serves, no tracebacks")
