"""Drift-chaos certifier: a small campaign certifies and is
deterministic across runs (the CLI diffs two ``--out`` documents)."""

import json

from repro.livedata.driftfuzz import DriftFuzzConfig, run_drift_fuzz


def small_config():
    return DriftFuzzConfig(
        requests=4,
        distinct=3,
        seed=0,
        candidates=3,
        routing=False,
        mutate_every=2,
    )


class TestDriftFuzz:
    def test_small_campaign_certifies(self, tmp_path):
        result = run_drift_fuzz(small_config(), tmp_path / "run")
        assert result.ok, result.to_dict()
        assert result.mutations
        assert len(result.reindexes) == len(result.mutations)
        assert result.stale_serves == 0
        assert result.duplicate_done == 0
        # both SIGKILL cut shapes were enumerated and every cut resumed
        # byte-identically (or refused a completed checkpoint, typed)
        kinds = {o.kind for o in result.outcomes}
        assert kinds >= {"clean", "torn"}
        outcomes = {o.outcome for o in result.outcomes}
        assert outcomes <= {"identical", "already-done"}
        assert "CERTIFIED" in result.format()
        # journal commits carried the mutations' epoch stamps
        assert result.epoch_stamps

    def test_same_seed_is_byte_identical(self, tmp_path):
        first = run_drift_fuzz(small_config(), tmp_path / "a")
        second = run_drift_fuzz(small_config(), tmp_path / "b")
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
