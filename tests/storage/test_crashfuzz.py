"""Crash fuzzer unit smoke: a tiny campaign certifies and is stable.

The full-size campaign runs in ``benchmarks/bench_crashfuzz.py``; this
keeps a small one, every cut enumerated, in the tier-1 suite so a
recovery regression fails fast, without the bench harness.
"""

import pytest

from repro.storage.crashfuzz import CrashFuzzConfig, run_crash_fuzz


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    config = CrashFuzzConfig(
        shards=2, requests=6, distinct=4, bitflips=1, routing=False
    )
    return run_crash_fuzz(config, tmp_path_factory.mktemp("crashfuzz"))


class TestCampaign:
    def test_certifies(self, campaign):
        assert campaign.ok, [
            o.to_dict() for o in campaign.outcomes if not o.ok
        ]

    def test_forbidden_outcomes_absent(self, campaign):
        classes = {o.outcome for o in campaign.outcomes}
        assert "wrong-report" not in classes
        assert "double-serve" not in classes
        assert "traceback" not in classes

    def test_covers_all_cut_kinds(self, campaign):
        assert {o.kind for o in campaign.outcomes} == {"clean", "torn", "flip"}

    def test_summary_and_format(self, campaign):
        summary = campaign.summary()
        assert summary["ok"]
        assert summary["cuts"] == len(campaign.outcomes)
        assert "CERTIFIED" in campaign.format()

    def test_details_are_path_free(self, campaign):
        # outcome details feed a determinism diff across machines: no
        # temp directories may leak into them
        for outcome in campaign.outcomes:
            assert "/tmp" not in outcome.detail, outcome.to_dict()
            assert "crashfuzz0" not in outcome.detail, outcome.to_dict()


def test_no_torn_config_skips_torn_cuts(tmp_path):
    config = CrashFuzzConfig(
        shards=2, requests=4, distinct=2, bitflips=0,
        torn=False, routing=False,
    )
    result = run_crash_fuzz(config, tmp_path)
    assert {o.kind for o in result.outcomes} == {"clean"}
