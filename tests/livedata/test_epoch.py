"""EpochRegistry: monotone per-database schema epochs."""

from repro.livedata.epoch import EpochRegistry


class TestEpochRegistry:
    def test_unmutated_db_is_epoch_zero(self):
        assert EpochRegistry().epoch("hockey") == 0

    def test_bump_is_monotone_per_db(self):
        registry = EpochRegistry()
        assert registry.bump("hockey") == 1
        assert registry.bump("hockey") == 2
        assert registry.epoch("hockey") == 2
        assert registry.epoch("finance") == 0
