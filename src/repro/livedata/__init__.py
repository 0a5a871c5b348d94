"""Live-mutation robustness: epoch-versioned catalogs, reindexing,
stale-serve detection and the drift-chaos certifier.

Submodules are imported lazily (PEP 562): :mod:`repro.livedata.errors`
is imported by the serving engine and the journal, which this package's
heavier submodules import in turn — eager re-exports here would close
that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "LiveDataError": "repro.livedata.errors",
    "StaleCatalogError": "repro.livedata.errors",
    "CrossEpochReplayError": "repro.livedata.errors",
    "EpochRegistry": "repro.livedata.epoch",
    "MutationEvent": "repro.livedata.mutations",
    "MutationDriver": "repro.livedata.mutations",
    "MUTATION_KINDS": "repro.livedata.mutations",
    "ReindexCheckpoint": "repro.livedata.reindex",
    "ReindexWorker": "repro.livedata.reindex",
    "ReindexReport": "repro.livedata.reindex",
    "DoubleReindexError": "repro.livedata.reindex",
    "DriftFuzzConfig": "repro.livedata.driftfuzz",
    "DriftFuzzResult": "repro.livedata.driftfuzz",
    "run_drift_fuzz": "repro.livedata.driftfuzz",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
