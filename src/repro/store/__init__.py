"""Content-addressed artifact store for trained bundles.

``HARExperiment.standard_mhealth/standard_pamap2`` retrain six
per-location CNNs (~10 s) on every process start, and parallel sweeps
used to pickle the whole experiment into each worker.  This package
makes trained bundles cheap to reuse instead:

``repro.store.keys``
    Content-addressed key derivation: SHA-256 over dataset content
    digests, seed, :class:`~repro.sim.training.TrainingConfig`,
    pruning budget, cost model, per-location architecture
    hyperparameters and the store schema version; and the key of a
    dataset recipe's stored split digests, which lets a warm build form
    that key without synthesizing the splits.
``repro.store.core``
    :class:`ArtifactStore` — atomic temp-dir-and-rename writes,
    per-entry cross-process locks, per-file SHA-256 integrity checks
    (corruption is evicted and treated as a miss), size/age garbage
    collection, ``REPRO_STORE_DIR`` root override and the
    ``REPRO_STORE=off`` kill switch.
``repro.store.bundles``
    Pack/unpack of :class:`~repro.sim.training.TrainedSensorBundle`
    (weight checkpoints via :mod:`repro.nn.serialization` + a JSON
    manifest) and :func:`load_or_train_bundle`, the hit-or-train entry
    point used by ``standard_*``.
``python -m repro.store``
    ``ls`` / ``info`` / ``verify`` / ``gc`` management CLI.

Quickstart::

    from repro.sim import HARExperiment

    exp = HARExperiment.standard_mhealth(seed=7)   # first call trains + publishes
    exp = HARExperiment.standard_mhealth(seed=7)   # later processes rehydrate (~10x faster)
"""

from repro.store.core import (
    ENV_STORE_DIR,
    ENV_STORE_SWITCH,
    ArtifactStore,
    EntryStatus,
    StoreEntry,
    default_store,
    default_store_root,
    store_enabled_by_env,
)
from repro.store.bundles import (
    load_or_train_bundle,
    load_trained_bundle,
    resolve_store,
    save_trained_bundle,
)
from repro.store.keys import (
    KEY_HEX_CHARS,
    STORE_SCHEMA_VERSION,
    trained_bundle_key,
)
from repro.store.locks import FileLock

__all__ = [
    "ENV_STORE_DIR",
    "ENV_STORE_SWITCH",
    "ArtifactStore",
    "EntryStatus",
    "FileLock",
    "KEY_HEX_CHARS",
    "STORE_SCHEMA_VERSION",
    "StoreEntry",
    "default_store",
    "default_store_root",
    "load_or_train_bundle",
    "load_trained_bundle",
    "resolve_store",
    "save_trained_bundle",
    "store_enabled_by_env",
    "trained_bundle_key",
]
