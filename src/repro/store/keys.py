"""Content-addressed key derivation for store entries.

A trained-bundle key is the SHA-256 of a canonical JSON document
describing every input that determines the trained bundle bit-for-bit:

* the dataset: spec fields plus content digests of the train/val arrays
  per body location (the splits training actually consumes — two
  datasets built with different factory kwargs hash differently even
  when their specs agree),
* the training seed, :class:`~repro.sim.training.TrainingConfig` and
  :class:`~repro.nn.energy_model.EnergyCostModel`,
* the pruning budget,
* the per-location architecture hyperparameters (so editing
  ``repro.nn.architectures`` invalidates old entries), and
* :data:`STORE_SCHEMA_VERSION`, which is bumped whenever the on-disk
  layout or the serialization format changes.

Forming that key from the arrays means rendering both splits.  A
dataset that records its recipe therefore also has a *digests* key: the
SHA-256 over the recipe, a digest of the synthesis source
(:data:`SYNTHESIS_PACKAGES`), ``numpy.__version__`` and the schema
version.  Its store entry holds the split digests, so a warm build forms
the same bundle key without rendering a window.

Floats are embedded via ``float.hex()`` so the key is exact, not
subject to decimal formatting.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict
from typing import Any, Dict, Optional

import numpy as np

from repro.datasets.base import DatasetSpec, HARDataset
from repro.nn.architectures import har_architecture_for
from repro.nn.energy_model import EnergyCostModel
from repro.sim.training import TrainingConfig

#: Bump on any incompatible change to the key derivation, the manifest
#: layout or the checkpoint format.  Old entries simply stop matching
#: (and age out via ``gc``) — there is no in-place migration.
STORE_SCHEMA_VERSION = 1

#: Length of the hex digest used as the entry directory name.  128 bits
#: of SHA-256 — collision-free for any realistic store population while
#: keeping paths readable.
KEY_HEX_CHARS = 32

#: Subpackages of ``repro`` whose source determines a dataset's split
#: bytes: everything synthesis imports from ``repro`` except
#: ``repro.errors``, which only names exceptions.
SYNTHESIS_PACKAGES = ("datasets", "utils")


def _canonical(value: Any) -> Any:
    """Make ``value`` JSON-stable: floats to hex, tuples to lists."""
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _key(document: Dict[str, Any]) -> str:
    payload = json.dumps(_canonical(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_HEX_CHARS]


def digest_array(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and raw bytes."""
    hasher = hashlib.sha256()
    array = np.ascontiguousarray(array)
    hasher.update(str(array.dtype).encode("ascii"))
    hasher.update(str(array.shape).encode("ascii"))
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def split_digests(dataset: HARDataset) -> Dict[str, Any]:
    """Content digests of the train/val arrays per location.

    Reading the splits synthesizes them on a fresh dataset.
    """
    return {
        split_name: {
            location.value: {
                "X": digest_array(split[location].X),
                "y": digest_array(split[location].y),
            }
            for location in dataset.spec.locations
        }
        for split_name, split in (("train", dataset.train), ("val", dataset.val))
    }


def architecture_fingerprint(spec: DatasetSpec) -> Dict[str, Any]:
    """Per-location CNN hyperparameters, keyed by location value."""
    return {
        location.value: asdict(har_architecture_for(location))
        for location in spec.locations
    }


def bundle_key_from_digests(
    spec: DatasetSpec,
    splits: Dict[str, Any],
    budget_j: float,
    *,
    seed: int,
    config: TrainingConfig,
    cost_model: EnergyCostModel,
) -> str:
    """The store key for a bundle trained on splits with digests ``splits``."""
    return _key(
        {
            "kind": "trained-bundle",
            "schema_version": STORE_SCHEMA_VERSION,
            "dataset": {**spec.describe(), "splits": splits},
            "architectures": architecture_fingerprint(spec),
            "seed": int(seed),
            "budget_j": budget_j,
            "training": asdict(config),
            "cost_model": asdict(cost_model),
        }
    )


def trained_bundle_key(
    dataset: HARDataset,
    budget_j: float,
    *,
    seed: int,
    config: TrainingConfig,
    cost_model: EnergyCostModel,
) -> str:
    """The store key for one ``TrainedSensorBundle.train(...)`` call,
    digested from the dataset's arrays."""
    return bundle_key_from_digests(
        dataset.spec,
        split_digests(dataset),
        budget_j,
        seed=seed,
        config=config,
        cost_model=cost_model,
    )


@functools.lru_cache(maxsize=None)
def synthesis_source_digest() -> str:
    """SHA-256 over the source files of :data:`SYNTHESIS_PACKAGES`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hasher = hashlib.sha256()
    for package in SYNTHESIS_PACKAGES:
        directory = os.path.join(root, package)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), "rb") as handle:
                source = handle.read()
            hasher.update(f"{package}/{name}\0{len(source)}\0".encode("utf-8"))
            hasher.update(source)
    return hasher.hexdigest()


def dataset_digests_key(dataset: HARDataset) -> Optional[str]:
    """The key of ``dataset``'s digests entry; ``None`` without a recipe."""
    if dataset.recipe is None:
        return None
    return _key(
        {
            "kind": "dataset-digests",
            "schema_version": STORE_SCHEMA_VERSION,
            "recipe": dataset.recipe,
            "source": synthesis_source_digest(),
            "numpy": np.__version__,
        }
    )
