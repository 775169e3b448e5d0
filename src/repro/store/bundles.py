"""Trained-bundle (de)hydration on top of :class:`~repro.store.ArtifactStore`.

One store entry holds everything needed to reconstruct a
:class:`~repro.sim.training.TrainedSensorBundle` without retraining:

* ``<location>.plain.npz`` / ``<location>.pruned.npz`` weight
  checkpoints per body location (via :mod:`repro.nn.serialization`),
* the manifest ``payload``: rank table, confidence-matrix seed weights,
  validation metrics, inference energies, pruning summary and the
  training recipe (seed + :class:`TrainingConfig`).

Rehydration rebuilds the unpruned CNN from the architecture registry and
the pruned CNN by sizing fresh layers from the checkpoint's weight
shapes (the same surgery helper the pruner itself uses), then loads the
exact float64 weights — so a store hit and a fresh training run produce
byte-identical downstream results.  The one field not reconstructed is
``TrainedLocationModel.pruning`` (the step-by-step pruning log): a
rehydrated bundle carries ``pruning=None`` plus the summary numbers in
the manifest.  Nothing in the simulation stack reads the step log.

:func:`load_or_train_bundle` is the single entry point the simulation
layer uses: store hit → rehydrate; miss (or corruption, which the store
evicts) → train, publish, return.  It also keeps the second entry kind,
``dataset-digests``: a manifest-only entry holding a dataset recipe's
split digests, from which a warm build forms the bundle key without
synthesizing the splits.  All hit/miss/rebuild/build-time accounting
flows through the caller's :class:`~repro.obs.Observability`.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.scheduling.rank_table import RankTable
from repro.datasets.base import HARDataset
from repro.datasets.body import BodyLocation
from repro.datasets.profiles import N_CHANNELS
from repro.errors import StoreError
from repro.nn.architectures import build_har_cnn, har_architecture_for
from repro.nn.energy_model import EnergyCostModel
from repro.nn.model import Sequential
from repro.nn.pruning import fresh_layer_from_weights
from repro.nn.serialization import load_model_weights, save_model_weights
from repro.obs.observer import NULL_OBS, Observability
from repro.sim.training import (
    TrainedLocationModel,
    TrainedSensorBundle,
    TrainingConfig,
)
from repro.store.core import ArtifactStore, StoreEntry, default_store
from repro.store.keys import (
    bundle_key_from_digests,
    dataset_digests_key,
    split_digests,
)

logger = logging.getLogger(__name__)


def _plain_file(location: BodyLocation) -> str:
    return f"{location.value}.plain.npz"


def _pruned_file(location: BodyLocation) -> str:
    return f"{location.value}.pruned.npz"


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def save_trained_bundle(
    store: ArtifactStore,
    key: str,
    bundle: TrainedSensorBundle,
    *,
    build_time_s: Optional[float] = None,
) -> Optional[StoreEntry]:
    """Publish ``bundle`` under ``key``; returns the store entry.

    Safe against concurrent writers of the same key (the store keeps
    whichever finished first — both are bit-identical by construction).
    A disabled store returns ``None`` without touching disk.
    """

    def stage(tmpdir: str) -> Dict[str, Any]:
        locations = []
        for location in bundle.locations:
            entry = bundle.by_location[location]
            save_model_weights(entry.model, os.path.join(tmpdir, _plain_file(location)))
            save_model_weights(
                entry.pruned_model, os.path.join(tmpdir, _pruned_file(location))
            )
            pruning = entry.pruning
            locations.append(
                {
                    "location": location.value,
                    "node_id": entry.node_id,
                    "model_name": entry.model.name,
                    "input_shape": list(entry.model.input_shape),
                    "inference_energy_j": entry.inference_energy_j,
                    "pruned_inference_energy_j": entry.pruned_inference_energy_j,
                    "val_accuracy": entry.val_accuracy,
                    "pruned_val_accuracy": entry.pruned_val_accuracy,
                    "val_per_class": [float(v) for v in entry.val_per_class],
                    "pruned_val_per_class": [
                        float(v) for v in entry.pruned_val_per_class
                    ],
                    "pruning": (
                        {
                            "energy_before_j": pruning.energy_before_j,
                            "energy_after_j": pruning.energy_after_j,
                            "budget_j": pruning.budget_j,
                            "n_removed": pruning.n_removed,
                        }
                        if pruning is not None
                        else None
                    ),
                    "files": {
                        "plain": _plain_file(location),
                        "pruned": _pruned_file(location),
                    },
                }
            )
        rank_table = {
            str(label): [int(n) for n in bundle.rank_table.ranked_nodes(label)]
            for label in bundle.rank_table.labels
        }
        confidence = bundle.confidence_matrix
        payload: Dict[str, Any] = {
            "dataset": bundle.dataset.spec.name,
            "seed": bundle.train_seed,
            "training": (
                asdict(bundle.train_config) if bundle.train_config is not None else None
            ),
            "budget_j": bundle.budget_j,
            "cost_model": asdict(bundle.cost_model),
            "build_time_s": build_time_s,
            "locations": locations,
            "rank_table": rank_table,
            "confidence": {
                "weights": {
                    str(node_id): [float(v) for v in confidence.row(node_id)]
                    for node_id in confidence.node_ids
                },
                "adaptation_alpha": confidence.adaptation_alpha,
                "normalize": confidence.normalize,
            },
        }
        return payload

    return store.put(key, stage, kind="trained-bundle")


# ---------------------------------------------------------------------------
# unpacking
# ---------------------------------------------------------------------------


def _model_from_checkpoint(template: Sequential, path: str, name: str) -> Sequential:
    """Rebuild a (possibly pruned) model from a flat ``.npz`` state.

    ``template`` supplies layer types/names/kernel sizes in order; each
    fresh layer's width comes from the checkpoint's weight shapes, so
    the same routine handles the unpruned model and any pruned variant.
    """
    with np.load(path) as archive:
        state: Dict[str, np.ndarray] = {key: archive[key] for key in archive.files}
    per_layer: Dict[int, Dict[str, np.ndarray]] = {}
    for flat_key, array in state.items():
        index_text, rest = flat_key.split(".", 1)
        per_layer.setdefault(int(index_text), {})[rest.rsplit(".", 1)[1]] = array
    layers = [
        fresh_layer_from_weights(layer, per_layer.get(index, {}))
        for index, layer in enumerate(template.layers)
    ]
    model = Sequential(layers, name=name).build(tuple(template.input_shape))
    model.load_state_dict(state)
    return model


def _unpack(entry: StoreEntry, dataset: HARDataset) -> TrainedSensorBundle:
    payload = entry.payload
    spec = dataset.spec
    if payload.get("dataset") != spec.name:
        raise StoreError(
            f"entry {entry.key} holds a {payload.get('dataset')!r} bundle, "
            f"not {spec.name!r}"
        )
    expected_shape = (N_CHANNELS, spec.window_size)
    by_location: Dict[BodyLocation, TrainedLocationModel] = {}
    for loc_spec in payload["locations"]:
        location = BodyLocation(loc_spec["location"])
        # The unpruned model is architecture-registry code; the stored
        # input shape is cross-checked against the dataset we were
        # handed so a wrong dataset fails loudly, not numerically.
        if tuple(loc_spec["input_shape"]) != expected_shape:
            raise StoreError(
                f"entry {entry.key}: stored input shape "
                f"{tuple(loc_spec['input_shape'])} != dataset {expected_shape}"
            )
        model = build_har_cnn(
            n_channels=N_CHANNELS,
            window=spec.window_size,
            n_classes=spec.n_classes,
            architecture=har_architecture_for(location),
            seed=loc_spec["node_id"],
            name=loc_spec["model_name"],
        )
        load_model_weights(model, entry.file_path(loc_spec["files"]["plain"]))
        pruned = _model_from_checkpoint(
            model, entry.file_path(loc_spec["files"]["pruned"]), loc_spec["model_name"]
        )
        by_location[location] = TrainedLocationModel(
            location=location,
            node_id=int(loc_spec["node_id"]),
            model=model,
            pruned_model=pruned,
            inference_energy_j=float(loc_spec["inference_energy_j"]),
            pruned_inference_energy_j=float(loc_spec["pruned_inference_energy_j"]),
            val_accuracy=float(loc_spec["val_accuracy"]),
            pruned_val_accuracy=float(loc_spec["pruned_val_accuracy"]),
            val_per_class=np.asarray(loc_spec["val_per_class"], dtype=np.float64),
            pruned_val_per_class=np.asarray(
                loc_spec["pruned_val_per_class"], dtype=np.float64
            ),
            pruning=None,
        )
    rank_table = RankTable(
        {
            int(label): [int(node) for node in nodes]
            for label, nodes in payload["rank_table"].items()
        }
    )
    confidence_spec = payload["confidence"]
    confidence = ConfidenceMatrix(
        {
            int(node_id): np.asarray(row, dtype=np.float64)
            for node_id, row in confidence_spec["weights"].items()
        },
        adaptation_alpha=float(confidence_spec["adaptation_alpha"]),
        normalize=bool(confidence_spec["normalize"]),
    )
    bundle = TrainedSensorBundle(
        dataset,
        by_location,
        rank_table,
        confidence,
        EnergyCostModel(**payload["cost_model"]),
        float(payload["budget_j"]),
    )
    bundle.store_key = entry.key
    bundle.train_seed = payload.get("seed")
    training = payload.get("training")
    bundle.train_config = TrainingConfig(**training) if training else None
    return bundle


def load_trained_bundle(
    store: ArtifactStore,
    key: str,
    dataset: HARDataset,
    *,
    obs: Optional[Observability] = None,
) -> Optional[TrainedSensorBundle]:
    """Rehydrate the bundle stored under ``key``, or ``None`` on miss.

    Checksums are verified by the store; any *semantic* unpack failure
    (truncated archive, key/schema drift the checksums cannot see)
    additionally evicts the entry and reports a miss so the caller
    rebuilds.
    """
    obs = obs if obs is not None else NULL_OBS
    entry = store.get(key)
    if entry is None:
        return None
    try:
        return _unpack(entry, dataset)
    except Exception as error:  # noqa: BLE001 - any unpack failure = miss
        logger.warning("evicting unreadable bundle %s: %s", key, error)
        if obs.enabled:
            obs.metrics.inc("store.corrupt")
        store.invalidate(key)
        return None


# ---------------------------------------------------------------------------
# the simulation-layer entry point
# ---------------------------------------------------------------------------

StoreArg = Union[ArtifactStore, None, bool]


def resolve_store(store: StoreArg, obs: Optional[Observability] = None) -> Optional[ArtifactStore]:
    """Normalize the ``store=`` argument convention.

    ``None`` → the environment-configured default store; ``False`` → no
    store at all (bypass, regardless of environment); an
    :class:`ArtifactStore` → itself.  Returns ``None`` for a bypassed or
    env-disabled store.
    """
    if store is False:
        return None
    if store is None or store is True:
        store = default_store(obs=obs)
    return store if store.enabled else None


def _stored_split_digests(
    store: ArtifactStore, digests_key: Optional[str]
) -> Optional[Dict[str, Any]]:
    """The split digests a dataset's digests entry holds, or ``None``."""
    entry = store.get(digests_key) if digests_key is not None else None
    splits = entry.payload.get("splits") if entry is not None else None
    return splits if isinstance(splits, dict) else None


def _publish_split_digests(
    store: ArtifactStore, digests_key: str, dataset: HARDataset, splits: Dict[str, Any]
) -> None:
    """Write (or replace) ``dataset``'s digests entry.

    The entry only saves later builds a synthesis, so a store root that
    refuses the write is logged and the build goes on.
    """
    try:
        store.invalidate(digests_key)
        store.put(
            digests_key,
            lambda tmpdir: {"dataset": dataset.spec.name, "splits": splits},
            kind="dataset-digests",
        )
    except OSError as error:
        logger.warning("could not write split digests %s: %s", digests_key, error)


def load_or_train_bundle(
    dataset: HARDataset,
    budget_j: float,
    *,
    seed: int = 0,
    config: TrainingConfig = TrainingConfig(),
    cost_model: EnergyCostModel = EnergyCostModel(),
    store: StoreArg = None,
    obs: Optional[Observability] = None,
) -> TrainedSensorBundle:
    """``TrainedSensorBundle.train`` with the store consulted first.

    A dataset with a recipe first looks up its digests entry
    (:func:`~repro.store.keys.dataset_digests_key`) and forms the bundle
    key from the stored split digests.  When that bundle is there, the
    build renders no window (``store.digests.hit``).  Otherwise
    (``store.digests.miss``, or a dataset without a recipe) the key comes
    from the synthesized arrays, the digests entry is written or
    corrected, and the bundle is looked up under that content key, so a
    bundle is only ever published under its content key.

    Hit → rehydrate (counted as ``store.hit``; ``store.load`` times the
    whole lookup); miss → train (timed as ``store.build``), publish,
    return.  A miss caused by an evicted corrupt entry is additionally
    counted as ``store.rebuild``.  With the store disabled
    (``store=False`` or ``REPRO_STORE=off``) this is exactly
    ``TrainedSensorBundle.train``.
    """
    obs = obs if obs is not None else NULL_OBS
    resolved = resolve_store(store, obs=obs)
    if resolved is None:
        return TrainedSensorBundle.train(
            dataset, budget_j, seed=seed, config=config, cost_model=cost_model
        )
    start = time.perf_counter()

    def lookup(splits: Dict[str, Any]) -> Tuple[str, bool, Optional[TrainedSensorBundle]]:
        key = bundle_key_from_digests(
            dataset.spec, splits, budget_j, seed=seed, config=config, cost_model=cost_model
        )
        had_entry = resolved.contains(key)
        return key, had_entry, load_trained_bundle(resolved, key, dataset, obs=obs)

    digests_key = dataset_digests_key(dataset)
    stored = _stored_split_digests(resolved, digests_key)
    bundle = None
    if stored is not None:
        key, had_entry, bundle = lookup(stored)
    if digests_key is not None and obs.enabled:
        obs.metrics.inc("store.digests.hit" if bundle is not None else "store.digests.miss")
    if bundle is None:
        splits = split_digests(dataset)
        if splits != stored:
            if digests_key is not None:
                _publish_split_digests(resolved, digests_key, dataset, splits)
            key, had_entry, bundle = lookup(splits)
    if bundle is not None:
        if obs.enabled:
            obs.metrics.inc("store.hit")
            obs.metrics.timer("store.load").record(time.perf_counter() - start)
        logger.debug("store hit for %s/%s (key %s)", dataset.spec.name, seed, key)
        return bundle
    if obs.enabled:
        obs.metrics.inc("store.miss")
        if had_entry:
            obs.metrics.inc("store.rebuild")
    start = time.perf_counter()
    bundle = TrainedSensorBundle.train(
        dataset, budget_j, seed=seed, config=config, cost_model=cost_model
    )
    build_time_s = time.perf_counter() - start
    if obs.enabled:
        obs.metrics.timer("store.build").record(build_time_s)
    save_trained_bundle(resolved, key, bundle, build_time_s=build_time_s)
    bundle.store_key = key
    logger.debug(
        "store miss for %s/%s: trained in %.2fs, published as %s",
        dataset.spec.name, seed, build_time_s, key,
    )
    return bundle
