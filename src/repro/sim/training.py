"""Model training + table seeding for one dataset.

Produces everything the scheduling/ensemble layers consume:

* one trained CNN per body location (Baseline-1),
* its energy-aware pruned counterpart fine-tuned to the harvested-power
  budget (Baseline-2, which Origin also deploys),
* the per-activity :class:`~repro.core.scheduling.rank_table.RankTable`
  (from the *pruned* models' validation accuracy — those are the models
  that actually run on the nodes), and
* the seeded :class:`~repro.core.ensemble.confidence.ConfidenceMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.scheduling.rank_table import RankTable
from repro.datasets.base import HARDataset
from repro.datasets.body import BodyLocation
from repro.errors import ConfigurationError
from repro.nn.architectures import build_har_cnn, har_architecture_for
from repro.nn.energy_model import EnergyCostModel, estimate_inference_energy
from repro.nn.metrics import accuracy, per_class_accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.pruning import EnergyAwarePruner, PruningResult
from repro.nn.training import Trainer
from repro.utils.rng import SeedSequenceFactory


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for per-location training and pruning."""

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1.2e-3
    early_stopping_patience: int = 12
    finetune_epochs: int = 4
    final_finetune_epochs: int = 6
    finetune_every: int = 4
    finetune_lr: float = 5e-4
    adaptation_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.finetune_lr <= 0:
            raise ConfigurationError("learning rates must be positive")


@dataclass
class TrainedLocationModel:
    """Everything trained for one body location."""

    location: BodyLocation
    node_id: int
    model: Sequential  # unpruned (Baseline-1)
    pruned_model: Sequential  # energy-aware pruned (Baseline-2 / Origin)
    inference_energy_j: float
    pruned_inference_energy_j: float
    val_accuracy: float
    pruned_val_accuracy: float
    val_per_class: np.ndarray
    pruned_val_per_class: np.ndarray
    pruning: Optional[PruningResult] = None


class TrainedSensorBundle:
    """All per-location models and seeded tables for one dataset.

    Build with :meth:`train`; node ids follow the dataset's location
    order (chest=0, right wrist=1, left ankle=2 by default).
    """

    def __init__(
        self,
        dataset: HARDataset,
        by_location: Dict[BodyLocation, TrainedLocationModel],
        rank_table: RankTable,
        confidence_matrix: ConfidenceMatrix,
        cost_model: EnergyCostModel,
        budget_j: float,
    ) -> None:
        self.dataset = dataset
        self.by_location = by_location
        self.rank_table = rank_table
        self.confidence_matrix = confidence_matrix
        self.cost_model = cost_model
        self.budget_j = budget_j
        #: Artifact-store provenance: the content-addressed key this
        #: bundle was loaded from / published under (``None`` when the
        #: store never saw it), and the training recipe, from which
        #: :func:`~repro.resilience.sweep_fingerprint` derives the
        #: same key for a bundle the store never saw.  See
        #: :mod:`repro.store.bundles`.
        self.store_key: Optional[str] = None
        self.train_seed: Optional[int] = None
        self.train_config: Optional[TrainingConfig] = None

    # ------------------------------------------------------------------

    @classmethod
    def train(
        cls,
        dataset: HARDataset,
        budget_j: float,
        *,
        seed: int = 0,
        config: TrainingConfig = TrainingConfig(),
        cost_model: EnergyCostModel = EnergyCostModel(),
    ) -> "TrainedSensorBundle":
        """Train, prune and seed everything for ``dataset``.

        ``budget_j`` is the per-inference energy budget for Baseline-2
        pruning (average harvested power x window duration).
        """
        if budget_j <= 0:
            raise ConfigurationError(f"budget_j must be positive, got {budget_j}")
        factory = SeedSequenceFactory(seed)
        spec = dataset.spec
        by_location: Dict[BodyLocation, TrainedLocationModel] = {}

        for node_id, location in enumerate(spec.locations):
            train = dataset.train[location]
            val = dataset.val[location]
            model = build_har_cnn(
                n_channels=train.X.shape[1],
                window=train.X.shape[2],
                n_classes=spec.n_classes,
                architecture=har_architecture_for(location),
                seed=factory.generator(f"init/{location.value}"),
                name=f"{spec.name.lower()}-{location.value}",
            )
            trainer = Trainer(model, optimizer=Adam(config.learning_rate))
            trainer.fit(
                train.X,
                train.y,
                epochs=config.epochs,
                batch_size=config.batch_size,
                seed=factory.generator(f"fit/{location.value}"),
                validation=(val.X, val.y),
                early_stopping_patience=config.early_stopping_patience,
            )

            pruner = EnergyAwarePruner(
                cost_model,
                finetune_epochs=config.finetune_epochs,
                final_finetune_epochs=config.final_finetune_epochs,
                finetune_every=config.finetune_every,
                finetune_lr=config.finetune_lr,
            )
            pruning = pruner.prune_to_budget(
                model,
                budget_j,
                finetune_data=(train.X, train.y),
                seed=factory.generator(f"finetune/{location.value}"),
            )

            val_pred = model.predict(val.X)
            pruned_pred = pruning.model.predict(val.X)
            by_location[location] = TrainedLocationModel(
                location=location,
                node_id=node_id,
                model=model,
                pruned_model=pruning.model,
                inference_energy_j=estimate_inference_energy(model, cost_model),
                pruned_inference_energy_j=pruning.energy_after_j,
                val_accuracy=accuracy(val.y, val_pred),
                pruned_val_accuracy=accuracy(val.y, pruned_pred),
                val_per_class=per_class_accuracy(val.y, val_pred, spec.n_classes),
                pruned_val_per_class=per_class_accuracy(
                    val.y, pruned_pred, spec.n_classes
                ),
                pruning=pruning,
            )

        rank_table = cls._build_rank_table(by_location, spec.n_classes)
        confidence = ConfidenceMatrix.seed_from_validation(
            models={entry.node_id: entry.pruned_model for entry in by_location.values()},
            validation={
                entry.node_id: (dataset.val[location].X, dataset.val[location].y)
                for location, entry in by_location.items()
            },
            adaptation_alpha=config.adaptation_alpha,
        )
        bundle = cls(dataset, by_location, rank_table, confidence, cost_model, budget_j)
        bundle.train_seed = int(seed)
        bundle.train_config = config
        return bundle

    @classmethod
    def train_or_load(
        cls,
        dataset: HARDataset,
        budget_j: float,
        *,
        seed: int = 0,
        config: TrainingConfig = TrainingConfig(),
        cost_model: EnergyCostModel = EnergyCostModel(),
        store=None,
        obs=None,
    ) -> "TrainedSensorBundle":
        """:meth:`train`, consulting the artifact store first.

        ``store`` follows the :func:`repro.store.resolve_store`
        convention: ``None`` uses the environment-configured default
        store (``REPRO_STORE_DIR`` root, ``REPRO_STORE=off`` kill
        switch), ``False`` bypasses the store entirely, and an explicit
        :class:`~repro.store.ArtifactStore` is used as given.  A store
        hit rehydrates the exact trained bundle from disk
        (byte-identical downstream results); a miss trains and
        publishes.  ``obs`` accumulates ``store.hit``/``store.miss``/
        ``store.rebuild`` counters plus ``store.load``/``store.build``
        timers.
        """
        from repro.store.bundles import load_or_train_bundle

        return load_or_train_bundle(
            dataset,
            budget_j,
            seed=seed,
            config=config,
            cost_model=cost_model,
            store=store,
            obs=obs,
        )

    @staticmethod
    def _build_rank_table(
        by_location: Dict[BodyLocation, TrainedLocationModel], n_classes: int
    ) -> RankTable:
        per_class: Dict[int, Dict[int, float]] = {
            label: {} for label in range(n_classes)
        }
        for entry in by_location.values():
            for label in range(n_classes):
                per_class[label][entry.node_id] = float(
                    entry.pruned_val_per_class[label]
                )
        return RankTable.from_accuracy(per_class)

    # ------------------------------------------------------------------

    @property
    def locations(self) -> List[BodyLocation]:
        """Locations in node-id order."""
        return sorted(self.by_location, key=lambda loc: self.by_location[loc].node_id)

    def entry(self, location: BodyLocation) -> TrainedLocationModel:
        """The trained bundle entry for one location."""
        try:
            return self.by_location[location]
        except KeyError as error:
            raise ConfigurationError(f"no trained model for {location}") from error

    def node_id_of(self, location: BodyLocation) -> int:
        """Node id assigned to ``location``."""
        return self.entry(location).node_id

    def location_of(self, node_id: int) -> BodyLocation:
        """Inverse of :meth:`node_id_of`."""
        for location, entry in self.by_location.items():
            if entry.node_id == node_id:
                return location
        raise ConfigurationError(f"unknown node id {node_id}")

    def models(self, *, pruned: bool) -> Dict[int, Sequential]:
        """``node id -> model`` for the requested variant."""
        return {
            entry.node_id: (entry.pruned_model if pruned else entry.model)
            for entry in self.by_location.values()
        }

    def inference_energies(self, *, pruned: bool) -> Dict[int, float]:
        """``node id -> joules per inference`` for the variant."""
        return {
            entry.node_id: (
                entry.pruned_inference_energy_j if pruned else entry.inference_energy_j
            )
            for entry in self.by_location.values()
        }
