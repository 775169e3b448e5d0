"""The Fig. 6 adaptation study.

The paper tests the adaptive ensemble on "3 different previously unseen
users over 1000 iterations (10000 successful classifications; each
iteration has 10 classifications)", with Gaussian noise (maximum SNR of
20 dB) added to the unseen test data.  Only the confidence matrix
adapts — the DNNs are frozen.  The expected shape: accuracy starts
*below* the base model's (the noise and the unseen gait hurt), then
recovers to base level within ~100 iterations as the matrix
personalizes.

Because the study counts *successful* classifications, it is run at the
ensemble layer (every sensor's result arrives, as on a well-charged
deployment): each iteration draws a short temporally-continuous activity
segment, all three sensors classify each window, Origin's
confidence-weighted vote produces the output, and each sensor's
transmitted confidence updates the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.datasets.markov import MarkovActivityModel
from repro.datasets.noise import add_gaussian_noise_snr
from repro.datasets.synthesis import StyleWobble
from repro.datasets.subjects import SubjectProfile, sample_subjects
from repro.errors import ConfigurationError
from repro.sim.experiment import HARExperiment
from repro.sim.predcache import default_subject
from repro.utils.rng import SeedSequenceFactory
from repro.utils.stats import confidence_from_softmax


@dataclass
class PersonalizationResult:
    """Per-user accuracy trajectory over adaptation iterations."""

    checkpoints: List[int]
    per_user_accuracy: Dict[int, List[float]]
    base_accuracy: float

    def user_final_accuracy(self, user_id: int) -> float:
        """Accuracy at the last checkpoint for one user."""
        return self.per_user_accuracy[user_id][-1]

    def user_initial_accuracy(self, user_id: int) -> float:
        """Accuracy at the first checkpoint (before adaptation bites)."""
        return self.per_user_accuracy[user_id][0]

    def summary(self) -> str:
        """Fig. 6-style table of accuracy over iterations."""
        header = "iteration   " + "".join(
            f"{f'user {uid}':>10}" for uid in self.per_user_accuracy
        )
        lines = [header]
        for row, checkpoint in enumerate(self.checkpoints):
            cells = "".join(
                f"{self.per_user_accuracy[uid][row] * 100:9.2f}%"
                for uid in self.per_user_accuracy
            )
            lines.append(f"{checkpoint:<12}{cells}")
        lines.append(f"base model accuracy: {self.base_accuracy * 100:.2f}%")
        return "\n".join(lines)


class PersonalizationExperiment:
    """Adapts one confidence matrix per unseen user and tracks accuracy.

    Parameters
    ----------
    experiment:
        Supplies the dataset, trained (pruned) models and seed matrix.
    snr_db:
        Maximum SNR of the injected Gaussian noise (paper: 20 dB); each
        window draws an SNR at or below this ceiling.
    windows_per_iteration:
        Classifications per iteration (paper: 10).
    checkpoints:
        Iteration indices to report (paper: 1, 10, 100, 1000).
    measure_window_iters:
        Checkpoint accuracy is averaged over this many trailing
        iterations to de-noise the estimate.
    """

    def __init__(
        self,
        experiment: HARExperiment,
        *,
        snr_db: float = 20.0,
        windows_per_iteration: int = 10,
        checkpoints: Sequence[int] = (1, 10, 100, 1000),
        measure_window_iters: int = 10,
    ) -> None:
        if windows_per_iteration < 1:
            raise ConfigurationError("windows_per_iteration must be >= 1")
        if not checkpoints or sorted(checkpoints) != list(checkpoints):
            raise ConfigurationError("checkpoints must be non-empty and ascending")
        self.experiment = experiment
        self.snr_db = float(snr_db)
        self.windows_per_iteration = int(windows_per_iteration)
        self.checkpoints = list(checkpoints)
        self.measure_window_iters = max(int(measure_window_iters), 1)

    # ------------------------------------------------------------------

    def run(
        self,
        *,
        n_users: int = 3,
        seed: int = 0,
        user_variability: float = 2.0,
        adaptive: bool = True,
    ) -> PersonalizationResult:
        """Run the study for ``n_users`` unseen users.

        ``adaptive=False`` freezes the matrix — the ablation showing the
        recovery really comes from adaptation.
        """
        factory = SeedSequenceFactory(seed)
        users = sample_subjects(
            n_users,
            factory.generator("unseen-users"),
            variability=user_variability,
            first_id=1000,
        )
        base_accuracy = self._base_accuracy(factory)
        per_user = {
            user.subject_id: self._run_user(user, factory, adaptive) for user in users
        }
        return PersonalizationResult(
            checkpoints=list(self.checkpoints),
            per_user_accuracy=per_user,
            base_accuracy=base_accuracy,
        )

    # ------------------------------------------------------------------

    def _base_accuracy(self, factory: SeedSequenceFactory, n_windows: int = 400) -> float:
        """The models' claimed accuracy: clean data, known subject.

        This is the reference line of Fig. 6 — the ensemble's accuracy
        before unseen-user variation and sensor noise are introduced.
        """
        bundle = self.experiment.bundle
        dataset = self.experiment.dataset
        spec = dataset.spec
        models = bundle.models(pruned=True)
        matrix = bundle.confidence_matrix.copy(adaptation_alpha=0.0)
        markov = MarkovActivityModel(
            list(spec.activities), window_duration_s=spec.window_duration_s
        )
        rng = factory.generator("base-accuracy")
        subject = default_subject(dataset)
        labels = markov.sample_labels(n_windows, rng)
        true = np.array([spec.label_of(activity) for activity in labels])
        styles = [StyleWobble.sample(rng) for _ in range(n_windows)]
        votes = {}
        for node_id in sorted(models):
            location = bundle.location_of(node_id)
            batch = dataset.synthesizer.stream(labels, location, subject, rng, styles=styles)
            votes[node_id] = models[node_id].predict_proba(batch)
        correct = 0
        for index in range(n_windows):
            scores = np.zeros(spec.n_classes)
            for node_id in votes:
                probs = votes[node_id][index]
                vote = int(probs.argmax())
                weight = 0.5 * confidence_from_softmax(probs) + 0.5 * matrix.weight(
                    node_id, vote
                )
                scores[vote] += weight
            if int(scores.argmax()) == true[index]:
                correct += 1
        return correct / n_windows

    def _run_user(
        self,
        user: SubjectProfile,
        factory: SeedSequenceFactory,
        adaptive: bool,
    ) -> List[float]:
        bundle = self.experiment.bundle
        dataset = self.experiment.dataset
        spec = dataset.spec
        synthesizer = dataset.synthesizer
        models = bundle.models(pruned=True)
        node_ids = sorted(models)
        locations = {node_id: bundle.location_of(node_id) for node_id in node_ids}

        matrix: ConfidenceMatrix = bundle.confidence_matrix.copy(
            adaptation_alpha=bundle.confidence_matrix.adaptation_alpha if adaptive else 0.0
        )
        markov = MarkovActivityModel(
            list(spec.activities), window_duration_s=spec.window_duration_s
        )
        rng = factory.generator(f"user/{user.subject_id}")

        iteration_accuracy: List[float] = []
        checkpoint_values: List[float] = []
        total_iterations = self.checkpoints[-1]

        for iteration in range(1, total_iterations + 1):
            labels = markov.sample_labels(self.windows_per_iteration, rng)
            true = np.array([spec.label_of(activity) for activity in labels])

            # Shared execution style per window, then per-node batches.
            styles = [
                StyleWobble.sample(rng) for _ in range(self.windows_per_iteration)
            ]
            probabilities = {}
            for node_id in node_ids:
                batch = synthesizer.stream(labels, locations[node_id], user, rng, styles=styles)
                snr = self.snr_db - float(rng.uniform(0.0, 6.0))
                batch = add_gaussian_noise_snr(batch, snr, rng)
                probabilities[node_id] = models[node_id].predict_proba(batch)

            correct = 0
            for index in range(self.windows_per_iteration):
                scores = np.zeros(spec.n_classes)
                for node_id in node_ids:
                    probs = probabilities[node_id][index]
                    vote = int(probs.argmax())
                    transmitted = confidence_from_softmax(probs)
                    # Same blended weight Origin's host vote uses.
                    scores[vote] += 0.5 * transmitted + 0.5 * matrix.weight(
                        node_id, vote
                    )
                    matrix.update(node_id, vote, transmitted)
                if int(scores.argmax()) == true[index]:
                    correct += 1
            iteration_accuracy.append(correct / self.windows_per_iteration)

            if iteration in self.checkpoints:
                window = iteration_accuracy[-self.measure_window_iters :]
                checkpoint_values.append(float(np.mean(window)))
        return checkpoint_values
