"""Per-seed run material and the one material cache.

Everything upstream of scheduling is fully determined by ``(dataset,
seed, subject, deployment config)``: the ground-truth activity timeline,
the per-slot style wobbles, every node's sensed-window stream — and
therefore every node's CNN output for every slot it could possibly
classify.  A policy sweep evaluates the whole RR/AAS/AASR/Origin ladder
on exactly those seeds, so this module materializes the shared part once
per seed (:func:`build_run_material`) and lets every policy run, both
fully-powered baselines and every fleet user on the same ``(timeline,
dwell)`` pair consume it (:class:`PredictionCache`), removing window
synthesis and DNN inference from the per-policy cost.

Determinism contract
--------------------
Windows are drawn for *all* slots up front from each node's labeled RNG
stream (exactly like the style stream always was), one
:meth:`~repro.datasets.synthesis.SignalSynthesizer.batch` per dwell run,
so the window a node senses at slot ``s`` does not depend on which
earlier slots the policy made it active in.  That is what makes the
material policy-independent.
Each node's logits come from one batched pass and are kept next to
their softmax; since runs and baselines consume the same arrays in every mode,
cached, uncached (per-run rebuilt) and parallel runs are byte-identical
— the test suite and the CI benchmark smoke both assert this.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.base import HARDataset
from repro.datasets.markov import MarkovActivityModel
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import StyleWobble
from repro.errors import ConfigurationError
from repro.nn.layers.activations import softmax
from repro.obs.observer import NULL_OBS, Observability
from repro.utils.rng import SeedSequenceFactory

#: Rows per ``predict_logits`` batch.  A row's logits depend on which
#: rows share its batch (one-row and 256-row batches differed on 300 of
#: 300 rows of each pruned model), so a material computes a whole seed
#: in batches of this size and no consumer ever predicts per slot.
PREDICT_BATCH = 256

#: Materials a :class:`PredictionCache` keeps alive (LRU eviction past
#: it); only continuous-dwell cohorts reach it.
MATERIAL_CACHE_CAP = 64


def default_subject(dataset: HARDataset) -> SubjectProfile:
    """The subject a run simulates when none is given.

    The first held-out evaluation subject, falling back to the canonical
    profile for datasets without an evaluation split.
    """
    if dataset.eval_subjects:
        return dataset.eval_subjects[0]
    return SubjectProfile.canonical()


@dataclass
class RunMaterial:
    """The policy-independent precompute of one ``(seed, subject)`` run.

    Attributes
    ----------
    seed / n_windows / dwell_scale / use_pruned_models / subject:
        The parameters the material was built for; a run validates its
        own against them before consuming (:meth:`check_compatible`).
    labels:
        Ground-truth activity per slot (the Markov timeline).
    windows:
        ``{node id: (n_windows, channels, window) float32}`` — every
        node's sensed window for every slot.
    logits / probabilities:
        ``{node id: (n_windows, n_classes) float64}`` outputs of the
        ``use_pruned_models`` variant on :attr:`windows`, and softmax.
    """

    seed: int
    n_windows: int
    dwell_scale: float
    use_pruned_models: bool
    subject: SubjectProfile
    labels: List[Activity]
    windows: Dict[int, np.ndarray]
    logits: Dict[int, np.ndarray]
    probabilities: Dict[int, np.ndarray]
    _class_predictions: Optional[Dict[int, tuple]] = dataclasses_field(
        default=None, repr=False, compare=False
    )

    def class_predictions(self) -> Dict[int, tuple]:
        """``{node id: (argmax labels, variance confidences)}`` (lazy).

        The scan-friendly face of :attr:`probabilities` for the slot
        kernel: per-slot predicted label and variance-of-softmax
        confidence, computed once with batched ``argmax``/``var`` calls
        that are byte-identical to per-row ``argmax()`` /
        ``confidence_from_softmax``.
        Memoized on the material, so one computation serves every
        policy of a sweep cell (and every batch of a seed).
        """
        if self._class_predictions is None:
            self._class_predictions = {
                node_id: (probs.argmax(axis=1), np.var(probs, axis=1))
                for node_id, probs in self.probabilities.items()
            }
        return self._class_predictions

    def check_compatible(
        self,
        *,
        seed: int,
        n_windows: int,
        dwell_scale: float,
        use_pruned_models: bool,
        subject: SubjectProfile,
    ) -> None:
        """Raise :class:`ConfigurationError` unless the material matches."""
        wanted = (seed, n_windows, dwell_scale, use_pruned_models, subject.subject_id)
        have = (
            self.seed,
            self.n_windows,
            self.dwell_scale,
            self.use_pruned_models,
            self.subject.subject_id,
        )
        if wanted != have:
            raise ConfigurationError(
                f"run material was built for (seed, n_windows, dwell_scale, "
                f"pruned, subject)={have}, but the run needs {wanted}"
            )


def build_run_material(
    dataset: HARDataset,
    bundle,
    seed: int,
    *,
    n_windows: int,
    dwell_scale: float,
    use_pruned_models: bool = True,
    subject: Optional[SubjectProfile] = None,
    obs: Optional[Observability] = None,
) -> RunMaterial:
    """Materialize one seed's timeline, windows, logits and softmax.

    ``bundle`` is a :class:`~repro.sim.training.TrainedSensorBundle`;
    only its node-id mapping and its ``use_pruned_models`` variant are
    consulted.  RNG streams use the same labels as the historical
    in-run draws (``timeline``, ``style``, ``windows/<location>``), so
    the material is a pure function of ``(dataset, bundle, seed,
    subject, n_windows, dwell_scale, use_pruned_models)``.  ``obs``
    records per-phase wall time (``predcache.windows``,
    ``predcache.predict``).
    """
    if n_windows < 1:
        raise ConfigurationError(f"n_windows must be >= 1, got {n_windows}")
    obs = obs if obs is not None else NULL_OBS
    factory = SeedSequenceFactory(int(seed))
    spec = dataset.spec
    subject = subject or default_subject(dataset)

    markov = MarkovActivityModel(
        list(spec.activities),
        window_duration_s=spec.window_duration_s,
        dwell_scale=dwell_scale,
    )
    labels = markov.sample_labels(n_windows, factory.generator("timeline"))

    # One execution-style wobble per slot, shared by every sensor on the
    # body (see StyleWobble) — drawn for all slots up front so the
    # stream is identical regardless of which nodes are active.
    style_rng = factory.generator("style")
    styles = [StyleWobble.sample(style_rng) for _ in range(n_windows)]

    windows: Dict[int, np.ndarray] = {}
    with obs.timed("predcache.windows"):
        for location in spec.locations:
            rng = factory.generator(f"windows/{location.value}")
            windows[bundle.node_id_of(location)] = dataset.synthesizer.stream(
                labels, location, subject, rng, styles=styles
            )

    with obs.timed("predcache.predict"):
        models = bundle.models(pruned=use_pruned_models)
        logits = {
            node_id: models[node_id].predict_logits(stream, PREDICT_BATCH)
            for node_id, stream in windows.items()
        }
        probabilities = {node_id: softmax(rows, axis=1) for node_id, rows in logits.items()}

    return RunMaterial(
        seed=int(seed),
        n_windows=int(n_windows),
        dwell_scale=float(dwell_scale),
        use_pruned_models=bool(use_pruned_models),
        subject=subject,
        labels=labels,
        windows=windows,
        logits=logits,
        probabilities=probabilities,
    )


class PredictionCache:
    """Memoized :class:`RunMaterial` per seed for one experiment.

    One cache serves every policy of a sweep: the first run of a seed
    pays the precompute, the other fifteen grid policies and both
    baselines reuse it (a fleet worker shares one across its users).
    The cache is keyed by everything the material depends on, so
    changing ``n_windows``, ``dwell_scale``, the model variant or the
    subject builds fresh material instead of serving a stale one.  At
    most :data:`MATERIAL_CACHE_CAP` materials stay alive.
    """

    def __init__(self, experiment) -> None:
        self.experiment = experiment
        self._materials: "OrderedDict[tuple, RunMaterial]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._materials)

    def material(
        self,
        seed: int,
        *,
        config=None,
        subject: Optional[SubjectProfile] = None,
        obs: Optional[Observability] = None,
    ) -> RunMaterial:
        """The (memoized) material for ``seed`` under ``config`` (default:
        the experiment's); ``obs`` records build timers and hit/miss gauges.
        """
        config = config if config is not None else self.experiment.config
        subject = subject or default_subject(self.experiment.dataset)
        obs = obs if obs is not None else NULL_OBS
        key = (
            int(seed),
            config.n_windows,
            config.dwell_scale,
            config.use_pruned_models,
            subject.subject_id,
        )
        material = self._materials.get(key)
        if material is not None:
            self._materials.move_to_end(key)
            self.hits += 1
            if obs.enabled:
                obs.metrics.set_gauge("predcache.hits", self.hits)
            return material
        self.misses += 1
        with obs.timed("predcache.build_material"):
            material = build_run_material(
                self.experiment.dataset,
                self.experiment.bundle,
                seed,
                n_windows=config.n_windows,
                dwell_scale=config.dwell_scale,
                use_pruned_models=config.use_pruned_models,
                subject=subject,
                obs=obs,
            )
        self._materials[key] = material
        while len(self._materials) > MATERIAL_CACHE_CAP:
            self._materials.popitem(last=False)
        if obs.enabled:
            obs.metrics.set_gauge("predcache.misses", self.misses)
            obs.metrics.set_gauge("predcache.materials", len(self._materials))
        return material
