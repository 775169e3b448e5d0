"""Per-seed run material and the one material cache.

Everything upstream of scheduling is fully determined by ``(dataset,
seed, subject, deployment config)``: the ground-truth activity timeline,
the per-slot style wobbles, every node's sensed-window stream — and
therefore every node's CNN output for every slot it could possibly
classify.  :func:`build_run_material` fixes that part of a seed once
(:class:`RunMaterial`), and :class:`PredictionCache` lets every policy
run, both fully-powered baselines and every fleet user on the same
``(timeline, dwell)`` pair share it.

Rows on demand
--------------
A run classifies a window only in the slots its scheduler makes the
node active, so a material computes a row — one node's window, logits,
softmax, label and confidence for one slot — only when something first
needs it:

* building draws the timeline and the styles, nothing else;
* the first fill of a node runs a draw pass over its
  ``windows/<location>`` stream, which makes every window's draws in
  slot order, evaluating only what decides their count, and keeps the
  generator state before each window
  (:meth:`~repro.datasets.synthesis.SignalSynthesizer.stream_states`);
* :func:`fill_rows` groups the requested rows by model across all the
  materials of a request (a kernel batch), and per group renders every
  row with one :meth:`~repro.datasets.synthesis.SignalSynthesizer.replay`
  call from the recorded states, classifies them with one
  ``predict_logits`` and takes one softmax, argmax and variance;
* :meth:`RunMaterial.complete` computes whatever is left, for consumers
  that read every row (a sweep unit, the baselines).  Kernel batches and
  served devices read only the rows their completions need
  (:meth:`RunMaterial.rows`, :meth:`RunMaterial.predictions`).

Determinism contract
--------------------
A window's draws do not depend on which slots are rendered, the
synthesis arithmetic is elementwise across windows, and
``Sequential.predict_logits`` is row-independent (one GEMM per window),
so a row has the same bytes whether it was filled alone, with other
materials' rows or by completion.  Runs, baselines and served devices
therefore read identical arrays in every mode — cached, uncached and
parallel — and the test suite asserts it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.base import HARDataset
from repro.datasets.body import BodyLocation
from repro.datasets.markov import MarkovActivityModel
from repro.datasets.profiles import N_CHANNELS
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import StyleWobble
from repro.errors import ConfigurationError
from repro.nn.layers.activations import softmax
from repro.obs.observer import NULL_OBS, Observability
from repro.utils.rng import SeedSequenceFactory

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


class _NodeRows:
    """One node's rows of a material, computed slot by slot.

    ``states`` (the generator state before each slot's window) and
    ``generator`` exist once the draw pass ran; ``filled`` marks the
    slots whose window, logits, softmax, label and confidence are set.
    """

    def __init__(self, location: BodyLocation, model, n_windows: int, window_size: int) -> None:
        self.location = location
        self.model = model
        n_classes = model.output_shape[0]
        self.generator: Optional[np.random.Generator] = None
        self.states: Optional[List[dict]] = None
        self.windows = np.empty((n_windows, N_CHANNELS, window_size), dtype=np.float32)
        self.logits = np.zeros((n_windows, n_classes))
        self.probabilities = np.zeros((n_windows, n_classes))
        self.predicted = np.zeros(n_windows, dtype=np.int64)
        self.confidence = np.zeros(n_windows)
        self.filled = np.zeros(n_windows, dtype=bool)

    def store(self, slots, windows, logits, probabilities, predicted, confidence) -> None:
        if windows is not self.windows:
            self.windows[slots] = windows
        self.logits[slots] = logits
        self.probabilities[slots] = probabilities
        self.predicted[slots] = predicted
        self.confidence[slots] = confidence
        self.filled[slots] = True


def _classify(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(probabilities, labels, confidences)`` of ``(rows, classes)`` logits.

    Row-wise softmax, its argmax and its variance (the confidence)."""
    probabilities = softmax(logits, axis=1)
    return probabilities, probabilities.argmax(axis=1), np.var(probabilities, axis=1)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class _CompletedRows(Mapping):
    """``{node id: array}`` over one field of a material's rows.

    ``len()``, iteration and membership compute nothing; item access
    completes that node and returns a read-only view.
    """

    def __init__(self, material: "RunMaterial", field: str) -> None:
        self._material = material
        self._field = field

    def __getitem__(self, node_id: int) -> np.ndarray:
        rows = self._material._complete_node(node_id)
        return _read_only(getattr(rows, self._field))

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._material._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self._material._nodes)

    def __len__(self) -> int:
        return len(self._material._nodes)


class RunMaterial:
    """The policy-independent precompute of one ``(seed, subject)`` run.

    Attributes
    ----------
    seed / n_windows / dwell_scale / use_pruned_models / subject:
        The parameters the material was built for; a run validates its
        own against them before consuming (:meth:`check_compatible`).
    labels:
        Ground-truth activity per slot (the Markov timeline).
    true_labels:
        The same timeline as read-only int64 dataset labels.
    windows:
        ``{node id: (n_windows, channels, window) float32}`` — every
        node's sensed window for every slot.
    logits / probabilities:
        ``{node id: (n_windows, n_classes) float64}`` outputs of the
        ``use_pruned_models`` variant on :attr:`windows`, and softmax.

    The three mappings are read-only; reading a node's arrays completes
    that node (see the module docstring), while ``len()`` and iteration
    over node ids compute nothing.  :func:`fill_rows` and :meth:`rows`
    compute single rows.
    """

    def __init__(
        self,
        *,
        seed: int,
        n_windows: int,
        dwell_scale: float,
        use_pruned_models: bool,
        subject: SubjectProfile,
        labels: List[Activity],
        true_labels: np.ndarray,
        styles: List[StyleWobble],
        synthesizer,
        factory: SeedSequenceFactory,
        nodes: Dict[int, Tuple[BodyLocation, object]],
    ) -> None:
        self.seed = seed
        self.n_windows = n_windows
        self.dwell_scale = dwell_scale
        self.use_pruned_models = use_pruned_models
        self.subject = subject
        self.labels = labels
        self.true_labels = _read_only(np.asarray(true_labels, dtype=np.int64))
        self._styles = styles
        self._synthesizer = synthesizer
        self._factory = factory
        self._nodes = {
            node_id: _NodeRows(location, model, n_windows, synthesizer.window_size)
            for node_id, (location, model) in nodes.items()
        }
        self.windows: Mapping[int, np.ndarray] = _CompletedRows(self, "windows")
        self.logits: Mapping[int, np.ndarray] = _CompletedRows(self, "logits")
        self.probabilities: Mapping[int, np.ndarray] = _CompletedRows(self, "probabilities")

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    def filled(self, node_id: int) -> np.ndarray:
        """Read-only mask of the slots whose rows ``node_id`` has computed."""
        return _read_only(self._nodes[node_id].filled)

    def predictions(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(labels, confidences)`` of ``node_id`` over every slot.

        Computes nothing: a slot's entries hold its row once
        :meth:`filled` marks it (zeros before).
        """
        node = self._nodes[node_id]
        return _read_only(node.predicted), _read_only(node.confidence)

    def rows(self, node_id: int, slots: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(labels, confidences)`` of ``node_id`` at ``slots``, filling them first.

        Each row's softmax argmax and variance-of-softmax confidence.
        Raises :class:`ConfigurationError` unless every slot is an
        integer in ``[0, n_windows)``.
        """
        fill_rows([(self, node_id, slots)])
        slots = np.asarray(slots, dtype=np.int64)  # checked by fill_rows
        node = self._nodes[node_id]
        return node.predicted[slots], node.confidence[slots]

    def complete(self, *, obs: Optional[Observability] = None) -> "RunMaterial":
        """Compute every row not computed yet, one predict per node.

        ``obs`` times the work as ``predcache.fill``; a complete
        material records nothing.  Returns ``self``.
        """
        missing = [node_id for node_id, node in self._nodes.items() if not node.filled.all()]
        if missing:
            obs = obs if obs is not None else NULL_OBS
            with obs.timed("predcache.fill"):
                for node_id in missing:
                    self._complete_node(node_id, obs)
        return self

    def _complete_node(self, node_id: int, obs: Observability = NULL_OBS) -> _NodeRows:
        node = self._nodes[node_id]
        if node.filled.all():
            return node
        if node.states is None:
            # Never filled: the whole stream in one pass, one predict.
            with obs.timed("predcache.fill.render"):
                node.windows = self._synthesizer.stream(
                    self.labels,
                    node.location,
                    self.subject,
                    self._generator(node),
                    styles=self._styles,
                )
            with obs.timed("predcache.fill.predict"):
                logits = node.model.predict_logits(node.windows)
            node.store(slice(None), node.windows, logits, *_classify(logits))
        else:
            _fill([(self, node, np.flatnonzero(~node.filled))], obs)
        return node

    def _generator(self, node: _NodeRows) -> np.random.Generator:
        return self._factory.generator(f"windows/{node.location.value}")

    def _draw_pass(self, node: _NodeRows) -> None:
        """Record the generator state before each slot's window of ``node``."""
        node.generator = self._generator(node)
        node.states = self._synthesizer.stream_states(
            self.labels, node.location, self.subject, node.generator, styles=self._styles
        )

    # ------------------------------------------------------------------

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
        wanted = (seed, n_windows, dwell_scale, use_pruned_models, subject)
        have = (self.seed, self.n_windows, self.dwell_scale, self.use_pruned_models, self.subject)
        if wanted != have:
            raise ConfigurationError(
                f"run material was built for (seed, n_windows, dwell_scale, "
                f"pruned, subject)={have}, but the run needs {wanted}"
            )


def _slot_array(slots: Sequence[int], n_windows: int) -> np.ndarray:
    """``slots`` as a flat int64 array of slots in ``[0, n_windows)``.

    Raises :class:`ConfigurationError` for a non-integral slot or one
    outside the material, so a slot never wraps or truncates.
    """
    array = np.asarray(slots).reshape(-1)
    if array.dtype.kind not in "iu" and array.size:
        integral = (
            np.isfinite(array) & (np.trunc(array) == array)
            if array.dtype.kind == "f"
            else np.zeros(array.shape, dtype=bool)
        )
        if not integral.all():
            raise ConfigurationError(f"slot {array[~integral][0]!r} is not an integer")
    if array.size and (array.min() < 0 or array.max() >= n_windows):
        bad = array[(array < 0) | (array >= n_windows)][0]
        raise ConfigurationError(f"slot {bad} is outside the material's {n_windows} windows")
    return array.astype(np.int64, copy=False)


def _fill(parts: Sequence[Tuple[RunMaterial, _NodeRows, np.ndarray]], obs: Observability) -> None:
    """Render and classify ``(material, node, ascending slots)`` rows.

    Per model group: the draw pass of every node that has none, one
    render, one ``predict_logits`` and one softmax over all the
    group's rows, then each part's slice is stored.  ``obs`` times the
    three as ``predcache.fill.draw_pass``, ``.render`` and ``.predict``.
    """
    groups: Dict[Tuple[int, int], list] = {}
    for part in parts:
        material, node, _ = part
        groups.setdefault((id(node.model), id(material._synthesizer)), []).append(part)
    for group in groups.values():
        fresh = [(material, node) for material, node, _ in group if node.states is None]
        if fresh:
            with obs.timed("predcache.fill.draw_pass"):
                for material, node in fresh:
                    material._draw_pass(node)
        with obs.timed("predcache.fill.render"):
            windows = group[0][0]._synthesizer.replay(
                [
                    (node.generator, node.states[slot], material.labels[slot], node.location,
                     material.subject, material._styles[slot])
                    for material, node, slots in group
                    for slot in slots.tolist()
                ]
            )
        with obs.timed("predcache.fill.predict"):
            logits = group[0][1].model.predict_logits(windows)
        probabilities, predicted, confidence = _classify(logits)
        lo = 0
        for material, node, slots in group:
            rows = slice(lo, lo + len(slots))
            node.store(
                slots, windows[rows], logits[rows], probabilities[rows], predicted[rows],
                confidence[rows],
            )
            lo = rows.stop


def fill_rows(
    requests: Iterable[Tuple[RunMaterial, int, Sequence[int]]],
    *,
    obs: Optional[Observability] = None,
) -> None:
    """Compute the requested ``(material, node id, slots)`` rows not computed yet.

    Rows of one node's model are rendered together, classified with one
    ``predict_logits`` call and one softmax, across every material of
    the request; ``obs`` times the work as ``predcache.fill`` (nothing
    to compute records nothing), split into its draw pass, render and
    predict.  Raises :class:`ConfigurationError` unless every slot is an
    integer in ``[0, n_windows)`` of its material.
    """
    wanted: Dict[Tuple[int, int], list] = {}
    for material, node_id, slots in requests:
        entry = wanted.setdefault((id(material), node_id), [material, node_id, []])
        entry[2].append(_slot_array(slots, material.n_windows))
    parts = []
    for material, node_id, slots in wanted.values():
        node = material._nodes[node_id]
        slots = np.unique(np.concatenate(slots))
        slots = slots[~node.filled[slots]]
        if slots.size:
            parts.append((material, node, slots))
    if parts:
        obs = obs if obs is not None else NULL_OBS
        with obs.timed("predcache.fill"):
            _fill(parts, obs)


def build_run_material(
    dataset: HARDataset,
    bundle,
    seed: int,
    *,
    n_windows: int,
    dwell_scale: float,
    use_pruned_models: bool = True,
    subject: Optional[SubjectProfile] = None,
) -> RunMaterial:
    """One seed's material: its timeline and styles, rows on demand.

    ``bundle`` is a :class:`~repro.sim.training.TrainedSensorBundle`;
    only its node-id mapping and its ``use_pruned_models`` variant are
    consulted.  RNG streams use the same labels as the historical
    in-run draws (``timeline``, ``style``, ``windows/<location>``), so
    the material is a pure function of ``(dataset, bundle, seed,
    subject, n_windows, dwell_scale, use_pruned_models)``.  No window
    is synthesized or classified here (see the module docstring).
    """
    if n_windows < 1:
        raise ConfigurationError(f"n_windows must be >= 1, got {n_windows}")
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

    models = bundle.models(pruned=use_pruned_models)
    return RunMaterial(
        seed=int(seed),
        n_windows=int(n_windows),
        dwell_scale=float(dwell_scale),
        use_pruned_models=bool(use_pruned_models),
        subject=subject,
        labels=labels,
        true_labels=[spec.label_of(activity) for activity in labels],
        styles=styles,
        synthesizer=dataset.synthesizer,
        factory=factory,
        nodes={
            bundle.node_id_of(location): (location, models[bundle.node_id_of(location)])
            for location in spec.locations
        },
    )


class PredictionCache:
    """Memoized :class:`RunMaterial` per seed for one experiment.

    One cache serves every policy of a sweep: the first run of a seed
    pays the precompute, the other fifteen grid policies and both
    baselines reuse it (a fleet worker shares one across its users).
    The cache is keyed by everything the material depends on, so
    changing ``n_windows``, ``dwell_scale``, the model variant or the
    subject (the profile itself, not its id) builds fresh material
    instead of serving a stale one.  At most :data:`MATERIAL_CACHE_CAP`
    materials stay alive.
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
        key = (int(seed), config.n_windows, config.dwell_scale, config.use_pruned_models, subject)
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
            )
        self._materials[key] = material
        while len(self._materials) > MATERIAL_CACHE_CAP:
            self._materials.popitem(last=False)
        if obs.enabled:
            obs.metrics.set_gauge("predcache.misses", self.misses)
            obs.metrics.set_gauge("predcache.materials", len(self._materials))
        return material
