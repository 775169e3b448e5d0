"""The slot-by-slot EH-WSN HAR simulation.

One scheduling slot = one IMU window (2.56 s by default).  Every slot:

1. the policy's scheduler picks which node (if any) attempts an
   inference, seeing each node's stored energy and readiness;
2. active nodes sense the *current* window and run/resume the inference
   on their NVP with whatever energy their capacitor holds;
3. completed results (label + variance-of-softmax confidence) go to the
   host, which recalls every node's last classification and votes;
4. adaptive runs fold the transmitted confidence into the matrix;
5. the system's output for the slot is compared against ground truth.

The same harness runs every configuration of the paper's ladder (plain
ER-r, AAS, AASR, Origin) — only the :class:`~repro.core.policies.PolicySpec`
changes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.engine import DecisionEngine, make_vote
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import PolicySpec
from repro.datasets.base import HARDataset
from repro.datasets.body import BodyLocation
from repro.datasets.subjects import SubjectProfile
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTraceGenerator
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.obs.observer import NULL_OBS, Observability
from repro.sim.predcache import RunMaterial, build_run_material, default_subject
from repro.sim.results import ExperimentResult, SlotRecord
from repro.sim.training import TrainedSensorBundle, TrainingConfig
from repro.utils.rng import SeedSequenceFactory
from repro.wsn.comm import CommLink, RadioProfile
from repro.wsn.host import HostDevice
from repro.wsn.network import BodyAreaNetwork
from repro.wsn.node import NodeCosts, SensorNode

WindowTransform = Callable[[np.ndarray], np.ndarray]

logger = logging.getLogger(__name__)

#: Calibrated default: uniform RF gain across placements.  The trace
#: generator already injects per-node variation through independent
#: fading (see PowerTraceGenerator.generate_correlated), and the paper's
#: completion operating points were matched with equal gains.  Placement
#: asymmetry (an exposed wrist, a furniture-shadowed ankle) is modelled
#: explicitly instead: statically via ``SimulationConfig.node_gains``,
#: or dynamically with a ``repro.faults.HarvesterDropout`` window.
DEFAULT_NODE_GAINS: Dict[BodyLocation, float] = {
    BodyLocation.CHEST: 1.0,
    BodyLocation.RIGHT_WRIST: 1.0,
    BodyLocation.LEFT_ANKLE: 1.0,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Deployment-level knobs of the EH-WSN simulation."""

    n_windows: int = 600
    #: EH nodes use tiny storage: a couple of inferences' worth.  This
    #: is what makes the scheduling problem real — nodes cannot bank a
    #: whole burst and coast through quiet periods.
    capacitor_capacity_j: float = 100e-6
    capacitor_initial_j: float = 0.0
    capacitor_leakage_w: float = 1e-6
    checkpoint_overhead: float = 0.05
    volatile: bool = False
    use_pruned_models: bool = True
    node_gains: Optional[Dict[BodyLocation, float]] = None
    radio: RadioProfile = field(default_factory=RadioProfile.ble)
    costs: NodeCosts = field(default_factory=NodeCosts)
    max_task_age_slots: Optional[int] = None
    #: Host-side recall expiry: drop remembered votes older than this
    #: many slots (None = the paper's never-expiring recall).
    max_recall_age_slots: Optional[int] = None
    #: Hybrid operation (paper Discussion): a constant battery trickle
    #: added to every node's harvest.  0 = pure energy harvesting.
    battery_supplement_w: float = 0.0
    #: Activity bouts in the deployment scenario last a few minutes
    #: (the catalog's dwell times model lab-protocol bouts; day-to-day
    #: activities persist longer, which is the continuity Origin banks on).
    dwell_scale: float = 3.5
    trace_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_windows < 1:
            raise ConfigurationError(f"n_windows must be >= 1, got {self.n_windows}")
        if self.trace_scale <= 0:
            raise ConfigurationError(f"trace_scale must be positive, got {self.trace_scale}")
        if self.dwell_scale <= 0:
            raise ConfigurationError(f"dwell_scale must be positive, got {self.dwell_scale}")
        if self.battery_supplement_w < 0:
            raise ConfigurationError(
                f"battery_supplement_w must be >= 0, got {self.battery_supplement_w}"
            )

    def gain_for(self, location: BodyLocation) -> float:
        """RF gain at ``location``."""
        gains = self.node_gains or DEFAULT_NODE_GAINS
        return gains.get(location, 1.0)


class HARExperiment:
    """Runs policy specs against one dataset + trained bundle.

    Parameters
    ----------
    dataset / bundle:
        The data and trained models (see :class:`TrainedSensorBundle`).
    trace_generator:
        RF environment; defaults to the calibrated office generator.
    config:
        Deployment knobs.
    seed:
        Root seed; per-run seeds derive from it unless overridden.
    """

    def __init__(
        self,
        dataset: HARDataset,
        bundle: TrainedSensorBundle,
        *,
        trace_generator: Optional[PowerTraceGenerator] = None,
        config: SimulationConfig = SimulationConfig(),
        seed: int = 0,
    ) -> None:
        if bundle.dataset is not dataset:
            # Allow equal-spec bundles trained elsewhere, but catch
            # outright mismatches early.
            if bundle.dataset.spec.name != dataset.spec.name:
                raise ConfigurationError(
                    f"bundle was trained on {bundle.dataset.spec.name}, "
                    f"not {dataset.spec.name}"
                )
        self.dataset = dataset
        self.bundle = bundle
        self.trace_generator = trace_generator or PowerTraceGenerator()
        self.config = config
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def standard_mhealth(
        cls,
        seed: int = 7,
        *,
        config: SimulationConfig = SimulationConfig(),
        training: TrainingConfig = TrainingConfig(),
        store=None,
        obs: Optional[Observability] = None,
    ) -> "HARExperiment":
        """Train-and-build the full MHEALTH setup.

        The first build for a given ``(seed, training)`` trains the six
        CNNs (~10 s) and publishes them to the trained-bundle artifact
        store; later processes rehydrate from disk in a fraction of the
        time with byte-identical results.  ``store`` follows the
        :func:`repro.store.resolve_store` convention (``None`` =
        environment default, ``False`` = always retrain); ``obs``
        accumulates the store hit/miss/build metrics.
        """
        from repro.datasets.mhealth import make_mhealth

        return cls._standard(make_mhealth(seed=seed), seed, config, training, store, obs)

    @classmethod
    def standard_pamap2(
        cls,
        seed: int = 7,
        *,
        config: SimulationConfig = SimulationConfig(),
        training: TrainingConfig = TrainingConfig(),
        store=None,
        obs: Optional[Observability] = None,
    ) -> "HARExperiment":
        """Train-and-build the full PAMAP2 setup (store-backed, see
        :meth:`standard_mhealth`)."""
        from repro.datasets.pamap2 import make_pamap2

        return cls._standard(make_pamap2(seed=seed), seed, config, training, store, obs)

    @classmethod
    def _standard(
        cls, dataset, seed, config, training, store=None, obs=None
    ) -> "HARExperiment":
        generator = PowerTraceGenerator()
        budget = (
            generator.expected_average_power_w()
            * dataset.spec.window_duration_s
            * config.trace_scale
        )
        bundle = TrainedSensorBundle.train_or_load(
            dataset, budget, seed=seed, config=training, store=store, obs=obs
        )
        return cls(
            dataset, bundle, trace_generator=generator, config=config, seed=seed
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_nodes(
        self, factory: SeedSequenceFactory, config: SimulationConfig
    ) -> List[SensorNode]:
        spec = self.dataset.spec
        duration = config.n_windows * spec.window_duration_s
        locations = list(spec.locations)
        gains = [config.gain_for(location) for location in locations]
        traces = self.trace_generator.generate_correlated(
            duration, gains, factory.generator("traces")
        )
        models = self.bundle.models(pruned=config.use_pruned_models)
        energies = self.bundle.inference_energies(pruned=config.use_pruned_models)

        nodes = []
        for location, trace in zip(locations, traces):
            node_id = self.bundle.node_id_of(location)
            nodes.append(
                SensorNode(
                    node_id=node_id,
                    location=location,
                    model=models[node_id],
                    inference_energy_j=energies[node_id],
                    harvester=Harvester(
                        trace.scaled(config.trace_scale),
                        supplemental_w=config.battery_supplement_w,
                    ),
                    capacitor=Capacitor(
                        config.capacitor_capacity_j,
                        config.capacitor_initial_j,
                        config.capacitor_leakage_w,
                    ),
                    nvp=NonVolatileProcessor(
                        config.checkpoint_overhead, volatile=config.volatile
                    ),
                    comm=CommLink(config.radio),
                    costs=config.costs,
                    slot_duration_s=spec.window_duration_s,
                    max_task_age_slots=config.max_task_age_slots,
                )
            )
        return nodes

    def _make_vote(self, spec: PolicySpec, confidence: ConfidenceMatrix):
        # Kept for back-compat: the vote factory moved to the decision
        # core (repro.core.engine.make_vote) with the serving split.
        return make_vote(spec, confidence)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(
        self,
        policy: PolicySpec,
        *,
        subject: Optional[SubjectProfile] = None,
        seed: Optional[int] = None,
        n_windows: Optional[int] = None,
        confidence_matrix: Optional[ConfidenceMatrix] = None,
        window_transform: Optional[WindowTransform] = None,
        failures: Optional[Dict[int, int]] = None,
        faults: Optional[FaultPlan] = None,
        material: Optional[RunMaterial] = None,
        obs: Optional[Observability] = None,
        kernel: Optional[bool] = None,
    ) -> ExperimentResult:
        """Simulate ``policy`` and return the full result.

        Parameters
        ----------
        subject:
            Whose movement to simulate (defaults to the first held-out
            evaluation subject).
        seed:
            Per-run seed (defaults to the experiment seed).
        n_windows:
            Override the configured slot count.
        confidence_matrix:
            Use (and mutate!) this matrix instead of a fresh copy of the
            bundle's — the personalization study threads one matrix
            through many runs this way.
        window_transform:
            Applied to every sensed window (e.g. Gaussian noise).
        failures:
            Removed.  Passing it raises :class:`TypeError`; build a
            ``faults=FaultPlan.from_failures({node_id: slot})`` plan
            instead.
        faults:
            A :class:`~repro.faults.FaultPlan` of node deaths,
            brownouts, lossy links, harvester shadowing and host
            restarts.  An empty plan reproduces the fault-free run bit
            for bit; a non-empty plan attaches
            :class:`~repro.faults.FaultStats` degradation accounting to
            the result.
        material:
            Precomputed :class:`~repro.sim.predcache.RunMaterial` for
            this exact ``(seed, subject, config)`` — typically served by
            a :class:`~repro.sim.predcache.PredictionCache` so one
            seed's timeline/windows/softmax are shared by every policy
            of a sweep.  ``None`` (the default) builds fresh material
            for this run; either way the run consumes identical arrays,
            so results are byte-identical with and without sharing.
        obs:
            An :class:`~repro.obs.Observability` bundle.  When given,
            the run emits a typed trace (scheduling decisions, NVP
            bursts, inference completions, message drops, votes, fault
            firings), accumulates metrics (slots/attempts/completions,
            joules harvested and spent, recall staleness) and records
            wall-time profiles of the hot paths.  The default is the
            zero-overhead :data:`~repro.obs.NULL_OBS`: untraced runs
            are bit-identical to pre-instrumentation output.
        kernel:
            Route the run through the vectorized
            :mod:`repro.sim.kernel` slot engine.  ``None`` (default)
            and ``True`` take the kernel whenever the run is eligible
            (precomputed softmax, no window transform, no observability,
            no effective faults — see
            :func:`repro.sim.kernel.kernel_eligible`); ineligible runs
            fall back to the scalar loop either way, whose output the
            kernel is byte-identical to.  ``False`` forces the scalar
            path (the bisection/benchmark baseline).
        """
        if failures is not None:
            raise TypeError(
                "HARExperiment.run(failures={node_id: slot}) was removed; "
                "pass faults=FaultPlan.from_failures({node_id: slot}) "
                "(or compose repro.faults.NodeDeath models into a FaultPlan)"
            )
        config = self.config
        if n_windows is not None:
            config = replace(config, n_windows=n_windows)
        run_seed = self.seed if seed is None else int(seed)
        factory = SeedSequenceFactory(run_seed)
        spec = self.dataset.spec
        subject = subject or default_subject(self.dataset)
        obs = obs if obs is not None else NULL_OBS
        trace = obs.tracer
        run_clock_start = time.perf_counter() if obs.enabled else 0.0
        logger.debug(
            "run start: policy=%s seed=%d n_windows=%d", policy.name, run_seed,
            config.n_windows,
        )

        # The policy-independent precompute: timeline, styles, windows
        # and (unless the windows will be transformed) batched softmax
        # outputs.  A caller-provided material is validated, then
        # consumed exactly like a fresh one.
        if material is None:
            material = build_run_material(
                self.dataset,
                self.bundle,
                run_seed,
                n_windows=config.n_windows,
                dwell_scale=config.dwell_scale,
                use_pruned_models=config.use_pruned_models,
                subject=subject,
                with_predictions=window_transform is None,
                obs=obs,
            )
        else:
            material.check_compatible(
                seed=run_seed,
                n_windows=config.n_windows,
                dwell_scale=config.dwell_scale,
                use_pruned_models=config.use_pruned_models,
                subject=subject,
            )
        labels = material.labels

        # Vectorized fast path: when the run needs nothing the kernel
        # cannot model (see repro.sim.kernel's scalar-fallback rules),
        # a batch of one replaces the python slot loop — byte-identical
        # results, measured in BENCH_kernel.json.
        if kernel is not False:
            from repro.sim.kernel import kernel_ineligibility_reason, run_policy_batch

            fallback_reason = kernel_ineligibility_reason(
                material=material,
                window_transform=window_transform,
                faults=faults,
                obs=obs,
            )
            if fallback_reason is None:
                logger.debug(
                    "run via kernel: policy=%s seed=%d", policy.name, run_seed
                )
                return run_policy_batch(
                    self,
                    [policy],
                    run_seed,
                    material=material,
                    subject=subject,
                    config=config,
                    confidence_matrices=[confidence_matrix],
                )[0]
            # A kernel-capable run took the scalar loop: count it, tagged
            # with the blocking feature, so sweeps that quietly lose the
            # vectorized speedup show up in summarize reports.
            if obs.enabled:
                obs.metrics.inc("kernel.fallback")
                obs.metrics.inc(f"kernel.fallback.{fallback_reason}")
            logger.debug(
                "scalar fallback (%s): policy=%s seed=%d",
                fallback_reason, policy.name, run_seed,
            )

        # Network.
        nodes = self._build_nodes(factory, config)
        if obs.enabled:
            for node in nodes:
                node.attach_obs(obs)
        if confidence_matrix is not None:
            confidence = confidence_matrix
        else:
            alpha = (
                self.bundle.confidence_matrix.adaptation_alpha
                if policy.adaptive_confidence
                else 0.0
            )
            confidence = self.bundle.confidence_matrix.copy(adaptation_alpha=alpha)
        # The shared decision core: scheduler + host recall/vote +
        # confidence adaptation (also what repro.serve sessions run).
        core = DecisionEngine(
            policy,
            [node.node_id for node in nodes],
            self.bundle.rank_table,
            confidence,
            max_recall_age_slots=config.max_recall_age_slots,
            staleness_half_life_slots=(
                faults.recall_staleness_half_life_slots if faults is not None else None
            ),
            obs=obs,
        )
        host = core.host
        network = BodyAreaNetwork(nodes, host)

        # Compile the fault plan into this run's engine and install the
        # per-node hooks.  An empty plan leaves everything untouched, so
        # the fault-free path (and its RNG streams) is bit-identical.
        engine = None
        unresponsive_after = None
        if faults is not None:
            unresponsive_after = faults.unresponsive_after_slots
            if faults.faults:
                engine = faults.compile(
                    node_ids=[node.node_id for node in nodes],
                    n_slots=config.n_windows,
                    n_classes=len(spec.activities),
                    rng=(
                        factory.generator("faults")
                        if faults.has_link_faults
                        else None
                    ),
                )
                for node in nodes:
                    node.comm.delivery_hook = engine.link_hook(node.node_id)
                    node.harvest_gate = engine.harvest_gate(node.node_id)
                if obs.enabled:
                    engine.obs = obs
                logger.debug(
                    "fault engine compiled: %d fault(s) over %d slots",
                    len(faults.faults), config.n_windows,
                )
        # Cached softmax consumption: a transform changes the sensed
        # window after synthesis, so transformed runs fall back to the
        # node's own per-window inference.
        if material.probabilities is not None and window_transform is None:
            for node in nodes:
                node.prediction_cache = material.probabilities[node.node_id]
        elif window_transform is not None:
            logger.debug(
                "window transform active: falling back to per-slot model "
                "inference (no batched softmax reuse)"
            )

        if trace.enabled:
            trace.emit(
                "run.started",
                policy=policy.name,
                seed=run_seed,
                n_windows=config.n_windows,
                n_nodes=len(nodes),
            )
        result = ExperimentResult(policy_name=policy.name, activities=list(spec.activities))
        nodes_by_id = {node.node_id: node for node in nodes}

        for slot in range(config.n_windows):
            if engine is not None:
                engine.begin_slot(slot, nodes_by_id, host)
            online = {
                n.node_id: (engine is None or engine.node_online(n.node_id))
                for n in nodes
            }
            responsive: Dict[int, bool] = {}
            if engine is not None or unresponsive_after is not None:
                for n in nodes:
                    flag = online[n.node_id]
                    if flag and unresponsive_after is not None:
                        flag = host.quiet_slots(n.node_id, slot) <= unresponsive_after
                    responsive[n.node_id] = flag

            true_label = spec.label_of(labels[slot])
            active = core.begin_slot(
                slot,
                [n.can_start_inference() for n in nodes],
                online=list(online.values()),
                node_responsive=responsive,
            )

            windows: Dict[int, np.ndarray] = {}
            for node_id in active:
                window = material.windows[node_id][slot]
                if window_transform is not None:
                    window = window_transform(window)
                windows[node_id] = window

            outcomes = network.step_slot(
                slot,
                active,
                windows,
                offline_node_ids=[
                    node_id for node_id, up in online.items() if not up
                ],
            )

            final = core.finish_slot(
                slot,
                outcomes,
                on_completion=(
                    (lambda o: engine.note_completion(o.node_id, slot))
                    if engine is not None
                    else None
                ),
            )
            result.records.append(
                SlotRecord(
                    slot_index=slot,
                    true_label=true_label,
                    predicted_label=final,
                    active_nodes=tuple(active),
                    completions=sum(1 for o in outcomes if o.completed),
                    attempts=len(outcomes),
                    dropped_messages=sum(
                        1 for o in outcomes if o.completed and not o.delivered
                    ),
                )
            )

        result.node_stats = {node.node_id: node.stats for node in nodes}
        result.comm_energy_j = sum(node.comm.energy_spent_j for node in nodes)
        result.confidence_updates = core.confidence_updates
        if engine is not None:
            result.fault_stats = engine.finalize(nodes)
        if obs.enabled:
            self._account_run_metrics(obs, result, nodes, host)
            if trace.enabled:
                trace.emit(
                    "run.finished",
                    policy=policy.name,
                    completions=result.total_completions,
                    decisions=host.decisions_made,
                )
            obs.metrics.timer("experiment.run").record(
                time.perf_counter() - run_clock_start
            )
        logger.debug(
            "run done: policy=%s seed=%d completions=%d/%d", policy.name, run_seed,
            result.total_completions, result.total_attempts,
        )
        return result

    @staticmethod
    def _account_run_metrics(
        obs: Observability,
        result: ExperimentResult,
        nodes: List[SensorNode],
        host: HostDevice,
    ) -> None:
        """Fold one run's counters into the metrics registry.

        Everything here is a pure function of the simulated run, so
        sequential and parallel sweeps merge to identical values (the
        determinism contract of :mod:`repro.obs.metrics`).
        """
        metrics = obs.metrics
        attempts = completions = dropped = correct = 0
        for record in result.records:  # one pass over the run's records
            attempts += record.attempts
            completions += record.completions
            dropped += record.dropped_messages
            correct += record.predicted_label == record.true_label
        metrics.inc("sim.runs")
        metrics.inc("sim.slots", result.n_slots)
        metrics.inc("sim.attempts", attempts)
        metrics.inc("sim.completions", completions)
        metrics.inc("sim.messages_dropped", dropped)
        metrics.inc("sim.confidence_updates", result.confidence_updates)
        metrics.inc("sim.decisions", host.decisions_made)
        metrics.inc("sim.messages_received", host.messages_received)
        metrics.inc("sim.correct_slots", correct)
        metrics.inc("sim.comm_energy_j", result.comm_energy_j)
        for node in nodes:
            stats = node.stats
            prefix = f"node.{node.node_id}"
            metrics.inc(f"{prefix}.slots", stats.slots)
            metrics.inc(f"{prefix}.active_slots", stats.active_slots)
            metrics.inc(f"{prefix}.attempts_started", stats.attempts_started)
            metrics.inc(f"{prefix}.completions", stats.completions)
            metrics.inc(f"{prefix}.failed_active_slots", stats.failed_active_slots)
            metrics.inc(f"{prefix}.harvested_j", stats.harvested_j)
            metrics.inc(f"{prefix}.consumed_j", stats.consumed_j)
            metrics.inc(f"{prefix}.comm_j", stats.comm_j)
            metrics.inc(f"{prefix}.leaked_j", stats.leaked_j)
