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
changes.  :class:`HARExperiment` owns the deployment (dataset, trained
bundle, RF environment, config) and builds a batch's lane table
(:meth:`HARExperiment.build_nodes`): one office walk per seed, the
harvest rows of a block of setups per slot-sum pass and each config's
node parameters read once, as arrays, with no per-node object.
:class:`SimulationConfig` therefore runs the node records' checks
itself, once per config.  The slot physics of every run, faulted and
observed ones included, is the lane kernel of :mod:`repro.sim.kernel`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import PolicySpec
from repro.datasets.base import HARDataset
from repro.datasets.body import BodyLocation
from repro.datasets.subjects import SubjectProfile
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTraceGenerator, slot_energies
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.obs.observer import Observability
from repro.sim.kernel import LaneTable
from repro.sim.predcache import RunMaterial, default_subject
from repro.sim.results import ExperimentResult
from repro.sim.training import TrainedSensorBundle, TrainingConfig
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_positive
from repro.wsn.comm import RadioProfile
from repro.wsn.node import NodeCosts, check_link

logger = logging.getLogger(__name__)

#: Most bytes of watts :meth:`HARExperiment.build_nodes` holds at once.
_WATTS_BLOCK_BYTES = 1 << 18

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
    """Deployment-level knobs of the EH-WSN simulation.

    Construction refuses every value a node record
    (:class:`~repro.energy.storage.Capacitor`,
    :class:`~repro.energy.nvp.NonVolatileProcessor`,
    :class:`~repro.wsn.node.SensorNode`) would, with the record's
    exception and message, and every non-finite knob.
    """

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
        if not (math.isfinite(self.trace_scale) and self.trace_scale > 0):
            raise ConfigurationError(
                f"trace_scale must be finite and positive, got {self.trace_scale}"
            )
        for location, gain in (self.node_gains or {}).items():
            if not (math.isfinite(gain) and gain >= 0):
                raise ConfigurationError(
                    f"node gain at {location} must be finite and >= 0, got {gain}"
                )
        if not (math.isfinite(self.dwell_scale) and self.dwell_scale > 0):
            raise ConfigurationError(
                f"dwell_scale must be finite and positive, got {self.dwell_scale}"
            )
        if not (math.isfinite(self.battery_supplement_w) and self.battery_supplement_w >= 0):
            raise ConfigurationError(
                f"battery_supplement_w must be finite and >= 0, got {self.battery_supplement_w}"
            )
        # The node records' own checks, run once per config: a batch's
        # lane table reads these knobs raw (HARExperiment.build_nodes).
        Capacitor(self.capacitor_capacity_j, self.capacitor_initial_j, self.capacitor_leakage_w)
        NonVolatileProcessor(self.checkpoint_overhead, volatile=self.volatile)
        check_link(self.radio, self.max_task_age_slots)

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

    def build_nodes(self, setups: Sequence[Tuple[int, SimulationConfig]]) -> LaneTable:
        """Every ``(seed, config)`` setup's harvest rows and lane parameters.

        Returns one :class:`~repro.sim.kernel.LaneTable` whose setup
        ``g`` is ``setups[g]``; every setup shares one ``n_windows``.
        Setups sharing a seed share one office walk at unit gain (one
        ``generate_correlated`` call per distinct seed).  A setup's watts
        are ``(unit x gain) x trace_scale``, the floats the walk at its
        own gains would give, scaled, computed in place for a block of
        setups at a time (at most ``_WATTS_BLOCK_BYTES``); one
        :func:`~repro.energy.traces.slot_energies` pass per block sums
        their ``(nodes, n_windows)`` rows, and the watts are dropped.
        Each config's parameters are read once and the bundle's
        inference energies are checked once per call.
        """
        spec = self.dataset.spec
        slot_s = spec.window_duration_s
        locations = list(spec.locations)
        node_ids = [self.bundle.node_id_of(location) for location in locations]
        configs = [config for _, config in setups]
        n_windows = configs[0].n_windows
        for config in configs[1:]:
            if config.n_windows != n_windows:
                raise ConfigurationError(
                    f"all groups of a batch must share n_windows "
                    f"({config.n_windows} != {n_windows})"
                )
        walk_of: Dict[int, int] = {}
        walks = []
        for seed, _ in setups:
            if int(seed) not in walk_of:
                walk_of[int(seed)] = len(walks)
                traces = self.trace_generator.generate_correlated(
                    n_windows * slot_s,
                    [1.0] * len(locations),
                    SeedSequenceFactory(int(seed)).generator("traces"),
                )
                walks.append(np.stack([trace.watts for trace in traces]))
        units = np.stack(walks)
        walk_index = np.array([walk_of[int(seed)] for seed, _ in setups])
        gains = np.array(
            [[config.gain_for(location) for location in locations] for config in configs]
        )[:, :, None]
        scales = np.array([config.trace_scale for config in configs])[:, None, None]
        supplements = np.array([config.battery_supplement_w for config in configs])[:, None, None]
        rows = np.empty((len(configs), len(locations), n_windows))
        # A block of setups at a time: one watts array for a whole
        # cohort batch (6 MB at 256 users) raises glibc's mmap threshold
        # when freed, and every later array of that size then stays on
        # the heap, which only grows unit after unit.
        step = max(1, _WATTS_BLOCK_BYTES // units[0].nbytes)
        for lo in range(0, len(configs), step):
            block = slice(lo, lo + step)
            watts = units[walk_index[block]]
            watts *= gains[block]
            watts *= scales[block]
            rows[block] = slot_energies(
                watts,
                self.trace_generator.dt_s,
                slot_s,
                n_slots=n_windows,
                supplemental_w=supplements[block],
            )
        work = {}
        for pruned in {config.use_pruned_models for config in configs}:
            energies = self.bundle.inference_energies(pruned=pruned)
            work[pruned] = [
                check_positive("inference_energy_j", energies[node_id]) for node_id in node_ids
            ]
        return LaneTable.of_configs(
            node_ids,
            rows,
            [work[config.use_pruned_models] for config in configs],
            configs,
            slot_s,
        )

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def run(
        self,
        policy: PolicySpec,
        *,
        subject: Optional[SubjectProfile] = None,
        seed: Optional[int] = None,
        n_windows: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        material: Optional[RunMaterial] = None,
        obs: Optional[Observability] = None,
    ) -> ExperimentResult:
        """Simulate ``policy`` and return the full result.

        The run is a batch of one on the slot kernel
        (:func:`repro.sim.kernel.run_policy_batch`), so it is
        byte-identical to the same ``(policy, seed)`` inside any sweep
        or batch.  It votes with the bundle's confidence matrix; an
        adaptive policy adapts a private copy, so the bundle's matrix
        never changes.

        Parameters
        ----------
        subject:
            Whose movement to simulate (defaults to the first held-out
            evaluation subject).
        seed:
            Per-run seed (defaults to the experiment seed).
        n_windows:
            Override the configured slot count.
        faults:
            A :class:`~repro.faults.FaultPlan` of node deaths,
            brownouts, lossy links, harvester shadowing and host
            restarts.  An empty plan reproduces the fault-free run bit
            for bit; a plan with faults attaches
            :class:`~repro.faults.FaultStats` degradation accounting to
            the result.
        material:
            Precomputed :class:`~repro.sim.predcache.RunMaterial` for
            this exact ``(seed, subject, config)`` — typically served by
            a :class:`~repro.sim.predcache.PredictionCache` so one
            seed's timeline/windows/logits are shared by every policy
            of a sweep.  ``None`` (the default) builds
            fresh material for this run.  Either way the run consumes
            identical arrays, so results are byte-identical with and
            without sharing.
        obs:
            An :class:`~repro.obs.Observability` bundle.  When given,
            the run emits a typed trace (scheduling decisions, NVP
            bursts, inference completions, message drops, votes, fault
            firings) and accumulates metrics (slots/attempts/completions,
            joules harvested and spent, recall staleness).  The default
            is the zero-overhead :data:`~repro.obs.NULL_OBS`; either way
            the same physics runs.
        """
        from repro.sim.kernel import run_policy_batch

        config = self.config
        if n_windows is not None:
            config = replace(config, n_windows=n_windows)
        run_seed = self.seed if seed is None else int(seed)
        subject = subject or default_subject(self.dataset)
        logger.debug(
            "run: policy=%s seed=%d n_windows=%d", policy.name, run_seed,
            config.n_windows,
        )
        return run_policy_batch(
            self,
            [policy],
            run_seed,
            material=material,
            subject=subject,
            config=config,
            faults=faults,
            obs=obs,
        )[0]
