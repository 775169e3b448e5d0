"""Committed golden digests of the simulator's paper-facing outputs.

These digests are the identity anchor for refactors of the slot physics,
the decision engine and the observability layer: a change that moves any
simulated number moves a digest.

Each run's digest is SHA-256 over a canonical JSON rendering of its slot
records, per-node ``NodeStats``, comm energy, confidence-update count and
``FaultStats``.  An observed run also digests its event stream
``(kind, slot, node, payload)`` and its merge-deterministic metrics
(``MetricsRegistry.deterministic_dict``).  Python's float ``repr``
round-trips exactly, so equal digests mean byte-identical floats.

The matrix is ``paper_policy_grid()`` plus ``naive_policy()`` on a tiny
MHEALTH and a micro PAMAP2 deployment, under no fault plan, each fault
model alone and one composed plan, each untraced, metrics-only and
traced; two deployment variants (volatile MCUs with task expiry, and a
pre-charged capacitor with a battery trickle) run the composed plan.
A traced two-seed sweep pins the sweep-level stream.

Softmax-derived floats stay out of the digests: the ``confidence`` of
``inference.completed`` and ``confidence.updated`` events.  float64
``exp``/``log`` results depend on the CPU's SIMD dispatch; labels,
energy ledgers and fault accounting do not.

To regenerate after a deliberate behaviour change, run from the repo
root::

    PYTHONPATH=src:. python -c "from tests.test_goldens import regenerate; regenerate()"
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, replace
from typing import Any, Dict, List, Optional

import pytest

from repro.core.policies import naive_policy
from repro.faults import (
    Brownout,
    FaultPlan,
    GilbertElliottLoss,
    HarvesterDropout,
    HostRestart,
    NodeDeath,
    PacketLoss,
    PayloadCorruption,
)
from repro.obs.observer import Observability
from repro.obs.trace import NULL_TRACER
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.predcache import PredictionCache
from repro.sim.sweep import PolicySweep, paper_policy_grid

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

N_WINDOWS = 96
SEEDS = (1, 2)
POLICIES = paper_policy_grid() + [naive_policy()]

PLANS: Dict[str, Optional[FaultPlan]] = {
    "none": None,
    "death": FaultPlan(faults=(NodeDeath(node_id=1, at_slot=40),)),
    "death_at_0": FaultPlan(faults=(NodeDeath(node_id=2, at_slot=0),)),
    "brownout": FaultPlan(
        faults=(
            Brownout(node_id=0, start_slot=20, duration_slots=6),
            Brownout(node_id=1, start_slot=30, duration_slots=12),
            Brownout(node_id=0, start_slot=55, duration_slots=4),
        )
    ),
    "dropout": FaultPlan(
        faults=(
            HarvesterDropout(node_id=0, windows=((10, 40),), factor=0.3),
            HarvesterDropout(node_id=0, windows=((30, 60), (70, 80)), factor=0.5),
            HarvesterDropout(node_id=2, windows=((5, 50),)),
        )
    ),
    # Overlapping non-dyadic factors: unlike 0.5, they round, so how the
    # scale is applied shows in the ledgers.
    "dropout_order": FaultPlan(
        faults=(
            HarvesterDropout(node_id=0, windows=((10, 50),), factor=0.1),
            HarvesterDropout(node_id=0, windows=((20, 60),), factor=0.2),
            HarvesterDropout(node_id=0, windows=((30, 70),), factor=0.3),
            HarvesterDropout(node_id=1, windows=((0, 40),), factor=0.3),
            HarvesterDropout(node_id=1, windows=((20, 80),), factor=0.7),
        )
    ),
    "host_restart": FaultPlan(
        faults=(HostRestart(at_slot=25), HostRestart(at_slot=61))
    ),
    "packet_loss": FaultPlan(faults=(PacketLoss(rate=0.3),)),
    "windowed_loss": FaultPlan(
        faults=(PacketLoss(rate=0.7, node_id=0, start_slot=15, end_slot=60),)
    ),
    "gilbert_elliott": FaultPlan(
        faults=(GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.3),)
    ),
    "corruption": FaultPlan(faults=(PayloadCorruption(rate=0.4),)),
    "composed": FaultPlan(
        faults=(
            NodeDeath(node_id=2, at_slot=70),
            Brownout(node_id=0, start_slot=20, duration_slots=6),
            Brownout(node_id=1, start_slot=45, duration_slots=10),
            HarvesterDropout(node_id=1, windows=((5, 30),), factor=0.2),
            HarvesterDropout(node_id=1, windows=((20, 40),), factor=0.5),
            HostRestart(at_slot=33),
            GilbertElliottLoss(p_good_to_bad=0.15, p_bad_to_good=0.4),
            PacketLoss(rate=0.5, node_id=1, start_slot=60, end_slot=90),
            PayloadCorruption(rate=0.2),
        ),
    ),
}

#: Deployment variants beyond the default config (run on the composed plan).
CONFIGS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "volatile_expiry": dict(volatile=True, max_task_age_slots=3),
    "charged_trickle": dict(capacitor_initial_j=80e-6, battery_supplement_w=5e-6),
}

MODES = ("untraced", "metrics", "traced")

#: Softmax-derived payload fields left out of event digests.
_UNSTABLE_FIELDS = {
    "inference.completed": "confidence",
    "confidence.updated": "confidence",
}

CASES: List[tuple] = [
    ("default", plan, mode) for plan in PLANS for mode in MODES
] + [
    (config, "composed", mode)
    for config in CONFIGS
    if config != "default"
    for mode in MODES
]


def _case_id(config: str, plan: str, mode: str) -> str:
    return f"{config}/{plan}/{mode}"


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _sha(document: Any) -> str:
    text = json.dumps(document, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_document(result) -> list:
    """Records, node stats, comm energy, confidence updates and fault stats."""
    records = [
        [
            int(r.slot_index),
            int(r.true_label),
            None if r.predicted_label is None else int(r.predicted_label),
            [int(node) for node in r.active_nodes],
            int(r.completions),
            int(r.attempts),
            int(r.dropped_messages),
        ]
        for r in result.records
    ]
    stats = {str(node): asdict(s) for node, s in sorted(result.node_stats.items())}
    faults = None
    if result.fault_stats is not None:
        fault_stats = result.fault_stats
        faults = {
            "per_link": {
                str(node): asdict(link)
                for node, link in sorted(fault_stats.per_link.items())
            },
            "offline_slots": {
                str(node): int(slots)
                for node, slots in sorted(fault_stats.offline_slots.items())
            },
            "recoveries": [asdict(event) for event in fault_stats.recoveries],
            "host_restarts": int(fault_stats.host_restarts),
        }
    return [
        records,
        stats,
        float(result.comm_energy_j),
        int(result.confidence_updates),
        faults,
    ]


def events_document(events) -> list:
    """``(kind, slot, node, payload)`` per event, minus softmax floats."""
    document = []
    for event in events:
        payload = dict(event.payload)
        unstable = _UNSTABLE_FIELDS.get(event.kind)
        if unstable is not None:
            payload.pop(unstable, None)
        document.append([event.kind, event.slot, event.node_id, payload])
    return document


def _make_obs(mode: str) -> Optional[Observability]:
    if mode == "untraced":
        return None
    if mode == "metrics":
        return Observability(tracer=NULL_TRACER)
    return Observability()


def case_digests(experiments: Dict[str, HARExperiment], dataset: str, case: tuple) -> Dict[str, str]:
    """``{"<policy>@<seed>": digest}`` for one (config, plan, mode) case."""
    config_name, plan_name, mode = case
    base = experiments[dataset]
    experiment = HARExperiment(
        base.dataset,
        base.bundle,
        config=replace(base.config, **CONFIGS[config_name]),
        seed=base.seed,
    )
    cache = PredictionCache(experiment)
    plan = PLANS[plan_name]
    digests: Dict[str, str] = {}
    for seed in SEEDS:
        material = cache.material(seed)
        for spec in POLICIES:
            obs = _make_obs(mode)
            result = experiment.run(
                spec, seed=seed, faults=plan, material=material, obs=obs
            )
            document: list = [run_document(result)]
            if obs is not None:
                document.append(events_document(obs.tracer.events))
                document.append(obs.metrics.deterministic_dict())
            digests[f"{spec.name}@{seed}"] = _sha(document)
    return digests


def sweep_digest(experiment: HARExperiment) -> Dict[str, str]:
    """A traced two-seed paper-grid sweep: results, stream and metrics."""
    obs = Observability()
    result = PolicySweep(experiment, n_seeds=2).run(paper_policy_grid(), seed=5, obs=obs)
    policies = [[name, run_document(run)] for name, run in result.policies.items()]
    baselines = [
        [name, base.true_labels.tolist(), base.predicted_labels.tolist()]
        for name, base in result.baselines.items()
    ]
    return {
        "results": _sha([policies, baselines]),
        "events": _sha(events_document(obs.tracer.events)),
        "metrics": _sha(obs.metrics.deterministic_dict()),
        "n_events": str(len(obs.tracer)),
    }


def _golden_path(dataset: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{dataset}.json")


def _load(dataset: str) -> Dict[str, Any]:
    with open(_golden_path(dataset)) as handle:
        return json.load(handle)


def build_experiments() -> Dict[str, HARExperiment]:
    """The golden deployments, built from the shared tiny fixtures' recipes."""
    from tests.conftest import (
        make_tiny_dataset,
        make_tiny_pamap2_dataset,
        train_tiny_bundle,
        train_tiny_pamap2_bundle,
    )

    mhealth = make_tiny_dataset()
    pamap2 = make_tiny_pamap2_dataset()
    return _experiments(
        mhealth, train_tiny_bundle(mhealth), pamap2, train_tiny_pamap2_bundle(pamap2)
    )


def _experiments(mhealth, mhealth_bundle, pamap2, pamap2_bundle) -> Dict[str, HARExperiment]:
    config = SimulationConfig(n_windows=N_WINDOWS)
    return {
        "mhealth": HARExperiment(mhealth, mhealth_bundle, config=config, seed=3),
        "pamap2": HARExperiment(pamap2, pamap2_bundle, config=config, seed=2),
    }


def regenerate() -> None:
    """Recompute and rewrite every golden file (run by hand, see module doc)."""
    experiments = build_experiments()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for dataset in experiments:
        document: Dict[str, Any] = {
            _case_id(*case): case_digests(experiments, dataset, case) for case in CASES
        }
        document["sweep"] = sweep_digest(experiments[dataset])
        with open(_golden_path(dataset), "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_experiments(tiny_dataset, tiny_bundle, tiny_pamap2_dataset, tiny_pamap2_bundle):
    return _experiments(tiny_dataset, tiny_bundle, tiny_pamap2_dataset, tiny_pamap2_bundle)


@pytest.mark.parametrize("dataset", ["mhealth", "pamap2"])
@pytest.mark.parametrize("case", CASES, ids=lambda case: _case_id(*case))
def test_run_digests(golden_experiments, dataset, case):
    expected = _load(dataset)[_case_id(*case)]
    actual = case_digests(golden_experiments, dataset, case)
    mismatched = sorted(key for key in expected if actual.get(key) != expected[key])
    assert actual.keys() == expected.keys()
    assert not mismatched, f"digests moved for {mismatched}"


@pytest.mark.parametrize("dataset", ["mhealth", "pamap2"])
def test_traced_sweep_digest(golden_experiments, dataset):
    assert sweep_digest(golden_experiments[dataset]) == _load(dataset)["sweep"]
