"""Population-scale cohort simulation (``repro.fleet``).

The paper evaluates one subject at a time; a deployment serves
thousands.  This package answers "what does the *population* see?" by
sampling reproducible cohorts of heterogeneous users over the
deployment knobs of :class:`~repro.sim.experiment.SimulationConfig`
and driving them through the vectorized slot kernel at fleet scale:

* :mod:`repro.fleet.spec` — :class:`CohortSpec`: per-user parameter
  distributions; user ``i`` samples identically on any shard layout.
* :mod:`repro.fleet.runner` — :class:`FleetRunner`: kernel
  mega-batching (one :class:`~repro.sim.kernel.BatchGroup` per user,
  one kernel per shard), supervised multi-process sharding
  with journal checkpoint/resume, and the users/second headline.
* :mod:`repro.fleet.aggregate` — exact, order-invariant streaming
  statistics (:class:`ExactSum`, :class:`FleetDistribution`,
  :class:`FleetAggregate`) in ``O(bins)`` memory.

Quick start::

    from repro.fleet import CohortSpec, FleetRunner
    from repro.sim import HARExperiment

    experiment = HARExperiment.standard_mhealth(seed=7)
    spec = CohortSpec(size=10_000, seed=42, base=experiment.config)
    result = FleetRunner(experiment, spec, shard_size=512).run(workers=4)
    print(result.summary())

Command line: ``python -m repro.fleet run --users 10000``.
"""

from repro.fleet.aggregate import (
    DEFAULT_QUANTILES,
    ExactSum,
    FleetAggregate,
    FleetDistribution,
)
from repro.fleet.runner import (
    FleetResult,
    FleetRunner,
    default_metric_bounds,
    fleet_fingerprint,
    shard_aggregate,
    shard_cell,
    simulate_users,
    user_metrics,
)
from repro.fleet.spec import CohortSpec, ParameterDist, UserSpec

__all__ = [
    "CohortSpec",
    "ParameterDist",
    "UserSpec",
    "ExactSum",
    "FleetDistribution",
    "FleetAggregate",
    "DEFAULT_QUANTILES",
    "FleetRunner",
    "FleetResult",
    "default_metric_bounds",
    "user_metrics",
    "simulate_users",
    "shard_aggregate",
    "fleet_fingerprint",
    "shard_cell",
]
