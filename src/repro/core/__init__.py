"""The paper's contribution: scheduling + adaptive ensemble learning.

* :mod:`repro.core.scheduling` — naive, extended round-robin (RR3..RR12)
  and activity-aware scheduling (AAS) with the per-activity rank table;
* :mod:`repro.core.ensemble` — the variance-of-softmax confidence
  matrix that confidence-weighted voting reads;
* :mod:`repro.core.engine` — the host-side decision core (scheduling,
  recall memory, majority or confidence-weighted vote, adaptation);
* :mod:`repro.core.policies` — complete system configurations
  (RR / AAS / AASR / Origin) and the two fully-powered baselines.
"""

from repro.core.engine import DecisionEngine, NodeSlotState, SessionEngine
from repro.core.ensemble import ConfidenceMatrix
from repro.core.scheduling import (
    ActivityAwareScheduler,
    ExtendedRoundRobin,
    NaiveAllOn,
    RankTable,
    SchedulingContext,
    SchedulingPolicy,
)
from repro.core.policies import (
    AggregationMode,
    Baseline1,
    Baseline2,
    OriginPolicy,
    PolicySpec,
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)

__all__ = [
    "DecisionEngine",
    "NodeSlotState",
    "SessionEngine",
    "ConfidenceMatrix",
    "ActivityAwareScheduler",
    "ExtendedRoundRobin",
    "NaiveAllOn",
    "RankTable",
    "SchedulingContext",
    "SchedulingPolicy",
    "AggregationMode",
    "Baseline1",
    "Baseline2",
    "OriginPolicy",
    "PolicySpec",
    "aas_policy",
    "aasr_policy",
    "naive_policy",
    "origin_policy",
    "rr_policy",
]
