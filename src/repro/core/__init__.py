"""The paper's contribution: scheduling + adaptive ensemble learning.

* :mod:`repro.core.scheduling` — naive, extended round-robin (RR3..RR12)
  and activity-aware scheduling (AAS) with the per-activity rank table;
* :mod:`repro.core.ensemble` — majority voting, the variance-of-softmax
  confidence matrix, and confidence-weighted voting;
* :mod:`repro.core.policies` — complete system configurations
  (RR / AAS / AASR / Origin) and the two fully-powered baselines.
"""

from repro.core.engine import DecisionEngine, NodeSlotState, SessionEngine, make_vote
from repro.core.ensemble import (
    ConfidenceMatrix,
    MajorityVote,
    WeightedMajorityVote,
)
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
    "make_vote",
    "ConfidenceMatrix",
    "MajorityVote",
    "WeightedMajorityVote",
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
