"""Cohort specification: who the fleet's simulated users are.

A :class:`CohortSpec` describes a population of heterogeneous subjects
as per-user distributions over the deployment knobs of
:class:`~repro.sim.experiment.SimulationConfig` — harvester gains per
body location, activity dwell, trace intensity, capacitor sizing and
battery supplement.  User ``i`` is a pure function of ``(spec, i)``:
its draws come from a dedicated RNG stream labelled ``user/<i>`` under
the cohort seed, so the sampled config is identical no matter how the
cohort is sharded, ordered or resumed.

Timelines (the activity sequence a user lives through) are drawn from a
small pool of ``n_timelines`` run seeds.  Together with a *discrete*
dwell distribution this bounds the number of distinct
:class:`~repro.sim.predcache.RunMaterial` builds per worker to
``n_timelines x |dwell support|`` — the expensive part of a user is the
window/logit material, and the fleet layer shares it across everyone
on the same (timeline, dwell) pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.datasets.body import BodyLocation
from repro.errors import ConfigurationError
from repro.sim.experiment import SimulationConfig
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ParameterDist", "UserSpec", "CohortSpec"]

_KINDS = ("constant", "uniform", "loguniform", "normal", "lognormal", "choice")


@dataclass(frozen=True)
class ParameterDist:
    """One per-user sampling rule for a scalar deployment knob.

    Construct via the classmethods (``ParameterDist.uniform(lo, hi)``,
    ...); ``sample(rng)`` consumes a fixed number of draws from ``rng``
    so the cohort's per-user draw order stays stable when other knobs'
    distributions change kind.

    ``low``/``high`` clip ``normal``/``lognormal`` draws (rejection
    would consume a data-dependent number of draws and break stream
    stability).
    """

    kind: str
    value: float = 0.0
    low: Optional[float] = None
    high: Optional[float] = None
    mean: float = 0.0
    sigma: float = 1.0
    choices: Tuple[float, ...] = ()
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown distribution kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind in ("uniform", "loguniform"):
            if self.low is None or self.high is None:
                raise ConfigurationError(f"{self.kind} requires low and high bounds")
            if not self.low < self.high:
                raise ConfigurationError(
                    f"{self.kind} requires low < high, got [{self.low}, {self.high}]"
                )
            if self.kind == "loguniform" and self.low <= 0:
                raise ConfigurationError(
                    f"loguniform requires low > 0, got {self.low}"
                )
        if self.kind in ("normal", "lognormal") and self.sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "choice":
            if not self.choices:
                raise ConfigurationError("choice requires at least one value")
            if self.weights is not None:
                if len(self.weights) != len(self.choices):
                    raise ConfigurationError(
                        f"{len(self.weights)} weight(s) for "
                        f"{len(self.choices)} choice(s)"
                    )
                if any(w < 0 for w in self.weights) or not sum(self.weights) > 0:
                    raise ConfigurationError("weights must be >= 0 with a positive sum")
        if (
            self.low is not None
            and self.high is not None
            and self.kind in ("normal", "lognormal")
            and not self.low <= self.high
        ):
            raise ConfigurationError(
                f"clip bounds require low <= high, got [{self.low}, {self.high}]"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "ParameterDist":
        """Every user gets ``value``."""
        return cls(kind="constant", value=float(value))

    @classmethod
    def uniform(cls, low: float, high: float) -> "ParameterDist":
        """Uniform on ``[low, high)``."""
        return cls(kind="uniform", low=float(low), high=float(high))

    @classmethod
    def loguniform(cls, low: float, high: float) -> "ParameterDist":
        """Log-uniform on ``[low, high)`` (decades equally likely)."""
        return cls(kind="loguniform", low=float(low), high=float(high))

    @classmethod
    def normal(
        cls,
        mean: float,
        sigma: float,
        *,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "ParameterDist":
        """Gaussian, optionally clipped to ``[low, high]``."""
        return cls(
            kind="normal",
            mean=float(mean),
            sigma=float(sigma),
            low=None if low is None else float(low),
            high=None if high is None else float(high),
        )

    @classmethod
    def lognormal(
        cls,
        mean: float,
        sigma: float,
        *,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "ParameterDist":
        """``exp(Normal(mean, sigma))``, optionally clipped.

        ``lognormal(0.0, s)`` is a multiplicative spread around 1 — the
        natural shape for gain/intensity heterogeneity.
        """
        return cls(
            kind="lognormal",
            mean=float(mean),
            sigma=float(sigma),
            low=None if low is None else float(low),
            high=None if high is None else float(high),
        )

    @classmethod
    def choice(
        cls,
        choices: Tuple[float, ...],
        weights: Optional[Tuple[float, ...]] = None,
    ) -> "ParameterDist":
        """Discrete distribution over ``choices`` (uniform by default)."""
        return cls(
            kind="choice",
            choices=tuple(float(c) for c in choices),
            weights=None if weights is None else tuple(float(w) for w in weights),
        )

    # -- sampling -------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> float:
        """One draw.  Constants consume no stream state."""
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "loguniform":
            return float(
                math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
            )
        if self.kind == "normal":
            drawn = float(rng.normal(self.mean, self.sigma))
        elif self.kind == "lognormal":
            drawn = float(math.exp(rng.normal(self.mean, self.sigma)))
        else:  # choice
            if self.weights is None:
                index = int(rng.integers(0, len(self.choices)))
            else:
                total = sum(self.weights)
                probabilities = [w / total for w in self.weights]
                index = int(rng.choice(len(self.choices), p=probabilities))
            return self.choices[index]
        if self.low is not None:
            drawn = max(drawn, self.low)
        if self.high is not None:
            drawn = min(drawn, self.high)
        return drawn

    @property
    def support(self) -> Optional[Tuple[float, ...]]:
        """The finite set of reachable values, or ``None`` (continuous)."""
        if self.kind == "constant":
            return (self.value,)
        if self.kind == "choice":
            return self.choices
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for fingerprints and run metadata."""
        return asdict(self)


@dataclass(frozen=True)
class UserSpec:
    """One sampled cohort member: who they are and how their nodes run.

    ``seed`` selects the activity timeline (shared with every user on
    the same timeline slot); ``config`` carries the five sampled knobs
    on top of the cohort's base :class:`SimulationConfig`.
    """

    index: int
    seed: int
    config: SimulationConfig

    @property
    def material_key(self) -> Tuple[int, float]:
        """The ``(seed, dwell)`` pair keying this user's run material."""
        return (self.seed, self.config.dwell_scale)


def _default_node_gain() -> ParameterDist:
    return ParameterDist.lognormal(0.0, 0.25, low=0.3, high=3.0)


def _default_dwell() -> ParameterDist:
    return ParameterDist.choice((2.5, 3.5, 5.0))


def _default_trace_scale() -> ParameterDist:
    return ParameterDist.lognormal(0.0, 0.2, low=0.4, high=2.5)


def _default_capacity() -> ParameterDist:
    return ParameterDist.loguniform(60e-6, 160e-6)


def _default_supplement() -> ParameterDist:
    return ParameterDist.constant(0.0)


@dataclass(frozen=True)
class CohortSpec:
    """A reproducible population over ``SimulationConfig`` knobs.

    The defaults model a plausible deployment spread around the paper's
    operating point: per-location harvester gains and trace intensity
    log-normal around 1, activity dwell drawn from slow/nominal/fast,
    capacitor sizing log-uniform around 100 uJ, no battery supplement.

    ``user(i)`` is shard-layout-independent: every user owns the RNG
    stream ``user/<i>`` under ``seed`` and draws its knobs in one fixed
    documented order (dwell, trace scale, capacity, supplement, then
    one gain per :class:`BodyLocation` in enum definition order).
    """

    size: int
    seed: int = 0
    base: SimulationConfig = field(default_factory=SimulationConfig)
    n_timelines: int = 4
    node_gain: ParameterDist = field(default_factory=_default_node_gain)
    dwell_scale: ParameterDist = field(default_factory=_default_dwell)
    trace_scale: ParameterDist = field(default_factory=_default_trace_scale)
    capacitor_capacity_j: ParameterDist = field(default_factory=_default_capacity)
    battery_supplement_w: ParameterDist = field(default_factory=_default_supplement)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError(f"cohort size must be >= 1, got {self.size}")
        if self.n_timelines < 1:
            raise ConfigurationError(
                f"n_timelines must be >= 1, got {self.n_timelines}"
            )
        dwell_support = self.dwell_scale.support
        if dwell_support is not None and not all(
            math.isfinite(d) and d > 0 for d in dwell_support
        ):
            raise ConfigurationError(
                f"dwell_scale support must be finite and positive, got {dwell_support}"
            )

    # ------------------------------------------------------------------

    def timeline_seeds(self) -> Tuple[int, ...]:
        """The run-seed pool users cycle through (``i % n_timelines``)."""
        factory = SeedSequenceFactory(self.seed)
        return tuple(
            int(value)
            for value in factory.integers("fleet/timelines", self.n_timelines)
        )

    def user(self, index: int) -> UserSpec:
        """Sample cohort member ``index`` — identical on every shard."""
        if not 0 <= index < self.size:
            raise ConfigurationError(
                f"user index {index} outside cohort of {self.size}"
            )
        return self._user(index, self.timeline_seeds())

    def _user(self, index: int, seeds: Tuple[int, ...]) -> UserSpec:
        rng = SeedSequenceFactory(self.seed).generator(f"user/{index}")
        # Fixed draw order — part of the reproducibility contract.
        dwell = self.dwell_scale.sample(rng)
        trace = self.trace_scale.sample(rng)
        capacity = self.capacitor_capacity_j.sample(rng)
        supplement = self.battery_supplement_w.sample(rng)
        gains = {location: self.node_gain.sample(rng) for location in BodyLocation}
        if dwell <= 0:
            raise ConfigurationError(
                f"sampled dwell_scale must be positive, got {dwell}"
            )
        config = replace(
            self.base,
            dwell_scale=dwell,
            trace_scale=trace,
            capacitor_capacity_j=capacity,
            battery_supplement_w=supplement,
            node_gains=gains,
        )
        return UserSpec(index=index, seed=seeds[index % self.n_timelines], config=config)

    def users(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[UserSpec]:
        """Lazily sample the half-open index range ``[lo, hi)``.

        Equals ``user(i)`` for each index; the timeline-seed pool is
        derived once per call.
        """
        hi = self.size if hi is None else hi
        if not 0 <= lo <= hi <= self.size:
            raise ConfigurationError(
                f"invalid user range [{lo}, {hi}) for cohort of {self.size}"
            )
        seeds = self.timeline_seeds()
        for index in range(lo, hi):
            yield self._user(index, seeds)

    def material_group_bound(self) -> Optional[int]:
        """Upper bound on distinct run-material builds, if finite.

        ``None`` means the dwell distribution is continuous: every user
        then needs its own material and the fleet's material cache works
        as a bounded LRU instead of a full share.
        """
        support = self.dwell_scale.support
        if support is None:
            return None
        return self.n_timelines * len(set(support))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the fleet journal fingerprint."""
        return {
            "size": self.size,
            "seed": self.seed,
            "n_timelines": self.n_timelines,
            "base": asdict(self.base),
            "node_gain": self.node_gain.to_dict(),
            "dwell_scale": self.dwell_scale.to_dict(),
            "trace_scale": self.trace_scale.to_dict(),
            "capacitor_capacity_j": self.capacitor_capacity_j.to_dict(),
            "battery_supplement_w": self.battery_supplement_w.to_dict(),
        }
