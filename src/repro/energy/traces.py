"""Synthetic WiFi RF harvesting power traces.

The paper uses "a real power trace harvested from a WiFi source while
doing various day to day tasks in an office environment" (§IV-A).  That
trace is not redistributable, so this module generates statistically
similar ones: a semi-Markov office model alternates between QUIET
(ambient beacons only), ACTIVE (normal traffic) and BURST (heavy
transfer nearby) states, and per-sample log-normal fading adds the fast
variation RF harvesting exhibits.  Multiple nodes in the same office
share the *state* sequence (their bursts coincide) but fade
independently and have location-dependent gains — exactly the
correlation structure that makes the paper's Fig. 1a "all three succeed"
case rare but not impossible.

Power levels are tens-of-microwatt scale, the published regime for
indoor WiFi energy harvesting, which puts one pruned CNN inference
(~100 uJ) at several harvesting slots — the operating point where
scheduling matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, EnergyModelError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive


class OfficeState(enum.Enum):
    """RF environment regimes."""

    QUIET = "quiet"
    ACTIVE = "active"
    BURST = "burst"


@dataclass(frozen=True)
class PowerTrace:
    """A uniformly sampled harvested-power series.

    Attributes
    ----------
    dt_s:
        Sampling interval in seconds.
    watts:
        Harvested power at each sample.
    """

    dt_s: float
    watts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "watts", np.asarray(self.watts, dtype=np.float64))
        if self.dt_s <= 0:
            raise EnergyModelError(f"dt_s must be positive, got {self.dt_s}")
        if self.watts.ndim != 1 or self.watts.size == 0:
            raise EnergyModelError("watts must be a non-empty 1-D array")
        if np.any(self.watts < 0):
            raise EnergyModelError("power cannot be negative")

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return self.dt_s * self.watts.size

    @property
    def average_power_w(self) -> float:
        """Mean harvested power over the whole trace."""
        return float(self.watts.mean())

    def energy_between(self, t0_s: float, t1_s: float) -> float:
        """Joules harvested in ``[t0, t1)`` (rectangle rule, clamped)."""
        if t1_s < t0_s:
            raise EnergyModelError(f"t1 ({t1_s}) must be >= t0 ({t0_s})")
        energy = 0.0
        for index, overlap in _overlaps(self.dt_s, self.watts.size, t0_s, t1_s):
            energy += self.watts[index] * overlap
        return energy

    def slot_energy(self, slot_index: int, slot_duration_s: float) -> float:
        """Joules harvested during scheduling slot ``slot_index``."""
        if slot_index < 0:
            raise EnergyModelError(f"slot_index must be >= 0, got {slot_index}")
        start = slot_index * slot_duration_s
        return self.energy_between(start, start + slot_duration_s)

    def slot_energies(
        self, slot_duration_s: float, *, n_slots: Optional[int] = None
    ) -> np.ndarray:
        """Vector of per-slot harvested joules for the whole trace.

        With ``n_slots`` the vector is truncated or zero-padded to
        exactly that length — the scan-friendly form the slot kernel
        consumes.  Slots beyond the trace harvest exactly 0.0 J.  See
        :func:`slot_energies`.
        """
        return slot_energies(self.watts, self.dt_s, slot_duration_s, n_slots=n_slots)

    def segment(self, t0_s: float, t1_s: float) -> "PowerTrace":
        """The sub-trace covering ``[t0, t1)``."""
        first = int(max(t0_s, 0.0) / self.dt_s)
        last = int(min(t1_s, self.duration_s) / self.dt_s)
        if last <= first:
            raise EnergyModelError("empty segment requested")
        return PowerTrace(self.dt_s, self.watts[first:last].copy())


def _overlaps(
    dt_s: float, n_samples: int, t0_s: float, t1_s: float
) -> List[Tuple[int, float]]:
    """``(sample, seconds)`` of every sample overlapping ``[t0, t1)``, in order.

    The interval is clamped to the trace's ``n_samples * dt_s`` seconds.
    """
    start = max(t0_s, 0.0)
    stop = min(t1_s, dt_s * n_samples)
    if stop <= start:
        return []
    first = int(start / dt_s)
    last = int(np.ceil(stop / dt_s))
    spans = []
    for index in range(first, min(last, n_samples)):
        sample_start = index * dt_s
        overlap = min(stop, sample_start + dt_s) - max(start, sample_start)
        if overlap > 0:
            spans.append((index, overlap))
    return spans


def slot_energies(
    watts: np.ndarray,
    dt_s: float,
    slot_duration_s: float,
    *,
    n_slots: Optional[int] = None,
    efficiency: float = 1.0,
    gain: float = 1.0,
    supplemental_w: float = 0.0,
) -> np.ndarray:
    """Per-slot delivered joules along the last axis of ``watts``.

    The simulator's one slot arithmetic: a trace's
    (:meth:`PowerTrace.slot_energies`), a harvester's
    (:meth:`~repro.energy.harvester.Harvester.slot_energies`) and a
    kernel batch's ``(setups, nodes, samples)`` block of harvest rows.
    Each slot sums its ``slot_duration_s / dt_s`` samples times
    ``dt_s`` — by exact overlap integration when a slot is not a whole
    number of samples — then scales by ``efficiency`` and ``gain`` and
    adds the ``supplemental_w`` trickle (a scalar, or an array that
    broadcasts against the leading axes: one trickle per setup of a
    batch).  Only whole slots inside the trace count.  With ``n_slots``
    the last axis is truncated or zero-padded to that length; padded
    slots deliver exactly 0.0 J, trickle included.  A row's floats do
    not depend on the rows beside it.
    """
    check_positive("slot_duration_s", slot_duration_s)
    watts = np.asarray(watts, dtype=np.float64)
    n_samples = watts.shape[-1]
    samples_per_slot = slot_duration_s / dt_s
    rounded = int(round(samples_per_slot))
    if rounded < 1 or abs(samples_per_slot - rounded) > 1e-9:
        covered = int(dt_s * n_samples // slot_duration_s)
        vec = np.zeros(watts.shape[:-1] + (covered,))
        for slot in range(covered):
            start = slot * slot_duration_s
            for index, overlap in _overlaps(
                dt_s, n_samples, start, start + slot_duration_s
            ):
                vec[..., slot] += watts[..., index] * overlap
    else:
        covered = n_samples // rounded
        trimmed = watts[..., : covered * rounded]
        vec = trimmed.reshape(watts.shape[:-1] + (covered, rounded)).sum(axis=-1) * dt_s
    vec = vec * efficiency * gain + supplemental_w * slot_duration_s
    if n_slots is None:
        return vec
    if n_slots < 0:
        raise EnergyModelError(f"n_slots must be >= 0, got {n_slots}")
    if covered >= n_slots:
        return vec[..., :n_slots].copy()
    out = np.zeros(vec.shape[:-1] + (n_slots,))
    out[..., :covered] = vec
    return out


@dataclass(frozen=True)
class _StateParams:
    mean_power_w: float
    mean_dwell_s: float


class PowerTraceGenerator:
    """Office-environment WiFi RF trace generator.

    Parameters
    ----------
    state_power_w:
        Mean harvested power per office state.
    state_dwell_s:
        Mean dwell time per state (exponential).
    fading_sigma:
        Log-normal fading sigma per sample (mean-one fading).
    dt_s:
        Sample interval.

    Defaults give an average of roughly 30 uW with a heavily skewed
    distribution (median well below the mean), matching the published
    character of indoor WiFi harvesting.
    """

    DEFAULT_POWER_W: Dict[OfficeState, float] = {
        OfficeState.QUIET: 4e-6,
        OfficeState.ACTIVE: 30e-6,
        OfficeState.BURST: 120e-6,
    }
    DEFAULT_DWELL_S: Dict[OfficeState, float] = {
        OfficeState.QUIET: 40.0,
        OfficeState.ACTIVE: 18.0,
        OfficeState.BURST: 5.0,
    }

    def __init__(
        self,
        state_power_w: Optional[Dict[OfficeState, float]] = None,
        state_dwell_s: Optional[Dict[OfficeState, float]] = None,
        *,
        fading_sigma: float = 0.7,
        dt_s: float = 0.32,
    ) -> None:
        power = dict(self.DEFAULT_POWER_W)
        power.update(state_power_w or {})
        dwell = dict(self.DEFAULT_DWELL_S)
        dwell.update(state_dwell_s or {})
        for state in OfficeState:
            if power[state] < 0:
                raise ConfigurationError(f"power for {state} must be >= 0")
            check_positive(f"dwell for {state}", dwell[state])
        if fading_sigma < 0:
            raise ConfigurationError(f"fading_sigma must be >= 0, got {fading_sigma}")
        self._params = {
            state: _StateParams(power[state], dwell[state]) for state in OfficeState
        }
        self.fading_sigma = float(fading_sigma)
        self.dt_s = check_positive("dt_s", dt_s)

    # ------------------------------------------------------------------

    def _dwell_runs(
        self, duration_s: float, rng: np.random.Generator
    ) -> Tuple[List[Tuple[OfficeState, int]], int]:
        """The semi-Markov walk as ``(state, n_samples)`` dwell runs.

        Returns the runs and the trace's sample count; the runs cover at
        least that many samples (the last one may overhang).
        """
        check_positive("duration_s", duration_s)
        n_samples = int(np.ceil(duration_s / self.dt_s))
        runs: List[Tuple[OfficeState, int]] = []
        covered = 0
        all_states = list(OfficeState)
        current = OfficeState.QUIET
        while covered < n_samples:
            dwell_s = rng.exponential(self._params[current].mean_dwell_s)
            n_dwell = max(int(round(dwell_s / self.dt_s)), 1)
            runs.append((current, n_dwell))
            covered += n_dwell
            others = [state for state in all_states if state is not current]
            current = others[int(rng.integers(len(others)))]
        return runs, n_samples

    def state_sequence(self, duration_s: float, seed: SeedLike = None) -> List[OfficeState]:
        """Per-sample office state over ``duration_s`` seconds."""
        runs, n_samples = self._dwell_runs(duration_s, as_generator(seed))
        states: List[OfficeState] = []
        for state, n_dwell in runs:
            states.extend([state] * n_dwell)
        return states[:n_samples]

    def _base_power(self, duration_s: float, rng: np.random.Generator) -> np.ndarray:
        """Per-sample mean power of the office state, one dwell run at a time."""
        runs, n_samples = self._dwell_runs(duration_s, rng)
        levels = np.array([self._params[state].mean_power_w for state, _ in runs])
        lengths = np.array([n_dwell for _, n_dwell in runs])
        return np.repeat(levels, lengths)[:n_samples]

    def _fade(self, rng: np.random.Generator, n_samples: int) -> np.ndarray:
        if self.fading_sigma == 0:
            return np.ones(n_samples)
        # Mean-one log-normal fading.
        mu = -0.5 * self.fading_sigma**2
        return rng.lognormal(mu, self.fading_sigma, size=n_samples)

    def generate(
        self, duration_s: float, seed: SeedLike = None, *, gain: float = 1.0
    ) -> PowerTrace:
        """One independent trace."""
        rng = as_generator(seed)
        base = self._base_power(duration_s, rng)
        return PowerTrace(self.dt_s, base * self._fade(rng, base.size) * gain)

    def generate_correlated(
        self,
        duration_s: float,
        gains: Sequence[float],
        seed: SeedLike = None,
    ) -> List[PowerTrace]:
        """One trace per gain, sharing the office-state sequence.

        Nodes on the same body in the same office see the same bursts at
        the same times, but fade independently — the correlation that
        shapes the paper's Fig. 1a breakdown.
        """
        if not gains:
            raise ConfigurationError("gains must be non-empty")
        if any(g < 0 for g in gains):
            raise ConfigurationError("gains must be >= 0")
        rng = as_generator(seed)
        base = self._base_power(duration_s, rng)
        return [
            PowerTrace(self.dt_s, base * self._fade(rng, base.size) * gain)
            for gain in gains
        ]

    def expected_average_power_w(self) -> float:
        """Analytic long-run mean power (fading is mean-one)."""
        total_dwell = sum(p.mean_dwell_s for p in self._params.values())
        return sum(
            p.mean_power_w * p.mean_dwell_s / total_dwell for p in self._params.values()
        )
