"""Per-subject gait variation.

The paper's Fig. 6 experiment relies on *previously unseen users* whose
"gaits ... may significantly vary" from the training data.  A
:class:`SubjectProfile` is a lightweight transform applied on top of the
(location, activity) signature: frequency and amplitude scaling, a phase
offset, per-channel gains and an extra noise factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.datasets.profiles import N_CHANNELS
from repro.errors import DatasetError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class SubjectProfile:
    """One person's deviation from the canonical signatures.

    Attributes
    ----------
    subject_id:
        Stable identifier (used in reports and seeding).
    frequency_scale:
        Multiplies every signature's fundamental (fast/slow walkers).
    amplitude_scale:
        Multiplies every movement amplitude (vigorous/subtle movers).
    phase_offset:
        Constant phase added to all oscillators, in radians.
    channel_gains:
        Per-channel multiplicative gain (sensor mounting variation),
        length :data:`~repro.datasets.profiles.N_CHANNELS`; any sequence,
        kept as a tuple so the profile is hashable.
    noise_factor:
        Multiplies the location's sensor-noise sigma.
    """

    subject_id: int
    frequency_scale: float = 1.0
    amplitude_scale: float = 1.0
    phase_offset: float = 0.0
    channel_gains: Tuple[float, ...] = (1.0,) * N_CHANNELS
    noise_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel_gains", tuple(self.channel_gains))
        if self.frequency_scale <= 0 or self.amplitude_scale <= 0:
            raise DatasetError("frequency_scale and amplitude_scale must be positive")
        if len(self.channel_gains) != N_CHANNELS:
            raise DatasetError(f"channel_gains must have {N_CHANNELS} entries")
        if any(gain <= 0 for gain in self.channel_gains):
            raise DatasetError("channel_gains must be positive")
        if self.noise_factor < 0:
            raise DatasetError("noise_factor must be non-negative")

    @staticmethod
    def canonical(subject_id: int = 0) -> "SubjectProfile":
        """The identity transform — exactly the canonical signatures."""
        return SubjectProfile(subject_id=subject_id)


def sample_subjects(
    count: int,
    seed: SeedLike = None,
    *,
    variability: float = 1.0,
    first_id: int = 0,
) -> List[SubjectProfile]:
    """Draw ``count`` random subjects.

    ``variability`` scales how far subjects stray from canonical: 1.0
    matches the spread used for training populations; Fig. 6's "unseen
    users" use a larger value so their data is meaningfully out of
    distribution.
    """
    if count < 0:
        raise DatasetError(f"count must be >= 0, got {count}")
    if variability < 0:
        raise DatasetError(f"variability must be >= 0, got {variability}")
    rng = as_generator(seed)
    subjects = []
    for index in range(count):
        freq = float(np.exp(rng.normal(0.0, 0.05 * variability)))
        amp = float(np.exp(rng.normal(0.0, 0.10 * variability)))
        phase = float(rng.uniform(-np.pi, np.pi))
        gains = tuple(np.exp(rng.normal(0.0, 0.06 * variability, size=N_CHANNELS)))
        noise = float(np.exp(rng.normal(0.0, 0.15 * variability)))
        subjects.append(
            SubjectProfile(
                subject_id=first_id + index,
                frequency_scale=freq,
                amplitude_scale=amp,
                phase_offset=phase,
                channel_gains=gains,
                noise_factor=noise,
            )
        )
    return subjects
