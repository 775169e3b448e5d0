"""Raw IMU window synthesis.

Generates fixed-length 6-channel windows (3 accelerometer + 3 gyroscope
axes) for a given activity, body location and subject, following the
signature model in :mod:`repro.datasets.profiles`:

``x_c(t) = gravity_c + A_c * sum_h w_h sin(2*pi*f*h*t + phi_c + phi_s)
          + impacts(t) + sensor noise``

Per-window log-normal amplitude jitter and frequency wobble provide
intra-class variability, so two windows of the same activity are similar
but never identical.

:meth:`SignalSynthesizer.batch` makes each window's random draws in
window order, then the arithmetic for a block of windows at once, so it
equals that many one-window calls bit for bit.  The arithmetic is
elementwise across windows, which lets :meth:`SignalSynthesizer.interleaved`
render a dataset split's windows by subject after drawing them in order,
and lets a run's material render any span of a stream on its own after a
draw-only pass (:meth:`SignalSynthesizer.stream_states`) recorded the
generator state before each window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.datasets.activities import Activity
from repro.datasets.body import BodyLocation
from repro.datasets.profiles import ActivitySignature, N_CHANNELS, SignatureTable
from repro.datasets.subjects import SubjectProfile
from repro.errors import DatasetError
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class StyleWobble:
    """Momentary execution style of the wearer for one window.

    A person does not perform an activity identically from window to
    window — they speed up, slow down, move more or less vigorously.
    Crucially this wobble is a property of the *movement*, so every
    sensor on the body sees the same one at the same time: sampling one
    wobble per window and passing it to all locations produces the
    correlated errors real multi-sensor deployments exhibit (a sloppy
    window is hard for every sensor at once).

    Attributes
    ----------
    amplitude_scale / frequency_scale:
        Multiplicative deviations from the subject's nominal movement.
    """

    amplitude_scale: float = 1.0
    frequency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.amplitude_scale <= 0 or self.frequency_scale <= 0:
            raise DatasetError("style scales must be positive")

    @staticmethod
    def sample(
        rng: np.random.Generator,
        *,
        amplitude_sigma: float = 0.25,
        frequency_sigma: float = 0.06,
    ) -> "StyleWobble":
        """Draw one wobble (log-normal, mean-one scales)."""
        return StyleWobble(
            amplitude_scale=float(np.exp(rng.normal(0.0, amplitude_sigma))),
            frequency_scale=float(np.exp(rng.normal(0.0, frequency_sigma))),
        )

#: Fixed per-axis phase offsets: axes of one rigid segment move with a
#: stable relative phase (e.g. vertical acceleration leads the pitch).
_AXIS_PHASE = np.array([0.0, 1.25, 2.1, 0.6, 1.9, 2.8])

#: Windows per vectorized pass of ``batch``: bounds its float64
#: temporaries (6 KB per window each).
_BLOCK = 64


class SignalSynthesizer:
    """Produces labeled IMU windows from a :class:`SignatureTable`.

    Parameters
    ----------
    signatures:
        Calibrated table from :func:`~repro.datasets.profiles.mhealth_signatures`
        or :func:`~repro.datasets.profiles.pamap2_signatures`.
    sample_rate_hz:
        IMU sampling rate; both real datasets use 50 Hz.
    window_size:
        Samples per window (128 at 50 Hz = 2.56 s, the paper's regime of
        "hundreds of milliseconds to seconds" per activity bout).
    """

    def __init__(
        self,
        signatures: SignatureTable,
        *,
        sample_rate_hz: float = 50.0,
        window_size: int = 128,
    ) -> None:
        if sample_rate_hz <= 0:
            raise DatasetError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
        if window_size < 8:
            raise DatasetError(f"window_size must be >= 8, got {window_size}")
        self.signatures = signatures
        self.sample_rate_hz = float(sample_rate_hz)
        self.window_size = int(window_size)
        self._time = np.arange(self.window_size) / self.sample_rate_hz
        # Render constants, computed on first use: per signature its
        # amplitude and gravity columns, per burst length its decay row.
        self._columns: Dict[ActivitySignature, tuple] = {}
        self._decay: Dict[int, np.ndarray] = {}

    @property
    def window_duration_s(self) -> float:
        """Length of one window in seconds."""
        return self.window_size / self.sample_rate_hz

    def window(
        self,
        activity: Activity,
        location: BodyLocation,
        subject: Optional[SubjectProfile] = None,
        seed: SeedLike = None,
        *,
        style: Optional[StyleWobble] = None,
    ) -> np.ndarray:
        """One window, shape ``(N_CHANNELS, window_size)``, float32.

        Pass the *same* ``style`` for every location of one time window
        to model the shared execution wobble (see :class:`StyleWobble`);
        ``None`` draws an independent wobble per call (fine for
        training data, wrong for simulating one instant on a body).
        """
        return self.batch(
            activity, location, count=1, subject=subject, seed=seed, style=style
        )[0]

    def batch(
        self,
        activity: Activity,
        location: BodyLocation,
        count: int,
        subject: Optional[SubjectProfile] = None,
        seed: SeedLike = None,
        *,
        style: Union[StyleWobble, Sequence[StyleWobble], None] = None,
    ) -> np.ndarray:
        """``count`` windows, shape ``(count, N_CHANNELS, window_size)``.

        ``style`` is one wobble for every window, a sequence of one
        wobble per window, or ``None`` to draw one per window.
        """
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        styles = [style] * count if style is None or isinstance(style, StyleWobble) else style
        if len(styles) != count:
            raise DatasetError(f"got {len(styles)} styles for {count} windows")
        rng = as_generator(seed)
        subject = subject or SubjectProfile.canonical()
        signature = self.signatures.signature(location, activity)
        noise_sigma = self.signatures.noise(location) * subject.noise_factor

        windows = np.empty((count, N_CHANNELS, self.window_size), dtype=np.float32)
        for lo in range(0, count, _BLOCK):
            windows[lo : lo + _BLOCK] = self._block(
                signature, subject, noise_sigma, styles[lo : lo + _BLOCK], rng
            )
        return windows

    def stream(
        self,
        activities: Sequence[Activity],
        location: BodyLocation,
        subject: Optional[SubjectProfile] = None,
        seed: SeedLike = None,
        *,
        styles: Sequence[StyleWobble],
    ) -> np.ndarray:
        """One window per slot of an activity timeline, with the slot's style.

        Each dwell run (consecutive slots of one activity) is one
        :meth:`batch` call, so the stream equals a :meth:`window` call
        per slot, in slot order, on one generator.
        """
        if len(styles) != len(activities):
            raise DatasetError(f"got {len(styles)} styles for {len(activities)} slots")
        rng = as_generator(seed)
        stream = np.empty((len(activities), N_CHANNELS, self.window_size), dtype=np.float32)
        start = 0
        for activity, run in groupby(activities):
            stop = start + len(list(run))
            stream[start:stop] = self.batch(
                activity, location, count=stop - start, subject=subject, seed=rng,
                style=styles[start:stop],
            )
            start = stop
        return stream

    def stream_states(
        self,
        activities: Sequence[Activity],
        location: BodyLocation,
        subject: Optional[SubjectProfile] = None,
        seed: SeedLike = None,
        *,
        styles: Sequence[StyleWobble],
    ) -> List[dict]:
        """The generator state before each slot's window of :meth:`stream`.

        Makes every draw of the stream in slot order and none of its
        arithmetic, so the generator ends where :meth:`stream` leaves
        it.  Restoring state ``i`` and calling :meth:`batch` for slots
        ``i..j`` of one dwell run renders exactly those slots' windows.
        """
        if len(styles) != len(activities):
            raise DatasetError(f"got {len(styles)} styles for {len(activities)} slots")
        rng = as_generator(seed)
        subject = subject or SubjectProfile.canonical()
        noise_sigma = self.signatures.noise(location) * subject.noise_factor
        states: List[dict] = []
        start = 0
        for activity, run in groupby(activities):
            stop = start + len(list(run))
            signature = self.signatures.signature(location, activity)
            self._draws(signature, subject, noise_sigma, styles[start:stop], rng, states=states)
            start = stop
        return states

    def interleaved(
        self,
        activity: Activity,
        location: BodyLocation,
        subjects: Sequence[SubjectProfile],
        count: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """``count`` windows, window ``i`` performed by ``subjects[i % len(subjects)]``.

        Equals ``count`` :meth:`window` calls in window order on one
        generator (each drawing its own wobble): the draws run in that
        order, then each subject's windows are rendered together.
        """
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        if not subjects:
            raise DatasetError("subjects must be non-empty")
        rng = as_generator(seed)
        signature = self.signatures.signature(location, activity)
        sigmas = [self.signatures.noise(location) * subject.noise_factor for subject in subjects]
        noise = np.empty((count, N_CHANNELS, self.window_size))
        draws = []
        for index in range(count):
            k = index % len(subjects)
            buffer = noise[index : index + 1] if sigmas[k] > 0 else None
            draws += self._draws(signature, subjects[k], sigmas[k], [None], rng, buffer)
        windows = np.empty((count, N_CHANNELS, self.window_size), dtype=np.float32)
        for k, subject in enumerate(subjects):
            rows = np.arange(k, count, len(subjects))
            for lo in range(0, len(rows), _BLOCK):
                block = rows[lo : lo + _BLOCK]
                windows[block] = self._render(
                    signature,
                    subject,
                    [draws[index] for index in block],
                    noise[block] if sigmas[k] > 0 else None,
                )
        return windows

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _block(
        self,
        signature: ActivitySignature,
        subject: SubjectProfile,
        noise_sigma: float,
        styles: Sequence[Optional[StyleWobble]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One window per style: every random draw window by window, then
        the arithmetic over the block in the one-window operation order."""
        noise = np.empty((len(styles), N_CHANNELS, self.window_size)) if noise_sigma > 0 else None
        draws = self._draws(signature, subject, noise_sigma, styles, rng, noise)
        return self._render(signature, subject, draws, noise)

    def _draws(
        self,
        signature: ActivitySignature,
        subject: SubjectProfile,
        noise_sigma: float,
        styles: Sequence[Optional[StyleWobble]],
        rng: np.random.Generator,
        noise: Optional[np.ndarray] = None,
        states: Optional[list] = None,
    ) -> list:
        """Every random draw of one window per style, in window order.

        Returns one ``(freq, amp_scale, window_phase, start,
        period_samples, scales)`` tuple per window.  With
        ``noise_sigma > 0`` the sensor noise goes to ``noise[index]``
        (drawn and dropped when ``noise`` is ``None``); ``states``
        collects the generator state before each window's draws.
        """
        jitter = signature.jitter
        draws = []
        dropped = np.empty((N_CHANNELS, self.window_size)) if noise is None and noise_sigma > 0 else None
        for index, style in enumerate(styles):
            if states is not None:
                states.append(rng.bit_generator.state)
            style = style if style is not None else StyleWobble.sample(rng)
            freq = (
                signature.frequency_hz
                * subject.frequency_scale
                * style.frequency_scale
                * float(np.exp(rng.normal(0.0, 0.03 + 0.25 * jitter)))
            )
            amp_scale = (
                subject.amplitude_scale
                * style.amplitude_scale
                * float(np.exp(rng.normal(0.0, jitter)))
            )
            window_phase = float(rng.uniform(0.0, 2.0 * np.pi)) + subject.phase_offset
            # Impact train: a start sample, then one log-normal scale per burst.
            period_samples = max(int(self.sample_rate_hz / max(freq, 1e-3)), 2)
            start, scales = 0, []
            if signature.impact > 0:
                start = int(rng.integers(0, period_samples))
                n_bursts = len(range(start, self.window_size, period_samples))
                amplitude = signature.impact * amp_scale
                scales = [amplitude * float(np.exp(z)) for z in rng.normal(0.0, 0.2, n_bursts)]
            draws.append((freq, amp_scale, window_phase, start, period_samples, scales))
            if noise is not None:
                noise[index] = rng.normal(0.0, noise_sigma, size=(N_CHANNELS, self.window_size))
            elif dropped is not None:
                # The same raw draws as ``normal``, without its arithmetic.
                rng.standard_normal(out=dropped)
        return draws

    def _render(
        self,
        signature: ActivitySignature,
        subject: SubjectProfile,
        draws: Sequence[tuple],
        noise: Optional[np.ndarray],
    ) -> np.ndarray:
        """The arithmetic of one window per ``draws`` entry, elementwise
        across windows (so a window renders the same in any block)."""
        freq, amp_scale, window_phase, start, period_samples, scales = zip(*draws)
        count = len(draws)
        amplitudes, gravity = self._signature_columns(signature)

        # Periodic component: harmonic series per channel.
        signal = np.empty((count, N_CHANNELS, self.window_size))
        signal[:] = gravity
        phases = _AXIS_PHASE[:, None] + np.array(window_phase)[:, None, None]
        omega_t = (2.0 * np.pi * np.array(freq))[:, None, None] * self._time
        amp_scale = np.array(amp_scale)[:, None, None]
        for order, weight in enumerate(signature.harmonics, start=1):
            if weight <= 0:
                continue
            signal += (
                amplitudes
                * amp_scale
                * weight
                * np.sin(order * omega_t + order * phases)
            )

        # Impact spikes at each footfall (decaying half-sine bursts on the
        # accelerometer channels only).  Burst j of a window covers
        # max(period // 6, 2) samples from start + j * period on: at most
        # a period, so bursts never overlap.
        if signature.impact > 0:
            periods = np.array(period_samples)[:, None]
            burst_len = np.maximum(periods // 6, 2)
            since_start = np.arange(self.window_size) - np.array(start)[:, None]
            burst, offset = np.divmod(since_start, periods)
            rows, samples = np.nonzero((burst >= 0) & (offset < burst_len))
            scale = np.zeros((len(scales), max(map(len, scales))))
            for row, values in enumerate(scales):
                scale[row, : len(values)] = values
            decay = np.zeros((len(scales), int(burst_len.max())))
            for length in set(burst_len.flat):
                decay[burst_len[:, 0] == length, :length] = self._decay_row(length)
            direction = np.array([0.3, 1.0, 0.35])
            impacts = np.zeros((len(scales), 3, self.window_size))
            impacts[rows, :, samples] = (
                direction[:, None] * scale[rows, burst[rows, samples]]
                * decay[rows, offset[rows, samples]]
            ).T
            signal[:, :3] += impacts

        # Per-channel subject gains and white sensor noise.
        signal *= np.asarray(subject.channel_gains)[:, None]
        if noise is not None:
            signal += noise
        return signal.astype(np.float32)

    def _signature_columns(self, signature: ActivitySignature) -> tuple:
        """``(amplitudes[:, None], gravity[:, None])`` over the six channels."""
        columns = self._columns.get(signature)
        if columns is None:
            amplitudes = np.concatenate(
                [np.asarray(signature.accel_amplitude), np.asarray(signature.gyro_amplitude)]
            )
            gravity = np.concatenate([np.asarray(signature.gravity), np.zeros(3)])
            columns = self._columns[signature] = (amplitudes[:, None], gravity[:, None])
        return columns

    def _decay_row(self, length: int) -> np.ndarray:
        """The half-sine burst's ``length``-sample exponential decay."""
        row = self._decay.get(length)
        if row is None:
            row = self._decay[length] = np.exp(-np.linspace(0.0, 4.0, length))
        return row
