"""Raw IMU window synthesis.

Generates fixed-length 6-channel windows (3 accelerometer + 3 gyroscope
axes) for a given activity, body location and subject, following the
signature model in :mod:`repro.datasets.profiles`:

``x_c(t) = gravity_c + A_c * sum_h w_h sin(2*pi*f*h*t + phi_c + phi_s)
          + impacts(t) + sensor noise``

Per-window log-normal amplitude jitter and frequency wobble provide
intra-class variability, so two windows of the same activity are similar
but never identical.

A window is made in two steps.  The draws come first, window by window
in window order, and evaluate only what decides how many raw outputs a
window consumes (its style wobble when none is given, then frequency,
period, impact start and burst count); the amplitude, phase and burst
draws stay raw standard draws.  The render then does all the
arithmetic for a block of windows at once, each window with its own
signature and subject, elementwise across windows, so a window has the
same bytes alone or in any mix.  :meth:`SignalSynthesizer.batch`,
:meth:`~SignalSynthesizer.stream` and
:meth:`~SignalSynthesizer.interleaved` are that pair over their
windows; :meth:`~SignalSynthesizer.stream_states` is the draws alone,
noise dropped, recording the generator state before each window of a
stream; and :meth:`~SignalSynthesizer.replay` renders any windows of
such streams together from their recorded states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
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

#: Accelerometer direction of an impact burst.
_IMPACT_DIRECTION = np.array([0.3, 1.0, 0.35])

#: Windows per vectorized render: bounds its float64 temporaries (6 KB
#: per window each).
_BLOCK = 64

_NO_BURSTS = np.empty(0)


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
        # row of columns, per burst length its decay row.
        self._columns: Dict[ActivitySignature, np.ndarray] = {}
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
        wobble per window, or ``None`` to draw one per window.  Equals
        ``count`` :meth:`window` calls in window order on one generator.
        """
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        styles = [style] * count if style is None or isinstance(style, StyleWobble) else style
        return self._windows(self._slots([activity] * count, location, subject, seed, styles))

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

        Equals a :meth:`window` call per slot, in slot order, on one
        generator.
        """
        return self._windows(self._slots(activities, location, subject, seed, styles))

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

        Makes every draw of the stream in slot order (the noise drawn
        and dropped) and none of its arithmetic, so the generator ends
        where :meth:`stream` leaves it.  A slot's state renders exactly
        that slot's window, through :meth:`replay` or by restoring it
        and calling :meth:`batch` for slots of one dwell run.
        """
        states: List[dict] = []
        self._draws(self._slots(activities, location, subject, seed, styles), states=states)
        return states

    def replay(self, windows: Sequence[tuple]) -> np.ndarray:
        """Windows of recorded streams, all rendered together.

        Each entry is ``(generator, state, activity, location, subject,
        style)`` of one slot of a :meth:`stream`, with the state
        :meth:`stream_states` recorded before that slot: the entry gets
        exactly the window the stream made there, whatever else the
        call renders.  Entries may mix streams, signatures and subjects.
        """
        signature, noise = self.signatures.signature, self.signatures.noise
        return self._windows(
            [
                (rng, state, signature(location, activity), subject,
                 noise(location) * subject.noise_factor, style)
                for rng, state, activity, location, subject, style in windows
            ]
        )

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
        generator (each drawing its own wobble).
        """
        if count < 1:
            raise DatasetError(f"count must be >= 1, got {count}")
        if not subjects:
            raise DatasetError("subjects must be non-empty")
        rng = as_generator(seed)
        signature = self.signatures.signature(location, activity)
        noise = self.signatures.noise(location)
        return self._windows(
            [
                (rng, None, signature, subject, noise * subject.noise_factor, None)
                for subject in islice(cycle(subjects), count)
            ]
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _slots(
        self,
        activities: Sequence[Activity],
        location: BodyLocation,
        subject: Optional[SubjectProfile],
        seed: SeedLike,
        styles: Sequence[Optional[StyleWobble]],
    ) -> List[tuple]:
        """One :meth:`_windows` recipe per slot of a timeline, on one generator."""
        if len(styles) != len(activities):
            raise DatasetError(f"got {len(styles)} styles for {len(activities)} windows")
        rng = as_generator(seed)
        subject = subject or SubjectProfile.canonical()
        noise_sigma = self.signatures.noise(location) * subject.noise_factor
        signature = self.signatures.signature
        return [
            (rng, None, signature(location, activity), subject, noise_sigma, style)
            for activity, style in zip(activities, styles)
        ]

    def _windows(self, recipes: Sequence[tuple]) -> np.ndarray:
        """Draw and render one window per recipe, :data:`_BLOCK` at a time.

        A recipe is ``(generator, state, signature, subject, noise_sigma,
        style)``: a ``state`` is restored before the window's draws
        (``None`` continues the generator), a ``None`` style draws one.
        """
        windows = np.empty((len(recipes), N_CHANNELS, self.window_size), dtype=np.float32)
        noise = np.empty((min(len(recipes), _BLOCK), N_CHANNELS, self.window_size))
        for lo in range(0, len(recipes), _BLOCK):
            block = recipes[lo : lo + _BLOCK]
            windows[lo : lo + len(block)] = self._render(self._draws(block, noise), noise)
        return windows

    def _draws(
        self,
        recipes: Sequence[tuple],
        noise: Optional[np.ndarray] = None,
        states: Optional[list] = None,
    ) -> list:
        """Every random draw of one window per recipe, in window order.

        Evaluates only what decides how many raw outputs a window
        consumes: the style wobble when none is given, then frequency,
        period, impact start and burst count.  The amplitude normal,
        the phase uniform and the burst normals are taken as raw
        standard draws (``normal(0, s)`` is ``s * standard_normal()``
        and ``uniform(0, 2 pi)`` is ``2 pi * random()`` on the same raw
        outputs) and left for :meth:`_render`.  Returns one
        ``(signature, subject, style amplitude scale, freq, amplitude
        draw, phase draw, start, period_samples, burst draws, noisy)``
        tuple per window.  A noisy window's sensor noise goes to
        ``noise[index]`` (drawn and dropped when ``noise`` is ``None``);
        ``states`` collects the generator state before each window.
        """
        draws = []
        dropped = np.empty((N_CHANNELS, self.window_size)) if noise is None else None
        for index, (rng, state, signature, subject, noise_sigma, style) in enumerate(recipes):
            if state is not None:
                rng.bit_generator.state = state
            if states is not None:
                states.append(rng.bit_generator.state)
            if style is None:
                style = StyleWobble.sample(rng)
            freq = (
                signature.frequency_hz
                * subject.frequency_scale
                * style.frequency_scale
                * float(np.exp(rng.normal(0.0, 0.03 + 0.25 * signature.jitter)))
            )
            amplitude = rng.standard_normal()
            phase = rng.random()
            # Impact train: a start sample, then one raw normal per burst.
            period_samples = max(int(self.sample_rate_hz / max(freq, 1e-3)), 2)
            start, bursts = 0, _NO_BURSTS
            if signature.impact > 0:
                start = int(rng.integers(0, period_samples))
                bursts = rng.standard_normal(len(range(start, self.window_size, period_samples)))
            if noise_sigma > 0:
                if noise is not None:
                    noise[index] = rng.normal(
                        0.0, noise_sigma, size=(N_CHANNELS, self.window_size)
                    )
                else:
                    # The same raw draws as ``normal``, without its arithmetic.
                    rng.standard_normal(out=dropped)
            draws.append(
                (signature, subject, style.amplitude_scale, freq, amplitude, phase,
                 start, period_samples, bursts, noise_sigma > 0)
            )
        return draws

    def _render(self, draws: Sequence[tuple], noise: np.ndarray) -> np.ndarray:
        """The arithmetic of one window per ``draws`` entry, each with its
        own signature and subject, elementwise across windows in the
        one-window operation order (so a window renders the same bytes
        in any block).  A harmonic of weight <= 0, a zero impact and a
        zero noise sigma skip their term for that window only."""
        (signatures, subjects, style_amplitude, freq, amplitude, phase,
         start, period_samples, bursts, noisy) = zip(*draws)
        count = len(draws)
        amplitudes, gravity, impact, jitter, harmonics = self._signature_columns(signatures)
        amp_scale = (
            np.array([subject.amplitude_scale for subject in subjects])
            * np.array(style_amplitude)
            * np.exp(jitter * np.array(amplitude))
        )

        # Periodic component: harmonic series per channel.
        signal = np.empty((count, N_CHANNELS, self.window_size))
        signal[:] = gravity
        window_phase = 2.0 * np.pi * np.array(phase) + np.array(
            [subject.phase_offset for subject in subjects]
        )
        phases = _AXIS_PHASE[:, None] + window_phase[:, None, None]
        omega_t = (2.0 * np.pi * np.array(freq))[:, None, None] * self._time
        scaled = amplitudes * amp_scale[:, None, None]
        for order, weight in enumerate(harmonics.T, start=1):
            rows = _rows(weight > 0)
            if rows is None:
                continue
            signal[rows] += (
                scaled[rows]
                * weight[rows, None, None]
                * np.sin(order * omega_t[rows] + order * phases[rows])
            )

        # Impact spikes at each footfall (decaying half-sine bursts on the
        # accelerometer channels only).  Burst j of a window covers
        # max(period // 6, 2) samples from start + j * period on: at most
        # a period, so bursts never overlap.
        hit = _rows(impact > 0)
        if hit is not None:
            z = np.zeros((count, max(map(len, bursts))))
            for row, values in enumerate(bursts):
                z[row, : len(values)] = values
            scale = ((impact * amp_scale)[:, None] * np.exp(0.2 * z))[hit]
            periods = np.array(period_samples)[hit, None]
            burst_len = np.maximum(periods // 6, 2)
            since_start = np.arange(self.window_size) - np.array(start)[hit, None]
            burst, offset = np.divmod(since_start, periods)
            rows, samples = np.nonzero((burst >= 0) & (offset < burst_len))
            decay = np.zeros((len(scale), int(burst_len.max())))
            for length in set(burst_len.flat):
                decay[burst_len[:, 0] == length, :length] = self._decay_row(length)
            impacts = np.zeros((len(scale), 3, self.window_size))
            impacts[rows, :, samples] = (
                _IMPACT_DIRECTION[:, None] * scale[rows, burst[rows, samples]]
                * decay[rows, offset[rows, samples]]
            ).T
            signal[hit, :3] += impacts

        # Per-channel subject gains and white sensor noise.
        signal *= np.array([subject.channel_gains for subject in subjects])[:, :, None]
        noisy = _rows(np.array(noisy))
        if noisy is not None:
            signal[noisy] += noise[:count][noisy]
        return signal.astype(np.float32)

    def _signature_columns(self, signatures: Sequence[ActivitySignature]) -> tuple:
        """Per-window ``(amplitudes, gravity, impact, jitter, harmonic
        weights)``: ``(count, 6, 1)``, ``(count, 6, 1)``, ``(count,)``,
        ``(count,)`` and ``(count, harmonics)``, zero-padded."""
        position: Dict[int, int] = {}
        which = [position.setdefault(id(signature), len(position)) for signature in signatures]
        rows = [self._signature_row(signature) for signature in {id(s): s for s in signatures}.values()]
        table = np.zeros((len(rows), max(map(len, rows))))
        for index, row in enumerate(rows):
            table[index, : len(row)] = row
        table = table[which]
        return table[:, :6, None], table[:, 6:12, None], table[:, 12], table[:, 13], table[:, 14:]

    def _signature_row(self, signature: ActivitySignature) -> np.ndarray:
        """``[amplitudes (6), gravity (6), impact, jitter, harmonic weights]``."""
        row = self._columns.get(signature)
        if row is None:
            row = self._columns[signature] = np.array(
                [*signature.accel_amplitude, *signature.gyro_amplitude, *signature.gravity,
                 0.0, 0.0, 0.0, signature.impact, signature.jitter, *signature.harmonics],
                dtype=float,
            )
        return row

    def _decay_row(self, length: int) -> np.ndarray:
        """The half-sine burst's ``length``-sample exponential decay."""
        row = self._decay.get(length)
        if row is None:
            row = self._decay[length] = np.exp(-np.linspace(0.0, 4.0, length))
        return row


def _rows(mask: np.ndarray) -> Union[slice, np.ndarray, None]:
    """The rows ``mask`` selects: every row as a slice, some as indices, none as ``None``."""
    if mask.all():
        return slice(None)
    if not mask.any():
        return None
    return np.flatnonzero(mask)
