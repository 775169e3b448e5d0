"""The vectorized ``SignalSynthesizer`` against the per-window loop.

``reference_batch`` below is the original one-window-at-a-time
synthesis, kept here (not in the library) as the specification the
vectorized code must reproduce: byte-identical windows, and the
generator left in the same state, so the draw count matches too.  The
library draws the amplitude, phase and burst normals raw and
exponentiates them in one array call per render; the reference draws
``normal``/``uniform`` and exponentiates each value alone, so these
tests also pin that the two agree on this CPU's numpy dispatch.
A mixed render (``replay``) must equal one-window ``batch`` calls.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.profiles import N_CHANNELS, mhealth_signatures, pamap2_signatures
from repro.datasets.subjects import SubjectProfile, sample_subjects
from repro.datasets.synthesis import SignalSynthesizer, StyleWobble
from repro.errors import DatasetError

_AXIS_PHASE = np.array([0.0, 1.25, 2.1, 0.6, 1.9, 2.8])


def _impact_train(synth, amplitude, freq, rng):
    impacts = np.zeros((3, synth.window_size))
    period_samples = max(int(synth.sample_rate_hz / max(freq, 1e-3)), 2)
    burst_len = max(period_samples // 6, 2)
    decay = np.exp(-np.linspace(0.0, 4.0, burst_len))
    start = int(rng.integers(0, period_samples))
    direction = np.array([0.3, 1.0, 0.35])
    while start < synth.window_size:
        stop = min(start + burst_len, synth.window_size)
        scale = amplitude * float(np.exp(rng.normal(0.0, 0.2)))
        impacts[:, start:stop] += direction[:, None] * scale * decay[: stop - start]
        start += period_samples
    return impacts


def _one_window(synth, signature, subject, noise_sigma, style, rng):
    jitter = signature.jitter
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

    amplitudes = np.concatenate(
        [np.asarray(signature.accel_amplitude), np.asarray(signature.gyro_amplitude)]
    )
    gravity = np.concatenate([np.asarray(signature.gravity), np.zeros(3)])

    signal = np.tile(gravity[:, None], (1, synth.window_size)).astype(np.float64)
    phases = _AXIS_PHASE[:, None] + window_phase
    omega_t = 2.0 * np.pi * freq * synth._time[None, :]
    for order, weight in enumerate(signature.harmonics, start=1):
        if weight <= 0:
            continue
        signal += (
            amplitudes[:, None]
            * amp_scale
            * weight
            * np.sin(order * omega_t + order * phases)
        )
    if signature.impact > 0:
        signal[:3] += _impact_train(synth, signature.impact * amp_scale, freq, rng)
    signal *= np.asarray(subject.channel_gains)[:, None]
    if noise_sigma > 0:
        signal += rng.normal(0.0, noise_sigma, size=signal.shape)
    return signal.astype(np.float32)


def reference_batch(synth, activity, location, count, subject, rng, styles):
    signature = synth.signatures.signature(location, activity)
    noise_sigma = synth.signatures.noise(location) * subject.noise_factor
    windows = np.empty((count, N_CHANNELS, synth.window_size), dtype=np.float32)
    for index in range(count):
        wobble = styles[index] if styles[index] is not None else StyleWobble.sample(rng)
        windows[index] = _one_window(synth, signature, subject, noise_sigma, wobble, rng)
    return windows


SUBJECTS = (
    SubjectProfile.canonical(),
    SubjectProfile(
        subject_id=5,
        frequency_scale=1.6,
        amplitude_scale=0.7,
        phase_offset=-1.1,
        channel_gains=(1.2, 0.8, 1.05, 0.9, 1.3, 0.75),
        noise_factor=0.0,
    ),
    sample_subjects(1, seed=17, variability=2.0, first_id=9)[0],
)

TABLES = {"mhealth": mhealth_signatures(), "pamap2": pamap2_signatures()}


def _styles(kind, count, rng):
    if kind == "none":
        return None, [None] * count
    if kind == "shared":
        style = StyleWobble(amplitude_scale=1.4, frequency_scale=0.93)
        return style, [style] * count
    styles = [StyleWobble.sample(rng) for _ in range(count)]
    return styles, styles


@pytest.mark.parametrize("count", [1, 2, 7, 33])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_batch_matches_per_window_reference(table, count):
    synth = SignalSynthesizer(TABLES[table])
    signatures = synth.signatures
    cases = itertools.product(
        signatures.locations, signatures.activities, SUBJECTS, ("none", "shared", "each")
    )
    for case, (location, activity, subject, kind) in enumerate(cases):
        style, styles = _styles(kind, count, np.random.default_rng([case, count]))
        seed = [case, count, 1]
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = synth.batch(activity, location, count, subject, got_rng, style=style)
        want = reference_batch(synth, activity, location, count, subject, want_rng, styles)
        label = f"{location.value}/{activity.value}/subject {subject.subject_id}/{kind}"
        assert got.dtype == np.float32, label
        assert got.tobytes() == want.tobytes(), label
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, label


def test_stream_is_one_window_per_slot():
    synth = SignalSynthesizer(mhealth_signatures())
    rng = np.random.default_rng(3)
    activities = list(synth.signatures.activities)
    labels = [activities[i] for i in rng.integers(0, 2, size=40)] + [activities[3]] * 70
    styles = [StyleWobble.sample(rng) for _ in labels]
    location = synth.signatures.locations[1]

    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = synth.stream(labels, location, SUBJECTS[2], got_rng, styles=styles)
    want = np.stack(
        [
            synth.window(activity, location, SUBJECTS[2], want_rng, style=style)
            for activity, style in zip(labels, styles)
        ]
    )
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_style_count_must_match():
    synth = SignalSynthesizer(mhealth_signatures())
    activity, location = synth.signatures.activities[0], synth.signatures.locations[0]
    with pytest.raises(DatasetError, match="styles"):
        synth.batch(activity, location, 3, seed=0, style=[StyleWobble()] * 2)
    with pytest.raises(DatasetError, match="styles"):
        synth.stream([activity] * 3, location, seed=0, styles=[StyleWobble()] * 2)


def test_stream_states_render_any_span():
    synth = SignalSynthesizer(pamap2_signatures())
    rng = np.random.default_rng(5)
    activities = list(synth.signatures.activities)
    labels = [activities[i] for i in np.repeat(rng.integers(0, 4, size=9), rng.integers(1, 9, 9))]
    styles = [StyleWobble.sample(rng) for _ in labels]
    location = synth.signatures.locations[0]
    stream_rng, states_rng = np.random.default_rng(21), np.random.default_rng(21)
    stream = synth.stream(labels, location, SUBJECTS[2], stream_rng, styles=styles)
    states = synth.stream_states(labels, location, SUBJECTS[2], states_rng, styles=styles)
    assert len(states) == len(labels)
    assert states_rng.bit_generator.state == stream_rng.bit_generator.state
    for first in range(len(labels)):
        last = first
        while last + 1 < len(labels) and labels[last + 1] == labels[first]:
            last += 1
        states_rng.bit_generator.state = states[first]
        span = synth.batch(
            labels[first], location, last - first + 1, SUBJECTS[2], states_rng,
            style=styles[first : last + 1],
        )
        assert span.tobytes() == stream[first : last + 1].tobytes()


def reference_split(spec, synthesizer, subjects, windows_per_activity, rng):
    """The split as one ``window`` call per window (subjects interleaved)."""
    split = {}
    for location in spec.locations:
        xs, ys = [], []
        for label, activity in enumerate(spec.activities):
            for index in range(windows_per_activity):
                subject = subjects[index % len(subjects)]
                xs.append(synthesizer.window(activity, location, subject, rng))
                ys.append(label)
        order = rng.permutation(len(xs))
        split[location] = (np.stack(xs)[order], np.asarray(ys)[order])
    return split


@pytest.mark.parametrize("dataset", ["mhealth", "pamap2"])
def test_splits_match_per_window_reference(dataset):
    from repro.datasets.base import synthesize_split
    from repro.datasets.mhealth import make_mhealth
    from repro.datasets.pamap2 import make_pamap2

    make = make_mhealth if dataset == "mhealth" else make_pamap2
    data = make(seed=3, train_windows_per_activity=5, val_windows_per_activity=2,
                n_train_subjects=3, n_eval_subjects=1)
    subjects = list(data.train_subjects) + [SUBJECTS[1]]
    for count in (1, 4, 7):
        got = synthesize_split(
            data.spec, data.synthesizer, subjects, count, np.random.default_rng(count)
        )
        want = reference_split(
            data.spec, data.synthesizer, subjects, count, np.random.default_rng(count)
        )
        for location, (windows, labels) in want.items():
            assert got[location].X.tobytes() == windows.tobytes(), location
            assert got[location].y.dtype == labels.dtype
            assert got[location].y.tobytes() == labels.tobytes(), location


# ---------------------------------------------------------------------------
# one render for any windows
# ---------------------------------------------------------------------------


def _custom_table():
    """mhealth's table with per-window skips: zero and negative harmonic
    weights (both skipped), no impact, and harmonic series of other
    lengths."""
    base = mhealth_signatures()
    signatures = {}
    for index, (key, signature) in enumerate(base.signatures.items()):
        if index % 3 == 0:
            signature = replace(signature, harmonics=(1.0, 0.0, -0.5), impact=0.0)
        elif index % 3 == 1:
            signature = replace(signature, harmonics=(0.8, 0.3, 0.0, 0.2, 0.1))
        signatures[key] = signature
    return replace(base, signatures=signatures)


MIXED_TABLES = {**TABLES, "custom": _custom_table()}
SHARED_STYLE = StyleWobble(amplitude_scale=0.8, frequency_scale=1.07)


@settings(max_examples=40, deadline=None)
@given(
    table=st.sampled_from(sorted(MIXED_TABLES)),
    windows=st.lists(
        st.tuples(
            st.integers(0, 2),  # location
            st.integers(0, 11),  # activity
            st.integers(0, len(SUBJECTS) - 1),
            st.sampled_from(["none", "shared", "each"]),
        ),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
    order_seed=st.integers(0, 2**16),
)
def test_mixed_render_matches_one_window_batches(table, windows, seed, order_seed):
    """One render of windows of different signatures, subjects and styles
    equals each window rendered alone by ``batch`` from its state."""
    synth = SignalSynthesizer(MIXED_TABLES[table])
    signatures = synth.signatures
    style_rng = np.random.default_rng(order_seed)
    rng = np.random.default_rng(seed)
    entries, alone, after = [], [], []
    for location, activity, subject, kind in windows:
        location = signatures.locations[location % len(signatures.locations)]
        activity = signatures.activities[activity % len(signatures.activities)]
        subject = SUBJECTS[subject]
        style = {"none": None, "shared": SHARED_STYLE, "each": StyleWobble.sample(style_rng)}[kind]
        state = rng.bit_generator.state
        alone.append(synth.batch(activity, location, 1, subject, rng, style=style)[0])
        after.append(rng.bit_generator.state)
        entries.append((state, activity, location, subject, style))

    order = np.random.default_rng(order_seed).permutation(len(entries))
    replayed = np.random.default_rng(seed + 1)
    got = synth.replay(
        [(replayed, state, *rest) for state, *rest in (entries[index] for index in order)]
    )
    assert got.dtype == np.float32
    assert got.tobytes() == np.stack([alone[index] for index in order]).tobytes()
    assert replayed.bit_generator.state == after[order[-1]]
