"""Tests for repro.energy.traces."""

import numpy as np
import pytest

from repro.energy.harvester import Harvester
from repro.energy.traces import OfficeState, PowerTrace, PowerTraceGenerator, slot_energies
from repro.errors import ConfigurationError, EnergyModelError


class TestPowerTrace:
    @pytest.fixture
    def trace(self):
        return PowerTrace(dt_s=0.5, watts=np.array([1.0, 2.0, 3.0, 4.0]))

    def test_duration(self, trace):
        assert trace.duration_s == 2.0

    def test_average_power(self, trace):
        assert trace.average_power_w == 2.5

    def test_energy_whole_trace(self, trace):
        assert trace.energy_between(0.0, 2.0) == pytest.approx(5.0)

    def test_energy_partial_sample(self, trace):
        # Half of the first 1 W sample.
        assert trace.energy_between(0.0, 0.25) == pytest.approx(0.25)

    def test_energy_clamped_outside(self, trace):
        assert trace.energy_between(5.0, 10.0) == 0.0

    def test_energy_additive(self, trace):
        total = trace.energy_between(0.0, 2.0)
        split = trace.energy_between(0.0, 0.8) + trace.energy_between(0.8, 2.0)
        assert split == pytest.approx(total)

    def test_energy_reversed_interval(self, trace):
        with pytest.raises(EnergyModelError):
            trace.energy_between(1.0, 0.5)

    def test_slot_energy_matches_energy_between(self, trace):
        assert trace.slot_energy(1, 0.5) == pytest.approx(
            trace.energy_between(0.5, 1.0)
        )

    def test_slot_energies_fast_path(self, trace):
        slots = trace.slot_energies(1.0)
        np.testing.assert_allclose(slots, [1.5, 3.5])

    def test_slot_energies_fallback(self, trace):
        slots = trace.slot_energies(0.75)
        assert len(slots) == 2
        assert slots[0] == pytest.approx(trace.energy_between(0.0, 0.75))

    def test_segment(self, trace):
        seg = trace.segment(0.5, 1.5)
        np.testing.assert_allclose(seg.watts, [2.0, 3.0])

    def test_empty_segment_rejected(self, trace):
        with pytest.raises(EnergyModelError):
            trace.segment(1.0, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(EnergyModelError):
            PowerTrace(0.5, np.array([-1.0]))


class TestSlotEnergies:
    def test_fallback_integrates_like_energy_between(self):
        # A 2.56 s slot is not a whole number of 0.3 s samples: each
        # slot is the exact overlap integral, summed in sample order.
        rng = np.random.default_rng(3)
        trace = PowerTrace(0.3, rng.lognormal(-11.0, 1.0, size=90))
        slots = trace.slot_energies(2.56)
        assert slots.size == int(trace.duration_s // 2.56)
        expected = [trace.energy_between(k * 2.56, k * 2.56 + 2.56) for k in range(slots.size)]
        assert slots.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dt_s", [0.32, 0.3], ids=["whole-samples", "fallback"])
    def test_block_rows_equal_one_row_calls(self, dt_s):
        rng = np.random.default_rng(4)
        watts = rng.lognormal(-11.0, 1.0, size=(3, 80))
        knobs = dict(efficiency=0.9, gain=1.5, supplemental_w=2e-6)
        block = slot_energies(watts, dt_s, 2.56, n_slots=12, **knobs)
        assert block.shape == (3, 12)
        np.testing.assert_array_equal(block[:, 10:], 0.0)  # past the trace
        for row, samples in zip(block, watts):
            harvester = Harvester(PowerTrace(dt_s, samples), **knobs)
            assert row.tobytes() == harvester.slot_energies(2.56, n_slots=12).tobytes()


class TestPowerTraceGenerator:
    def test_expected_average_in_wifi_regime(self):
        avg = PowerTraceGenerator().expected_average_power_w()
        assert 5e-6 < avg < 100e-6

    def test_generated_average_close_to_expected(self):
        gen = PowerTraceGenerator()
        trace = gen.generate(3600 * 4, seed=0)
        assert trace.average_power_w == pytest.approx(
            gen.expected_average_power_w(), rel=0.35
        )

    def test_reproducible(self):
        gen = PowerTraceGenerator()
        a = gen.generate(100, seed=3)
        b = gen.generate(100, seed=3)
        np.testing.assert_array_equal(a.watts, b.watts)

    def test_skewed_distribution(self):
        # Indoor RF harvest: median well below mean (bursty).
        trace = PowerTraceGenerator().generate(3600, seed=1)
        assert np.median(trace.watts) < trace.average_power_w

    def test_correlated_traces_share_bursts(self):
        gen = PowerTraceGenerator(fading_sigma=0.0)
        traces = gen.generate_correlated(1800, [1.0, 1.0], seed=2)
        # Without fading, same states + same gain => identical traces.
        np.testing.assert_allclose(traces[0].watts, traces[1].watts)

    def test_correlated_with_fading_still_correlated(self):
        gen = PowerTraceGenerator()
        a, b = gen.generate_correlated(3600, [1.0, 1.0], seed=2)
        corr = np.corrcoef(a.watts, b.watts)[0, 1]
        assert corr > 0.3

    def test_gain_scales(self):
        gen = PowerTraceGenerator(fading_sigma=0.0)
        a, b = gen.generate_correlated(600, [1.0, 2.0], seed=4)
        np.testing.assert_allclose(b.watts, 2.0 * a.watts)

    def test_state_sequence_dwells(self):
        gen = PowerTraceGenerator()
        states = gen.state_sequence(1200, seed=5)
        assert set(states) <= set(OfficeState)
        # Consecutive runs exist (dwell >> dt).
        runs = sum(1 for a, b in zip(states, states[1:]) if a is b)
        assert runs > len(states) * 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator({OfficeState.QUIET: -1.0})
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator(fading_sigma=-0.5)
        with pytest.raises(ConfigurationError):
            PowerTraceGenerator().generate_correlated(10, [], seed=0)


def reference_states(generator, duration_s, rng):
    """The per-sample dwell loop base power used to be built from."""
    n_samples = int(np.ceil(duration_s / generator.dt_s))
    states = []
    all_states = list(OfficeState)
    current = OfficeState.QUIET
    while len(states) < n_samples:
        dwell_s = rng.exponential(generator._params[current].mean_dwell_s)
        n_dwell = max(int(round(dwell_s / generator.dt_s)), 1)
        states.extend([current] * n_dwell)
        others = [state for state in all_states if state is not current]
        current = others[int(rng.integers(len(others)))]
    return states[:n_samples]


def reference_base(generator, duration_s, rng):
    states = reference_states(generator, duration_s, rng)
    return np.array([generator._params[state].mean_power_w for state in states])


class TestDwellRunBasePower:
    """Base power from dwell runs == the old per-sample lookup, draw for draw."""

    CASES = [
        (duration_s, seed)
        for duration_s in (0.1, 0.32, 1.0, 7.7, 60.0, 307.2, 1200.0, 3600.0)
        for seed in range(7)
    ]

    @pytest.mark.parametrize("fading_sigma", [0.0, 0.7])
    def test_correlated_traces_match_reference(self, fading_sigma):
        generator = PowerTraceGenerator(fading_sigma=fading_sigma)
        gains = [1.0, 0.6, 1.3]
        assert len(self.CASES) >= 50
        for duration_s, seed in self.CASES:
            rng = np.random.default_rng(seed)
            traces = generator.generate_correlated(duration_s, gains, rng)
            expected_rng = np.random.default_rng(seed)
            base = reference_base(generator, duration_s, expected_rng)
            expected = [
                base * generator._fade(expected_rng, base.size) * gain for gain in gains
            ]
            if fading_sigma == 0.0:
                assert traces[0].watts.tobytes() == base.tobytes()
            for trace, watts in zip(traces, expected):
                assert trace.watts.tobytes() == watts.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_single_trace_and_state_sequence_match_reference(self):
        generator = PowerTraceGenerator()
        for duration_s, seed in self.CASES:
            rng = np.random.default_rng(seed)
            trace = generator.generate(duration_s, rng, gain=0.8)
            expected_rng = np.random.default_rng(seed)
            base = reference_base(generator, duration_s, expected_rng)
            watts = base * generator._fade(expected_rng, base.size) * 0.8
            assert trace.watts.tobytes() == watts.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state
            assert generator.state_sequence(duration_s, seed) == reference_states(
                generator, duration_s, np.random.default_rng(seed)
            )
