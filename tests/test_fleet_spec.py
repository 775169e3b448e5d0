"""Cohort sampling: reproducibility, layout-independence, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.body import BodyLocation
from repro.errors import ConfigurationError
from repro.fleet.spec import CohortSpec, ParameterDist
from repro.sim.experiment import SimulationConfig


class TestParameterDist:
    def test_constant(self):
        dist = ParameterDist.constant(3.5)
        assert dist.sample(np.random.default_rng(0)) == 3.5
        assert dist.support == (3.5,)

    def test_uniform_bounds(self):
        dist = ParameterDist.uniform(1.0, 2.0)
        rng = np.random.default_rng(1)
        draws = [dist.sample(rng) for _ in range(100)]
        assert all(1.0 <= d < 2.0 for d in draws)
        assert dist.support is None

    def test_loguniform_positive(self):
        dist = ParameterDist.loguniform(1e-6, 1e-3)
        rng = np.random.default_rng(2)
        draws = [dist.sample(rng) for _ in range(100)]
        assert all(1e-6 <= d <= 1e-3 for d in draws)

    def test_normal_clipped(self):
        dist = ParameterDist.normal(0.0, 10.0, low=-1.0, high=1.0)
        rng = np.random.default_rng(3)
        draws = [dist.sample(rng) for _ in range(50)]
        assert all(-1.0 <= d <= 1.0 for d in draws)

    def test_lognormal_around_one(self):
        dist = ParameterDist.lognormal(0.0, 0.25)
        rng = np.random.default_rng(4)
        draws = [dist.sample(rng) for _ in range(500)]
        assert 0.8 < float(np.median(draws)) < 1.25

    def test_choice_weighted(self):
        dist = ParameterDist.choice((1.0, 2.0), weights=(0.0, 1.0))
        rng = np.random.default_rng(5)
        assert all(dist.sample(rng) == 2.0 for _ in range(20))
        assert dist.support == (1.0, 2.0)

    def test_same_stream_same_draws(self):
        dist = ParameterDist.uniform(0.0, 1.0)
        a = [dist.sample(np.random.default_rng(6)) for _ in range(3)]
        b = [dist.sample(np.random.default_rng(6)) for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: ParameterDist(kind="exotic"),
            lambda: ParameterDist.uniform(2.0, 1.0),
            lambda: ParameterDist.loguniform(0.0, 1.0),
            lambda: ParameterDist.choice(()),
            lambda: ParameterDist.choice((1.0,), weights=(1.0, 2.0)),
            lambda: ParameterDist.choice((1.0, 2.0), weights=(0.0, 0.0)),
            lambda: ParameterDist.normal(0.0, -1.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            bad()


class TestCohortSpec:
    def test_user_is_pure_function_of_index(self):
        spec = CohortSpec(size=100, seed=17)
        assert spec.user(42) == spec.user(42)

    def test_users_independent_of_iteration_layout(self):
        # Shard-layout independence: sampling user i alone, in a full
        # sweep, or inside any [lo, hi) slice yields the same user.
        spec = CohortSpec(size=30, seed=23)
        full = list(spec.users())
        sliced = list(spec.users(0, 10)) + list(spec.users(10, 30))
        assert full == sliced
        assert spec.user(17) == full[17]

    def test_users_range_equals_user_calls(self):
        spec = CohortSpec(size=40, seed=11, n_timelines=3)
        for lo, hi in [(0, 40), (7, 19), (39, 40), (5, 5)]:
            assert list(spec.users(lo, hi)) == [spec.user(i) for i in range(lo, hi)]

    def test_distinct_users_differ(self):
        spec = CohortSpec(size=10, seed=5)
        configs = [spec.user(i).config for i in range(10)]
        assert len({c.capacitor_capacity_j for c in configs}) > 1

    def test_sampled_knobs_land_in_config(self):
        spec = CohortSpec(size=4, seed=3)
        user = spec.user(0)
        config = user.config
        assert config.dwell_scale in spec.dwell_scale.support
        assert set(config.node_gains) == set(BodyLocation)
        assert all(gain > 0 for gain in config.node_gains.values())
        assert config.capacitor_capacity_j != spec.base.capacitor_capacity_j

    def test_unsampled_base_fields_preserved(self):
        base = SimulationConfig(n_windows=77, checkpoint_overhead=0.25)
        spec = CohortSpec(size=2, seed=1, base=base)
        user = spec.user(1)
        assert user.config.n_windows == 77
        assert user.config.checkpoint_overhead == 0.25

    def test_timeline_pool_cycles(self):
        spec = CohortSpec(size=10, seed=4, n_timelines=3)
        seeds = spec.timeline_seeds()
        assert len(seeds) == 3
        for index in range(10):
            assert spec.user(index).seed == seeds[index % 3]

    def test_material_group_bound(self):
        spec = CohortSpec(size=100, seed=0, n_timelines=4)
        assert spec.material_group_bound() == 4 * 3  # 3 dwell choices
        continuous = CohortSpec(
            size=100,
            seed=0,
            dwell_scale=ParameterDist.uniform(2.0, 5.0),
        )
        assert continuous.material_group_bound() is None

    def test_to_dict_is_json_safe_and_complete(self):
        import json

        spec = CohortSpec(size=5, seed=2)
        document = spec.to_dict()
        json.dumps(document, default=str)
        assert document["size"] == 5
        assert document["base"]["n_windows"] == spec.base.n_windows
        assert document["dwell_scale"]["kind"] == "choice"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(size=0),
            dict(size=5, n_timelines=0),
            dict(size=5, dwell_scale=ParameterDist.choice((-1.0, 3.0))),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            CohortSpec(seed=0, **bad)

    def test_user_index_bounds(self):
        spec = CohortSpec(size=3, seed=0)
        with pytest.raises(ConfigurationError):
            spec.user(3)
        with pytest.raises(ConfigurationError):
            spec.user(-1)


class TestDwellValidation:
    def test_simulation_config_rejects_nonpositive_dwell(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(dwell_scale=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(dwell_scale=-2.0)

    def test_positive_dwell_accepted(self):
        assert SimulationConfig(dwell_scale=0.5).dwell_scale == 0.5
