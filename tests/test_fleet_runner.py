"""Fleet execution: identity, shard invariance, resume, CLI, fallbacks."""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest

from repro.core.policies import aas_policy, origin_policy, rr_policy
from repro.errors import ConfigurationError, FleetError
from repro.fleet import CohortSpec, FleetRunner, ParameterDist
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.runner import (
    default_metric_bounds,
    shard_aggregate,
    shard_cell,
    simulate_users,
    user_metrics,
)
from repro.nn.model import Sequential
from repro.obs import Observability
from repro.obs.trace import NULL_TRACER
from repro.resilience import SweepJournal
from repro.sim import predcache


@pytest.fixture(scope="module")
def fleet_spec(tiny_experiment):
    return CohortSpec(size=12, seed=9, base=tiny_experiment.config, n_timelines=2)


def _bounds(experiment, spec):
    return default_metric_bounds(
        spec.base.n_windows, len(experiment.dataset.spec.locations)
    )


class TestSimulateUsers:
    def test_mega_batch_equals_per_user_runs(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12), aas_policy(6)]
        users = list(fleet_spec.users(0, 4))
        mega = simulate_users(tiny_experiment, users, policies)
        solo = []
        for user in users:
            experiment = copy.copy(tiny_experiment)
            experiment.config = user.config
            solo.append([experiment.run(policy, seed=user.seed) for policy in policies])
        assert mega == solo

    def test_per_user_config_actually_applied(self, tiny_experiment, fleet_spec):
        # Two users on the same timeline but different energy knobs must
        # not collapse to the same result row.
        policies = [rr_policy(3)]
        users = [fleet_spec.user(0), fleet_spec.user(2)]  # same timeline slot
        assert users[0].seed == users[1].seed
        assert users[0].config != users[1].config
        rows = simulate_users(tiny_experiment, users, policies)
        harvested = [
            sum(s.harvested_j for s in row[0].node_stats.values()) for row in rows
        ]
        assert harvested[0] != harvested[1]

    def test_empty_users(self, tiny_experiment):
        assert simulate_users(tiny_experiment, [], [origin_policy(12)]) == []


class TestShardInvariance:
    def test_1_3_n_shards_byte_identical(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12)]

        def total_for(sizes):
            total = FleetAggregate(bounds=_bounds(tiny_experiment, fleet_spec))
            lo = 0
            for size in sizes:
                shard = shard_aggregate(
                    tiny_experiment, fleet_spec, policies, lo, lo + size
                )
                total.merge(FleetAggregate.from_dict(shard.to_dict()))
                lo += size
            return total

        one = total_for([12])
        three = total_for([4, 4, 4])
        many = total_for([1] * 12)
        assert one.stats_json() == three.stats_json() == many.stats_json()
        assert one.users == 12

    def test_metrics_match_direct_runs(self, tiny_experiment, fleet_spec):
        policies = [origin_policy(12)]
        aggregate = shard_aggregate(tiny_experiment, fleet_spec, policies, 0, 3)
        rows = simulate_users(
            tiny_experiment, list(fleet_spec.users(0, 3)), policies
        )
        dist = aggregate.distribution(policies[0].name, "event_accuracy")
        expected = sorted(row[0].event_accuracy for row in rows)
        assert dist.count == 3
        assert dist.min_value == expected[0]
        assert dist.max_value == expected[-1]
        assert "accuracy_drop" in aggregate.policies[policies[0].name]


class TestOneBatchPerShard:
    def test_shard_and_its_references_share_one_batch(
        self, tiny_experiment, fleet_spec, monkeypatch
    ):
        import repro.fleet.runner as runner_mod

        policies = [origin_policy(12)]
        expected_first = shard_aggregate(tiny_experiment, fleet_spec, policies, 0, 12)
        expected_second = shard_aggregate(tiny_experiment, fleet_spec, policies, 3, 9)
        real = runner_mod.run_group_batch
        batches = []

        def counting(experiment, groups, **kwargs):
            batches.append(len(groups))
            return real(experiment, groups, **kwargs)

        monkeypatch.setattr(runner_mod, "run_group_batch", counting)
        worker = runner_mod._FleetWorker(tiny_experiment, fleet_spec, policies)

        def shard(lo, hi):
            return shard_aggregate(
                tiny_experiment, fleet_spec, policies, lo, hi,
                cache=worker.cache, references=worker.references,
            )

        first, second = shard(0, 12), shard(3, 9)
        keys = {user.material_key for user in fleet_spec.users(0, 12)}
        # One call per shard: 12 users plus one group per reference;
        # the second shard's references are all memoized already.
        assert batches == [12 + len(keys), 6]
        assert first.stats_json() == expected_first.stats_json()
        assert second.stats_json() == expected_second.stats_json()


class TestMaterialSharing:
    @staticmethod
    def _continuous_spec(experiment, size, n_windows=16):
        return CohortSpec(
            size=size,
            seed=9,
            base=replace(experiment.config, n_windows=n_windows),
            n_timelines=1,
            dwell_scale=ParameterDist.uniform(2.0, 5.0),
        )

    def test_continuous_dwell_shard_builds_each_material_once(
        self, tiny_experiment, monkeypatch
    ):
        # 65 distinct (timeline, dwell) pairs overflow the cache's LRU
        # cap; each user's material must still be built only once,
        # serving both its run and its reference run, and no row of it
        # may be classified twice.  (At 16 slots no inference completes,
        # so no row would be computed at all.)
        spec = self._continuous_spec(tiny_experiment, 65, n_windows=32)
        real_predict = Sequential.predict_logits
        real_build = predcache.build_run_material
        rows, built = [], []

        def counting(self, x, *args, **kwargs):
            rows.append(len(x))
            return real_predict(self, x, *args, **kwargs)

        def building(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(Sequential, "predict_logits", counting)
        monkeypatch.setattr(predcache, "build_run_material", building)
        aggregate = shard_aggregate(tiny_experiment, spec, [origin_policy(12)], 0, 65)
        assert aggregate.users == 65
        assert len(built) == 65
        filled = sum(int(m.filled(node_id).sum()) for m in built for node_id in m.logits)
        assert 0 < sum(rows) == filled

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_times_each_material_build(self, tiny_experiment, workers):
        # Continuous dwell gives every user its own material and its own
        # reference, so the build and run counts do not depend on which
        # worker ran which shard.  At 32 slots inferences complete, so
        # the batches fill rows.
        spec = self._continuous_spec(tiny_experiment, 6, n_windows=32)
        runner = FleetRunner(tiny_experiment, spec, shard_size=3)

        def metrics(workers):
            obs = Observability(tracer=NULL_TRACER)
            runner.run(workers=workers, obs=obs)
            return obs.metrics

        observed = metrics(workers)
        exported = observed.to_dict()
        timers = exported["timers"]
        assert timers["predcache.build_material"]["calls"] == spec.size
        assert exported["gauges"]["predcache.misses"] >= 1
        # Each shard's batch is timed: its set-up once, each run's share
        # (every user's and every reference's) and its fills.
        assert timers["kernel.setup"]["calls"] == len(runner.shards())
        assert timers["experiment.run"]["calls"] == 2 * spec.size
        assert timers["predcache.fill"]["calls"] >= 1
        assert observed.deterministic_dict() == metrics(1).deterministic_dict()


class TestFleetRunner:
    def test_run_covers_cohort(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=5)
        result = runner.run()
        assert result.users == 12
        assert result.users_simulated == 12
        assert result.shards == 3
        assert result.lost_users == 0
        assert result.users_per_second > 0
        assert "users/s" in result.summary()

    def test_sequential_equals_parallel(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        seq = runner.run()
        par = runner.run(workers=2)
        assert seq.aggregate.stats_json() == par.aggregate.stats_json()

    def test_journal_resume_after_interrupt(
        self, tiny_experiment, fleet_spec, tmp_path
    ):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        path = str(tmp_path / "fleet.journal")
        baseline = runner.run()
        first = runner.run(journal=path)
        assert first.journal_hits == 0
        # Interrupt: drop everything after the header and first cell, as
        # a crash mid-run would leave it.
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:2])
        resumed = runner.run(journal=path)
        assert resumed.journal_hits == 1
        assert resumed.users_simulated == 8
        assert resumed.aggregate.stats_json() == baseline.aggregate.stats_json()
        # Fully journaled: nothing left to simulate.
        replay = runner.run(journal=path)
        assert replay.journal_hits == 3
        assert replay.users_simulated == 0
        assert replay.aggregate.stats_json() == baseline.aggregate.stats_json()

    def test_journal_rejects_other_cohort(
        self, tiny_experiment, fleet_spec, tmp_path
    ):
        path = str(tmp_path / "fleet.journal")
        FleetRunner(tiny_experiment, fleet_spec, shard_size=4).run(journal=path)
        other = CohortSpec(
            size=12, seed=99, base=tiny_experiment.config, n_timelines=2
        )
        with pytest.raises(FleetError):
            FleetRunner(tiny_experiment, other, shard_size=4).run(journal=path)

    def test_obs_counters(self, tiny_experiment, fleet_spec):
        obs = Observability()
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=6)
        runner.run(obs=obs)
        exported = obs.metrics.to_dict()
        assert exported["counters"]["fleet.users"] == 12
        assert exported["counters"]["fleet.shards"] == 2
        assert exported["timers"]["fleet.run"]["calls"] == 1

    def test_validation(self, tiny_experiment, fleet_spec):
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec, shard_size=0)
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec, policies=[])
        with pytest.raises(ConfigurationError):
            FleetRunner(tiny_experiment, fleet_spec).run(on_failure="ignore")

    def test_shard_cells_and_layout(self, tiny_experiment, fleet_spec):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=5)
        assert runner.shards() == [(0, 5), (5, 10), (10, 12)]
        assert shard_cell(0, 5) == "shard:0-5"
        assert runner.fingerprint() != FleetRunner(
            tiny_experiment, fleet_spec, shard_size=4
        ).fingerprint()


class TestFailurePolicy:
    """``on_failure`` in this process: the same contract as the pool's."""

    @pytest.fixture
    def broken_shard(self, monkeypatch):
        import repro.fleet.runner as runner_mod

        real = runner_mod.shard_aggregate

        def flaky(experiment, spec, policies, lo, hi, **kwargs):
            if lo == 4:
                raise RuntimeError("synthetic shard failure")
            return real(experiment, spec, policies, lo, hi, **kwargs)

        monkeypatch.setattr(runner_mod, "shard_aggregate", flaky)

    def test_sequential_salvage_reports_failed_shard(
        self, tiny_experiment, fleet_spec, broken_shard
    ):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        result = runner.run(on_failure="salvage")
        assert [(cell, attempts) for cell, attempts, _ in result.failed] == [
            ("shard:4-8", 1)
        ]
        assert "synthetic shard failure" in result.failed[0][2]
        assert result.lost_users == 4
        assert result.users == 8

    def test_sequential_raise_names_failed_shard(
        self, tiny_experiment, fleet_spec, broken_shard, tmp_path
    ):
        runner = FleetRunner(tiny_experiment, fleet_spec, shard_size=4)
        path = str(tmp_path / "fleet.journal")
        with pytest.raises(FleetError, match="shard:4-8") as excinfo:
            runner.run(journal=path)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The surviving shards finished and stayed journaled.
        journal = SweepJournal.open(path, runner.fingerprint())
        assert journal.cells == ["shard:0-4", "shard:8-12"]
        journal.close()


class TestUserMetrics:
    def test_fields_and_reference_drop(self, tiny_experiment):
        result = tiny_experiment.run(origin_policy(12), seed=5)
        metrics = user_metrics(result, reference=result)
        assert metrics["event_accuracy"] == result.event_accuracy
        assert metrics["completions"] == float(result.total_completions)
        assert metrics["accuracy_drop"] == 0.0
        without = user_metrics(result)
        assert "accuracy_drop" not in without

    def test_bounds_cover_metrics(self):
        bounds = default_metric_bounds(60, 3)
        for name in (
            "event_accuracy",
            "overall_accuracy",
            "completion_rate",
            "completions",
            "harvested_j",
            "consumed_j",
            "comm_energy_j",
            "accuracy_drop",
        ):
            lo, hi = bounds[name]
            assert lo < hi


class TestCli:
    def test_summarize_round_trip(self, tiny_experiment, fleet_spec, tmp_path, capsys):
        from repro.fleet.__main__ import main

        result = FleetRunner(tiny_experiment, fleet_spec, shard_size=6).run()
        payload = {
            "kind": "fleet-run",
            "schema_version": 1,
            "users": result.users,
            "shards": result.shards,
            "elapsed_s": round(result.elapsed_s, 3),
            "users_per_second": round(result.users_per_second, 1),
            "aggregate": result.aggregate.to_dict(),
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(payload))
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "users/s" in out and "event_accuracy" in out

    def test_summarize_rejects_foreign_payload(self, tmp_path):
        from repro.errors import ReproError
        from repro.fleet.__main__ import main

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ReproError):
            main(["summarize", str(path)])

    def test_run_parser_surface(self):
        from repro.fleet.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["run", "--users", "100", "--workers", "2", "--shard-size", "32"]
        )
        assert args.users == 100 and args.workers == 2
        assert args.policy == "origin" and args.dataset == "mhealth"
