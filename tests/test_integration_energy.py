"""Cross-module energy-accounting integration tests."""

from repro.core.policies import naive_policy, origin_policy, rr_policy


class TestEnergyAccounting:
    def test_nodes_cannot_spend_more_than_harvested(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(3), seed=8)
        for stats in result.node_stats.values():
            # Capacitors start empty: consumption is bounded by harvest.
            assert stats.consumed_j <= stats.harvested_j + 1e-12

    def test_idle_nodes_only_harvest(self, tiny_experiment):
        result = tiny_experiment.run(rr_policy(12), seed=8)
        total_active = sum(s.active_slots for s in result.node_stats.values())
        compute_slots = sum(1 for r in result.records if r.active_nodes)
        assert total_active == compute_slots

    def test_naive_spends_more_than_rr(self, tiny_experiment):
        naive = tiny_experiment.run(naive_policy(), seed=8)
        rr = tiny_experiment.run(rr_policy(12), seed=8)
        naive_spend = sum(s.consumed_j for s in naive.node_stats.values())
        rr_spend = sum(s.consumed_j for s in rr.node_stats.values())
        assert naive_spend > rr_spend

    def test_completions_never_exceed_attempts(self, tiny_experiment):
        for spec in (rr_policy(3), origin_policy(6)):
            result = tiny_experiment.run(spec, seed=9)
            for record in result.records:
                assert 0 <= record.completions <= record.attempts

    def test_harvest_scales_with_trace(self, tiny_experiment):
        from dataclasses import replace

        saved = tiny_experiment.config
        try:
            tiny_experiment.config = replace(saved, trace_scale=1.0)
            base = tiny_experiment.run(rr_policy(3), seed=10)
            tiny_experiment.config = replace(saved, trace_scale=3.0)
            rich = tiny_experiment.run(rr_policy(3), seed=10)
        finally:
            tiny_experiment.config = saved
        base_h = sum(s.harvested_j for s in base.node_stats.values())
        rich_h = sum(s.harvested_j for s in rich.node_stats.values())
        # Richer trace harvests more (not exactly 3x: capacitor ceiling).
        assert rich_h > base_h

    def test_completion_rate_rises_with_trace_scale(self, tiny_experiment):
        from dataclasses import replace

        saved = tiny_experiment.config
        try:
            tiny_experiment.config = replace(saved, trace_scale=0.4)
            poor = tiny_experiment.run(rr_policy(3), seed=10)
            tiny_experiment.config = replace(saved, trace_scale=4.0)
            rich = tiny_experiment.run(rr_policy(3), seed=10)
        finally:
            tiny_experiment.config = saved
        assert rich.completion_rate >= poor.completion_rate
