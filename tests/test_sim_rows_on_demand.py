"""Rows on demand: batch-independent logits and lazily filled run material.

A window's logits depend only on the window (one GEMM per window at
inference), so a material computes a row only when a run first needs it
and gets the same bytes it would by computing the whole seed.  These
tests pin both halves: row independence of ``predict_logits``, and
lazy materials (filled in any order, inside kernel batches, across a
fleet shard, by a served device) against completed ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import SignalSynthesizer
from repro.errors import ConfigurationError
from repro.fleet import CohortSpec, ParameterDist
from repro.fleet.runner import shard_aggregate
from repro.nn.architectures import HARArchitecture, build_har_cnn
from repro.nn.model import Sequential
from repro.obs import Observability
from repro.obs.summarize import split_runs
from repro.obs.trace import NULL_TRACER
from repro.serve.client import DeviceSim
from repro.serve.session import ServeProfile
from repro.sim import predcache
from repro.sim.kernel import BatchGroup, run_group_batch, run_policy_batch
from repro.sim.predcache import build_run_material, fill_rows
from repro.sim.sweep import PolicySweep
from tests.test_goldens import PLANS, events_document, run_document

BATCH_SIZES = (1, 7, 255, 256, 257, 300)


def _windows(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(count, 6, 128)).astype(np.float32)


def _bundle_model(request, dataset: str, pruned: bool, node: int) -> Sequential:
    prefix = "tiny" if dataset == "mhealth" else "tiny_pamap2"
    models = request.getfixturevalue(f"{prefix}_bundle").models(pruned=pruned)
    return models[sorted(models)[node % len(models)]]


# ---------------------------------------------------------------------------
# row independence
# ---------------------------------------------------------------------------


def _assert_row_independent(model: Sequential, windows: np.ndarray, data) -> None:
    full = model.predict_logits(windows, batch_size=len(windows))
    n = len(windows)
    # Any subset with duplicates, in any order, at any batch size.
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40), label="rows")
    batch = data.draw(st.sampled_from(BATCH_SIZES), label="batch_size")
    np.testing.assert_array_equal(model.predict_logits(windows[rows], batch), full[rows])
    # The whole set, permuted, at another batch size.
    order = np.random.default_rng(data.draw(st.integers(0, 2**31), label="perm")).permutation(n)
    batch = data.draw(st.sampled_from(BATCH_SIZES), label="batch_size_perm")
    np.testing.assert_array_equal(model.predict_logits(windows[order], batch), full[order])


class TestRowIndependence:
    @pytest.mark.parametrize("pruned", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("dataset", ["mhealth", "pamap2"])
    @settings(max_examples=8, deadline=None)
    @given(node=st.integers(0, 2), data=st.data())
    def test_bundle_models(self, request, dataset, pruned, node, data):
        model = _bundle_model(request, dataset, pruned, node)
        _assert_row_independent(model, _windows(node, 300), data)

    @settings(max_examples=12, deadline=None)
    @given(
        stages=st.integers(1, 3),
        filters=st.integers(1, 12),
        kernel=st.integers(1, 7),
        pool=st.integers(1, 3),
        dense=st.integers(1, 24),
        classes=st.integers(2, 9),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_random_architectures(self, stages, filters, kernel, pool, dense, classes, seed, data):
        arch = HARArchitecture(
            conv_filters=(filters,) * stages,
            kernel_sizes=(kernel,) * stages,
            pool_sizes=(pool,) * stages,
            dense_units=dense,
        )
        model = build_har_cnn(6, 128, classes, architecture=arch, seed=seed)
        _assert_row_independent(model, _windows(seed, 64), data)


# ---------------------------------------------------------------------------
# lazy materials
# ---------------------------------------------------------------------------


def _material(experiment, seed: int, subject=None, **overrides):
    config = replace(experiment.config, **overrides)
    return build_run_material(
        experiment.dataset,
        experiment.bundle,
        seed,
        n_windows=config.n_windows,
        dwell_scale=config.dwell_scale,
        use_pruned_models=config.use_pruned_models,
        subject=subject,
    )


def _subjects(experiment) -> list:
    """The default subject, a training subject and the canonical profile."""
    dataset = experiment.dataset
    return [None, dataset.train_subjects[0], SubjectProfile.canonical()]


def _assert_same_material(lazy, full) -> None:
    assert lazy.labels == full.labels
    for node_id in full.logits:
        for name in ("windows", "logits", "probabilities"):
            np.testing.assert_array_equal(
                getattr(lazy, name)[node_id], getattr(full, name)[node_id], err_msg=name
            )
        every = np.arange(full.n_windows)
        for got, expected in zip(lazy.rows(node_id, every), full.rows(node_id, every)):
            np.testing.assert_array_equal(got, expected)


class TestLazyMaterial:
    def test_building_computes_nothing(self, tiny_experiment, monkeypatch):
        calls = []
        monkeypatch.setattr(Sequential, "predict_logits", lambda *args, **kw: calls.append(1))
        material = _material(tiny_experiment, 4)
        assert len(material.probabilities) == len(tiny_experiment.dataset.spec.locations)
        assert list(material.logits) == list(material.windows)
        assert all(node_id in material.logits for node_id in material.windows)
        assert not any(material.filled(node_id).any() for node_id in material.logits)
        assert calls == []

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_request_orders_match_completion(self, tiny_experiment, data):
        # One fill_rows call may mix materials of different seed, dwell
        # and subject; every row must still match its completed material.
        n_windows = data.draw(st.integers(1, 50), label="n_windows")
        keys = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 6),
                    st.sampled_from([0.5, 2.0, 5.0]),
                    st.integers(0, len(_subjects(tiny_experiment)) - 1),
                ),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            label="materials",
        )

        def build(key):
            seed, dwell, subject = key
            return _material(
                tiny_experiment, seed, subject=_subjects(tiny_experiment)[subject],
                n_windows=n_windows, dwell_scale=dwell,
            )

        lazy = {key: build(key) for key in keys}
        node_ids = list(next(iter(lazy.values())).logits)
        for _ in range(data.draw(st.integers(1, 6), label="requests")):
            requests = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(keys),
                        st.sampled_from(node_ids),
                        st.lists(st.integers(0, n_windows - 1), min_size=1, max_size=12),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                label="fill",
            )
            fill_rows([(lazy[key], node_id, slots) for key, node_id, slots in requests])
            for key, node_id, slots in requests:
                assert lazy[key].filled(node_id)[slots].all()
                labels, confidences = lazy[key].rows(node_id, slots)
                expected = build(key).complete().rows(node_id, slots)
                np.testing.assert_array_equal(labels, expected[0])
                np.testing.assert_array_equal(confidences, expected[1])
        for key, material in lazy.items():
            _assert_same_material(material, build(key))

    def test_item_access_completes_one_node(self, tiny_experiment):
        material = _material(tiny_experiment, 5)
        first, *others = list(material.logits)
        material.probabilities[first]
        assert material.filled(first).all()
        assert not any(material.filled(node_id).any() for node_id in others)

    def test_arrays_are_read_only(self, tiny_experiment):
        material = _material(tiny_experiment, 5, n_windows=8).complete()
        node_id = next(iter(material.logits))
        with pytest.raises(ValueError):
            material.logits[node_id][0, 0] = 1.0
        with pytest.raises(TypeError):
            material.logits[node_id] = None

    def test_fill_is_timed_on_the_callers_obs(self, tiny_experiment):
        obs = Observability(tracer=NULL_TRACER)
        material = _material(tiny_experiment, 6, n_windows=12)
        node_id = next(iter(material.logits))
        fill_rows([(material, node_id, [3, 4])], obs=obs)
        fill_rows([(material, node_id, [4])], obs=obs)  # nothing left to compute
        material.complete(obs=obs)
        material.complete(obs=obs)
        assert obs.metrics.to_dict()["timers"]["predcache.fill"]["calls"] == 2

    def test_fill_parts_are_timed_within_the_fill(self, tiny_experiment):
        obs = Observability(tracer=NULL_TRACER)
        run_policy_batch(
            tiny_experiment, GRID, 4, material=_material(tiny_experiment, 4), obs=obs
        )
        timers = obs.metrics.to_dict()["timers"]
        parts = [timers[f"predcache.fill.{name}"] for name in ("draw_pass", "render", "predict")]
        assert all(part["calls"] > 0 for part in parts)
        assert sum(part["total_s"] for part in parts) <= timers["predcache.fill"]["total_s"]

    def test_slots_outside_the_material_are_rejected(self, tiny_experiment):
        material = _material(tiny_experiment, 6, n_windows=20)
        node_id = next(iter(material.logits))
        for slots in ([-1], [20], [2.7], [float("nan")], [True]):
            with pytest.raises(ConfigurationError):
                material.rows(node_id, slots)
            with pytest.raises(ConfigurationError):
                fill_rows([(material, node_id, slots)])
        assert not material.filled(node_id).any()
        labels, confidences = material.rows(node_id, [19])
        with pytest.raises(ConfigurationError):
            material.rows(node_id, [-1])  # would wrap to slot 19
        with pytest.raises(ConfigurationError):
            material.rows(node_id, [19.5])  # would truncate to slot 19
        for got, expected in zip(material.rows(node_id, [19.0]), (labels, confidences)):
            np.testing.assert_array_equal(got, expected)
        assert material.filled(node_id).tolist() == [False] * 19 + [True]


# ---------------------------------------------------------------------------
# kernel batches on lazy materials
# ---------------------------------------------------------------------------

GRID = [naive_policy(), rr_policy(3), aas_policy(6), aasr_policy(9), origin_policy(12)]


def _observe(mode: str):
    if mode == "untraced":
        return None
    return Observability(tracer=NULL_TRACER) if mode == "metrics" else Observability()


def _batch_document(experiment, material, mode: str, plan) -> list:
    obs = _observe(mode)
    results = run_policy_batch(experiment, GRID, 4, material=material, faults=plan, obs=obs)
    document = [run_document(result) for result in results]
    if obs is not None:
        document.append(events_document(obs.tracer.events))
        document.append(obs.metrics.deterministic_dict())
    return document


class TestKernelBatchOnLazyMaterial:
    @pytest.mark.parametrize("plan", [None, "composed"])
    @pytest.mark.parametrize("mode", ["untraced", "metrics", "traced"])
    def test_lazy_equals_completed(self, tiny_experiment, mode, plan):
        plan = None if plan is None else PLANS[plan]
        lazy = _material(tiny_experiment, 4)
        full = _material(tiny_experiment, 4).complete()
        assert _batch_document(tiny_experiment, lazy, mode, plan) == _batch_document(
            tiny_experiment, full, mode, plan
        )
        filled = sum(int(lazy.filled(node_id).sum()) for node_id in lazy.logits)
        assert 0 < filled < lazy.n_windows * len(lazy.logits)


class TestShardRows:
    def test_origin_shard_computes_completed_rows_once(self, tiny_experiment, monkeypatch):
        # A fleet shard's shape: one origin_policy(12) group per user
        # plus one reference group per material, all in one batch.
        spec = CohortSpec(
            size=6,
            seed=9,
            base=replace(tiny_experiment.config, n_windows=40),
            n_timelines=1,
            dwell_scale=ParameterDist.uniform(2.0, 5.0),
        )
        users = list(spec.users(0, spec.size))
        materials = [
            _material(
                tiny_experiment, user.seed,
                n_windows=user.config.n_windows, dwell_scale=user.config.dwell_scale,
            )
            for user in users
        ]
        groups = [
            BatchGroup(policies=[origin_policy(12)], seed=user.seed, config=user.config,
                       material=material)
            for user, material in zip(users, materials)
        ] + [
            BatchGroup(policies=[origin_policy(12)], seed=user.seed,
                       config=replace(spec.base, dwell_scale=user.config.dwell_scale),
                       material=material)
            for user, material in zip(users, materials)
        ]
        rows = []
        real = Sequential.predict_logits

        def counting(self, x, *args, **kwargs):
            rows.append(len(x))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Sequential, "predict_logits", counting)
        obs = Observability()
        run_group_batch(tiny_experiment, groups, obs=obs)
        completed = [set() for _ in materials]
        for index, events in enumerate(split_runs(obs.tracer.events)):
            for event in events:
                if event.kind == "inference.completed":
                    completed[index % len(materials)].add(
                        (event.node_id, event.payload["started_slot"])
                    )
        filled = [
            {(node_id, int(slot)) for node_id in material.logits
             for slot in np.flatnonzero(material.filled(node_id))}
            for material in materials
        ]
        assert filled == completed
        assert 0 < sum(rows) == sum(map(len, filled))


    def test_shard_renders_and_predicts_once_per_fill_group(self, tiny_experiment, monkeypatch):
        # Each fill renders all of a model group's rows in one call and
        # classifies them in one predict; no window goes through batch.
        spec = CohortSpec(size=16, seed=5, base=tiny_experiment.config, n_timelines=2)
        calls = {"groups": 0, "render": 0, "predict": 0, "batch": 0}
        real_fill, real_render = predcache._fill, SignalSynthesizer._render
        real_predict, real_batch = Sequential.predict_logits, SignalSynthesizer.batch

        def fill(parts, obs):
            calls["groups"] += len({id(node.model) for _, node, _ in parts})
            return real_fill(parts, obs)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(predcache, "_fill", fill)
        monkeypatch.setattr(SignalSynthesizer, "_render", counted("render", real_render))
        monkeypatch.setattr(Sequential, "predict_logits", counted("predict", real_predict))
        monkeypatch.setattr(SignalSynthesizer, "batch", counted("batch", real_batch))
        shard_aggregate(tiny_experiment, spec, [origin_policy(12)], 0, spec.size)
        assert calls["groups"] > 0
        assert calls["render"] == calls["predict"] == calls["groups"]
        assert calls["batch"] == 0


class TestServedDeviceRows:
    def test_device_fills_only_the_rows_it_reports(self, tiny_experiment):
        # A served device reads rows as a kernel batch does: one per
        # completed report, at the slot whose window it classified.
        sim = DeviceSim(tiny_experiment, seed=9)
        engine = ServeProfile.from_experiment("test", tiny_experiment).build_engine(
            origin_policy(6)
        )
        full = _material(tiny_experiment, 9).complete()
        reported = {node_id: set() for node_id in sim.node_ids}
        for slot in range(sim.n_windows):
            ready = [state.ready for state in sim.states().values()]
            reports = sim.step(slot, engine.begin_slot(slot, ready))
            for report in reports:
                if report.completed:
                    reported[report.node_id].add(report.started_slot)
                    labels, confidences = full.rows(report.node_id, [report.started_slot])
                    assert report.predicted_label == labels[0]
                    assert report.confidence == confidences[0]
            engine.finish_slot(slot, reports)
        assert any(reported.values())
        for node_id, started in reported.items():
            assert set(np.flatnonzero(sim.material.filled(node_id)).tolist()) == started


# ---------------------------------------------------------------------------
# dense consumers complete first
# ---------------------------------------------------------------------------


class TestSweepUnitCompletes:
    def test_one_predict_per_node_and_variant(self, tiny_experiment, monkeypatch):
        calls = {}
        real = Sequential.predict_logits

        def counting(self, x, *args, **kwargs):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Sequential, "predict_logits", counting)
        PolicySweep(tiny_experiment, n_seeds=1).run(GRID, seed=4)
        bundle = tiny_experiment.bundle
        pruned, unpruned = bundle.models(pruned=True), bundle.models(pruned=False)
        # The material's pass (pruned) and Baseline-1's (unpruned).
        assert sorted(calls.values()) == [1] * (len(pruned) + len(unpruned))
        assert set(calls) == {id(m) for m in (*pruned.values(), *unpruned.values())}

    def test_baseline_on_lazy_material_completes_it(self, tiny_experiment):
        from repro.core.policies import Baseline2
        from repro.sim.baselines import evaluate_baseline

        lazy = _material(tiny_experiment, 7)
        config = tiny_experiment.config
        result = evaluate_baseline(
            tiny_experiment.dataset, tiny_experiment.bundle, Baseline2, seed=7,
            n_windows=config.n_windows, dwell_scale=config.dwell_scale, material=lazy,
        )
        assert all(lazy.filled(node_id).all() for node_id in lazy.logits)
        assert len(result.predicted_labels) == config.n_windows
