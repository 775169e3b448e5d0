"""Tests for the content-addressed artifact store core.

Everything here exercises the store machinery with small synthetic
payloads — no model training.  Bundle (de)hydration and the simulation
wiring are covered in ``test_store_bundles.py``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ReproError, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observability
from repro.obs.summarize import _metrics_section
from repro.store import (
    ENV_STORE_DIR,
    ENV_STORE_SWITCH,
    ArtifactStore,
    FileLock,
    STORE_SCHEMA_VERSION,
    default_store,
    default_store_root,
    store_enabled_by_env,
    trained_bundle_key,
)
from repro.store.__main__ import main as store_cli
from repro.store.core import MANIFEST_NAME


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _put_text(store: ArtifactStore, key: str, text: str = "payload"):
    """Publish one tiny entry whose single file holds ``text``."""

    def stage(tmpdir):
        with open(os.path.join(tmpdir, "data.txt"), "w") as handle:
            handle.write(text)
        return {"note": text}

    return store.put(key, stage, kind="test")


def _put_in_subprocess(root: str, key: str, text: str) -> bool:
    """Module-level so ProcessPoolExecutor can pickle it."""
    entry = _put_text(ArtifactStore(root), key, text)
    return entry is not None


KEY_A = "a" * 32
KEY_B = "b" * 32


class TestErrors:
    def test_store_error_hierarchy(self):
        assert issubclass(StoreError, ReproError)
        assert issubclass(StoreError, RuntimeError)


class TestFileLock:
    def test_blocks_second_locker(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with FileLock(path):
            with pytest.raises(StoreError):
                FileLock(path, timeout_s=0.1).acquire()
        # Released: a fresh locker succeeds immediately.
        with FileLock(path, timeout_s=0.1):
            pass

    def test_double_acquire_rejected(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            with pytest.raises(StoreError):
                lock.acquire()

    def test_env_timeout_override(self, tmp_path, monkeypatch):
        from repro.store.locks import ENV_LOCK_TIMEOUT, default_lock_timeout_s

        monkeypatch.setenv(ENV_LOCK_TIMEOUT, "0.1")
        path = str(tmp_path / "x.lock")
        lock = FileLock(path)  # timeout picked up from the environment
        assert lock.timeout_s == 0.1
        with FileLock(path):
            with pytest.raises(StoreError, match=ENV_LOCK_TIMEOUT):
                FileLock(path).acquire()
        # Explicit timeout_s still beats the environment.
        assert FileLock(path, timeout_s=5.0).timeout_s == 5.0
        # Unset: back to the default.
        monkeypatch.delenv(ENV_LOCK_TIMEOUT)
        assert default_lock_timeout_s() == 60.0

    def test_env_timeout_rejects_garbage(self, monkeypatch):
        from repro.store.locks import ENV_LOCK_TIMEOUT, default_lock_timeout_s

        for bad in ("soon", "-3", "0"):
            monkeypatch.setenv(ENV_LOCK_TIMEOUT, bad)
            with pytest.raises(StoreError, match=ENV_LOCK_TIMEOUT):
                default_lock_timeout_s()


class TestKeys:
    def test_stable_and_sensitive(self, tiny_dataset):
        from repro.nn.energy_model import EnergyCostModel
        from repro.sim.training import TrainingConfig

        kwargs = dict(seed=5, config=TrainingConfig(), cost_model=EnergyCostModel())
        key = trained_bundle_key(tiny_dataset, 160e-6, **kwargs)
        assert key == trained_bundle_key(tiny_dataset, 160e-6, **kwargs)
        assert len(key) == 32 and all(c in "0123456789abcdef" for c in key)
        assert key != trained_bundle_key(tiny_dataset, 170e-6, **kwargs)
        assert key != trained_bundle_key(
            tiny_dataset, 160e-6, seed=6,
            config=TrainingConfig(), cost_model=EnergyCostModel(),
        )
        assert key != trained_bundle_key(
            tiny_dataset, 160e-6, seed=5,
            config=TrainingConfig(epochs=61), cost_model=EnergyCostModel(),
        )

    def test_malformed_key_rejected(self, store):
        for bad in ("", "XYZ", "../escape", "Deadbeef"):
            with pytest.raises(StoreError):
                store.entry_path(bad)


class TestPutGet:
    def test_round_trip(self, store):
        entry = _put_text(store, KEY_A, "hello")
        assert entry is not None
        assert store.contains(KEY_A)
        got = store.get(KEY_A)
        assert got.payload == {"note": "hello"}
        assert got.manifest["schema_version"] == STORE_SCHEMA_VERSION
        with open(got.file_path("data.txt")) as handle:
            assert handle.read() == "hello"
        with pytest.raises(StoreError):
            got.file_path("absent.bin")

    def test_missing_is_none(self, store):
        assert store.get(KEY_A) is None
        assert not store.contains(KEY_A)

    def test_put_race_keeps_winner(self, store):
        _put_text(store, KEY_A, "first")
        _put_text(store, KEY_A, "second")  # loses the race, discarded
        with open(store.get(KEY_A).file_path("data.txt")) as handle:
            assert handle.read() == "first"
        assert store.keys() == [KEY_A]
        # Staging dirs are cleaned either way.
        tmp_dir = os.path.join(store.root, "tmp")
        assert not os.path.isdir(tmp_dir) or os.listdir(tmp_dir) == []

    def test_concurrent_writers_same_key(self, store):
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(
                    _put_in_subprocess,
                    [store.root, store.root],
                    [KEY_A, KEY_A],
                    ["same", "same"],
                )
            )
        assert results == [True, True]
        assert store.keys() == [KEY_A]
        assert store.status(KEY_A).ok

    def test_disabled_store_is_inert(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), enabled=False)
        assert _put_text(store, KEY_A) is None
        assert store.get(KEY_A) is None
        assert not store.contains(KEY_A)
        assert not os.path.isdir(store.root)


class TestIntegrity:
    def test_corruption_is_evicted_as_miss(self, tmp_path):
        obs = Observability()
        store = ArtifactStore(str(tmp_path / "store"), obs=obs)
        entry = _put_text(store, KEY_A, "good")
        with open(entry.file_path("data.txt"), "w") as handle:
            handle.write("evil")  # same size, different bytes
        assert store.get(KEY_A) is None
        assert not store.contains(KEY_A)
        assert obs.metrics.to_dict()["counters"]["store.corrupt"] == 1

    def test_status_names_problems(self, store):
        entry = _put_text(store, KEY_A, "good")
        os.remove(entry.file_path("data.txt"))
        status = store.status(KEY_A)
        assert not status.ok
        assert any("missing file" in problem for problem in status.problems)

    def test_verify_reports_without_deleting(self, store):
        _put_text(store, KEY_A, "good")
        entry = _put_text(store, KEY_B, "good")
        with open(entry.file_path("data.txt"), "w") as handle:
            handle.write("bad!")
        statuses = {status.key: status.ok for status in store.verify()}
        assert statuses == {KEY_A: True, KEY_B: False}
        assert store.keys() == [KEY_A, KEY_B]  # verify never deletes

    def test_schema_mismatch_is_corrupt(self, store):
        entry = _put_text(store, KEY_A)
        manifest_path = os.path.join(entry.path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = STORE_SCHEMA_VERSION + 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        assert store.get(KEY_A) is None


class TestGC:
    def test_age_expiry(self, store):
        entry = _put_text(store, KEY_A)
        _put_text(store, KEY_B)
        manifest_path = os.path.join(entry.path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["created_utc"] = time.time() - 7200
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        report = store.gc(max_age_s=3600)
        assert report["removed"]["expired"] == [KEY_A]
        assert store.keys() == [KEY_B]

    def test_size_trim_is_lru(self, store):
        _put_text(store, KEY_A, "x" * 100)
        _put_text(store, KEY_B, "y" * 100)
        # Make A recently used, B idle (get creates the recency marker).
        store.get(KEY_B)
        store.get(KEY_A)
        old = time.time() - 3600
        os.utime(os.path.join(store.entry_path(KEY_B), ".last_used"), (old, old))
        size_b = store.status(KEY_B).size_bytes
        budget = store.size_bytes() - 1
        report = store.gc(max_bytes=budget)
        assert report["removed"]["evicted"] == [KEY_B]
        assert store.keys() == [KEY_A]
        assert report["reclaimed_bytes"] == size_b
        assert report["remaining_bytes"] <= budget

    def test_sizes_count_the_manifest(self, store, capsys):
        # Manifest-only entries (the dataset-digests kind) have a size,
        # so a size budget can evict them.
        for key in (KEY_A, KEY_B):
            store.put(key, lambda tmpdir: {"splits": {"train": "0" * 64}}, kind="digests")
        _put_text(store, "c" * 32, "x" * 100)
        for key in (KEY_A, KEY_B, "c" * 32):
            manifest = os.path.getsize(os.path.join(store.entry_path(key), MANIFEST_NAME))
            payload = 100 if key == "c" * 32 else 0
            assert store.status(key).size_bytes == payload + manifest
            assert store.get(key).size_bytes == payload + manifest
        store.invalidate("c" * 32)
        assert store_cli(["--store-dir", store.root, "ls"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if "digests" in line]
        assert len(rows) == 2 and not any(" 0 B " in row for row in rows)
        report = store.gc(max_bytes=0)
        assert sorted(report["removed"]["evicted"]) == [KEY_A, KEY_B]
        assert store.keys() == []

    def test_corrupt_dropped_first(self, tmp_path):
        obs = Observability()
        store = ArtifactStore(str(tmp_path / "store"), obs=obs)
        entry = _put_text(store, KEY_A)
        with open(entry.file_path("data.txt"), "w") as handle:
            handle.write("rotten")
        report = store.gc()
        assert report["removed"]["corrupt"] == [KEY_A]
        assert obs.metrics.to_dict()["counters"]["store.gc_removed"] == 1


class TestEnvironment:
    def test_switch_values(self, monkeypatch):
        for value in ("0", "off", "FALSE", " no "):
            monkeypatch.setenv(ENV_STORE_SWITCH, value)
            assert not store_enabled_by_env()
        for value in ("1", "on", "yes"):
            monkeypatch.setenv(ENV_STORE_SWITCH, value)
            assert store_enabled_by_env()
        monkeypatch.delenv(ENV_STORE_SWITCH)
        assert store_enabled_by_env()

    def test_root_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_STORE_DIR, str(tmp_path / "elsewhere"))
        assert default_store_root() == str(tmp_path / "elsewhere")
        monkeypatch.setenv(ENV_STORE_SWITCH, "off")
        assert not default_store().enabled


class TestCLI:
    def run(self, *argv, root):
        return store_cli(["--store-dir", root, *argv])

    def test_ls_and_info(self, store, capsys):
        assert self.run("ls", root=store.root) == 0
        assert "empty store" in capsys.readouterr().out
        _put_text(store, KEY_A, "hello")
        assert self.run("ls", root=store.root) == 0
        out = capsys.readouterr().out
        assert KEY_A in out and "ok" in out
        assert self.run("info", KEY_A, root=store.root) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == {"note": "hello"}
        assert self.run("info", KEY_B, root=store.root) == 1

    def test_verify_exit_codes(self, store, capsys):
        _put_text(store, KEY_A)
        assert self.run("verify", root=store.root) == 0
        entry = store.get(KEY_A)
        with open(entry.file_path("data.txt"), "w") as handle:
            handle.write("corrupt")
        assert self.run("verify", root=store.root) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_gc_and_dry_run(self, store, capsys):
        _put_text(store, KEY_A, "x" * 50)
        _put_text(store, KEY_B, "y" * 50)
        # A budget that holds either entry but not both.
        budget = str(max(store.status(key).size_bytes for key in (KEY_A, KEY_B)))
        assert self.run("gc", "--max-bytes", budget, "--dry-run", root=store.root) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert store.keys() == [KEY_A, KEY_B]  # dry run deleted nothing
        assert self.run("gc", "--max-bytes", budget, root=store.root) == 0
        assert len(store.keys()) == 1


class TestObsSummary:
    def test_store_line_rendered(self):
        metrics = MetricsRegistry()
        metrics.inc("store.hit", 3)
        metrics.inc("store.miss")
        metrics.inc("store.rebuild")
        metrics.timer("store.build").record(2.5)
        lines = _metrics_section(metrics)
        store_lines = [line for line in lines if line.startswith("artifact store:")]
        assert store_lines == [
            "artifact store: 3 hit(s), 1 miss(es), 1 corrupt rebuild(s), build 2.50 s"
        ]
        # Store counters also make the headline counter list.
        assert any("store.hit" in line for line in lines)

    def test_no_store_traffic_no_line(self):
        metrics = MetricsRegistry()
        metrics.inc("sim.runs")
        assert not any(
            line.startswith("artifact store:") for line in _metrics_section(metrics)
        )
