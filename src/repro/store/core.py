"""The content-addressed on-disk artifact store.

Layout under the store root::

    objects/<key>/manifest.json     # schema, checksums, payload metadata
    objects/<key>/<payload files>   # e.g. chest.pruned.npz
    objects/<key>/.last_used        # mtime = last hit (GC recency)
    locks/<key>.lock                # per-entry cross-process lock
    locks/_store.lock               # store-wide lock (GC scan)
    tmp/<pid>-<n>/                  # private staging dirs

Concurrency protocol:

* **Writers** stage the full entry (payload + manifest) in a private
  ``tmp/`` directory, then take the per-key lock and ``os.rename`` the
  staged directory into ``objects/`` — atomic on POSIX, so readers only
  ever see complete entries.  A writer that finds the entry already
  present (it lost the race) discards its staging dir; both racers
  succeed.
* **Readers** verify the manifest's per-file SHA-256 checksums on every
  ``get``.  Any mismatch, unreadable file or malformed manifest evicts
  the entry under its lock and reports a miss — corruption is rebuilt,
  never propagated.
* **GC** takes the store-wide lock, then each victim's per-key lock
  before deleting, so it cannot tear an entry out from under a writer.

The root comes from ``REPRO_STORE_DIR`` (default
``~/.cache/repro-origin/store``) and the whole store is switched off by
``REPRO_STORE=off|0|false|no`` — a disabled store reports every ``get``
as a miss and makes ``put`` a no-op, reproducing store-less behavior
bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import StoreError
from repro.obs.observer import NULL_OBS, Observability
from repro.store.keys import STORE_SCHEMA_VERSION
from repro.store.locks import FileLock

logger = logging.getLogger(__name__)

#: Environment variable naming the store root directory.
ENV_STORE_DIR = "REPRO_STORE_DIR"
#: Environment variable switching the store off entirely.
ENV_STORE_SWITCH = "REPRO_STORE"
#: Values of :data:`ENV_STORE_SWITCH` that disable the store.
_OFF_VALUES = frozenset({"0", "off", "false", "no"})

MANIFEST_NAME = "manifest.json"
_LAST_USED_NAME = ".last_used"

_tmp_counter = itertools.count()


def store_enabled_by_env() -> bool:
    """Whether the environment leaves the store switched on."""
    return os.environ.get(ENV_STORE_SWITCH, "1").strip().lower() not in _OFF_VALUES


def default_store_root() -> str:
    """The configured (or default per-user) store root."""
    root = os.environ.get(ENV_STORE_DIR, "").strip()
    if root:
        return os.path.abspath(os.path.expanduser(root))
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-origin", "store")


def default_store(obs: Optional[Observability] = None) -> "ArtifactStore":
    """The environment-configured store (possibly disabled).

    Resolved at call time, not import time, so tests and CI can flip
    ``REPRO_STORE_DIR`` / ``REPRO_STORE`` per invocation.
    """
    return ArtifactStore(
        default_store_root(), enabled=store_enabled_by_env(), obs=obs
    )


def _sha256_file(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _entry_bytes(path: str, manifest: Dict[str, Any]) -> int:
    """An entry's size: its manifest-recorded payload plus the manifest file.

    A manifest-only entry (``dataset-digests``) is all manifest.
    """
    payload = sum(spec["bytes"] for spec in manifest.get("files", {}).values())
    return int(payload) + os.path.getsize(os.path.join(path, MANIFEST_NAME))


@dataclass
class StoreEntry:
    """One complete, integrity-checked entry as returned by ``get``."""

    key: str
    path: str
    manifest: Dict[str, Any]

    @property
    def payload(self) -> Dict[str, Any]:
        """The writer-supplied metadata block."""
        return self.manifest.get("payload", {})

    def file_path(self, name: str) -> str:
        """Absolute path of one payload file (must be in the manifest)."""
        if name not in self.manifest.get("files", {}):
            raise StoreError(f"entry {self.key} has no payload file {name!r}")
        return os.path.join(self.path, name)

    @property
    def size_bytes(self) -> int:
        """Payload bytes recorded in the manifest plus the manifest's own."""
        return _entry_bytes(self.path, self.manifest)


@dataclass
class EntryStatus:
    """One ``verify``/``ls`` row."""

    key: str
    ok: bool
    size_bytes: int = 0
    age_s: float = 0.0
    idle_s: float = 0.0
    kind: str = "?"
    problems: List[str] = field(default_factory=list)


class ArtifactStore:
    """Content-addressed artifact store (see module docstring).

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).
    enabled:
        A disabled store misses every ``get`` and no-ops every ``put``.
    obs:
        Observability bundle; the store itself records only the
        ``store.corrupt`` counter (integrity evictions) and
        ``store.gc_removed`` — hit/miss/build accounting lives with the
        caller, which knows what a miss cost to rebuild.
    """

    def __init__(
        self,
        root: str,
        *,
        enabled: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.enabled = bool(enabled)
        self.obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------------
    # paths + locks
    # ------------------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def entry_path(self, key: str) -> str:
        """Directory an entry with ``key`` lives in (present or not)."""
        self._check_key(key)
        return os.path.join(self._objects_dir(), key)

    def lock(self, key: str, *, timeout_s: Optional[float] = None) -> FileLock:
        """The cross-process lock guarding one entry.

        ``timeout_s=None`` (default) uses the configured acquisition
        timeout: ``REPRO_STORE_LOCK_TIMEOUT`` when set, else 60s.
        """
        self._check_key(key)
        return FileLock(
            os.path.join(self.root, "locks", f"{key}.lock"), timeout_s=timeout_s
        )

    def _store_lock(self) -> FileLock:
        return FileLock(os.path.join(self.root, "locks", "_store.lock"))

    @staticmethod
    def _check_key(key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed store key {key!r} (want lowercase hex)")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Fast presence probe (no integrity check)."""
        if not self.enabled:
            return False
        return os.path.isfile(os.path.join(self.entry_path(key), MANIFEST_NAME))

    def get(self, key: str) -> Optional[StoreEntry]:
        """Integrity-checked lookup: the entry, or ``None`` on miss.

        A corrupt entry (bad checksum, missing file, malformed manifest,
        schema mismatch) is evicted under its lock, counted in the
        ``store.corrupt`` metric, and reported as a miss.
        """
        if not self.enabled:
            return None
        path = self.entry_path(key)
        if not os.path.isfile(os.path.join(path, MANIFEST_NAME)):
            return None
        problems = self._entry_problems(key, path)
        if problems:
            logger.warning("evicting corrupt store entry %s: %s", key, problems)
            if self.obs.enabled:
                self.obs.metrics.inc("store.corrupt")
            self.invalidate(key)
            return None
        manifest = self._read_manifest(path)
        self._touch(path)
        return StoreEntry(key=key, path=path, manifest=manifest)

    def _read_manifest(self, path: str) -> Dict[str, Any]:
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            return json.load(handle)

    def _entry_problems(self, key: str, path: str) -> List[str]:
        """All integrity problems of one entry (empty = healthy)."""
        try:
            manifest = self._read_manifest(path)
        except (OSError, json.JSONDecodeError) as error:
            return [f"unreadable manifest: {error}"]
        problems: List[str] = []
        if manifest.get("schema_version") != STORE_SCHEMA_VERSION:
            problems.append(
                f"schema {manifest.get('schema_version')} != {STORE_SCHEMA_VERSION}"
            )
        if manifest.get("key") != key:
            problems.append(f"manifest key {manifest.get('key')!r} != directory {key!r}")
        for name, spec in manifest.get("files", {}).items():
            file_path = os.path.join(path, name)
            if not os.path.isfile(file_path):
                problems.append(f"missing file {name}")
                continue
            if os.path.getsize(file_path) != spec["bytes"]:
                problems.append(f"size mismatch for {name}")
                continue
            if _sha256_file(file_path) != spec["sha256"]:
                problems.append(f"checksum mismatch for {name}")
        return problems

    @staticmethod
    def _touch(path: str) -> None:
        marker = os.path.join(path, _LAST_USED_NAME)
        try:
            with open(marker, "a"):
                pass
            os.utime(marker, None)
        except OSError:  # pragma: no cover - read-only store roots
            pass

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        stage: Callable[[str], Dict[str, Any]],
        *,
        kind: str = "artifact",
    ) -> Optional[StoreEntry]:
        """Stage and publish one entry; idempotent under races.

        ``stage(tmpdir)`` writes the payload files into ``tmpdir`` and
        returns the JSON-serializable metadata block stored as the
        manifest's ``payload``.  Checksums are computed over everything
        staged; the finished directory is renamed into place under the
        entry lock.  Returns the published entry (which may be a racing
        writer's identical one), or ``None`` on a disabled store.
        """
        if not self.enabled:
            return None
        path = self.entry_path(key)
        tmp = os.path.join(
            self.root, "tmp", f"{os.getpid()}-{next(_tmp_counter)}"
        )
        os.makedirs(tmp)
        try:
            payload = stage(tmp)
            files = {}
            for name in sorted(os.listdir(tmp)):
                file_path = os.path.join(tmp, name)
                files[name] = {
                    "sha256": _sha256_file(file_path),
                    "bytes": os.path.getsize(file_path),
                }
            manifest = {
                "schema_version": STORE_SCHEMA_VERSION,
                "key": key,
                "kind": kind,
                "created_utc": time.time(),
                "files": files,
                "payload": payload,
            }
            with open(os.path.join(tmp, MANIFEST_NAME), "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            with self.lock(key):
                if os.path.isfile(os.path.join(path, MANIFEST_NAME)):
                    logger.debug("store put lost the race for %s; keeping winner", key)
                else:
                    os.makedirs(self._objects_dir(), exist_ok=True)
                    os.rename(tmp, path)
                    tmp = None  # published
            if self.obs.enabled:
                self.obs.metrics.inc("store.put")
            return StoreEntry(key=key, path=path, manifest=self._read_manifest(path))
        finally:
            if tmp is not None and os.path.isdir(tmp):
                shutil.rmtree(tmp, ignore_errors=True)

    def invalidate(self, key: str) -> bool:
        """Delete one entry (under its lock); True if anything was removed."""
        path = self.entry_path(key)
        with self.lock(key):
            if not os.path.isdir(path):
                return False
            shutil.rmtree(path, ignore_errors=True)
            return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def keys(self) -> List[str]:
        """All entry keys currently on disk (sorted)."""
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return []
        return sorted(
            name
            for name in os.listdir(objects)
            if os.path.isfile(os.path.join(objects, name, MANIFEST_NAME))
        )

    def status(self, key: str) -> EntryStatus:
        """Health + size + age of one entry (checksums recomputed)."""
        path = self.entry_path(key)
        problems = self._entry_problems(key, path)
        size = 0
        created = last_used = None
        try:
            manifest = self._read_manifest(path)
            size = _entry_bytes(path, manifest)
            created = manifest.get("created_utc")
            kind = manifest.get("kind", "?")
        except (OSError, json.JSONDecodeError):
            kind = "?"
        marker = os.path.join(path, _LAST_USED_NAME)
        try:
            last_used = os.path.getmtime(marker)
        except OSError:
            last_used = created
        now = time.time()
        return EntryStatus(
            key=key,
            ok=not problems,
            size_bytes=size,
            age_s=max(0.0, now - created) if created else 0.0,
            idle_s=max(0.0, now - last_used) if last_used else 0.0,
            kind=kind,
            problems=problems,
        )

    def verify(self) -> List[EntryStatus]:
        """Recheck every entry's checksums; corrupt entries are kept
        (use ``gc`` or ``invalidate`` to drop them)."""
        return [self.status(key) for key in self.keys()]

    def size_bytes(self) -> int:
        """Total size across entries, payloads and manifests."""
        return sum(self.status(key).size_bytes for key in self.keys())

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        drop_corrupt: bool = True,
    ) -> Dict[str, Any]:
        """Expire old entries, then trim to a size budget (LRU order).

        Returns a report dict: removed keys (grouped by reason), bytes
        reclaimed and surviving totals.  Runs under the store-wide lock
        so two concurrent GCs cannot double-delete.
        """
        removed: Dict[str, List[str]] = {"corrupt": [], "expired": [], "evicted": []}
        reclaimed = 0
        with self._store_lock():
            statuses = [self.status(key) for key in self.keys()]
            survivors: List[EntryStatus] = []
            for status in statuses:
                if drop_corrupt and not status.ok:
                    reclaimed += status.size_bytes
                    self.invalidate(status.key)
                    removed["corrupt"].append(status.key)
                elif max_age_s is not None and status.age_s > max_age_s:
                    reclaimed += status.size_bytes
                    self.invalidate(status.key)
                    removed["expired"].append(status.key)
                else:
                    survivors.append(status)
            if max_bytes is not None:
                total = sum(status.size_bytes for status in survivors)
                # Least-recently-used first; ties broken by key for
                # deterministic eviction order.
                survivors.sort(key=lambda status: (-status.idle_s, status.key))
                while survivors and total > max_bytes:
                    victim = survivors.pop(0)
                    total -= victim.size_bytes
                    reclaimed += victim.size_bytes
                    self.invalidate(victim.key)
                    removed["evicted"].append(victim.key)
        n_removed = sum(len(keys) for keys in removed.values())
        if self.obs.enabled and n_removed:
            self.obs.metrics.inc("store.gc_removed", n_removed)
        return {
            "removed": removed,
            "n_removed": n_removed,
            "reclaimed_bytes": reclaimed,
            "remaining_entries": len(self.keys()),
            "remaining_bytes": self.size_bytes(),
        }
