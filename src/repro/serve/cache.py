"""The compiled-program cache: LRU + single-flight + cross-process persistence.

Compilation is the expensive part of the engine by design; the cache makes
it a once-per-configuration cost under concurrent traffic:

* **LRU eviction** bounded by entry count (programs are small on the Python
  side; the dominant memory is template state, which eviction releases).
  Evicting an entry also drops its prebuilt
  :class:`~repro.runtime.plan.ExecutionPlan`; that is counted
  (``prebuilt_plans_dropped``) rather than silent, and the plan is rebuilt
  eagerly the next time the key lands in the cache, so no tenant's first
  step after re-admission pays lowering latency.
* **Single-flight builds**: when many tenants miss on the same key at once,
  exactly one thread compiles while the rest wait on a per-key latch and
  then read the finished entry. No duplicate compile work, no lock held
  across compilation.
* **Cross-process persistence** (``cache_dir``): every built program is
  saved as a deployment artifact (:mod:`repro.deploy.artifact` — graph +
  weights + serialized execution plan) under its canonical key
  (:func:`repro.serve.keys.program_key`). A miss checks the directory
  before compiling, so worker processes and restarts skip compilation
  entirely — they *bind* the persisted plan against the kernel registry
  instead. Writes go to a temp directory followed by an atomic
  ``os.rename``, which is the cross-process analogue of single-flight:
  concurrent writers race, exactly one rename wins, losers discard their
  copy, and readers never observe a half-written artifact.

Cached programs carry their lowered
:class:`~repro.runtime.plan.ExecutionPlan`, so caching a program caches its
plan: every tenant session over a variant shares one instruction stream
through ``Program.with_state`` — and one pool of slabs, borrowed per
running step — and only per-session registers differ.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..errors import PlanVerifyError, PlanVersionError, ReproError
from ..runtime import Program
from .faults import FAULTS


@dataclass
class CacheEntry:
    """One cached compiled program plus bookkeeping."""

    key: str
    program: Program
    compile_seconds: float
    hits: int = 0
    #: True when the entry was bound from a persisted artifact instead of
    #: compiled in this process
    from_disk: bool = False
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def plan(self):
        """The variant's compiled execution plan (shared by its tenants)."""
        return self.program.plan()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: builds actually executed in this process (disk hits are not compiles)
    compiles: int = 0
    #: misses satisfied by binding a persisted artifact
    disk_hits: int = 0
    #: artifacts this process persisted to the cache directory
    disk_writes: int = 0
    #: evictions that discarded an entry whose plan was already lowered
    prebuilt_plans_dropped: int = 0
    #: persisted artifacts skipped because their embedded plan speaks a
    #: spec version this runtime does not (recompiled + overwritten)
    plan_version_miss: int = 0
    #: persisted artifacts that failed to load (corrupt/truncated) and
    #: were quarantined to ``<key>.corrupt`` before recompiling
    corrupt_entries: int = 0
    #: persisted artifacts rejected by the static plan verifier
    #: (:mod:`repro.analysis.planlint`) — quarantined like corrupt ones,
    #: but counted separately: a decodable-but-unsafe plan points at a
    #: miscompile or tampering, not bit rot
    verify_rejects: int = 0
    compile_seconds_total: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ProgramCache:
    """Thread-safe LRU cache of compiled :class:`Program` objects.

    With ``cache_dir`` set, the cache is also a durable, cross-process
    program store (see the module docstring).
    """

    def __init__(self, capacity: int = 32,
                 cache_dir: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._building: dict[str, threading.Event] = {}
        self.stats = CacheStats()

    def get_or_build(self, key: str,
                     build: Callable[[], Program]) -> CacheEntry:
        """Return the entry for ``key``, compiling via ``build`` on a miss.

        A miss first consults the persistent cache directory (if
        configured); only a disk miss runs ``build``. Either way the
        entry's plan is prebuilt before it is published, so tenants never
        pay lowering latency — including after an eviction/re-admission
        cycle. Concurrent misses on one key run the load/build exactly
        once; the other callers block until it lands and count as hits
        (they did not pay for compilation). If the winning build raises,
        waiters retry — one of them becomes the new builder.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.hits += 1
                    self.stats.hits += 1
                    return entry
                latch = self._building.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._building[key] = latch
                    self.stats.misses += 1
                    break  # this thread builds
            latch.wait()
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry.hits += 1
                    self.stats.hits += 1
                    return entry
            # builder failed; loop and race to become the next builder

        began = time.perf_counter()
        try:
            program = self._load_persisted(key)
            from_disk = program is not None
            repair = False
            if program is None:
                # If an artifact dir exists but was unreadable, the rebuild
                # must overwrite it — otherwise the broken artifact would
                # keep feeding worker processes (and defeating warm
                # restarts) forever.
                repair = self.cache_dir is not None \
                    and (self.cache_dir / key).exists()
                program = build()
            # Lowering (or re-binding the persisted plan) happens here, with
            # the miss, never on a tenant's first step. This also repairs
            # the plan dropped when a previous eviction discarded the entry.
            program.plan()
            if not from_disk:
                # Verify before persisting/publishing (on by default here;
                # REPRO_VERIFY_PLANS=0 opts out): a miscompiled plan must
                # never land in the shared cache dir where every worker
                # process would bind it.
                from ..analysis.planlint import check_plan, verify_enabled
                if verify_enabled(default=True):
                    check_plan(program.plan_spec(), program,
                               stage="program cache build")
                self._persist(key, program, overwrite=repair)
        except BaseException:
            # Release waiters; with no entry present they retry the build.
            with self._lock:
                self._building.pop(key, None)
            latch.set()
            raise
        elapsed = time.perf_counter() - began
        entry = CacheEntry(key=key, program=program,
                           compile_seconds=0.0 if from_disk else elapsed,
                           from_disk=from_disk)
        if self.cache_dir is not None:
            # Resolved once here; the process backend reads it per batch
            # and must not pay a manifest stat on the hot step path.
            entry.meta["artifact_path"] = self.cache_dir / key
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if from_disk:
                self.stats.disk_hits += 1
            else:
                self.stats.compiles += 1
                self.stats.compile_seconds_total += elapsed
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._count_eviction(evicted)
            self._building.pop(key, None)
        latch.set()
        return entry

    # -- persistence ---------------------------------------------------------

    def artifact_path(self, key: str) -> Path | None:
        """Where ``key``'s persisted artifact lives (None: not persisted)."""
        if self.cache_dir is None:
            return None
        path = self.cache_dir / key
        return path if (path / "manifest.json").exists() else None

    def _load_persisted(self, key: str) -> Program | None:
        """Bind a persisted artifact for ``key``, or None on a disk miss.

        An unreadable artifact (corrupt or truncated) is treated as a
        miss: the broken directory is *quarantined* — renamed to
        ``<key>.corrupt`` and counted (``corrupt_entries``) — so it stops
        feeding worker processes, stays on disk for forensics, and the
        caller recompiles a clean replacement. A plan whose spec version
        this runtime does not speak is the same miss but is counted
        separately (``plan_version_miss``) and not quarantined: it
        signals a runtime upgrade/downgrade against a warm cache dir, not
        corruption.
        """
        if self.cache_dir is None:
            return None
        path = self.cache_dir / key
        if not (path / "manifest.json").exists():
            return None
        from ..deploy.artifact import load_artifact

        try:
            FAULTS.fire("cache.artifact_read", key=key, path=str(path))
            return load_artifact(path).program
        except PlanVersionError:
            self.stats.plan_version_miss += 1
            return None
        except PlanVerifyError:
            # The plan decoded but the verifier proved it unsafe to run.
            # Same quarantine as corruption (never read it again, keep it
            # for forensics), separate counter: this is a miscompile or
            # tampering signal, not bit rot.
            with self._lock:
                self.stats.verify_rejects += 1
            self._quarantine(key, path)
            return None
        except ReproError:
            self._quarantine(key, path)
            return None

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a corrupt artifact aside so it can never be read again."""
        with self._lock:
            self.stats.corrupt_entries += 1
        try:
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
        except OSError:
            # Lost a race with a concurrent quarantine/repair, or the
            # target exists from an earlier quarantine — drop it instead.
            shutil.rmtree(path, ignore_errors=True)

    def _persist(self, key: str, program: Program,
                 overwrite: bool = False) -> None:
        """Atomically publish ``program`` under ``key`` in the cache dir.

        Writes land in a process-private temp directory first; the final
        ``os.rename`` either wins (artifact appears complete) or loses to
        a concurrent writer, in which case this copy is discarded — their
        artifact is equivalent by construction (the key is a canonical
        hash of everything that determines the program). Real persistence
        failures (unwritable/full cache dir) propagate: silently dropping
        them would strand the process backend without artifacts.

        ``overwrite`` replaces an existing (unreadable) artifact: the
        broken directory is moved aside before the rename and deleted
        after, so readers still never observe a partial artifact.
        """
        if self.cache_dir is None:
            return
        final = self.cache_dir / key
        if (final / "manifest.json").exists() and not overwrite:
            return
        from ..deploy.artifact import save_artifact

        tmp = self.cache_dir / f".tmp-{os.getpid()}-{key[:16]}"
        try:
            save_artifact(program, tmp)
            if overwrite and final.exists():
                trash = self.cache_dir / f".old-{os.getpid()}-{key[:16]}"
                try:
                    os.rename(final, trash)
                except OSError:
                    pass  # a concurrent repairer already moved it
                else:
                    shutil.rmtree(trash, ignore_errors=True)
            try:
                os.rename(tmp, final)
            except OSError:
                # Benign exactly when a concurrent writer won the rename;
                # anything else is a real failure the caller must see.
                shutil.rmtree(tmp, ignore_errors=True)
                if not (final / "manifest.json").exists():
                    raise
                return
            self.stats.disk_writes += 1
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    # -- eviction ------------------------------------------------------------

    def _count_eviction(self, entry: CacheEntry) -> None:
        """Account one eviction (callers hold ``self._lock``).

        Every published entry carries a bound plan (``get_or_build``
        prebuilds unconditionally), so each eviction also drops a lowered
        plan; ``prebuilt_plans_dropped`` names that cost explicitly for
        the eviction-tuning dashboards rather than leaving it implied by
        ``evictions``. Re-admission re-prebuilds eagerly.
        """
        self.stats.evictions += 1
        self.stats.prebuilt_plans_dropped += 1

    def peek(self, key: str) -> CacheEntry | None:
        """Look up without touching LRU order or stats."""
        with self._lock:
            return self._entries.get(key)

    def evict(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._count_eviction(entry)
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                self._count_eviction(entry)
            self._entries.clear()

    def entries(self) -> list[CacheEntry]:
        """Snapshot of live entries, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
