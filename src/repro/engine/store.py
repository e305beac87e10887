"""Content-hash-keyed on-disk cache for expensive pipeline artifacts.

Walking a 400k-instruction evaluation trace dominates cold-start time for
every process that touches a benchmark — pytest, the benches, and each CLI
invocation all re-derived identical traces.  The :class:`TraceStore` keys
each artifact by a *content key* — a string encoding everything the
artifact depends on (format version, a digest of the program structure,
input name, walker seed, instruction budget, layout digest, line size) —
and stores it under ``REPRO_CACHE_DIR`` (default ``.repro_cache/``).

Block/event traces are stored as mmap-able ``.npy``-per-array entry
*directories* (``blocks-<hash>.v2/``, see :mod:`repro.trace.io`): loads
return read-only page-cache-backed views instead of heap copies, so every
process replaying the same trace shares the same physical pages.

Safety properties:

* the full key is stored inside each entry and verified on load, so a hash
  collision or a stale file silently re-derives instead of corrupting a run;
* a bumped :data:`TraceStore.FORMAT_VERSION` re-keys every artifact, so
  entries written under an older format (such as the ``.npz`` archives of
  format v1) are never read: the lookup misses and the artifact is
  re-derived, and ``clear()`` still removes them;
* corrupted or truncated entries are deleted and treated as misses; an
  entry that cannot even be deleted (read-only cache) is quarantined to
  ``<cache>/quarantine/`` so it can never be loaded again (``stats()``
  reports the quarantine, ``clear()`` empties it);
* ``clear()`` also deletes the supervised grids' resume journals under
  ``<cache>/grids/``, so a ``--resume`` after a clear re-executes its
  cells instead of adopting reports from before the clear;
* writes go through a uniquely named temp file/directory plus
  ``os.replace``, so concurrent workers (the parallel grid runner) never
  observe partial entries;
* an environment write failure (``ENOSPC``, ``EACCES``, a read-only
  mount) never kills a run: the store emits a one-time warning and
  degrades to cache-off for the rest of the process — every artifact is
  simply re-derived.

Setting ``REPRO_CACHE_DIR`` to ``off`` (or ``0``/``none``/empty) disables
persistence entirely.

The load/save/discard paths are instrumented with
:func:`repro.resilience.chaos.chaos_point` sites (``store.load``,
``store.save``, ``store.discard``) so the fault-injection tests exercise
exactly these code paths instead of monkeypatching globals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.layout.layouts import Layout
from repro.profiling.profile_data import ProfileData
from repro.program.program import Program
from repro.resilience.chaos import chaos_point, corrupt_file
from repro.trace import io as trace_io
from repro.trace.events import LineEventTrace
from repro.trace.executor import BlockTrace

__all__ = [
    "TraceStore",
    "layout_digest",
    "program_digest",
    "suppress_write_warnings",
    "warn_write_failure",
]

_DEFAULT_DIR = ".repro_cache"
_DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled"})
_PROFILE_KIND = "repro-profile-cache-v1"

#: Process-wide staging-name counter: combined with the pid and a random
#: nonce, two threads saving the same key can never collide on a temp name.
_TMP_COUNTER = itertools.count()

_warned_write_failure = False


def _warn_write_failure(root: Union[str, Path], error: object) -> None:
    """One warning per process: the cache went read-only, work continues."""
    global _warned_write_failure
    if _warned_write_failure:
        return
    _warned_write_failure = True
    warnings.warn(
        f"trace cache write to {root} failed ({error}); continuing without "
        f"persistence — artifacts will be re-derived",
        RuntimeWarning,
        stacklevel=4,
    )


def suppress_write_warnings() -> None:
    """Silence this process's cache-degrade warning.

    Grid worker processes call this at their entry point: a forked
    16-worker pool hitting a full disk would otherwise print the same
    degrade warning 16 times, once per process.  Workers instead report
    ``TraceStore.writes_disabled`` back through their result stats and the
    supervisor relays **one** warning in the parent (via
    :func:`warn_write_failure`, which dedups against the parent's own).
    """
    global _warned_write_failure
    _warned_write_failure = True


def warn_write_failure(root: Union[str, Path], error: object) -> None:
    """Emit the one-per-process cache-degrade warning on a store's behalf.

    Used by the grid supervisor to surface a *worker's* write failure in
    the parent process exactly once (see :func:`suppress_write_warnings`).
    """
    _warn_write_failure(root, error)


def program_digest(program: Program) -> str:
    """Stable digest of a program's block/CFG structure.

    Covers everything the CFG walker and the layout pass read: block
    identity, size, kind, and successor labels.  Any change to the workload
    generator that alters the program therefore changes every derived key.
    """
    digest = hashlib.sha256()
    for block in program.blocks():
        digest.update(
            f"{block.uid}|{block.function}|{block.label}|{block.kind.value}|"
            f"{block.num_instructions}|{block.taken_label}|{block.fall_label}|"
            f"{block.callee}\n".encode()
        )
    digest.update(f"entry={program.entry_block.uid}".encode())
    return digest.hexdigest()[:16]


def layout_digest(layout: Layout) -> str:
    """Stable digest of a layout's uid -> address assignment."""
    digest = hashlib.sha256()
    for uid in layout.block_order:
        digest.update(f"{uid}@{layout.address_of(uid)}\n".encode())
    return digest.hexdigest()[:16]


class TraceStore:
    """Filesystem-backed artifact cache (see module docstring)."""

    #: Bump after a format or semantic change in how artifacts are
    #: derived.  Version 2 = mmap-able entry directories.
    FORMAT_VERSION = 2

    _KINDS = ("blocks", "events", "profile")
    _V2_SUFFIX = ".v2"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Session hit/miss counters per artifact kind (aggregated above).
        self.kind_hits = {kind: 0 for kind in self._KINDS}
        self.kind_misses = {kind: 0 for kind in self._KINDS}
        #: Set after an environment write failure: the store keeps serving
        #: reads but stops persisting (degrade to cache-off for writes).
        self.writes_disabled = False

    @classmethod
    def resolve(
        cls, cache_dir: Optional[Union[str, Path]] = None
    ) -> Optional["TraceStore"]:
        """The store for an explicit directory, the environment, or ``None``.

        ``cache_dir=None`` consults ``REPRO_CACHE_DIR`` and falls back to
        ``.repro_cache/``; the values ``off``/``none``/``0``/empty (in either
        the argument or the environment) disable caching.
        """
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", _DEFAULT_DIR)
        if str(cache_dir).strip().lower() in _DISABLED_VALUES:
            return None
        return cls(cache_dir)

    # ------------------------------------------------------------------
    # Paths and housekeeping
    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        name = hashlib.sha256(key.encode()).hexdigest()[:24]
        if kind == "profile":
            return self.root / f"profile-{name}.json"
        return self.root / f"{kind}-{name}{self._V2_SUFFIX}"

    def _discard(self, path: Path) -> None:
        """Remove a corrupt/stale entry; quarantine it when removal fails.

        A cache on a read-only mount cannot delete the bad entry, but it
        must still never be loaded again — move it aside to
        ``<cache>/quarantine/`` (whose entries no loader ever resolves).
        """
        try:
            chaos_point("store.discard", path.name)
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        except OSError:
            self._quarantine(path)

    def _quarantine(self, path: Path) -> None:
        try:
            quarantine = self.root / "quarantine"
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            pass

    def _replace(self, tmp: Path, path: Path) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(tmp, path)
        except OSError:
            # Unlike files, a directory cannot atomically replace an
            # existing non-empty directory: a concurrent writer of the same
            # key already published an identical entry, so ours is redundant.
            if tmp.is_dir() and path.is_dir():
                shutil.rmtree(tmp, ignore_errors=True)
                return
            raise

    def _tmp_for(self, path: Path) -> Path:
        # Keep the target's suffix so staging names stay recognisable (and
        # excluded) by kind and suffix in _iter_entries.
        nonce = f"{os.getpid()}-{next(_TMP_COUNTER)}-{os.urandom(4).hex()}"
        return path.with_name(f"{path.stem}.{nonce}.tmp{path.suffix}")

    def _disable_writes(self, error: OSError) -> None:
        self.writes_disabled = True
        _warn_write_failure(self.root, error)

    def _hit(self, kind: str) -> None:
        self.hits += 1
        self.kind_hits[kind] += 1

    def _miss(self, kind: str) -> None:
        self.misses += 1
        self.kind_misses[kind] += 1

    @staticmethod
    def _cleanup(tmp: Path) -> None:
        try:
            if tmp.is_dir():
                shutil.rmtree(tmp)
            else:
                tmp.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Block traces and line-event traces (via repro.trace.io)
    # ------------------------------------------------------------------
    def _load_trace(
        self, kind: str, key: str, load: Callable[..., object]
    ) -> Optional[object]:
        path = self.path_for(kind, key)
        if not path.exists():
            self._miss(kind)
            return None
        try:
            chaos_point("store.load", f"{kind}:{key}")
            artifact = load(path, expected_key=key)
        except OSError:
            # Transient environment fault: miss, but keep the entry.
            self._miss(kind)
            return None
        except Exception:
            # Corrupt/truncated/stale entry (TraceError, ...)
            self._discard(path)
            self._miss(kind)
            return None
        self._hit(kind)
        return artifact

    def _save_trace(
        self,
        kind: str,
        key: str,
        artifact: object,
        save: Callable[..., None],
        corrupt_member: str,
    ) -> Optional[Path]:
        if self.writes_disabled:
            return None
        path = self.path_for(kind, key)
        tmp = self._tmp_for(path)
        try:
            chaos_point("store.save", f"{kind}:{key}")
            self.root.mkdir(parents=True, exist_ok=True)
            save(artifact, tmp, key=key)
            # Fault injection tears real payload bytes, not the directory
            # inode: aim it at the biggest member.
            corrupt_file("store.save", f"{kind}:{key}", tmp / corrupt_member)
            self._replace(tmp, path)
        except OSError as error:
            self._cleanup(tmp)
            self._disable_writes(error)
            return None
        return path

    def load_block_trace(self, key: str) -> Optional[BlockTrace]:
        trace = self._load_trace("blocks", key, trace_io.load_block_trace)
        return trace  # type: ignore[return-value]

    def save_block_trace(self, key: str, trace: BlockTrace) -> Optional[Path]:
        return self._save_trace(
            "blocks", key, trace, trace_io.save_block_trace, "uids.npy"
        )

    def load_events(self, key: str) -> Optional[LineEventTrace]:
        events = self._load_trace("events", key, trace_io.load_events)
        return events  # type: ignore[return-value]

    def save_events(self, key: str, events: LineEventTrace) -> Optional[Path]:
        return self._save_trace(
            "events", key, events, trace_io.save_events, "line_addrs.npy"
        )

    # ------------------------------------------------------------------
    # Profiles (.json, reusing ProfileData's own persistence format)
    # ------------------------------------------------------------------
    def load_profile(self, key: str) -> Optional[ProfileData]:
        path = self.path_for("profile", key)
        profile = self._read_profile(path, key) if path.exists() else None
        if profile is None:
            self._miss("profile")
            return None
        self._hit("profile")
        return profile

    def _read_profile(self, path: Path, key: str) -> Optional[ProfileData]:
        try:
            chaos_point("store.load", f"profile:{key}")
            payload = json.loads(path.read_text())
            if (
                payload.get("cache_kind") != _PROFILE_KIND
                or payload.get("cache_key") != key
            ):
                raise ValueError("stale or foreign profile cache entry")
            return ProfileData.load(path)
        except Exception:
            self._discard(path)
            return None

    def save_profile(self, key: str, profile: ProfileData) -> Optional[Path]:
        if self.writes_disabled:
            return None
        path = self.path_for("profile", key)
        tmp = self._tmp_for(path)
        try:
            chaos_point("store.save", f"profile:{key}")
            self.root.mkdir(parents=True, exist_ok=True)
            profile.save(tmp)
            payload = json.loads(tmp.read_text())
            payload["cache_kind"] = _PROFILE_KIND
            payload["cache_key"] = key
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
            corrupt_file("store.save", f"profile:{key}", tmp)
            self._replace(tmp, path)
        except OSError as error:
            self._cleanup(tmp)
            self._disable_writes(error)
            return None
        return path

    # ------------------------------------------------------------------
    # Introspection and management (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def _iter_entries(self) -> Iterator[Tuple[Path, str]]:
        """Recognised (entry path, kind) pairs, staging files excluded."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.iterdir()):
            kind = path.name.split("-", 1)[0]
            if kind in self._KINDS and not path.name.endswith(
                ".tmp" + path.suffix
            ):
                yield path, kind

    @staticmethod
    def _entry_bytes(path: Path) -> int:
        try:
            if path.is_dir():
                return sum(member.stat().st_size for member in path.iterdir())
            return path.stat().st_size
        except OSError:
            return 0

    @staticmethod
    def _remove_entry(path: Path) -> bool:
        try:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        except OSError:
            return False
        return True

    def entries(self) -> Dict[str, int]:
        """Entry count per artifact kind."""
        counts = {"blocks": 0, "events": 0, "profile": 0}
        for _path, kind in self._iter_entries():
            counts[kind] += 1
        return counts

    def stats(self) -> Dict[str, object]:
        """Directory, per-kind counts/bytes, quarantine, hit rates."""
        counts = {kind: 0 for kind in self._KINDS}
        kind_bytes = {kind: 0 for kind in self._KINDS}
        for path, kind in self._iter_entries():
            counts[kind] += 1
            kind_bytes[kind] += self._entry_bytes(path)
        quarantine = self.root / "quarantine"
        quarantined = 0
        quarantine_bytes = 0
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                quarantined += 1
                quarantine_bytes += self._entry_bytes(path)
        return {
            "dir": str(self.root),
            "entries": counts,
            "kind_bytes": kind_bytes,
            "total_bytes": sum(kind_bytes.values()),
            "quarantined": quarantined,
            "quarantine_bytes": quarantine_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_kind_hits": dict(self.kind_hits),
            "session_kind_misses": dict(self.kind_misses),
            "writes_disabled": self.writes_disabled,
        }

    def clear(self) -> int:
        """Delete every cache entry this store recognises; returns the count.

        Also empties ``quarantine/`` and the grid resume journals under
        ``grids/`` (counting their files) and sweeps stale staging files
        left behind by killed writers (not counted — they were never
        entries).
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.iterdir()):
            kind = path.name.split("-", 1)[0]
            if kind not in self._KINDS:
                continue
            if self._remove_entry(path) and not path.name.endswith(
                ".tmp" + path.suffix
            ):
                removed += 1
        for directory in (self.root / "quarantine", self.root / "grids"):
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if self._remove_entry(path):
                    removed += 1
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed
