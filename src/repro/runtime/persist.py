"""Crash-safe content-addressed on-disk store: the durable cache tier.

PR 7 made a *live* characterization run resilient (retries, quarantine,
graceful degradation); this module makes the *data* resilient.  Every
in-memory :class:`~repro.runtime.cache.LruCache` is process-local, so a
killed run loses everything it kept only in memory.  The
:class:`DiskStore` is the second tier underneath the durable caches: a
content-addressed directory of checksummed entries that survives process
death, torn writes and bit-rot, so a rerun -- minutes or days later --
warm-starts from everything the previous run committed.  That rerun is
also how a killed run resumes: the library flow writes each simulation
tile through as it finishes.

Durability contract (each property is exercised by the fault-injection
harness, see :mod:`repro.runtime.faultinject`):

* **Atomic commits.**  Entries are written to a temp file in the store's
  own ``tmp/`` directory, fsynced, and published with ``os.replace`` --
  readers never observe a half-written entry under its final name; a crash
  mid-write leaves only an orphaned temp file (reaped on the next open).
* **Self-verifying entries.**  Every entry carries a fixed header: magic,
  schema version, SHA-256 checksum of the payload and the payload length.
  Reads verify all four before unpickling.
* **Quarantine, never crash.**  An unreadable, truncated, version-skewed or
  checksum-failing entry is *quarantined*: moved into ``quarantine/``,
  counted in :class:`DiskStoreStats`, and reported as a miss.  Corruption
  costs a recompute, not a run.
* **Tolerant writes.**  ``ENOSPC`` and any other ``OSError`` during a write
  is counted (``write_errors``) and swallowed -- a full disk degrades the
  store to read-only instead of aborting the characterization.
* **Byte-budgeted eviction.**  When the store exceeds ``max_bytes``, the
  oldest entries (by modification time) are dropped under a best-effort
  lock file; a stale lock (dead pid or expired age) is broken rather than
  waited on.

Keys are arbitrary picklable tuples (the same tuples the in-memory caches
use); :func:`stable_key_digest` maps them to SHA-256 hex names through a
canonical byte encoding, so on-disk names are identical across processes,
platforms and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.runtime import faultinject

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "DiskStore",
    "DiskStoreStats",
    "stable_key_digest",
]

#: Entry header: magic, schema version, payload SHA-256, payload length.
_MAGIC = b"RPDS"
_SCHEMA_VERSION = 1
_HEADER = struct.Struct(">4sB32sQ")

#: Sentinel distinguishing "absent" from a stored ``None``.
_MISSING = object()

SITE_STORE_WRITE = faultinject.register_fault_site(
    "persist.write",
    "one DiskStore entry write about to start (enospc/exception kinds)")
SITE_STORE_COMMIT = faultinject.register_fault_site(
    "persist.commit",
    "one committed DiskStore entry file (torn/bitflip corruption kinds)")
SITE_STORE_LOCK = faultinject.register_fault_site(
    "persist.lock",
    "DiskStore maintenance-lock acquisition (stale_lock kind)")


def _feed_canonical(digest, value: Any) -> None:
    """Feed one value into ``digest`` in a canonical, type-tagged encoding.

    Every scalar is tagged and length-prefixed so distinct structures can
    never collide byte-wise (``("ab", "c")`` vs ``("a", "bc")``), floats
    use ``float.hex()`` (exact, locale-independent), and containers recurse
    with explicit open/close markers.  No ``hash()``, ``repr`` of floats or
    pointer identity anywhere -- the digest is stable across processes,
    platforms and ``PYTHONHASHSEED`` values.
    """
    if value is None:
        digest.update(b"N;")
    elif isinstance(value, bool):  # before int: bool subclasses int
        digest.update(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        digest.update(b"i%d:" % len(encoded) + encoded)
    elif isinstance(value, float):
        encoded = value.hex().encode("ascii")
        digest.update(b"f%d:" % len(encoded) + encoded)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        digest.update(b"s%d:" % len(encoded) + encoded)
    elif isinstance(value, bytes):
        digest.update(b"y%d:" % len(value) + value)
    elif isinstance(value, (tuple, list)):
        digest.update(b"t(")
        for item in value:
            _feed_canonical(digest, item)
        digest.update(b")")
    elif isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        shape = str(contiguous.shape).encode("ascii")
        dtype = contiguous.dtype.str.encode("ascii")
        digest.update(b"a" + dtype + b"|" + shape + b"|")
        digest.update(contiguous.tobytes())
    else:
        raise TypeError(
            f"stable_key_digest cannot canonicalize {type(value).__name__!r}; "
            f"keys must be built from None/bool/int/float/str/bytes/tuple/"
            f"list/ndarray")


def stable_key_digest(key: Any) -> str:
    """SHA-256 hex digest of a cache key, stable across processes.

    The on-disk entry name of every key.  Unlike ``hash()`` (randomized per
    process by ``PYTHONHASHSEED``) or ``repr`` (float formatting drift),
    the canonical encoding guarantees the same key always lands in the same
    file -- the property that makes cross-process, cross-day warm starts
    possible.
    """
    digest = hashlib.sha256()
    _feed_canonical(digest, key)
    return digest.hexdigest()


@dataclass(frozen=True)
class DiskStoreStats:
    """Snapshot of one disk store's counters and occupancy.

    Attributes
    ----------
    name:
        Store name (usually the owning cache's registry name).
    root:
        Store directory.
    hits, misses:
        Lifetime lookup counters (a quarantined read counts as a miss).
    writes, write_errors:
        Committed entries and swallowed write failures (ENOSPC et al.).
    evictions:
        Entries dropped to respect the byte budget.
    quarantined:
        Corrupt entries moved aside instead of served.
    stale_locks_broken:
        Maintenance locks broken because their holder was dead or expired.
    entries, current_bytes:
        Current occupancy.
    max_bytes:
        Byte budget (``None`` = unbounded).
    """

    name: str
    root: str
    hits: int
    misses: int
    writes: int
    write_errors: int
    evictions: int
    quarantined: int
    stale_locks_broken: int
    entries: int
    current_bytes: int
    max_bytes: Optional[int]


class DiskStore:
    """Content-addressed, crash-safe on-disk key/value store.

    Parameters
    ----------
    root:
        Directory holding the store (created on demand, together with its
        ``entries/``, ``tmp/`` and ``quarantine/`` subdirectories).
    name:
        Identifying name used in stats (defaults to the directory name).
    max_bytes:
        Byte budget; the oldest entries are evicted once exceeded.
        ``None`` disables eviction.
    stale_lock_s:
        Age after which another process's maintenance lock is considered
        abandoned and broken.
    """

    def __init__(self, root, name: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 stale_lock_s: float = 60.0):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        self._root = Path(root)
        self._name = str(name) if name is not None else self._root.name
        self._max_bytes = None if max_bytes is None else int(max_bytes)
        self._stale_lock_s = float(stale_lock_s)
        self._entries_dir = self._root / "entries"
        self._tmp_dir = self._root / "tmp"
        self._quarantine_dir = self._root / "quarantine"
        self._lock_path = self._root / ".lock"
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._write_errors = 0
        self._evictions = 0
        self._quarantined = 0
        self._stale_locks_broken = 0
        #: Owner token of the maintenance lock while this handle holds it.
        self._lock_token: Optional[str] = None
        #: digest -> size; rebuilt by scanning on construction so a store
        #: reopened over an existing directory accounts its inventory.
        self._index: Dict[str, int] = {}
        self._current_bytes = 0
        self._open()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Store name used in stats."""
        return self._name

    @property
    def root(self) -> Path:
        """Store directory."""
        return self._root

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte budget (``None`` = unbounded)."""
        return self._max_bytes

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Any) -> bool:
        return stable_key_digest(key) in self._index

    def stats(self) -> DiskStoreStats:
        """Current counters and occupancy as a :class:`DiskStoreStats`."""
        return DiskStoreStats(
            name=self._name,
            root=str(self._root),
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            write_errors=self._write_errors,
            evictions=self._evictions,
            quarantined=self._quarantined,
            stale_locks_broken=self._stale_locks_broken,
            entries=len(self._index),
            current_bytes=self._current_bytes,
            max_bytes=self._max_bytes,
        )

    def set_max_bytes(self, max_bytes: Optional[int]) -> None:
        """Re-budget the store; excess entries are evicted immediately."""
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        self._max_bytes = None if max_bytes is None else int(max_bytes)
        self._evict()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _open(self) -> None:
        for directory in (self._entries_dir, self._tmp_dir,
                          self._quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # Reap temp files orphaned by a previous crash: they were never
        # published, so deleting them can never lose a committed entry.
        for orphan in self._tmp_dir.iterdir():
            try:
                orphan.unlink()
            except OSError:
                pass
        for shard in self._entries_dir.iterdir():
            if not shard.is_dir():
                continue
            for entry in shard.glob("*.entry"):
                try:
                    size = entry.stat().st_size
                except OSError:
                    continue
                self._index[entry.stem] = size
                self._current_bytes += size

    def _entry_path(self, digest: str) -> Path:
        return self._entries_dir / digest[:2] / f"{digest}.entry"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Return the stored value for ``key``, or ``default`` on a miss.

        A corrupt entry (truncated, bit-flipped, wrong magic or schema
        version, unpicklable) is quarantined and reported as a miss --
        corruption is never allowed to propagate an exception into the
        characterization flow.
        """
        digest = stable_key_digest(key)
        path = self._entry_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._drop_from_index(digest)
            self._misses += 1
            return default
        except OSError:
            self._quarantine(digest, path)
            self._misses += 1
            return default
        value = self._decode(data)
        if value is _MISSING:
            self._quarantine(digest, path)
            self._misses += 1
            return default
        self._hits += 1
        return value

    def _decode(self, data: bytes) -> Any:
        if len(data) < _HEADER.size:
            return _MISSING
        magic, version, checksum, length = _HEADER.unpack_from(data)
        if magic != _MAGIC or version != _SCHEMA_VERSION:
            return _MISSING
        payload = data[_HEADER.size:]
        if len(payload) != length:
            return _MISSING
        if hashlib.sha256(payload).digest() != checksum:
            return _MISSING
        try:
            return pickle.loads(payload)
        except Exception:
            return _MISSING

    def put(self, key: Any, value: Any) -> bool:
        """Atomically store ``value`` under ``key``; returns whether written.

        Idempotent: a key that already has a committed entry is skipped
        (values in this codebase are deterministic functions of their
        keys).  Write failures -- a full disk, a read-only filesystem --
        are counted in ``write_errors`` and swallowed: persistence degrades,
        the run never aborts.
        """
        digest = stable_key_digest(key)
        if digest in self._index:
            return False
        path = self._entry_path(digest)
        try:
            faultinject.fire(SITE_STORE_WRITE)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            header = _HEADER.pack(_MAGIC, _SCHEMA_VERSION,
                                  hashlib.sha256(payload).digest(),
                                  len(payload))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self._tmp_dir,
                                            suffix=".partial")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header)
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            self._write_errors += 1
            return False
        # Post-commit corruption hook: the deterministic stand-in for torn
        # sectors and bit-rot between this run and the next reader.
        faultinject.damage_file(SITE_STORE_COMMIT, path)
        try:
            size = path.stat().st_size
        except OSError:
            size = _HEADER.size + len(payload)
        self._index[digest] = size
        self._current_bytes += size
        self._writes += 1
        self._evict()
        return True

    def discard(self, key: Any) -> None:
        """Remove one entry if present (not counted as an eviction)."""
        digest = stable_key_digest(key)
        path = self._entry_path(digest)
        try:
            path.unlink()
        except OSError:
            pass
        self._drop_from_index(digest)

    def clear(self) -> None:
        """Drop every entry and quarantined file; counters are kept."""
        for digest in list(self._index):
            try:
                self._entry_path(digest).unlink()
            except OSError:
                pass
        self._index.clear()
        self._current_bytes = 0
        for stale in self._quarantine_dir.glob("*.entry"):
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Quarantine and eviction
    # ------------------------------------------------------------------
    def _drop_from_index(self, digest: str) -> None:
        size = self._index.pop(digest, None)
        if size is not None:
            self._current_bytes -= size

    def _quarantine(self, digest: str, path: Path) -> None:
        """Move a corrupt entry aside so it is never served (or retried)."""
        self._quarantined += 1
        try:
            os.replace(path, self._quarantine_dir / f"{digest}.entry")
        except OSError:
            # Even the move failing must not surface: worst case the entry
            # stays, fails verification again, and re-quarantines.
            try:
                path.unlink()
            except OSError:
                pass
        self._drop_from_index(digest)

    def quarantined_entries(self) -> int:
        """Number of files currently sitting in ``quarantine/``."""
        return sum(1 for _ in self._quarantine_dir.glob("*.entry"))

    def _evict(self) -> None:
        if self._max_bytes is None or self._current_bytes <= self._max_bytes:
            return
        if not self._acquire_lock():
            return  # another process is maintaining the store; skip
        try:
            aged = []
            for digest in self._index:
                path = self._entry_path(digest)
                try:
                    aged.append((path.stat().st_mtime, digest))
                except OSError:
                    aged.append((0.0, digest))
            aged.sort()
            for _, digest in aged:
                if self._current_bytes <= self._max_bytes:
                    break
                try:
                    self._entry_path(digest).unlink()
                except OSError:
                    pass
                self._drop_from_index(digest)
                self._evictions += 1
        finally:
            self._release_lock()

    # ------------------------------------------------------------------
    # Best-effort maintenance lock (with stale-lock breaking)
    #
    # The lock file is published with its owner token already inside it
    # (written to a temp file, then hard-linked to ``.lock``, which fails if
    # a lock exists), so no contender ever reads an empty lock.  Breaking
    # and releasing both move the lock aside under a unique name first and
    # check the moved token before deleting it; a lock that changed hands
    # in between is linked back, never deleted.  Every step runs under a
    # short kernel ``flock`` on ``.guard`` (held for a few syscalls, never
    # across maintenance, dropped by the kernel if its holder dies), so
    # between handles of this class the read-check-move sequences cannot
    # interleave at all; the token checks keep the protocol safe where
    # ``flock`` is unavailable.
    # ------------------------------------------------------------------
    @contextmanager
    def _guard(self):
        if fcntl is None:
            yield
            return
        with open(self._root / ".guard", "ab") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield

    def _acquire_lock(self) -> bool:
        faultinject.plant_stale_lock(SITE_STORE_LOCK, self._lock_path)
        token = f"{os.getpid()}:{time.time()}:{uuid.uuid4().hex}"
        staged = self._tmp_dir / f"lock-{uuid.uuid4().hex}"
        try:
            staged.write_text(token, encoding="utf-8")
            with self._guard():
                for _ in range(2):
                    try:
                        os.link(staged, self._lock_path)
                    except FileExistsError:
                        if not self._break_stale_lock():
                            return False
                        self._stale_locks_broken += 1
                        continue
                    self._lock_token = token
                    return True
            return False
        except OSError:
            return False
        finally:
            try:
                staged.unlink()
            except OSError:
                pass

    def _read_lock(self, path: Path) -> Optional[str]:
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None

    def _lock_is_stale(self, token: Optional[str]) -> bool:
        """A lock is stale when its holder is dead or it outlived its age."""
        if token is None:
            return False  # released meanwhile: nothing to break
        try:
            pid_text, stamp_text = token.split(":")[:2]
            pid = int(pid_text)
            stamp = float(stamp_text)
        except ValueError:
            return True  # malformed: no holder ever published it whole
        if time.time() - stamp > self._stale_lock_s:
            return True
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False
        return False

    def _take_lock_file(self, expected: str) -> bool:
        """Delete ``.lock`` only if it holds ``expected``; True if it did."""
        moved = self._tmp_dir / f"unlock-{uuid.uuid4().hex}"
        try:
            os.rename(self._lock_path, moved)
        except OSError:
            return False
        taken = self._read_lock(moved) == expected
        if not taken:
            try:
                os.link(moved, self._lock_path)
            except OSError:
                pass  # a newer lock exists: it wins
        try:
            moved.unlink()
        except OSError:
            pass
        return taken

    def _break_stale_lock(self) -> bool:
        token = self._read_lock(self._lock_path)
        return self._lock_is_stale(token) and self._take_lock_file(token)

    def _release_lock(self) -> None:
        token, self._lock_token = self._lock_token, None
        if token is None:
            return
        try:
            with self._guard():
                self._take_lock_file(token)
        except OSError:
            pass
