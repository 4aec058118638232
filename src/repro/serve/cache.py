"""The content-addressed cross-run result cache.

Every entry is keyed by the triple ``(source_sha256, pass_name,
engine_version)`` and holds an opaque byte blob -- a pickled pass result
exported through :meth:`repro.pipeline.manager.AnalysisManager.
export_result`, or a canonical op-level JSON document.  The on-disk layout::

    <root>/<engine_version>/<sha[:2]>/<sha>/<pass_name>.bin

survives daemon restarts and is shared across worker processes.  Safety
properties, each pinned by ``tests/test_serve_cache.py``:

* **Atomic publication.**  Writers write to a same-directory temp file
  and ``os.replace`` it into place, so a reader never observes a
  half-written entry and two concurrent writers of the same key leave
  one complete winner.
* **Self-verifying entries.**  Each file carries a magic tag and the
  SHA-256 of its body.  A corrupted or truncated entry is detected on
  load, evicted (unlinked), and reported as a recoverable
  ``cache-corrupt`` incident -- the caller recomputes; nothing crashes.
* **Versioned keys.**  ``engine_version`` lives in the path, so bumping
  it (any semantic change to a pass) orphans every stale entry instead
  of serving wrong answers.

The cache never stores live objects: callers hand it bytes produced by
a detaching exporter, so no entry can alias a warm manager's mutable
graph (see DESIGN.md section 14 on cache key discipline).
"""

from __future__ import annotations

import hashlib
import os
import uuid

from repro.robust.incidents import IncidentLog

#: Bump on any change that alters a pass result or its serialized form
#: (new analysis semantics, wire-format change, pickle layout change).
#: Old entries are never read again -- the version is part of the path.
ENGINE_VERSION = "pr10.1"

#: Entry envelope: magic + 32-byte SHA-256 of the body + body.
_MAGIC = b"RPC1"
_DIGEST_LEN = 32


def source_sha(source: str) -> str:
    """The content address of a program source (hex SHA-256)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cache_key_bytes(
    sha: str, pass_name: str, version: str = ENGINE_VERSION
) -> bytes:
    """The canonical byte form of a cache key.

    NUL-separated so no component can collide into another; pinned
    byte-deterministic across ``PYTHONHASHSEED`` by
    ``tests/test_hash_determinism.py``.
    """
    return b"\x00".join(
        part.encode("utf-8") for part in (sha, pass_name, version)
    )


def _safe_component(name: str) -> str:
    """A filesystem-safe file name for a pass name (``op:lint`` and
    friends carry ``:``)."""
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    )


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


class ResultCache:
    """A content-addressed blob store under one root directory.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp(), version="v1")
    >>> sha = source_sha("x := 1; print x;")
    >>> cache.load(sha, "constprop") is None
    True
    >>> _ = cache.store(sha, "constprop", b"result-bytes")
    >>> cache.load(sha, "constprop")
    b'result-bytes'
    >>> cache.stats["hits"], cache.stats["misses"], cache.stats["stores"]
    (1, 1, 1)
    """

    def __init__(
        self,
        root: str | None = None,
        version: str = ENGINE_VERSION,
        incidents: IncidentLog | None = None,
    ) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.version = version
        self.incidents = incidents if incidents is not None else IncidentLog()
        self.stats = {
            "hits": 0, "misses": 0, "stores": 0, "corrupt": 0,
        }

    # -- layout --------------------------------------------------------------

    def entry_dir(self, sha: str) -> str:
        return os.path.join(self.root, self.version, sha[:2], sha)

    def entry_path(self, sha: str, pass_name: str) -> str:
        return os.path.join(
            self.entry_dir(sha), _safe_component(pass_name) + ".bin"
        )

    # -- load / store --------------------------------------------------------

    def load(self, sha: str, pass_name: str) -> bytes | None:
        """The stored blob for this key, or ``None`` on miss.

        A corrupt or truncated entry counts as a miss: it is unlinked so
        the next store republishes a good copy, and the detection is
        recorded as a recovered ``cache-corrupt`` incident.
        """
        path = self.entry_path(sha, pass_name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            self.stats["misses"] += 1
            return None
        body = self._verify(data)
        if body is None:
            self._evict_corrupt(path, sha, pass_name)
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return body

    def store(self, sha: str, pass_name: str, blob: bytes) -> str:
        """Publish ``blob`` under the key; returns the entry path.

        Write-to-temp plus :func:`os.replace` keeps concurrent writers
        safe: readers see either the old complete entry or the new one.
        """
        path = self.entry_path(sha, pass_name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        digest = hashlib.sha256(blob).digest()
        tmp = os.path.join(
            directory, f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        )
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(digest)
            fh.write(blob)
        os.replace(tmp, path)
        self.stats["stores"] += 1
        return path

    # -- integrity -----------------------------------------------------------

    @staticmethod
    def _verify(data: bytes) -> bytes | None:
        """The body if the envelope checks out, else ``None``."""
        header_len = len(_MAGIC) + _DIGEST_LEN
        if len(data) < header_len or not data.startswith(_MAGIC):
            return None
        digest = data[len(_MAGIC):header_len]
        body = data[header_len:]
        if hashlib.sha256(body).digest() != digest:
            return None
        return body

    def _evict_corrupt(self, path: str, sha: str, pass_name: str) -> None:
        self.stats["corrupt"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass  # a concurrent writer may have already replaced it
        self.incidents.record(
            "cache-corrupt",
            pass_name=pass_name,
            phase="serve-cache",
            fingerprint=sha,
            recovered=True,
        )

    # -- inspection (tests, stats op) ----------------------------------------

    def entries(self) -> list[tuple[str, str]]:
        """All ``(sha, entry file name)`` pairs currently on disk for
        this engine version, sorted."""
        base = os.path.join(self.root, self.version)
        found: list[tuple[str, str]] = []
        if not os.path.isdir(base):
            return found
        for prefix in sorted(os.listdir(base)):
            prefix_dir = os.path.join(base, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for sha in sorted(os.listdir(prefix_dir)):
                sha_dir = os.path.join(prefix_dir, sha)
                if not os.path.isdir(sha_dir):
                    continue
                for name in sorted(os.listdir(sha_dir)):
                    if name.endswith(".bin"):
                        found.append((sha, name))
        return found

    def as_dict(self) -> dict:
        return {"version": self.version, **self.stats}
