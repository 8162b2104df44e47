"""Content-addressed on-disk artifact cache for compile+simulate jobs.

The in-memory memoization in :class:`repro.harness.ExperimentRunner`
and the difftest stage cache die with the process; every CLI invocation
of a sweep used to redo the whole cross-product from scratch.  This
cache persists finished job results (simulated outcomes and their
statistics — never live ``Program`` objects) across invocations.

Key scheme
----------
An entry's key is ``sha256`` over four components:

* **source text** — the exact program text the job compiles (MFL source
  for difftest seeds, the printed IR for harness workloads), so any
  generator or suite change invalidates precisely the affected entries;
* **pipeline config** — a caller-built descriptor string covering
  everything that influences the result (variant, CCM size, machine
  geometry, optimization flags, lattice shape, verification mode);
* **code version** — a digest of every ``*.py`` file in the ``repro``
  package, so editing *any* compiler/simulator source invalidates the
  whole cache.  Correctness beats reuse: a stale hit after a compiler
  change would silently mask the change under test;
* **engines** — the liveness, simulator and register-allocator engines
  current when the key is computed (not when the cache was built), so
  switching an engine mid-process never replays an artifact another
  engine produced.

Entries live under ``<root>/objects/<k[:2]>/<k>.pkl``, a git-style
key-prefix fan-out that keeps directory listings short.  ``root``
defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ccm``; ``clear()``
(or ``rm -rf``) empties it safely.

Concurrent use
--------------
The cache is shared by the worker processes of one sweep and by
concurrent sweeps, so mutations have to be safe against each other:

* **Writes are atomic.**  A value is written to a temp file and
  published with an atomic ``os.replace`` — readers see the old entry,
  no entry, or the complete new entry, never a torn one.  Keys are
  content addresses, so two writers racing on one key hold identical
  values and either publication is correct.
* **Reads self-heal.**  A corrupt or truncated entry is treated as a
  miss, deleted, and recounted — never an error surfaced to the sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from typing import Iterable, Optional, Tuple

from ..trace import trace_counter

#: bump to invalidate every cache entry on pickle-layout changes
_FORMAT = "repro-artifact-v1"


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-ccm")


def _package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _iter_sources(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the whole ``repro`` package source (memoized)."""
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256(_FORMAT.encode())
        root = _package_root()
        for path in _iter_sources(root):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
        _code_version = digest.hexdigest()
    return _code_version


def _engine_suffix() -> str:
    """The non-default engines current right now, as a version suffix.

    The liveness and simulator engines are designed to be
    output-identical, but the whole point of selecting a reference
    oracle (e.g. in a difftest run) is to *recompute* rather than
    replay cached default-engine artifacts.  The register-allocator
    backends produce *different* (but behaviorally equivalent) code, so
    their artifacts may never share a cache entry.
    """
    from ..analysis import liveness_engine
    from ..machine import sim_engine
    from ..regalloc import regalloc_engine
    suffix = ""
    engine = liveness_engine()
    if engine != "bitset":
        suffix += f"+{engine}"
    engine = sim_engine()
    if engine != "predecode":
        suffix += f"+sim-{engine}"
    engine = regalloc_engine()
    if engine != "chaitin":
        suffix += f"+regalloc-{engine}"
    return suffix


class ArtifactCache:
    """Pickle-backed content-addressed store; see the module docstring.

    ``version`` overrides the code digest (tests pin it); the engines
    are folded into every :meth:`key` either way.
    """

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0
        self.errors = 0          # corrupt entries recovered as misses
        self.stores = 0          # entries written by put()

    # -- keys -----------------------------------------------------------------

    def key(self, source_text: str, config: str) -> str:
        """Content address of one job: (source, config, code version,
        current engines)."""
        digest = hashlib.sha256()
        for part in (_FORMAT, self.version + _engine_suffix(), config,
                     source_text):
            digest.update(part.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key + ".pkl")

    # -- access ---------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, object]:
        """Look one key up; returns ``(hit, value)``."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            trace_counter("artifact.miss", 1)
            return False, None
        except Exception:
            # truncated write, unpicklable garbage, permission change:
            # recover by dropping the entry and recompiling
            self.errors += 1
            self.misses += 1
            trace_counter("artifact.error", 1)
            trace_counter("artifact.miss", 1)
            try:
                os.remove(path)
            except OSError:
                pass
            return False, None
        self.hits += 1
        trace_counter("artifact.hit", 1)
        return True, value

    def put(self, key: str, value: object) -> None:
        """Publish one entry atomically (see the module docstring)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-" + key[:8])
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            self.stores += 1
            trace_counter("artifact.store", 1)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        shutil.rmtree(os.path.join(self.root, "objects"),
                      ignore_errors=True)

    def __len__(self) -> int:
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        return sum(len([f for f in files if f.endswith(".pkl")])
                   for _, _, files in os.walk(objects))
