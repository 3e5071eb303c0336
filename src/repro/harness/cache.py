"""Content-addressed on-disk cache for sweep-point results.

Reproducing the paper means re-running the same figure sweeps while
little changes between runs: an edit to fig07's driver re-runs fig07,
not fig02.  Every :class:`~repro.harness.parallel.SweepPoint` is a pure
function of ``(fn, kwargs, seed)`` by the determinism contract, so its
result is cacheable by construction.  This module stores those results
on disk, keyed by a fingerprint of

* the point function's fully qualified name,
* its canonicalised keyword arguments (the derived per-point seed is
  one of them),
* a *code fingerprint*: a sha256 over ``(path relative to src/repro,
  sha256 of the bytes)`` for every ``.py`` file under ``src/repro``
  except the drivers in ``harness/experiments/`` (``__init__`` and
  ``common`` are in), plus the point function's own file, labelled by
  its module name, and
* the result-schema version.

So an edit to a shared module recomputes every figure, and an edit to
one driver only that driver's points (no driver imports another).  A
point function outside ``repro`` (a test's) is keyed by the tree and
its own file: an edit to a helper it imports from outside ``repro`` is
not seen.  One whose module has no resolvable source (a script run as
``__main__``) is uncacheable: no edit to it could change its key.  A
process reads each file once per version and lists the tree once (again
only if a directory's stamp moves); a repeat key costs one ``stat`` per
directory and file and reads nothing.

The cache directory (:func:`cache_dir`: ``--cache-dir``, else
``REPRO_CACHE_DIR``, else ``.repro-cache/``) holds one record of each
kind: an entry file ``<fingerprint>.json`` per point -- its result,
``fn``, ``label``, ``kwargs``, code fingerprint and ``elapsed_s`` --
and one line in ``journal.jsonl`` per sweep or suite run
(:meth:`ResultCache.record_run`).  Entry writes go to a unique
temporary file in the same directory followed by :func:`os.replace`,
so concurrent runs sharing a cache directory can race on the same entry
and readers still never observe a torn file.  Hits refresh the entry's
mtime, which is what ``prune()``'s LRU ordering evicts on.

The cache is off unless asked for: pass a :class:`ResultCache` as
``cache=`` to :func:`repro.harness.parallel.run_sweep` / ``Sweep.run``,
use the CLI's ``--cache`` / ``--cache-dir`` flags, or set
``REPRO_CACHE=1`` (and optionally ``REPRO_CACHE_DIR``) in the
environment.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Literal, Optional, Tuple, Union

#: Bump when the stored entry layout (or the meaning of results)
#: changes; old entries simply stop matching.
SCHEMA_VERSION = 1

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment toggles for ambient (no-code-change) caching.
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"

#: Name of the per-cache-directory run journal (one JSON line per
#: ``run_groups`` call with a cache).
JOURNAL_NAME = "journal.jsonl"


class Uncacheable(TypeError):
    """Raised when a point's kwargs or result cannot be canonicalised."""


# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-representable form.

    Tuples become lists, dict keys must be strings and are emitted in
    sorted order; anything outside the JSON-primitive universe raises
    :class:`Uncacheable` (such points simply bypass the cache).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise Uncacheable(f"non-string dict key {key!r}")
            out[key] = canonical_value(value[key])
        return out
    raise Uncacheable(f"value of type {type(value).__name__} is not cacheable")


# ----------------------------------------------------------------------
# Code fingerprinting
# ----------------------------------------------------------------------
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # src/repro

# path -> ((mtime_ns, size), sha256 of the bytes): one record per file.
_sha_memo: Dict[str, Tuple[Tuple[int, int], str]] = {}
# The tree listing, at most one: ([(directory, stamp)], {path: label}).
_tree_memo: List[Tuple[list, Dict[str, str]]] = []
# module -> (own source path or None, [(path, stamp)] it was made from, key).
_key_memo: Dict[str, Tuple[Optional[str], list, str]] = {}


def clear_fingerprint_caches() -> None:
    """Drop the file hashes, the tree listing and the per-module keys
    (tests between cases; the perf ledger before each warm pass)."""
    _sha_memo.clear()
    _tree_memo.clear()
    _key_memo.clear()


def _stamp(path: str) -> Optional[Tuple[int, int]]:
    """``(mtime_ns, size)`` of ``path``, None when it cannot be stat'ed."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


def _unchanged(stamps: list) -> bool:
    return all(_stamp(path) == stamp for path, stamp in stamps)


def _sha(path: str) -> Optional[str]:
    """sha256 of the file at ``path``, None when it cannot be read: one
    ``stat`` per call, one read per version of the file."""
    stamp = _stamp(path)
    record = _sha_memo.get(path)
    if record is None or record[0] != stamp:
        try:
            with open(path, "rb") as handle:
                record = (stamp, hashlib.sha256(handle.read()).hexdigest())
        except OSError:
            return None
        _sha_memo[path] = record
    return record[1]


def _tree() -> Tuple[list, Dict[str, str]]:
    """Stamps of every directory under ``src/repro``, and ``{path: path
    relative to src/repro}`` of every ``.py`` file but the drivers.
    Listed again only when a directory's stamp moves: adding, removing or
    renaming an entry moves its mtime (the import system's own rule)."""
    if not _tree_memo or not _unchanged(_tree_memo[0][0]):
        drivers = os.path.join(_ROOT, "harness", "experiments")
        directories, files = [], {}
        for directory, subdirectories, names in os.walk(_ROOT):
            subdirectories[:] = [name for name in subdirectories if name != "__pycache__"]
            directories.append((directory, _stamp(directory)))
            for name in names:
                if name.endswith(".py") and (directory != drivers or name in ("__init__.py", "common.py")):
                    path = os.path.join(directory, name)
                    files[path] = os.path.relpath(path, _ROOT).replace(os.sep, "/")
        _tree_memo[:] = [(directories, files)]
    return _tree_memo[0]


def _code_key(module: str) -> Tuple[Optional[str], str]:
    """``(own source path or None, code key)`` of a point function in
    ``module``: sha256 over ``(label, sha256 of the bytes)`` for the files
    of :func:`_tree`, and for the module's own file, labelled ``module``,
    when the tree leaves it out (a driver, or a module outside ``repro``).
    Memoised while no directory or file it was made from has a new stamp."""
    record = _key_memo.get(module)
    if record is not None and _unchanged(record[1]):
        return record[0], record[2]
    directories, labels = _tree()
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, AttributeError, ValueError):
        spec = None
    own = os.path.abspath(spec.origin) if spec and spec.origin and spec.origin.endswith(".py") else None
    if own is not None and own not in labels:
        labels = {**labels, own: module}
    digest = hashlib.sha256()
    for label, sha in sorted((label, _sha(path)) for path, label in labels.items()):
        digest.update(f"{label}\x00{sha or 'missing'}\n".encode("utf-8"))
    stamps = directories + [(path, _sha_memo.get(path, (None,))[0]) for path in labels]
    _key_memo[module] = record = (own, stamps, digest.hexdigest())
    return own, record[2]


def code_fingerprint(fn: Callable[..., Any]) -> str:
    """The code key of ``fn``: see :func:`_code_key`."""
    return _code_key(getattr(fn, "__module__", "") or "")[1]


def point_fingerprint(
    fn: Callable[..., Any], kwargs: Dict[str, Any]
) -> Tuple[str, Dict[str, Any], str]:
    """Content address of one sweep point.

    Returns ``(fingerprint, canonical_kwargs, code_fingerprint)``;
    raises :class:`Uncacheable` when the kwargs cannot be canonicalised
    or the function has no resolvable module source.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise Uncacheable(f"{fn!r} is not a module-level function")
    canonical = canonical_value(kwargs)
    own, code_fp = _code_key(module)
    if own is None:  # no edit to fn's own body could change the key
        raise Uncacheable(f"{fn!r}: module {module!r} has no resolvable source")
    material = {"schema": SCHEMA_VERSION, "fn": f"{module}:{qualname}", "kwargs": canonical, "code": code_fp}
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest(), canonical, code_fp


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/byte/seconds-saved counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    uncacheable: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seconds_saved: float = 0.0

    def snapshot(self) -> Dict[str, Union[int, float]]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, before: Dict[str, Union[int, float]]) -> Dict[str, Union[int, float]]:
        now = self.snapshot()
        return {
            key: round(now[key] - before[key], 6)
            if isinstance(now[key], float)
            else now[key] - before[key]
            for key in now
        }


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed JSON store for sweep-point results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.stats = CacheStats()
        self._tmp_serial = 0

    # -- keying --------------------------------------------------------
    def key(self, point) -> Optional[Tuple[str, Dict[str, Any], str]]:
        """``point``'s :func:`point_fingerprint` triple, or None when it
        is uncacheable.  A sweep computes it once, before the point
        runs, and hands it to :meth:`lookup` and :meth:`store`: results
        are filed under the code that was on disk when they were asked
        for, not whatever is there once they have been computed."""
        try:
            return point_fingerprint(point.fn, point.kwargs)
        except Uncacheable:
            return None

    def _entry_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    # -- lookup / store ------------------------------------------------
    def lookup(self, point, key=None) -> Tuple[bool, Any]:
        """Return ``(hit, result)``; a miss returns ``(False, None)``."""
        keyed = key or self.key(point)
        if keyed is None:
            self.stats.uncacheable += 1
            return False, None
        fingerprint = keyed[0]
        path = self._entry_path(fingerprint)
        try:  # anything but a well-formed entry for this key is a miss
            data = path.read_bytes()
            entry = json.loads(data)
            valid = entry["schema"] == SCHEMA_VERSION and entry["fingerprint"] == fingerprint
            result, saved_s = entry["result"], float(entry.get("elapsed_s", 0.0))
        except (OSError, ValueError, TypeError, LookupError):
            valid = False
        if not valid:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        self.stats.seconds_saved += saved_s
        try:
            os.utime(path)  # refresh the mtime-LRU position
        except OSError:
            pass
        return True, result

    def store(self, point, result: Any, elapsed_s: float, key=None) -> Any:
        """Persist one computed result; returns the value the sweep
        should merge.

        The returned value is the stored result round-tripped through
        JSON with sorted keys, as the entry file is written, so a run
        that writes the cache merges exactly what a later warm run will
        read back, dict key order included -- warm and cold outputs are
        byte-identical.  Unserialisable results are passed through
        untouched (and simply never cached).
        """
        keyed = key or self.key(point)
        if keyed is None:
            self.stats.uncacheable += 1
            return result
        fingerprint, canonical_kwargs, code_fp = keyed
        try:
            result_json = json.dumps(result, sort_keys=True)
        except (TypeError, ValueError):
            self.stats.uncacheable += 1
            return result
        entry = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "fn": f"{point.fn.__module__}:{point.fn.__qualname__}",
            "label": getattr(point, "label", ""),
            "kwargs": canonical_kwargs,
            "code_fingerprint": code_fp,
            "elapsed_s": round(float(elapsed_s), 6),
            "saved_at": time.time(),
            "result": json.loads(result_json),
        }
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        self._atomic_write(self._entry_path(fingerprint), data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        return entry["result"]

    def _atomic_write(self, path: Path, data: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._tmp_serial += 1
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{self._tmp_serial}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- journal -------------------------------------------------------
    def record_run(self, name: Optional[str], delta: Dict[str, Union[int, float]]) -> None:
        """Append one line to the cache-dir run journal (best-effort:
        a full or read-only disk costs the line, never the run)."""
        record = {"sweep": name or "", "at": round(time.time(), 3)}
        record.update(delta)
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.root / JOURNAL_NAME, "ab") as handle:
                handle.write(line)
        except OSError:
            pass

    def read_journal(self) -> List[dict]:
        """The run journal as a list of dicts (empty when absent).

        Torn or corrupt lines (a crashed writer, a truncated disk, bytes
        that are not UTF-8) are skipped rather than raised: journal
        consumers (stats output) must degrade to "no data", never fail.
        """
        try:
            data = (self.root / JOURNAL_NAME).read_bytes()
        except OSError:
            return []
        records = []
        for line in data.splitlines():
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError included
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def point_records(self) -> List[dict]:
        """What each stored point cost to compute: :meth:`entries`."""
        return self.entries()

    # -- maintenance ---------------------------------------------------
    def entries(self) -> List[dict]:
        """Metadata for every entry: path, size, mtime, fn, label,
        kwargs, code fingerprint, elapsed."""
        out = []
        try:
            paths = sorted(self.root.glob("*.json"))
        except OSError:
            return out
        for path in paths:
            try:
                stat = path.stat()
                entry = json.loads(path.read_text(encoding="utf-8"))
                elapsed_s = float(entry.get("elapsed_s", 0.0))
                fingerprint = entry["fingerprint"]
            except (OSError, ValueError, TypeError, LookupError, AttributeError):
                continue  # not an entry this cache wrote
            out.append(
                {
                    "path": str(path),
                    "fingerprint": fingerprint,
                    "fn": entry.get("fn", "?"),
                    "label": entry.get("label", ""),
                    "kwargs": entry.get("kwargs"),
                    "code_fingerprint": entry.get("code_fingerprint"),
                    "elapsed_s": elapsed_s,
                    "size_bytes": stat.st_size,
                    "mtime": stat.st_mtime,
                }
            )
        return out

    def prune(self, max_bytes: Optional[int] = None, max_entries: Optional[int] = None) -> int:
        """Evict least-recently-used entries (by mtime; hits refresh it)
        until the cache fits both limits.  Returns the eviction count."""
        for name, limit in (("max_bytes", max_bytes), ("max_entries", max_entries)):
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be >= 0, got {limit}")
        entries = sorted(self.entries(), key=lambda entry: entry["mtime"])
        total = sum(entry["size_bytes"] for entry in entries)
        count = len(entries)
        removed = 0
        for entry in entries:
            over_bytes = max_bytes is not None and total > max_bytes
            over_count = max_entries is not None and count > max_entries
            if not over_bytes and not over_count:
                break
            try:
                os.unlink(entry["path"])
            except OSError:
                continue
            total -= entry["size_bytes"]
            count -= 1
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry (and the journal). Returns entries removed."""
        removed = self.prune(max_entries=0)
        try:
            os.unlink(self.root / JOURNAL_NAME)
        except OSError:
            pass
        return removed


# ----------------------------------------------------------------------
# Ambient configuration
# ----------------------------------------------------------------------
_env_cache: Optional[ResultCache] = None

#: Accepted by ``run_sweep(cache=...)`` / ``Sweep.run(cache=...)``.
CacheSpec = Union[None, Literal[False], ResultCache]


def cache_dir(explicit: Union[None, str, Path] = None) -> str:
    """The one rule for where the cache lives: ``explicit`` (the CLI's
    ``--cache-dir``), else ``REPRO_CACHE_DIR``, else ``.repro-cache``."""
    return str(explicit or os.environ.get(ENV_DIR, "") or DEFAULT_CACHE_DIR)


def active_cache() -> Optional[ResultCache]:
    """The ambient cache: on when the ``REPRO_CACHE`` environment toggle
    is set (in ``REPRO_CACHE_DIR``, see :func:`cache_dir`), else None."""
    global _env_cache
    if os.environ.get(ENV_ENABLE, "") in ("", "0"):
        return None
    directory = cache_dir()
    if _env_cache is None or str(_env_cache.root) != directory:
        _env_cache = ResultCache(directory)
    return _env_cache


def resolve_cache(cache: CacheSpec) -> Optional[ResultCache]:
    """Normalise a user-facing cache argument to a store (or None)."""
    if cache is None:
        return active_cache()
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    raise TypeError(f"cannot interpret cache specification {cache!r}")
