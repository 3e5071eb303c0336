"""Content-addressed on-disk cache for sweep-point results.

Reproducing the paper means re-running the same figure sweeps over and
over while only a few points change: a scheduler tweak re-runs fig07,
not fig02.  Every :class:`~repro.harness.parallel.SweepPoint` is a pure
function of ``(fn, kwargs, seed)`` by the determinism contract, so its
result is cacheable by construction.  This module stores those results
on disk, keyed by a fingerprint of

* the point function's fully qualified name,
* its canonicalised keyword arguments (the derived per-point seed is
  one of them),
* a *code fingerprint* -- a hash over the sources of every module the
  point function transitively imports from the instrumented packages
  (``repro.*`` plus the function's own top-level package), and
* the result-schema version.

Editing ``src/repro/core/scheduler.py`` therefore invalidates exactly
the points whose drivers transitively import it.  Package ``__init__``
files re-export nothing (a re-export would put the re-exported module
in the closure of every importer of the package), so a closure is the
code the driver reaches: 56 of ``src/repro``'s 96 modules for 17 of
the 18 testbed drivers (57 for ``ablations``), 68-69 for the four that
run the KV stack (fig10, fig11-12, fig13, rack).  An edit under
``kv/`` or to ``kvcluster.py``, ``ycsb.py``, ``population.py`` or
``fabric/boundary.py`` leaves every testbed figure warm, and an edit
to one driver recomputes that driver alone (plus fig11-12 for fig10,
whose point function it calls).  Imports are
discovered statically, so the fingerprint never depends on import
order or runtime state, and without a parse: a keyword scan takes
every whole-word ``import`` in the text as a candidate, a superset of
what the parser finds (a docstring that reads like an import adds a
name; one that resolves to a module costs a spurious recompute, never
a stale hit), and a file with a syntax error still contributes its
imports.  A file's hash and scan are memoised per
path and the closure's digest per point function, so a process reads
each file once and a lookup costs one ``stat`` pass over the closure.
A point function whose own module has no resolvable source (a script
run as ``__main__``) is uncacheable: no edit could change its key.

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
import re
import time
import unicodedata
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Literal, Optional, Set, Tuple, Union

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
# path -> (mtime_ns, size, sha256 hexdigest of the bytes, scanned
# imports): one read serves hash and scan, and an edit replaces the
# file's record, so the table is bounded by the number of files.
_source_memo: Dict[str, Tuple[int, int, str, FrozenSet[Tuple[str, str]]]] = {}
# module name -> (source path or None, is_package); resolution is
# stable for the life of the process.
_module_file_memo: Dict[str, Tuple[Optional[str], bool]] = {}
# (module name, roots) -> ([(path, source hash)] of the closure, digest).
_closure_memo: Dict[Tuple[str, FrozenSet[str]], Tuple[List[Tuple[str, Optional[str]]], str]] = {}

# ``import`` is a hard keyword and no import statement holds a string,
# so every real one has the whole word outside any.  Its left boundary
# is tested behind the literal: a leading ``\b`` searches 20x slower.
_IMPORT_KEYWORD = re.compile(r"import\b(?<!\wimport)")
# The last ``from`` on the logical line with no statement boundary
# (``;`` or ``:``) between it and the keyword.
_FROM_CLAUSE = re.compile(r".*\bfrom\b([^;:]*)$")
# After the keyword: a parenthesised list up to the first ``)`` outside
# a comment, or names up to a comment, a ``;`` or the end of the line.
_IMPORT_TAIL = re.compile(r"[ \t\f\r]*\(((?:[^#)]+|#[^\r\n]*)*)|([^#;\n]*)")
_COMMENT = re.compile(r"#[^\r\n]*")


def clear_fingerprint_caches() -> None:
    """Drop every memo table of the closure walk: what tests do between
    cases, and the perf ledger to make a warm pass pay a fresh process's walk."""
    _source_memo.clear()
    _module_file_memo.clear()
    _closure_memo.clear()


def _identifier(words: List[str]) -> str:
    """Join the tokens of a dotted name as the parser would read it."""
    name = "".join(words)
    return name if name.isascii() else unicodedata.normalize("NFKC", name)


def _scan_imports(text: str) -> FrozenSet[Tuple[str, str]]:
    """``(module, name)`` per imported name in ``text``, unresolved:
    ``module`` is ``""`` for a plain ``import name`` and keeps the dots
    of a relative ``from``; ``name`` is ``""`` for ``*``.  Import-like
    text in strings and comments adds pairs; no real import is missed.
    """
    # Backslash-newline joins lines.  ``decode_source`` left no "\r", so
    # it marks the joins: a comment still ends there, and a ``from``
    # clause spanning one may be a comment's tail (kept both ways).
    text = text.replace("\\\n", "\r")
    found: Set[Tuple[str, str]] = set()
    for keyword in _IMPORT_KEYWORD.finditer(text):
        start, end = keyword.span()
        clause = _FROM_CLAUSE.match(text, text.rfind("\n", 0, start) + 1, start)
        modules = [_identifier(clause.group(1).split())] if clause else [""]
        if clause and "\r" in clause.group(1):
            modules.append("")
        listed, plain = _IMPORT_TAIL.match(text, end).groups()
        for item in (plain if listed is None else _COMMENT.sub(" ", listed)).split(","):
            words = item.split()
            name = _identifier(words[: words.index("as")] if "as" in words else words)
            if name:
                found.update((module, name.strip("*")) for module in modules)
    return frozenset(found)


def _source(path: str) -> Tuple[Optional[str], FrozenSet[Tuple[str, str]]]:
    """``(sha256, scanned imports)`` of the file at ``path``: one
    ``stat`` per call, one read and decode per version of the file.
    An undecodable file has a hash and no imports, an unreadable one neither."""
    try:
        stat = os.stat(path)
        record = _source_memo.get(path)
        if record is None or record[0] != stat.st_mtime_ns or record[1] != stat.st_size:
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                imports = _scan_imports(importlib.util.decode_source(data))
            except (SyntaxError, UnicodeDecodeError, LookupError):  # bad bytes, cookie, codec
                imports = frozenset()
            record = (stat.st_mtime_ns, stat.st_size, hashlib.sha256(data).hexdigest(), imports)
            _source_memo[path] = record
    except OSError:
        return None, frozenset()
    return record[2], record[3]


def _module_file(name: str) -> Tuple[Optional[str], bool]:
    """Resolve a module name to ``(source path, is_package)``.

    Returns ``(None, False)`` for names that are not importable modules
    with Python source (attributes, extension modules, builtins).
    """
    cached = _module_file_memo.get(name)
    if cached is not None:
        return cached
    parent = name.rpartition(".")[0]
    parent_path, parent_is_package = _module_file(parent) if parent else (None, False)
    if parent_path is not None and not parent_is_package:
        # ``from a.b import C`` with ``a.b`` a plain module: ``C`` is an
        # attribute.  ``find_spec`` would *import* ``a.b`` to say so --
        # and with it whatever a lazily imported module drags in.
        spec = None
    else:
        try:
            spec = importlib.util.find_spec(name)
        except (ImportError, AttributeError, ValueError):
            spec = None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        result: Tuple[Optional[str], bool] = (None, False)
    else:
        result = (spec.origin, bool(spec.submodule_search_locations))
    _module_file_memo[name] = result
    return result


def _absolute_names(imports: FrozenSet[Tuple[str, str]], package: str) -> Set[str]:
    """Absolute module names the scanned ``imports`` mention.

    ``from X import y`` contributes both ``X`` and ``X.y`` (``y`` may be
    a submodule or a mere attribute; non-modules are filtered out later
    by :func:`_module_file`).  Relative imports are resolved against
    ``package``.
    """
    parts = package.split(".") if package else []
    names: Set[str] = set()
    for module, name in imports:
        level = len(module) - len(module.lstrip("."))
        if level:
            if level - 1 > len(parts):
                continue
            kept = parts[: len(parts) - (level - 1)]
            module = ".".join(kept + [module[level:]] if module[level:] else kept)
            if not module:
                continue
        names.add(module or name)
        if module and name:
            names.add(f"{module}.{name}")
    return names


def _parents_of(name: str) -> List[str]:
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def transitive_sources(
    module_name: str, roots: FrozenSet[str]
) -> Dict[str, Optional[str]]:
    """Map every ``roots``-rooted module transitively imported by
    ``module_name`` (including itself and parent packages) to the
    sha256 of its source file."""
    seen: Dict[str, Optional[str]] = {}
    queue: List[str] = [module_name] + _parents_of(module_name)
    while queue:
        name = queue.pop()
        if name in seen or name.partition(".")[0] not in roots:
            continue
        path, is_package = _module_file(name)
        if path is None:
            continue
        seen[name], imports = _source(path)
        package = name if is_package else name.rpartition(".")[0]
        for imported in _absolute_names(imports, package):
            if imported.partition(".")[0] not in roots:
                continue
            if imported not in seen:
                queue.append(imported)
                for parent in _parents_of(imported):
                    if parent not in seen:
                        queue.append(parent)
    return seen


def code_fingerprint(fn: Callable[..., Any], roots: Optional[Set[str]] = None) -> str:
    """Hash the transitive module sources ``fn`` depends on.

    ``roots`` limits which top-level packages are followed; by default
    the instrumented ``repro`` package plus ``fn``'s own top-level
    package (so test-local point functions fingerprint correctly too).

    The closure is walked once per ``(module, roots)``; later calls
    re-hash nothing and re-walk nothing while every file of that closure
    still has the source hash the walk saw (one ``stat`` per file).  The
    closure is a function of those files' contents, so any edit, deletion
    or new import inside it shows up as a changed hash and a fresh walk.
    """
    module = getattr(fn, "__module__", "") or ""
    if roots is None:
        roots = {"repro"}
        if module:
            roots.add(module.partition(".")[0])
    key = (module, frozenset(roots))
    memo = _closure_memo.get(key)
    if memo is not None and all(_source(path)[0] == sha for path, sha in memo[0]):
        return memo[1]
    sources = transitive_sources(module, key[1])
    digest = hashlib.sha256()
    for name in sorted(sources):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update((sources[name] or "missing").encode("utf-8"))
        digest.update(b"\n")
    fingerprint = digest.hexdigest()
    files = [(_module_file(name)[0], sha) for name, sha in sources.items()]
    _closure_memo[key] = (files, fingerprint)
    return fingerprint


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
    if _module_file(module)[0] is None:  # fn's own body would be in no closure
        raise Uncacheable(f"{fn!r}: module {module!r} has no resolvable source")
    canonical = canonical_value(kwargs)
    code_fp = code_fingerprint(fn)
    key_material = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "fn": f"{module}:{qualname}",
            "kwargs": canonical,
            "code": code_fp,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    fingerprint = hashlib.sha256(key_material.encode("utf-8")).hexdigest()
    return fingerprint, canonical, code_fp


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
        fingerprint, _, _ = keyed
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
        path = self._entry_path(fingerprint)
        self._atomic_write(path, data)
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
        """What each stored point cost to compute: the entries, whose
        files keep ``fn``, ``label``, ``kwargs``, ``code_fingerprint``
        and ``elapsed_s`` beside the result."""
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

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> int:
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
        removed = 0
        for entry in self.entries():
            try:
                os.unlink(entry["path"])
                removed += 1
            except OSError:
                pass
        try:
            os.unlink(self.root / JOURNAL_NAME)
        except OSError:
            pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, stats={self.stats})"


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
