"""Tests for the content-addressed sweep-point result cache."""

from __future__ import annotations

import ast
import builtins
import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import sysconfig
import tempfile
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import EXPERIMENTS
from repro.harness.cache import (
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    Uncacheable,
    _absolute_names,
    _source,
    canonical_value,
    clear_fingerprint_caches,
    code_fingerprint,
    point_fingerprint,
    resolve_cache,
    transitive_sources,
)
from repro.harness.orchestrator import ExperimentSpec, run_suite, suite_experiments
from repro.harness.parallel import Sweep, SweepPoint, run_sweep

CALLS = []
REPO = Path(repro.__file__).resolve().parents[2]


def point_fn(x, seed=0):
    """Module-level point function (cacheable by reference)."""
    CALLS.append(("point_fn", x, seed))
    return {"x": x, "seed": seed, "value": x * 2.5}


def tuple_point(shape=(4, 8)):
    CALLS.append(("tuple_point", shape))
    return {"shape": list(shape)}


def object_result_point(x):
    CALLS.append(("object_result_point", x))
    return object()  # not JSON-serialisable


def slow_point(x):
    CALLS.append(("slow_point", x))
    time.sleep(0.01)
    return {"x": x}


@pytest.fixture(autouse=True)
def _reset():
    CALLS.clear()


def make_point(fn, index=0, label="p", **kwargs):
    return SweepPoint(index=index, label=label, fn=fn, kwargs=kwargs)


def _imports_of(path, package):
    """What the closure walk reads out of ``path``: scan, then resolve."""
    return _absolute_names(_source(str(path))[1], package)


class TestCanonicalisation:
    def test_tuples_become_lists(self):
        assert canonical_value((1, 2, (3,))) == [1, 2, [3]]

    def test_dict_keys_sorted(self):
        assert list(canonical_value({"b": 1, "a": 2})) == ["a", "b"]

    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert canonical_value(value) == value

    def test_objects_rejected(self):
        with pytest.raises(Uncacheable):
            canonical_value(object())
        with pytest.raises(Uncacheable):
            canonical_value({1: "non-string key"})


class TestFingerprints:
    def test_stable_across_calls(self):
        a = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        b = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        assert a[0] == b[0]

    def test_kwargs_change_key(self):
        a, _, _ = point_fingerprint(point_fn, {"x": 1, "seed": 7})
        b, _, _ = point_fingerprint(point_fn, {"x": 2, "seed": 7})
        c, _, _ = point_fingerprint(point_fn, {"x": 1, "seed": 8})
        assert len({a, b, c}) == 3

    def test_schema_version_changes_key(self, monkeypatch):
        import repro.harness.cache as cache_mod

        a, _, _ = point_fingerprint(point_fn, {"x": 1})
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        b, _, _ = point_fingerprint(point_fn, {"x": 1})
        assert a != b

    def test_lambdas_are_uncacheable(self):
        with pytest.raises(Uncacheable):
            point_fingerprint(lambda x: x, {"x": 1})

    def test_function_without_module_source_is_uncacheable(self):
        """Its body would be in no closure: no edit could change the key."""

        class _Fn:
            __module__ = "no_such_module_anywhere"
            __qualname__ = "point"

        with pytest.raises(Uncacheable):
            point_fingerprint(_Fn, {"x": 1})
        # The digest itself stays available (the ledger manifest takes it).
        assert code_fingerprint(_Fn) == hashlib.sha256().hexdigest()

    def test_edited_main_script_recomputes(self, tmp_path):
        """A point function defined in a script run as ``__main__`` used
        to be keyed under the fingerprint of nothing: the second run of
        an edited script was served the first run's result."""
        script = tmp_path / "script.py"
        template = textwrap.dedent(
            """
            from repro.harness.cache import ResultCache
            from repro.harness.parallel import SweepPoint, run_sweep

            def point(x):
                return {{"value": x * {scale}}}

            if __name__ == "__main__":
                cache = ResultCache({cache!r})
                [row] = run_sweep([SweepPoint(0, "p", point, {{"x": 2}})], cache=cache, name="main")
                print(row["value"], cache.stats.hits, cache.stats.uncacheable > 0)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        outputs = []
        for scale in (10, 100):
            script.write_text(template.format(scale=scale, cache=str(tmp_path / "cache")), encoding="utf-8")
            done = subprocess.run(
                [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split())
        assert outputs == [["20", "0", "True"], ["200", "0", "True"]]

    def test_code_fingerprint_covers_repro_closure(self):
        from repro.harness.experiments import fig02_unloaded_latency as fig02

        # The driver's closure reaches the simulation core: editing the
        # SSD timing model must invalidate figure sweeps.
        sources = transitive_sources(fig02._point.__module__, roots={"repro"})
        assert "repro.ssd.device" in sources
        assert "repro.sim.engine" in sources
        # And a function outside that closure fingerprints differently.
        assert code_fingerprint(fig02._point) != code_fingerprint(point_fn)
        # No driver reaches the CLI or the suite layer (the protocol
        # helpers live in repro.harness.parallel for that reason): a help
        # string edit must not recompute every figure.
        for module_path, _ in EXPERIMENTS.values():
            closure = set(transitive_sources(module_path, roots={"repro"}))
            assert not closure & {"repro.cli", "repro.harness.orchestrator"}, module_path


#: Modules only the RocksDB case study (figs 10-13) and the rack run.
KV_STACK = (
    "repro.kv",
    "repro.harness.kvcluster",
    "repro.workloads.ycsb",
    "repro.workloads.population",
    "repro.fabric.boundary",
)
KV_DRIVERS = {"fig10", "fig11-12", "fig13", "rack"}

#: fig11-12's points call fig10's ``run_one``: that driver is code it runs.
SHARED_POINTS = {
    "repro.harness.experiments.fig11_12_scaling": {"repro.harness.experiments.fig10_rocksdb"},
}

#: The only imports a package ``__init__`` may hold: the names
#: ``benchmarks/ledger`` imports by package path.
INIT_IMPORTS = {
    "repro.core": {("repro.core.switch", "GimbalScheduler", None)},
    "repro.metrics": {("repro.metrics.fairness", "jain_index", None)},
    "repro.obs": {("repro.obs.session", "capture", None)},
    "repro.sim": {("repro.sim.engine", "Simulator", "make_simulator")},
    "repro.ssd": {("repro.ssd.device", "SsdDevice", None)},
    "repro.workloads": {("repro.workloads.fio", "FioSpec", None)},
}


class TestClosurePins:
    """A driver's fingerprint covers the code it runs: editing a module
    recomputes only the figures that reach it."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_driver_closure_holds_no_other_driver_and_kv_only_if_it_runs_kv(self, name):
        module_path = EXPERIMENTS[name][0]
        closure = set(transitive_sources(module_path, frozenset({"repro"})))
        drivers = {path for path, _ in EXPERIMENTS.values()}
        assert closure & drivers == {module_path} | SHARED_POINTS.get(module_path, set())
        kv = {
            module
            for module in closure
            for prefix in KV_STACK
            if module == prefix or module.startswith(prefix + ".")
        }
        if name in KV_DRIVERS:
            assert "repro.kv.lsm" in kv
        else:
            assert not kv, sorted(kv)
            assert not closure & {"repro.sim.shard", "repro.fabric.boundary"}

    def test_package_inits_reexport_nothing(self):
        """A re-export gives a name a second import path, and gives every
        importer of the package the re-exported module's closure.  Each
        ``__init__`` under ``src/repro`` is its docstring plus at most
        the allow-listed imports, and defines nothing."""
        inits = sorted((REPO / "src" / "repro").rglob("__init__.py"))
        assert len(inits) >= 11
        for init in inits:
            package = ".".join(init.parent.relative_to(REPO / "src").parts)
            tree = ast.parse(init.read_text(encoding="utf-8"))
            assert ast.get_docstring(tree), init
            imports = set()
            for node in tree.body[1:]:
                if not isinstance(node, ast.ImportFrom):
                    pytest.fail(f"{init}:{node.lineno} is not an import")
                imports |= {(node.module, alias.name, alias.asname) for alias in node.names}
            assert imports <= INIT_IMPORTS.get(package, set()), init

    @pytest.mark.parametrize("module", ["parallel", "cache", "orchestrator"])
    def test_sweep_loop_and_cache_import_nothing_from_obs(self, module):
        """A run's record is its ``SuiteResult`` and its journal line;
        nothing of it is mirrored into an obs session."""
        path = REPO / "src" / "repro" / "harness" / f"{module}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert imported, path
        assert not [name for name in imported if name == "repro.obs" or name.startswith("repro.obs.")]


# ----------------------------------------------------------------------
# Reference model: the fingerprint algorithm as it stood before the
# keyword scan and the closure memo (``ast.parse`` and ``ast.walk`` over
# every node, a full closure walk and a re-read of every file per call).
# Production finds every import the parse finds, plus candidates from
# import-like text in strings and comments that must resolve to nothing
# new: it has to return exactly these fingerprints, or every existing
# cache directory goes cold.
# ----------------------------------------------------------------------
def _reference_imports(path, package):
    names = set()
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = package.split(".") if package else []
                if node.level - 1 > len(parts):
                    continue
                kept = parts[: len(parts) - (node.level - 1)]
                base = ".".join(kept)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            if not base:
                continue
            names.add(base)
            for alias in node.names:
                if alias.name != "*":
                    names.add(f"{base}.{alias.name}")
    return frozenset(names)


@functools.lru_cache(maxsize=None)
def _reference_module_imports(origin, package):
    """Importable modules do not change under a test run: the 24
    reference closures share their ~100 parses."""
    return _reference_imports(origin, package)


def _resolves(name):
    """Spec of the module ``name`` if it has Python source, else None
    (as the walk decides it)."""
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    return spec


def _reference_closure(module_name, roots):
    def parents(name):
        parts = name.split(".")
        return [".".join(parts[:i]) for i in range(1, len(parts))]

    seen = {}
    queue = [module_name] + parents(module_name)
    while queue:
        name = queue.pop()
        if name in seen or name.partition(".")[0] not in roots:
            continue
        spec = _resolves(name)
        if spec is None:
            continue
        seen[name] = hashlib.sha256(Path(spec.origin).read_bytes()).hexdigest()
        package = name if spec.submodule_search_locations else name.rpartition(".")[0]
        for imported in _reference_module_imports(spec.origin, package):
            if imported.partition(".")[0] in roots and imported not in seen:
                queue.append(imported)
                queue.extend(parent for parent in parents(imported) if parent not in seen)
    return seen


def _reference_code_fingerprint(module_name, roots):
    seen = _reference_closure(module_name, roots)
    digest = hashlib.sha256()
    for name in sorted(seen):
        digest.update(f"{name}\x00{seen[name]}\n".encode("utf-8"))
    return digest.hexdigest()


NESTED_IMPORTS = textwrap.dedent(
    """
    import top_a, top_b.sub as alias
    from . import rel_one
    from .. import rel_two
    from ... import rel_three
    from .... import too_deep
    from .sibling import name_a, name_b
    from ..uncle.cousin import name_c
    from star_pkg import *
    from plain_pkg.mod import thing

    def fn():
        import in_def
        def inner():
            from in_inner_def import x
        return [lambda: 0 for _ in ()]

    async def afn():
        import in_async_def
        async with ctx() as c:
            import in_async_with
        async for _ in it():
            import in_async_for
        else:
            import in_async_for_else

    class K:
        import in_class
        def method(self):
            import in_method

    if cond:
        import in_if
    elif other:
        import in_elif
    else:
        import in_else

    for _ in ():
        import in_for
    else:
        import in_for_else

    while cond:
        import in_while
    else:
        import in_while_else

    with ctx():
        import in_with

    try:
        import in_try
    except ValueError:
        import in_except
    except (KeyError, OSError) as exc:
        import in_except_as
    else:
        import in_try_else
    finally:
        import in_finally

    match value:
        case 1:
            import in_case
        case [x, y] if x:
            import in_guarded_case
        case _:
            if deep:
                with ctx():
                    from in_deep_case import z
    """
)
if sys.version_info >= (3, 11):  # ``except*`` does not parse before 3.11
    NESTED_IMPORTS += textwrap.dedent(
        """
        try:
            import in_try_star
        except* ValueError:
            import in_except_star
        """
    )


#: Packages of the running interpreter's stdlib scanned beside its top
#: level: ~350 files, a few seconds of reference parsing.
STDLIB_PACKAGES = ("asyncio", "concurrent", "email", "importlib", "json", "multiprocessing", "unittest", "xml")


def _scan_vs_reference(files, package_of):
    """Compare scan and parse over ``files``; ``(checked, rejected,
    reference names, {path: names only the scan found})``.  Fails on
    the first file where the parse finds a name the scan does not."""
    checked = rejected = names = 0
    added = {}
    for path in files:
        package = package_of(path)
        try:
            expected = _reference_imports(str(path), package)
        except (SyntaxError, ValueError):  # not Python the parser accepts
            rejected += 1
            continue
        found = _imports_of(path, package)
        assert expected <= found, (path, sorted(expected - found))
        checked += 1
        names += len(expected)
        if found != expected:
            added[path] = found - expected
    return checked, rejected, names, added


class TestImportScan:
    """The keyword scan finds everything ``ast.walk`` finds."""

    def test_every_repro_source_file(self):
        """Superset on every file of the repo; inside ``src/repro`` what
        the scan adds (import-like text in docstrings) reaches no module
        the parse does not reach."""
        files = sorted(
            path
            for top in ("src", "tests", "benchmarks", "tools", "examples")
            for path in (REPO / top).rglob("*.py")
        )
        src = REPO / "src"

        def package_of(path):
            base = src if src in path.parents else REPO
            return ".".join(path.relative_to(base).parts[:-1])

        checked, rejected, names, added = _scan_vs_reference(files, package_of)
        assert checked > 200 and rejected == 0  # today 210
        assert names > 2500  # the comparison is not between empty sets
        in_src = {path: extra for path, extra in added.items() if src in path.parents}
        assert sum(map(len, in_src.values())) < 40, in_src  # today 21: decoys stay rare
        for path, extra in in_src.items():
            reached = {name for name in extra if name.partition(".")[0] == "repro" and _resolves(name)}
            if reached:  # today two, both parent packages of the module they sit in
                module = ".".join(path.relative_to(src).with_suffix("").parts)
                assert reached <= set(_reference_closure(module, {"repro"})), (path, reached)

    def test_stdlib_corpus(self):
        """Code nobody here wrote: the interpreter's own library."""
        stdlib = Path(sysconfig.get_paths()["stdlib"])
        files = sorted(stdlib.glob("*.py"))
        for package in STDLIB_PACKAGES:
            files += sorted((stdlib / package).rglob("*.py"))
        checked, rejected, names, _ = _scan_vs_reference(
            files, lambda path: ".".join(path.relative_to(stdlib).parts[:-1])
        )
        assert checked > 250 and names > 2500
        assert rejected <= 5  # a stdlib may keep a few deliberately broken files

    def test_imports_nested_in_every_statement_kind(self, tmp_path):
        path = tmp_path / "nested.py"
        path.write_text(NESTED_IMPORTS, encoding="utf-8")
        package = "pkg.sub.leaf"
        found = _imports_of(path, package)
        assert found == _reference_imports(str(path), package)  # no decoys in there
        nested = {line.split()[1] for line in NESTED_IMPORTS.splitlines() if " in_" in line}
        assert len(nested) >= 24 and nested <= found
        assert {
            "top_a", "top_b.sub", "star_pkg", "plain_pkg.mod", "plain_pkg.mod.thing",
            "pkg.sub.leaf.rel_one", "pkg.sub.rel_two", "pkg.rel_three",
            "pkg.sub.leaf.sibling.name_a", "pkg.sub.uncle.cousin.name_c",
        } <= found  # fmt: skip
        assert not any("too_deep" in name or name.endswith("*") for name in found)

    def _assert_superset(self, tmp_path, source, package="pkg.sub"):
        path = tmp_path / "case.py"
        path.write_bytes(source if isinstance(source, bytes) else source.encode("utf-8"))
        clear_fingerprint_caches()  # one path, several sources
        expected = _reference_imports(str(path), package)
        found = _imports_of(path, package)
        assert expected and expected <= found, sorted(expected - found)
        return found

    def test_no_blank_between_dots_and_import(self, tmp_path):
        """Hazard 1 (scipy ships it): ``from .import x`` is legal."""
        found = self._assert_superset(
            tmp_path, "from .import arffread\nfrom..import up\nfrom.mod import(name)\n"
        )
        assert {"pkg.sub.arffread", "pkg.up", "pkg.sub.mod.name"} <= found

    def test_commented_out_open_paren_does_not_swallow_the_next_import(self, tmp_path):
        """Hazard 2 (chardet ships it): a decoy's tail may run on as far
        as it likes, the scan resumes right after the decoy's keyword."""
        found = self._assert_superset(
            tmp_path,
            textwrap.dedent(
                """
                # from .langhungarianmodel import (Latin2HungarianModel,
                #                                  Win1250HungarianModel)
                from .langrussianmodel import (
                    Koi8rModel,  # the (first) one
                    Win1251CyrillicModel,
                )
                s = "import ("; from .after_string import kept
                '''
                import (never_closed,
                '''
                import after_docstring
                """
            ),
        )
        assert {
            "pkg.sub.langrussianmodel.Koi8rModel", "pkg.sub.langrussianmodel.Win1251CyrillicModel",
            "pkg.sub.after_string.kept", "after_docstring",
        } <= found  # fmt: skip

    def test_backslash_joins_code_lines_but_not_comment_lines(self, tmp_path):
        found = self._assert_superset(
            tmp_path,
            textwrap.dedent(
                """
                from joined \\
                    import one, \\
                    two as alias
                import three, \\
                    four
                # copied from somewhere \\
                import five
                # see: from docs \\
                from six import seven
                from eight import (nine,  # not a continuation \\
                    ten, \\
                    eleven)
                import twelve  # nor this \\
                import thirteen
                """
            ),
        )
        assert {
            "joined.one", "joined.two", "three", "four", "five", "six.seven",
            "eight.nine", "eight.ten", "eight.eleven", "twelve", "thirteen",
        } <= found  # fmt: skip

    def test_source_is_decoded_like_the_parser_decodes_it(self, tmp_path):
        """BOM, PEP 263 cookie, universal newlines, NFKC identifiers.  (One
        known gap, the stdlib's own: ``decode_source`` -- like
        ``tokenize.open`` -- cannot find a non-UTF-8 cookie in a file whose
        *only* line ends are lone CRs, which the C tokenizer can; such a
        file scans as undecodable, so the cookie line here ends in LF.)"""
        bom = b"\xef\xbb\xbfimport caf\xc3\xa9\r\nfrom \xef\xac\x81le import \xc2\xb5s\r\n"
        assert {"caf\u00e9", "file.\u03bcs"} <= self._assert_superset(tmp_path, bom)  # NFKC: fi, Greek mu
        cookie = b"# -*- coding: latin-1 -*-\nimport caf\xe9\rfrom . import na\xefve\r"  # lone CRs
        assert {"caf\u00e9", "pkg.sub.na\u00efve"} <= self._assert_superset(tmp_path, cookie)

    def test_undecodable_file_has_no_imports_but_a_syntax_error_keeps_them(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("import kept_a\ndef oops(:\n    from .rel import kept_b\n", encoding="utf-8")
        assert {"kept_a", "pkg.rel.kept_b"} <= _imports_of(broken, "pkg")
        undecodable = {
            "bytes.py": b"import lost\n\xff\xfe",
            "cookie.py": b"# coding: nope\nimport lost\n",
            "codec.py": b"# coding: hex\nimport lost\n",  # a codec, not a text encoding
        }
        for name, data in undecodable.items():
            (tmp_path / name).write_bytes(data)
            assert _imports_of(tmp_path / name, "pkg") == set()
            assert _source(str(tmp_path / name))[0] == hashlib.sha256(data).hexdigest()
        assert _source(str(tmp_path / "absent.py")) == (None, frozenset())

    def test_fingerprinting_imports_no_module_to_resolve_its_attributes(
        self, tmp_path, monkeypatch
    ):
        """``from <pkg>.heavy import Heavy`` sits in a lazy branch the
        point never takes.  Resolving the candidate ``<pkg>.heavy.Heavy``
        must not import ``<pkg>.heavy`` (and whatever it drags in) into
        every process that merely keys a point."""
        name = f"lazypkg_{os.getpid()}_{time.monotonic_ns()}"
        package = tmp_path / name
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "heavy.py").write_text("class Heavy:\n    pass\n", encoding="utf-8")
        (package / "points.py").write_text(
            textwrap.dedent(
                f"""
                def point(x):
                    if x < 0:
                        from {name}.heavy import Heavy

                        return Heavy()
                    return x
                """
            ),
            encoding="utf-8",
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        points = importlib.import_module(f"{name}.points")
        code_fingerprint(points.point)
        assert f"{name}.heavy" not in sys.modules
        # The lazy module is still part of the closure.
        assert f"{name}.heavy" in transitive_sources(points.__name__, frozenset({name}))

    def test_cold_fingerprint_compiles_nothing_and_reads_each_file_once(self, monkeypatch):
        from repro.harness.experiments import fig02_unloaded_latency as fig02

        expected = code_fingerprint(fig02._point)  # imports whatever resolution imports
        clear_fingerprint_caches()
        compiled, opened = [], Counter()
        real_compile, real_open = builtins.compile, builtins.open

        def counting_compile(source, filename, *args, **kwargs):
            compiled.append(filename)
            return real_compile(source, filename, *args, **kwargs)

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counting_compile)
        monkeypatch.setattr(builtins, "open", counting_open)
        try:
            assert code_fingerprint(fig02._point) == expected
        finally:
            monkeypatch.undo()
        assert compiled == []
        closure = transitive_sources(fig02.__name__, frozenset({"repro"}))
        assert {"repro.sim.engine", "repro.ssd.device", "repro.fabric.pipeline"} <= set(closure)
        assert opened == Counter(importlib.util.find_spec(name).origin for name in closure)


# ----------------------------------------------------------------------
# The scan against the parse under hypothesis: random import statements,
# in every spelling the grammar allows, amid text that only looks like
# one.  Every generated module must parse (the generator is wrong
# otherwise) and every name the parse finds must be found.
# ----------------------------------------------------------------------
ASCII_NAMES = ["alpha", "beta_2", "_g", "x", "importer", "from_here", "as_is"]
LATIN1_NAMES = ["na\u00efve", "\u00b5s", "caf\u00e9"]  # MICRO SIGN normalises to Greek mu
WIDE_NAMES = ["\ufb01le", "\u212b", "\u53d8\u91cf"]  # ligature fi -> "fi", ANGSTROM SIGN -> U+00C5

DECOY_LINES = [
    "from decoy import hidden", "import (", "from .decoy import (a,", "import decoy as", "from",
    "yield from gen", "raise X from Y", "from decoy import a, b)", "import", ") import (",
]  # fmt: skip
COMMENTS = ["", "  # plain", "  # ) closes nothing", "  # ( import decoy", "  # from decoy import (z", "  # tail \\"]

#: ``{0}`` is the import under test: joined by ``;``, as the body of a
#: one-line compound statement, and nested in every statement kind of
#: ``NESTED_IMPORTS``.
NESTS = [
    "{0}\n",
    "x = 1; {0}\n",
    "{0}; y = 2\n",
    "if cond: {0}\n",
    "if cond: pass\nelse: {0}\n",
    "try: {0}\nexcept ImportError: {0}\nfinally: {0}\n",
    "class K: {0}\n",
    "def fn(): {0}\n",
    "while cond: {0}\n",
    "for _ in (): {0}\n",
    "with ctx: {0}\n",
    "def fn():\n    {0}\n    def inner():\n        {0}\n    return [lambda: 0 for _ in ()]\n",
    "async def afn():\n    {0}\n    async with ctx() as c:\n        {0}\n"
    "    async for _ in it():\n        {0}\n    else:\n        {0}\n",
    "class K:\n    {0}\n    def method(self):\n        {0}\n",
    "if cond:\n\t{0}\n",
    "if cond:\n    {0}\nelif other:\n    {0}\nelse:\n    {0}\n",
    "for _ in ():\n    {0}\nelse:\n    {0}\n",
    "while cond:\n    {0}\nelse:\n    {0}\n",
    "with ctx():\n    {0}\n",
    "try:\n    {0}\nexcept ValueError:\n    {0}\nexcept (KeyError, OSError) as exc:\n    {0}\n"
    "else:\n    {0}\nfinally:\n    {0}\n",
    "match value:\n    case 1:\n        {0}\n    case [x, y] if x:\n        {0}\n"
    "    case _:\n        if deep:\n            with ctx():\n                {0}\n",
]
if sys.version_info >= (3, 11):
    NESTS.append("try:\n    {0}\nexcept* ValueError:\n    {0}\n")

DECOYS = [
    "'''\n{0}\n'''\n",
    'x = """{0}"""\n',
    "y = f'''{{x!r}} {0} {{y}}'''\n",
    's = f"""\n{0}\n"""\n',
]

#: A string (``{0}`` is a decoy line) ahead of a real import on one line.
SAME_LINE_DECOYS = ["s = {0!r}", "s = f'{{d[\"{0}\"]}} {0}'"]
if sys.version_info >= (3, 12):  # PEP 701: the same quotes may nest
    SAME_LINE_DECOYS.append('s = f"{{d["{0}"]}}"')

gap = st.sampled_from([" ", "  ", "\t", " \f", " \\\n    ", "\\\n"])  # between two words
maybe_gap = st.sampled_from(["", "", " ", "\t", " \\\n  "])  # beside punctuation


@st.composite
def import_statements(draw, names):
    """One import statement as text (possibly several physical lines)."""
    name = st.sampled_from(names)

    def dotted():
        dot = draw(st.sampled_from([".", ".", ".", " . "]))
        return dot.join(draw(st.lists(name, min_size=1, max_size=3)))

    def aliased(target):
        if draw(st.booleans()):
            return target
        return f"{target}{draw(gap)}as{draw(gap)}{draw(name)}"

    if draw(st.booleans()):  # import a.b as c, d
        items = [aliased(dotted()) for _ in range(draw(st.integers(1, 3)))]
        return f"import{draw(gap)}" + f"{draw(maybe_gap)},{draw(maybe_gap)}".join(items)
    level = draw(st.integers(0, 3))
    dots = draw(st.sampled_from(["", " "])).join("." * level)
    module = dotted() if level == 0 or draw(st.booleans()) else ""
    head = f"from{draw(maybe_gap if level else gap)}{dots}{draw(maybe_gap)}{module}"
    head += draw(gap if module else maybe_gap) + "import"
    if draw(st.integers(0, 5)) == 0:
        return f"{head}{draw(maybe_gap)}*"
    items = [aliased(draw(name)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        return head + draw(gap) + f"{draw(maybe_gap)},{draw(maybe_gap)}".join(items)
    body = draw(st.sampled_from(["", "\n    "]))
    for index, item in enumerate(items):  # one per line, commented, trailing comma
        last = index == len(items) - 1
        body += item + ("," if not last or draw(st.booleans()) else "")
        body += draw(st.sampled_from(COMMENTS)) + "\n" + draw(st.sampled_from(["", "    ", "\t"]))
    return f"{head}{draw(maybe_gap)}({body})"


@st.composite
def modules(draw):
    """``(source bytes, package)``: statements and decoys, encoded."""
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "latin-1"]))
    names = ASCII_NAMES + LATIN1_NAMES + ([] if encoding == "latin-1" else WIDE_NAMES)
    statement = import_statements(names)
    chunks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 9))
        if kind <= 4:  # a real import, nested somewhere
            chunks.append(draw(st.sampled_from(NESTS)).format(draw(statement)))
        elif kind == 5:  # a decoy string sharing the real import's line
            decoy = draw(st.sampled_from(SAME_LINE_DECOYS)).format(draw(st.sampled_from(DECOY_LINES)))
            chunks.append(f"{decoy}; {draw(statement)}\n")
        elif kind <= 7:  # import-like text in a (possibly f-) string
            text = draw(st.one_of(st.sampled_from(DECOY_LINES), statement))
            chunks.append(draw(st.sampled_from(DECOYS)).format(text))
        else:  # ... or commented out, the comment perhaps ending in a backslash
            text = draw(st.one_of(st.sampled_from(DECOY_LINES), statement))
            tail = draw(st.sampled_from(["", " \\"]))
            chunks.append("".join(f"# {line}{tail}\n" for line in text.split("\n")))
    chunks.append(draw(statement) + "\n")  # always one real import after the last decoy
    source = "".join(chunks)
    if draw(st.booleans()):
        source = source.replace("\n", "\r\n")
    data = source.encode(encoding)
    if encoding == "latin-1":
        data = b"# -*- coding: latin-1 -*-\n" + data
    return data, draw(st.sampled_from(["", "pkg", "pkg.sub.leaf"]))


class TestImportScanProperties:
    @given(module=modules())
    @settings(
        max_examples=600,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scan_finds_every_import_the_parser_finds(self, module):
        data, package = module
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "generated.py"
            path.write_bytes(data)
            expected = _reference_imports(str(path), package)  # raises if the generator is wrong
            found = _imports_of(path, package)
        clear_fingerprint_caches()  # the next example may reuse the path
        assert expected <= found, (data, sorted(expected - found))


class TestMatchesReferenceAlgorithm:
    """Unchanged sources keep their fingerprints: old caches stay warm."""

    @pytest.mark.parametrize(
        "module_name", [spec.module_path for spec in suite_experiments()] + ["repro.kv.lsm"]
    )
    def test_code_fingerprint_of_repro_modules(self, module_name):
        class _Fn:
            __module__ = module_name

        expected = _reference_code_fingerprint(module_name, {"repro"})
        assert code_fingerprint(_Fn) == expected  # cold walk
        assert code_fingerprint(_Fn) == expected  # served by the closure memo
        clear_fingerprint_caches()
        assert code_fingerprint(_Fn) == expected

    def test_test_local_point_function_and_explicit_roots(self):
        assert code_fingerprint(point_fn) == _reference_code_fingerprint(
            __name__, {"repro", "tests"}
        )
        assert code_fingerprint(point_fn, roots={"tests"}) == _reference_code_fingerprint(
            __name__, {"tests"}
        )

    def test_point_fingerprint_key_material(self):
        kwargs = {"x": 3, "seed": 11, "shape": (4, 8)}
        fingerprint, canonical, code_fp = point_fingerprint(point_fn, kwargs)
        assert code_fp == _reference_code_fingerprint(__name__, {"repro", "tests"})
        assert canonical == {"seed": 11, "shape": [4, 8], "x": 3}
        material = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "fn": f"{__name__}:point_fn",
                "kwargs": canonical,
                "code": code_fp,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert fingerprint == hashlib.sha256(material.encode("utf-8")).hexdigest()


class TestKeyPassing:
    def test_lookup_and_store_use_the_key_they_are_given(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1)
        other = make_point(point_fn, x=2)
        key = cache.key(point)
        assert key == point_fingerprint(point_fn, {"x": 1})
        cache.store(other, {"x": "filed under point's key"}, elapsed_s=0.0, key=key)
        assert cache.lookup(point) == (True, {"x": "filed under point's key"})
        assert cache.lookup(other, key) == (True, {"x": "filed under point's key"})
        assert cache.lookup(other) == (False, None)

    def test_uncacheable_point_has_no_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.key(make_point(point_fn, x=object())) is None
        assert cache.key(make_point(lambda x: x, x=1)) is None


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=3, seed=1)
        hit, _ = cache.lookup(point)
        assert not hit
        stored = cache.store(point, point_fn(**point.kwargs), elapsed_s=0.5)
        hit, value = cache.lookup(point)
        assert hit
        assert value == stored == {"x": 3, "seed": 1, "value": 7.5}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert cache.stats.seconds_saved == pytest.approx(0.5)

    def test_store_round_trips_tuples_like_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(tuple_point, shape=(4, 8))
        stored = cache.store(point, {"pair": (1, 2)}, elapsed_s=0.0)
        assert stored == {"pair": [1, 2]}
        hit, value = cache.lookup(point)
        assert hit and value == stored

    def test_unserialisable_result_bypasses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(object_result_point, x=1)
        result = object()
        assert cache.store(point, result, elapsed_s=0.0) is result
        assert cache.stats.uncacheable == 1
        assert cache.entries() == []

    def test_uncacheable_kwargs_bypass(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=object())
        hit, _ = cache.lookup(point)
        assert not hit
        assert cache.stats.uncacheable == 1
        assert cache.stats.misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1, seed=0)
        cache.store(point, point_fn(1), elapsed_s=0.0)
        [entry] = cache.entries()
        with open(entry["path"], "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        hit, _ = cache.lookup(point)
        assert not hit

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda entry: None,
            lambda entry: [],
            lambda entry: 3,
            lambda entry: "text",
            lambda entry: {k: v for k, v in entry.items() if k != "result"},
            lambda entry: {**entry, "elapsed_s": "soon"},
            lambda entry: {**entry, "elapsed_s": None},
            lambda entry: {**entry, "elapsed_s": [1.0]},
        ],
        ids=["null", "list", "number", "string", "no-result", "elapsed-text", "elapsed-null", "elapsed-list"],
    )
    def test_malformed_entry_is_a_miss_and_is_overwritten(self, tmp_path, mangle):
        """Valid JSON that is not a whole entry -- right schema and
        fingerprint included -- counts as one miss and nothing else."""
        cache = ResultCache(tmp_path / "cache")
        point = make_point(point_fn, x=1, seed=0)
        cache.store(point, point_fn(1), elapsed_s=0.5)
        [entry] = cache.entries()
        good = json.loads(Path(entry["path"]).read_text(encoding="utf-8"))
        Path(entry["path"]).write_text(json.dumps(mangle(good)), encoding="utf-8")
        before = cache.stats.snapshot()
        assert cache.lookup(point) == (False, None)
        delta = cache.stats.delta_since(before)
        assert delta.pop("misses") == 1 and not any(delta.values()), delta
        # ``cache stats`` and ``point_records`` list or skip it, never raise.
        assert all(isinstance(entry["elapsed_s"], float) for entry in cache.entries())
        cache.store(point, point_fn(1), elapsed_s=0.5)
        assert cache.lookup(point) == (True, {"x": 1, "seed": 0, "value": 2.5})

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for x in range(3):
            point = make_point(point_fn, index=x, x=x)
            cache.store(point, point_fn(x), elapsed_s=0.0)
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_torn_and_undecodable_journal_lines_are_skipped(self, tmp_path):
        """A line that is not UTF-8 used to raise ``UnicodeDecodeError``
        out of ``read_journal`` (and so out of ``repro cache stats``)."""
        cache = ResultCache(tmp_path / "cache")
        cache.record_run("good", {"hits": 1})
        with open(cache.root / "journal.jsonl", "ab") as handle:
            handle.write(b"\xe2\x82\n{torn\n[1, 2]\n\n")
        cache.record_run("later", {"hits": 2})
        assert [record["sweep"] for record in cache.read_journal()] == ["good", "later"]

    def test_paths_are_not_cache_specs(self, tmp_path):
        """A cache is ``None``, ``False`` or a ``ResultCache``."""
        for spec in (tmp_path, str(tmp_path)):
            with pytest.raises(TypeError, match="cannot interpret"):
                resolve_cache(spec)


class TestPrune:
    def _filled(self, tmp_path, count=4):
        cache = ResultCache(tmp_path / "cache")
        points = []
        for x in range(count):
            point = make_point(point_fn, index=x, x=x)
            cache.store(point, point_fn(x), elapsed_s=0.0)
            points.append(point)
        # Stage strictly increasing mtimes: entry 0 is the LRU victim.
        base = time.time() - 1000
        for offset, point in enumerate(points):
            fingerprint, _, _ = point_fingerprint(point.fn, point.kwargs)
            path = cache._entry_path(fingerprint)
            stamp = base + offset
            os.utime(path, (stamp, stamp))
        return cache, points

    def test_prune_evicts_lru_first(self, tmp_path):
        cache, points = self._filled(tmp_path)
        removed = cache.prune(max_entries=2)
        assert removed == 2
        # The two oldest (x=0, x=1) are gone, the newest remain.
        assert not cache.lookup(points[0])[0]
        assert not cache.lookup(points[1])[0]
        assert cache.lookup(points[2])[0]
        assert cache.lookup(points[3])[0]

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache, points = self._filled(tmp_path)
        assert cache.lookup(points[0])[0]  # refreshes mtime of the oldest
        removed = cache.prune(max_entries=2)
        assert removed == 2
        assert cache.lookup(points[0])[0]  # survived thanks to the hit
        assert not cache.lookup(points[1])[0]

    def test_negative_limits_are_refused(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        with pytest.raises(ValueError, match="max_entries"):
            cache.prune(max_entries=-1)
        with pytest.raises(ValueError, match="max_bytes"):
            cache.prune(max_bytes=-1)
        assert len(cache.entries()) == 4

    def test_prune_by_bytes(self, tmp_path):
        cache, _ = self._filled(tmp_path)
        # Entry sizes differ by a byte or two (the "saved_at" float's
        # JSON width varies), so budget exactly the two newest entries
        # rather than assuming uniform sizes.
        by_age = sorted(cache.entries(), key=lambda entry: entry["mtime"])
        budget = sum(entry["size_bytes"] for entry in by_age[2:])
        removed = cache.prune(max_bytes=budget)
        assert removed == 2
        assert len(cache.entries()) == 2


class TestRunSweepIntegration:
    def _points(self, n=4):
        return [
            SweepPoint(index=i, label=f"x={i}", fn=point_fn, kwargs={"x": i, "seed": i})
            for i in range(n)
        ]

    def test_warm_run_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(self._points(), cache=cache, name="t")
        executed_cold = len(CALLS)
        warm = run_sweep(self._points(), cache=cache, name="t")
        assert warm == cold
        assert len(CALLS) == executed_cold  # nothing re-executed
        assert cache.stats.hits == 4

    def test_mixed_run_merges_in_point_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(2), cache=cache, name="t")
        # Two cached points plus two fresh ones, interleaved by index.
        mixed = run_sweep(self._points(4), cache=cache, name="t")
        assert [row["x"] for row in mixed] == [0, 1, 2, 3]
        uncached = run_sweep(self._points(4), cache=False)
        assert json.dumps(mixed, sort_keys=True) == json.dumps(uncached, sort_keys=True)

    def test_cache_false_disables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(), cache=cache, name="t")
        before = len(CALLS)
        run_sweep(self._points(), cache=False)
        assert len(CALLS) == before + 4

    def test_journal_logs_runs_and_point_timings(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_points = self._points(3)
        run_sweep(sweep_points, cache=cache, name="alpha")
        run_sweep(sweep_points, cache=cache, name="alpha")
        journal = cache.read_journal()
        assert [record["sweep"] for record in journal] == ["alpha", "alpha"]
        assert journal[0]["misses"] == 3 and journal[0]["hits"] == 0
        assert journal[1]["hits"] == 3 and journal[1]["misses"] == 0
        assert journal[1]["seconds_saved"] >= 0.0
        # Each computed point's timing is its entry file; the hits of
        # the second sweep add none.
        points = cache.point_records()
        assert sorted(record["label"] for record in points) == ["x=0", "x=1", "x=2"]
        assert all(record["elapsed_s"] >= 0.0 for record in points)

    def test_one_journal_line_per_call(self, tmp_path):
        specs = [
            ExperimentSpec("alpha", "tests.harness.fake_experiments", {"n": 3}),
            ExperimentSpec("beta", "tests.harness.fake_experiments_beta", {}),
        ]
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(specs, jobs=1, cache=cache)
        warm = run_suite(specs, jobs=1, cache=cache)
        run_sweep(self._points(2), cache=cache, name="one")
        journal = cache.read_journal()
        assert [record["sweep"] for record in journal] == ["suite", "suite", "one"]
        assert [(record["misses"], record["hits"]) for record in journal] == [
            (cold.points_total, 0), (0, warm.points_total), (2, 0)
        ]
        lines = (cache.root / "journal.jsonl").read_bytes().splitlines()
        assert len(lines) == 3

    def test_point_records_are_the_entry_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._points(3), cache=cache, name="t")
        fields = ("fn", "label", "kwargs", "code_fingerprint", "elapsed_s")
        stored = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(cache.root.glob("*.json"))
        ]
        assert len(stored) == 3
        assert [tuple(record[f] for f in fields) for record in cache.point_records()] == [
            tuple(entry[f] for f in fields) for entry in stored
        ]

    def test_sweep_run_accepts_cache(self, tmp_path):
        sweep = Sweep("mini")
        for x in (1, 2):
            sweep.point(point_fn, label=f"x={x}", x=x, seed=sweep.seed_for(f"x={x}"))
        first = sweep.run(cache=ResultCache(tmp_path / "cache"))
        second = sweep.run(cache=ResultCache(tmp_path / "cache"))
        assert first == second
        assert CALLS.count(("point_fn", 1, sweep.seed_for("x=1"))) == 1

    def test_env_toggle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache(None) is not None
        run_sweep(self._points(2), name="env")
        before = len(CALLS)
        run_sweep(self._points(2), name="env")
        assert len(CALLS) == before
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache(None) is None


class TestCacheStats:
    def test_delta_since(self):
        stats = CacheStats()
        before = stats.snapshot()
        stats.hits += 3
        stats.seconds_saved += 1.5
        delta = stats.delta_since(before)
        assert delta["hits"] == 3
        assert delta["seconds_saved"] == pytest.approx(1.5)
        assert delta["misses"] == 0
