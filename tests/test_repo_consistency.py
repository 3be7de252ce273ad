"""Repository hygiene: the documentation's claims about files must hold.

DESIGN.md's experiment index and extensions table name modules and
benchmark targets; EXPERIMENTS.md names regeneration commands; README,
``docs/`` and docstrings name benchmarks and results files.  These tests
keep docs and code from drifting apart.
"""

import ast
import glob
import os
import re

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(ROOT, name)) as fh:
        return fh.read()


class TestTopLevelPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exports_work(self):
        from repro import Domain, Runtime, RuntimeConfig, task

        rt = Runtime(RuntimeConfig())
        assert Domain.range(3).volume == 3
        assert callable(task)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


def prose_texts():
    """The top-level documents, ``docs/*.md`` and every docstring in
    ``src/``: everything that tells a reader where a number comes from."""
    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
        os.path.relpath(p, ROOT)
        for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
    )
    for name in names:
        yield name, read(name)
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        nodes = [tree] + [
            node for node in ast.walk(tree) if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        docs = [ast.get_docstring(node) or "" for node in nodes]
        yield os.path.relpath(path, ROOT), "\n".join(docs)


def named_repo_paths(text):
    """``benchmarks/…`` and ``results/…`` paths as globs; a brace list
    (``fig8.{txt,csv}``) becomes ``*``."""
    for match in re.findall(r"\b(?:benchmarks|results)/[\w*.{-]*", text):
        head, brace, _ = match.partition("{")
        yield head + "*" if brace else head.rstrip(".")


def repro_classes():
    """Every class defined under ``src/repro``, by name, as AST nodes (a
    name two modules define maps to both)."""
    classes = {}
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                          recursive=True):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
    return classes


def own_attributes(node):
    """What a class body defines: methods, nested classes, class
    attributes, dataclass fields, ``__slots__`` entries, and every
    ``self.attr =`` assignment in its methods."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = {
                sub.id
                for target in (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                for sub in ast.walk(target) if isinstance(sub, ast.Name)
            }
            names |= targets
            if "__slots__" in targets:
                names |= {
                    c.value for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            names.add(sub.attr)
    return names


def class_attributes(classes, name, seen=()):
    """``own_attributes`` of the class ``name`` and of its ``repro`` bases,
    plus what every object has."""
    names = set(dir(object))
    for node in classes.get(name, ()):
        names |= own_attributes(node)
        for base in node.bases:
            base = getattr(base, "id", None) or getattr(base, "attr", None)
            if base in classes and base not in seen:
                names |= class_attributes(classes, base, seen + (name,))
    return names


#: a backticked ``Class.attr`` (or ``Class.attr()``), optionally prefixed
#: by ``~module.``: the class name and the attribute.
_SYMBOL = re.compile(r"`~?(?:[a-z_]\w*\.)*([A-Z_]\w*)\.(\w+)(?:\(\))?`")


class TestSymbolNames:
    def test_prose_names_existing_attributes(self):
        """A backticked ``Class.attr`` naming a ``repro`` class must name
        something the class has, so prose cannot keep quoting a method or
        counter after the code dropped it."""
        classes = repro_classes()
        attributes = {}
        unresolved = []
        for name, text in prose_texts():
            for cls, attr in _SYMBOL.findall(text):
                if cls not in classes:
                    continue
                if cls not in attributes:
                    attributes[cls] = class_attributes(classes, cls)
                if attr not in attributes[cls]:
                    unresolved.append((name, f"{cls}.{attr}"))
        assert unresolved == []


class TestDesignDocument:
    def test_design_names_existing_benchmarks(self):
        """Prose may point at a benchmark or a results file only if it
        exists, so a deleted writer or snapshot cannot stay quoted."""
        missing = [
            (name, path)
            for name, text in prose_texts()
            for path in named_repo_paths(text)
            if not glob.glob(os.path.join(ROOT, path))
        ]
        assert missing == []

    def test_design_names_existing_tests(self):
        text = read("DESIGN.md")
        for match in re.findall(r"tests/[\w/]+\.py", text):
            assert os.path.exists(os.path.join(ROOT, match)), match

    def test_design_names_existing_modules(self):
        text = read("DESIGN.md")
        for match in re.findall(r"`([a-z]+/[a-z_]+\.py)`", text):
            if match.split("/")[0] in ("benchmarks", "tests", "examples"):
                path = os.path.join(ROOT, match)
            else:
                path = os.path.join(ROOT, "src", "repro", match)
            assert os.path.exists(path), match

    def test_every_figure_and_table_has_a_benchmark(self):
        expected = [
            "benchmarks/test_fig1_patterns.py",
            "benchmarks/test_fig2_fig3_pipeline.py",
            "benchmarks/test_fig4_circuit_strong.py",
            "benchmarks/test_fig5_circuit_weak.py",
            "benchmarks/test_fig6_circuit_weak_overdecomposed.py",
            "benchmarks/test_fig7_stencil_strong.py",
            "benchmarks/test_fig8_stencil_weak.py",
            "benchmarks/test_fig9_soleil_fluid_weak.py",
            "benchmarks/test_fig10_soleil_full_weak.py",
            "benchmarks/test_table2_selfcheck.py",
            "benchmarks/test_table3_crosscheck.py",
        ]
        for path in expected:
            assert os.path.exists(os.path.join(ROOT, path)), path


class TestReadme:
    def test_readme_examples_exist(self):
        text = read("README.md")
        for match in re.findall(r"examples/\w+\.py", text):
            assert os.path.exists(os.path.join(ROOT, match)), match

    def test_readme_docs_exist(self):
        for name in ("docs/architecture.md", "docs/cost-model.md",
                     "docs/mini-regent.md", "docs/observability.md"):
            assert os.path.exists(os.path.join(ROOT, name)), name

    def test_quickstart_snippet_runs(self):
        """The README's first code block must actually work."""
        import numpy as np

        from repro.core.projection import ModularFunctor
        from repro.data.partition import equal_partition
        from repro.runtime import Runtime, RuntimeConfig, task

        @task(privileges=["reads", "writes"])
        def scale(ctx, src, dst, alpha):
            dst.write("v", alpha * src.read("v"))

        rt = Runtime(RuntimeConfig(n_nodes=4, dcr=True, index_launches=True))
        src = rt.create_region("src", 64, {"v": "f8"})
        dst = rt.create_region("dst", 64, {"v": "f8"})
        src.storage("v")[:] = np.arange(64.0)
        p_src = equal_partition("p_src_rm", src, 8)
        p_dst = equal_partition("p_dst_rm", dst, 8)
        rt.index_launch(scale, 8, p_src, p_dst, args=(2.0,))
        rt.index_launch(scale, 8, p_src, (p_dst, ModularFunctor(8, 3)),
                        args=(1.0,))
        assert rt.stats.launches_verified_static == 1
        assert rt.stats.launches_verified_dynamic == 1


class TestExamplesImportable:
    @pytest.mark.parametrize("name", [
        "quickstart", "circuit_simulation", "stencil_heat", "dom_sweep",
        "compiler_demo", "scaling_study", "taskgraph_inspect",
    ])
    def test_example_compiles(self, name):
        import py_compile

        path = os.path.join(ROOT, "examples", f"{name}.py")
        py_compile.compile(path, doraise=True)


class TestFunctionLengthRatchet:
    """ROADMAP 5(a): no function in ``exec/`` or ``runtime/`` over 80
    lines.  Each allow-list holds what still is; it may lose names, never
    gain them."""

    LIMIT = 80

    def too_long(self, package):
        import ast
        import glob

        names = set()
        for path in glob.glob(os.path.join(ROOT, "src/repro", package, "*.py")):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.end_lineno - node.lineno + 1 > self.LIMIT:
                        names.add(node.name)
        return names

    def test_exec_functions_stay_short(self):
        allowed = set()
        too_long = self.too_long("exec")
        assert too_long <= allowed, too_long - allowed

    def test_runtime_functions_stay_short(self):
        allowed = {"replay_tasks"}
        too_long = self.too_long("runtime")
        assert too_long <= allowed, too_long - allowed


class TestFrameReads:
    def test_raw_stream_reads_only_in_wire(self):
        """Framed streams are read one way, ``wire.FrameDecoder``'s: into
        storage that already exists, never by a call that allocates its
        whole request (a megabyte per read cost 12.5 us a frame)."""
        raw = re.compile(r"os\.read\(|\.recv\(|recv_into\(|readv\(")
        calls = []
        pattern = os.path.join(ROOT, "src", "repro", "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            name = os.path.relpath(path, ROOT)
            if name == os.path.join("src", "repro", "exec", "wire.py"):
                continue
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    if raw.search(line):
                        calls.append(f"{name}:{lineno}")
        assert calls == []


class TestFunctorIdentity:
    def test_no_cache_keys_on_functor_text(self):
        """Caches key a functor on its ``key``; ``describe()`` is only
        text, and the layers that cache never call it."""
        calls = []
        for package in ("runtime", "exec", "serve"):
            pattern = os.path.join(ROOT, "src", "repro", package, "*.py")
            for path in sorted(glob.glob(pattern)):
                with open(path) as fh:
                    for lineno, line in enumerate(fh, 1):
                        if re.search(r"functor\.describe\(", line):
                            calls.append(f"{os.path.relpath(path, ROOT)}:{lineno}")
        assert calls == []
