"""Repository hygiene: the bugfix-sweep regressions, pinned.

Four classes of rot stay out:

* **Tracked bytecode** — 84 ``__pycache__/*.pyc`` files were committed
  alongside the sources; interpreter-specific, diff-noisy, and a stale
  copy shadows nothing but confuses everything.  ``git ls-files`` is the
  oracle (the CI lint job runs the same check shell-side).
* **Example lifecycle** — every example that opens a ``Session`` must
  scope it in a ``with`` block; ``segmented_portfolio.py`` used to leak
  its worker pool (and, with the shm data plane, would now leak
  ``/dev/shm`` segments) on any exception before ``close()``.
* **Process + segment leaks in practice** — an example run as a real
  subprocess exits cleanly, leaves no ``mcdbr-*`` segment behind, and no
  orphaned worker process scavenging CPU after the parent is gone.
* **Dead names** — a stdlib-``ast`` stand-in for pyflakes' unused-import
  (F401), undefined-``__all__`` (F822), unused-local (F841) and
  undefined-name (F821) rules over ``src/`` and ``tests/``, so "lint
  clean" is a tier-1 fact even where ``ruff`` is not installed.
  Deletions leave imports, locals and references behind; this catches
  them.
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.shm import leaked_segments

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def _git_ls_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git not available")
    if proc.returncode != 0:
        pytest.skip("not a git checkout (sdist/installed tree)")
    return proc.stdout.splitlines()


class TestNoTrackedBytecode:

    def test_no_pyc_or_pycache_in_the_index(self):
        offenders = [path for path in _git_ls_files()
                     if path.endswith(".pyc") or "__pycache__" in path]
        assert offenders == [], (
            "compiled bytecode is tracked; `git rm --cached` it "
            f"(.gitignore already covers it): {offenders[:10]}")

    def test_gitignore_covers_the_usual_suspects(self):
        with open(os.path.join(REPO_ROOT, ".gitignore")) as handle:
            ignored = handle.read()
        for pattern in ("__pycache__/", "*.pyc", "BENCH_*.json"):
            assert pattern in ignored


class TestExampleLifecycle:

    def _sources(self):
        for name in sorted(os.listdir(EXAMPLES_DIR)):
            if name.endswith(".py"):
                with open(os.path.join(EXAMPLES_DIR, name)) as handle:
                    yield name, handle.read()

    def test_every_session_example_uses_a_with_block(self):
        """Textual guard: any example that opens a session scopes it.
        (That the ``with`` actually reaps workers and segments is the
        subprocess test below; this one keeps a future example from
        reintroducing the bare-``Session()`` leak pattern.)"""
        offenders = []
        for name, source in self._sources():
            opens_session = "Session(" in source or \
                ".build_session(" in source
            if opens_session and "with " not in source:
                offenders.append(name)
        assert offenders == []
        # The sweep's poster child really is covered, not vacuously.
        assert any("with" in source and "Session" in source
                   for name, source in self._sources()
                   if name == "segmented_portfolio.py")

    @pytest.mark.slow
    def test_example_subprocess_leaves_no_workers_or_segments(self):
        """Run the once-leaky example for real under the process backend:
        clean exit, empty ``/dev/shm``, no orphaned worker processes."""
        script = os.path.join(EXAMPLES_DIR, "segmented_portfolio.py")
        env = dict(os.environ,
                   MCDBR_BACKEND="process", MCDBR_N_JOBS="2",
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, script], env=env, capture_output=True,
            text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert leaked_segments() == [], (
            "the example's Session left shared-memory segments behind")
        orphans = _processes_running(script)
        assert orphans == [], (
            f"worker processes outlived the example: {orphans}")


def _processes_running(script: str) -> list[int]:
    """PIDs (not ours) whose cmdline mentions ``script`` — /proc scan,
    no psutil dependency."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue  # raced an exit, or not ours to read
        if script in cmdline:
            found.append(int(entry))
    return found


def _annotation_names(node) -> set[str]:
    """Names inside a quoted annotation (``"Span | None"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {sub.id for sub in ast.walk(ast.parse(node.value,
                                                         mode="eval"))
                    if isinstance(sub, ast.Name)}
        except SyntaxError:
            return set()
    return set()


#: Names every module may read without binding them.
_IMPLICIT_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__spec__", "__loader__",
    "__package__", "__path__", "__builtins__", "__class__"}
#: Nodes that open a new scope: a function's locals stop at them.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _noqa(lines, node) -> bool:
    return any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def _own_scope(function):
    """The nodes of ``function``'s body, not descending into nested
    function, lambda or class scopes."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(function, lines) -> list[tuple[str, int]]:
    """``(name, line)`` of every plain ``name = ...`` (or ``except ... as
    name``) in ``function`` whose name is never read in it or in the
    scopes it encloses.  Tuple targets, ``_``, ``global``/``nonlocal``
    names and ``# noqa`` lines are exempt."""
    reads = {node.id for node in ast.walk(function)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    if "locals" in reads:
        return []
    declared, assigned = set(), {}
    for node in _own_scope(function):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.setdefault(node.name, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                getattr(node, "value", None) is not None:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, node)
    return [(name, node.lineno) for name, node in assigned.items()
            if name != "_" and name not in reads | declared
            and not _noqa(lines, node)]


def _bound_names(tree) -> set[str]:
    """Every name some scope of the module binds."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs,
                               ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


def lint(path) -> list[str]:
    """``path:line: message`` for every unused import, every ``__all__``
    entry that names nothing in the module, every unused local and
    every undefined name.

    An import counts as used when its bound name is read anywhere in the
    module (quoted annotations included), listed in ``__all__``, or the
    file is a package ``__init__`` (imports there are re-exports).  A
    ``# noqa`` on any line of the statement silences an import or a
    local.  A name is undefined when it is read (quoted annotations
    included) but no scope of the module binds it and it is not a
    builtin; a star import turns that rule off.
    """
    path = Path(path)
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used: set[str] = set()
    read: list[tuple[str, int]] = []
    defined: set[str] = set()
    exported: list[tuple[str, int]] = []
    imports: list[tuple[str, int, ast.stmt]] = []
    locals_unused: list[tuple[str, int]] = []
    star_import = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
            if isinstance(node.ctx, ast.Load):
                read.append((node.id, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotated = [arg.annotation for arg in
                         node.args.args + node.args.kwonlyargs
                         + node.args.posonlyargs] + [node.returns]
            for annotation in annotated:
                names = _annotation_names(annotation)
                used |= names
                read += [(name, annotation.lineno) for name in names]
            locals_unused += _unused_locals(node, lines)
        elif isinstance(node, ast.AnnAssign):
            names = _annotation_names(node.annotation)
            used |= names
            read += [(name, node.lineno) for name in names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    star_import = True
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imports.append((bound, node.lineno, node))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                defined |= {sub.id for sub in ast.walk(target)
                            if isinstance(sub, ast.Name)}
            if any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets) and isinstance(
                       node.value, (ast.List, ast.Tuple)):
                exported = [(element.value, element.lineno)
                            for element in node.value.elts
                            if isinstance(element, ast.Constant)]
    problems = []
    names = {name for name, _ in exported}
    reexports = path.name == "__init__.py"
    for bound, lineno, node in imports:
        defined.add(bound)
        statement = lines[node.lineno - 1:node.end_lineno]
        if bound in used or bound in names or reexports or \
                any("# noqa" in line for line in statement):
            continue
        problems.append(f"{path}:{lineno}: {bound!r} imported but unused")
    for name, lineno in exported:
        if name not in defined:
            problems.append(
                f"{path}:{lineno}: __all__ names undefined {name!r}")
    for name, lineno in sorted(locals_unused, key=lambda item: item[1]):
        problems.append(f"{path}:{lineno}: local variable {name!r} is "
                        "assigned to but never used")
    if not star_import:
        bound = _bound_names(tree) | _IMPLICIT_NAMES
        reported = set()
        for name, lineno in sorted(read, key=lambda item: item[1]):
            if name not in bound and name not in reported:
                reported.add(name)
                problems.append(f"{path}:{lineno}: undefined name {name!r}")
    return problems


class TestImportLint:

    def test_src_and_tests_have_no_dead_imports(self):
        problems = []
        for tree in ("src", "tests"):
            for path in sorted(Path(REPO_ROOT, tree).rglob("*.py")):
                problems += lint(path)
        assert problems == []

    def test_lint_catches_planted_problems(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "from __future__ import annotations\n"
            "import os\n"
            "import json  # noqa: F401\n"
            "import os.path as osp\n"
            "from typing import (\n"
            "    Mapping, Sequence)\n"
            "from collections import OrderedDict\n"
            "__all__ = ['OrderedDict', 'ghost', 'helper']\n"
            "def helper(x: 'Sequence[int]') -> int:\n"
            "    return len(x)\n")
        problems = lint(planted)
        messages = sorted(problem.split(": ", 1)[1] for problem in problems)
        assert messages == [
            "'Mapping' imported but unused",
            "'os' imported but unused",
            "'osp' imported but unused",
            "__all__ names undefined 'ghost'",
        ]

    @pytest.mark.parametrize("source, expected", [
        ("import os\n", ["'os' imported but unused"]),
        ("from os import path\n", ["'path' imported but unused"]),
        ("import os.path as osp\n", ["'osp' imported but unused"]),
        ("import os.path\n", ["'os' imported but unused"]),
        ("def f():\n    import os\n", ["'os' imported but unused"]),
        ("import os\nos.getcwd()\n", []),
        ("import os.path\nos.path.join('a')\n", []),
        ("from os import path\n__all__ = ['path']\n", []),
        ("import json  # noqa: F401\n", []),
        ("from typing import (\n    Mapping)  # noqa\n", []),
        ("from typing import Mapping\ndef f(x: 'Mapping'): pass\n", []),
        ("from typing import Mapping\ndef f() -> 'Mapping': pass\n", []),
        ("from typing import Mapping\nx: 'Mapping' = {}\n", []),
        ("import functools\n@functools.cache\ndef f(): pass\n", []),
        ("from __future__ import annotations\n", []),
        ("from os import *\n", []),
        ("__all__ = ['ghost']\n", ["__all__ names undefined 'ghost'"]),
        ("def f(): pass\nclass C: pass\nX = 1\n"
         "__all__ = ['f', 'C', 'X']\n", []),
        ("def f():\n    x = 1\n",
         ["local variable 'x' is assigned to but never used"]),
        ("def f():\n    x: int = 1\n",
         ["local variable 'x' is assigned to but never used"]),
        ("def f():\n    try:\n        pass\n"
         "    except ValueError as exc:\n        pass\n",
         ["local variable 'exc' is assigned to but never used"]),
        ("def f():\n    x = 1\n    return x\n", []),
        ("def f():\n    _ = 1\n", []),
        ("def f():\n    a, b = 1, 2\n", []),
        ("def f():\n    x = 1  # noqa: F841\n", []),
        ("def f():\n    x = 1\n    def g():\n        return x\n"
         "    return g\n", []),
        ("def f():\n    global X\n    X = 1\n", []),
        ("def f():\n    x = 1\n    return locals()\n", []),
        ("x = 1\n", []),
        ("class C:\n    x = 1\n", []),
        ("print(ghost)\n", ["undefined name 'ghost'"]),
        ("def f():\n    return ghost + ghost\n",
         ["undefined name 'ghost'"]),
        ("def f(x: 'Ghost'): pass\n", ["undefined name 'Ghost'"]),
        ("def f():\n    return later\nlater = 1\n", []),
        ("def f(*args, **kwargs):\n    return args, kwargs\n", []),
        ("print([y for y in range(3)], len, __file__)\n", []),
        ("import os.path\nos.getcwd()\n", []),
        ("try:\n    pass\nexcept ValueError as exc:\n    print(exc)\n", []),
        ("from os import *\nprint(getcwd())\n", []),
    ], ids=[
        "unused-import", "unused-from-import", "unused-alias",
        "unused-dotted", "unused-in-function", "used", "used-dotted",
        "reexported-via-all", "noqa", "noqa-on-continuation",
        "quoted-argument-annotation", "quoted-return-annotation",
        "quoted-variable-annotation", "decorator", "future", "star",
        "all-names-nothing", "all-names-definitions",
        "unused-local", "unused-annotated-local", "unused-except-name",
        "local-read", "local-underscore", "local-tuple-unpacking",
        "local-noqa", "local-read-in-closure", "local-global",
        "local-locals-call", "module-assignment", "class-attribute",
        "undefined-name", "undefined-reported-once",
        "undefined-in-quoted-annotation", "bound-later-in-module",
        "bound-as-parameters", "builtins-and-comprehension",
        "bound-by-dotted-import", "bound-by-except",
        "star-import-disables-undefined",
    ])
    def test_lint_rule(self, tmp_path, source, expected):
        planted = tmp_path / "planted.py"
        planted.write_text(source)
        assert [problem.split(": ", 1)[1]
                for problem in lint(planted)] == expected

    def test_package_init_imports_are_reexports(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        init = package / "__init__.py"
        init.write_text("from os import path\n__all__ = ['nothing']\n")
        assert [problem.split(": ", 1)[1]
                for problem in lint(init)] == [
            "__all__ names undefined 'nothing'"]
