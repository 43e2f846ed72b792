"""The package's import graph, read from the source with Python's ``ast``,
and what a fresh interpreter loads.

``ast``, ``grammar``, ``seeding`` and ``prompts`` are leaves that import no
other gridlang module, the module-level graph has no cycle, and the only
gridlang modules imported inside a function are the two in the
``ast.canon_*`` wrappers, which reach ``codec``.  Standard-library modules
may be imported inside a function: ``harness`` loads the HTTP transport,
the thread pool and ``logging`` on the first real-endpoint request, so
importing the command line loads none of them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gridlang

SOURCE = Path(gridlang.__file__).parent
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def _imported(node: ast.AST) -> list[str]:
    """The gridlang modules one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("gridlang.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    assert node.level == 0, "gridlang uses absolute imports only"
    if node.module == "gridlang":
        return [alias.name for alias in node.names if alias.name in MODULES]
    if node.module and node.module.startswith("gridlang."):
        return [node.module.split(".")[1]]
    return []


def _imports(module: str) -> tuple[set[str], list[tuple[str, str]]]:
    """A module's gridlang imports at module level, and (function, module)
    for each made inside a function."""
    top: set[str] = set()
    inner: list[tuple[str, str]] = []

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, function or child.name)
                continue
            for name in _imported(child):
                if function is None:
                    top.add(name)
                else:
                    inner.append((function, name))
            walk(child, function)

    walk(ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8")),
         None)
    return top, inner


GRAPH = {module: _imports(module) for module in MODULES}


def test_every_module_is_read():
    assert {"ast", "grammar", "codec", "cli", "tasks"} <= set(MODULES)


def test_leaf_modules_import_no_gridlang_module():
    for module in ("ast", "grammar", "seeding", "prompts"):
        assert GRAPH[module][0] == set(), module


def test_only_the_canonical_wrappers_import_inside_a_function():
    inner = sorted((module, function, name)
                   for module, (_top, found) in GRAPH.items()
                   for function, name in found)
    assert inner == [("ast", "canon_parse", "codec"),
                     ("ast", "canon_serialize", "codec")]


def test_module_level_graph_has_no_cycle():
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join(path + (module,))
        if module in done:
            return
        for name in sorted(GRAPH[module][0]):
            visit(name, path + (module,))
        done.add(module)

    for module in MODULES:
        visit(module, ())


def test_the_command_line_loads_no_transport():
    # -S: no site hook (a .pth file) may load a module before gridlang
    # does; what start-up loaded all the same is set apart
    code = ("import json, sys; before = sorted(sys.modules); "
            "import gridlang.cli; "
            "print(json.dumps([before, sorted(sys.modules)]))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    before, after = map(set, json.loads(done.stdout))
    loaded = after - before
    assert "gridlang.harness" in loaded
    # no third-party HTTP package, and nothing that only a request to a
    # real endpoint loads
    forbidden = ("requests", "urllib3", "certifi", "idna",
                 "charset_normalizer", "http.client", "urllib.request",
                 "ssl", "email", "concurrent.futures", "logging")
    assert [name for name in forbidden if name in loaded] == []
    # argparse's first message lookup imports it in every command
    assert "locale" in after
