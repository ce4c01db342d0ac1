"""The public surface: every exported name resolves, the entry point runs,
and every function in the package has a caller in the package or the demos."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import secnc

ROOT = Path(__file__).resolve().parent.parent

# Private names a module imports from another on purpose: (module, name).
PRIVATE_IMPORTS_ON_PURPOSE = {
    ("audit", "_read_lifted"):
        "the lifted reader the decoder and its consistency oracle share",
}

# Functions kept without a caller in src/secnc or demos/.
UNCALLED_ON_PURPOSE = {
    "error": "argparse calls the parser's error hook",
    "div": "field protocol: every field divides",
    "elements": "field protocol: every field lists its elements",
    "write_packets": "fileio writer, the pair of read_packets",
    "write_matrix": "fileio writer, the pair of read_matrix",
    "pow": "field protocol: every field raises to powers",
    "kernel_vector": "reads a caller's matrix for kernel_vector_of_rows, whose "
                     "one caller, the decoder, hands on rows it built",
}


def test_every_exported_name_resolves():
    missing = [name for name in secnc.__all__ if not hasattr(secnc, name)]
    assert not missing
    assert len(set(secnc.__all__)) == len(secnc.__all__)


def test_module_help_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "secnc", "--help"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: secnc" in proc.stdout


def test_every_function_has_a_caller():
    # exporting a name is not a use: neither __all__ nor the re-export
    # imports of __init__.py count.  Neither does a use inside a function
    # of the same name, its own recursion; and a method is used only as an
    # attribute, so a builtin of its name (pow, say) is not its caller
    sources = sorted((ROOT / "src" / "secnc").glob("*.py"))
    init = ROOT / "src" / "secnc" / "__init__.py"
    functions, methods, used, attributes = set(), set(), set(), set()

    def walk(node, path, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path in sources:
                    kind = methods if isinstance(node, ast.ClassDef) else functions
                    kind.add(child.name)
                walk(child, path, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name) and child.id not in enclosing:
                used.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                used.add(child.attr)
                attributes.add(child.attr)
            elif isinstance(child, ast.alias) and path != init:
                used.add(child.asname or child.name.rsplit(".", 1)[-1])
            walk(child, path, enclosing)

    for path in sources + sorted((ROOT / "demos").glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, frozenset())
    uncalled = {name for name in (functions - used) | (methods - attributes)
                if not (name.startswith("__") and name.endswith("__"))}
    assert uncalled == set(UNCALLED_ON_PURPOSE)


def test_no_unused_imports():
    # an import that no Name reads is dead weight; __init__.py re-exports
    # are its purpose, so it is not scanned
    unused = []
    for path in sorted((ROOT / "src" / "secnc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused


def test_no_private_name_is_imported_across_modules():
    # a private name is its module's own decision: another module that
    # imports one (`from .x import _name`) reads a caller's value, say,
    # by a second policy of its own
    found = set()
    for path in sorted((ROOT / "src" / "secnc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == set(PRIVATE_IMPORTS_ON_PURPOSE)
