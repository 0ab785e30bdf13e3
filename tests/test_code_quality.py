"""Repository hygiene gates: no unused imports, no stray debug markers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Names that legitimately appear "unused" to a syntactic scan.
ALLOWED_UNUSED = {"annotations"}


def iter_source_files():
    return sorted(SRC.rglob("*.py"))


def unused_imports(tree: ast.AST) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries and docstring refs
    return imported - used - ALLOWED_UNUSED


def test_no_unused_imports():
    offenders = {}
    for path in iter_source_files():
        unused = unused_imports(ast.parse(path.read_text()))
        if unused:
            offenders[str(path.relative_to(SRC))] = sorted(unused)
    assert offenders == {}


def test_no_debug_markers():
    markers = ("FIXME", "XXX:", "breakpoint(", "pdb.set_trace")
    offenders = []
    for path in iter_source_files():
        text = path.read_text()
        for marker in markers:
            if marker in text:
                offenders.append(f"{path.name}: {marker}")
    assert offenders == []


def test_every_module_has_a_docstring():
    missing = []
    for path in iter_source_files():
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(SRC)))
    assert missing == []


#: The experiment modules share one documented protocol (their package
#: docstring): ``run`` builds the structured result, ``check_shape``
#: verifies the paper's claims, ``report`` renders, and small result
#: dataclasses carry the rows.  Exempt that protocol from the per-item
#: docstring requirement.
EXPERIMENT_PROTOCOL = {"run", "check_shape", "report"}


def test_every_public_function_and_class_documented():
    undocumented = []
    for path in iter_source_files():
        in_experiments = "experiments" in path.parts
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                if in_experiments and (
                    node.name in EXPERIMENT_PROTOCOL
                    or isinstance(node, ast.ClassDef)
                ):
                    continue
                if not ast.get_docstring(node):
                    undocumented.append(f"{path.name}:{node.name}")
    assert undocumented == []
