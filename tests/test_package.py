"""The package keeps only what the system runs or documents.

Every public top-level function of ``src/qisflow`` must be used by another
part of the system (a package module other than ``__init__``, or the code
under ``perfbench/`` or ``benchmarks/``, their tests excluded) or be named
in the README as one of the paper's constructions.  Generators and checks
that only tests call belong in ``tests/oracles.py``.  A run reads only its
argv and its problem file: no module reads the environment.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qisflow"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_functions():
    """(module, name) of each public function defined at a module's top level."""
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def referenced_names():
    """Every name, attribute and imported name that the system's code uses."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for top in ("perfbench", "benchmarks"):
        paths += [p for p in (ROOT / top).rglob("*.py")
                  if "tests" not in p.relative_to(ROOT).parts]
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_is_used_or_documented():
    functions, used = public_functions(), referenced_names()
    assert ("integrate", "integrate_matrix") in functions and "integrate_matrix" in used
    readme = (ROOT / "README.md").read_text()
    unused = [
        f"{module}.{name}"
        for module, name in functions
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert not unused, f"public, but neither used by the system nor named in README.md: {unused}"


def test_no_module_reads_the_environment():
    """No ``os.environ`` or ``os.getenv``, by any spelling of the import."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in ("environ", "getenv") for alias in node.names))
    ]
    assert not reads, f"modules that read the environment: {reads}"
