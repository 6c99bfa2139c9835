"""Import layering of the package: each module imports only from layers
below its own, so the layers of one row never import each other."""

import ast
from pathlib import Path

import macgeo

LAYERS = {
    "errors": 0, "spatial": 0,
    "propagation": 1,
    "reception": 2, "aloha": 2, "multihop": 2, "asymptotics": 2,
    "cli": 3, "__init__": 3,
}


def relative_imports(path):
    """Modules of the package named by ``from .x import`` and
    ``from . import x`` anywhere in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_modules_import_only_lower_layers():
    files = sorted(Path(macgeo.__file__).parent.glob("*.py"))
    assert {f.stem for f in files} == set(LAYERS)
    bad = [(f.stem, dep) for f in files for dep in sorted(relative_imports(f))
           if LAYERS[dep] >= LAYERS[f.stem]]
    assert bad == []
