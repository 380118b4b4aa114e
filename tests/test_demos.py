"""API drift guard: every ucfem name the demos and the README import exists.

The demos and the README's Python blocks are parsed, not run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.DOTALL)):
        yield f"README.md[{k}]", block


SOURCES = dict(_sources())


def _ucfem_imports(source):
    """(module, name) for each ucfem import; name is None for plain imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "ucfem":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ucfem":
                    yield alias.name, None


def test_readme_and_demos_are_found():
    assert sum(name.endswith(".py") for name in SOURCES) >= 6
    assert sum(name.startswith("README") for name in SOURCES) >= 2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_ucfem_imports_resolve(name):
    imports = list(_ucfem_imports(SOURCES[name]))
    assert imports, f"{name} imports nothing from ucfem"
    for module, attr in imports:
        mod = importlib.import_module(module)
        if attr is not None:
            assert hasattr(mod, attr), f"{name}: {module} has no {attr}"
