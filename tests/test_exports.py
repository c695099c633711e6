"""The package's public names: everything in __all__ is bound, and a star
import binds exactly __all__."""

import ast
import sys
from pathlib import Path

import tinytsfm


def test_every_exported_name_is_a_package_attribute():
    assert len(set(tinytsfm.__all__)) == len(tinytsfm.__all__)
    assert [name for name in tinytsfm.__all__ if not hasattr(tinytsfm, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tinytsfm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tinytsfm.__all__)


def test_package_imports_only_the_standard_library_and_numpy():
    # the package is NumPy-only: every absolute import in src/tinytsfm names
    # a standard-library module, numpy or the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "tinytsfm"}
    package = Path(tinytsfm.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in roots
                        if name.split(".")[0] not in allowed]
    assert len(list(package.glob("*.py"))) > 10
    assert outside == []
