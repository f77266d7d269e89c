"""The package as a whole: its documented top-level API and its dependency rule."""

import ast
import inspect
import re
import sys
from pathlib import Path

import dimerdecay

ROOT = Path(__file__).parents[1]
PACKAGE_DIR = ROOT / "src" / "dimerdecay"

# the "Library use" section of the README, up to the next heading
LIBRARY_USE = re.search(
    r"^## Library use\n(.*?)^## ", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M
).group(1)


def test_readme_library_example_runs(capsys):
    example = re.search(r"```python\n(.*?)```", LIBRARY_USE, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 6
    assert all(float(word) >= 0.0 for word in printed)


def test_top_level_names_are_the_documented_ones():
    exported = {
        name
        for name, obj in vars(dimerdecay).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    documented = set(re.findall(r"\b[A-Za-z_]\w*\b", LIBRARY_USE))
    assert exported <= documented, exported - documented


def foreign_imports(source):
    """Top-level modules imported by `source` that are neither stdlib, numpy nor this package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"numpy", "dimerdecay"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_foreign_imports_flags_undeclared_dependencies():
    source = "import math\nimport scipy.optimize\nfrom mpmath import mp\nfrom .units import _fmt\nimport numpy as np\n"
    assert foreign_imports(source) == ["scipy.optimize", "mpmath"]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert files
    for path in files:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def private_attributes(source):
    """Line and name of every attribute access `x._name` (one leading underscore) in `source`."""
    return [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    ]


def test_private_attributes_flags_single_underscore_names_only():
    source = "a = parser._actions\nb = argparse._SubParsersAction\nc = obj.__init__\nfrom .units import _fmt\n"
    assert private_attributes(source) == [(1, "_actions"), (2, "_SubParsersAction")]


def test_no_private_attribute_access():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        assert private_attributes(path.read_text(encoding="utf-8")) == [], path.name
