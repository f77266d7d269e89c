"""The package as a whole: its documented top-level API, its dependency rule and its imports."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dimerdecay

ROOT = Path(__file__).parents[1]
PACKAGE_DIR = ROOT / "src" / "dimerdecay"
# the modules a traced benchmark run expects `import dimerdecay.cli` to have loaded
LAYER_MODULES = {f"dimerdecay.{layer}" for layer in ("cli", "excitons", "rates", "dynamics", "analysis")}

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


def test_library_use_calls_only_names_the_package_has():
    # every `name(` the section shows must be a function the package still has
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", LIBRARY_USE))
    modules = [dimerdecay] + [importlib.import_module(f"dimerdecay.{path.stem}")
                              for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]
    assert called
    assert {name for name in called if not any(hasattr(mod, name) for mod in modules)} == set()


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


def caught_names(source):
    """The names that the `except` clauses of `source` catch."""
    return {getattr(name, "id", getattr(name, "attr", None))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ExceptHandler) and node.type is not None
            for name in ast.walk(node.type)}


def test_every_exception_class_is_caught_by_name():
    # a refusal is a ValueError; a subclass earns its place only where a caller tells it apart
    modules = [dimerdecay] + [importlib.import_module(f"dimerdecay.{path.stem}")
                              for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]
    defined = {name for mod in modules for name, obj in vars(mod).items()
               if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    caught = set().union(*(caught_names(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")))
    assert defined == {"NoSolutionError", "StepSizeError"}
    assert defined <= caught


def module_scope_numpy_imports(source):
    """Line and text of every numpy import in `source` that runs when the module is imported.

    Function bodies run only when called, and the body of `if TYPE_CHECKING:` never runs.
    """
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            if any(name.split(".")[0] == "numpy" for name in modules):
                found.append((node.lineno, ast.unparse(node)))
            for block in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, block, []))

    visit(ast.parse(source).body)
    return found


def test_module_scope_numpy_imports_skips_function_bodies_and_type_checking():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    import numpy.typing\n"
        "try:\n"
        "    import numpy.fft\n"
        "except ImportError:\n"
        "    from numpy import pi\n"
        "def f():\n"
        "    import numpy as np\n"
        "class C:\n"
        "    import numpy\n"
        "from .units import numpy\n"
        "import numpyro\n"
    )
    assert module_scope_numpy_imports(source) == [
        (2, "import numpy as np"),
        (3, "from numpy.linalg import eigh"),
        (7, "import numpy.typing"),
        (9, "import numpy.fft"),
        (11, "from numpy import pi"),
        (15, "import numpy"),
    ]


def test_no_module_imports_numpy_at_import_time():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert files
    for path in files:
        assert module_scope_numpy_imports(path.read_text(encoding="utf-8")) == [], path.name


def loaded_modules(code):
    """The numpy and dimerdecay modules loaded after `code` runs in a fresh interpreter, src/ on its path."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(*(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dimerdecay')))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")], capture_output=True, text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_every_layer_and_no_numpy():
    assert loaded_modules("import dimerdecay.cli") & (LAYER_MODULES | {"numpy"}) == LAYER_MODULES


@pytest.mark.parametrize(
    "argv",
    [["transform"], ["helix"], ["renorm", "--modes-file", str(ROOT / "tests" / "golden" / "modes.csv")],
     ["minimize"], ["estimate"]],
    ids=lambda argv: argv[0],
)
def test_scalar_subcommands_never_load_numpy(argv, tmp_path):
    code = f"from dimerdecay.cli import main\nassert main({[*argv, '--output-dir', str(tmp_path)]!r}) == 0"
    assert "numpy" not in loaded_modules(code)
    assert (tmp_path / f"{argv[0]}.csv").is_file()
