"""The package as a whole: its documented top-level API, its dependency rule and its imports."""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import EXIT_CASES, FILE_ARGV, FILE_CASES, MODE_FILE_CASES

import dimerdecay
from dimerdecay import cli

ROOT = Path(__file__).parents[1]
PACKAGE_DIR = ROOT / "src" / "dimerdecay"
# the modules a traced benchmark run expects `import dimerdecay.cli` to have loaded
LAYER_MODULES = {f"dimerdecay.{layer}" for layer in ("cli", "excitons", "rates", "dynamics", "analysis")}

README = (ROOT / "README.md").read_text(encoding="utf-8")
# the "Library use" section of the README, up to the next heading
LIBRARY_USE = re.search(r"^## Library use\n(.*?)^## ", README, re.S | re.M).group(1)
LIBRARY_EXAMPLE = re.search(r"```python\n(.*?)```", LIBRARY_USE, re.S).group(1)


@functools.cache
def source_trees():
    """The parsed source of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def package_modules():
    return [dimerdecay] + [importlib.import_module(f"dimerdecay.{path.stem}")
                           for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__"]


def test_readme_library_example_runs(capsys):
    exec(compile(LIBRARY_EXAMPLE, "README.md", "exec"), {"__name__": "readme_example"})
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
    assert called
    assert {name for name in called if not any(hasattr(mod, name) for mod in package_modules())} == set()


def imported_modules(tree):
    """The absolute name of each module the parsed source `tree` imports, at any depth."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def foreign_imports(source):
    """Top-level modules imported by `source` that are neither stdlib, numpy nor this package."""
    allowed = sys.stdlib_module_names | {"numpy", "dimerdecay"}
    return [name for name in imported_modules(ast.parse(source)) if name.split(".")[0] not in allowed]


def test_foreign_imports_flags_undeclared_dependencies():
    source = "import math\nimport scipy.optimize\nfrom mpmath import mp\nfrom .units import _fmt\nimport numpy as np\n"
    assert foreign_imports(source) == ["scipy.optimize", "mpmath"]


def test_numpy_is_the_only_runtime_dependency():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert files
    for path in files:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_no_module_imports_pathlib():
    # os.path does the package's path work, and each input file is read in its own grammar, with neither
    # configparser nor csv; `site` may load pathlib before any test runs, so sys.modules cannot tell
    assert imported_modules(ast.parse("def f():\n    from pathlib import Path\n")) == ["pathlib"]
    assert [name for name, tree in source_trees().items()
            if any(module.split(".")[0] in ("pathlib", "configparser", "csv") for module in imported_modules(tree))] == []


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


def caught_names(tree):
    """The names that the `except` clauses of the parsed source `tree` catch."""
    return {getattr(name, "id", getattr(name, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type is not None
            for name in ast.walk(node.type)}


def test_every_exception_class_is_caught_by_name():
    # a refusal is a ValueError; a subclass earns its place only where a caller tells it apart
    defined = {name for mod in package_modules() for name, obj in vars(mod).items()
               if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    caught = set().union(*map(caught_names, source_trees().values()))
    assert defined == {"NoSolutionError", "StepSizeError"}
    assert defined <= caught


# --------------------------------------------------------------- the refusal table

REFUSAL_CLASSES = ("ValueError", "NoSolutionError", "StepSizeError")


def message_template(node):
    """A message as its source writes it: the literal text, and each f-string field as {expression!conversion:spec}."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(map(message_template, node.values))
    if isinstance(node, ast.FormattedValue):
        conversion = "" if node.conversion == -1 else "!" + chr(node.conversion)
        spec = "" if node.format_spec is None else ":" + message_template(node.format_spec)
        return "{" + ast.unparse(node.value) + conversion + spec + "}"
    return "{" + ast.unparse(node) + "}"


def refusals(tree):
    """(class, message template) of each refusal the parsed source `tree` constructs."""
    return [(node.func.id, message_template(node.args[0])) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in REFUSAL_CLASSES]


def test_refusals_reads_each_constructor_as_its_source_writes_it():
    source = (
        "raise ValueError('plain')\n"
        "raise NoSolutionError(f'x = {x:.6g}, {name!r} {a[0] + 1}')\n"
        "error = StepSizeError(f'{p.dt} ' f'fs')\n"
        "raise ValueError(str(exc)) from None\n"
        "raise TypeError('not a refusal')\n"
    )
    assert refusals(ast.parse(source)) == [
        ("ValueError", "plain"),
        ("NoSolutionError", "x = {x:.6g}, {name!r} {a[0] + 1}"),
        ("StepSizeError", "{p.dt} fs"),
        ("ValueError", "{str(exc)}"),
    ]


def wraps(template):
    """Whether the message template carries the message of the exception it caught, `exc`."""
    return "{exc}" in template or "{str(exc)}" in template


def source_messages():
    """{message template: class} of every refusal in src/ but the wrappers, each key check's message spelled out."""
    messages = {}
    for tree in source_trees().values():
        for kind, template in refusals(tree):
            if "{key.check[1]}" in template:
                messages.update({template.replace("{key.check[1]}", key.check[1]): kind for key in cli.KEYS if key.check})
            elif not wraps(template):
                assert messages.setdefault(template, kind) == kind, template
    return messages


REFUSALS_SECTION = re.search(r"^## Refusals\n(.*?)^## ", README, re.S | re.M).group(1)
# one table row per message: `text` | `class` | exit code | example, with "|" in a cell written "\|"
REFUSAL_TABLE = [
    [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
    for line in REFUSALS_SECTION.splitlines() if line.startswith("| `")
]
# the wrapper templates listed below the table
WRAPPERS = re.findall(r"`([^`]*\{(?:exc|str\(exc\))\})`", REFUSALS_SECTION.rpartition("|\n")[2])


def test_refusal_table_lists_every_message_once():
    listed = [message[1:-1] for message, *_ in REFUSAL_TABLE]
    assert len(listed) == len(set(listed)), "a message is listed twice"
    messages = source_messages()
    assert set(listed) - set(messages) == set(), "listed, but no longer raised"
    assert set(messages) - set(listed) == set(), "raised, but not listed"
    for message, kind, code, _ in REFUSAL_TABLE:
        assert kind == f"`{messages[message[1:-1]]}`", message
        assert code == ("4" if kind == "`NoSolutionError`" else "2"), message
    wrappers = {template for tree in source_trees().values() for _, template in refusals(tree) if wraps(template)}
    assert len(WRAPPERS) == len(set(WRAPPERS)) and set(WRAPPERS) == wrappers


def fits(message, template):
    """Whether `message` is `template` with some text in each {field}."""
    parts = re.split(r"\{[^{}]*\}", template)
    return re.fullmatch(".*".join(map(re.escape, parts)), message, re.S) is not None


def unwrapped(message):
    """`message`, and each message it carries behind one or more wrapper prefixes."""
    yield message
    for wrapper in WRAPPERS:
        prefix = wrapper.rpartition("{")[0]
        for k in range(1, len(message)):
            if prefix and fits(message[:k], prefix):
                yield from unwrapped(message[k:])


def test_fits_fills_each_field_and_unwrapped_peels_prefixes():
    assert fits("dt = 5.0 fs exceeds 0.1", "dt = {dt} fs exceeds {0.1 / fastest:.6g}")
    assert not fits("dt = 5.0 fs exceeds", "dt = {dt} fs exceeds 0.1")
    assert "must be > 0, got 0.0" in unwrapped("time.dt: must be > 0, got 0.0")
    # the prefix of a mode file's line peels too, so the message carried there is found
    peeled = list(unwrapped("bath.modes_file: /a/b:2: could not convert"))
    assert "/a/b:2: could not convert" in peeled and "could not convert" in peeled
    assert not fits("bath: x", "time.dt: {exc}")


# the command lines and input files of the CLI refusal tests, F standing for the file
CLI_INPUTS = {(cmdline, None) for cmdline, code, _ in EXIT_CASES if code}
CLI_INPUTS |= {(FILE_ARGV[kind], content) for kind, content, _ in FILE_CASES.values() if content is not None}
CLI_INPUTS |= {(" ".join(["renorm", "--modes-file", "F", *flags.split()]), f"omega_k_cm1,V2_k_cm2\n{rows}".encode())
               for rows, flags, _ in MODE_FILE_CASES.values()}
BOUNDARY = "tests/golden/boundary_state.json"


@functools.cache
def library_namespace():
    """Every public name of the package's modules, then the names the Library use example binds."""
    namespace = {name: obj for mod in package_modules() for name, obj in vars(mod).items() if not name.startswith("_")}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(LIBRARY_EXAMPLE, "README.md", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("message, kind, code, example", REFUSAL_TABLE, ids=[row[0][1:-1][:50] for row in REFUSAL_TABLE])
def test_refusal_table_example_gives_its_message(message, kind, code, example, tmp_path, capsys):
    message, kind = message[1:-1], kind[1:-1]
    cli_example = re.fullmatch(r"`dimerdecay ([^`]*)`(?:, F = `([^`]*)`)?", example)
    if cli_example is None:
        with pytest.raises(Exception) as info:
            eval(example[1:-1], library_namespace())
        assert type(info.value).__name__ == kind and fits(str(info.value), message)
        return
    cmdline, content = cli_example.groups()
    if content is not None:
        content = eval(content, {"__builtins__": {}}).encode()
        (tmp_path / "F").write_bytes(content)
    # each command line is pinned by a row of the CLI refusal tests
    assert (cmdline.replace(BOUNDARY, "BOUNDARY"), content) in CLI_INPUTS
    argv = [str(tmp_path / "F") if arg == "F" else arg for arg in cmdline.replace(BOUNDARY, str(ROOT / BOUNDARY)).split()]
    assert str(cli.main([*argv, "--output-dir", str(tmp_path / "out")])) == code
    line = capsys.readouterr().err.splitlines()[-1]
    lead = "no solution: " if code == "4" else "config error: "
    assert line.startswith(lead)
    assert any(fits(inner, message) for inner in unwrapped(line[len(lead):])), line


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


def loaded_modules(code, packages=("numpy", "dimerdecay")):
    """The modules of `packages` loaded after `code` runs in a fresh interpreter, src/ on its path."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        f"print(*(m for m in sys.modules if m.split('.')[0] in {packages!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")], capture_output=True, text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_every_layer_and_no_numpy():
    assert loaded_modules("import dimerdecay.cli") & (LAYER_MODULES | {"numpy"}) == LAYER_MODULES


def test_importing_the_cli_and_a_plain_ini_run_load_no_json_or_configparser(tmp_path):
    # json reads only a custom state; the INI and mode files are read without configparser or csv
    ini = tmp_path / "run.ini"
    modes = ROOT / "tests" / "golden" / "modes.csv"
    ini.write_text(f"[dimer]\nj12 = -50\neta = 0.3+0.4j\n[bath]\nmodes_file = {modes}\n", encoding="utf-8")
    run = f"from dimerdecay.cli import main\nassert main({['-c', str(ini), 'transform', '--output-dir', str(tmp_path)]!r}) == 0"
    for code in ("import dimerdecay.cli", run):
        assert loaded_modules(code, ("json", "configparser", "csv")) == set(), code


def test_only_a_mode_file_loads_the_array_module(tmp_path):
    # array, an extension module of about 0.1 MB, holds the mode columns and nothing else
    def run(*argv):
        return f"from dimerdecay.cli import main\nassert main({[*argv, '--output-dir', str(tmp_path)]!r}) == 0"

    for code in ("import dimerdecay.cli", run("transform"), run("estimate"), run("evolve", "--time-points", "11")):
        assert loaded_modules(code, ("array",)) == set(), code
    assert loaded_modules(run("renorm", "--modes-file", str(ROOT / "tests" / "golden" / "modes.csv")), ("array",)) == {"array"}


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
