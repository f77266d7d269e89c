"""Seeded CLI fuzz: every accepted input ends in a documented result.

Each draw runs one subcommand with one to four of its value flags set to an
extreme or malformed value and checks what the README promises: an exit
code of 0, 2, 3 or 4; one stderr line per refusal besides the `warning:`
lines; no Python or numpy warning; no `nan` in any output file; and `inf`
only in `lifetime_fs` and `inverse_alpha`.

`check_draws(seed, n)` is importable, so a longer run can reuse the draws:

    PYTHONPATH=src:tests python -c "import test_fuzz; test_fuzz.check_draws(2, 20000)"
"""

import contextlib
import csv
import io
import random
import re
import shutil
import tempfile
import warnings
from pathlib import Path

from dimerdecay.cli import DIMER, KEYS, SUBCOMMANDS, main

VALUES = (
    "nan", "inf", "-inf", "0", "-0", "5e-324", "1e-308", "1e-6", "1e6", "1e150",
    "1e300", "-1e300", "3.141592653589793", "-3.141592653589793", "abc", "1+1j",
)
# flags that take a path or a name, not a value
NOT_VALUES = {"--output-dir", "--modes-file", "--state-file", "--preset", "--basis"}
FLAGS = {
    name: [*(("--gap", "--eta") if name in DIMER else ()),
           *(k.flag for k in KEYS if name in k.commands and k.flag not in NOT_VALUES)]
    for name in SUBCOMMANDS
}
# renorm refuses to run without modes, so it always reads the golden ones
FIXED = {"renorm": ["--modes-file", str(Path(__file__).parent / "golden" / "modes.csv")]}
# the cells that may read inf: key,value keys, and columns of the CSV tables
MAY_BE_INF = {"lifetime_fs", "inverse_alpha"}
REFUSAL = {2: "config error: ", 3: "i/o error: ", 4: "no solution: "}
USAGE_ERROR = re.compile(r"dimerdecay \w+: error: ")


def draw(rng: random.Random) -> list[str]:
    name = rng.choice(sorted(SUBCOMMANDS))
    flags = rng.sample(FLAGS[name], rng.randint(1, min(4, len(FLAGS[name]))))
    # --flag=value, so argparse takes a leading minus as part of the value
    return [name, *FIXED.get(name, ()), *(f"{flag}={rng.choice(VALUES)}" for flag in flags)]


def bad_cells(path: Path) -> list[str]:
    """Cells of one output CSV that hold nan, or inf where the README allows none."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keyed = rows[0] == ["key", "value"]
    bad = []
    for row in rows[1:]:
        for column, cell in enumerate(row):
            label = row[0] if keyed else rows[0][column]
            if "nan" in cell or ("inf" in cell and not (cell == "inf" and label in MAY_BE_INF)):
                bad.append(f"{path.name}: {label} = {cell}")
    return bad


def check(argv: list[str], outdir: Path) -> list[str]:
    """Run one command line; return every broken promise, empty if none."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        # main prints the library's own warnings as `warning:` lines; any other is raised
        warnings.simplefilter("error")
        try:
            code = main(argv + ["--output-dir", str(outdir)])
        except SystemExit as exc:  # argparse's usage errors, pinned by the golden tests
            code = exc.code
            lines = err.getvalue().splitlines()
            return [] if code == 2 and USAGE_ERROR.match(lines[-1]) else [f"usage exit {code}: {lines}"]
        except Exception as exc:
            return [f"{type(exc).__name__}: {exc}"]
    problems = [] if code in (0, 2, 3, 4) else [f"exit code {code}"]
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    if code and not (len(lines) == 1 and lines[0].startswith(REFUSAL.get(code, "?"))):
        problems.append(f"refusal with exit {code} printed {lines}")
    if not code and lines:
        problems.append(f"result printed {lines}")
    if outdir.is_dir():
        for path in sorted(outdir.glob("*.csv")):
            problems += bad_cells(path)
    return problems


def check_draws(seed: int, n: int) -> dict[str, list[str]]:
    """Run n seeded draws; return the problems of each command line that broke a promise."""
    rng = random.Random(seed)
    failures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            argv = draw(rng)
            outdir = Path(tmp) / "out"
            problems = check(argv, outdir)
            shutil.rmtree(outdir, ignore_errors=True)
            if problems:
                failures[" ".join(argv)] = problems
    return failures


def test_cli_fuzz_keeps_every_documented_promise():
    # these draws include helix with gamma = alpha * gamma_d beyond the float range
    # and evolve at t_max 1e300 without decay, two kinds of input that once broke it
    assert check_draws(seed=18, n=500) == {}
