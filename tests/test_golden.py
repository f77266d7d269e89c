"""Golden outputs: every subcommand at its default config, byte for byte.

evolve is pinned twice, in the exciton and in the site basis.

Each case runs one subcommand in process and compares every file it
writes, and its stdout, with the copies under tests/golden/<case>/.
renorm reads the small checked-in tests/golden/modes.csv.

To regenerate one case after a deliberate change of its numbers:

    PYTHONPATH=src python -m dimerdecay.cli <args> --output-dir tests/golden/<case> \
        > tests/golden/<case>/stdout.txt

with <args> as listed in CASES.

The help, usage and error text of the CLI is pinned the same way, at 80
columns, under tests/golden/cli/<case>.txt: the stdout of each `-h` and
the stderr of each usage error (exit 2), as listed in SURFACE.  To
regenerate one:

    COLUMNS=80 PYTHONPATH=src python -m dimerdecay.cli <args> \
        > tests/golden/cli/<case>.txt 2>&1
"""

from pathlib import Path

import pytest

from dimerdecay.cli import SUBCOMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "transform": ["transform"],
    "sweep": ["sweep"],
    "minimize": ["minimize"],
    "estimate": ["estimate"],
    "evolve": ["evolve"],
    "evolve_site": ["evolve", "--basis", "site", "--preset", "site2"],
    "helix": ["helix"],
    "renorm": ["renorm", "--modes-file", str(GOLDEN / "modes.csv")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_outputs_are_byte_identical(case, tmp_path, capsys):
    assert main(CASES[case] + ["--output-dir", str(tmp_path)]) == 0
    expected = GOLDEN / case
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in expected.iterdir() if p.name != "stdout.txt")
    for name in produced:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text(encoding="utf-8")


SURFACE = {  # case: (argv, exit code); help goes to stdout, usage errors to stderr
    "help": (["-h"], 0),
    **{f"help_{name}": ([name, "-h"], 0) for name in SUBCOMMANDS},
    "config_then_sweep_help": (["-c", "evolve", "sweep", "-h"], 0),
    "bogus": (["bogus"], 2),
    "no_command": ([], 2),
    "evolve_bogus_flag": (["evolve", "--bogus"], 2),
    "helix_spacing_without_value": (["helix", "--spacing"], 2),
    "config_abbrev_helix_spacing": (["--con", "x", "helix", "--spacing"], 2),
    "transform_gap_not_a_number": (["transform", "--gap", "x"], 2),
}


@pytest.mark.parametrize("case", sorted(SURFACE))
def test_help_and_usage_errors_are_byte_identical(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv, code = SURFACE[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    text, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert silent == ""
    assert text == (GOLDEN / "cli" / f"{case}.txt").read_text(encoding="utf-8")
