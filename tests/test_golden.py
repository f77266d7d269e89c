"""Golden outputs: every subcommand at its default config, byte for byte.

evolve is pinned twice, in the exciton and in the site basis.

Each case runs one subcommand in process and compares every file it
writes, and its stdout, with the copies under tests/golden/<case>/.
renorm reads the small checked-in tests/golden/modes.csv.

To regenerate one case after a deliberate change of its numbers:

    PYTHONPATH=src python -m dimerdecay.cli <args> --output-dir tests/golden/<case> \
        > tests/golden/<case>/stdout.txt

with <args> as listed in CASES.
"""

from pathlib import Path

import pytest

from dimerdecay.cli import main

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
