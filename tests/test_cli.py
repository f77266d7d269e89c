"""Command-line interface: subcommands, config handling, outputs, exit codes."""

import argparse
import csv
import json
import math
import random
import re
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

from dimerdecay.cli import build_config, build_parser, main
from dimerdecay.excitons import DimerParams, exciton_frame
from dimerdecay.rates import frequency_renormalization

FMO = DimerParams(
    omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0
)


def read_keyvalue(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------- transform

def test_transform_defaults(tmp_path, capsys):
    assert main(["transform", "--output-dir", str(tmp_path)]) == 0
    out = read_keyvalue(tmp_path / "transform.csv")
    assert float(out["phi0_rad"]) == pytest.approx(0.6459710864886066, rel=1e-6)
    assert out["omega1p_cm1"] == "-10"
    assert float(out["omega2p_cm1"]) == pytest.approx(-264.687, rel=1e-6)
    assert float(out["omega_plus_cm1"]) == pytest.approx(22.131786462354411, rel=1e-6)
    assert float(out["omega_minus_cm1"]) == pytest.approx(-296.81878646235441, rel=1e-6)
    assert float(out["omega0_cm1"]) == pytest.approx(318.95057292470882, rel=1e-6)
    assert float(out["nbar0"]) == pytest.approx(0.27650142946590151, rel=1e-6)
    assert float(out["lambda2_cm1"]) == pytest.approx(102.3435, rel=1e-6)
    assert float(out["alpha"]) == pytest.approx(0.045668041844234448, rel=1e-6)
    assert float(out["inverse_alpha"]) * float(out["alpha"]) == pytest.approx(1.0, rel=1e-6)
    assert float(out["gamma_fs1"]) == pytest.approx(
        0.045668041844234448 * 0.02, rel=1e-6
    )
    assert float(out["lifetime_fs"]) * float(out["gamma_fs1"]) == pytest.approx(
        1.0, rel=1e-6
    )
    # the same table is printed as aligned key = value lines
    stdout = capsys.readouterr().out
    assert "phi0_rad" in stdout and "lifetime_fs" in stdout


def test_transform_at_optimal_asymmetry(tmp_path):
    assert main(
        ["transform", "--eta-abs", "1.6409566831", "--output-dir", str(tmp_path)]
    ) == 0
    out = read_keyvalue(tmp_path / "transform.csv")
    assert float(out["inverse_alpha"]) == pytest.approx(13.158734514524669, rel=1e-6)


def test_transform_without_asymmetry_reports_no_decay(tmp_path):
    assert main(["transform", "--eta-abs", "0", "--output-dir", str(tmp_path)]) == 0
    out = read_keyvalue(tmp_path / "transform.csv")
    assert out["alpha"] == "0"
    assert out["inverse_alpha"] == "inf"
    assert out["lifetime_fs"] == "inf"


def test_transform_negative_zero_theta_is_stable(tmp_path):
    assert main(
        ["transform", "--theta", "0.0", "--output-dir", str(tmp_path / "a")]
    ) == 0
    assert main(
        ["transform", "--theta", "-0.0", "--output-dir", str(tmp_path / "b")]
    ) == 0
    a = (tmp_path / "a" / "transform.csv").read_bytes()
    b = (tmp_path / "b" / "transform.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "cmdline, expected",
    [
        # a large common carrier: omega_plus - omega_minus would read 319, nbar0 0.276417778
        ("--omega1 1e15 --omega2 999999999999880", {"omega0_cm1": "318.950573", "nbar0": "0.276501429"}),
        # omega1' and omega2' both near -2e300: their difference would read 0, phi0 pi/2
        (
            "--gamma-d 0 --lambda1 1e300 --eta 5e-324",
            {"omega0_cm1": "226.415547", "nbar0": "0.509678765", "phi0_rad": "1.01219701"},
        ),
    ],
)
def test_transform_splitting_from_the_dressed_gap(cmdline, expected, tmp_path):
    assert main(["transform", *cmdline.split(), "--output-dir", str(tmp_path)]) == 0
    out = read_keyvalue(tmp_path / "transform.csv")
    assert {key: out[key] for key in expected} == expected


def test_transform_complex_eta_flag(tmp_path):
    assert main(
        ["transform", "--eta", "0.5+0.5j", "--output-dir", str(tmp_path)]
    ) == 0
    out = read_keyvalue(tmp_path / "transform.csv")
    assert float(out["lambda2_cm1"]) == pytest.approx(87.5, rel=1e-9)


def test_transform_reads_ini_config(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[dimer]\neta = 0.5+0.5j\nlambda1 = 35\n\n[output]\n"
        f"directory = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["-c", str(ini), "transform"]) == 0
    out = read_keyvalue(tmp_path / "out" / "transform.csv")
    assert float(out["lambda2_cm1"]) == pytest.approx(87.5, rel=1e-9)


# --------------------------------------------------------------- exit codes

def test_unordered_sites_exit_2(tmp_path, capsys):
    code = main(
        ["transform", "--omega1", "-60", "--omega2", "60", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_ini_key_exit_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[dimer]\ncoupling = 5\n", encoding="utf-8")
    assert main(["-c", str(ini), "transform"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_ini_section_exit_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\na = 1\n", encoding="utf-8")
    assert main(["-c", str(ini), "transform"]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["-c", str(tmp_path / "nope.ini"), "transform"]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_output_basis_exit_2(tmp_path, capsys):
    code = main(
        ["evolve", "--basis", "orbital", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "output.basis" in capsys.readouterr().err


def test_unwritable_output_dir_exit_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    code = main(
        ["transform", "--output-dir", str(blocker / "out")]
    )
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_unattainable_ratio_exit_4(tmp_path, capsys):
    code = main(
        ["estimate", "--target-ratio", "1.0", "--output-dir", str(tmp_path)]
    )
    assert code == 4
    assert "no solution" in capsys.readouterr().err


EXIT_CASES = [
    ("sweep --j12 0", 4, "no solution: attenuation vanishes"),
    ("minimize --j12 0", 4, "no solution: j12 must be nonzero"),
    ("sweep --lambda1 0", 4, "no solution: no interior minimum"),
    ("minimize --lambda1 0", 4, "no solution: no interior minimum"),
    ("sweep --theta-list 4", 2, "config error: sweep.theta_list"),
    ("minimize --theta-list 4", 2, "config error: sweep.theta_list"),
    ("estimate --theta-list 4", 2, "config error: sweep.theta_list"),
    ("evolve --dt 5", 2, "config error: time.dt: dt = 5"),
    ("evolve --t-max inf", 2, "config error: time.t_max: must be finite"),
    ("evolve --t-max 1e307 --time-points 2", 2, "config error: time.t_max: t_max/dt must be finite"),
    # library refusals past the per-key checks
    (
        "transform --gap 40 --lambda1 20 --eta-abs 1 --theta 3.141592653589793 --j12 0",
        2, "config error: mixing angle undefined",
    ),
    (
        "evolve --gap 40 --lambda1 20 --eta-abs 1 --theta 3.141592653589793 --j12 0",
        2, "config error: mixing angle undefined",
    ),
    ("transform --j12 1e150", 0, ""),
    ("renorm --j12 1e150 --modes-file MODES", 0, ""),
    ("transform --j12 1e11", 0, ""),
    ("renorm --j12 1e11 --modes-file MODES", 0, ""),
    ("evolve --j12 1e11", 2, "config error: time.dt: dt = 0.01 fs exceeds"),
    ("transform --j12 1e308", 2, "config error: omega_plus must be finite, got inf"),
    ("minimize --j12 1e300", 2, "config error: the quartic in |eta| leaves the float range"),
    ("minimize --j12 1e200", 2, "config error: the quartic in |eta| leaves the float range"),
    ("helix --helix-j12 1e308", 2, "config error: attenuation factor overflows"),
    (
        "estimate --j12 1e-308 --theta 3.141592653589793 --omega1 -1 --theta-list 3.141592653589793",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    (
        "minimize --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list -2.8055075071403315",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    (
        "sweep --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list -2.8055075071403315",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    (
        "estimate --j12 1e-10 --theta 3.141592653589793 --omega1 -1 --theta-list 3.141592653589793",
        2, "config error: root 0.6035875164211777 fails back-substitution: 1/alpha = 55.09",
    ),
    ("estimate --j12 1e150", 2, "config error: a root of 1/alpha = 22 was lost to round-off"),
    # across a theta list the first failing phase decides: theta = 0 has no solution, pi is refused
    (
        "estimate --j12 1e-10 --theta 3.141592653589793 --omega1 -1 --theta-list 0,3.141592653589793",
        4, "no solution: target ratio 22 is below the attainable minimum 1/alpha = 7.21084e+24 (at |eta| = 0.918073)\n",
    ),
    (
        "estimate --j12 1e-10 --theta 3.141592653589793 --omega1 -1 --theta-list 3.141592653589793,0",
        2, "config error: root 0.6035875164211777 fails back-substitution: 1/alpha = 55.09384988459767 vs target 22.0\n",
    ),
    ("minimize --lambda1 1e-300 --j12 1e30 --theta-list 0", 2, "config error: the quartic in |eta| leaves the float range"),
    ("sweep --lambda1 1e-300 --j12 1e30 --theta-list 0", 2, "config error: the quartic in |eta| leaves the float range"),
    ("estimate --lambda1 1e-300 --j12 1e30 --theta-list 0", 2, "config error: the quartic in |eta| leaves the float range"),
    # gamma = alpha * gamma_d beyond the float range, refused where it is formed
    ("helix --helix-j12 1e150 --gamma-d 1e20", 2, "config error: the decay constant alpha * gamma_d overflows"),
    ("transform --lambda1 0 --eta-abs 1e150 --gamma-d 1e10", 2, "config error: the decay constant alpha * gamma_d overflows"),
    ("evolve --lambda1 0 --eta-abs 1e150 --gamma-d 1e10", 2, "config error: the decay constant alpha * gamma_d overflows"),
    ("transform --gap 1e-308 --lambda1 0 --j12 0 --temperature 1e300", 2, "config error: the thermal occupation overflows"),
    # t_max times a rate beyond what the propagators can carry
    ("evolve --gamma-d 0 --t-max 1e24", 2, "config error: round-off in the RK4 propagator overflows"),
    ("evolve --j12 0 --t-max 1e30", 2, "config error: round-off in the RK4 propagator overflows"),
    ("evolve --gap 1e150 --t-max 1e300", 2, "config error: the phases omega t leave the float range"),
    ("evolve --j12 1e-6 --t-max 1e300 --eta 0", 2, "config error: round-off in the RK4 propagator overflows"),
    # 1/alpha and the quartic stay within the float range: each ends in a result
    ("sweep --eta-hi 1e300", 0, ""),
    ("minimize --j12 1e150", 0, ""),
    # every float key is finite
    ("helix --helix-j12 nan", 2, "config error: helix.j12: must be finite"),
    ("helix --helix-j12 inf", 2, "config error: helix.j12: must be finite"),
    ("sweep --eta-hi inf", 2, "config error: sweep.eta_hi: must be finite"),
    ("estimate --target-ratio inf", 2, "config error: estimate.target_ratio: must be finite"),
    ("helix --spacing inf", 2, "config error: helix.spacing_angstrom: must be finite"),
]
MODES = Path(__file__).parent / "golden" / "modes.csv"


@pytest.mark.parametrize(
    "cmdline, code, text", EXIT_CASES, ids=[case[0] for case in EXIT_CASES]
)
def test_inverse_and_evolve_exit_codes(cmdline, code, text, tmp_path, capsys):
    argv = cmdline.replace("MODES", str(MODES)).split()
    assert main(argv + ["--output-dir", str(tmp_path)]) == code
    # one line on stderr for a refusal, none for a result; no traceback
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == (code != 0)


@pytest.mark.parametrize(
    "cmdline",
    ["estimate --j12 1e150", "minimize --j12 1e150", "sweep --j12 1e308", "sweep --eta-hi 1e300", "sweep --eta-hi 1e150"],
)
def test_extreme_magnitudes_raise_no_numpy_warning(cmdline, tmp_path, capsys):
    # main prints a warning from the run as a stderr line of its own, so the line
    # count checks it; one from parsing the flags would reach `caught`
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(cmdline.split() + ["--output-dir", str(tmp_path)])
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.count("\n") == (code != 0)


def test_library_warning_prints_once_on_one_line(tmp_path, capsys):
    # the dressed gap is negative, so mixing_angle warns, once: the run builds one
    # exciton frame; the default format would add the source path and line
    argv = ["transform", "--omega2", "0.5", "--theta", "3.141592653589793", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == (
        "warning: renormalized gap -4.613 cm^-1 is negative (dressed site frequencies "
        "out of order); folding the mixing angle branch\n"
    )
    assert "lifetime_fs     = 396.9757" in out


@pytest.mark.parametrize("cmdline", ["transform", "evolve --t-max 10 --time-points 3", "renorm --modes-file MODES"])
def test_one_exciton_frame_per_run(cmdline, monkeypatch, tmp_path):
    # wrap exciton_frame in every module of the package that reads it by name
    calls = []

    def counted(p):
        calls.append(p)
        return exciton_frame(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("dimerdecay.") and getattr(module, "exciton_frame", None) is exciton_frame:
            monkeypatch.setattr(module, "exciton_frame", counted)
    argv = cmdline.replace("MODES", str(MODES)).split()
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning])
def test_only_library_warnings_become_stderr_lines(category, monkeypatch, tmp_path):
    # any other warning meets the filters in force, so "error" still fails the run
    def cmd_transform(cfg):
        warnings.warn("not from the library", category)
        return 0

    monkeypatch.setattr("dimerdecay.cli.cmd_transform", cmd_transform)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(category, match="not from the library"):
            main(["transform", "--output-dir", str(tmp_path)])


FILE_CASES = {
    # id: (the file is a config or a custom state, its bytes, start of the stderr line)
    "ini-not-utf8": ("config", b"\xff[dimer]\n", "config error: config file"),
    "ini-bare-percent": ("config", b"[dimer]\nj12 = 1%\n", "config error: config file"),
    "ini-no-section-header": ("config", b"j12 = 5\n", "config error: config file"),
    "ini-default-section": ("config", b"[DEFAULT]\nj12 = 5\n", "config error: unknown config section [DEFAULT]"),
    "ini-default-unknown-key": (
        "config", b"[DEFAULT]\ncoupling = 5\n", "config error: unknown config section [DEFAULT]",
    ),
    "state-not-utf8": ("state", b"\xff{}", "config error: initial_state.file: invalid JSON"),
    "state-bool-cells": (
        "state", b'{"rho": [[false,0,0],[0,true,0],[0,0,0]]}',
        "config error: initial_state.file: expected number or [re, im], got False\n",
    ),
    "state-bool-pair": (
        "state", b'{"rho": [[0,0,0],[0,[true,false],0],[0,0,0]]}',
        "config error: initial_state.file: expected number or [re, im], got [True, False]\n",
    ),
    "state-string-pair": (
        "state", b'{"rho": [[0,0,0],[0,["1","0"],0],[0,0,0]]}',
        "config error: initial_state.file: expected number or [re, im], got ['1', '0']\n",
    ),
    "state-integer-past-float-range": (
        "state", b'{"rho": [[0,0,0],[0,1' + b"0" * 400 + b',0],[0,0,0]]}',
        "config error: initial_state.file: a number in rho lies outside the float range\n",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_unreadable_input_files_exit_2(case, tmp_path, capsys):
    kind, content, text = FILE_CASES[case]
    path = tmp_path / "input"
    path.write_bytes(content)
    if kind == "config":
        argv = ["-c", str(path), "evolve"]
    else:
        argv = ["evolve", "--preset", "custom", "--state-file", str(path)]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == 1


# --------------------------------------------------------------- sweep

def test_sweep_small_grid_with_gnuplot(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--theta-list", "0.0",
            "--eta-lo", "0.5",
            "--eta-hi", "2.0",
            "--sweep-points", "5",
            "--gnuplot",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_table(tmp_path / "sweep.csv")
    assert rows[0] == ["theta_rad", "eta_abs", "inverse_alpha"]
    assert len(rows) == 6
    assert [r[1] for r in rows[1:]] == ["0.5", "0.875", "1.25", "1.625", "2"]
    script = (tmp_path / "sweep.gp").read_text(encoding="utf-8")
    assert "set logscale y" in script
    assert "sweep.csv" in script
    assert "minimum 1/alpha=" in capsys.readouterr().out


def test_sweep_is_deterministic(tmp_path):
    args = [
        "sweep",
        "--theta-list", "0.0, 1.5707963267949",
        "--eta-lo", "0.2",
        "--eta-hi", "5.0",
        "--sweep-points", "40",
    ]
    assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()


# --------------------------------------------------------------- minimize

def test_minimize_single_phase(tmp_path):
    assert main(
        ["minimize", "--theta-list", "0.0", "--output-dir", str(tmp_path)]
    ) == 0
    rows = read_table(tmp_path / "minimize.csv")
    assert rows[0] == ["quantity", "theta=0"]
    table = {r[0]: float(r[1]) for r in rows[1:]}
    assert table["eta_min"] == pytest.approx(1.6409566831234082, abs=1e-5)
    assert table["inv_alpha_min"] == pytest.approx(13.158734514524669, rel=1e-6)


# --------------------------------------------------------------- estimate

def test_estimate_default_phases(tmp_path):
    assert main(["estimate", "--output-dir", str(tmp_path)]) == 0
    rows = read_table(tmp_path / "estimate.csv")
    assert len(rows[0]) == 6  # quantity + five phases
    etas = [float(v) for v in rows[1][1:]]
    assert rows[1][0] == "eta_abs"
    refs = [
        0.70711545665961768,
        0.63312984212790906,
        0.52698804199521997,
        0.4699266272517591,
        0.45449152251289444,
    ]
    for got, ref in zip(etas, refs):
        assert got == pytest.approx(ref, abs=1e-6)
    assert rows[2][0] == "lambda2_cm1"


# --------------------------------------------------------------- theta lists

def _fmo_like(rng, k):
    """Dimer flags near the paper's FMO parameters, j12 of sign (-1)^k.  For
    k = 11 gap < 2 lambda1, so the dressed gap turns negative over part of
    the |eta| range at phases near +-pi."""
    gap, lambda1 = (20.0, 35.0) if k == 11 else (rng.uniform(100.0, 160.0), rng.uniform(20.0, 45.0))
    mean, j12 = rng.uniform(-40.0, 40.0), (-1.0) ** k * rng.uniform(70.0, 120.0)
    return ["--omega1", repr(mean + 0.5 * gap), "--omega2", repr(mean - 0.5 * gap),
            "--j12", repr(j12), "--lambda1", repr(lambda1)]


@pytest.mark.parametrize("k", range(12))
def test_a_theta_list_gives_the_one_theta_results_side_by_side(k, tmp_path, capsys):
    # k + 1 phases: the whole list in one run against one run per phase
    rng = random.Random(1800 + k)
    dimer = _fmo_like(rng, k)
    thetas = [rng.uniform(-math.pi, math.pi) for _ in range(k + 1)]
    if k == 11:
        thetas[-1] = math.pi

    def run(command, extra, ths, out):
        argv = [command, *dimer, *extra, "--theta-list=" + ",".join(map(repr, ths)), "--output-dir", str(out)]
        code = main(argv)
        stdout, stderr = capsys.readouterr()
        assert (code, stderr) == (0, ""), argv
        return stdout, read_table(out / f"{command}.csv")

    minimum = run("minimize", [], thetas, tmp_path / "minimize")[1]
    target = 2.0 * max(float(v) for v in minimum[2][1:])
    for command, extra in [
        ("minimize", []),
        ("estimate", ["--target-ratio", repr(target)]),
        ("sweep", ["--eta-lo", "0.2", "--eta-hi", "5", "--sweep-points", "7"]),
    ]:
        stdout, rows = run(command, extra, thetas, tmp_path / command / "all")
        parts = [run(command, extra, [th], tmp_path / command / str(i)) for i, th in enumerate(thetas)]
        assert stdout == "".join(out for out, _ in parts)
        if command == "sweep":
            assert rows == [rows[0]] + [row for _, part in parts for row in part[1:]]
        else:
            assert rows == [[row[0]] + [cell for _, part in parts for cell in part[i][1:]]
                            for i, row in enumerate(rows)]


# --------------------------------------------------------------- evolve

def test_evolve_without_decay_matches_analytic(tmp_path, capsys):
    code = main(
        [
            "evolve",
            "--eta-abs", "0",
            "--t-max", "10",
            "--time-points", "3",
            "--dt", "0.05",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    supnorm = float(stdout.rsplit(":", 1)[1])
    assert supnorm <= 1e-12
    rows = read_table(tmp_path / "trajectory_analytic.csv")
    rho11 = {r[2] for r in rows[1:]}
    assert len(rho11) == 1  # populations frozen without dissipation


def test_evolve_tracks_analytic(tmp_path, capsys):
    code = main(
        [
            "evolve",
            "--t-max", "100",
            "--time-points", "3",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert float(stdout.rsplit(":", 1)[1]) <= 1e-8
    rows = read_table(tmp_path / "trajectory_numeric.csv")
    assert rows[0][-1] == "supnorm_vs_analytic"
    assert len(rows) == 4


def test_evolve_site_basis_starts_on_site(tmp_path):
    code = main(
        [
            "evolve",
            "--basis", "site",
            "--t-max", "10",
            "--time-points", "2",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_table(tmp_path / "trajectory_analytic.csv")
    # site1 preset: all weight on the first site at t = 0, up to the
    # round-off of the two basis rotations
    pops = [float(v) for v in rows[1][1:4]]
    assert pops[0] == 0.0
    assert pops[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(pops[2]) <= 1e-12


def test_evolve_custom_state(tmp_path):
    state = {
        "basis": "exciton",
        "rho": [
            [0.25, 0.125, 0],
            [0.125, 0.5, [0.25, 0.0]],
            [0, [0.25, 0.0], 0.25],
        ],
    }
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(state), encoding="utf-8")
    code = main(
        [
            "evolve",
            "--preset", "custom",
            "--state-file", str(state_file),
            "--t-max", "10",
            "--time-points", "2",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_table(tmp_path / "trajectory_analytic.csv")
    assert rows[1][1] == "0.25"


def test_evolve_custom_state_rejects_bad_json(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text("not json", encoding="utf-8")
    code = main(
        [
            "evolve",
            "--preset", "custom",
            "--state-file", str(state_file),
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_evolve_custom_state_rejects_bad_trace(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(
        json.dumps({"basis": "exciton", "rho": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        encoding="utf-8",
    )
    code = main(
        [
            "evolve",
            "--preset", "custom",
            "--state-file", str(state_file),
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert "trace" in capsys.readouterr().err


# --------------------------------------------------------------- helix

def test_helix_defaults(tmp_path):
    assert main(["helix", "--output-dir", str(tmp_path)]) == 0
    out = read_keyvalue(tmp_path / "helix.csv")
    assert float(out["inverse_alpha"]) == pytest.approx(36.601982340749211, rel=1e-6)
    assert float(out["lifetime_fs"]) == pytest.approx(1830.0991170374606, abs=0.5)
    assert float(out["gamma_fs1"]) == pytest.approx(
        0.027320924607044955 * 0.02, rel=1e-6
    )


def test_helix_overrides(tmp_path):
    assert main(
        [
            "helix",
            "--spacing", "9.0",
            "--sound-speed", "4000",
            "--helix-j12", "7.8",
            "--output-dir", str(tmp_path),
        ]
    ) == 0
    out = read_keyvalue(tmp_path / "helix.csv")
    assert float(out["alpha"]) == pytest.approx(4.0 * 0.027320924607044955, rel=1e-6)


# --------------------------------------------------------------- renorm

def test_renorm_requires_modes(tmp_path, capsys):
    assert main(["renorm", "--output-dir", str(tmp_path)]) == 2
    assert "modes_file" in capsys.readouterr().err


def test_renorm_single_mode(tmp_path):
    modes = tmp_path / "modes.csv"
    modes.write_text("omega_k_cm1,V2_k_cm2\n600.0,1000.0\n", encoding="utf-8")
    code = main(
        ["renorm", "--modes-file", str(modes), "--output-dir", str(tmp_path)]
    )
    assert code == 0
    out = read_keyvalue(tmp_path / "renorm.csv")
    frame = exciton_frame(FMO)
    dp, dm = frequency_renormalization(((600.0, 1000.0),), frame.omega0, 300.0)
    assert float(out["delta_plus_cm1"]) == pytest.approx(dp, rel=1e-6)
    assert float(out["delta_minus_cm1"]) == pytest.approx(dm, rel=1e-6)
    assert float(out["omega_plus_bar_cm1"]) == pytest.approx(
        frame.omega_plus - dp, rel=1e-6
    )
    assert out["n_modes"] == "1"


def test_renorm_resonant_mode_exit_2(tmp_path, capsys):
    frame = exciton_frame(FMO)
    modes = tmp_path / "modes.csv"
    modes.write_text(
        f"omega_k_cm1,V2_k_cm2\n{frame.omega0!r},1.0\n", encoding="utf-8"
    )
    code = main(
        ["renorm", "--modes-file", str(modes), "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "resonance" in capsys.readouterr().err


# rows after the header, extra flags -> the one stderr line ({path}: the mode file)
MODE_FILE_CASES = {
    "nan-coupling": ("100,nan\n", "", "config error: bath: squared coupling must be finite and >= 0, got nan"),
    "inf-coupling": ("100,inf\n", "", "config error: bath: squared coupling must be finite and >= 0, got inf"),
    "inf-frequency": ("inf,1\n", "", "config error: bath: mode frequency must be finite and > 0 cm^-1, got inf"),
    "blank-rows-only": ("\n , \n", "", "config error: bath.modes_file: {path} holds no modes"),
    # 0.05 cm^-1 from omega0 = 318.950573 with V2 = 1e308
    "shift-overflows": (
        "319,1e308\n", "", "config error: the frequency shifts overflow: delta_plus = inf, delta_minus = -inf",
    ),
    # omega_minus = -8.8e307 less delta_minus = 1.09e308
    "shifted-frequency-overflows": (
        "191,3e10\n", "--omega1 0 --omega2=-1e-10 --lambda1 4.4e307 --eta-abs 0 --temperature 1e300",
        "config error: the shifted frequency omega_minus - delta_minus overflows",
    ),
    "soft-mode": (
        "5e-324,1\n", "--temperature 1e300",
        "config error: the thermal occupation overflows at omega_k = 4.94066e-324 cm^-1",
    ),
}


@pytest.mark.parametrize("case", sorted(MODE_FILE_CASES))
def test_renorm_refuses_unusable_mode_files(case, tmp_path, capsys):
    rows, flags, text = MODE_FILE_CASES[case]
    path = tmp_path / "modes.csv"
    path.write_text("omega_k_cm1,V2_k_cm2\n" + rows, encoding="utf-8")
    argv = ["renorm", "--modes-file", str(path), *flags.split(), "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(text.format(path=path)) and err.count("\n") == 1
    assert not (tmp_path / "renorm.csv").exists()


@pytest.mark.parametrize("command", ["renorm", "transform", "helix", "evolve"])
def test_every_bath_command_refuses_a_mode_file_without_modes(command, tmp_path, capsys):
    path = tmp_path / "modes.csv"
    path.write_text("omega_k_cm1,V2_k_cm2\n", encoding="utf-8")
    assert main([command, "--modes-file", str(path), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: bath.modes_file: {path} holds no modes\n"


@pytest.mark.parametrize(
    "cmdline",
    [
        "transform --theta=0 --omega2=-1e300 --temperature=5e-324",
        "renorm --eta 1e150 --theta 3.141592653589793 --modes-file MODES",
    ],
    ids=["transform", "renorm"],
)
def test_exciton_frequencies_match_an_exact_oracle(cmdline, tmp_path):
    # one dressed site frequency dwarfs the other, so mean + half would cancel
    argv = cmdline.replace("MODES", str(MODES)).split()
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    got = read_keyvalue(tmp_path / f"{argv[0]}.csv")
    cfg = build_config(build_parser().parse_args(argv))
    frame = exciton_frame(cfg.dimer)
    # the exact eigenvalues of [[omega1', j12], [j12, omega2']] for the float entries
    with mpmath.workdps(700):
        w1, w2, j = (mpmath.mpf(v) for v in (frame.omega1p, frame.omega2p, cfg.dimer.j12))
        mean, half = (w1 + w2) / 2, mpmath.sqrt(((w1 - w2) / 2) ** 2 + j * j)
        want = {"omega_plus_cm1": float(mean + half), "omega_minus_cm1": float(mean - half)}
    for key, value in want.items():
        assert float(got[key]) == pytest.approx(value, rel=1e-9), key
    assert float(got["omega_plus_cm1"]) == -10.0


# --------------------------------------------------------------- help text

def test_subcommand_help_documents_csv_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "estimate.csv rows" in capsys.readouterr().out


def test_gap_flag_splits_sites_symmetrically(tmp_path):
    assert main(
        ["transform", "--gap", "240", "--output-dir", str(tmp_path / "g")]
    ) == 0
    assert main(
        [
            "transform",
            "--omega1", "120", "--omega2", "-120",
            "--output-dir", str(tmp_path / "s"),
        ]
    ) == 0
    assert (tmp_path / "g" / "transform.csv").read_bytes() == (
        tmp_path / "s" / "transform.csv"
    ).read_bytes()


# --------------------------------------------------------------- CLI surface

DIMER_FLAGS = {"--omega1", "--omega2", "--gap", "--j12", "--lambda1", "--eta-abs", "--theta", "--eta"}
BATH_FLAGS = {"--temperature", "--gamma-d", "--modes-file"}
SURFACE = {
    "transform": DIMER_FLAGS | BATH_FLAGS,
    "sweep": DIMER_FLAGS | {"--theta-list", "--eta-lo", "--eta-hi", "--sweep-points", "--gnuplot"},
    "minimize": DIMER_FLAGS | {"--theta-list"},
    "estimate": DIMER_FLAGS | {"--theta-list", "--target-ratio"},
    "evolve": DIMER_FLAGS | BATH_FLAGS
    | {"--preset", "--state-file", "--t-max", "--time-points", "--dt", "--basis"},
    "helix": BATH_FLAGS | {"--spacing", "--sound-speed", "--helix-j12"},
    "renorm": DIMER_FLAGS | BATH_FLAGS,
}


def option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


def test_each_subcommand_takes_exactly_its_flags():
    parser = build_parser()
    assert option_strings(parser) == {"-h", "--help", "-c", "--config"}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SURFACE)
    for name, flags in SURFACE.items():
        assert option_strings(sub.choices[name]) == flags | {"-h", "--help", "--output-dir"}, name


def test_the_parser_is_built_once_per_process(monkeypatch, tmp_path):
    argv = ["helix", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    assert build_parser() is build_parser()


def outputs(argv, outdir, capsys):
    """Run one subcommand; return its stdout and the bytes of every file it wrote."""
    assert main(argv + ["--output-dir", str(outdir)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return capsys.readouterr().out, files


@pytest.mark.parametrize(
    "derived, explicit",
    [
        ("--eta 1+1j --eta-abs 0.5", "--eta-abs 0.5 --theta 0.785398163397448"),
        ("--gap 240 --omega2 -100", "--omega1 120 --omega2 -100"),
    ],
)
def test_explicit_flags_override_derived_inputs(derived, explicit, tmp_path, capsys):
    assert outputs(["transform"] + derived.split(), tmp_path / "d", capsys) == outputs(
        ["transform"] + explicit.split(), tmp_path / "e", capsys
    )


README_INI = re.search(
    r"```ini\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"), re.S
).group(1)


@pytest.mark.parametrize(
    "command, ini",
    [(cmd, README_INI) for cmd in ("transform", "sweep", "minimize", "estimate", "evolve", "helix")]
    # the same with eta_abs and theta in place of the complex eta: every key is accepted
    + [("transform", README_INI.replace("eta = 0.71+0.0j", "eta_abs = 0.71\ntheta = 0.0"))],
    ids=[*("transform", "sweep", "minimize", "estimate", "evolve", "helix"), "transform-polar-eta"],
)
def test_readme_config_equals_the_defaults(command, ini, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(ini, encoding="utf-8")
    assert outputs(["-c", str(config), command], tmp_path / "ini", capsys) == outputs(
        [command], tmp_path / "none", capsys
    )
