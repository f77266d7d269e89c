"""Command-line interface: subcommands, config handling, outputs, exit codes."""

import argparse
import configparser
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

from dimerdecay import cli
from dimerdecay.cli import KEYS, _merge_config, build_config, build_parser, main
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
    assert "No such file or directory" in capsys.readouterr().err


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


def test_a_refused_evolve_leaves_its_output_directory_as_it_found_it(tmp_path, capsys):
    # the refusal comes in a block past the first, after both files have rows
    refused = ["evolve", "--preset", "custom", "--state-file", str(COHERENT), "--gamma-d", "0", "--t-max", "1e8",
               "--time-points", "2049"]
    out = tmp_path / "out"
    assert main(["evolve", "--output-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main([*refused, "--output-dir", str(out)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    # a directory the run made is removed again, with each parent it made
    assert main([*refused, "--output-dir", str(tmp_path / "new" / "deeper")]) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]
    assert "rho must be positive semidefinite" in capsys.readouterr().err


def test_unattainable_ratio_exit_4(tmp_path, capsys):
    code = main(
        ["estimate", "--target-ratio", "1.0", "--output-dir", str(tmp_path)]
    )
    assert code == 4
    assert "no solution" in capsys.readouterr().err


EXIT_CASES = [
    ("sweep --j12 0", 4, "no solution: attenuation vanishes"),
    ("minimize --j12 0", 4, "no solution: attenuation vanishes without coupling (j12 = 0): 1/alpha is infinite for every |eta|\n"),
    ("estimate --j12 0", 4, "no solution: attenuation vanishes without coupling (j12 = 0): 1/alpha is infinite for every |eta|\n"),
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
    # lambda2 = lambda1 |1 + eta|^2 overflows; sweep and minimize never read |eta|
    (
        "transform --eta-abs 1.4e308",
        2, "config error: the phonon dressing leaves the float range at lambda1 = 35 cm^-1, |eta| = 1.4e+308\n",
    ),
    (
        "transform --eta 1e308+1e308j",
        2, "config error: the phonon dressing leaves the float range at lambda1 = 35 cm^-1, |eta| = 1.41421e+308\n",
    ),
    ("sweep --eta-abs 1.4e308 --theta-list 0", 0, "theta=0: minimum 1/alpha="),
    # the root solves 1/alpha = 1000, but lambda2 at it overflows
    (
        "estimate --lambda1 1.7e308 --j12 1e308 --theta-list 0 --target-ratio 1000",
        2, "config error: the phonon dressing leaves the float range at lambda1 = 1.7e+308 cm^-1, |eta| = 0.0648643\n",
    ),
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
        2, "config error: root 0.6035875164103436 fails back-substitution: 1/alpha = 21.99984",
    ),
    # across a theta list the first failing phase decides: theta = 0 has no solution, pi is refused
    (
        "estimate --j12 1e-10 --theta 3.141592653589793 --omega1 -1 --theta-list 0,3.141592653589793",
        4, "no solution: target ratio 22 is below the attainable minimum 1/alpha = 7.21084e+24 (at |eta| = 0.918073)\n",
    ),
    (
        "estimate --j12 1e-10 --theta 3.141592653589793 --omega1 -1 --theta-list 3.141592653589793,0",
        2, "config error: root 0.6035875164103436 fails back-substitution: 1/alpha = 21.999844749350675 vs target 22.0\n",
    ),
    # phase pi solves and phase 0 is refused
    (
        "estimate --target-ratio 10 --theta-list 3.141592653589793,0",
        4, "no solution: target ratio 10 is below the attainable minimum 1/alpha = 13.1587",
    ),
    # both phases leave the float range; the quartic's middle coefficient names the one that decides
    (
        "minimize --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list=0,-2.8055075071403315",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (9.44297e+231, 1.88859e+232, ",
    ),
    (
        "minimize --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list=-2.8055075071403315,0",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (9.44297e+231, -1.78293e+232, ",
    ),
    (
        "sweep --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list=0,-2.8055075071403315",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (9.44297e+231, 1.88859e+232, ",
    ),
    (
        "sweep --omega1 0.0015806336847602389 --omega2 -0.0015806336847602389 --j12 2.04887251289436e-234 "
        "--lambda1 0.009673724125669976 --theta-list=-2.8055075071403315,0",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (9.44297e+231, -1.78293e+232, ",
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
    # no coherence to overflow: the zero vacuum coherences times non-finite RK4 factors read nan
    (
        "evolve --preset exciton1 --gamma-d 0 --t-max 1e24",
        2, "config error: round-off in the RK4 propagator overflows over 5e+21 fs at dt = 0.01 fs: too little decay\n",
    ),
    ("evolve --j12 0 --t-max 1e30", 2, "config error: round-off in the RK4 propagator overflows"),
    ("evolve --gap 1e150 --t-max 1e300", 2, "config error: the phases omega t leave the float range"),
    ("evolve --j12 1e-6 --t-max 1e300 --eta 0", 2, "config error: round-off in the RK4 propagator overflows"),
    # diag(1 + 2e-10, -1e-10, -1e-10) passes the initial check; relaxing at 1 K, its two
    # negative populations pool in rho22 and the numeric stack goes below -1e-10
    (
        "evolve --preset custom --state-file BOUNDARY --temperature 1 --t-max 20000",
        2, "config error: rho must be positive semidefinite",
    ),
    # undamped, the coherent pure state's RK4 phase errors pass -1e-10 from state 1221 on, blocks
    # past the first: the files written so far are removed, and the run leaves no file
    (
        "evolve --preset custom --state-file COHERENT --gamma-d 0 --t-max 1e8 --time-points 2049",
        2, "config error: rho must be positive semidefinite, eigmin=-1.0001475219170971e-10\n",
    ),
    # 1/alpha and the quartic stay within the float range: each ends in a result
    ("sweep --eta-hi 1e300", 0, ""),
    ("minimize --j12 1e150", 0, ""),
    # the minimum lies near 1.69e99 and 1.69e149, and the roots near 0.426 and 6.7e148
    ("minimize --j12 1e200", 0, ""),
    ("minimize --j12 1e300", 0, ""),
    # the quartic overflows to +inf at its outer bound, which keeps its sign there; the minimum
    # sits at |eta| = -2 cos(theta), as a 320-digit bisection in test_analysis.py confirms
    (
        "minimize --gap 3.5397493633080285e-204 --j12=-9.844138212927632e+100 --lambda1 1.9325692867049005e+254 "
        "--theta-list=-2.8309059746152343",
        0, "eta_min=1.90424774, inv_alpha_min=1.10309546",
    ),
    # the dip at |eta| = -2 cos(theta) is narrower than one ulp: 1/alpha reads 1.18e263 at the nearest
    # float, where D/|j12| is below its rounding error, against a true minimum of 3.617
    (
        "minimize --gap 2.9387764396875234e-15 --j12=-8.12263576515887e-147 --lambda1 3.984448444933818e+122 "
        "--theta-list 2.12446401893746",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    (
        "estimate --gap 2.9387764396875234e-15 --j12=-8.12263576515887e-147 --lambda1 3.984448444933818e+122 "
        "--theta-list 2.12446401893746 --target-ratio 4678.196110874603",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    # g^2 and (2 l)^2 x^4 overflow, so f reads -inf below the root and +inf above it, and bisection
    # alone closes in; the 80-digit root is 3.4706353803270964e+128, with 1/alpha 3.7002593361267623e+67
    (
        "minimize --gap 3.003635398016865e+262 --j12 2.845457728783878e+100 --lambda1 124680.70195727742 "
        "--theta-list=-1.1348195448403233",
        0, "eta_min=3.47063538e+128, inv_alpha_min=3.70025934e+67",
    ),
    # lambda1/|j12| overflows, so D/|j12| reads (inf, inf, g)
    (
        "minimize --gap 4.512402310128062e-45 --j12 4.72039685613429e-267 --lambda1 9.990801395411427e+41 "
        "--theta-list=-0.544123579373962",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (inf, inf, ",
    ),
    (
        "estimate --gap 4.512402310128062e-45 --j12 4.72039685613429e-267 --lambda1 9.990801395411427e+41 "
        "--theta-list=-0.544123579373962",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (inf, inf, ",
    ),
    # g underflows to 0, and the bound on the roots, 2 sqrt(2/(2 lambda1/|j12|)), overflows
    (
        "minimize --gap 7.611216223228282e-244 --j12 1.104144954520663e+101 --lambda1 2.2521666884306807e-220 "
        "--theta-list 0.47069462785757876",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    (
        "estimate --gap 7.611216223228282e-244 --j12 1.104144954520663e+101 --lambda1 2.2521666884306807e-220 "
        "--theta-list 0.47069462785757876",
        2, "config error: the quartic in |eta| leaves the float range",
    ),
    ("estimate --j12 1e150", 0, ""),
    # gap/x subnormal: g = gap/|j12| and l = lambda1/|j12| are formed first, so the root is found, not a
    # stray one near 1.13e+129
    (
        "estimate --gap 7.95392511622616e-196 --j12 5.441035539050754e-217 --lambda1 0 "
        "--theta-list=-1.260777110177121 --target-ratio 3.1145384794612873e-258",
        0, "|eta|=8.28329417e+149,",
    ),
    # lambda1 = 0 with g = gap/|j12| past 1e154, where g^2 overflows: 1/alpha = (g^2 + 4)/|eta|^2
    # has no interior minimum, its one root is hypot(g, 2)/sqrt(22), and lambda2 = 0 however large |eta|
    ("minimize --gap 1e200 --j12 1e-10 --lambda1 0 --theta-list 0", 4, "no solution: no interior minimum"),
    ("estimate --gap 1e200 --j12 1e-10 --lambda1 0 --theta-list 0", 0, "|eta|=2.13200716e+209, lambda2=0 cm^-1"),
    ("estimate --gap 1e150 --j12 1 --lambda1 0 --theta-list 0 --target-ratio 1e-10", 0, "|eta|=1e+155, lambda2=0 cm^-1"),
    # every float key is finite
    ("helix --helix-j12 nan", 2, "config error: helix.j12: must be finite"),
    ("helix --helix-j12 inf", 2, "config error: helix.j12: must be finite"),
    ("sweep --eta-hi inf", 2, "config error: sweep.eta_hi: must be finite"),
    # lo < hi, but the grid of 10 points between them repeats floats: refused before any phase is solved
    (
        "sweep --eta-lo 1 --eta-hi 1.0000000000000002 --sweep-points 10",
        2, "config error: sweep.eta_lo/eta_hi: 10 points repeat a float in [1.0, 1.0000000000000002]\n",
    ),
    ("estimate --target-ratio inf", 2, "config error: estimate.target_ratio: must be finite"),
    ("helix --spacing inf", 2, "config error: helix.spacing_angstrom: must be finite"),
    # refusals of the config builder
    ("minimize --theta-list ,", 2, "config error: sweep.theta_list: must not be empty\n"),
    # an input file that cannot be opened is refused by the open that reads it
    (
        "-c no/such/run.ini transform",
        2, "config error: config file no/such/run.ini: [Errno 2] No such file or directory: 'no/such/run.ini'\n",
    ),
    ("-c . transform", 2, "config error: config file .: [Errno 21] Is a directory: '.'\n"),
    ("renorm --modes-file .", 2, "config error: bath.modes_file: [Errno 21] Is a directory: '.'\n"),
    ("evolve --preset custom --state-file .", 2, "config error: initial_state.file: [Errno 21] Is a directory: '.'\n"),
    ("transform --eta abc", 2, "config error: dimer.eta: not a complex number: 'abc'\n"),
    # the modulus is checked where eta enters: nan, and finite parts whose modulus overflows
    ("transform --eta nanj", 2, "config error: dimer.eta: must be finite, got nanj\n"),
    ("transform --eta 1.7e308+1.7e308j", 2, "config error: dimer.eta: must be finite, got (1.7e+308+1.7e+308j)\n"),
    ("evolve --dt 0", 2, "config error: time.dt: must be > 0, got 0.0\n"),
    ("evolve --time-points 1", 2, "config error: time.n_points: must be >= 2, got 1\n"),
    (
        "evolve --preset site3",
        2, "config error: initial_state.preset: must be one of site1, site2, exciton1, exciton2, custom, got 'site3'\n",
    ),
    ("evolve --basis orbital", 2, "config error: output.basis: must be exciton or site, got 'orbital'\n"),
    ("sweep --eta-lo 2 --eta-hi 1", 2, "config error: sweep.eta_lo/eta_hi: need 0 < lo < hi, got 2.0, 1.0\n"),
    ("renorm", 2, "config error: bath.modes_file: required for the renorm subcommand\n"),
    # refusals of the DimerParams and BathSpec constructors
    (
        "transform --omega1 -60 --omega2 60",
        2, "config error: dimer: omega1 must exceed omega2 (site 1 is the higher-frequency site), got omega1=-60.0, omega2=60.0\n",
    ),
    ("transform --lambda1=-1", 2, "config error: dimer: lambda1 must be >= 0, got -1.0\n"),
    ("transform --eta-abs=-1", 2, "config error: dimer: eta_abs must be >= 0, got -1.0\n"),
    ("transform --theta 4", 2, "config error: dimer: theta must lie in [-pi, pi], got 4.0\n"),
    ("transform --temperature=-1", 2, "config error: bath: temperature must be >= 0 K and finite, got -1.0\n"),
    # T = 0 is the vacuum limit: no thermal occupation
    ("transform --temperature 0", 0, "nbar0           = 0\n"),
    ("evolve --temperature 0", 0, ""),
    ("helix --temperature 0", 0, ""),
    ("renorm --modes-file MODES --temperature 0", 0, ""),
    ("transform --gamma-d=-1", 2, "config error: bath: gamma_d must be >= 0 fs^-1, got -1.0\n"),
    # 1/alpha = 0 where |eta|^2 overflows: alpha would be infinite
    ("transform --lambda1 0 --eta-abs 1e170", 2, "config error: alpha cannot be represented at j12 = -96, |eta| = 1e+170: 1/alpha = 0\n"),
    (
        "renorm --modes-file no/such/modes.csv",
        2, "config error: bath.modes_file: [Errno 2] No such file or directory: 'no/such/modes.csv'\n",
    ),
    ("evolve --preset custom", 2, "config error: initial_state.file: required for preset = custom\n"),
    (
        "evolve --preset custom --state-file no/such/state.json",
        2, "config error: initial_state.file: [Errno 2] No such file or directory: 'no/such/state.json'\n",
    ),
    # the target is the least 1/alpha to the bit, so 1/alpha - target is exactly 0 at the
    # stationary point, a piece end of the root search: the tangent counts as one root
    (
        "estimate --target-ratio 13.158734514524669 --theta-list 0",
        0, "theta=0: |eta|=1.64095668, lambda2=244.112827 cm^-1 (1 roots)\n",
    ),
    # the stationary points are finite, but above them 1/alpha reaches 1e300 only past the float range
    (
        "estimate --lambda1 1e-300 --target-ratio 1e300 --theta-list 0",
        2, "config error: the quartic in |eta| leaves the float range at D/|j12| = (2.08333e-302, 4.16667e-302, 1.25)\n",
    ),
]
MODES = Path(__file__).parent / "golden" / "modes.csv"
BOUNDARY = Path(__file__).parent / "golden" / "boundary_state.json"
COHERENT = Path(__file__).parent / "golden" / "coherent_state.json"


@pytest.mark.parametrize(
    "cmdline, code, text", EXIT_CASES, ids=[case[0] for case in EXIT_CASES]
)
def test_inverse_and_evolve_exit_codes(cmdline, code, text, tmp_path, capsys):
    argv = cmdline.replace("MODES", str(MODES)).replace("BOUNDARY", str(BOUNDARY)).replace("COHERENT", str(COHERENT)).split()
    assert main(argv + ["--output-dir", str(tmp_path)]) == code
    # one line on stderr for a refusal, none for a result, whose stdout holds text; no traceback
    out, err = capsys.readouterr()
    if code:
        assert err.startswith(text) and err.count("\n") == 1
    else:
        assert err == "" and text in out
    # a refusal prints and writes nothing, even where earlier phases solved
    if code:
        assert out == "" and list(tmp_path.iterdir()) == []


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
    # id: (the file is a config, a custom state or a mode CSV, its bytes, start of the
    # stderr line); bytes None: the file exists but opening it raises PermissionError
    "ini-not-utf8": ("config", b"\xff[dimer]\n", "config error: config file"),
    # past the decoder's first 8-KiB chunk, a byte is named by its line and its place in that line
    "ini-not-utf8-past-8k": (
        "config", b"[dimer]\n" + b"# a comment line\n" * 600 + b"j12 = -96\r\neta_abs = 0.7\xff\n",
        "config error: config file {path}:603: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte\n",
    ),
    # each line the INI grammar refuses, by its number
    "ini-bare-percent": (
        "config", b"[dimer]\nj12 = 1%\n",
        'config error: config file {path}:2: "%" in a value: no value is interpolated, and a literal "%" is refused\n',
    ),
    "ini-no-section-header": ("config", b"j12 = 5\n", "config error: config file {path}:1: key before any [section] header\n"),
    "ini-indented-line": (
        "config", b"[dimer]\nj12 = 5\n  6\n",
        "config error: config file {path}:3: indented line: no value continues onto another line\n",
    ),
    "ini-colon-delimiter": (
        "config", b"[dimer]\nj12: 5\n", 'config error: config file {path}:2: ":" before "=": write key = value\n',
    ),
    "ini-no-delimiter": ("config", b"[dimer]\n\nj12\n", "config error: config file {path}:3: expected key = value\n"),
    "ini-empty-key": ("config", b"[dimer]\n= 5\n", "config error: config file {path}:2: expected key = value\n"),
    "ini-repeated-key": ("config", b"[dimer]\nj12 = 5\nJ12 = 6\n", "config error: config file {path}:3: key j12 repeats\n"),
    "ini-repeated-section": (
        "config", b"[dimer]\n# again\n[dimer]\n", "config error: config file {path}:3: section [dimer] repeats\n",
    ),
    "ini-malformed-header": (
        "config", b"[dimer] x\n", "config error: config file {path}:1: expected a [section] header alone on its line\n",
    ),
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
    "state-without-rho": (
        "state", b'{"basis": "exciton"}', 'config error: initial_state.file: expected {"basis": ..., "rho": ...}\n',
    ),
    "state-integer-past-float-range": (
        "state", b'{"rho": [[0,0,0],[0,1' + b"0" * 400 + b',0],[0,0,0]]}',
        "config error: initial_state.file: a number in rho lies outside the float range\n",
    ),
    "ini-unopenable": ("config", None, "config error: config file {path}: [Errno 13] Permission denied"),
    "state-unopenable": ("state", None, "config error: initial_state.file: [Errno 13] Permission denied"),
    "modes-unopenable": ("modes", None, "config error: bath.modes_file: [Errno 13] Permission denied"),
    "ini-unknown-key": ("config", b"[dimer]\ncoupling = 5\n", "config error: unknown config key dimer.coupling\n"),
    "ini-eta-not-finite": ("config", b"[dimer]\neta = nanj\n", "config error: dimer.eta: must be finite, got nanj\n"),
    "state-unknown-basis": (
        "state", b'{"basis": "orbital", "rho": [[0,0,0],[0,1,0],[0,0,0]]}',
        "config error: initial_state.file: basis must be one of ('exciton', 'site'), got 'orbital'\n",
    ),
    "state-not-3x3": ("state", b'{"rho": [[1,0],[0,0]]}', "config error: initial_state.file: rho must be 3x3, got shape (2, 2)\n"),
    # JSON as Python reads it admits NaN
    "state-nan": ("state", b'{"rho": [[NaN,0,0],[0,1,0],[0,0,0]]}', "config error: initial_state.file: rho must be finite\n"),
    "state-not-hermitian": (
        "state", b'{"rho": [[0,1,0],[0,1,0],[0,0,0]]}', "config error: initial_state.file: rho must be Hermitian to 1e-12\n",
    ),
    "state-trace-two": (
        "state", b'{"rho": [[1,0,0],[0,1,0],[0,0,0]]}',
        "config error: initial_state.file: rho must have unit trace to 1e-12, got (2+0j)\n",
    ),
    "state-trace-three": (
        "state", b'{"basis": "exciton", "rho": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
        "config error: initial_state.file: rho must have unit trace to 1e-12, got (3+0j)\n",
    ),
    "modes-empty": ("modes", b"", "config error: bath.modes_file: {path}: empty modes file, header row required\n"),
    "modes-wrong-header": (
        "modes", b"omega,V2\n", "config error: bath.modes_file: {path}: expected header omega_k_cm1,V2_k_cm2, got omega,V2\n",
    ),
    "modes-three-columns": (
        "modes", b"omega_k_cm1,V2_k_cm2\n100,1,2\n", "config error: bath.modes_file: {path}:2: expected 2 columns, got 3\n",
    ),
    "modes-not-utf8-past-8k": (
        "modes", b"omega_k_cm1,V2_k_cm2\n" + b"100,1\n" * 2499 + b"100,\xe2\x82\n",
        "config error: bath.modes_file: {path}:2501: 'utf-8' codec can't decode bytes in position 4-5: invalid continuation byte\n",
    ),
    "modes-not-a-number": (
        "modes", b"omega_k_cm1,V2_k_cm2\nabc,1\n",
        "config error: bath.modes_file: {path}:2: could not convert string to float: 'abc'\n",
    ),
    # a cell of any length reads as the float it spells, and the mode is checked as any other
    "modes-field-past-limit": (
        "modes", b"omega_k_cm1,V2_k_cm2\n1" + b"0" * 131072 + b",1\n",
        "config error: bath: mode frequency must be finite and > 0 cm^-1, got inf\n",
    ),
}


# the command line that reads each kind of input file, F standing for the file
FILE_ARGV = {"config": "-c F evolve", "state": "evolve --preset custom --state-file F", "modes": "evolve --modes-file F"}


def refused_input(case, tmp_path, monkeypatch):
    """Write the input file of FILE_CASES[case]; return the argv that reads it and its refusal."""
    kind, content, text = FILE_CASES[case]
    path = tmp_path / "input"
    if content is None:
        # a mode bit would not stop root, so the refusal comes from open itself
        path.write_bytes(b"")
        real_open = open

        def refusing(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", refusing)
    else:
        path.write_bytes(content)
    argv = [str(path) if arg == "F" else arg for arg in FILE_ARGV[kind].split()]
    return argv + ["--output-dir", str(tmp_path)], text.replace("{path}", str(path))


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_unreadable_input_files_exit_2(case, monkeypatch, tmp_path, capsys):
    argv, text = refused_input(case, tmp_path, monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == 1


# --------------------------------------------------------------- INI semantics

INI_SECTIONS = ("dimer", "dimer", "bath", "time", "output", "Dimer", "DEFAULT", "lattice")
INI_KEYS = ("j12", "j12", "omega1", "theta", "eta", "temperature", "t_max", "directory", "J12", "coupling")
INI_VALUES = (
    "-96", "1e3", " 0.5 + 0.2j ", "out%%1", "%%", "%(j12)s", "x%(omega1)sy", "%(missing)s",
    "1%", "%", "", "a b",
)


def ini_text(rng):
    """One INI text of a small grammar: comments, both delimiters, upper-case keys,
    continuation lines, blank lines inside values, duplicates and interpolation."""
    lines = []
    if rng.random() < 0.05:
        lines.append("j12 = 5")  # before any section header
    for _ in range(rng.randint(0, 3)):
        lines += rng.choice(([], [], ["# note"], ["; note"], [""]))
        lines.append(f"[{rng.choice(INI_SECTIONS)}]")
        for _ in range(rng.randint(0, 4)):
            lines += rng.choice(([], [], [], ["# c"], ["; c"], [""]))
            lines.append(rng.choice(INI_KEYS) + rng.choice((" = ", "=", ": ", ":")) + rng.choice(INI_VALUES))
            if rng.random() < 0.15:
                lines += rng.choice(([], [""])) + ["    " + rng.choice(INI_VALUES)]
    return "\n".join(lines) + "\n"


PLAIN_INI_VALUES = ("-96", "1e3", " 0.5 + 0.2j ", "", "a b", "a:b", "x = y", "-96 ; not a comment", "\t7\t", "[x]")
# lines outside the INI grammar, which configparser may read: other delimiters,
# interpolation, indents, continuation lines after a blank line, look-alike headers,
# lines without a key or a delimiter; and grammar lines that may repeat a section or key
INI_ODD_LINES = (
    "j12: 5", "j12 :=5", "omega1:1e3", "directory = out%%1", "j12 = %(omega1)s", "omega1 = x%(j12)sy",
    "j12 = %(missing)s", "j12 = 1%", "[dimer%]", "  x = 1", "    0.5+0.2j", "\n    1e3", "\t-96",
    "[dimer] x", "[dimer]=1", "[]", "[dimer]]", "[[dimer]", "[dimer", "[x = 1", "=5", "x", "[dimer]", "j12 = 7", "J12 = 7",
)


def plain_ini_text(rng):
    """One INI text of grammar lines (comments, blank lines, headers, `key = value` lines,
    upper-case keys) and, in about half the texts, one or two INI_ODD_LINES."""
    lines = []
    for _ in range(rng.randint(0, 3)):
        lines += rng.choice(([], [], ["# note"], ["; note"], [""], ["  ; note %"]))
        lines.append(f"[{rng.choice(INI_SECTIONS)}]")
        for _ in range(rng.randint(0, 4)):
            lines += rng.choice(([], [], [], ["# c"], ["; c"], [""], ["  "]))
            lines.append(rng.choice(INI_KEYS) + rng.choice((" = ", "=", "\t=  ")) + rng.choice(PLAIN_INI_VALUES))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(lines))
            lines[at:at] = rng.choice(INI_ODD_LINES).split("\n")
    return "\n".join(lines) + "\n"


def configparser_sections(text):
    """The sections of an INI text, interpolated, as a fresh ConfigParser reads them."""
    parser = configparser.ConfigParser(default_section="")
    parser.read_string(text)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def fresh_parser_merge(path):
    """The defaults of KEYS overlaid by the file, through a ConfigParser built for this call alone."""
    merged = {}
    for key in KEYS:
        merged.setdefault(key.section, {})[key.name] = key.default
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read(path, encoding="utf-8")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    for section, items in sections.items():
        if section not in merged:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in items:
            if section == "dimer" and key == "eta":
                try:
                    eta = complex(value.replace(" ", ""))
                except ValueError:
                    raise ValueError(f"dimer.eta: not a complex number: {value!r}") from None
                merged["dimer"]["eta_abs"] = repr(abs(eta))
                merged["dimer"]["theta"] = repr(math.atan2(eta.imag, eta.real))
            elif key not in merged[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            else:
                merged[section][key] = value
    return merged


def merge_outcome(merge, path):
    try:
        merged = merge(path)
    except ValueError as exc:
        return "refused", str(exc)
    # the order of sections and keys is part of the result
    return "merged", [(section, list(values.items())) for section, values in merged.items()]


def test_ini_merge_matches_a_fresh_configparser(tmp_path):
    # a text merges as a fresh ConfigParser merges it, or the grammar refuses one of its lines by number
    rng = random.Random(25)
    path = tmp_path / "run.ini"
    by_line = re.compile(rf"config file {re.escape(str(path))}:\d+: ")
    kinds, ways = [], []
    for i in range(400):
        # half the texts of grammar lines, half rich in interpolation, ":" and continuations
        text = (plain_ini_text if i % 2 else ini_text)(rng)
        path.write_text(text, encoding="utf-8")
        got, expected = merge_outcome(_merge_config, str(path)), merge_outcome(fresh_parser_merge, str(path))
        assert got == expected or got[0] == "refused" and by_line.match(got[1]), text
        kinds.append(expected[0])
        ways.append("same" if got == expected else "refused by line")
        # what the grammar reads, before any key is merged, configparser reads too
        with open(path, encoding="utf-8") as fh:
            try:
                sections = cli._ini_sections(fh, str(path))
            except ValueError as exc:
                assert by_line.match(str(exc)), text
            else:
                assert sections == configparser_sections(text), text
    assert kinds.count("merged") >= 50 and kinds.count("refused") >= 50
    assert ways.count("same") >= 50 and ways.count("refused by line") >= 50
    # configparser merges some texts the grammar refuses: "%%", "key: value", continuation lines
    assert len(set(zip(kinds, ways))) == 4


def test_a_percent_reaches_the_output_directory_through_the_flag_alone(monkeypatch, tmp_path, capsys):
    # "%%" meant "%" to configparser; the grammar refuses it rather than read it otherwise
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[output]\ndirectory = out%%1\n", encoding="utf-8")
    assert main(["-c", "run.ini", "transform"]) == 2
    assert capsys.readouterr().err == (
        'config error: config file run.ini:2: "%" in a value: no value is interpolated, and a literal "%" is refused\n'
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]
    assert main(["transform", "--output-dir", "out%1"]) == 0
    assert (tmp_path / "out%1" / "transform.csv").is_file()


@pytest.mark.parametrize(
    "case", ["accepted", *sorted(case for case, row in FILE_CASES.items() if row[0] == "config")]
)
def test_no_ini_section_or_key_outlives_a_call(case, monkeypatch, tmp_path, capsys):
    # the first call reads a file that sets keys, or a file it refuses, perhaps half read
    with monkeypatch.context() as patched:
        if case == "accepted":
            first = tmp_path / "first.ini"
            first.write_text("[dimer]\nj12 = -50\neta = 0.3+0.4j\n[bath]\ntemperature = 77\n", encoding="utf-8")
            assert main(["-c", str(first), "transform", "--output-dir", str(tmp_path / "first")]) == 0
        else:
            argv, _ = refused_input(case, tmp_path, patched)
            assert main(argv) == 2
    capsys.readouterr()
    second = tmp_path / "second.ini"
    second.write_text("[bath]\ngamma_d = 0.02\n", encoding="utf-8")
    assert outputs(["-c", str(second), "transform"], tmp_path / "second", capsys) == outputs(
        ["transform"], tmp_path / "none", capsys
    )


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
    # omega0 of the default dimer, to the bit
    "resonant-mode": (
        "318.9505729247088,1\n", "",
        "config error: mode at 318.9505729247088 cm^-1 sits exactly on the exciton resonance omega0 = 318.9505729247088 cm^-1; "
        "exclude or shift it\n",
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


# an INI as the benchmark writes one: a complex eta, repr floats, a mode file and a theta list
BENCH_INI = """[dimer]
omega1 = 97.27130939029417
omega2 = -41.10462281634516
j12 = -83.61259254939286
lambda1 = 31.772514012785773
eta = 0.6158396232734434-0.9080536097617218j

[bath]
temperature = 254.04012440211283
gamma_d = 0.02711404063052917
modes_file = {modes}

[sweep]
theta_list = 0.0, 0.7853981633974483, 1.5707963267948966, 2.356194490192345, 3.141592653589793, 0.4125
"""


def test_plain_inputs_never_reach_configparser_or_csv_reader(tmp_path):
    # no module of the package imports either (test_package.py pins that); both inputs still read
    rng = random.Random(6)
    modes = tmp_path / "modes.csv"
    modes.write_text(
        "omega_k_cm1,V2_k_cm2\n" + "".join(f"{rng.uniform(20.0, 1500.0)!r},{rng.uniform(0.0, 50.0)!r}\n" for _ in range(3000)),
        encoding="utf-8",
    )
    readme, bench = tmp_path / "readme.ini", tmp_path / "bench.ini"
    readme.write_text(README_INI, encoding="utf-8")
    bench.write_text(BENCH_INI.format(modes=modes), encoding="utf-8")
    assert _merge_config(str(readme))["dimer"]["eta_abs"] == "0.71"
    assert main(["-c", str(bench), "renorm", "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "renorm.csv").read_text(encoding="utf-8").endswith("\nn_modes,3000\n")
