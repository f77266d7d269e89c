"""Command-line front end.

Subcommands map one-to-one onto the analyses the library supports:

* transform : dressed frequencies, mixing angle, rates for one config
* sweep     : 1/alpha curves over an |eta| grid for several theta
* minimize  : coordinates of the 1/alpha minimum per theta
* estimate  : |eta| and lambda2 from a lifetime ratio, per theta
* evolve    : analytic and numeric trajectories plus their difference
* helix     : attenuation for sites on an elastic chain
* renorm    : discrete-mode frequency shifts of the exciton pair

Configuration comes from an INI file (flat sections, see DEFAULTS)
with every value overridable by a command-line flag.  All file output
is deterministic: same config, same bytes.

Exit codes: 0 ok, 2 config error, 3 I/O error, 4 no solution (no
interior minimum, or an unattainable lifetime ratio).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .analysis import (
    NoSolutionError,
    estimate_eta,
    find_alpha_minimum,
    sweep_inverse_alpha,
    write_sweep_csv,
    write_theta_table_csv,
)
from .dynamics import (
    EvolutionParams,
    OneExcitationState,
    StepSizeError,
    analytic_trajectory,
    from_site_basis,
    numeric_trajectory,
    trajectory_to_site,
    write_trajectory_csv,
)
from .excitons import DimerParams, exciton_frame, lambda2_from_eta
from .rates import (
    BathSpec,
    ResonantModeError,
    frequency_renormalization,
    helix_attenuation,
    load_modes_csv,
    rate_set,
)
from .units import _fmt

PRESETS = ("site1", "site2", "exciton1", "exciton2", "custom")

DEFAULTS: dict[str, dict[str, str]] = {
    "dimer": {
        "omega1": "60.0",
        "omega2": "-60.0",
        "j12": "-96.0",
        "lambda1": "35.0",
        "eta_abs": "0.71",
        "theta": "0.0",
    },
    "bath": {
        "temperature": "300.0",
        "gamma_d": "0.02",
        "modes_file": "",
    },
    "initial_state": {
        "preset": "site1",
        "file": "",
    },
    "time": {
        "t_max": "2000.0",
        "n_points": "201",
        "dt": "0.01",
    },
    "sweep": {
        "theta_list": "0.0, 0.785398163397448, 1.5707963267949, 2.35619449019234, 3.14159265358979",
        "eta_lo": "0.2",
        "eta_hi": "5.0",
        "n_points": "200",
    },
    "estimate": {
        "target_ratio": "22.0",
    },
    "helix": {
        "spacing_angstrom": "4.5",
        "sound_speed_m_s": "4000.0",
        "j12": "7.8",
    },
    "output": {
        "directory": "out",
        "basis": "exciton",
    },
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    dimer: DimerParams
    bath: BathSpec
    preset: str
    state_file: str
    t_max: float
    time_points: int
    dt: float
    theta_list: tuple[float, ...]
    eta_lo: float
    eta_hi: float
    sweep_points: int
    target_ratio: float
    helix_spacing: float
    helix_speed: float
    helix_j12: float
    outdir: Path
    basis: str


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None


def _merge_config(path: str | None) -> dict[str, dict[str, str]]:
    merged = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return merged
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    for section in parser.sections():
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key == "eta" and section == "dimer":
                eta = _parse_complex("dimer", "eta", value)
                merged["dimer"]["eta_abs"] = repr(abs(eta))
                merged["dimer"]["theta"] = repr(math.atan2(eta.imag, eta.real))
                continue
            if key not in merged[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            merged[section][key] = value
    return merged


def _parse_complex(section: str, key: str, raw: str) -> complex:
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a complex number: {raw!r}") from None


def _apply_overrides(merged: dict[str, dict[str, str]], args: argparse.Namespace) -> None:
    # (attr, section, key) in application order; eta expands before eta_abs/theta
    if getattr(args, "eta", None) is not None:
        eta = _parse_complex("dimer", "eta", args.eta)
        merged["dimer"]["eta_abs"] = repr(abs(eta))
        merged["dimer"]["theta"] = repr(math.atan2(eta.imag, eta.real))
    if getattr(args, "gap", None) is not None:
        merged["dimer"]["omega1"] = repr(0.5 * args.gap)
        merged["dimer"]["omega2"] = repr(-0.5 * args.gap)
    table = [
        ("omega1", "dimer", "omega1"),
        ("omega2", "dimer", "omega2"),
        ("j12", "dimer", "j12"),
        ("lambda1", "dimer", "lambda1"),
        ("eta_abs", "dimer", "eta_abs"),
        ("theta", "dimer", "theta"),
        ("temperature", "bath", "temperature"),
        ("gamma_d", "bath", "gamma_d"),
        ("modes_file", "bath", "modes_file"),
        ("preset", "initial_state", "preset"),
        ("state_file", "initial_state", "file"),
        ("t_max", "time", "t_max"),
        ("time_points", "time", "n_points"),
        ("dt", "time", "dt"),
        ("theta_list", "sweep", "theta_list"),
        ("eta_lo", "sweep", "eta_lo"),
        ("eta_hi", "sweep", "eta_hi"),
        ("sweep_points", "sweep", "n_points"),
        ("target_ratio", "estimate", "target_ratio"),
        ("spacing", "helix", "spacing_angstrom"),
        ("sound_speed", "helix", "sound_speed_m_s"),
        ("helix_j12", "helix", "j12"),
        ("output_dir", "output", "directory"),
        ("basis", "output", "basis"),
    ]
    for attr, section, key in table:
        value = getattr(args, attr, None)
        if value is not None:
            merged[section][key] = str(value)


def build_config(args: argparse.Namespace) -> RunConfig:
    merged = _merge_config(args.config)
    _apply_overrides(merged, args)

    d = merged["dimer"]
    try:
        dimer = DimerParams(
            omega1=_parse_float("dimer", "omega1", d["omega1"]),
            omega2=_parse_float("dimer", "omega2", d["omega2"]),
            j12=_parse_float("dimer", "j12", d["j12"]),
            lambda1=_parse_float("dimer", "lambda1", d["lambda1"]),
            eta_abs=_parse_float("dimer", "eta_abs", d["eta_abs"]),
            theta=_parse_float("dimer", "theta", d["theta"]),
        )
    except ValueError as exc:
        raise ConfigError(f"dimer: {exc}") from None

    b = merged["bath"]
    modes = None
    modes_file = b["modes_file"].strip()
    if modes_file:
        if not Path(modes_file).is_file():
            raise ConfigError(f"bath.modes_file: file not found: {modes_file}")
        try:
            modes = load_modes_csv(modes_file)
        except ValueError as exc:
            raise ConfigError(f"bath.modes_file: {exc}") from None
    try:
        bath = BathSpec(
            temperature=_parse_float("bath", "temperature", b["temperature"]),
            gamma_d=_parse_float("bath", "gamma_d", b["gamma_d"]),
            modes=modes,
        )
    except ValueError as exc:
        raise ConfigError(f"bath: {exc}") from None

    preset = merged["initial_state"]["preset"].strip()
    if preset not in PRESETS:
        raise ConfigError(
            f"initial_state.preset: must be one of {', '.join(PRESETS)}, got {preset!r}"
        )
    state_file = merged["initial_state"]["file"].strip()
    if preset == "custom":
        if not state_file:
            raise ConfigError("initial_state.file: required for preset = custom")
        if not Path(state_file).is_file():
            raise ConfigError(f"initial_state.file: file not found: {state_file}")

    t_max = _parse_float("time", "t_max", merged["time"]["t_max"])
    if not 0.0 < t_max < math.inf:
        raise ConfigError(f"time.t_max: must be finite and > 0 fs, got {t_max}")
    time_points = _parse_int("time", "n_points", merged["time"]["n_points"])
    if time_points < 2:
        raise ConfigError(f"time.n_points: must be >= 2, got {time_points}")
    dt = _parse_float("time", "dt", merged["time"]["dt"])
    if not dt > 0.0:
        raise ConfigError(f"time.dt: must be > 0 fs, got {dt}")
    if not math.isfinite(t_max / dt):
        raise ConfigError(f"time.t_max: t_max/dt must be finite, got {t_max} fs / {dt} fs")

    raw_thetas = merged["sweep"]["theta_list"]
    try:
        theta_list = tuple(float(tok) for tok in raw_thetas.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"sweep.theta_list: not a comma-separated float list: {raw_thetas!r}") from None
    if not theta_list:
        raise ConfigError("sweep.theta_list: must not be empty")
    for theta in theta_list:
        if not -math.pi <= theta <= math.pi:
            raise ConfigError(f"sweep.theta_list: theta must lie in [-pi, pi], got {theta}")
    eta_lo = _parse_float("sweep", "eta_lo", merged["sweep"]["eta_lo"])
    eta_hi = _parse_float("sweep", "eta_hi", merged["sweep"]["eta_hi"])
    if not 0.0 < eta_lo < eta_hi:
        raise ConfigError(f"sweep.eta_lo/eta_hi: need 0 < lo < hi, got {eta_lo}, {eta_hi}")
    sweep_points = _parse_int("sweep", "n_points", merged["sweep"]["n_points"])
    if sweep_points < 2:
        raise ConfigError(f"sweep.n_points: must be >= 2, got {sweep_points}")

    target_ratio = _parse_float("estimate", "target_ratio", merged["estimate"]["target_ratio"])
    if not target_ratio > 0.0:
        raise ConfigError(f"estimate.target_ratio: must be > 0, got {target_ratio}")

    helix_spacing = _parse_float("helix", "spacing_angstrom", merged["helix"]["spacing_angstrom"])
    helix_speed = _parse_float("helix", "sound_speed_m_s", merged["helix"]["sound_speed_m_s"])
    helix_j12 = _parse_float("helix", "j12", merged["helix"]["j12"])
    if not helix_spacing > 0.0:
        raise ConfigError(f"helix.spacing_angstrom: must be > 0, got {helix_spacing}")
    if not helix_speed > 0.0:
        raise ConfigError(f"helix.sound_speed_m_s: must be > 0, got {helix_speed}")

    basis = merged["output"]["basis"].strip()
    if basis not in ("exciton", "site"):
        raise ConfigError(f"output.basis: must be exciton or site, got {basis!r}")

    return RunConfig(
        dimer=dimer,
        bath=bath,
        preset=preset,
        state_file=state_file,
        t_max=t_max,
        time_points=time_points,
        dt=dt,
        theta_list=theta_list,
        eta_lo=eta_lo,
        eta_hi=eta_hi,
        sweep_points=sweep_points,
        target_ratio=target_ratio,
        helix_spacing=helix_spacing,
        helix_speed=helix_speed,
        helix_j12=helix_j12,
        outdir=Path(merged["output"]["directory"]),
        basis=basis,
    )


def _write_keyvalue_csv(fh: IO[str], items: Sequence[tuple[str, str]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in items:
        writer.writerow([key, value])


def _open_out(cfg: RunConfig, name: str) -> IO[str]:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    return open(cfg.outdir / name, "w", newline="", encoding="utf-8")


def _initial_state(cfg: RunConfig, phi0: float) -> OneExcitationState:
    """Build the configured initial state in the exciton basis."""
    if cfg.preset == "site1":
        return from_site_basis(OneExcitationState.pure(1, "site"), phi0)
    if cfg.preset == "site2":
        return from_site_basis(OneExcitationState.pure(2, "site"), phi0)
    if cfg.preset == "exciton1":
        return OneExcitationState.pure(1, "exciton")
    if cfg.preset == "exciton2":
        return OneExcitationState.pure(2, "exciton")
    # custom: JSON {"basis": ..., "rho": 3x3 of number | [re, im]}
    try:
        with open(cfg.state_file, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"initial_state.file: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "rho" not in payload:
        raise ConfigError('initial_state.file: expected {"basis": ..., "rho": ...}')
    basis = payload.get("basis", "exciton")
    rows = payload["rho"]
    try:
        rho = np.array(
            [[_json_complex(cell) for cell in row] for row in rows], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial_state.file: bad rho entry: {exc}") from None
    try:
        state = OneExcitationState(rho=rho, basis=basis)
    except ValueError as exc:
        raise ConfigError(f"initial_state.file: {exc}") from None
    if state.basis == "site":
        return from_site_basis(state, phi0)
    return state


def _json_complex(cell) -> complex:
    if isinstance(cell, (int, float)):
        return complex(cell)
    if isinstance(cell, list) and len(cell) == 2:
        return complex(float(cell[0]), float(cell[1]))
    raise ValueError(f"expected number or [re, im], got {cell!r}")


def cmd_transform(cfg: RunConfig) -> int:
    frame = exciton_frame(cfg.dimer)
    rates = rate_set(cfg.dimer, cfg.bath)
    lam2 = lambda2_from_eta(cfg.dimer.lambda1, cfg.dimer.eta_abs, cfg.dimer.theta)
    items = [
        ("phi0_rad", _fmt(frame.phi0)),
        ("omega1p_cm1", _fmt(frame.omega1p)),
        ("omega2p_cm1", _fmt(frame.omega2p)),
        ("omega_plus_cm1", _fmt(frame.omega_plus)),
        ("omega_minus_cm1", _fmt(frame.omega_minus)),
        ("omega0_cm1", _fmt(frame.omega0)),
        ("nbar0", _fmt(rates.nbar0)),
        ("lambda2_cm1", _fmt(lam2)),
        ("alpha", _fmt(rates.alpha)),
        ("inverse_alpha", _fmt(rates.inverse_alpha)),
        ("gamma_fs1", _fmt(rates.gamma)),
        ("lifetime_fs", "inf" if rates.lifetime is None else _fmt(rates.lifetime)),
    ]
    width = max(len(key) for key, _ in items)
    for key, value in items:
        print(f"{key:<{width}} = {value}")
    with _open_out(cfg, "transform.csv") as fh:
        _write_keyvalue_csv(fh, items)
    return 0


def cmd_sweep(cfg: RunConfig, gnuplot: bool) -> int:
    grid = np.linspace(cfg.eta_lo, cfg.eta_hi, cfg.sweep_points)
    results = [sweep_inverse_alpha(cfg.dimer, th, grid) for th in cfg.theta_list]
    with _open_out(cfg, "sweep.csv") as fh:
        write_sweep_csv(fh, results)
    for res in results:
        print(
            f"theta={_fmt(res.theta)}: minimum 1/alpha={_fmt(res.minimum[1])} "
            f"at |eta|={_fmt(res.minimum[0])}"
        )
    if gnuplot:
        with _open_out(cfg, "sweep.gp") as fh:
            fh.write(_gnuplot_script(cfg.theta_list))
    return 0


def _gnuplot_script(theta_list: Sequence[float]) -> str:
    lines = [
        'set datafile separator ","',
        "set logscale y",
        'set xlabel "|eta|"',
        'set ylabel "1/alpha"',
        "set key top right",
    ]
    plots = [
        f'"sweep.csv" using 2:($1 == {_fmt(th)} ? $3 : 1/0) '
        f'with lines title "theta = {_fmt(th)}"'
        for th in theta_list
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"


def cmd_minimize(cfg: RunConfig) -> int:
    minima = [find_alpha_minimum(cfg.dimer, th) for th in cfg.theta_list]
    rows = [
        ("eta_min", [m[0] for m in minima]),
        ("inv_alpha_min", [m[1] for m in minima]),
    ]
    with _open_out(cfg, "minimize.csv") as fh:
        write_theta_table_csv(fh, cfg.theta_list, rows)
    for th, (eta, inv) in zip(cfg.theta_list, minima):
        print(f"theta={_fmt(th)}: eta_min={_fmt(eta)}, inv_alpha_min={_fmt(inv)}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    estimates = [
        estimate_eta(cfg.dimer, th, cfg.target_ratio) for th in cfg.theta_list
    ]
    rows = [
        ("eta_abs", [e.eta_abs for e in estimates]),
        ("lambda2_cm1", [e.lambda2 for e in estimates]),
    ]
    with _open_out(cfg, "estimate.csv") as fh:
        write_theta_table_csv(fh, cfg.theta_list, rows)
    for th, est in zip(cfg.theta_list, estimates):
        print(
            f"theta={_fmt(th)}: |eta|={_fmt(est.eta_abs)}, "
            f"lambda2={_fmt(est.lambda2)} cm^-1 ({len(est.all_roots)} roots)"
        )
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    params = EvolutionParams.for_dimer(cfg.dimer, cfg.bath)
    rho0 = _initial_state(cfg, params.phi0)
    times = np.linspace(0.0, cfg.t_max, cfg.time_points)

    analytic = analytic_trajectory(rho0, times, params)
    numeric = numeric_trajectory(rho0, times, cfg.dt, params)

    if cfg.basis == "site":
        analytic = trajectory_to_site(analytic, params.phi0)
        numeric = trajectory_to_site(numeric, params.phi0)

    supnorm = np.abs(analytic - numeric).reshape(len(times), 9).max(axis=1)
    with _open_out(cfg, "trajectory_analytic.csv") as fh:
        write_trajectory_csv(fh, times, analytic)
    with _open_out(cfg, "trajectory_numeric.csv") as fh:
        write_trajectory_csv(
            fh,
            times,
            numeric,
            extra_header=("supnorm_vs_analytic",),
            extra_rows=supnorm[:, None],
        )
    print(f"max |analytic - numeric| over the grid: {supnorm.max():.3e}")
    return 0


def cmd_helix(cfg: RunConfig) -> int:
    alpha = helix_attenuation(cfg.helix_spacing, cfg.helix_speed, cfg.helix_j12)
    gamma = alpha * cfg.bath.gamma_d
    items = [
        ("spacing_angstrom", _fmt(cfg.helix_spacing)),
        ("sound_speed_m_s", _fmt(cfg.helix_speed)),
        ("j12_cm1", _fmt(cfg.helix_j12)),
        ("alpha", _fmt(alpha)),
        ("inverse_alpha", _fmt(1.0 / alpha) if alpha > 0.0 else "inf"),
        ("gamma_fs1", _fmt(gamma)),
        ("lifetime_fs", _fmt(1.0 / gamma) if gamma > 0.0 else "inf"),
    ]
    width = max(len(key) for key, _ in items)
    for key, value in items:
        print(f"{key:<{width}} = {value}")
    with _open_out(cfg, "helix.csv") as fh:
        _write_keyvalue_csv(fh, items)
    return 0


def cmd_renorm(cfg: RunConfig) -> int:
    if not cfg.bath.modes:
        raise ConfigError("bath.modes_file: required for the renorm subcommand")
    frame = exciton_frame(cfg.dimer)
    delta_plus, delta_minus = frequency_renormalization(
        cfg.bath.modes, frame.omega0, cfg.bath.temperature
    )
    bar_plus, bar_minus = frame.omega_plus - delta_plus, frame.omega_minus - delta_minus
    items = [
        ("omega_plus_cm1", _fmt(frame.omega_plus)),
        ("omega_minus_cm1", _fmt(frame.omega_minus)),
        ("omega0_cm1", _fmt(frame.omega0)),
        ("delta_plus_cm1", _fmt(delta_plus)),
        ("delta_minus_cm1", _fmt(delta_minus)),
        ("omega_plus_bar_cm1", _fmt(bar_plus)),
        ("omega_minus_bar_cm1", _fmt(bar_minus)),
        ("n_modes", str(len(cfg.bath.modes))),
    ]
    width = max(len(key) for key, _ in items)
    for key, value in items:
        print(f"{key:<{width}} = {value}")
    with _open_out(cfg, "renorm.csv") as fh:
        _write_keyvalue_csv(fh, items)
    return 0


def _add_dimer_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--omega1", type=float, help="site 1 frequency, cm^-1")
    sp.add_argument("--omega2", type=float, help="site 2 frequency, cm^-1")
    sp.add_argument("--gap", type=float, help="omega1 - omega2, split about 0")
    sp.add_argument("--j12", type=float, help="intersite coupling, cm^-1")
    sp.add_argument("--lambda1", type=float, help="site 1 reorganization energy, cm^-1")
    sp.add_argument("--eta-abs", dest="eta_abs", type=float, help="|eta|")
    sp.add_argument("--theta", type=float, help="phase of eta, rad")
    sp.add_argument("--eta", type=str, help="complex eta, e.g. 0.5+0.2j")


def _add_bath_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--temperature", type=float, help="bath temperature, K")
    sp.add_argument("--gamma-d", dest="gamma_d", type=float, help="site dephasing rate, fs^-1")
    sp.add_argument("--modes-file", dest="modes_file", type=str, help="phonon modes CSV")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output-dir", dest="output_dir", type=str, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerdecay",
        description="Collective attenuation of exciton relaxation in a dissipative dimer.",
    )
    parser.add_argument("-c", "--config", type=str, default=None, help="INI config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "transform",
        help="dressed frequencies, mixing angle, rates",
        epilog="transform.csv columns: key,value (keys in printed order)",
    )
    _add_dimer_flags(sp)
    _add_bath_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser(
        "sweep",
        help="1/alpha over an |eta| grid per theta",
        epilog="sweep.csv columns: theta_rad,eta_abs,inverse_alpha",
    )
    _add_dimer_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--theta-list", dest="theta_list", type=str, help="comma-separated thetas, rad")
    sp.add_argument("--eta-lo", dest="eta_lo", type=float, help="grid lower edge")
    sp.add_argument("--eta-hi", dest="eta_hi", type=float, help="grid upper edge")
    sp.add_argument("--sweep-points", dest="sweep_points", type=int, help="grid size")
    sp.add_argument("--gnuplot", action="store_true", help="also write sweep.gp")

    sp = sub.add_parser(
        "minimize",
        help="coordinates of the 1/alpha minimum per theta",
        epilog="minimize.csv rows: eta_min, inv_alpha_min; one column per theta",
    )
    _add_dimer_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--theta-list", dest="theta_list", type=str, help="comma-separated thetas, rad")

    sp = sub.add_parser(
        "estimate",
        help="|eta| and lambda2 from a lifetime ratio",
        epilog="estimate.csv rows: eta_abs, lambda2_cm1; one column per theta",
    )
    _add_dimer_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--theta-list", dest="theta_list", type=str, help="comma-separated thetas, rad")
    sp.add_argument("--target-ratio", dest="target_ratio", type=float, help="gamma_d/gamma to invert")

    sp = sub.add_parser(
        "evolve",
        help="analytic + numeric trajectories and their difference",
        epilog=(
            "trajectory_{analytic,numeric}.csv columns: t_fs,rho00,rho11,rho22,"
            "re_rho01,im_rho01,re_rho02,im_rho02,re_rho12,im_rho12; the numeric "
            "file appends supnorm_vs_analytic"
        ),
    )
    _add_dimer_flags(sp)
    _add_bath_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--preset", type=str, help=f"initial state: {', '.join(PRESETS)}")
    sp.add_argument("--state-file", dest="state_file", type=str, help="JSON state for preset=custom")
    sp.add_argument("--t-max", dest="t_max", type=float, help="final time, fs")
    sp.add_argument("--time-points", dest="time_points", type=int, help="output grid size")
    sp.add_argument("--dt", type=float, help="integrator step, fs")
    sp.add_argument("--basis", type=str, help="output basis: exciton or site")

    sp = sub.add_parser(
        "helix",
        help="attenuation for sites on an elastic chain",
        epilog="helix.csv columns: key,value",
    )
    _add_bath_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--spacing", type=float, help="site spacing, angstrom")
    sp.add_argument("--sound-speed", dest="sound_speed", type=float, help="sound speed, m/s")
    sp.add_argument("--helix-j12", dest="helix_j12", type=float, help="coupling, cm^-1")

    sp = sub.add_parser(
        "renorm",
        help="discrete-mode frequency shifts of the excitons",
        epilog="renorm.csv columns: key,value",
    )
    _add_dimer_flags(sp)
    _add_bath_flags(sp)
    _add_output_flags(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "transform":
            return cmd_transform(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.gnuplot)
        if args.command == "minimize":
            return cmd_minimize(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "helix":
            return cmd_helix(cfg)
        if args.command == "renorm":
            return cmd_renorm(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResonantModeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"config error: time.dt: {exc}", file=sys.stderr)
        return 2
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
