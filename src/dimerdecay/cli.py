"""Command-line front end.

Subcommands (see SUBCOMMANDS) map one-to-one onto the analyses the
library supports.  Configuration comes from an INI file with flat
sections, every value overridable by a command-line flag; one entry of
KEYS per key gives its default, parser, flag and the subcommands that
take the flag.  All file output is deterministic: same config, same bytes.

Exit codes: 0 ok, 2 config error, 3 I/O error writing an output, 4 no
solution; the README's refusal table lists every refusal with its code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Sequence

from .analysis import (
    SWEEP_CSV_HEADER,
    NoSolutionError,
    estimate_eta,
    find_alpha_minimum,
    sweep_inverse_alpha,
    write_sweep_csv,
    write_theta_table_csv,
)
from .dynamics import (
    _BLOCK,
    TRAJECTORY_CSV_HEADER,
    EvolutionParams,
    OneExcitationState,
    StepSizeError,
    _check_states,
    _checked_times,
    _closed_forms,
    _csv_header,
    _numeric_blocks,
    _rotate,
    _site_map,
    _write_rows,
    from_site_basis,
)
from .excitons import DimerParams, exciton_frame
from .rates import (
    NO_MODES,
    BathSpec,
    Modes,
    _undecodable,
    decay_constant,
    frequency_renormalization,
    helix_attenuation,
    load_modes_csv,
    rate_set,
)
from .units import _fmt

PRESETS = ("site1", "site2", "exciton1", "exciton2", "custom")

SUBCOMMANDS = {  # name: (help, epilog naming the output columns)
    "transform": (
        "dressed frequencies, mixing angle, rates",
        "transform.csv columns: key,value (keys in printed order)",
    ),
    "sweep": (
        "1/alpha over an |eta| grid per theta",
        f"sweep.csv columns: {','.join(SWEEP_CSV_HEADER)}",
    ),
    "minimize": (
        "coordinates of the 1/alpha minimum per theta",
        "minimize.csv rows: eta_min, inv_alpha_min; one column per theta",
    ),
    "estimate": (
        "|eta| and lambda2 from a lifetime ratio",
        "estimate.csv rows: eta_abs, lambda2_cm1; one column per theta",
    ),
    "evolve": (
        "analytic + numeric trajectories and their difference",
        f"trajectory_{{analytic,numeric}}.csv columns: {','.join(TRAJECTORY_CSV_HEADER)}; "
        "the numeric file appends supnorm_vs_analytic",
    ),
    "helix": ("attenuation for sites on an elastic chain", "helix.csv columns: key,value"),
    "renorm": ("discrete-mode frequency shifts of the excitons", "renorm.csv columns: key,value"),
}
DIMER = ("transform", "sweep", "minimize", "estimate", "evolve", "renorm")
BATH = ("transform", "evolve", "helix", "renorm")
INVERSE = ("sweep", "minimize", "estimate")
EVOLVE = ("evolve",)


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _thetas(raw: str) -> tuple[float, ...]:
    thetas = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not thetas:
        raise ValueError("must not be empty")
    for theta in thetas:
        if not -math.pi <= theta <= math.pi:
            raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    return thetas


def _modes(raw: str) -> Modes:
    path = raw.strip()
    if not path:
        return NO_MODES
    try:
        modes = load_modes_csv(path)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    if not modes:
        raise ValueError(f"{path} holds no modes")
    return modes


POSITIVE = (lambda v: v > 0.0, "must be > 0")
AT_LEAST_TWO = (lambda n: n >= 2, "must be >= 2")


@dataclass(frozen=True)
class Key:
    """One config key: INI section and name, parser of the raw string, default,
    flag and help, the subcommands that take the flag, and an optional
    (predicate, message) check on the parsed value.

    `dest`, the flag's argparse destination, names the attribute build_config sets,
    or the DimerParams/BathSpec argument, that the value fills."""

    section: str
    name: str
    parse: Callable[[str], Any]
    default: str
    flag: str
    help: str
    commands: tuple[str, ...]
    check: tuple[Callable[[Any], bool], str] | None = None
    dest: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dest", self.flag[2:].replace("-", "_"))


KEYS = (
    Key("dimer", "omega1", _float, "60.0", "--omega1", "site 1 frequency, cm^-1", DIMER),
    Key("dimer", "omega2", _float, "-60.0", "--omega2", "site 2 frequency, cm^-1", DIMER),
    Key("dimer", "j12", _float, "-96.0", "--j12", "intersite coupling, cm^-1", DIMER),
    Key("dimer", "lambda1", _float, "35.0", "--lambda1", "site 1 reorganization energy, cm^-1", DIMER),
    Key("dimer", "eta_abs", _float, "0.71", "--eta-abs", "|eta|", DIMER),
    Key("dimer", "theta", _float, "0.0", "--theta", "phase of eta, rad", DIMER),
    Key("bath", "temperature", _float, "300.0", "--temperature", "bath temperature, K", BATH),
    Key("bath", "gamma_d", _float, "0.02", "--gamma-d", "site dephasing rate, fs^-1", BATH),
    Key("bath", "modes_file", _modes, "", "--modes-file", "phonon modes CSV", BATH),
    Key(
        "initial_state", "preset", str.strip, "site1", "--preset",
        f"initial state: {', '.join(PRESETS)}", EVOLVE,
        (lambda v: v in PRESETS, f"must be one of {', '.join(PRESETS)}"),
    ),
    Key("initial_state", "file", str.strip, "", "--state-file", "JSON state for preset=custom", EVOLVE),
    Key("time", "t_max", _float, "2000.0", "--t-max", "final time, fs", EVOLVE, POSITIVE),
    Key("time", "n_points", int, "201", "--time-points", "output grid size", EVOLVE, AT_LEAST_TWO),
    Key("time", "dt", _float, "0.01", "--dt", "integrator step, fs", EVOLVE, POSITIVE),
    Key(
        "sweep", "theta_list", _thetas,
        "0.0, 0.785398163397448, 1.5707963267949, 2.35619449019234, 3.14159265358979",
        "--theta-list", "comma-separated thetas, rad", INVERSE,
    ),
    Key("sweep", "eta_lo", _float, "0.2", "--eta-lo", "grid lower edge", ("sweep",)),
    Key("sweep", "eta_hi", _float, "5.0", "--eta-hi", "grid upper edge", ("sweep",)),
    Key("sweep", "n_points", int, "200", "--sweep-points", "grid size", ("sweep",), AT_LEAST_TWO),
    Key(
        "estimate", "target_ratio", _float, "22.0", "--target-ratio", "gamma_d/gamma to invert",
        ("estimate",), POSITIVE,
    ),
    Key(
        "helix", "spacing_angstrom", _float, "4.5", "--spacing", "site spacing, angstrom", ("helix",),
        POSITIVE,
    ),
    Key(
        "helix", "sound_speed_m_s", _float, "4000.0", "--sound-speed", "sound speed, m/s", ("helix",),
        POSITIVE,
    ),
    Key("helix", "j12", _float, "7.8", "--helix-j12", "coupling, cm^-1", ("helix",)),
    Key("output", "directory", os.path.normpath, "out", "--output-dir", "output directory", tuple(SUBCOMMANDS)),
    Key(
        "output", "basis", str.strip, "exciton", "--basis", "output basis: exciton or site", EVOLVE,
        (lambda v: v in ("exciton", "site"), "must be exciton or site"),
    ),
)


def _set_eta(merged: dict[str, dict[str, str]], raw: str) -> None:
    """Expand a complex eta into dimer.eta_abs and dimer.theta."""
    try:
        eta = complex(raw.replace(" ", ""))
    except ValueError:
        raise ValueError(f"dimer.eta: not a complex number: {raw!r}") from None
    try:
        eta_abs = abs(eta)
    except OverflowError:  # finite parts whose modulus exceeds the float range
        eta_abs = math.inf
    if not math.isfinite(eta_abs):
        raise ValueError(f"dimer.eta: must be finite, got {eta}")
    merged["dimer"]["eta_abs"] = repr(eta_abs)
    merged["dimer"]["theta"] = repr(math.atan2(eta.imag, eta.real))


def _ini_sections(fh: IO[str], path: str) -> dict[str, dict[str, str]]:
    """The sections of an INI file in its one grammar; any other line is refused with its number.

    A line is blank, a full-line "#" or ";" comment, a new `[name]` header (the name lies between the
    first "[" and the last "]") or an unindented `key = value` line with a new key under a header, split
    at the first "=", the key rstripped and lower-cased, the value stripped.
    """
    sections: dict[str, dict[str, str]] = {}
    items = None
    for n, line in enumerate(fh, 1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        try:
            if line[0] != text[0]:
                raise ValueError("indented line: no value continues onto another line")
            if text[0] == "[":
                name = text[1:-1]
                if text[-1] != "]" or not name:
                    raise ValueError("expected a [section] header alone on its line")
                if name in sections:
                    raise ValueError(f"section [{name}] repeats")
                items = sections[name] = {}
                continue
            key, eq, value = text.partition("=")
            key = key.rstrip().lower()
            if ":" in key:
                raise ValueError('":" before "=": write key = value')
            if not eq or not key:
                raise ValueError("expected key = value")
            if "%" in value:
                raise ValueError('"%" in a value: no value is interpolated, and a literal "%" is refused')
            if items is None:
                raise ValueError("key before any [section] header")
            if key in items:
                raise ValueError(f"key {key} repeats")
            items[key] = value.strip()
        except ValueError as exc:
            raise ValueError(f"config file {path}:{n}: {exc}") from None
    return sections


def _merge_config(path: str | None) -> dict[str, dict[str, str]]:
    """Raw values per section: the defaults of KEYS overlaid by the INI file."""
    merged: dict[str, dict[str, str]] = {}
    for key in KEYS:
        merged.setdefault(key.section, {})[key.name] = key.default
    if path is None:
        return merged
    try:
        with open(path, encoding="utf-8") as fh:
            sections = _ini_sections(fh, path)
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    except UnicodeDecodeError:  # its position counts from the decoder's chunk, so the line is found again
        n, exc = _undecodable(path)
        raise ValueError(f"config file {path}:{n}: {exc}") from None
    for section, items in sections.items():
        if section not in merged:
            raise ValueError(f"unknown config section [{section}]")
        for key, value in items.items():
            if section == "dimer" and key == "eta":
                _set_eta(merged, value)
            elif key not in merged[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            else:
                merged[section][key] = value
    return merged


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """A checked run configuration: `dimer` (DimerParams), `bath` (BathSpec)
    and one typed attribute per other entry of KEYS, named by its flag
    (`t_max`, `time_points`, `theta_list`, `spacing`, `output_dir`, ...),
    and `gnuplot`, which only sweep's flag sets."""
    merged = _merge_config(args.config)
    # the derived inputs expand first, so an explicit flag for a key they set wins
    if getattr(args, "eta", None) is not None:
        _set_eta(merged, args.eta)
    if getattr(args, "gap", None) is not None:
        merged["dimer"]["omega1"] = repr(0.5 * args.gap)
        merged["dimer"]["omega2"] = repr(-0.5 * args.gap)

    values: dict[str, dict[str, Any]] = {}
    for key in KEYS:
        raw = getattr(args, key.dest, None)
        try:
            value = key.parse(merged[key.section][key.name] if raw is None else raw)
            if key.check is not None and not key.check[0](value):
                raise ValueError(f"{key.check[1]}, got {value!r}")
        except ValueError as exc:
            raise ValueError(f"{key.section}.{key.name}: {exc}") from None
        values.setdefault(key.section, {})[key.dest] = value

    try:
        dimer = DimerParams(**values.pop("dimer"))
    except ValueError as exc:
        raise ValueError(f"dimer: {exc}") from None
    bath = values.pop("bath")
    try:
        bath = BathSpec(bath["temperature"], bath["gamma_d"], modes=bath["modes_file"])
    except ValueError as exc:
        raise ValueError(f"bath: {exc}") from None

    run = {dest: value for section in values.values() for dest, value in section.items()}
    if run["preset"] == "custom" and not run["state_file"]:
        raise ValueError("initial_state.file: required for preset = custom")
    t_max, dt = run["t_max"], run["dt"]
    if not math.isfinite(t_max / dt):
        raise ValueError(f"time.t_max: t_max/dt must be finite, got {t_max} fs / {dt} fs")
    if not 0.0 < run["eta_lo"] < run["eta_hi"]:
        raise ValueError(f"sweep.eta_lo/eta_hi: need 0 < lo < hi, got {run['eta_lo']}, {run['eta_hi']}")
    return argparse.Namespace(dimer=dimer, bath=bath, gnuplot=getattr(args, "gnuplot", False), **run)


def _open_out(cfg: argparse.Namespace, name: str) -> IO[str]:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return open(os.path.join(cfg.output_dir, name), "w", newline="", encoding="utf-8")


def _emit_pairs(cfg: argparse.Namespace, name: str, items: Sequence[tuple[str, str]]) -> int:
    """Print `items` as an aligned key = value block and write them to the CSV `name`."""
    width = max(len(key) for key, _ in items)
    print("\n".join(f"{key:<{width}} = {value}" for key, value in items))
    with _open_out(cfg, name) as fh:
        fh.write("key,value\n" + "".join(f"{key},{value}\n" for key, value in items))
    return 0


def _initial_state(cfg: argparse.Namespace, phi0: float) -> OneExcitationState:
    """Build the configured initial state in the exciton basis."""
    import numpy as np
    if cfg.preset != "custom":  # a preset names a basis and the excited level in it
        state = OneExcitationState.pure(int(cfg.preset[-1]), cfg.preset[:-1])
    else:  # JSON {"basis": ..., "rho": 3x3 of number | [re, im]}
        import json
        try:
            with open(cfg.state_file, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ValueError(f"initial_state.file: {exc}") from None
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
            raise ValueError(f"initial_state.file: invalid JSON: {exc}") from None
        if not isinstance(payload, dict) or "rho" not in payload:
            raise ValueError('initial_state.file: expected {"basis": ..., "rho": ...}')
        try:
            rows = payload["rho"]
            rho = np.array([[_json_complex(cell) for cell in row] for row in rows], dtype=complex)
            state = OneExcitationState(rho=rho, basis=payload.get("basis", "exciton"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"initial_state.file: {exc}") from None
    if state.basis == "site":
        return from_site_basis(state, phi0)
    return state


def _json_complex(cell) -> complex:
    parts = cell if isinstance(cell, list) and len(cell) == 2 else (cell, 0.0)
    # JSON true/false load as bool, a subclass of int, and float() parses strings: neither is a number here
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ValueError(f"expected number or [re, im], got {cell!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # a JSON integer past the float range
        raise ValueError("a number in rho lies outside the float range") from None


def cmd_transform(cfg: argparse.Namespace) -> int:
    rates = rate_set(cfg.dimer, cfg.bath)
    frame = rates.frame
    return _emit_pairs(cfg, "transform.csv", [
        ("phi0_rad", _fmt(frame.phi0)),
        ("omega1p_cm1", _fmt(frame.omega1p)),
        ("omega2p_cm1", _fmt(frame.omega2p)),
        ("omega_plus_cm1", _fmt(frame.omega_plus)),
        ("omega_minus_cm1", _fmt(frame.omega_minus)),
        ("omega0_cm1", _fmt(frame.omega0)),
        ("nbar0", _fmt(rates.nbar0)),
        ("lambda2_cm1", _fmt(frame.lambda2)),
        ("alpha", _fmt(rates.alpha)),
        ("inverse_alpha", _fmt(rates.inverse_alpha)),
        ("gamma_fs1", _fmt(rates.gamma)),
        ("lifetime_fs", _fmt(rates.lifetime)),
    ])


def cmd_sweep(cfg: argparse.Namespace) -> int:
    import numpy as np
    grid = np.linspace(cfg.eta_lo, cfg.eta_hi, cfg.sweep_points)
    if not (np.diff(grid) > 0.0).all():  # lo < hi, but the floats between them may repeat
        raise ValueError(f"sweep.eta_lo/eta_hi: {cfg.sweep_points} points repeat a float in [{cfg.eta_lo}, {cfg.eta_hi}]")
    results = [sweep_inverse_alpha(cfg.dimer, th, grid) for th in cfg.theta_list]
    with _open_out(cfg, "sweep.csv") as fh:
        write_sweep_csv(fh, results)
    for res in results:
        print(
            f"theta={_fmt(res.theta)}: minimum 1/alpha={_fmt(res.minimum[1])} "
            f"at |eta|={_fmt(res.minimum[0])}"
        )
    if cfg.gnuplot:
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


def cmd_minimize(cfg: argparse.Namespace) -> int:
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


def cmd_estimate(cfg: argparse.Namespace) -> int:
    estimates = [estimate_eta(cfg.dimer, th, cfg.target_ratio) for th in cfg.theta_list]
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


def cmd_evolve(cfg: argparse.Namespace) -> int:
    """Stream both trajectories block by block into their CSVs, which appear only whole.

    The grid and the step are checked before the first block.  Each block
    of the grid is stepped on from the last numeric state, checked, paired
    with the closed forms at its times, rotated to the site basis if asked
    and written, so no stage holds more than one block.  The files are
    written under temporary names and moved into place at the end; a
    refusal removes them, and any directory the run made.
    """
    import numpy as np
    params = EvolutionParams.for_dimer(cfg.dimer, cfg.bath)
    rho0 = _initial_state(cfg, params.phi0)
    times = _checked_times(np.linspace(0.0, cfg.t_max, cfg.time_points), params)
    try:
        numeric_blocks = _numeric_blocks(rho0, times, cfg.dt, params)
    except StepSizeError as exc:
        raise ValueError(f"time.dt: {exc}") from None
    site = _site_map(params.phi0) if cfg.basis == "site" else None

    made = _missing_dirs(cfg.output_dir)
    paths = [os.path.join(cfg.output_dir, f"trajectory_{kind}.csv") for kind in ("analytic", "numeric")]
    temps = [os.path.join(cfg.output_dir, f".{os.path.basename(path)}.{os.getpid()}.tmp") for path in paths]
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(temps[0], "w", newline="", encoding="utf-8") as fa, \
                open(temps[1], "w", newline="", encoding="utf-8") as fn:
            fa.write(_csv_header(False))
            fn.write(_csv_header(True))
            supnorm = -math.inf
            for lo, numeric in zip(range(0, len(times), _BLOCK), numeric_blocks):
                _check_states(numeric)
                ts = times[lo:lo + _BLOCK]
                analytic = _closed_forms(rho0, ts, params)
                if site is not None:
                    analytic, numeric = _rotate(analytic, site), _rotate(numeric, site)
                _write_rows(fa, ts, analytic, None)
                # nan, as numpy's max gives it, carries through
                supnorm = np.maximum(supnorm, _write_rows(fn, ts, numeric, analytic))
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:  # the run leaves no file and no directory it made, then refuses as it would
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        for path in made:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    print(f"max |analytic - numeric| over the grid: {supnorm:.3e}")
    return 0


def _missing_dirs(path: str) -> list[str]:
    """``path`` and each of its parents that does not exist yet, deepest first."""
    missing = []
    while path and not os.path.isdir(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_helix(cfg: argparse.Namespace) -> int:
    alpha = helix_attenuation(cfg.spacing, cfg.sound_speed, cfg.helix_j12)
    gamma = decay_constant(alpha, cfg.bath.gamma_d)
    return _emit_pairs(cfg, "helix.csv", [
        ("spacing_angstrom", _fmt(cfg.spacing)),
        ("sound_speed_m_s", _fmt(cfg.sound_speed)),
        ("j12_cm1", _fmt(cfg.helix_j12)),
        ("alpha", _fmt(alpha)),
        ("inverse_alpha", _fmt(1.0 / alpha if alpha else math.inf)),
        ("gamma_fs1", _fmt(gamma)),
        ("lifetime_fs", _fmt(1.0 / gamma if gamma else math.inf)),
    ])


def cmd_renorm(cfg: argparse.Namespace) -> int:
    if not cfg.bath.modes:
        raise ValueError("bath.modes_file: required for the renorm subcommand")
    frame = exciton_frame(cfg.dimer)
    delta_plus, delta_minus = frequency_renormalization(
        cfg.bath.modes, frame.omega0, cfg.bath.temperature
    )
    bar_plus, bar_minus = frame.omega_plus - delta_plus, frame.omega_minus - delta_minus
    for name, bar in (("omega_plus - delta_plus", bar_plus), ("omega_minus - delta_minus", bar_minus)):
        if not math.isfinite(bar):
            raise ValueError(f"the shifted frequency {name} overflows: {bar:.6g}")
    return _emit_pairs(cfg, "renorm.csv", [
        ("omega_plus_cm1", _fmt(frame.omega_plus)),
        ("omega_minus_cm1", _fmt(frame.omega_minus)),
        ("omega0_cm1", _fmt(frame.omega0)),
        ("delta_plus_cm1", _fmt(delta_plus)),
        ("delta_minus_cm1", _fmt(delta_minus)),
        ("omega_plus_bar_cm1", _fmt(bar_plus)),
        ("omega_minus_bar_cm1", _fmt(bar_minus)),
        ("n_modes", str(len(cfg.bath.modes))),
    ])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand with its flags; built once per process."""
    parser = argparse.ArgumentParser(
        prog="dimerdecay",
        description="Collective attenuation of exciton relaxation in a dissipative dimer.",
    )
    parser.add_argument("-c", "--config", type=str, default=None, help="INI config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, epilog) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, epilog=epilog)
        if name in DIMER:
            sp.add_argument("--gap", type=float, help="omega1 - omega2, split about 0")
            sp.add_argument("--eta", help="complex eta, e.g. 0.5+0.2j")
        for key in KEYS:
            if name in key.commands:
                sp.add_argument(key.flag, help=key.help)
        if name == "sweep":
            sp.add_argument("--gnuplot", action="store_true", help="also write sweep.gp")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = ()
    with warnings.catch_warnings(record=True) as caught:
        # the library's own warnings; any other meets the filters in force
        warnings.simplefilter("always", UserWarning)
        try:
            # looked up per call, so that a wrapper later bound to a cmd_* name is the one run
            code = globals()[f"cmd_{args.command}"](build_config(args))
        except NoSolutionError as exc:
            code, error = 4, (f"no solution: {exc}",)
        except ValueError as exc:  # a bad config and every input the library refuses
            code, error = 2, (f"config error: {exc}",)
        except OSError as exc:
            code, error = 3, (f"i/o error: {exc}",)
    # the warnings, then the refusal; one line each: the default warning format
    # adds the source line, and a message may quote a path that holds a line break
    for line in [*(f"warning: {w.message}" for w in caught), *error]:
        print(line.replace("\n", " "), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
