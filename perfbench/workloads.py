"""Seeded inputs, operations and output checks of the three workloads.

A workload is a fixed list of operations (one round).  Each operation is
one `dimerdecay` command line run with a generated INI file and flags.
The structure of a round (subcommands, presets, bases, grid sizes, mode
counts) is the same for every seed; the seed draws the parameter values.
Every check compares the CSVs an operation wrote with `reference`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Paper defaults (FMO dimer) that the CLI uses when no INI overrides them.
DEFAULT_DIMER = dict(omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0, eta_abs=0.71, theta=0.0)
DEFAULT_BATH = dict(temperature=300.0, gamma_d=0.02)
TRAJECTORY_HEADER = [
    "t_fs", "rho00", "rho11", "rho22", "re_rho01", "im_rho01",
    "re_rho02", "im_rho02", "re_rho12", "im_rho12",
]


class Mismatch(Exception):
    """An operation's output disagrees with the reference."""


@dataclass
class Op:
    """One CLI run: argv, where it writes, and how its output is checked.

    expect is "ok" (exit 0 and correct outputs) or "refuse" (a documented
    refusal, exit 2 or 4, with nothing to check).  prepare() computes the
    reference once, after set-up and outside any timing.
    """

    name: str
    argv: list[str]
    outdir: Path
    expect: str = "ok"
    prepare: Callable[[], Callable[[Path], dict]] | None = None
    check: Callable[[Path], dict] | None = field(default=None, repr=False)


# --- file helpers ------------------------------------------------------------


def write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def read_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise Mismatch(f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def expect_close(what: str, got: float, want: float, rel: float, absolute: float = 0.0) -> None:
    if not abs(got - want) <= rel * abs(want) + absolute:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def read_keyvalue(path: Path) -> dict[str, str]:
    rows = read_rows(path)
    if not rows or rows[0] != ["key", "value"]:
        raise Mismatch(f"{path.name}: bad header {rows[:1]}")
    return {k: v for k, v in rows[1:]}


def check_keyvalue(path: Path, want: dict[str, float], tolerance: Callable[[str], tuple[float, float]]) -> dict:
    got = read_keyvalue(path)
    if list(got) != list(want):
        raise Mismatch(f"{path.name}: keys {list(got)} != {list(want)}")
    for key, value in want.items():
        rel, absolute = tolerance(key)
        expect_close(f"{path.name} {key}", float(got[key]), value, rel, absolute)
    return {}


def draw_dimer(rng: np.random.Generator) -> dict[str, float]:
    """A dimer near the paper's FMO parameters.

    gap - 2 lambda1 > 0 keeps the dressed gap positive for every |eta|
    and theta, so 1/alpha has a single interior minimum.
    """
    gap = float(rng.uniform(100.0, 160.0))
    mean = float(rng.uniform(-40.0, 40.0))
    return dict(
        omega1=mean + 0.5 * gap,
        omega2=mean - 0.5 * gap,
        j12=float(rng.uniform(70.0, 120.0) * rng.choice([-1.0, 1.0])),
        lambda1=float(rng.uniform(20.0, 45.0)),
        eta_abs=float(rng.uniform(0.5, 1.0)),
        theta=float(rng.uniform(0.0, math.pi)),
    )


def draw_bath(rng: np.random.Generator) -> dict[str, float]:
    return dict(temperature=float(rng.uniform(77.0, 320.0)), gamma_d=float(rng.uniform(0.01, 0.04)))


def complex_eta(rng: np.random.Generator) -> tuple[str, float, float]:
    """A complex eta as the INI writes it, with the |eta| and theta the CLI reads."""
    a, b = (float(v) for v in rng.uniform(-1.2, 1.2, size=2))
    return f"{a!r}{b:+}j", abs(complex(a, b)), math.atan2(b, a)


# --- dynamics ------------------------------------------------------------------

# (preset, custom-state basis, output basis, output grid points) per operation:
# every preset in both bases.  Most grids are small, so the median operation
# falls inside a cluster of similar cost; the two fine grids weigh the
# per-output-point work.
DYNAMICS_SLOTS = (
    ("site1", None, "exciton", 21),
    ("site1", None, "site", 201),
    ("site2", None, "exciton", 51),
    ("site2", None, "site", 1001),
    ("exciton1", None, "exciton", 101),
    ("exciton1", None, "site", 31),
    ("exciton2", None, "exciton", 3001),
    ("exciton2", None, "site", 81),
    ("custom", "exciton", "site", 151),
    ("custom", "site", "exciton", 41),
)
DYNAMICS_T_MAX = 2000.0
# The default dimer at 2e4 fs: the RK4 loop's trace drifts past the state's
# 1e-12 check near 17 ps and the CLI raises.  Kept as a failing operation.
LONG_T_MAX = 2.0e4


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix with vacuum weight and vacuum coherences."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    upper = np.triu(rho, 1)
    return upper + upper.conj().T + np.diag(rho.diagonal().real)


def trajectory_check(dimer, bath, preset, custom, basis, n_points, t_max):
    def prepare():
        plus, minus, gamma, nbar0, phi0 = ref.evolution_params(**dimer, **bath)
        rho0 = ref.initial_state(preset, phi0, custom)
        times = np.linspace(0.0, t_max, n_points)
        want = ref.trajectory(ref.generator(plus, minus, gamma, nbar0), rho0, times, phi0, basis)

        def check(outdir: Path) -> dict:
            worst = 0.0
            for name, extra in (("trajectory_analytic.csv", []), ("trajectory_numeric.csv", ["supnorm_vs_analytic"])):
                rows = read_rows(outdir / name)
                if rows[0] != TRAJECTORY_HEADER + extra:
                    raise Mismatch(f"{name}: header {rows[0]}")
                if len(rows) != n_points + 1:
                    raise Mismatch(f"{name}: {len(rows) - 1} rows, expected {n_points}")
                got = np.array(rows[1:], dtype=float)
                if not np.allclose(got[:, 0], want[:, 0], rtol=1e-8, atol=0.0):
                    raise Mismatch(f"{name}: time grid differs")
                err = np.abs(got[:, 1:10] - want[:, 1:10])
                if err.max() > 1e-8:
                    row = int(err.max(axis=1).argmax())
                    raise Mismatch(f"{name}: row {row} off exp(tL) rho0 by {err.max():.3g}")
                pops = got[:, 1:4]
                if np.abs(pops.sum(axis=1) - 1.0).max() > 1e-8 or pops.min() < -1e-9 or pops.max() > 1.0 + 1e-9:
                    raise Mismatch(f"{name}: trace or populations out of range")
                if extra:
                    worst = float(err.max())
                    if got[:, 10].max() > 1e-8 or got[:, 10].min() < 0.0:
                        raise Mismatch(f"{name}: supnorm_vs_analytic above 1e-8")
            return {"numeric_vs_reference": worst}

        return check

    return prepare


def dynamics(rng: np.random.Generator, root: Path) -> list[Op]:
    ops = []
    for i, (preset, state_basis, basis, n_points) in enumerate(DYNAMICS_SLOTS):
        dimer, bath = draw_dimer(rng), draw_bath(rng)
        ini = write_ini(root / f"evolve{i}.ini", {"dimer": dimer, "bath": bath, "time": {"t_max": DYNAMICS_T_MAX}})
        argv = ["-c", str(ini), "evolve", "--preset", preset, "--basis", basis, "--time-points", str(n_points)]
        custom = None
        if preset == "custom":
            rho = random_state(rng)
            custom = (state_basis, rho)
            state = root / f"state{i}.json"
            cells = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
            state.write_text(json.dumps({"basis": state_basis, "rho": cells}), encoding="utf-8")
            argv += ["--state-file", str(state)]
        outdir = root / f"out-evolve{i}"
        ops.append(Op(
            f"evolve.{preset}.{basis}.{n_points}", argv + ["--output-dir", str(outdir)], outdir,
            prepare=trajectory_check(dimer, bath, preset, custom, basis, n_points, DYNAMICS_T_MAX),
        ))
    outdir = root / "out-evolve-long"
    ops.append(Op(
        "evolve.default.t2e4", ["evolve", "--t-max", repr(LONG_T_MAX), "--output-dir", str(outdir)], outdir,
        prepare=trajectory_check(DEFAULT_DIMER, DEFAULT_BATH, "site1", None, "exciton", 201, LONG_T_MAX),
    ))
    return ops


# --- inverse -------------------------------------------------------------------

SWEEP_POINTS = (100, 200, 400, 800)
RANDOM_THETAS = 2
DENSE_GRID = np.geomspace(1e-3, 50.0, 20001)


def inverse_dimer(rng: np.random.Generator) -> tuple[float, float, float]:
    """(gap, j12, lambda1); the INI splits the gap symmetrically, exactly."""
    d = draw_dimer(rng)
    return d["omega1"] - d["omega2"], d["j12"], d["lambda1"]


def theta_list(rng: np.random.Generator) -> list[float]:
    return list(ref.PAPER_THETAS) + [float(t) for t in rng.uniform(0.0, math.pi, RANDOM_THETAS)]


def inverse_ini(path: Path, d: tuple, thetas: list[float], sweep: dict | None = None) -> Path:
    gap, j12, lambda1 = d
    dimer = dict(omega1=0.5 * gap, omega2=-0.5 * gap, j12=j12, lambda1=lambda1)
    sections = {"dimer": dimer, "sweep": {"theta_list": ", ".join(repr(t) for t in thetas), **(sweep or {})}}
    return write_ini(path, sections)


def theta_table(path: Path, thetas: list[float], names: tuple[str, str]) -> list[tuple[float, float]]:
    rows = read_rows(path)
    if len(rows) != 3 or rows[0][0] != "quantity" or len(rows[0]) != len(thetas) + 1:
        raise Mismatch(f"{path.name}: bad table shape")
    for cell, th in zip(rows[0][1:], thetas):
        expect_close(f"{path.name} header", float(cell.removeprefix("theta=")), th, 1e-8, 1e-12)
    if (rows[1][0], rows[2][0]) != names:
        raise Mismatch(f"{path.name}: row names {rows[1][0]}, {rows[2][0]}")
    return [(float(a), float(b)) for a, b in zip(rows[1][1:], rows[2][1:])]


def sweep_op(rng, root, i, n_points) -> Op:
    d, thetas = inverse_dimer(rng), theta_list(rng)
    lo, hi = float(rng.uniform(0.05, 0.5)), float(rng.uniform(3.0, 8.0))
    ini = inverse_ini(root / f"sweep{i}.ini", d, thetas, {"eta_lo": lo, "eta_hi": hi, "n_points": n_points})
    outdir = root / f"out-sweep{i}"

    def prepare():
        grid = np.linspace(lo, hi, n_points)
        want = np.concatenate([ref.inverse_alpha(*d, grid, th) for th in thetas])
        want_theta = np.repeat(thetas, n_points)
        want_eta = np.tile(grid, len(thetas))

        def check(outdir: Path) -> dict:
            rows = read_rows(outdir / "sweep.csv")
            if rows[0] != ["theta_rad", "eta_abs", "inverse_alpha"] or len(rows) != len(want) + 1:
                raise Mismatch("sweep.csv: bad header or row count")
            got = np.array(rows[1:], dtype=float)
            if not (np.allclose(got[:, 0], want_theta, rtol=1e-8, atol=1e-12)
                    and np.allclose(got[:, 1], want_eta, rtol=1e-8, atol=0.0)):
                raise Mismatch("sweep.csv: theta or |eta| column differs from the grid")
            rel = np.abs(got[:, 2] / want - 1.0)
            if rel.max() > 1e-8:
                raise Mismatch(f"sweep.csv: row {int(rel.argmax())} off 1/alpha by {rel.max():.3g} relative")
            return {}

        return check

    return Op(f"sweep.{n_points}", ["-c", str(ini), "sweep", "--output-dir", str(outdir)], outdir, prepare=prepare)


def minimize_op(rng, root, i) -> Op:
    d, thetas = inverse_dimer(rng), theta_list(rng)
    ini = inverse_ini(root / f"minimize{i}.ini", d, thetas)
    outdir = root / f"out-minimize{i}"

    def prepare():
        minima = [ref.alpha_minimum(*d, th) for th in thetas]
        floors = [float(ref.inverse_alpha(*d, DENSE_GRID, th).min()) for th in thetas]

        def check(outdir: Path) -> dict:
            got = theta_table(outdir / "minimize.csv", thetas, ("eta_min", "inv_alpha_min"))
            for th, (eta, inv), (ref_eta, ref_inv), floor in zip(thetas, got, minima, floors):
                expect_close(f"eta_min at theta={th}", eta, ref_eta, 0.0, 1e-5)
                expect_close(f"inv_alpha_min at theta={th}", inv, ref_inv, 1e-8)
                if floor < inv * (1.0 - 1e-8):
                    raise Mismatch(f"theta={th}: dense grid reaches {floor!r} below inv_alpha_min {inv!r}")
            return {}

        return check

    return Op("minimize", ["-c", str(ini), "minimize", "--output-dir", str(outdir)], outdir, prepare=prepare)


def estimate_op(rng, root, i) -> Op:
    d, thetas = inverse_dimer(rng), theta_list(rng)
    # the target must be attainable at every phase of the list
    floor = max(float(ref.inverse_alpha(*d, DENSE_GRID, th).min()) for th in thetas)
    ratio = floor * float(rng.uniform(1.2, 3.0))
    ini = inverse_ini(root / f"estimate{i}.ini", d, thetas)
    outdir = root / f"out-estimate{i}"

    def prepare():
        roots = [ref.eta_roots(*d, th, ratio) for th in thetas]

        def check(outdir: Path) -> dict:
            got = theta_table(outdir / "estimate.csv", thetas, ("eta_abs", "lambda2_cm1"))
            for th, (eta, lam2), rts in zip(thetas, got, roots):
                expect_close(f"1/alpha(eta_abs) at theta={th}", float(ref.inverse_alpha(*d, eta, th)), ratio, 1e-7)
                if rts[0] < eta * (1.0 - 1e-8):
                    raise Mismatch(f"theta={th}: root {rts[0]!r} lies below eta_abs {eta!r}")
                expect_close(f"lambda2 at theta={th}", lam2, ref.lambda2(d[2], eta, th), 1e-7, 1e-9 * d[2])
            return {}

        return check

    argv = ["-c", str(ini), "estimate", "--target-ratio", repr(ratio), "--output-dir", str(outdir)]
    return Op("estimate", argv, outdir, prepare=prepare)


def inverse(rng: np.random.Generator, root: Path) -> list[Op]:
    ops = []
    for i, n_points in enumerate(SWEEP_POINTS):
        ops += [sweep_op(rng, root, i, n_points), minimize_op(rng, root, i), estimate_op(rng, root, i)]
    # zero coupling: a refusal with exit 2 or 4 is the documented outcome;
    # the CLI raises instead, so these count as failed
    for cmd in ("sweep", "minimize"):
        outdir = root / f"out-{cmd}-j0"
        ops.append(Op(f"{cmd}.j12_0", [cmd, "--j12", "0", "--output-dir", str(outdir)], outdir, expect="refuse"))
    return ops


# --- frames ----------------------------------------------------------------------

MODE_COUNTS = (20, 50, 200, 500, 1000, 3000)


def frame_tolerance(key: str) -> tuple[float, float]:
    # frequencies and angles come out of sums and differences of O(100)
    # values, so they get an absolute floor for cancellation
    if key.endswith("_cm1") or key == "phi0_rad":
        return 1e-8, 1e-9
    return 1e-8, 0.0


def frames_dimer(rng: np.random.Generator) -> tuple[dict, dict[str, float], dict[str, float]]:
    """INI dimer section with a complex eta, the parameters the CLI reads, and a bath."""
    d = draw_dimer(rng)
    eta_text, eta_abs, theta = complex_eta(rng)
    section = {k: d[k] for k in ("omega1", "omega2", "j12", "lambda1")}
    section["eta"] = eta_text
    params = dict(section, eta_abs=eta_abs, theta=theta)
    del params["eta"]
    return section, params, draw_bath(rng)


def transform_op(rng, root, i) -> Op:
    section, params, bath = frames_dimer(rng)
    ini = write_ini(root / f"transform{i}.ini", {"dimer": section, "bath": bath})
    outdir = root / f"out-transform{i}"

    def prepare():
        want = ref.transform(**params, **bath)
        keys = ["phi0_rad", "omega1p_cm1", "omega2p_cm1", "omega_plus_cm1", "omega_minus_cm1", "omega0_cm1",
                "nbar0", "lambda2_cm1", "alpha", "inverse_alpha", "gamma_fs1", "lifetime_fs"]
        ordered = {k: want[k] for k in keys}
        return lambda outdir: check_keyvalue(outdir / "transform.csv", ordered, frame_tolerance)

    return Op("transform", ["-c", str(ini), "transform", "--output-dir", str(outdir)], outdir, prepare=prepare)


def helix_op(rng, root, i) -> Op:
    spacing, speed = float(rng.uniform(3.0, 8.0)), float(rng.uniform(2000.0, 6000.0))
    j12 = float(rng.uniform(2.0, 30.0) * rng.choice([-1.0, 1.0]))
    bath = draw_bath(rng)
    ini = write_ini(root / f"helix{i}.ini", {
        "bath": bath, "helix": {"spacing_angstrom": spacing, "sound_speed_m_s": speed, "j12": j12},
    })
    outdir = root / f"out-helix{i}"

    def prepare():
        want = ref.helix(spacing, speed, j12, bath["gamma_d"])
        return lambda outdir: check_keyvalue(outdir / "helix.csv", want, lambda k: (1e-8, 0.0))

    return Op("helix", ["-c", str(ini), "helix", "--output-dir", str(outdir)], outdir, prepare=prepare)


def draw_modes(rng, n, omega0) -> list[tuple[float, float]]:
    """n modes in (20, 1500) cm^-1, none within 5 cm^-1 of the resonance."""
    modes = []
    while len(modes) < n:
        w = float(rng.uniform(20.0, 1500.0))
        if abs(w - omega0) >= 5.0:
            modes.append((w, float(rng.uniform(0.0, 50.0))))
    return modes


def renorm_op(rng, root, i, n_modes) -> Op:
    section, params, bath = frames_dimer(rng)
    omega0 = ref.frame(**params)["omega0_cm1"]
    modes = draw_modes(rng, n_modes, omega0)
    modes_file = root / f"modes{i}.csv"
    modes_file.write_text("omega_k_cm1,V2_k_cm2\n" + "".join(f"{w!r},{v!r}\n" for w, v in modes), encoding="utf-8")
    ini = write_ini(root / f"renorm{i}.ini", {"dimer": section, "bath": dict(bath, modes_file=str(modes_file))})
    outdir = root / f"out-renorm{i}"

    def prepare():
        want, scale = ref.renorm(**params, temperature=bath["temperature"], modes=modes)
        # any summation order is within n * eps * sum|terms| of the exact sum
        summed = n_modes * 2.3e-16 * scale

        def tolerance(key):
            rel, absolute = frame_tolerance(key)
            return rel, absolute + (summed if "delta" in key or "bar" in key else 0.0)

        return lambda outdir: check_keyvalue(outdir / "renorm.csv", want, tolerance)

    return Op(f"renorm.{n_modes}", ["-c", str(ini), "renorm", "--output-dir", str(outdir)], outdir, prepare=prepare)


def frames(rng: np.random.Generator, root: Path) -> list[Op]:
    ops = []
    for i, n_modes in enumerate(MODE_COUNTS):
        ops += [transform_op(rng, root, i), helix_op(rng, root, i), renorm_op(rng, root, i, n_modes)]
    return ops


WORKLOADS = {"dynamics": dynamics, "inverse": inverse, "frames": frames}
