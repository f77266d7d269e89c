"""Tests of the benchmark's own references and output checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import random

import mpmath
import numpy as np
import pytest

import reference as ref
import run
import workloads

FMO = dict(omega1=60.0, omega2=-60.0, j12=-96.0, lambda1=35.0)


def test_minima_at_the_five_paper_phases():
    quoted = [(1.64, 13.2), (1.68, 10.4), (1.80, 5.26), (2.05, 2.10), (2.24, 1.33)]
    for theta, (eta, inv) in zip(ref.PAPER_THETAS, quoted):
        got_eta, got_inv = ref.alpha_minimum(120.0, -96.0, 35.0, theta)
        assert got_eta == pytest.approx(eta, abs=0.01)
        assert got_inv == pytest.approx(inv, rel=0.005)
        # the stationary point is the minimum of a dense grid, and the sign of j12 does not move it
        grid = np.linspace(0.05, 10.0, 200001)
        assert got_inv <= ref.inverse_alpha(120.0, -96.0, 35.0, grid, theta).min() * (1 + 1e-12)
        assert ref.alpha_minimum(120.0, 96.0, 35.0, theta) == (got_eta, got_inv)


def test_eta_and_lambda2_at_ratio_22():
    quoted_eta = [0.71, 0.63, 0.53, 0.47, 0.45]
    quoted_lambda2 = [102.0, 80.0, 45.0, 19.0, 11.0]
    for theta, eta, lam2 in zip(ref.PAPER_THETAS, quoted_eta, quoted_lambda2):
        roots = ref.eta_roots(120.0, -96.0, 35.0, theta, 22.0)
        assert roots[0] == pytest.approx(eta, abs=0.01)
        assert ref.lambda2(35.0, roots[0], theta) == pytest.approx(lam2, abs=1.0)
        for x in roots:
            assert ref.inverse_alpha(120.0, -96.0, 35.0, x, theta) == pytest.approx(22.0, rel=1e-12)


def test_weak_coupling_value():
    assert ref.limit_eta(200.0, 5.0, 14.0) == pytest.approx(10.7, abs=0.05)
    # the full quartic without reorganization energy lands on the same value
    assert ref.eta_roots(200.0, 5.0, 0.0, 0.0, 14.0)[0] == pytest.approx(10.7, abs=0.05)


def test_chain_lattice_value():
    assert 1.0 / ref.helix(4.5, 4000.0, 7.8, 0.02)["alpha"] == pytest.approx(36.6, abs=0.2)


def test_frame_diagonalizes_the_dressed_pair():
    for j12 in (-96.0, 96.0, 3.0):
        f = ref.frame(60.0, -60.0, j12, 35.0, 0.71, 2.0)
        h = np.array([[f["omega1p_cm1"], j12], [j12, f["omega2p_cm1"]]])
        t = ref.embedding(f["phi0_rad"])[1:, 1:]
        d = t.T @ h @ t
        assert np.allclose(d, np.diag([f["omega_plus_cm1"], f["omega_minus_cm1"]]), atol=1e-12, rtol=0)


def test_propagator_matches_mpmath_and_relaxes_to_boltzmann():
    plus, minus, gamma, nbar0, phi0 = ref.evolution_params(**FMO, eta_abs=0.71, theta=0.0,
                                                           temperature=300.0, gamma_d=0.02)
    gen = ref.generator(plus, minus, gamma, nbar0)
    rho0 = workloads.random_state(np.random.default_rng(3))
    times = np.array([0.0, 37.5, 2000.0])
    got = ref.trajectory(gen, rho0, times, phi0, "exciton")
    for t, row in zip(times, got):
        exact = mpmath.expm(mpmath.matrix(gen.tolist()) * t) * mpmath.matrix(rho0.reshape(9).tolist())
        rho = np.array([complex(z) for z in exact]).reshape(3, 3)
        want = [rho[0, 0].real, rho[1, 1].real, rho[2, 2].real, rho[0, 1].real, rho[0, 1].imag,
                rho[0, 2].real, rho[0, 2].imag, rho[1, 2].real, rho[1, 2].imag]
        assert np.allclose(row[1:], want, rtol=0, atol=1e-12)
    late = ref.trajectory(gen, rho0, np.array([50.0 / gamma]), phi0, "exciton")[0]
    omega0 = plus - minus
    assert late[2] / late[3] == pytest.approx(math.exp(-omega0 / (ref.KB_CM1_PER_K * 300.0)), rel=1e-9)


def perturbed(value: float) -> float:
    return value + 1e-6 * max(1.0, abs(value))


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload, picks", [
    ("dynamics", (9,)),
    ("inverse", (0, 1, 2)),
    ("frames", (0, 1, 2)),
])
def test_checker_passes_real_output_and_rejects_one_perturbed_cell(cli, tmp_path, workload, picks):
    ops = workloads.WORKLOADS[workload](np.random.default_rng(11), tmp_path)
    rnd = random.Random(5)
    for op in (ops[i] for i in picks):
        op.check = op.prepare() if op.prepare else None
        _, rc = run.run_op(cli, op)
        failed, _, reason, _ = run.judge(op, rc)
        assert not failed, reason
        for path in sorted(op.outdir.glob("*.csv")):
            text = path.read_text()
            rows = [line.split(",") for line in text.splitlines()]
            cells = [(r, c) for r in range(1, len(rows)) for c in range(1, len(rows[r]))
                     if rows[r][0] != "eta_min"]  # the program knows eta_min to 1e-6 only
            cells += [(r, 0) for r in range(1, len(rows)) if rows[r][0][0] in "0123456789-."]
            for r, c in rnd.sample(cells, min(25, len(cells))):
                bad = [list(row) for row in rows]
                bad[r][c] = repr(perturbed(float(bad[r][c])))
                path.write_text("\n".join(",".join(row) for row in bad) + "\n")
                with pytest.raises((workloads.Mismatch, ValueError)):
                    op.check(op.outdir)
            path.write_text(text)
        op.check(op.outdir)
