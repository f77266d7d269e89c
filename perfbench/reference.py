"""Independent closed forms of the dimer model, used to check CLI outputs.

Everything here is written from the model's equations with numpy, mpmath
and the standard library only; nothing is imported from the package under
test.  Units follow the package: frequencies in cm^-1, time in fs, rates
in fs^-1, temperature in K, spacing in angstrom, sound speed in m/s.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

C_CM_PER_FS = 2.99792458e-5
KB_CM1_PER_K = 0.69503480
PAPER_THETAS = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi)

mpmath.mp.dps = 40


def angular(omega_cm1: float) -> float:
    """Wavenumber in cm^-1 to angular frequency in rad/fs."""
    return 2.0 * math.pi * C_CM_PER_FS * omega_cm1


def bose(omega_cm1: float, temperature: float) -> float:
    return 1.0 / math.expm1(omega_cm1 / (KB_CM1_PER_K * temperature))


def inverse_alpha(gap: float, j12: float, lambda1: float, x, theta: float):
    """1/alpha = (D^2 + 4 j12^2) / (x^2 j12^2); x may be a numpy array.

    D = gap + 4 lambda1 cos(theta) x + 2 lambda1 x^2 is the renormalized site gap.
    """
    d = gap + 4.0 * lambda1 * math.cos(theta) * x + 2.0 * lambda1 * x * x
    return (d * d + 4.0 * j12 * j12) / (x * x * j12 * j12)


def frame(omega1, omega2, j12, lambda1, eta_abs, theta):
    """Exciton frame and lambda2 of one dimer, as a dict of named values."""
    lambda2 = lambda1 * (1.0 + eta_abs * (2.0 * math.cos(theta) + eta_abs))
    w1p = omega1 - 2.0 * lambda1
    w2p = omega2 - 2.0 * lambda2
    omega0 = math.hypot(w1p - w2p, 2.0 * j12)
    phi0 = math.atan2(-2.0 * j12, w1p - w2p)
    if phi0 > 0.5 * math.pi:
        phi0 -= math.pi
    elif phi0 < -0.5 * math.pi:
        phi0 += math.pi
    mean = 0.5 * (w1p + w2p)
    return {
        "phi0_rad": phi0,
        "omega1p_cm1": w1p,
        "omega2p_cm1": w2p,
        "omega_plus_cm1": mean + 0.5 * omega0,
        "omega_minus_cm1": mean - 0.5 * omega0,
        "omega0_cm1": omega0,
        "lambda2_cm1": lambda2,
    }


def transform(omega1, omega2, j12, lambda1, eta_abs, theta, temperature, gamma_d):
    """Every value `transform` writes, by key."""
    out = frame(omega1, omega2, j12, lambda1, eta_abs, theta)
    alpha = (eta_abs * j12 / out["omega0_cm1"]) ** 2
    out["nbar0"] = bose(out["omega0_cm1"], temperature)
    out["alpha"] = alpha
    out["inverse_alpha"] = 1.0 / alpha
    out["gamma_fs1"] = alpha * gamma_d
    out["lifetime_fs"] = 1.0 / (alpha * gamma_d)
    return out


def helix(spacing, speed, j12, gamma_d):
    """Chain-lattice alpha = ((a/v) omega_J)^2 and the values `helix` writes."""
    alpha = (spacing / speed * 1.0e5 * angular(j12)) ** 2
    return {
        "spacing_angstrom": spacing,
        "sound_speed_m_s": speed,
        "j12_cm1": j12,
        "alpha": alpha,
        "inverse_alpha": 1.0 / alpha,
        "gamma_fs1": alpha * gamma_d,
        "lifetime_fs": 1.0 / (alpha * gamma_d),
    }


def mode_shifts(modes, omega0, temperature):
    """Principal-value shifts (delta_plus, delta_minus) by math.fsum.

    Also returns the sum of absolute terms, which bounds the round-off of
    any summation order.
    """
    plus, minus = [], []
    for w, v2 in modes:
        n = bose(w, temperature)
        plus.append(v2 * (n + 1.0) / (w - omega0))
        minus.append(-v2 * n / (w - omega0))
    scale = math.fsum(abs(t) for t in plus) + math.fsum(abs(t) for t in minus)
    return math.fsum(plus), math.fsum(minus), scale


def renorm(omega1, omega2, j12, lambda1, eta_abs, theta, temperature, modes):
    f = frame(omega1, omega2, j12, lambda1, eta_abs, theta)
    dp, dm, scale = mode_shifts(modes, f["omega0_cm1"], temperature)
    out = {k: f[k] for k in ("omega_plus_cm1", "omega_minus_cm1", "omega0_cm1")}
    out.update(
        delta_plus_cm1=dp,
        delta_minus_cm1=dm,
        omega_plus_bar_cm1=f["omega_plus_cm1"] - dp,
        omega_minus_bar_cm1=f["omega_minus_cm1"] - dm,
        n_modes=float(len(modes)),
    )
    return out, scale


# --- inverse analyses ------------------------------------------------------


def _polymul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyadd(a, b):
    n = max(len(a), len(b))
    a = [mpmath.mpf(0)] * (n - len(a)) + list(a)
    b = [mpmath.mpf(0)] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _positive_real_roots(coeffs):
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    out = []
    for r in roots:
        r = mpmath.mpc(r)
        if abs(r.imag) <= mpmath.mpf(10) ** -25 * max(1, abs(r)) and r.real > 0:
            out.append(r.real)
    return sorted(out)


def _d_poly(gap, lambda1, theta):
    # D(x) = 2 lambda1 x^2 + 4 lambda1 cos(theta) x + gap, highest power first
    lam = mpmath.mpf(lambda1)
    return [2 * lam, 4 * lam * mpmath.cos(mpmath.mpf(theta)), mpmath.mpf(gap)]


def _inv_alpha_mp(gap, j12, lambda1, theta, x):
    d = mpmath.polyval(_d_poly(gap, lambda1, theta), x)
    j2 = mpmath.mpf(j12) ** 2
    return (d * d + 4 * j2) / (x * x * j2)


def alpha_minimum(gap, j12, lambda1, theta):
    """Global interior minimum (eta_min, inv_alpha_min) of 1/alpha over |eta|.

    Stationary points are the positive real roots of the quartic
    4 lambda1 x (c + x) D - D^2 - 4 j12^2 = 0.
    """
    lam = mpmath.mpf(lambda1)
    c = mpmath.cos(mpmath.mpf(theta))
    d = _d_poly(gap, lambda1, theta)
    q = _polymul([4 * lam, 4 * lam * c, mpmath.mpf(0)], d)
    quartic = _polyadd(q, [-x for x in _polymul(d, d)])
    quartic[-1] -= 4 * mpmath.mpf(j12) ** 2
    best = min(
        (_inv_alpha_mp(gap, j12, lambda1, theta, x), x)
        for x in _positive_real_roots(quartic)
    )
    return float(best[1]), float(best[0])


def eta_roots(gap, j12, lambda1, theta, ratio):
    """Positive real roots of D^2 + 4 j12^2 - ratio x^2 j12^2 = 0, ascending."""
    d = _d_poly(gap, lambda1, theta)
    j2 = mpmath.mpf(j12) ** 2
    quartic = _polyadd(_polymul(d, d), [-mpmath.mpf(ratio) * j2, 0, 4 * j2])
    return [float(x) for x in _positive_real_roots(quartic)]


def lambda2(lambda1, eta_abs, theta):
    return lambda1 * (1.0 + eta_abs * (2.0 * math.cos(theta) + eta_abs))


def limit_eta(gap0, j12, ratio):
    """Weak-coupling inversion |eta| = (gap0/|j12|)/sqrt(ratio)."""
    return gap0 / abs(j12) / math.sqrt(ratio)


# --- one-excitation dynamics -------------------------------------------------


def embedding(phi0: float) -> np.ndarray:
    """T with rho_site = T rho_exciton T^T; columns 1, 2 are the excitons."""
    c, s = math.cos(0.5 * phi0), math.sin(0.5 * phi0)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def generator(omega_plus, omega_minus, gamma, nbar0) -> np.ndarray:
    """9x9 Lindblad generator on row-major vec(rho), built by Kronecker products.

    H = diag(0, omega_plus, omega_minus) in rad/fs; jumps |e1><e2| at
    gamma*nbar0 and |e2><e1| at gamma*(nbar0+1).  vec(A rho B) equals
    kron(A, B^T) vec(rho) for row-major vec.
    """
    eye = np.eye(3)
    h = np.diag([0.0, angular(omega_plus), angular(omega_minus)]).astype(complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    up = np.zeros((3, 3), dtype=complex)
    up[1, 2] = 1.0
    for jump, rate in ((up, gamma * nbar0), (up.T.copy(), gamma * (nbar0 + 1.0))):
        n = jump.conj().T @ jump
        gen += rate * (
            np.kron(jump, jump.conj()) - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T))
        )
    return gen


def evolution_params(omega1, omega2, j12, lambda1, eta_abs, theta, temperature, gamma_d):
    f = transform(omega1, omega2, j12, lambda1, eta_abs, theta, temperature, gamma_d)
    return f["omega_plus_cm1"], f["omega_minus_cm1"], f["gamma_fs1"], f["nbar0"], f["phi0_rad"]


def initial_state(preset: str, phi0: float, custom=None) -> np.ndarray:
    """Exciton-basis rho0 for a preset; custom is (basis, 3x3 complex rho)."""
    t = embedding(phi0)
    if preset in ("exciton1", "exciton2"):
        rho = np.zeros((3, 3), dtype=complex)
        k = 1 if preset == "exciton1" else 2
        rho[k, k] = 1.0
        return rho
    if preset in ("site1", "site2"):
        basis, rho = "site", np.zeros((3, 3), dtype=complex)
        k = 1 if preset == "site1" else 2
        rho[k, k] = 1.0
    else:
        basis, rho = custom
    return t.T @ rho @ t if basis == "site" else np.array(rho, dtype=complex)


def trajectory(gen, rho0, times, phi0, basis):
    """exp(t L) rho0 at each time by eigendecomposition; rows are CSV order."""
    w, v = np.linalg.eig(gen)
    coeff = np.linalg.solve(v, rho0.reshape(9))
    flat = (np.exp(np.outer(times, w)) * coeff) @ v.T
    rhos = flat.reshape(len(times), 3, 3)
    if basis == "site":
        t = embedding(phi0)
        rhos = t @ rhos @ t.T
    return np.column_stack(
        [
            times,
            rhos[:, 0, 0].real,
            rhos[:, 1, 1].real,
            rhos[:, 2, 2].real,
            rhos[:, 0, 1].real,
            rhos[:, 0, 1].imag,
            rhos[:, 0, 2].real,
            rhos[:, 0, 2].imag,
            rhos[:, 1, 2].real,
            rhos[:, 1, 2].imag,
        ]
    )
