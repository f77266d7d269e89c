"""References for the tests: exact inverse analyses and the 9x9 one-excitation generator.

The inverse references are 50-digit mpmath evaluations.  Each takes float
inputs exactly.  A triple (c2, c1, c0) is a quadratic factor
c2 x^2 + c1 x + c0; D is the gap polynomial
gap + 2 lambda1 x (2 cos(theta) + x) = (2 lambda1, 4 lambda1 cos(theta), gap).

The generator references act on the row-major flattened exciton-frame rho
{vacuum, e+, e-}: generator_matrix writes out the one-excitation
generator of EvolutionParams entry by entry, dimer_generator builds it from
the dimer and the bath alone, and rk4_increment and powered_increment are
the RK4 step map on it and its n-th power.  rk4_error is the error of
numeric_trajectory against the closed forms in 50-digit arithmetic.
"""

import cmath
import math

import mpmath
import numpy as np

# 2 pi c with c in cm/fs: an angular frequency in rad/fs per cm^-1
RAD_PER_FS_PER_CM1 = 2.0 * math.pi * 2.99792458e-5
# Boltzmann constant over hc, cm^-1 per kelvin
KB_CM1_PER_K = 0.69503480


def inverse_alpha(d, j2, x):
    """1/alpha = D(x)^2 / (x^2 j12^2) + 4 / x^2 at |eta| = x, at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return ((d[0] * x + d[1]) * x + d[2]) ** 2 / (x * x * j2) + 4 / (x * x)


def least(d, j2, xs):
    """The x of xs with the least 1/alpha: the interior minimum among stationary points."""
    inv = [inverse_alpha(d, j2, x) for x in xs]
    return xs[inv.index(min(inv))]


def positive_roots(a, d, b):
    """Positive real roots of A D + B by mpmath.polyroots at 50 digits, the
    float factors (c2, c1, c0) taken exactly.  Its error is absolute, about
    1e-50 of the largest root, so a root smaller than that reads 0 and is
    dropped."""
    with mpmath.workdps(50):
        a, d, b = ([mpmath.mpf(c) for c in q] for q in (a, d, b))
        f = [a[0] * d[0], a[0] * d[1] + a[1] * d[0], a[0] * d[2] + a[1] * d[1] + a[2] * d[0] + b[0],
             a[1] * d[2] + a[2] * d[1] + b[1], a[2] * d[2] + b[2]]
        f = f[next(k for k, c in enumerate(f) if c):]
        if len(f) == 1:
            return []
        # Durand-Kerner reaches the same roots from any generic start; starts at
        # the magnitudes of the Newton polygon only save steps, and the extra
        # bits carry the spread of the coefficients, so roots 1e150 apart converge
        spread = max(map(abs, f)) / min(abs(c) for c in f if c)
        roots = mpmath.polyroots(f, maxsteps=200, extraprec=60 + int(mpmath.log(spread, 2)), roots_init=_starts(f))
        return sorted(r.real for r in map(mpmath.mpc, roots) if r.real > 0 and abs(r.imag) <= 1e-30 * abs(r))


def _starts(f):
    """Starting points for the roots of f, highest power first: on circles whose radii
    are the slopes of the upper convex hull of (power, log|coefficient|), each
    repeated as many times as its edge is wide, so each root starts near its magnitude."""
    n = len(f) - 1
    hull = []
    for q in [(i, float(mpmath.log(abs(f[n - i])))) for i in range(n + 1) if f[n - i]]:
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
                                 <= (q[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    return [math.exp((li - lj) / (j - i)) * cmath.exp(1j * (2.0 * math.pi * k / (j - i) + 0.4))
            for (i, li), (j, lj) in zip(hull, hull[1:]) for k in range(j - i)]


def minimum(p, theta):
    """eta_min at 50 digits: the stationary point of least 1/alpha, from
    (2 lambda1 x^2 - gap) D - 4 j12^2 taken in x = s y with s = max(1, sqrt|j12|),
    which keeps the quartic in y well scaled."""
    with mpmath.workdps(50):
        gap, lam, j, c = (mpmath.mpf(v) for v in (p.gap, p.lambda1, p.j12, math.cos(theta)))
        s = max(mpmath.mpf(1), mpmath.sqrt(abs(j)))
        a2, d2, d1 = 2 * lam * s * s, 2 * lam * s * s, 4 * lam * c * s
        f = [a2 * d2, a2 * d1, a2 * gap - gap * d2, -gap * d1, -gap * gap - 4 * j * j]
        ys = mpmath.polyroots(f, maxsteps=200, extraprec=100)
        xs = [s * y.real for y in map(mpmath.mpc, ys) if y.real > 0 and abs(y.imag) <= 1e-30 * abs(y)]
        return least((2 * lam, 4 * lam * c, gap), j * j, xs)


def generator_matrix(p):
    """9x9 matrix of the generator of EvolutionParams p, entry by entry.

    Commutator with diag(0, omega_plus, omega_minus) in angular units plus
    the two-jump dissipator.  The commutator and the anticommutator terms
    are diagonal, and the two jumps feed rho11 from rho22 and back, so the
    map is trace-free.
    """
    w = RAD_PER_FS_PER_CM1 * np.array([0.0, p.omega_plus, p.omega_minus])
    rate_up = p.gamma * p.nbar0  # absorption, e2 -> e1
    rate_dn = p.gamma * (p.nbar0 + 1.0)  # emission, e1 -> e2
    loss = np.array([0.0, rate_dn, rate_up])  # out-rate of each level
    m = np.diag((-1j * (w[:, None] - w[None, :]) - 0.5 * (loss[:, None] + loss[None, :])).reshape(9))
    m[4, 8] = rate_up
    m[8, 4] = rate_dn
    return m


def rk4_increment(hm):
    """Increment D of one classical 4-stage step, y -> y + D y, for y' = M y.

    hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24: the k1..k4 combination collapsed
    onto a linear autonomous system.
    """
    eye = np.eye(len(hm), dtype=complex)
    return hm @ (eye + hm @ (eye / 2.0 + hm @ (eye / 6.0 + hm / 24.0)))


def powered_increment(incr, n):
    """E with (I + D)^n = I + E, for n >= 1, by binary powering.

    Squares as E <- 2E + E E and combines as E_a + E_b + E_a E_b, so I + D
    is never formed and the identity never swamps the small increment.
    """
    out = None
    while True:
        if n & 1:
            out = incr if out is None else out + incr + out @ incr
        n >>= 1
        if not n:
            return out
        incr = 2.0 * incr + incr @ incr


def dimer_generator(p, bath):
    """9x9 generator on the exciton-frame rho of DimerParams p in BathSpec bath, from operators.

    Independent of the closed-form rates: the dressed site Hamiltonian
    [[omega1 - 2 lambda1, j12], [j12, omega2 - 2 lambda2]], lambda2 =
    lambda1 |1 + eta|^2, is diagonalized by eigh; its eigenvalues are the
    exciton frequencies and its eigenvectors e- and e+ span the frame.  The
    system side of the bath coupling, V = diag(1, 1 + eta) on the sites
    (0 on the vacuum), is split into its Bohr components in that basis.  The
    -omega0 component m |e-><e+| is the emission jump, at rate
    gamma_d |m|^2 (nbar0 + 1); the +omega0 component m' |e+><e-| is the
    absorption jump, at rate gamma_d |m'|^2 nbar0; nbar0 = 1/(exp(omega0/kT) - 1)
    at the eigenvalue gap omega0.  The model's one assumption: the
    zero-frequency component of V gives no pure dephasing, so it is left out.
    """
    eta = p.eta_abs * complex(math.cos(p.theta), math.sin(p.theta))
    lambda2 = p.lambda1 * abs(1.0 + eta) ** 2
    site = np.array([[p.omega1 - 2.0 * p.lambda1, p.j12], [p.j12, p.omega2 - 2.0 * lambda2]])
    (e_minus, e_plus), vectors = np.linalg.eigh(site)  # ascending
    frame = np.zeros((3, 3))
    frame[0, 0] = 1.0
    frame[1:, 1], frame[1:, 2] = vectors[:, 1], vectors[:, 0]  # columns: vacuum, e+, e-
    v = frame.T @ np.diag([0.0, 1.0, 1.0 + eta]) @ frame
    lower, raise_ = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
    lower[2, 1], raise_[1, 2] = v[2, 1], v[1, 2]
    x = (e_plus - e_minus) / (KB_CM1_PER_K * bath.temperature) if bath.temperature else math.inf
    nbar0 = math.exp(-x) / -math.expm1(-x)
    jumps = ((lower, bath.gamma_d * (nbar0 + 1.0)), (raise_, bath.gamma_d * nbar0))
    h = RAD_PER_FS_PER_CM1 * np.diag([0.0, e_plus, e_minus])

    def act(rho):
        out = -1j * (h @ rho - rho @ h)
        for jump, rate in jumps:
            n = jump.conj().T @ jump
            out += rate * (jump @ rho @ jump.conj().T - 0.5 * (n @ rho + rho @ n))
        return out

    return np.column_stack([act(unit.reshape(3, 3)).reshape(9) for unit in np.eye(9, dtype=complex)])


def rk4_error(rho, times, dt, lams, dn, up):
    """The error of numeric_trajectory from rho over times, in exact arithmetic, as a (T, 3, 3) stack.

    lams are the generator's eigenvalues on rho01, rho02, rho12 and on the
    populations, and dn and up the emission and absorption rates, all taken
    exactly; the steps are numeric_trajectory's, n = ceil(t/dt) of
    h = t/n per interval t.  Coherence k is then off by
    c_k(0) (prod R(h lam_k)^n - exp(lam_k t)), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    and rho11 by the same factor at the population eigenvalue times
    (dn rho11(0) - up rho22(0)) / (dn + up), rho22 by minus that.
    """
    times = np.asarray(times, dtype=float).tolist()
    out = np.zeros((len(times), 3, 3), dtype=complex)
    with mpmath.workdps(50):
        g = mpmath.mpf(dn) + mpmath.mpf(up)
        weights = [complex(rho[0, 1]), complex(rho[0, 2]), complex(rho[1, 2]),
                   (dn * mpmath.mpf(rho[1, 1].real) - up * mpmath.mpf(rho[2, 2].real)) / g if g else 0]
        for k, (lam, weight) in enumerate(zip(lams, weights)):
            lam, powers, power = mpmath.mpmathify(lam), {}, mpmath.mpf(1)
            for j, t in enumerate(times):
                step = t - times[j - 1] if j else 0.0
                if step > 0.0:
                    n = max(1, math.ceil(step / dt - 1e-9))
                    key = (n, step / n)
                    if key not in powers:
                        z = key[1] * lam
                        powers[key] = mpmath.exp(n * mpmath.log(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24))
                    power *= powers[key]
                out[j].flat[(1, 2, 5, 4)[k]] = complex(weight * (power - mpmath.exp(lam * t)))
    out[:, 2, 2] = -out[:, 1, 1]
    out[:, (1, 2, 2), (0, 0, 1)] = out[:, (0, 0, 1), (1, 2, 2)].conj()
    return out
