"""Exact references for the inverse analyses: 50-digit mpmath evaluations.

Each takes float inputs exactly.  A triple (c2, c1, c0) is a quadratic
factor c2 x^2 + c1 x + c0; D is the gap polynomial
gap + 2 lambda1 x (2 cos(theta) + x) = (2 lambda1, 4 lambda1 cos(theta), gap).
"""

import math

import mpmath
import numpy as np


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
    float factors (c2, c1, c0) taken exactly."""
    with mpmath.workdps(50):
        a, d, b = ([mpmath.mpf(c) for c in q] for q in (a, d, b))
        f = [a[0] * d[0], a[0] * d[1] + a[1] * d[0], a[0] * d[2] + a[1] * d[1] + a[2] * d[0] + b[0],
             a[1] * d[2] + a[2] * d[1] + b[1], a[2] * d[2] + b[2]]
        # Durand-Kerner reaches the same roots from any generic start; the
        # float roots, nudged off the real axis so a complex pair can form,
        # only save steps
        start = [complex(z) * (1.0 + 1e-8j) for z in np.roots([float(c) for c in f])]
        roots = mpmath.polyroots(f, maxsteps=100, extraprec=60, roots_init=start)
        return sorted(r.real for r in map(mpmath.mpc, roots) if r.real > 0 and abs(r.imag) <= 1e-30 * abs(r))


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
