"""Independent closed forms and quadratures for checking CLI outputs.

Nothing here imports the package under test.  The ellipse x^2/a^2 +
y^2/b^2 = 1 is handled in confocal (Liouville) coordinates: with
c = sqrt(a^2 - b^2) and N = atanh(b/a) the boundary is y = N, the angle
parameter t of (a cos t, b sin t) is the coordinate x, f(x) = c^2 sin^2 x
and q(y) = -c^2 sinh^2 y.  A billiard orbit with tangential momentum xi at
x keeps h = f(x) - xi^2 (f(x) - q(N)) fixed, and the classical separation
of variables turns rotation numbers, actions and circle averages into
one-dimensional quadratures, evaluated here with scipy's adaptive
Gauss-Kronrod rule (the program uses uniform and Gauss-Chebyshev rules).
Arclength comes from incomplete elliptic integrals, Bessel zeros from
scipy.special.jn_zeros.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

TWO_PI = 2.0 * math.pi
EPSREL = 1e-12


def quad(fun, lo, hi, points=None):
    """Adaptive Gauss-Kronrod integral to ~1e-12 relative."""
    val, _ = integrate.quad(fun, lo, hi, epsabs=1e-13, epsrel=EPSREL, limit=400,
                            points=points)
    return val


def quad_vec(fun, lo, hi):
    val, _ = integrate.quad_vec(fun, lo, hi, epsabs=1e-13, epsrel=EPSREL, limit=400)
    return np.asarray(val)


def wrap(d, period=1.0):
    """Distance to the nearest multiple of period, signed."""
    return (np.asarray(d) + 0.5 * period) % period - 0.5 * period


# ---------------------------------------------------------------------------
# Liouville data of the elliptic-coordinate table (c, N)
# ---------------------------------------------------------------------------

class LiouvilleTable:
    """f(x) = c^2 sin^2 x, q(y) = -c^2 sinh^2 y, boundary y = N."""

    def __init__(self, c: float, N: float):
        self.c, self.N = float(c), float(N)
        self.c2 = self.c * self.c
        self.qN = -self.c2 * math.sinh(self.N) ** 2
        self.f_max = self.c2

    def f(self, x):
        return self.c2 * np.sin(x) ** 2

    def leray_norm(self, h: float) -> float:
        """Closed-loop Leray mass int_0^{2pi} dx / sqrt(f - h), h < 0."""
        return 4.0 * quad(lambda x: 1.0 / math.sqrt(self.c2 * math.sin(x) ** 2 - h),
                          0.0, 0.5 * math.pi)

    def caustic_time(self, h: float) -> float:
        """2 int_{y_h}^N dy / sqrt(h - q(y)), y_h the confocal caustic.

        With y = y_h + w^2 and sinh^2 A - sinh^2 B = sinh(A+B) sinh(A-B)
        the integrand is smooth and free of cancellation."""
        y_h = math.asinh(math.sqrt(-h) / self.c)
        top = math.sqrt(self.N - y_h)

        def g(w):
            w2 = w * w
            return 2.0 * w / (self.c * math.sqrt(math.sinh(2.0 * y_h + w2) * math.sinh(w2)))
        return 2.0 * quad(g, 0.0, top)

    def omega(self, h: float) -> float:
        """Rotation number (orbit sense, in (0, 1/2)) of the level h < 0."""
        return self.caustic_time(h) / self.leray_norm(h)

    def action(self, h: float) -> float:
        """I = (1/2pi) int_0^{2pi} sqrt(f - h) dx."""
        return 4.0 * quad(lambda x: math.sqrt(self.c2 * math.sin(x) ** 2 - h),
                          0.0, 0.5 * math.pi) / TWO_PI

    def domega_dI(self, h: float) -> float:
        """d omega / d I from a five-point difference of the oracle omega(h)
        and dI/dh = -(1/4pi) int dx/sqrt(f - h)."""
        dh = 2e-3 * abs(h)
        w = [self.omega(h + k * dh) for k in (-2, -1, 1, 2)]
        dw = (w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * dh)
        dI = -self.leray_norm(h) / (2.0 * TWO_PI)
        return dw / dI

    def radon_rotational(self, h: float, kernels) -> np.ndarray:
        """(h - q_N)^(-1/2) int_0^{2pi} K(x) sqrt((f - q_N)/(f - h)) dx for
        each kernel K (vectorized in x); 1/sin(theta) = sqrt((f-q_N)/(h-q_N))."""
        qN = self.qN

        def g(x):
            f = self.c2 * math.sin(x) ** 2
            return np.array([K(x) for K in kernels]) * math.sqrt((f - qN) / (f - h))
        return quad_vec(g, 0.0, TWO_PI) / math.sqrt(h - qN)

    def radon_librational(self, h: float, K) -> float:
        """Twice the one-branch integral over (x_h, pi - x_h) of
        K(x) / sin(theta) dx / sqrt(f - h), with x = pi/2 - r cos u."""
        x_h = math.asin(math.sqrt(h) / self.c)
        r = 0.5 * math.pi - x_h
        qN = self.qN

        def g(u):
            x = 0.5 * math.pi - r * math.cos(u)
            f_minus_h = self.c2 * math.sin(x - x_h) * math.sin(x + x_h)
            f = self.c2 * math.sin(x) ** 2
            return K(x) * math.sqrt((f - qN) / (h - qN)) * r * math.sin(u) / math.sqrt(f_minus_h)
        return 2.0 * quad(g, 0.0, math.pi)


# ---------------------------------------------------------------------------
# ellipse geometry
# ---------------------------------------------------------------------------

class Ellipse:
    """x^2/a^2 + y^2/b^2 = 1 (a > b), arclength from (a, 0), counterclockwise."""

    def __init__(self, a: float, b: float):
        self.a, self.b = float(a), float(b)
        self.m = 1.0 - (self.b / self.a) ** 2
        self.perimeter = 4.0 * self.a * special.ellipe(self.m)
        self.table = LiouvilleTable(math.sqrt(self.a ** 2 - self.b ** 2),
                                    math.atanh(self.b / self.a))

    def arclength(self, t):
        """s(t) = a (E(m) - E(pi/2 - t | m)), valid for every real t."""
        return self.a * (special.ellipe(self.m) - special.ellipeinc(0.5 * math.pi - np.asarray(t), self.m))

    def speed(self, t):
        return np.hypot(self.a * np.sin(t), self.b * np.cos(t))

    def param(self, s):
        """Angle parameter of arclength s, by Newton on the elliptic integral."""
        s = np.asarray(s, dtype=float)
        t = TWO_PI * s / self.perimeter
        for _ in range(50):
            step = (self.arclength(t) - s) / self.speed(t)
            t = t - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return t

    def point(self, t):
        return self.a * np.cos(t), self.b * np.sin(t)

    def tangent(self, t):
        sp = self.speed(t)
        return -self.a * np.sin(t) / sp, self.b * np.cos(t) / sp

    def level(self, t, xi):
        """Conserved quantity f(t) - xi^2 (f(t) - q_N)."""
        f = self.table.f(t)
        return f - np.asarray(xi) ** 2 * (f - self.table.qN)

    def chord(self, t, xi):
        """Second intersection of the ray xi*T + sqrt(1-xi^2)*nu from t:
        returns (length, x0, y0, dx, dy)."""
        t = np.asarray(t, dtype=float)
        xi = np.asarray(xi, dtype=float)
        x0, y0 = self.point(t)
        tx, ty = self.tangent(t)
        eta = np.sqrt(1.0 - xi * xi)
        dx, dy = xi * tx - eta * ty, xi * ty + eta * tx
        ia2, ib2 = 1.0 / self.a ** 2, 1.0 / self.b ** 2
        ell = -2.0 * (x0 * dx * ia2 + y0 * dy * ib2) / (dx * dx * ia2 + dy * dy * ib2)
        return ell, x0, y0, dx, dy

    def leray_average(self, h: float, g) -> float:
        """Average of g(x) (scalar in x) over the invariant measure of the
        rotational circle at level h with xi > 0: dx/sqrt(f - h), normalized."""
        c2 = self.table.c2

        def w(x):
            return g(x) / math.sqrt(c2 * math.sin(x) ** 2 - h)
        return quad(w, 0.0, TWO_PI, points=[0.5 * math.pi, math.pi, 1.5 * math.pi]) / self.table.leray_norm(h)

    def xi_on_level(self, x, h: float):
        f = self.table.c2 * math.sin(x) ** 2
        return math.sqrt((f - h) / (f - self.table.qN))

    def inv_sin_theta(self, x, h: float):
        f = self.table.c2 * math.sin(x) ** 2
        return math.sqrt((f - self.table.qN) / (h - self.table.qN))

    def mean_chord(self, h: float) -> float:
        return self.leray_average(h, lambda x: float(self.chord(x, self.xi_on_level(x, h))[0]))

    def mean_r2_integral(self, h: float) -> float:
        """Average of int_chord (x^2 + y^2) = |P|^2 l + (P.d) l^2 + l^3/3."""
        def g(x):
            ell, x0, y0, dx, dy = (float(v) for v in self.chord(x, self.xi_on_level(x, h)))
            return (x0 * x0 + y0 * y0) * ell + (x0 * dx + y0 * dy) * ell ** 2 + ell ** 3 / 3.0
        return self.leray_average(h, g)

    def radon_cos_s(self, h: float, m: int, amplitude: float = 1.0) -> float:
        """Circle average of amplitude*cos(2 pi m s/L) / sin(theta)."""
        L = self.perimeter

        def g(x):
            return amplitude * math.cos(TWO_PI * m * float(self.arclength(x)) / L) * self.inv_sin_theta(x, h)
        return self.leray_average(h, g)


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------

def disk_omega(theta: float) -> float:
    """Rotation number of the disk circle xi = cos(theta): theta/pi."""
    return theta / math.pi


def disk_r2_integral(theta: float) -> float:
    """Flow-out integral of x^2 + y^2 over the unit-disk circle at angle theta."""
    s = math.sin(theta)
    return 2.0 * s * math.cos(theta) ** 2 + (2.0 / 3.0) * s ** 3


def bessel_zero(m: int, p: int) -> float:
    return float(special.jn_zeros(m, p)[-1])


def disk_dirichlet(lambda_max: float) -> np.ndarray:
    """Dirichlet eigenvalues of the unit disk up to lambda_max, from
    scipy's Bessel zeros, angular modes m >= 1 counted twice."""
    mu_max = math.sqrt(lambda_max)
    eigs = []
    m = 0
    while True:
        count = int(mu_max / math.pi) + 2
        z = special.jn_zeros(m, count)
        z = z[z <= mu_max]
        if len(z) == 0:
            break
        eigs.extend(np.repeat(z * z, 1 if m == 0 else 2))
        m += 1
    return np.sort(np.array(eigs))


# ---------------------------------------------------------------------------
# interval clusters
# ---------------------------------------------------------------------------

def _solve_endpoint(lam, c, d, side):
    """x + side*2c x^-d = lam by Newton from x = lam (vectorized)."""
    x = np.array(lam, dtype=float)
    for _ in range(60):
        g = x + side * 2.0 * c * x ** (-d) - lam
        dg = 1.0 - side * 2.0 * c * d * x ** (-d - 1.0)
        step = g / dg
        x = x - step
        if np.max(np.abs(step) / x) < 1e-17:
            break
    return x


def clusters(ev: np.ndarray, c: float, d: float, alpha: float):
    """Components of {lam >= alpha : dist(lam, ev) <= 2c lam^-d}, dropping
    those that may be cut by the top of ev, each shrunk by 1.5c end^-d.
    Returns (intervals, raw) as arrays of shape (n, 2)."""
    ev = np.sort(np.asarray(ev, dtype=float))
    above = ev[ev >= alpha]
    lo = _solve_endpoint(above, c, d, +1)
    hi = _solve_endpoint(above, c, d, -1)
    merged = []
    for a, b in zip(lo, hi):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    top = ev[-1]
    raw = np.array([m for m in merged if m[0] >= alpha and m[1] < top - 4.0 * c * top ** (-d)])
    a = raw[:, 0] + 1.5 * c * raw[:, 0] ** (-d)
    b = raw[:, 1] - 1.5 * c * raw[:, 1] ** (-d)
    keep = a < b
    return np.column_stack([a[keep], b[keep]]), raw[keep]


# ---------------------------------------------------------------------------
# Fourier (star-shaped) boundary
# ---------------------------------------------------------------------------

class FourierRadius:
    """rho(t) = rho0 + sum a_k cos kt + b_k sin kt from [rho0, a1, b1, ...]."""

    def __init__(self, coeffs):
        coeffs = [float(v) for v in coeffs]
        pairs = coeffs[1:] + [0.0] * (len(coeffs[1:]) % 2)
        self.rho0 = coeffs[0]
        self.ak = np.array(pairs[0::2])
        self.bk = np.array(pairs[1::2])
        self.k = np.arange(1, len(self.ak) + 1)

    def rho(self, t, order=0):
        arg = np.multiply.outer(np.asarray(t, dtype=float), self.k)
        kk = self.k ** order
        if order == 0:
            return self.rho0 + (np.cos(arg) * self.ak + np.sin(arg) * self.bk) @ np.ones(len(self.k))
        c, s = np.cos(arg), np.sin(arg)
        d = [(c, s), (-s, c), (-c, -s)][order]
        return (d[0] * self.ak * kk + d[1] * self.bk * kk) @ np.ones(len(self.k))

    def tangent(self, t):
        r, dr = self.rho(t), self.rho(t, 1)
        vx = dr * np.cos(t) - r * np.sin(t)
        vy = dr * np.sin(t) + r * np.cos(t)
        sp = np.hypot(vx, vy)
        return vx / sp, vy / sp

    def arclength(self, t: float) -> float:
        def speed(u):
            r = float(self.rho(u))
            dr = float(self.rho(u, 1))
            return math.hypot(r, dr)
        turns, rem = divmod(t, TWO_PI)
        full = quad(speed, 0.0, TWO_PI) if turns else 0.0
        return turns * full + quad(speed, 0.0, rem)
