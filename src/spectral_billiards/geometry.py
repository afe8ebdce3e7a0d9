"""Billiard-table boundaries and two-dimensional Liouville tables.

Curves are parametrized twice: by a 2*pi-periodic construction parameter t
(polar/ellipse angle) and by arclength s in [0, total_length).  The bridge
between the two is a Fourier integral of the speed |r'(t)|, which is
spectrally accurate for smooth curves, inverted by Newton iteration.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, GlancingRay, NewtonDivergence,
                     NoTransversalHit, ValidationError)
from .roots import float_newton

_ARCLENGTH_SAMPLES = 4096

TWO_PI = 2.0 * math.pi

EPS_GLANCE = 1e-6          # orbits stop once |xi| exceeds 1 - EPS_GLANCE


class BoundaryCurve:
    """Closed convex planar curve with arclength parametrization.

    Subclasses supply the t-parametrization (``position_t`` and its two
    derivatives) and the billiard bounce, as ``step_many`` on arrays and
    either ``step`` on one point, which the base ``orbit_t`` iterates, or
    an ``orbit_t`` of their own; this base class builds total_length, s <-> t
    conversion and the s-parametrized geometry accessors on top of it.
    """

    kind = "generic"

    def __init__(self):
        self._build_arclength()

    # t-parametrization, to be provided by subclasses (vectorized in t)
    def position_t(self, t):
        raise NotImplementedError

    def velocity_t(self, t):
        raise NotImplementedError

    def acceleration_t(self, t):
        raise NotImplementedError

    def speed_t(self, t):
        vx, vy = self.velocity_t(t)
        return np.hypot(vx, vy)

    def _build_arclength(self):
        m = _ARCLENGTH_SAMPLES
        t = 2.0 * np.pi * np.arange(m) / m
        speed = self.speed_t(t)
        coeffs = np.fft.rfft(speed) / m
        self._mean_speed = coeffs[0].real
        k = np.arange(1, len(coeffs))
        keep = np.abs(coeffs[1:]) > 1e-16 * self._mean_speed
        # the integral of sum 2*Re(c_k e^{ikt}) is 2*Im(P(e^{it})) + const
        # with P(z) = sum_k (c_k/k) z^k; the kept k are multiples of their gcd
        # g (even harmonics only on an ellipse), so Horner runs in w = z^g,
        # top coefficient first
        top = k[keep].max(initial=0)
        self._arc_gcd = max(int(np.gcd.reduce(k[keep])), 1)
        poly = np.where(keep[:top], coeffs[1: top + 1] / k[:top], 0.0)
        self._arc_horner = poly[self._arc_gcd - 1::self._arc_gcd][::-1].tolist()
        self._arc_offset = -2.0 * float(np.imag(poly).sum())
        self.total_length = 2.0 * np.pi * self._mean_speed

    def arclength_of_param(self, t):
        """Cumulative arclength s(t) from t=0, exact for the Fourier model:
        mean speed times t plus 2*Im(P(e^{it})), P evaluated by Horner's
        rule in w = e^{igt} from one complex exponential per point."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        w = np.exp(1j * (self._arc_gcd * t))
        acc = np.zeros_like(w)
        for c in self._arc_horner:
            # not in place: numpy's in-place complex product on a length-1
            # array rounds differently, and batches must equal single points
            acc = (acc + c) * w
        s = self._mean_speed * t + 2.0 * acc.imag + self._arc_offset
        return float(s[0]) if scalar else s

    def param_of_arclength(self, s):
        """Newton inverse of arclength_of_param; each entry of an array stops
        on its own, so a batch equals one-at-a-time calls bit for bit."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = s / self._mean_speed
        tol = 1e-14 * max(1.0, self.total_length)
        live = np.arange(len(t))
        for _ in range(60):
            tl = t[live]
            f = self.arclength_of_param(tl) - s[live]
            t[live] = tl - f / self.speed_t(tl)
            live = live[np.abs(f) >= tol]
            if not live.size:
                break
        return float(t[0]) if scalar else t

    def step(self, t: float, xi: float) -> tuple[float, float, float]:
        """One bounce of the billiard map from parameter t with tangential
        momentum xi: returns (t' in [0, 2*pi), xi', chord length) as
        floats.  The base orbit_t calls it once per bounce; conics have no
        scalar step, their orbit_t runs the kernel _conic_orbit."""
        raise NotImplementedError

    def step_many(self, t: np.ndarray, xi: np.ndarray):
        """step on arrays of nodes, the arrays (t', xi', chord length): by
        default step mapped over them, so equal to one-point calls bit for bit."""
        out = [self.step(a, b) for a, b in zip(np.asarray(t, float).tolist(), np.asarray(xi, float).tolist())]
        return tuple(np.array(out, dtype=float).reshape(-1, 3).T)

    def orbit_t(self, t: float, xi: float, m: int):
        """m bounces from parameter t with momentum xi: the arrays (t lifted,
        xi, chord length), of lengths m+1, m+1 and m.  Each bounce advances
        the lift by (t' - t) mod 2*pi, since the generating function
        len(s, s') is defined on the branch s' - s in (0, L); ts[0] is t.
        Before each bounce |xi| is checked against the glancing cutoff, and
        a failed bounce is raised again with its index."""
        ts, xis, ells = np.empty(m + 1), np.empty(m + 1), np.empty(m)
        ts[0], xis[0] = t, xi
        lift = t
        for i in range(m):
            if abs(xi) > 1.0 - EPS_GLANCE:
                raise GlancingRay(f"bounce {i}: |xi| = {abs(xi)} exceeds the glancing cutoff")
            try:
                t_next, xi, ell = self.step(t % TWO_PI, xi)
            except (NoTransversalHit, NewtonDivergence) as exc:
                raise type(exc)(f"bounce {i}: {exc}") from exc
            lift += (t_next - t) % TWO_PI
            t = t_next
            ts[i + 1], xis[i + 1] = lift, xi
            ells[i] = ell
        return ts, xis, ells

    # s-parametrized accessors ------------------------------------------------
    def position(self, s):
        return self.position_t(self.param_of_arclength(s))

    def tangent(self, s):
        t = self.param_of_arclength(s)
        vx, vy = self.velocity_t(t)
        sp = np.hypot(vx, vy)
        return vx / sp, vy / sp

    def inward_normal(self, s):
        tx, ty = self.tangent(s)
        # counterclockwise parametrization: interior on the left
        return -ty, tx

    def curvature(self, s):
        t = self.param_of_arclength(s)
        return self.curvature_t(t)

    def curvature_t(self, t):
        vx, vy = self.velocity_t(t)
        ax, ay = self.acceleration_t(t)
        sp = np.hypot(vx, vy)
        return (vx * ay - vy * ax) / sp**3

    def is_convex(self) -> bool:
        t = 2.0 * np.pi * np.arange(4096) / 4096
        return bool(np.all(self.curvature_t(t) > 0.0))


def _conic_step(a: float, b: float, t, xi):
    """One bounce on x^2/a^2 + y^2/b^2 = 1 in the angle parameter t, on
    arrays of nodes: returns the arrays (t', xi', chord length).  Callers
    keep |xi| < 1 (the glancing cutoff)."""
    ct, st = np.cos(t), np.sin(t)
    x0, y0 = a * ct, b * st
    vx, vy = -a * st, b * ct
    sp = np.hypot(vx, vy)
    tx, ty = vx / sp, vy / sp
    eta = np.sqrt(1.0 - xi * xi)
    dx = xi * tx - eta * ty
    dy = xi * ty + eta * tx
    ia2, ib2 = 1.0 / (a * a), 1.0 / (b * b)
    qa = dx * dx * ia2 + dy * dy * ib2
    qb = 2.0 * (x0 * dx * ia2 + y0 * dy * ib2)
    u = -qb / qa
    x1, y1 = x0 + u * dx, y0 + u * dy
    for _ in range(2):
        f = x1 * x1 * ia2 + y1 * y1 * ib2 - 1.0
        df = 2.0 * (x1 * dx * ia2 + y1 * dy * ib2)
        u -= f / df
        x1, y1 = x0 + u * dx, y0 + u * dy
    t1 = np.arctan2(y1 / b, x1 / a) % TWO_PI
    wx, wy = -a * np.sin(t1), b * np.cos(t1)
    wsp = np.hypot(wx, wy)
    xi1 = (dx * wx + dy * wy) / wsp
    return t1, xi1, u


def _conic_orbit(a: float, b: float, t0: float, xi0: float, m: int):
    """m bounces on x^2/a^2 + y^2/b^2 = 1 from angle t0 with momentum xi0:
    the arrays (t lifted, xi, chord length), of lengths m+1, m+1 and m.

    The state is the point (X, Y) = (cos t, sin t) of the scaled
    coordinates (x/a, y/b), on their unit circle, and the unit tangent
    there.  The ray's direction (dx, dy) is (ex, ey) = (dx/a, dy/b) in
    scaled coordinates, so the chord is the root u = -2(X ex + Y ey) /
    (ex^2 + ey^2) of a quadratic with one root at 0.  The image point is
    put back on the unit circle radially, and its tangent gives xi' and
    carries over to the next bounce, so no bounce calls sin, cos or atan2:
    t comes from one arctan2 over the stored points, lifted forward by
    (t' - t) mod 2*pi as in BoundaryCurve.orbit_t, with the same glancing
    check before every bounce.
    """
    cut = 1.0 - EPS_GLANCE
    X, Y = math.cos(t0), math.sin(t0)
    vx, vy = -a * Y, b * X
    sp = math.hypot(vx, vy)
    tx, ty = vx / sp, vy / sp
    xi = float(xi0)
    # buffers of 8-byte floats, read by numpy without a copy
    xs, ys, xis, ells = (array("d", [0.0]) * m for _ in range(4))
    for i in range(m):
        if abs(xi) > cut:
            raise GlancingRay(f"bounce {i}: |xi| = {abs(xi)} exceeds the glancing cutoff")
        eta = math.sqrt(1.0 - xi * xi)
        dx = xi * tx - eta * ty
        dy = xi * ty + eta * tx
        ex, ey = dx / a, dy / b
        u = -2.0 * (X * ex + Y * ey) / (ex * ex + ey * ey)
        X += u * ex
        Y += u * ey
        r = math.hypot(X, Y)
        X /= r
        Y /= r
        vx, vy = -a * Y, b * X
        sp = math.hypot(vx, vy)
        tx, ty = vx / sp, vy / sp
        xi = dx * tx + dy * ty
        xs[i] = X
        ys[i] = Y
        xis[i] = xi
        ells[i] = u
    steps = np.diff(np.arctan2(np.frombuffer(ys), np.frombuffer(xs)), prepend=t0) % TWO_PI
    return (np.cumsum(np.concatenate([[t0], steps])), np.concatenate([[xi0], np.frombuffer(xis)]),
            np.frombuffer(ells))


class CircleCurve(BoundaryCurve):
    """Circle of radius r; closed forms throughout, s = r*t."""

    kind = "circle"

    def __init__(self, r: float = 1.0):
        if r <= 0.0:
            raise ValidationError("circle radius must be positive")
        self.r = float(r)
        self.total_length = 2.0 * math.pi * self.r
        self._mean_speed = self.r

    def position_t(self, t):
        t = np.asarray(t, dtype=float)
        return self.r * np.cos(t), self.r * np.sin(t)

    def velocity_t(self, t):
        t = np.asarray(t, dtype=float)
        return -self.r * np.sin(t), self.r * np.cos(t)

    def acceleration_t(self, t):
        t = np.asarray(t, dtype=float)
        return -self.r * np.cos(t), -self.r * np.sin(t)

    def arclength_of_param(self, t):
        return self.r * np.asarray(t, dtype=float) if np.ndim(t) else self.r * float(t)

    def param_of_arclength(self, s):
        return np.asarray(s, dtype=float) / self.r if np.ndim(s) else float(s) / self.r

    def curvature_t(self, t):
        if np.ndim(t):
            return np.full(np.shape(t), 1.0 / self.r)
        return 1.0 / self.r

    def step_many(self, t, xi):
        return _conic_step(self.r, self.r, t, xi)

    def orbit_t(self, t, xi, m):
        return _conic_orbit(self.r, self.r, t, xi, m)


class EllipseCurve(BoundaryCurve):
    """Ellipse x^2/a^2 + y^2/b^2 = 1, arclength origin at (a, 0), CCW."""

    kind = "ellipse"

    def __init__(self, a: float, b: float):
        if not (a >= b > 0.0):
            raise ValidationError("ellipse axes must satisfy a >= b > 0")
        self.a = float(a)
        self.b = float(b)
        super().__init__()

    def position_t(self, t):
        t = np.asarray(t, dtype=float)
        return self.a * np.cos(t), self.b * np.sin(t)

    def velocity_t(self, t):
        t = np.asarray(t, dtype=float)
        return -self.a * np.sin(t), self.b * np.cos(t)

    def acceleration_t(self, t):
        t = np.asarray(t, dtype=float)
        return -self.a * np.cos(t), -self.b * np.sin(t)

    def step_many(self, t, xi):
        return _conic_step(self.a, self.b, t, xi)

    def orbit_t(self, t, xi, m):
        return _conic_orbit(self.a, self.b, t, xi, m)


class FourierCurve(BoundaryCurve):
    """Star-shaped curve from a truncated Fourier series of the radius.

    coeffs = [rho0, a1, b1, a2, b2, ...] encodes
    rho(t) = rho0 + sum_k (a_k cos(k t) + b_k sin(k t)).
    """

    kind = "fourier"

    def __init__(self, coeffs: Sequence[float]):
        coeffs = [float(c) for c in coeffs]
        if not coeffs or coeffs[0] <= 0.0:
            raise ValidationError("fourier curve needs a positive mean radius")
        self.coeffs = coeffs
        self._rho0 = coeffs[0]
        ab = np.array(coeffs[1:] + [0.0] * (len(coeffs) % 2 == 0))   # a1, b1, a2, b2, ...
        # rho - rho0, rho', rho'' = Re P, Re(i z P'), Re((i z d/dz)^2 P) at z = e^{it},
        # P(z) = sum_k (a_k - i b_k) z^k; Horner wants the top coefficient first
        c, k = (ab[0::2] - 1j * ab[1::2])[::-1], np.arange(len(ab) // 2, 0, -1)
        self._horner, self._c2 = list(zip(c.tolist(), (k * c).tolist())), k * k * c
        t = 2.0 * np.pi * np.arange(4096) / 4096
        if np.any(self._jet(np.exp(1j * t))[0] <= 0.0):
            raise ValidationError("fourier radius must stay positive")
        super().__init__()
        kappa = self.curvature_t(t)
        if not np.all(kappa > 0.0):
            raise ValidationError("fourier curve is not convex; non-convex chambers are unsupported")
        self._kappa_min, self._kappa_max = float(kappa.min()), float(kappa.max())

    def _jet(self, z):
        """(rho, rho') at the angles of unit complex z, by Horner's rule."""
        p = p1 = 0j
        for c, c1 in self._horner:
            p, p1 = (p + c) * z, (p1 + c1) * z
        return self._rho0 + p.real, -p1.imag

    def position_t(self, t):
        z = np.exp(1j * np.asarray(t, dtype=float))
        p = self._jet(z)[0] * z
        return p.real, p.imag

    def velocity_t(self, t):
        z = np.exp(1j * np.asarray(t, dtype=float))
        rho, d1 = self._jet(z)
        v = (d1 + 1j * rho) * z
        return v.real, v.imag

    def acceleration_t(self, t):
        z = np.exp(1j * np.asarray(t, dtype=float))
        rho, d1 = self._jet(z)
        d2 = -(z * np.polyval(self._c2, z)).real
        acc = (d2 - rho + 2j * d1) * z
        return acc.real, acc.imag

    def step(self, t, xi):
        """Newton on the radial gap g(u) = |p| - rho(arg p) of the ray p0 + u d,
        points as complex numbers.  The disks of radius 1/kappa_max and
        1/kappa_min tangent at p0 lie in and around the table (Blaschke), so
        the chord u is 2 eta/kappa for a kappa between them: roots.float_newton
        starts at 2 eta L/2pi inside [eta/1.01 kappa_max, 2.02 eta/kappa_min]."""
        eta = math.sqrt(max(0.0, 1.0 - xi * xi))
        if not eta > 0.0:
            raise NoTransversalHit(f"ray at xi = {xi} does not enter the table")
        z = complex(math.cos(t), math.sin(t))
        rho, drho = self._jet(z)
        p0, v = rho * z, (drho + 1j * rho) * z
        d = (xi + 1j * eta) * v / abs(v)
        # along the ray, p.d = p0.d + u and p x d = p0 x d
        pd0, pxd = (p0 * d.conjugate()).real, (p0.conjugate() * d).imag

        def gap(u):
            p = p0 + u * d
            r = abs(p)
            rho, drho = self._jet(p / r)
            return r - rho, (pd0 + u - drho * pxd / r) / r

        lo, hi = eta / (1.01 * self._kappa_max), 2.02 * eta / self._kappa_min
        if not gap(lo)[0] <= 0.0 < gap(hi)[0]:
            raise NoTransversalHit(f"ray at t = {t}, xi = {xi} does not leave the table transversally")
        u = float_newton(gap, eta * float(self.total_length) / math.pi, lo, hi,
                         1e-14, 8.9e-16, "chord refinement")
        p = p0 + u * d
        z = p / abs(p)
        rho, drho = self._jet(z)
        w = (drho + 1j * rho) * z
        return math.atan2(p.imag, p.real) % TWO_PI, (d * w.conjugate()).real / abs(w), u


def make_circle(r: float = 1.0) -> CircleCurve:
    return CircleCurve(r)


def make_ellipse(a: float, b: float) -> EllipseCurve:
    """Arclength-parametrized ellipse; a = b falls back to the exact circle."""
    if a == b:
        return CircleCurve(a)
    return EllipseCurve(a, b)


def make_fourier(coeffs: Sequence[float]) -> FourierCurve:
    return FourierCurve(coeffs)


# ---------------------------------------------------------------------------
# Liouville billiard tables
# ---------------------------------------------------------------------------

@dataclass
class LiouvilleTable:
    """Planar Liouville table data on the cylinder: metric (f(x)-q(y))(dx^2+dy^2).

    f and q are derivative evaluators: f(x, m) is the m-th derivative at x.
    The Radon quadratures call f(x, 0) and the rotation function q(y, 1) on
    numpy node arrays; liouville_validate passes Python floats to f and q.
    The quotient by the (x,y) -> (-x,-y) involution is not modelled; all
    computations live in the cylinder coordinates.
    """

    f: Callable[[float, int], float]
    q: Callable[[float, int], float]
    N: float
    family: str = "generic"
    c: float | None = None

    def __post_init__(self):
        if self.N <= 0.0:
            raise ValidationError("N must be positive")
        self.q_N = self.q(self.N, 0)
        self.f_max = self.f(math.pi / 2.0, 0)

    def metric_factor(self, x, y):
        return self.f(x, 0) - self.q(y, 0)

    def boundary_curve(self) -> BoundaryCurve:
        """Euclidean realization of the table; only the confocal-ellipse
        family embeds in the plane (string property)."""
        if self.family != "ellipse" or self.c is None:
            raise ValidationError("only elliptic-coordinate tables have a planar realization")
        a = self.c * math.cosh(self.N)
        b = self.c * math.sinh(self.N)
        return make_ellipse(a, b)


def _sin2_deriv(c2: float):
    # c2 * sin(x)^2 = c2*(1 - cos 2x)/2 and its derivatives
    def f(x, m: int = 0):
        if m == 0:
            return c2 * np.sin(x) ** 2
        return -0.5 * c2 * (2.0 ** m) * np.cos(2.0 * x + 0.5 * math.pi * m)
    return f


def _neg_sinh2_deriv(c2: float):
    # -c2 * sinh(y)^2 = -c2*(cosh 2y - 1)/2 and its derivatives
    def q(y, m: int = 0):
        if m == 0:
            return -c2 * np.sinh(y) ** 2
        if m % 2 == 0:
            return -0.5 * c2 * (2.0 ** m) * np.cosh(2.0 * y)
        return -0.5 * c2 * (2.0 ** m) * np.sinh(2.0 * y)
    return q


def elliptic_table(c: float = 1.0, N: float = 1.0) -> LiouvilleTable:
    """Elliptic-coordinate table f = c^2 sin^2 x, q = -c^2 sinh^2 y.

    Its planar realization is the ellipse with semi-axes
    (c cosh N, c sinh N); every planar table of classical type is of this
    form up to isometry.
    """
    if c <= 0.0:
        raise ValidationError("focal parameter c must be positive")
    c2 = c * c
    return LiouvilleTable(f=_sin2_deriv(c2), q=_neg_sinh2_deriv(c2), N=N, family="ellipse", c=c)


def elliptic_table_for_ellipse(a: float, b: float) -> LiouvilleTable:
    """Liouville data of the Euclidean ellipse with semi-axes a > b."""
    if not (a > b > 0.0):
        raise ValidationError("need a > b > 0 for confocal coordinates")
    c = math.sqrt(a * a - b * b)
    N = math.atanh(b / a)
    return elliptic_table(c, N)


@dataclass
class ConditionReport:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # table evaluators may return numpy scalars; keep the report JSON-serializable
        self.passed = bool(self.passed)


@dataclass
class LiouvilleReport:
    conditions: list[ConditionReport] = field(default_factory=list)
    k_check: int = 4

    @property
    def classical_type(self) -> bool:
        return all(c.passed for c in self.conditions)

    def first_failure(self) -> ConditionReport | None:
        for c in self.conditions:
            if not c.passed:
                return c
        return None

    def as_dict(self) -> dict:
        return {
            "classical_type": self.classical_type,
            "k_check": self.k_check,
            "conditions": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.conditions
            ],
        }


def liouville_validate(table: LiouvilleTable, k_check: int = 4) -> LiouvilleReport:
    """Check the classical-type conditions up to derivative order 2*k_check.

    Report-style: nothing raises; each condition is listed with pass/fail
    and, for the parity compatibility, the first violated order.
    """
    f, q, N = table.f, table.q, table.N
    rep = LiouvilleReport(k_check=k_check)
    add = rep.conditions.append

    xs = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    fx = np.array([f(float(x), 0) for x in xs])
    interior = np.array([min(abs(x % math.pi), abs(math.pi - (x % math.pi))) > 1e-2 for x in xs])

    ok = abs(f(0.0, 0)) <= 1e-9 and abs(f(math.pi, 0)) <= 1e-9
    add(ConditionReport("i: f(0)=f(pi)=0", ok, f"f(0)={f(0.0, 0):.3e}, f(pi)={f(math.pi, 0):.3e}"))
    ok = f(0.0, 2) > 0.0
    add(ConditionReport("i: f''(0)>0", ok, f"f''(0)={f(0.0, 2):.6g}"))
    ok = bool(np.all(fx[interior] > 0.0))
    add(ConditionReport("i: f>0 off pi*Z", ok))
    per = max(abs(f(float(x), 0) - f(float(x) + 2.0 * math.pi, 0)) for x in xs[::16])
    add(ConditionReport("i: f 2pi-periodic", per <= 1e-8, f"max defect {per:.3e}"))
    ev = max(abs(f(float(x), 0) - f(-float(x), 0)) for x in xs[::16])
    add(ConditionReport("i: f even", ev <= 1e-8, f"max defect {ev:.3e}"))

    ys = np.linspace(0.0, N, 130)[1:]
    qy = np.array([q(float(y), 0) for y in ys])
    add(ConditionReport("ii: q(0)=0", abs(q(0.0, 0)) <= 1e-9, f"q(0)={q(0.0, 0):.3e}"))
    add(ConditionReport("ii: q''(0)<0", q(0.0, 2) < 0.0, f"q''(0)={q(0.0, 2):.6g}"))
    add(ConditionReport("ii: q<0 off 0", bool(np.all(qy < 0.0))))
    evq = max(abs(q(float(y), 0) - q(-float(y), 0)) for y in ys[::8])
    add(ConditionReport("ii: q even", evq <= 1e-8, f"max defect {evq:.3e}"))

    # compatibility f^(2k)(pi*l) = (-1)^k q^(2k)(0) at l = 0, 1
    first_bad = None
    for k in range(1, k_check + 1):
        want = (-1.0) ** k * q(0.0, 2 * k)
        for x0 in (0.0, math.pi):
            got = f(x0, 2 * k)
            scale = max(1.0, abs(want), abs(got))
            if abs(got - want) > 1e-7 * scale:
                first_bad = (k, x0, got, want)
                break
        if first_bad:
            break
    if first_bad:
        k, x0, got, want = first_bad
        add(ConditionReport("iii: parity compatibility", False,
                            f"fails at k={k}, x={x0:.4f}: f^(2k)={got:.6g} vs (-1)^k q^(2k)(0)={want:.6g}"))
    else:
        add(ConditionReport("iii: parity compatibility", True, f"holds through k={k_check}"))

    add(ConditionReport("iv: q'(N)<0 (geodesic convexity)", q(N, 1) < 0.0, f"q'(N)={q(N, 1):.6g}"))

    half = np.linspace(0.0, math.pi / 2.0, 128)
    fh = np.array([f(float(x), 0) for x in half])
    sym = max(abs(f(float(x), 0) - f(math.pi - float(x), 0)) for x in half[::4])
    add(ConditionReport("v: f(x)=f(pi-x)", sym <= 1e-8, f"max defect {sym:.3e}"))
    add(ConditionReport("v: f increasing on [0,pi/2]", bool(np.all(np.diff(fh) > 0.0))))

    pos = True
    for x in xs[::32]:
        for y in ys[::8]:
            if table.metric_factor(float(x), float(y)) <= 0.0 and min(abs(x), abs(x - math.pi), abs(x - 2 * math.pi)) > 1e-6:
                pos = False
    add(ConditionReport("metric factor positive", pos))
    return rep


# ---------------------------------------------------------------------------
# Domain-spec files
# ---------------------------------------------------------------------------

def curve_from_spec(spec: dict) -> BoundaryCurve:
    """Build a curve from the JSON-compatible domain-spec mapping."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("domain spec must be a mapping with a 'type' key")
    kind = spec["type"]
    known = {
        "ellipse": {"type", "a", "b"},
        "circle": {"type", "r"},
        "fourier": {"type", "coeffs"},
        "liouville": {"type", "family", "c", "N"},
    }
    if kind not in known:
        raise ConfigError(f"unknown domain type {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise ConfigError(f"unknown keys in domain spec: {sorted(extra)}")
    if kind == "ellipse":
        return make_ellipse(float(spec["a"]), float(spec["b"]))
    if kind == "circle":
        return make_circle(float(spec["r"]))
    if kind == "fourier":
        return make_fourier(spec["coeffs"])
    return table_from_spec(spec).boundary_curve()


def table_from_spec(spec: dict) -> LiouvilleTable:
    if spec.get("type") != "liouville":
        raise ConfigError("table spec must have type 'liouville'")
    if spec.get("family", "ellipse") != "ellipse":
        raise ConfigError("only the 'ellipse' liouville family is built in")
    extra = set(spec) - {"type", "family", "c", "N"}
    if extra:
        raise ConfigError(f"unknown keys in domain spec: {sorted(extra)}")
    return elliptic_table(float(spec.get("c", 1.0)), float(spec.get("N", 1.0)))
