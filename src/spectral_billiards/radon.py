"""Isospectral invariants: circle averages of K/sin(theta).

The central quantity is sum_j int_{Lambda_j} (K o pi_Gamma)/sin(theta) dmu_j
over invariant circles with their unique invariant probability measures.
On Liouville tables the same integrals have a closed form against the
Leray form dx/sqrt(f(x)-h); both normalizations are exposed, with
leray_mass as the conversion factor.  A librational level 0 < h < f_max
has its circles between the turning points x_h and pi - x_h, f(x_h) = h, a
rotational one q(N) < h < 0 its caustic at q(y_h) = h: one float Newton
solve each (_turning_point).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .billiard import EPS_GLANCE, _legendre01, refine
from .errors import CirclesNotExchanged, GlancingCircle, HOutOfRange
from .geometry import TWO_PI, BoundaryCurve, LiouvilleTable
from .roots import float_newton


# ---------------------------------------------------------------------------
# boundary functions and symmetries
# ---------------------------------------------------------------------------

@dataclass
class BoundaryFunction:
    """Function on the boundary, callable in arclength; optionally also
    evaluable in the Liouville x-coordinate."""

    s_func: Callable
    x_func: Callable | None = None

    def __call__(self, s):
        return self.s_func(s)

    def in_x(self, x):
        if self.x_func is None:
            raise ValueError("no x-coordinate evaluator attached")
        return self.x_func(x)

    @classmethod
    def constant(cls, value: float) -> "BoundaryFunction":
        return cls(s_func=lambda s: np.full_like(np.asarray(s, dtype=float), value),
                   x_func=lambda x: np.full_like(np.asarray(x, dtype=float), value))

    @classmethod
    def from_x(cls, x_func: Callable, curve: BoundaryCurve) -> "BoundaryFunction":
        """Lift an x-coordinate function to arclength through the curve's
        angle parameter (the boundary elliptic coordinate)."""
        def s_func(s):
            t = curve.param_of_arclength(np.asarray(s) % curve.total_length)
            return x_func(t)
        return cls(s_func=s_func, x_func=x_func)

    @classmethod
    def trig(cls, curve: BoundaryCurve, cos_coeffs: Sequence[float] = (),
             sin_coeffs: Sequence[float] = (), constant: float = 0.0) -> "BoundaryFunction":
        """Trig polynomial in 2*pi*s/L: constant + sum a_m cos + b_m sin."""
        L = curve.total_length
        a = np.asarray(cos_coeffs, dtype=float)
        b = np.asarray(sin_coeffs, dtype=float)

        def s_func(s):
            w = TWO_PI * np.asarray(s, dtype=float) / L
            out = np.full_like(np.asarray(w, dtype=float), constant)
            for m, am in enumerate(a, start=1):
                out = out + am * np.cos(m * w)
            for m, bm in enumerate(b, start=1):
                out = out + bm * np.sin(m * w)
            return out
        return cls(s_func=s_func)


@dataclass
class SymmetryGroup:
    """The Z2 x Z2 boundary symmetry group of a two-axis table.

    Elements act on arclength u with period L: identity, the two
    reflections u -> -u and u -> half - u, and their composition, the
    half-period rotation.
    """

    period: float

    def element_names(self) -> list[str]:
        return ["id", "reflect0", "reflect_half", "rotate_half"]

    def maps(self) -> list[Callable]:
        L = self.period
        return [lambda u: np.asarray(u) % L,
                lambda u: (-np.asarray(u)) % L,
                lambda u: (0.5 * L - np.asarray(u)) % L,
                lambda u: (np.asarray(u) + 0.5 * L) % L]

    def phase_maps(self) -> list[Callable]:
        """Lifts to (u, xi); reflections reverse the tangential momentum."""
        L = self.period
        return [lambda u, xi: ((np.asarray(u)) % L, np.asarray(xi)),
                lambda u, xi: ((-np.asarray(u)) % L, -np.asarray(xi)),
                lambda u, xi: ((0.5 * L - np.asarray(u)) % L, -np.asarray(xi)),
                lambda u, xi: ((np.asarray(u) + 0.5 * L) % L, np.asarray(xi))]

    @classmethod
    def for_curve(cls, curve: BoundaryCurve) -> "SymmetryGroup":
        return cls(period=curve.total_length)


def symmetry_average(K: BoundaryFunction, G: SymmetryGroup) -> BoundaryFunction:
    """Pointwise group average; a projection onto symmetric functions."""
    maps = G.maps()

    def s_func(s):
        return sum(K(g(s)) for g in maps) / 4.0
    return BoundaryFunction(s_func=s_func)


# ---------------------------------------------------------------------------
# circle averages (probability measure)
# ---------------------------------------------------------------------------

def torus_invariant(curve: BoundaryCurve, circles, K: BoundaryFunction,
                    tol: float = 1e-9, full_output: bool = False):
    """sum_j int K(s)/sin(theta) dmu_j, by node-doubling quadrature; a
    circle with sin(theta) below the glancing cutoff raises GlancingCircle.

    With full_output=True returns (value, nodes_used, est_error)."""
    if not isinstance(circles, (list, tuple)):
        circles = [circles]

    def evaluate(n):
        total = 0.0
        for circ in circles:
            s, xi, w = circ.measure_nodes(n)
            sin_theta = np.sqrt(1.0 - np.asarray(xi) ** 2)
            if np.min(sin_theta) < EPS_GLANCE:
                raise GlancingCircle(
                    f"sin(theta) reaches {np.min(sin_theta):.2e} on a circle")
            total += float(np.dot(w, np.asarray(K(s), dtype=float) / sin_theta))
        return total

    val, n, err = refine(evaluate, 2048, tol, 2 ** 17, "circle average")
    return (val, n, err) if full_output else val


# ---------------------------------------------------------------------------
# Liouville level circles and Leray quadrature
# ---------------------------------------------------------------------------

def _turning_point(table: LiouvilleTable, h: float) -> float:
    """x_h in (0, pi/2) with f(x_h) = h for h > 0, the caustic y_h in (0, N)
    with q(y_h) = h for h < 0: Newton from the secant point of the bracket."""
    if h > 0.0:
        return float_newton(lambda x: (table.f(x, 0) - h, table.f(x, 1)),
                            0.5 * math.pi * h / table.f_max, 1e-14, 0.5 * math.pi,
                            1e-15, 8.9e-16, "turning point")
    return float_newton(lambda y: (h - table.q(y, 0), -table.q(y, 1)),
                        table.N * h / table.q_N, 0.0, table.N, 1e-15, 8.9e-16, "caustic")


class LerayCircle:
    """Invariant circle of a Liouville table at a regular level h as a
    Leray-weighted node set; any other h raises HOutOfRange.

    Rotational (q(N) < h < 0): the circle winds around the boundary with
    momentum xi > 0; nodes are uniform in x.  Librational (0 < h < f_max):
    the circle sits over (x_h, pi - x_h) + x_shift with both momentum
    branches, x_h solved here once; nodes are Gauss-Chebyshev in x, which
    absorbs the inverse-square-root turning-point singularity of dx/sqrt(f - h).
    """

    def __init__(self, table: LiouvilleTable, h: float, x_shift: float = 0.0):
        if not (table.q_N < h < 0.0 or 0.0 < h < table.f_max):
            raise HOutOfRange(
                f"h={h} is not a regular value in ({table.q_N}, 0) u (0, {table.f_max})")
        self.table = table
        self.h = h
        self.x_shift = x_shift
        if h > 0.0:
            x_h = _turning_point(table, h)
            self.ends = (x_h, math.pi - x_h)

    @functools.cached_property
    def curve(self) -> BoundaryCurve:
        """The planar table, built on first use: only measure_nodes needs it."""
        return self.table.boundary_curve()

    def x_nodes(self, n: int):
        """(x, leray_weights, f) with sum w_i * g(x_i) ~ closed-loop
        integral of g against |lambda_h| (momentum branches already
        summed); f is the table's f on the nodes before the x_shift."""
        if self.h < 0.0:
            x = TWO_PI * np.arange(n) / n
            f = self.table.f(x, 0)
            w = (TWO_PI / n) / np.sqrt(f - self.h)
        else:
            x1, x2 = self.ends
            mid, rad = 0.5 * (x1 + x2), 0.5 * (x2 - x1)
            u = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
            x = mid + rad * np.cos(u)
            f = self.table.f(x, 0)
            smooth = np.sqrt((x - x1) * (x2 - x) / (f - self.h))
            w = 2.0 * (math.pi / n) * smooth
        return x + self.x_shift, w, f

    def mass(self, n: int = 2048) -> float:
        return float(self.x_nodes(n)[1].sum())

    def measure_nodes(self, n: int = 2048):
        """(s, xi, probability weights) in billiard phase space; a
        librational circle carries both momentum branches on n/2 nodes."""
        rotational = self.h < 0.0
        x, w, f = self.x_nodes(n if rotational else max(8, n // 2))
        s = self.curve.arclength_of_param(x % TWO_PI) % self.curve.total_length
        xi = np.sqrt((f - self.h) / (f - self.table.q_N))
        if not rotational:
            s, xi, w = np.concatenate([s, s]), np.concatenate([xi, -xi]), np.concatenate([w, w])
        return s, xi, w / w.sum()


def rotational_circle(table: LiouvilleTable, h: float) -> LerayCircle:
    if not table.q_N < h < 0.0:
        raise HOutOfRange(f"h={h} outside the rotational range ({table.q_N}, 0)")
    return LerayCircle(table, h)


def librational_circles(table: LiouvilleTable, h: float) -> tuple[LerayCircle, LerayCircle]:
    """The two components of {f - xi_x^2 = h}, exchanged by the boundary
    reflection and by one application of the billiard map.  The second is
    a copy of the first shifted by pi, so x_h is solved once."""
    first = LerayCircle(table, h)           # raises unless h is regular
    if h < 0.0:
        raise HOutOfRange(f"h={h} outside the librational range (0, {table.f_max})")
    second = copy.copy(first)
    second.x_shift = math.pi
    return first, second


@dataclass
class RadonPair:
    plus: float
    minus: float
    n_nodes: int
    est_error: float

    def __iter__(self):
        return iter((self.plus, self.minus))


def liouville_radon(table: LiouvilleTable, K: BoundaryFunction, h: float,
                    tol: float = 1e-9) -> RadonPair:
    """Closed-form Radon transform of K over the level circles at h.

    Rotational branch (q(N) < h < 0): the pair is (R, -R) for the two
    momentum signs, R = (h-q(N))^(-1/2) * int_0^{2pi} K(x)
    sqrt((f-q(N))/(f-h)) dx.  Librational branch (0 < h < f(pi/2)): the
    pair collects the two exchanged components, each integrated over its
    {f > h} interval with the turning-point substitution.
    """
    def evaluate(circ, n):
        # 1/sin(theta) = sqrt((f - q_N)/(h - q_N)), f read on the unshifted interval
        x, w, f = circ.x_nodes(n)
        kern = np.asarray(K.in_x(x), dtype=float) * np.sqrt((f - table.q_N) / (h - table.q_N))
        return float(np.dot(w, kern))

    if h < 0.0:
        circ = LerayCircle(table, h)
        val, n, err = refine(lambda n: evaluate(circ, n), 2048, tol, 2 ** 17, "rotational Radon")
        return RadonPair(plus=val, minus=-val, n_nodes=n, est_error=err)

    lam1, lam2 = librational_circles(table, h)
    v1, n1, e1 = refine(lambda n: evaluate(lam1, n), 128, tol, 2 ** 17, "librational Radon")
    v2, n2, e2 = refine(lambda n: evaluate(lam2, n), 128, tol, 2 ** 17, "librational Radon")
    return RadonPair(plus=v1, minus=v2, n_nodes=max(n1, n2), est_error=max(e1, e2))


def leray_mass(table: LiouvilleTable, h: float) -> float:
    """Total Leray measure of one invariant circle at level h."""
    return refine(LerayCircle(table, h).mass, 128, 1e-9, 2 ** 17, "Leray mass")[0]


def rotation_function(table: LiouvilleTable, h: float) -> tuple[float, float]:
    """(omega, est_error): rotation number in (0, 1/2) of the rotational
    level h, as the ratio of the two period integrals of the separated flow
    (Kozlov & Treshchev, Billiards, AMS 1991):

        omega(h) = 2 int_{y_h}^N dy / sqrt(h - q(y))  /  int_0^{2pi} dx / sqrt(f(x) - h),

    with q(y_h) = h at the caustic (_turning_point).  With y = y_h + w^2 the
    caustic integral is 4 int_0^{sqrt(N - y_h)} dw / sqrt(m(w)), where m(w)
    is the mean of -q' over [y_h, y_h + w^2] from a fixed 16-point
    Gauss-Legendre rule: h - q(y) = w^2 m(w) without the cancellation of the
    direct difference near w = 0.  Both integrals run through refine to
    1e-13, the caustic one on Gauss-Legendre rules and the Leray one on the
    uniform x-grid.  Needs only f and q, not a planar realization of the
    table.
    """
    circ = rotational_circle(table, h)
    y_h = _turning_point(table, h)
    top = math.sqrt(table.N - y_h)
    u16, g16 = _legendre01(16)

    def caustic(n):
        u, g = _legendre01(n)
        w = top * u
        mean = -table.q(y_h + np.multiply.outer(w * w, u16), 1) @ g16
        return 4.0 * top * float(np.dot(g, 1.0 / np.sqrt(mean)))

    time_y, _, err_y = refine(caustic, 8, 1e-13, 2 ** 10, "caustic period")
    time_x, _, err_x = refine(circ.mass, 128, 1e-13, 2 ** 17, "Leray mass")
    omega = time_y / time_x
    return omega, omega * (err_y / time_y + err_x / time_x)


# ---------------------------------------------------------------------------
# bouncing-ball symmetry identity
# ---------------------------------------------------------------------------

def _hausdorff(curve: BoundaryCurve, set1, set2) -> float:
    s1, x1 = set1
    s2, x2 = set2
    L = curve.total_length
    # d[i, j]: distance from point i of set1 to point j of set2, s periodic
    ds = np.abs(((s1[:, None] - s2[None, :] + 0.5 * L) % L) - 0.5 * L)
    d = np.hypot(ds, x1[:, None] - x2[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def bouncing_ball_identity_check(curve: BoundaryCurve, lam1, lam2,
                                 K: BoundaryFunction, G: SymmetryGroup) -> float:
    """Residual of int_{L1} K#/sin dmu1 = (int_{L1} + int_{L2}) K/sin dmu /2.

    The circles must be the two components of one level set, each invariant
    under one reflection and exchanged by the other; this is verified by
    Hausdorff distance of the reflected node clouds before integrating.
    """
    n_check = 256
    s1, x1, _ = lam1.measure_nodes(n_check)
    s2, x2, _ = lam2.measure_nodes(n_check)
    fixed = False
    swapped = False
    for name, gmap in zip(G.element_names()[1:], G.phase_maps()[1:]):
        gs, gx = gmap(s1, x1)
        if name.startswith("reflect"):
            if _hausdorff(curve, (gs, gx), (s1, x1)) < 1e-6:
                fixed = True
            if _hausdorff(curve, (gs, gx), (s2, x2)) < 1e-6:
                swapped = True
    if not (fixed and swapped):
        raise CirclesNotExchanged(
            "level-set components are not fixed/exchanged by the reflections")

    K_sym = symmetry_average(K, G)

    def average(circ, fun, n):
        s, xi, w = circ.measure_nodes(n)
        return float(np.dot(w, np.asarray(fun(s), dtype=float) / np.sqrt(1.0 - xi**2)))

    # deliberately different node counts: keeps the two sides independent
    # quadratures instead of a termwise-cancelling node permutation
    lhs = average(lam1, K_sym, 2048)
    rhs = 0.5 * (average(lam1, K, 3073) + average(lam2, K, 3073))
    return abs(lhs - rhs)
