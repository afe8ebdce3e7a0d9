"""Billiard ball map on the coball bundle of a convex boundary.

Phase space is (s, xi): arclength along the boundary and tangential
momentum, |xi| < 1.  The outgoing unit direction at (s, xi) is
xi*T(s) + sqrt(1-xi^2)*nu(s); the next intersection with the boundary is
found from the implicit form of the curve (closed-form quadratic for
circles/ellipses, bracketed root solve for Fourier curves) and refined
to ~1e-12.  The chord length is the generating function of the map:
d(len)/ds = -xi, d(len)/ds' = xi'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateChord, GlancingRay, NewtonDivergence,
                     NoTransversalHit, QuadratureNonConvergence)
from .geometry import BoundaryCurve, CircleCurve, EllipseCurve, FourierCurve

EPS_GLANCE = 1e-6

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhasePoint:
    """Point (s, xi) of the open coball bundle of the boundary."""
    s: float
    xi: float

    def __post_init__(self):
        if not abs(self.xi) < 1.0:
            raise GlancingRay(f"|xi| = {abs(self.xi)} is not < 1")

    @property
    def sin_theta(self) -> float:
        return math.sqrt(1.0 - self.xi * self.xi)


@dataclass(frozen=True)
class ChordData:
    source: PhasePoint
    target: PhasePoint
    length: float
    action: float
    start_xy: tuple[float, float]
    end_xy: tuple[float, float]
    direction: tuple[float, float]


def _conic_step(a: float, b: float, t: float, xi: float) -> tuple[float, float, float]:
    """One bounce on x^2/a^2 + y^2/b^2 = 1 in the angle parameter t.

    Returns (t', xi', chord length).  Scalar math is deliberate: orbits
    are sequential and this is the hot path.
    """
    ct, st = math.cos(t), math.sin(t)
    x0, y0 = a * ct, b * st
    vx, vy = -a * st, b * ct
    sp = math.hypot(vx, vy)
    tx, ty = vx / sp, vy / sp
    eta = math.sqrt(max(0.0, 1.0 - xi * xi))
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
    t1 = math.atan2(y1 / b, x1 / a) % TWO_PI
    wx, wy = -a * math.sin(t1), b * math.cos(t1)
    wsp = math.hypot(wx, wy)
    xi1 = (dx * wx + dy * wy) / wsp
    return t1, xi1, u


def _fourier_step(curve: FourierCurve, t: float, xi: float) -> tuple[float, float, float]:
    """One bounce on a star-shaped Fourier curve: angular-sweep bracket of
    the ray/boundary gap, then Brent refinement."""
    from scipy.optimize import brentq

    x0, y0 = curve.position_t(t)
    vx, vy = curve.velocity_t(t)
    sp = math.hypot(vx, vy)
    tx, ty = vx / sp, vy / sp
    eta = math.sqrt(max(0.0, 1.0 - xi * xi))
    dx = xi * tx - eta * ty
    dy = xi * ty + eta * tx

    rho_max = curve._rho0 + np.abs(curve._ak).sum() + np.abs(curve._bk).sum()

    def gap(u):
        px, py = x0 + u * dx, y0 + u * dy
        return math.hypot(px, py) - curve.radius(math.atan2(py, px))

    u_hi = 2.2 * rho_max
    grid = np.concatenate([np.geomspace(1e-9 * rho_max, 0.1 * rho_max, 24),
                           np.linspace(0.1 * rho_max, u_hi, 160)])
    prev_u, prev_g = None, None
    for u in grid:
        g = gap(float(u))
        if g > 0.0 and prev_u is not None:
            break
        if g <= 0.0:
            prev_u, prev_g = float(u), g
    else:
        raise NoTransversalHit("ray does not re-enter the boundary transversally")
    if prev_u is None:
        raise NoTransversalHit("ray leaves the chamber immediately; chord not bracketed")
    try:
        u_star = brentq(gap, prev_u, float(u), xtol=1e-14, rtol=8.9e-16, maxiter=200)
    except (RuntimeError, ValueError) as exc:
        raise NewtonDivergence(f"chord refinement failed: {exc}") from exc
    x1, y1 = x0 + u_star * dx, y0 + u_star * dy
    t1 = math.atan2(y1, x1) % TWO_PI
    wx, wy = curve.velocity_t(t1)
    wsp = math.hypot(wx, wy)
    xi1 = (dx * wx + dy * wy) / wsp
    return t1, xi1, u_star


def _step_param(curve: BoundaryCurve, t: float, xi: float) -> tuple[float, float, float]:
    if isinstance(curve, CircleCurve):
        return _conic_step(curve.r, curve.r, t, xi)
    if isinstance(curve, EllipseCurve):
        return _conic_step(curve.a, curve.b, t, xi)
    if isinstance(curve, FourierCurve):
        return _fourier_step(curve, t, xi)
    raise TypeError(f"unsupported curve type {type(curve).__name__}")


def billiard_map(curve: BoundaryCurve, p: PhasePoint,
                 eps_glance: float = EPS_GLANCE) -> tuple[PhasePoint, ChordData]:
    """Apply the billiard ball map once; returns the image point and chord."""
    if abs(p.xi) > 1.0 - eps_glance:
        raise GlancingRay(f"|xi| = {abs(p.xi)} exceeds the glancing cutoff 1-{eps_glance}")
    t = curve.param_of_arclength(p.s % curve.total_length)
    t1, xi1, ell = _step_param(curve, t, p.xi)
    s1 = curve.arclength_of_param(t1) % curve.total_length
    target = PhasePoint(s1, xi1)
    x0, y0 = curve.position_t(t)
    x1, y1 = curve.position_t(t1)
    dx, dy = (x1 - x0) / ell, (y1 - y0) / ell
    chord = ChordData(source=p, target=target, length=ell, action=ell,
                      start_xy=(float(x0), float(y0)), end_xy=(float(x1), float(y1)),
                      direction=(float(dx), float(dy)))
    return target, chord


@dataclass
class Orbit:
    """m bounces of the billiard map, stored as arrays.

    t and s are lifted (not reduced mod the period) so rotation numbers can
    be read off; points()/chords() give the modular view.
    """
    curve: BoundaryCurve
    t_lifted: np.ndarray
    xi: np.ndarray
    lengths: np.ndarray
    s_lifted: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.s_lifted is None:
            self.s_lifted = np.asarray(self.curve.arclength_of_param(self.t_lifted))

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def s_mod(self) -> np.ndarray:
        return self.s_lifted % self.curve.total_length

    @property
    def total_geodesic_length(self) -> float:
        return float(self.lengths.sum())

    def points(self) -> list[PhasePoint]:
        smod = self.s_mod
        return [PhasePoint(float(s), float(x)) for s, x in zip(smod, self.xi)]

    def positions(self) -> np.ndarray:
        x, y = self.curve.position_t(self.t_lifted % TWO_PI)
        return np.column_stack([x, y])


def orbit(curve: BoundaryCurve, p: PhasePoint, m: int,
          eps_glance: float = EPS_GLANCE) -> Orbit:
    """Iterate the billiard map m times from p."""
    if m < 1:
        raise ValueError("need at least one bounce")
    ts = np.empty(m + 1)
    xis = np.empty(m + 1)
    ells = np.empty(m)
    t = curve.param_of_arclength(p.s % curve.total_length)
    xi = p.xi
    ts[0], xis[0] = t, xi
    lift = t
    for i in range(m):
        if abs(xi) > 1.0 - eps_glance:
            raise GlancingRay(f"bounce {i}: |xi| = {abs(xi)} exceeds the glancing cutoff")
        try:
            t_next, xi, ell = _step_param(curve, t % TWO_PI, xi)
        except (NoTransversalHit, NewtonDivergence) as exc:
            raise type(exc)(f"bounce {i}: {exc}") from exc
        # forward lift: the generating function len(s, s') is defined on the
        # branch s' - s in (0, L), so every bounce advances by dt in (0, 2pi)
        lift += (t_next - t) % TWO_PI
        t = t_next
        ts[i + 1], xis[i + 1] = lift, xi
        ells[i] = ell
    return Orbit(curve=curve, t_lifted=ts, xi=xis, lengths=ells)


def chord_momenta(curve: BoundaryCurve, s: float, s_prime: float) -> tuple[float, float, float]:
    """Tangential momenta (xi, xi') induced by the straight chord s -> s',
    plus the chord length."""
    x0, y0 = curve.position(s)
    x1, y1 = curve.position(s_prime)
    ell = math.hypot(x1 - x0, y1 - y0)
    if ell < 1e-12 * curve.total_length:
        raise DegenerateChord("chord endpoints coincide")
    dx, dy = (x1 - x0) / ell, (y1 - y0) / ell
    tx0, ty0 = curve.tangent(s)
    tx1, ty1 = curve.tangent(s_prime)
    return dx * tx0 + dy * ty0, dx * tx1 + dy * ty1, ell


def generating_residual(curve: BoundaryCurve, s: float, s_prime: float,
                        fd_step: float = 1e-6) -> tuple[float, float]:
    """Defect of the generating relations d(len)/ds = -xi, d(len)/ds' = xi',
    with the derivatives taken by central finite differences."""
    xi, xi_p, _ = chord_momenta(curve, s, s_prime)
    h = fd_step * max(1.0, curve.total_length)

    def ell(u, v):
        xa, ya = curve.position(u % curve.total_length)
        xb, yb = curve.position(v % curve.total_length)
        return math.hypot(xb - xa, yb - ya)

    d_s = (ell(s + h, s_prime) - ell(s - h, s_prime)) / (2.0 * h)
    d_sp = (ell(s, s_prime + h) - ell(s, s_prime - h)) / (2.0 * h)
    return d_s + xi, d_sp - xi_p


def map_jacobian(curve: BoundaryCurve, p: PhasePoint, step: float = 1e-6,
                 iterations: int = 1) -> np.ndarray:
    """Central-difference Jacobian of B^iterations at p in (s, xi)."""
    def image(s, xi):
        q = PhasePoint(s % curve.total_length, xi)
        for _ in range(iterations):
            q, _ = billiard_map(curve, q)
        return q.s, q.xi

    L = curve.total_length
    out = np.empty((2, 2))
    for j, (ds, dxi) in enumerate(((step, 0.0), (0.0, step))):
        sp, xp = image(p.s + ds, p.xi + dxi)
        sm, xm = image(p.s - ds, p.xi - dxi)
        dd = ((sp - sm + 0.5 * L) % L) - 0.5 * L
        out[0, j] = dd / (2.0 * step)
        out[1, j] = (xp - xm) / (2.0 * step)
    return out


@dataclass
class FlowoutResult:
    value: float
    volume: float
    n_phi: int
    est_error: float


def refine(evaluate, n0: int, tol: float, n_cap: int, what: str):
    """Double n from n0 until successive evaluate(n) agree to tol, relative
    above 1 and absolute below; returns (value, n, est_error).  Raises
    QuadratureNonConvergence naming `what` once n reaches n_cap."""
    prev = evaluate(n0)
    n = n0
    while n < n_cap:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            return cur, n, abs(cur - prev)
        prev = cur
    raise QuadratureNonConvergence(f"{what} did not settle at {n} nodes")


def flowout_integral(curve: BoundaryCurve, circle, V,
                     n_phi: int = 256, n_leg: int = 64, tol: float = 1e-9,
                     max_doublings: int = 6) -> FlowoutResult:
    """Integral of V over the flow-out of an invariant circle.

    Chords issued from the circle are integrated in arclength with
    Gauss-Legendre nodes and averaged against the circle's invariant
    measure; the phi-grid is doubled until two successive values agree to
    tol.  Also returns vol = average chord length.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_leg)
    u01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights
    volume = math.nan

    def evaluate(n):
        nonlocal volume
        s, xi = circle.phase_nodes(n)
        total = 0.0
        vol = 0.0
        for sk, xik in zip(s, xi):
            _, chord = billiard_map(curve, PhasePoint(float(sk % curve.total_length), float(xik)))
            ell = chord.length
            px = chord.start_xy[0] + ell * u01 * chord.direction[0]
            py = chord.start_xy[1] + ell * u01 * chord.direction[1]
            vals = np.asarray(V(px, py), dtype=float)
            if vals.ndim == 0:
                vals = np.full_like(u01, float(vals))
            total += ell * float(np.dot(w01, vals))
            vol += ell
        # the last call is at the converged n, so volume needs no second pass
        volume = vol / n
        return total / n

    value, n, err = refine(evaluate, n_phi, tol, n_phi * 2 ** max_doublings,
                           "flow-out quadrature")
    return FlowoutResult(value=value, volume=volume, n_phi=n, est_error=err)
