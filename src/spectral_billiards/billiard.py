"""Billiard ball map on the coball bundle of a convex boundary.

Phase space is (s, xi): arclength along the boundary and tangential
momentum, |xi| < 1.  The outgoing unit direction at (s, xi) is
xi*T(s) + sqrt(1-xi^2)*nu(s).  The bounce itself lives on the curve:
BoundaryCurve.step finds the next intersection with the boundary in the
construction parameter t (closed-form quadratic for circles/ellipses,
bracketed Newton solve for Fourier curves) to ~1e-12.  Batches of phase
points go through billiard_map_many, which converts s <-> t once for the
whole batch and bounces it with BoundaryCurve.step_many, array arithmetic
on every curve kind; billiard_map is its one-point view and orbit() calls
the scalar step in t.
The chord length is the generating function of the map:
d(len)/ds = -xi, d(len)/ds' = xi'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateChord, GlancingRay, NewtonDivergence,
                     NoTransversalHit, QuadratureNonConvergence)
from .geometry import TWO_PI, BoundaryCurve

EPS_GLANCE = 1e-6


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


def billiard_map_many(curve: BoundaryCurve, s, xi, eps_glance: float = EPS_GLANCE):
    """Apply the billiard ball map once to each phase point (s[i], xi[i]).

    One glancing check, one s -> t solve, one curve.step_many and one
    t -> s conversion for the whole batch.  Returns the arrays
    (s', xi', chord length, t, t'), t and t' the construction parameters
    of the chord's endpoints; entry i equals billiard_map on point i.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    peak = float(np.max(np.abs(xi)))
    if peak > 1.0 - eps_glance:
        raise GlancingRay(f"|xi| = {peak} exceeds the glancing cutoff 1-{eps_glance}")
    t = curve.param_of_arclength(s % curve.total_length)
    t1, xi1, ell = curve.step_many(t, xi)
    s1 = curve.arclength_of_param(t1) % curve.total_length
    return s1, xi1, ell, t, t1


def billiard_map(curve: BoundaryCurve, p: PhasePoint,
                 eps_glance: float = EPS_GLANCE) -> tuple[PhasePoint, ChordData]:
    """Apply the billiard ball map once; returns the image point and chord."""
    s1, xi1, ell, t, t1 = (float(v[0]) for v in billiard_map_many(curve, p.s, p.xi, eps_glance))
    target = PhasePoint(s1, xi1)
    x0, y0 = (float(v) for v in curve.position_t(t))
    x1, y1 = (float(v) for v in curve.position_t(t1))
    direction = ((x1 - x0) / ell, (y1 - y0) / ell)
    chord = ChordData(source=p, target=target, length=ell, action=ell,
                      start_xy=(x0, y0), end_xy=(x1, y1), direction=direction)
    return target, chord


@dataclass
class Orbit:
    """m bounces of the billiard map, stored as arrays.

    t and s are lifted (not reduced mod the period) so rotation numbers can
    be read off; s_mod gives the modular view.
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
            t_next, xi, ell = curve.step(t % TWO_PI, xi)
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


def generating_residual(curve: BoundaryCurve, s: float, s_prime: float) -> tuple[float, float]:
    """Defect of the generating relations d(len)/ds = -xi, d(len)/ds' = xi',
    with the derivatives taken by central finite differences."""
    xi, xi_p, _ = chord_momenta(curve, s, s_prime)
    h = 1e-6 * max(1.0, curve.total_length)

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
    L = curve.total_length
    # the four stencil points (s+-step, xi) and (s, xi+-step) as one batch
    s = (p.s + np.array([step, -step, 0.0, 0.0])) % L
    xi = p.xi + np.array([0.0, 0.0, step, -step])
    for _ in range(iterations):
        s, xi, *_ = billiard_map_many(curve, s, xi)
    ds = ((s[0::2] - s[1::2] + 0.5 * L) % L) - 0.5 * L
    return np.array([ds, xi[0::2] - xi[1::2]]) / (2.0 * step)


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
                     n_phi: int = 256, tol: float = 1e-9) -> FlowoutResult:
    """Integral of V over the flow-out of an invariant circle.

    Chords issued from the circle are integrated in arclength with 64
    Gauss-Legendre nodes and averaged against the circle's invariant
    measure; the phi-grid is doubled, at most six times, until two
    successive values agree to tol.  Also returns vol = average chord
    length.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    u01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights
    volume = math.nan

    def evaluate(n):
        nonlocal volume
        _, _, ell, t, t1 = billiard_map_many(curve, *circle.phase_nodes(n))
        x0, y0 = curve.position_t(t)
        x1, y1 = curve.position_t(t1)
        # the 64 points of each chord as one row of an (n, 64) array
        px = x0[:, None] + (x1 - x0)[:, None] * u01
        py = y0[:, None] + (y1 - y0)[:, None] * u01
        vals = np.broadcast_to(np.asarray(V(px, py), dtype=float), px.shape)
        # the last call is at the converged n, so volume needs no second pass
        volume = float(np.mean(ell))
        return float(np.mean(ell * (vals @ w01)))

    value, n, err = refine(evaluate, n_phi, tol, n_phi * 2 ** 6,
                           "flow-out quadrature")
    return FlowoutResult(value=value, volume=volume, n_phi=n, est_error=err)
