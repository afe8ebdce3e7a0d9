"""Billiard ball map on the coball bundle of a convex boundary.

Phase space is (s, xi): arclength along the boundary and tangential
momentum, |xi| < 1.  The outgoing unit direction at (s, xi) is
xi*T(s) + sqrt(1-xi^2)*nu(s).  The bounce itself lives on the curve, in
the construction parameter t (closed form for circles/ellipses; on Fourier
curves roots.float_newton on the radial gap, bracketed by the curvature
bounds of Blaschke's rolling theorem).  Batches of phase points go through
billiard_map_many, which converts s <-> t once for the whole batch and
bounces it with BoundaryCurve.step_many: array arithmetic on conics, the
scalar step mapped over the nodes on Fourier curves.  billiard_map is its
one-point view.  orbit() converts s -> t once and runs the curve's
orbit_t: on conics one scalar kernel that carries the point and tangent
from bounce to bounce, on Fourier curves the scalar step in a loop.
The chord length is the generating function of the map:
d(len)/ds = -xi, d(len)/ds' = xi'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GlancingRay, ParameterOutOfRange, QuadratureNonConvergence
from .geometry import EPS_GLANCE, TWO_PI, BoundaryCurve


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


def billiard_map_many(curve: BoundaryCurve, s, xi):
    """Apply the billiard ball map once to each phase point (s[i], xi[i]).

    One glancing check, one s -> t solve, one curve.step_many and one
    t -> s conversion for the whole batch.  Returns the arrays
    (s', xi', chord length, t, t'), t and t' the construction parameters
    of the chord's endpoints; entry i equals billiard_map on point i.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    peak = float(np.max(np.abs(xi)))
    if peak > 1.0 - EPS_GLANCE:
        raise GlancingRay(f"|xi| = {peak} exceeds the glancing cutoff 1-{EPS_GLANCE}")
    t = curve.param_of_arclength(s % curve.total_length)
    t1, xi1, ell = curve.step_many(t, xi)
    s1 = curve.arclength_of_param(t1) % curve.total_length
    return s1, xi1, ell, t, t1


def billiard_map(curve: BoundaryCurve, p: PhasePoint) -> tuple[PhasePoint, ChordData]:
    """Apply the billiard ball map once; returns the image point and chord."""
    s1, xi1, ell, t, t1 = (float(v[0]) for v in billiard_map_many(curve, p.s, p.xi))
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


def orbit(curve: BoundaryCurve, p: PhasePoint, m: int) -> Orbit:
    """Iterate the billiard map m times from p: one s -> t solve, then the
    curve's own orbit_t."""
    if m < 1:
        raise ParameterOutOfRange(f"need at least one bounce, got m = {m}")
    t = curve.param_of_arclength(p.s % curve.total_length)
    ts, xis, ells = curve.orbit_t(t, p.xi, m)
    return Orbit(curve=curve, t_lifted=ts, xi=xis, lengths=ells)


def map_jacobian(curve: BoundaryCurve, p: PhasePoint) -> np.ndarray:
    """Central-difference Jacobian of B at p in (s, xi), step 1e-6."""
    step = 1e-6
    L = curve.total_length
    # the four stencil points (s+-step, xi) and (s, xi+-step) as one batch
    s = (p.s + np.array([step, -step, 0.0, 0.0])) % L
    xi = p.xi + np.array([0.0, 0.0, step, -step])
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
    above 1 and absolute below; returns (value, n, est_error), est_error the
    last difference but at least 4 ulps of the value, since two sums that
    agree bit for bit still carry rounding.  Raises QuadratureNonConvergence
    naming `what` once n reaches n_cap."""
    prev = evaluate(n0)
    n = n0
    while n < n_cap:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) < tol * max(1.0, abs(cur)):
            return cur, n, max(abs(cur - prev), 4.0 * math.ulp(cur))
        prev = cur
    raise QuadratureNonConvergence(f"{what} did not settle at {n} nodes")


@functools.lru_cache(maxsize=None)
def _legendre01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only since
    every call shares them; n runs over 16, 64 and the powers of two refine
    visits, so the cache stays small."""
    u, g = np.polynomial.legendre.leggauss(n)
    u, g = 0.5 * (u + 1.0), 0.5 * g
    u.flags.writeable = g.flags.writeable = False
    return u, g


def flowout_integral(curve: BoundaryCurve, circle, V,
                     n_phi: int = 256, tol: float = 1e-9) -> FlowoutResult:
    """Integral of V over the flow-out of an invariant circle.

    Chords issued from the circle are integrated in arclength with 64
    Gauss-Legendre nodes and averaged against the circle's invariant
    measure; the phi-grid is doubled, at most six times, until two
    successive values agree to tol.  Also returns vol = average chord
    length.
    """
    u01, w01 = _legendre01(64)
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
