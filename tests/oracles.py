"""Reference implementations that only the tests use.

Each one checks the package by a route of its own: the conserved quantity
of the ellipse map, the generating relations of the chord length by finite
differences, and the quantization equations evaluated directly at a solved
quasi-eigenvalue series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from spectral_billiards.errors import ValidationError
from spectral_billiards.geometry import (TWO_PI, BoundaryCurve, CircleCurve,
                                         EllipseCurve)
from spectral_billiards.quasi import BirkhoffData, QuasiEigenvalue


class DegenerateChord(ValidationError):
    """Chord endpoints coincide."""


def liouville_integral(curve: BoundaryCurve, s, xi):
    """First integral of the ellipse map, f(t) - xi_x^2 in confocal
    coordinates; reduces to -xi^2 r^2 on the circle."""
    if isinstance(curve, CircleCurve):
        return -np.asarray(xi) ** 2 * curve.r**2
    if not isinstance(curve, EllipseCurve):
        raise TypeError("conserved quantity is only available for circles and ellipses")
    a, b = curve.a, curve.b
    t = curve.param_of_arclength(np.asarray(s) % curve.total_length)
    sin2 = np.sin(t) ** 2
    speed2 = a * a * sin2 + b * b * (1.0 - sin2)
    return (a * a - b * b) * sin2 - np.asarray(xi) ** 2 * speed2


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


def quantization_residuals(data: BirkhoffData, qe: QuasiEigenvalue) -> tuple[float, float, float]:
    """Defects of the two quantization equations at the solved series.

    Independent of the recursion algebra: evaluates mu*zeta - (k+theta0/4)
    and mu*L(zeta) + (1/i)Log(1 + p0(zeta,mu)/mu) - (2*pi*k_n - pi*theta/2)
    directly.  Returns (|r1|, |Re r2|, |Im r2|): the real parts are
    O(mu0^{-(M+1)}), while Im r2 carries the |p0_{0,0}|^2/(2 mu^2) modulus
    defect of the unimodular symbol, the bookkeeping dropped when the
    quasi-eigenvalue is taken real.
    """
    k, k_n = qe.q
    M = qe.M
    eps = 1.0 / qe.mu0
    mu = qe.mu0 + sum(qe.c[j] * eps ** j for j in range(M + 1))
    zeta = data.I0 + sum(qe.b[j] * eps ** (j + 1) for j in range(M + 2))
    r1 = mu * zeta - (k + data.maslov_theta0 / 4.0)
    dz = zeta - data.I0
    L3 = data.L3 if data.L3 is not None else 0.0
    L_val = data.L0 + TWO_PI * data.omega * dz + 0.5 * data.hessL * dz ** 2 + L3 * dz ** 3 / 6.0
    p_val = 0j
    for (j, alpha), pv in data.birkhoff_p.items():
        p_val += pv * dz ** alpha * mu ** (-j)
    r2 = mu * L_val + cmath.log(1.0 + p_val / mu) / 1j - (TWO_PI * k_n - 0.5 * math.pi * data.maslov_theta)
    return abs(r1), abs(r2.real), abs(r2.imag)
