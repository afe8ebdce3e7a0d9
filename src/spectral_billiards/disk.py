"""Closed forms and oracles for the unit disk.

The disk is the calibration table of the toolkit: every invariant circle
is exact (constant tangential momentum), the normal-form generating data
has elementary closed forms, and the Dirichlet spectrum is the set of
squared Bessel zeros.  The Maslov pair below is calibrated once against
that spectrum and then frozen.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from .billiard import PhasePoint
from .geometry import CircleCurve
from .tori import InvariantCircle, RotationData

# Maslov integers for the Dirichlet disk, calibrated against the Bessel-zero
# oracle: theta0 enters the angular condition mu*I0 = m + theta0/4, theta the
# radial one mu*L0 = 2*pi*p - pi*theta/2.
MASLOV_THETA0 = 0
MASLOV_THETA = 1


def disk_L(I: float, r: float = 1.0) -> float:
    """Loop action L(I) = 2(sqrt(r^2-I^2) - I*arccos(I/r))."""
    return 2.0 * (math.sqrt(r * r - I * I) - I * math.acos(I / r))


def disk_grad_L(I: float, r: float = 1.0) -> float:
    return -2.0 * math.acos(I / r)


def disk_hess_L(I: float, r: float = 1.0) -> float:
    return 2.0 / math.sqrt(r * r - I * I)


def disk_third_L(I: float, r: float = 1.0) -> float:
    return 2.0 * I / (r * r - I * I) ** 1.5


def disk_circle(curve: CircleCurve, theta: float, s0: float = 0.0) -> InvariantCircle:
    """Exact invariant circle xi = cos(theta), theta in (0, pi).

    The conjugacy is affine, s(phi) = s0 + r*phi, so the Fourier data is a
    pair of constants; usable at rational rotation numbers where the
    orbit-based fit is unavailable.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    xi = math.cos(theta)
    omega = RotationData(omega=-theta / math.pi, error_estimate=0.0, method="closed-form")
    s_coeffs = np.array([s0 + 0.0j])
    xi_coeffs = np.array([xi + 0.0j])
    return InvariantCircle(omega=omega, total_length=curve.total_length,
                           s_coeffs=s_coeffs, xi_coeffs=xi_coeffs,
                           residual=0.0, seed=PhasePoint(s0 % curve.total_length, xi),
                           n_modes=0)


# ---------------------------------------------------------------------------
# Bessel-zero oracle
# ---------------------------------------------------------------------------

def bessel_zeros_upto(m: int, x_max: float) -> list[float]:
    """All positive zeros of J_m below x_max, by sign-change marching plus
    Brent refinement.  Consecutive zeros of J_m are separated by more than
    pi/2, so a pi/2 march cannot skip one."""
    zeros: list[float] = []
    x = max(float(m), 1e-6)
    step = 0.5 * math.pi
    f_prev = jv(m, x)
    while x < x_max:
        x_next = x + step
        f_next = jv(m, x_next)
        if f_prev == 0.0:
            zeros.append(x)
        elif f_prev * f_next < 0.0:
            z = brentq(lambda t: jv(m, t), x, x_next, xtol=1e-13, rtol=8.9e-16)
            if z <= x_max:
                zeros.append(float(z))
        x, f_prev = x_next, f_next
    return zeros


def bessel_zero(m: int, p: int) -> float:
    """p-th positive zero of J_m (p >= 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    # first zero sits below m + 2*m^(1/3) + 3; later ones are within pi each
    x_max = m + 2.0 * max(1.0, m) ** (1.0 / 3.0) + 3.0 + math.pi * p
    zeros = bessel_zeros_upto(m, x_max)
    while len(zeros) < p:
        x_max += math.pi * (p - len(zeros) + 2)
        zeros = bessel_zeros_upto(m, x_max)
    return zeros[p - 1]


def dirichlet_spectrum(lambda_max: float) -> np.ndarray:
    """Dirichlet eigenvalues of the unit disk up to lambda_max, with
    multiplicity (angular modes m >= 1 are double)."""
    mu_max = math.sqrt(lambda_max)
    eigs: list[float] = []
    m = 0
    while True:
        zs = bessel_zeros_upto(m, mu_max)
        if not zs:
            break
        for z in zs:
            lam = z * z
            eigs.append(lam)
            if m >= 1:
                eigs.append(lam)
        m += 1
    return np.sort(np.array(eigs))


def shipped_spectrum_path() -> str:
    """Path of the packaged disk Dirichlet spectrum file (lambda <= 3600)."""
    from importlib import resources
    return str(resources.files("spectral_billiards") / "data" / "disk_dirichlet_3600.txt")


# ---------------------------------------------------------------------------
# EBK quantization of whispering-gallery modes
# ---------------------------------------------------------------------------

def ebk_eigenvalue(m: int, p: int, maslov: tuple[int, int] = (MASLOV_THETA0, MASLOV_THETA)) -> float:
    """Solve the quantization pair mu*cos(theta) = m + theta0/4 and
    mu*2(sin(theta) - theta*cos(theta)) = 2*pi*p - pi*theta/2 for mu."""
    theta0, theta_m = maslov
    lhs = m + theta0 / 4.0
    if lhs <= 0.0:
        raise ValueError("angular index too small for the EBK branch")
    rhs = (2.0 * math.pi * p - 0.5 * math.pi * theta_m) / (2.0 * lhs)
    if rhs <= 0.0:
        raise ValueError("radial quantum number too small for the EBK branch")

    def fun(th):
        return math.tan(th) - th - rhs

    th = brentq(fun, 1e-12, 0.5 * math.pi - 1e-9, xtol=1e-15, rtol=8.9e-16)
    return lhs / math.cos(th)
