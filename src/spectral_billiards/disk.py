"""Closed forms and oracles for the unit disk.

The disk is the calibration table of the toolkit: every invariant circle
is exact (constant tangential momentum), the normal-form generating data
has elementary closed forms, and the Dirichlet spectrum is the set of
squared Bessel zeros.  The Maslov pair below is calibrated once against
that spectrum and then frozen.

The Bessel zeros come from one array solver, _bessel_zeros, of which
dirichlet_spectrum and bessel_zero are views.  J_0 .. J_m are run up the
forward recurrence from scipy's j0 and j1 on a common lattice, each order
only where x >= m (there the recurrence is stable, and j_{m,1} > m); the
sign changes bracket every zero, and safeguarded Newton on the recurrence
values refines all of them at once.  The zeros lie within about one ulp
of 40-digit mpmath; no Newton step with scipy's jv follows, since near
these zeros its values are less accurate than the recurrence's.
"""

from __future__ import annotations

import math

import numpy as np

from .billiard import PhasePoint
from .errors import ParameterOutOfRange
from .geometry import CircleCurve
from .roots import bracketed_newton, float_newton
from .tori import InvariantCircle, RotationData

# Maslov integers for the Dirichlet disk, calibrated against the Bessel-zero
# oracle: theta0 enters the angular condition mu*I0 = m + theta0/4, theta the
# radial one mu*L0 = 2*pi*p - pi*theta/2.
MASLOV_THETA0 = 0
MASLOV_THETA = 1


def disk_L(I: float) -> float:
    """Loop action L(I) = 2(sqrt(1-I^2) - I*arccos(I)) of the unit disk."""
    return 2.0 * (math.sqrt(1.0 - I * I) - I * math.acos(I))


def disk_grad_L(I: float) -> float:
    return -2.0 * math.acos(I)


def disk_hess_L(I: float) -> float:
    return 2.0 / math.sqrt(1.0 - I * I)


def disk_third_L(I: float) -> float:
    return 2.0 * I / (1.0 - I * I) ** 1.5


def disk_circle(curve: CircleCurve, theta: float, s0: float = 0.0) -> InvariantCircle:
    """Exact invariant circle xi = cos(theta), theta in (0, pi).

    The conjugacy is affine, s(phi) = s0 + r*phi, so the Fourier data is a
    pair of constants; usable at rational rotation numbers where the
    orbit-based fit is unavailable.
    """
    if not 0.0 < theta < math.pi:
        raise ParameterOutOfRange(f"theta must lie in (0, pi), got {theta}")
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

# Step of the bracketing lattice x = i*_GRID_STEP.  It is below the smallest
# gap between consecutive zeros of any J_m (j_{0,2} - j_{0,1} = 3.115) and
# below j_{m,1} - m > 1.855 m^(1/3) (m >= 1), so a cell holds at most one
# zero and the first lattice point at or above m lies below j_{m,1}.
_GRID_STEP = 0.25


def _bessel_pair(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_m(x), J_{m+1}(x)) for an ascending integer array m and x >= m, by
    the forward recurrence J_{k+1} = (2k/x) J_k - J_{k-1} from j0 and j1.
    For k <= m <= x the recurrence runs in the oscillatory range, where it
    is stable; each entry sees the same arithmetic whatever else is in the
    batch."""
    from scipy.special import j0, j1

    a, b = j0(x), j1(x)
    for k in range(1, int(m[-1]) + 1):
        s = np.searchsorted(m, k)
        a[s:], b[s:] = b[s:], (2.0 * k / x[s:]) * b[s:] - a[s:]
    return a, b


def _bessel_zeros(orders, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of J_m for the ascending integer orders given, as arrays
    (m, z) ordered by m and then by z: every zero up to x_max, and any
    that lie between x_max and the next lattice point.

    J_k is run up the forward recurrence on the common lattice of step
    _GRID_STEP, each order only on the points x >= k where the recurrence
    is stable.  The sign changes of J_m bracket its zeros; all brackets are
    refined at once by roots.bracketed_newton on the recurrence values, with
    J_m' = (m/x) J_m - J_{m+1}, from the secant point of each cell until the
    step is below 1e-10 z; convergence is quadratic, so the last step leaves
    an error far below an ulp.  A zero depends only on its order and its
    cell, never on the other orders or on x_max.
    """
    from scipy.special import j0, j1

    orders = np.asarray(orders, dtype=int)
    x = _GRID_STEP * np.arange(math.ceil(x_max / _GRID_STEP) + 1)
    wanted = set(orders.tolist())
    ms, los, his, f_los, f_his = [], [], [], [], []
    a, b = j0(x), j1(x)             # J_k and J_{k+1} on x[s:], the points x >= k
    s = 0
    for k in range(int(orders[-1]) + 1):
        if k:
            cut = math.ceil(k / _GRID_STEP) - s
            s += cut
            a, b = b[cut:], (2.0 * k / x[s:]) * b[cut:] - a[cut:]
        if k in wanted:
            pos = a > 0.0
            i = np.flatnonzero(pos[:-1] != pos[1:])
            ms.append(np.full(len(i), k))
            los.append(x[s + i])
            his.append(x[s + i + 1])
            f_los.append(a[i])
            f_his.append(a[i + 1])
    m, lo, hi = np.concatenate(ms), np.concatenate(los), np.concatenate(his)
    if not len(m):
        return m, lo
    f_lo, f_hi = np.concatenate(f_los), np.concatenate(f_his)

    def j_and_slope(live, x):
        f, g = _bessel_pair(m[live], x)
        return f, (m[live] / x) * f - g

    return m, bracketed_newton(j_and_slope, lo - f_lo * (hi - lo) / (f_hi - f_lo), lo, hi,
                               f_lo > 0.0, 0.0, 1e-10, "Bessel zeros")


def bessel_zero(m: int, p: int) -> float:
    """p-th positive zero of J_m for integers m >= 0, p >= 1, from the same
    solver as dirichlet_spectrum, so the two agree bit for bit."""
    if not (m >= 0 and p >= 1 and m == int(m) and p == int(p)):
        raise ParameterOutOfRange(f"need integers m >= 0 and p >= 1, got m = {m}, p = {p}")
    m, p = int(m), int(p)
    # first zero sits below m + 2*m^(1/3) + 3; later ones are within pi each
    x_max = m + 2.0 * max(1.0, m) ** (1.0 / 3.0) + 3.0 + math.pi * p
    while True:
        _, zeros = _bessel_zeros([m], x_max)
        if len(zeros) >= p:
            return float(zeros[p - 1])
        x_max += math.pi * (p - len(zeros) + 2)


def dirichlet_spectrum(lambda_max: float) -> np.ndarray:
    """Dirichlet eigenvalues of the unit disk up to lambda_max, with
    multiplicity (angular modes m >= 1 are double), sorted.

    The eigenvalues are the squared zeros j_{m,p}^2 <= lambda_max, found
    for all orders m <= sqrt(lambda_max) at once by the array solver
    _bessel_zeros (j_{m,1} > m, so no higher order has a zero in range).
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0.0):
        raise ParameterOutOfRange(f"lambda_max must be a finite positive number, got {lambda_max}")
    mu_max = math.sqrt(lambda_max)
    m, z = _bessel_zeros(np.arange(int(mu_max) + 1), mu_max)
    lam = z * z
    keep = lam <= lambda_max
    return np.sort(np.repeat(lam[keep], np.where(m[keep] == 0, 1, 2)))


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
        raise ParameterOutOfRange("angular index too small for the EBK branch")
    rhs = (2.0 * math.pi * p - 0.5 * math.pi * theta_m) / (2.0 * lhs)
    if rhs <= 0.0:
        raise ParameterOutOfRange("radial quantum number too small for the EBK branch")

    def fun(th):
        tan = math.tan(th)
        return tan - th - rhs, tan * tan

    # tan(th) - th = rhs is convex and increasing, and tan(th) - th >= th^3/3 and
    # th = atan(rhs + th) bound its root above: Newton from there never bisects
    start = min((3.0 * rhs) ** (1.0 / 3.0), math.atan(rhs + 0.5 * math.pi))
    th = float_newton(fun, start, 1e-12, 0.5 * math.pi - 1e-9, 1e-15, 8.9e-16, "EBK angle")
    return lhs / math.cos(th)
