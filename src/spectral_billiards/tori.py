"""Kronecker invariant circles of the billiard map.

Rotation numbers come from weighted Birkhoff averages (super-polynomial
convergence on Diophantine circles), conjugacies to rigid rotation from a
weighted Fourier projection of one long orbit, actions and normal-form
data from loop integrals along the fitted circle, and the Hessian of L
from the mean twist of the map in the circle's tangent-normal frame, so
no neighbouring circle is fitted.

Sign convention: the orbit advances the angle by +2*pi*omega_orbit per
bounce; the stored normal-form rotation datum is omega = -omega_orbit
(un-reduced, negative for counterclockwise circles), which makes the
conjugacy relation B(F(phi)) = F(phi - 2*pi*omega) and the identity
L(I0) - 2*pi*I0*omega = mean chord action hold without mod-1 fixups.
Diophantine tests reduce omega mod 1, where the sign is immaterial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .billiard import (EPS_GLANCE, Orbit, PhasePoint, billiard_map,
                       billiard_map_many, orbit)
from .errors import (FitDiverged, OrbitTooShort, ParameterOutOfRange,
                     ResonantRotation)
from .geometry import TWO_PI, BoundaryCurve


# ---------------------------------------------------------------------------
# weighted Birkhoff averaging
# ---------------------------------------------------------------------------

def birkhoff_weights(n: int) -> np.ndarray:
    """Bump-function weights w(j/(n+1)), w(t) = exp(-1/(t(1-t)))."""
    t = np.arange(1, n + 1) / (n + 1.0)
    w = np.exp(-1.0 / (t * (1.0 - t)))
    return w / w.sum()


def weighted_birkhoff_average(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.dot(birkhoff_weights(len(values)), values))


@dataclass(frozen=True)
class RotationData:
    omega: float
    error_estimate: float
    method: str

    def reduced(self) -> float:
        return self.omega % 1.0


@dataclass(frozen=True)
class DiophantineWitness:
    kappa_hat: float
    tau: float
    k_max: int
    argmin_k: tuple[int, ...]
    k_n: int

    @property
    def resonant(self) -> bool:
        return self.kappa_hat == 0.0


def rotation_number(orb: Orbit) -> RotationData:
    """Rotation number of an orbit confined to one invariant circle.

    Weighted Birkhoff average of the lifted arclength increments; the
    error estimate comes from two half-sample estimates, and the method
    falls back to the order-based estimator if they disagree by > 1e-6.
    """
    total_length = orb.curve.total_length
    increments = np.diff(orb.s_lifted)
    n = len(increments)
    if n < 1000:
        raise OrbitTooShort(f"need >= 1000 bounces, got {n}")
    full = weighted_birkhoff_average(increments) / total_length
    half1 = weighted_birkhoff_average(increments[: n // 2]) / total_length
    half2 = weighted_birkhoff_average(increments[n // 2:]) / total_length
    err = max(abs(full - half1), abs(full - half2))
    if err > 1e-6:
        return _order_based(np.concatenate([[0.0], np.cumsum(increments)]), total_length)
    return RotationData(full, err, "weighted-average")


def _order_based(s_lifted: np.ndarray, total_length: float) -> RotationData:
    """Best-return rational estimate p/q (error ~ 1/q^2 along
    continued-fraction denominators)."""
    s_rel = s_lifted - s_lifted[0]
    frac = (s_rel % total_length) / total_length
    dist = np.minimum(frac, 1.0 - frac)[1:]
    n_best = int(np.argmin(dist)) + 1
    p_best = round(s_rel[n_best] / total_length)
    err = dist[n_best - 1] / n_best
    return RotationData(p_best / n_best, err, "order-based")


def diophantine_kappa(omega, tau: float, k_max: int) -> DiophantineWitness:
    """Best constant kappa_hat = min |<omega,k>+k_n| * (sum|k_j|)^tau over
    the truncated lattice 0 < sum|k_j| <= k_max.  Exhaustive scan;
    kappa_hat = 0 flags an exact resonance in range."""
    if k_max < 1:
        raise ParameterOutOfRange(f"k_max must be >= 1, got {k_max}")
    omega_vec = np.atleast_1d(np.asarray(omega, dtype=float))
    dim = len(omega_vec)
    best = math.inf
    best_k: tuple[int, ...] = (0,) * dim
    best_kn = 0
    if dim == 1:
        w = float(omega_vec[0])
        for k in range(1, k_max + 1):
            x = k * w
            kn = -round(x)
            val = abs(x + kn) * k**tau
            if val < best:
                best, best_k, best_kn = val, (k,), kn
    else:
        for k in itertools.product(range(-k_max, k_max + 1), repeat=dim):
            norm1 = sum(abs(c) for c in k)
            if norm1 == 0 or norm1 > k_max:
                continue
            x = float(np.dot(omega_vec, k))
            kn = -round(x)
            val = abs(x + kn) * norm1**tau
            if val < best:
                best, best_k, best_kn = val, tuple(k), kn
    return DiophantineWitness(kappa_hat=best, tau=tau, k_max=k_max,
                              argmin_k=best_k, k_n=best_kn)


# ---------------------------------------------------------------------------
# invariant circles
# ---------------------------------------------------------------------------

def _modes(coeffs: np.ndarray) -> np.ndarray:
    """Mode numbers -K..K of a coefficient vector of length 2K+1."""
    return np.arange(-(len(coeffs) // 2), len(coeffs) // 2 + 1)


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients ik*c_k of the derivative of sum_k c_k e^{ik phi}."""
    return 1j * _modes(coeffs) * coeffs


def _eval_series(coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The real series sum_k c_k e^{ik phi} at arbitrary points, densely."""
    return np.real(np.exp(1j * np.outer(phi, _modes(coeffs))) @ coeffs)


def _uniform_series(a: np.ndarray, b: np.ndarray, n: int, shift: float = 0.0):
    """Two real series sum_k a_k e^{ik phi} and sum_k b_k e^{ik phi} on the
    grid phi_j = shift + 2*pi*j/n, j < n, by one inverse FFT of a + i*b.

    Mode k lands in bin k mod n.  For n <= 2K several modes share a bin
    and are summed; on the grid they are indistinguishable, so every n >= 1
    matches the dense sums.
    """
    kk = _modes(a)
    coeffs = a + 1j * b
    if shift:
        coeffs = coeffs * np.exp(1j * kk * shift)
    spectrum = np.zeros(n, dtype=complex)
    np.add.at(spectrum, kk % n, coeffs)
    values = np.fft.ifft(spectrum, norm="forward")
    return values.real, values.imag


@dataclass
class InvariantCircle:
    """Kronecker circle: Fourier conjugacy F(phi) = (s(phi), xi(phi)) with
    B(F(phi)) = F(phi - 2*pi*omega), omega the normal-form rotation datum.

    s(phi) = (L/2pi)*phi + periodic part; dmu is the pushforward of
    dphi/2pi, realized as uniform phi-grids.
    """
    omega: RotationData
    total_length: float
    s_coeffs: np.ndarray       # periodic part of s(phi), k = -K..K
    xi_coeffs: np.ndarray
    residual: float
    seed: PhasePoint
    n_modes: int

    @property
    def omega_orbit(self) -> float:
        return -self.omega.omega

    def s_of_phi(self, phi):
        phi = np.asarray(phi, dtype=float)
        return (self.total_length / TWO_PI) * phi + _eval_series(self.s_coeffs, np.atleast_1d(phi)).reshape(phi.shape)

    def xi_of_phi(self, phi):
        phi = np.asarray(phi, dtype=float)
        return _eval_series(self.xi_coeffs, np.atleast_1d(phi)).reshape(phi.shape)

    def phase_nodes(self, n: int = 1024):
        """Equal-weight nodes of the invariant probability measure."""
        return self.grid(n)[1:]

    def measure_nodes(self, n: int = 1024):
        """phase_nodes with their equal probability weights: (s, xi, w)."""
        s, xi = self.phase_nodes(n)
        return s, xi, np.full(n, 1.0 / n)

    def grid(self, n: int = 1024, shift: float = 0.0):
        """(phi, s(phi) mod L, xi(phi)) on phi = shift + 2*pi*j/n, j < n;
        both series come from one inverse FFT."""
        phi = shift + TWO_PI * np.arange(n) / n
        s_per, xi = _uniform_series(self.s_coeffs, self.xi_coeffs, n, shift)
        s = (self.total_length / TWO_PI) * phi + s_per
        return phi, s % self.total_length, xi

    def point(self, phi: float) -> PhasePoint:
        return PhasePoint(float(self.s_of_phi(phi)) % self.total_length,
                          float(self.xi_of_phi(phi)))


def _fit_coeffs(values: np.ndarray, phases: np.ndarray, n_modes: int) -> np.ndarray:
    """Fourier coefficients of a periodic function sampled along an orbit.

    Sorts the samples by phase mod 2*pi, interpolates the closure with a
    periodic cubic spline onto a uniform grid and reads the coefficients
    off an FFT.  Interpolation is local, so near-resonant rotation numbers
    do not amplify any mode (unlike a direct weighted projection).
    """
    from scipy.interpolate import CubicSpline

    ph = np.asarray(phases, dtype=float) % TWO_PI
    order = np.argsort(ph)
    ph, vals = ph[order], np.asarray(values, dtype=float)[order]
    keep = np.concatenate([[True], np.diff(ph) > 1e-12])
    ph, vals = ph[keep], vals[keep]
    x = np.concatenate([ph, [ph[0] + TWO_PI]])
    y = np.concatenate([vals, [vals[0]]])
    spline = CubicSpline(x, y, bc_type="periodic")
    grid = 16384
    uniform = ph[0] + TWO_PI * np.arange(grid) / grid
    c = np.fft.rfft(spline(uniform)) / grid
    # undo the grid offset: samples start at ph[0], not 0
    c = c * np.exp(-1j * np.arange(len(c)) * ph[0])
    coeffs = np.zeros(2 * n_modes + 1, dtype=complex)
    top = min(n_modes, len(c) - 1)
    coeffs[n_modes] = c[0].real
    coeffs[n_modes + 1: n_modes + 1 + top] = c[1: top + 1]
    coeffs[n_modes - top: n_modes] = np.conj(c[1: top + 1][::-1])
    return coeffs


def _conjugacy_residual(curve: BoundaryCurve, circ: InvariantCircle):
    """(max residual, mean s-defect) of B(F(phi)) = F(phi + 2*pi*omega_orbit)
    on a uniform 512-point grid, from one batched map call."""
    _, s, xi = circ.grid(512)
    xi_peak = float(np.max(np.abs(xi)))
    if xi_peak > 1.0 - EPS_GLANCE:
        raise FitDiverged(f"fitted circle reaches |xi| = {xi_peak!r}, "
                          f"past the glancing cutoff 1-{EPS_GLANCE}")
    s_img, xi_img, *_ = billiard_map_many(curve, s, xi)
    _, s_tgt, xi_tgt = circ.grid(512, TWO_PI * circ.omega_orbit)
    L = curve.total_length
    ds = ((s_img - s_tgt + 0.5 * L) % L) - 0.5 * L
    return float(np.max(np.hypot(ds, xi_img - xi_tgt))), float(np.mean(ds))


_N_FIT = 8192                  # bounces of the orbit circle_conjugacy fits


def circle_conjugacy(curve: BoundaryCurve, seed: PhasePoint, n_modes: int = 64,
                     tol_conj: float = 1e-8) -> InvariantCircle:
    """Fit the Fourier conjugacy of the invariant circle through seed.

    One orbit of 8192 bounces supplies everything: the rotation number by
    weighted Birkhoff averaging, the conjugacy coefficients by spline
    interpolation at the phases 2*pi*n*omega, and an omega-polish loop
    driven by the mean conjugacy defect.  Each round costs one batched
    map call; the loop refits while the residual falls and keeps the last
    fit that lowered it.
    """
    orb = orbit(curve, seed, _N_FIT)
    rot = rotation_number(orb)
    witness = diophantine_kappa(rot.omega % 1.0, 1.0, 50)
    if witness.kappa_hat < 1e-8:
        raise ResonantRotation(
            f"rotation number {rot.omega % 1.0:.12f} is resonant: "
            f"kappa_hat={witness.kappa_hat:.3e} at k={witness.argmin_k}")

    L = curve.total_length
    n_idx = np.arange(_N_FIT + 1)
    omega_orbit = rot.omega
    best = None
    # the mean s-defect is linear in the omega error; each round returns,
    # lowers the residual or ends the loop, and a polish too small to move
    # omega repeats the fit exactly, so the residual cannot fall forever
    while True:
        phases = TWO_PI * omega_orbit * n_idx
        g = orb.s_lifted - L * omega_orbit * n_idx
        circ = InvariantCircle(
            omega=RotationData(-omega_orbit, rot.error_estimate, rot.method),
            total_length=L, s_coeffs=_fit_coeffs(g, phases, n_modes),
            xi_coeffs=_fit_coeffs(orb.xi, phases, n_modes),
            residual=math.nan, seed=seed, n_modes=n_modes)
        circ.residual, defect = _conjugacy_residual(curve, circ)
        if best is not None and not circ.residual < best.residual:
            break
        best = circ
        if circ.residual < tol_conj:
            return circ
        omega_orbit += defect / L
    if best.residual < 10.0 * tol_conj:
        return best
    raise FitDiverged(
        f"conjugacy residual {best.residual:.3e} above tolerance {tol_conj:.1e} "
        f"with n_modes={n_modes}, n_fit={_N_FIT}")


# ---------------------------------------------------------------------------
# action data
# ---------------------------------------------------------------------------

@dataclass
class ActionData:
    I0: float
    L0: float
    gradL: float
    hessL: float | None
    A_avg: float
    omega: RotationData

    @property
    def identity_residual(self) -> float:
        """Defect of L(I0) - I0*gradL = average chord action."""
        return self.L0 - self.I0 * self.gradL - self.A_avg

    def as_dict(self) -> dict:
        return {"I0": self.I0, "L0": self.L0, "gradL": self.gradL,
                "hessL": self.hessL, "A_avg": self.A_avg,
                "omega": self.omega.omega, "omega_method": self.omega.method,
                "identity_residual": self.identity_residual}


def _chord_average(curve: BoundaryCurve, circ: InvariantCircle, n: int) -> float:
    return float(np.mean(billiard_map_many(curve, *circ.phase_nodes(n))[2]))


def _loop_action(circ: InvariantCircle, n: int) -> float:
    sprime_per, xi = _uniform_series(_derivative(circ.s_coeffs), circ.xi_coeffs, n)
    return float(np.mean(xi * ((circ.total_length / TWO_PI) + sprime_per)))


def _geometric_L0(curve: BoundaryCurve, circ: InvariantCircle) -> float:
    """Action along the chord from F(0) plus the arc of the circle back to
    F(0): the loop whose xi dx integral defines L(I0)."""
    p0 = circ.point(0.0)
    _, chord = billiard_map(curve, p0)
    # Fourier antiderivative of xi(phi) * s'(phi) between 0 and 2*pi*omega_orbit
    K = len(circ.xi_coeffs) // 2
    sprime = _derivative(circ.s_coeffs)
    sprime[K] += circ.total_length / TWO_PI
    prod = np.convolve(circ.xi_coeffs, sprime)
    kk2 = np.arange(-2 * K, 2 * K + 1)
    phi1 = TWO_PI * circ.omega_orbit
    partial = np.real(prod[2 * K]) * phi1
    nz = kk2 != 0
    partial += float(np.real(np.sum(prod[nz] * (np.exp(1j * kk2[nz] * phi1) - 1.0)
                                    / (1j * kk2[nz]))))
    return chord.length - partial


def _frame(circ: InvariantCircle, n: int, shift: float = 0.0):
    """Tangent F' = (s', xi') and normal N = (-xi', s')/|F'|^2 of the circle
    on phi = shift + 2*pi*j/n, each as an (s, xi) pair of arrays.

    Omega(F', N) = 1 for the area form Omega(u, v) = u_s v_xi - u_xi v_s.
    """
    ds, dxi = _uniform_series(_derivative(circ.s_coeffs), _derivative(circ.xi_coeffs), n, shift)
    ds = ds + circ.total_length / TWO_PI
    norm2 = ds * ds + dxi * dxi
    return (ds, dxi), (-dxi / norm2, ds / norm2)


def _mean_twist(curve: BoundaryCurve, circ: InvariantCircle, n: int) -> float:
    """Mean over phi of T(phi) = Omega(DB N(phi), N(phi + alpha)), where
    alpha = -2*pi*omega; DB N is a central difference along N, with all
    2n stencil points in one batched map call."""
    step = 1e-6
    _, s, xi = circ.grid(n)
    _, (ns, nxi) = _frame(circ, n)
    L = curve.total_length
    s_img, xi_img, *_ = billiard_map_many(curve, np.concatenate([s + step * ns, s - step * ns]) % L,
                                          np.concatenate([xi + step * nxi, xi - step * nxi]))
    dbn_s = (((s_img[:n] - s_img[n:] + 0.5 * L) % L) - 0.5 * L) / (2.0 * step)
    dbn_xi = (xi_img[:n] - xi_img[n:]) / (2.0 * step)
    _, (ts, txi) = _frame(circ, n, TWO_PI * circ.omega_orbit)
    return float(np.mean(dbn_s * txi - dbn_xi * ts))


def action_data(curve: BoundaryCurve, circ: InvariantCircle, hess: bool = True) -> ActionData:
    """Action variable, loop action and normal-form derivatives of L.

    Every ingredient is computed by an independent route (loop integral,
    chord average, geometric loop action, orbit rotation number), so the
    identity_residual is a genuine check of the normal-form identities.

    hessL = d(gradL)/dI is read off the fitted circle itself.  Let F_I be
    the family of invariant circles by action, B(F_I(phi)) =
    F_I(phi + alpha(I)) with alpha = -2*pi*omega, and write
    d_I F = a F' + b N in the frame of _frame.  The pulled-back area form
    b dphi ^ dI is invariant under phi -> phi + alpha and has mean 1 (the
    enclosed area is 2*pi*I), so b = 1.  Area preservation splits
    DB N(phi) = T(phi) F'(phi + alpha) + N(phi + alpha), and
    differentiating the conjugacy in I gives
    a(phi) - a(phi + alpha) + T(phi) = alpha'(I).  Averaged over phi,
    hessL = 2*pi*omega'(I) = -alpha'(I) = -<T>.
    """
    I0 = _loop_action(circ, 1024)
    A_avg = _chord_average(curve, circ, 1024)
    gradL = TWO_PI * circ.omega.omega
    L0 = _geometric_L0(curve, circ)
    hessL = -_mean_twist(curve, circ, 1024) if hess else None
    return ActionData(I0=I0, L0=L0, gradL=gradL, hessL=hessL, A_avg=A_avg,
                      omega=circ.omega)
