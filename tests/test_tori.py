import math

import numpy as np
import pytest
from scipy import special

from spectral_billiards import tori
from spectral_billiards.billiard import (PhasePoint, billiard_map_many,
                                         map_jacobian, orbit)
from spectral_billiards.disk import (disk_L, disk_circle, disk_grad_L,
                                     disk_hess_L)
from spectral_billiards.errors import (FitDiverged, OrbitTooShort,
                                       ResonantRotation)
from spectral_billiards.geometry import make_ellipse
from spectral_billiards.tori import (InvariantCircle, RotationData,
                                     _conjugacy_residual, action_data,
                                     circle_conjugacy, diophantine_kappa,
                                     rotation_number)

TWO_PI = 2.0 * math.pi


def ellipse_periods(a: float, b: float):
    """Period-integral oracles (leray(h), omega(h)) of the a x b ellipse,
    from its Liouville data f = c^2 sin^2 x, q = -c^2 sinh^2 y, boundary
    y = N = atanh(b/a); the circle through (s, xi) = (0, xi0) is the level
    h = -b^2 xi0^2.

    Both periods are Legendre forms: the Leray mass
    int_0^{2pi} dx/sqrt(f - h) = 4 K(m)/sqrt(c^2 - h), m = c^2/(c^2 - h),
    and the caustic time 2 int_{y_h}^N dy/sqrt(h - q) = 2 F(phi | m')/(c
    sqrt(1 + u^2)) with u = sinh y_h = sqrt(-h)/c, phi = acos(u/sinh N),
    m' = 1/(1 + u^2).  omega(h) = caustic time / Leray mass is the orbit
    rotation number.
    """
    c2 = a * a - b * b
    sinh_n = b / math.sqrt(c2)

    def leray(h):
        return 4.0 * special.ellipk(c2 / (c2 - h)) / math.sqrt(c2 - h)

    def omega(h):
        u = math.sqrt(-h / c2)
        caustic = (2.0 * special.ellipkinc(math.acos(u / sinh_n), 1.0 / (1.0 + u * u))
                   / math.sqrt(c2 * (1.0 + u * u)))
        return caustic / leray(h)

    return leray, omega


def ellipse_hess_L(a: float, b: float, xi0: float) -> float:
    """Oracle for hessL on the circle of the a x b ellipse through (s, xi) =
    (0, xi0): dI/dh = -Leray mass/(4 pi) and d omega/dh is a five-point
    difference of ellipse_periods, and hessL = -2 pi d omega/dI.
    """
    leray, omega = ellipse_periods(a, b)
    h = -(b * xi0) ** 2
    dh = 2e-3 * abs(h)
    w = [omega(h + k * dh) for k in (-2, -1, 1, 2)]
    domega_dh = (w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * dh)
    return float(-TWO_PI * domega_dh / (-leray(h) / (2.0 * TWO_PI)))


# --- rotation numbers ---------------------------------------------------------

def test_rotation_number_one_third(unit_circle):
    ob = orbit(unit_circle, PhasePoint(0.0, 0.5), 1500)
    rd = rotation_number(ob)
    assert rd.omega % 1.0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rd.method == "weighted-average"


def test_rotation_number_golden(unit_circle, golden):
    ob = orbit(unit_circle, PhasePoint(0.0, math.cos(math.pi * golden)), 4000)
    rd = rotation_number(ob)
    assert rd.omega % 1.0 == pytest.approx(golden, abs=1e-10)


def test_rotation_number_ellipse_vs_order_based_oracle(ellipse21):
    short = orbit(ellipse21, PhasePoint(0.0, 0.5), 8192)
    rd = rotation_number(short)
    long = orbit(ellipse21, PhasePoint(0.0, 0.5), 1_000_000)
    oracle = tori._order_based(long.s_lifted, ellipse21.total_length)
    assert rd.omega % 1.0 == pytest.approx(oracle.omega % 1.0, abs=1e-8)


def test_rotation_number_preconditions(unit_circle):
    ob = orbit(unit_circle, PhasePoint(0.0, 0.5), 100)
    with pytest.raises(OrbitTooShort):
        rotation_number(ob)


# --- Diophantine witnesses ------------------------------------------------------

def test_kappa_golden(golden):
    w = diophantine_kappa(golden, 1.0, 100)
    assert w.kappa_hat == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert w.argmin_k == (1,)


def test_kappa_resonance():
    w = diophantine_kappa(1.0 / 3.0, 2.0, 5)
    assert w.kappa_hat == 0.0
    assert w.argmin_k == (3,) and w.k_n == -1


def test_kappa_sqrt2():
    w = diophantine_kappa(math.sqrt(2.0) - 1.0, 1.0, 100)
    assert w.kappa_hat == pytest.approx(0.343146, abs=1e-6)
    assert w.argmin_k == (2,)


def test_kappa_monotone_in_kmax(golden):
    vals = [diophantine_kappa(golden, 1.5, k).kappa_hat for k in (5, 20, 50, 200)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_kappa_mod_one_symmetry(golden):
    base = diophantine_kappa(golden, 1.0, 60).kappa_hat
    assert diophantine_kappa(-golden, 1.0, 60).kappa_hat == base
    assert diophantine_kappa(1.0 - golden, 1.0, 60).kappa_hat == pytest.approx(base, abs=1e-12)


def test_kappa_two_dimensional():
    w = diophantine_kappa([math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0], 2.5, 8)
    assert w.kappa_hat > 0.0
    assert len(w.argmin_k) == 2


# --- conjugacies ---------------------------------------------------------------

def test_disk_conjugacy_exact(unit_circle, golden):
    circ = circle_conjugacy(unit_circle, PhasePoint(0.0, math.cos(math.pi * golden)),
                            n_modes=16)
    assert circ.residual < 1e-10
    phi = np.linspace(0.0, TWO_PI, 65)
    assert np.max(np.abs(circ.xi_of_phi(phi) - math.cos(math.pi * golden))) < 1e-9


@pytest.fixture(scope="module")
def circle21(ellipse21):
    return circle_conjugacy(ellipse21, PhasePoint(0.0, 0.5), n_modes=64)


def test_fft_grid_matches_dense_sums(circle21, unit_circle, rng):
    K = circle21.n_modes
    disk = disk_circle(unit_circle, 1.1, s0=0.3)
    for circ in (circle21, disk):
        L = circ.total_length
        for n in (1, 7, 2 * K, 2 * K + 1, 256, 8192):
            for shift in (0.0, *rng.uniform(-10.0, 10.0, 2)):
                phi, s, xi = circ.grid(n, shift)
                assert np.array_equal(phi, shift + TWO_PI * np.arange(n) / n)
                ds = ((s - circ.s_of_phi(phi) + 0.5 * L) % L) - 0.5 * L
                assert np.max(np.abs(ds)) < 1e-13
                assert np.max(np.abs(xi - circ.xi_of_phi(phi))) < 1e-13


def test_glancing_fit_rejected(ellipse21):
    # xi(phi) = 0.5 + 0.75 cos(phi) reaches 1.25 at phi = 0
    circ = InvariantCircle(omega=RotationData(-0.3, 0.0, "closed-form"),
                           total_length=ellipse21.total_length,
                           s_coeffs=np.zeros(3, dtype=complex),
                           xi_coeffs=np.array([0.375, 0.5, 0.375], dtype=complex),
                           residual=math.nan, seed=PhasePoint(0.0, 0.5), n_modes=1)
    with pytest.raises(FitDiverged, match=r"reaches \|xi\| = 1\.25,"):
        _conjugacy_residual(ellipse21, circ)


def test_resonant_seed_rejected(unit_circle):
    with pytest.raises(ResonantRotation):
        circle_conjugacy(unit_circle, PhasePoint(0.0, 0.5), n_modes=16)


def test_ellipse_conjugacy_pointwise(ellipse21):
    circ = circle_conjugacy(ellipse21, PhasePoint(0.0, 0.5), n_modes=64)
    assert circ.residual < 1e-8
    # B(F(phi)) vs F(phi + 2*pi*omega_orbit) on a 512-grid, from the dense sums
    L = ellipse21.total_length
    phi = TWO_PI * np.arange(512) / 512
    s_img, xi_img, *_ = billiard_map_many(ellipse21, circ.s_of_phi(phi) % L, circ.xi_of_phi(phi))
    tgt_s = circ.s_of_phi(phi + TWO_PI * circ.omega_orbit) % L
    tgt_xi = circ.xi_of_phi(phi + TWO_PI * circ.omega_orbit)
    ds = ((s_img - tgt_s + 0.5 * L) % L) - 0.5 * L
    assert np.max(np.hypot(ds, xi_img - tgt_xi)) < 1e-8


def test_fit_refits_while_residual_falls():
    # (2, 1) at xi0 = 0.745: the residual falls by about 30% a round and
    # reaches tolerance after 19 rounds
    curve = make_ellipse(2.0, 1.0)
    circ = circle_conjugacy(curve, PhasePoint(0.0, 0.745))
    assert circ.residual < 1e-8
    omega = ellipse_periods(2.0, 1.0)[1]
    assert circ.omega_orbit == pytest.approx(omega(-0.745 ** 2), abs=1e-10)
    ad = action_data(curve, circ, hess=True)
    assert ad.hessL == pytest.approx(ellipse_hess_L(2.0, 1.0, 0.745), rel=1e-8)


def test_fit_makes_one_map_call_per_round(monkeypatch):
    # (1.6, 1) at xi0 = 0.345: the second round does not lower the residual,
    # so the fit stops there and returns the first within 10x tolerance
    sizes = []

    def counting(curve, s, xi):
        sizes.append(len(s))
        return billiard_map_many(curve, s, xi)

    monkeypatch.setattr(tori, "billiard_map_many", counting)
    circ = circle_conjugacy(make_ellipse(1.6, 1.0), PhasePoint(0.0, 0.345))
    assert sizes == [512, 512]
    assert 1e-8 <= circ.residual < 1e-7


def test_measure_invariance_under_map(ellipse21):
    circ = circle_conjugacy(ellipse21, PhasePoint(0.0, 0.6), n_modes=64)
    s, xi = circ.phase_nodes(2048)

    def g(sv, xv):
        return np.cos(TWO_PI * sv / ellipse21.total_length) + 0.3 * xv ** 2

    direct = float(np.mean(g(s, xi)))
    s2, xi2, *_ = billiard_map_many(ellipse21, s, xi)
    pushed = float(np.mean(g(s2, xi2)))
    assert pushed == pytest.approx(direct, abs=1e-9)


# --- action data ---------------------------------------------------------------

@pytest.mark.parametrize("theta", [math.pi / 6.0, math.pi / 4.0, math.pi / 3.0,
                                   math.pi * ((math.sqrt(5.0) - 1.0) / 2.0)])
def test_disk_action_closed_forms(unit_circle, theta):
    circ = disk_circle(unit_circle, theta)
    ad = action_data(unit_circle, circ, hess=True)
    I = math.cos(theta)
    assert ad.I0 == pytest.approx(I, abs=1e-12)
    assert ad.A_avg == pytest.approx(2.0 * math.sin(theta), abs=1e-12)
    assert ad.gradL == pytest.approx(disk_grad_L(I), abs=1e-12)
    assert ad.L0 == pytest.approx(disk_L(I), abs=1e-12)
    assert -ad.omega.omega == pytest.approx(theta / math.pi, abs=1e-12)
    assert ad.hessL == pytest.approx(disk_hess_L(I), rel=1e-9)
    assert abs(ad.identity_residual) < 1e-12


def test_disk_action_lemma_identity_value(unit_circle):
    # theta = pi/3: L0 - 2 pi I0 omega = sqrt(3) = A_avg with omega = -1/3
    circ = disk_circle(unit_circle, math.pi / 3.0)
    ad = action_data(unit_circle, circ, hess=False)
    assert ad.L0 - TWO_PI * ad.I0 * ad.omega.omega == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert ad.omega.omega == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert ad.L0 == pytest.approx(math.sqrt(3.0) - math.pi / 3.0, abs=1e-12)
    assert ad.hessL is None


def test_ellipse_action_identity(ellipse21):
    for xi0 in (0.45, 0.7):
        circ = circle_conjugacy(ellipse21, PhasePoint(0.0, xi0), n_modes=64)
        ad = action_data(ellipse21, circ, hess=False)
        assert abs(ad.identity_residual) < 1e-8
        assert ad.A_avg > 0.0


@pytest.mark.parametrize("a, b, xi0", [(2.0, 1.0, 0.45), (2.0, 1.0, 0.6), (1.6, 1.0, 0.445)])
def test_ellipse_hess_against_period_integrals(a, b, xi0):
    curve = make_ellipse(a, b)
    circ = circle_conjugacy(curve, PhasePoint(0.0, xi0), n_modes=64)
    ad = action_data(curve, circ, hess=True)
    assert ad.hessL == pytest.approx(ellipse_hess_L(a, b, xi0), rel=1e-8)


# --- elliptic periodic points ---------------------------------------------------

def _two_bounce_trace(curve, p, q):
    """Trace of the Jacobian of B^2 at the two-bounce orbit p -> q -> p,
    the product of the one-bounce Jacobians at q and at p."""
    return float(np.trace(map_jacobian(curve, q) @ map_jacobian(curve, p)))


def _minor_axis_trace(curve):
    return _two_bounce_trace(curve, PhasePoint(curve.arclength_of_param(math.pi / 2.0), 0.0),
                             PhasePoint(curve.arclength_of_param(3.0 * math.pi / 2.0), 0.0))


def _rotation_angle(trace):
    """alpha with trace = 2 cos(2 pi alpha), in units of a full turn."""
    return math.acos(trace / 2.0) / TWO_PI


def _resonant(alpha, order):
    return abs(order * alpha - round(order * alpha)) < 1e-6


def test_minor_axis_bounce_elliptic(ellipse21):
    tr = _minor_axis_trace(ellipse21)
    assert abs(tr) < 2.0 - 1e-6
    # bouncing-ball stability: trace = 2(2pq - 1), p = q = 1 - len*curvature
    p = 1.0 - 2.0 * 1.0 / 4.0
    assert tr == pytest.approx(2.0 * (2.0 * p * p - 1.0), abs=1e-6)
    # a = 2, b = 1 gives alpha = 1/3: an order-3 resonance
    alpha = _rotation_angle(tr)
    assert alpha == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert _resonant(alpha, 3)


def test_circle_diameter_parabolic(unit_circle):
    tr = _two_bounce_trace(unit_circle, PhasePoint(0.0, 0.0), PhasePoint(math.pi, 0.0))
    assert abs(abs(tr) - 2.0) <= 1e-6
    assert tr == pytest.approx(2.0, abs=1e-7)


def test_quarter_resonance_flagged():
    # choose axes so the minor-axis trace vanishes: alpha = 1/4 exactly
    a = math.sqrt(2.0 / (1.0 - 1.0 / math.sqrt(2.0)))
    tr = _minor_axis_trace(make_ellipse(a, 1.0))
    assert abs(tr) < 2.0 - 1e-6
    alpha = _rotation_angle(tr)
    assert alpha == pytest.approx(0.25, abs=1e-7)
    assert _resonant(alpha, 4)


def test_hyperbolic_major_axis(ellipse21):
    # the major-axis two-bounce orbit of an ellipse is unstable
    tr = _two_bounce_trace(ellipse21, PhasePoint(0.0, 0.0),
                           PhasePoint(ellipse21.total_length / 2.0, 0.0))
    assert abs(tr) > 2.0 + 1e-6
