import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from spectral_billiards.errors import ConfigError, ValidationError
from spectral_billiards.geometry import (curve_from_spec, elliptic_table,
                                         liouville_validate, make_circle,
                                         make_ellipse, make_fourier,
                                         table_from_spec, LiouvilleTable)


def test_unit_circle_closed_forms(unit_circle):
    c = unit_circle
    assert c.total_length == pytest.approx(2.0 * math.pi, abs=1e-14)
    x, y = c.position(0.0)
    assert (x, y) == (1.0, 0.0)
    for s in np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False):
        x, y = c.position(s)
        assert x == pytest.approx(math.cos(s), abs=1e-15)
        assert y == pytest.approx(math.sin(s), abs=1e-15)
        assert c.curvature(s) == 1.0


def test_ellipse_perimeter_against_quadrature_oracle():
    a, b = 2.0, 1.0
    e = make_ellipse(a, b)
    oracle, err = quad(lambda t: math.hypot(a * math.sin(t), b * math.cos(t)),
                       0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    assert e.total_length == pytest.approx(oracle, abs=1e-6)
    assert e.total_length == pytest.approx(9.688448, abs=1e-6)


def test_arclength_parametrization_unit_speed(ellipse21):
    h = 1e-6
    for s in np.linspace(0.1, ellipse21.total_length - 0.1, 23):
        x1, y1 = ellipse21.position(s + h)
        x0, y0 = ellipse21.position(s - h)
        speed = math.hypot(x1 - x0, y1 - y0) / (2.0 * h)
        assert speed == pytest.approx(1.0, abs=1e-8)


def test_curve_is_closed(ellipse21):
    x0, y0 = ellipse21.position(0.0)
    x1, y1 = ellipse21.position(ellipse21.total_length * (1.0 - 1e-15))
    assert math.hypot(x1 - x0, y1 - y0) < 1e-12


def test_ellipse_radius_bounds_and_convexity(ellipse21):
    s = np.linspace(0.0, ellipse21.total_length, 257, endpoint=False)
    x, y = ellipse21.position(s)
    r = np.hypot(x, y)
    assert np.all(r <= 2.0 + 1e-12) and np.all(r >= 1.0 - 1e-12)
    assert ellipse21.is_convex()


def test_inward_normal_points_at_center(ellipse21):
    for s in np.linspace(0.0, ellipse21.total_length, 17, endpoint=False):
        x, y = ellipse21.position(s)
        nx, ny = ellipse21.inward_normal(s)
        assert nx * (0.0 - x) + ny * (0.0 - y) > 0.0


def test_bad_axes_rejected():
    with pytest.raises(ValidationError):
        make_ellipse(1.0, -2.0)
    with pytest.raises(ValidationError):
        make_ellipse(1.0, 2.0)
    with pytest.raises(ValidationError):
        make_circle(0.0)


def test_fourier_curve_roundtrip_and_convexity():
    c = make_fourier([1.0, 0.0, 0.0, 0.05])
    assert c.is_convex()
    h = 1e-6
    for s in np.linspace(0.0, c.total_length, 11, endpoint=False):
        x1, y1 = c.position(s + h)
        x0, y0 = c.position(s - h)
        assert math.hypot(x1 - x0, y1 - y0) / (2 * h) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(ValidationError):
        make_fourier([1.0, 0.0, 0.0, 0.4])  # strongly dented: not convex


# --- Liouville tables -------------------------------------------------------

def test_elliptic_table_is_classical(table_c1):
    rep = liouville_validate(table_c1, k_check=4)
    assert rep.classical_type, rep.first_failure()


def test_trig_pair_fails_parity_compatibility_at_k2():
    # f = sin^2 x with q = -sin^2 y: fourth derivatives disagree in sign
    def f(x, m=0):
        if m == 0:
            return math.sin(x) ** 2
        return -0.5 * 2.0 ** m * math.cos(2.0 * x + 0.5 * math.pi * m)

    def q(y, m=0):
        if m == 0:
            return -math.sin(y) ** 2
        return 0.5 * 2.0 ** m * math.cos(2.0 * y + 0.5 * math.pi * m)

    assert f(0.0, 4) == pytest.approx(-8.0)
    assert (-1.0) ** 2 * q(0.0, 4) == pytest.approx(8.0)
    table = LiouvilleTable(f=f, q=q, N=1.0)
    rep = liouville_validate(table, k_check=4)
    assert not rep.classical_type
    bad = rep.first_failure()
    assert bad.name.startswith("iii")
    assert "k=2" in bad.detail


def test_geodesic_convexity_sign_check():
    base = elliptic_table(1.0, 1.0)

    # flip the sign of q' at N by reflecting q about y = N
    def q_reflected(y, m=0):
        return base.q(2.0 * base.N - y, m) * ((-1.0) ** m)

    table = LiouvilleTable(f=base.f, q=q_reflected, N=base.N)
    rep = liouville_validate(table, k_check=2)
    names = {c.name: c.passed for c in rep.conditions}
    assert not names["iv: q'(N)<0 (geodesic convexity)"]


def test_compatibility_holds_at_every_checked_order(table_c1):
    rep = liouville_validate(table_c1, k_check=8)
    names = {c.name: c.passed for c in rep.conditions}
    assert names["iii: parity compatibility"]


# --- domain-spec parsing ----------------------------------------------------

def test_domain_spec_parsing():
    c = curve_from_spec({"type": "circle", "r": 2.0})
    assert c.total_length == pytest.approx(4.0 * math.pi)
    e = curve_from_spec({"type": "ellipse", "a": 2.0, "b": 1.0})
    assert e.kind == "ellipse"
    t = table_from_spec({"type": "liouville", "family": "ellipse", "c": 1.0, "N": 1.0})
    assert t.q_N == pytest.approx(-math.sinh(1.0) ** 2)
    lcurve = curve_from_spec({"type": "liouville", "family": "ellipse", "c": 1.0, "N": 1.0})
    assert lcurve.kind == "ellipse"


def test_domain_spec_strict_keys():
    with pytest.raises(ConfigError):
        curve_from_spec({"type": "circle", "radius": 1.0})
    with pytest.raises(ConfigError):
        curve_from_spec({"type": "torus"})
    with pytest.raises(ConfigError):
        curve_from_spec({"type": "ellipse", "a": 2.0, "b": 1.0, "tilt": 0.3})


def test_elliptic_table_f_on_arrays_matches_scalar_calls():
    table = elliptic_table(1.3, 0.8)
    x = np.linspace(-7.0, 7.0, 101)
    for m in range(5):
        scalar = np.array([table.f(float(v), m) for v in x])
        assert np.allclose(table.f(x, m), scalar, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("curve", [make_ellipse(2.0, 1.0), make_ellipse(1.6, 1.0),
                                   make_fourier([1.0, 0.0, 0.0, 0.05])],
                         ids=["ellipse21", "ellipse16", "fourier"])
def test_batched_param_of_arclength_equals_scalar_calls(curve):
    rng = np.random.default_rng(7)
    s = np.concatenate([[0.0, curve.total_length * (1.0 - 1e-15)],
                        rng.uniform(0.0, curve.total_length, 254)])
    t = curve.param_of_arclength(s)
    assert all(t[i] == curve.param_of_arclength(float(si)) for i, si in enumerate(s))


def _arclength_dense(curve, t, samples=4096):
    """Reference s(t): the speed's FFT coefficients c_k, then the integral
    c_0 t + sum_k 2 Im(c_k (e^{ikt} - 1))/k summed mode by mode."""
    grid = 2.0 * math.pi * np.arange(samples) / samples
    c = np.fft.rfft(curve.speed_t(grid)) / samples
    k = np.arange(1, len(c))
    phase = np.exp(1j * np.outer(t, k)) - 1.0
    return c[0].real * t + 2.0 * np.imag(phase @ (c[1:] / k))


@pytest.mark.parametrize("curve", [make_ellipse(2.0, 1.0), make_fourier([1.0, 0.0, 0.0, 0.05]),
                                   make_fourier([1.0, 0.0, 0.0, 0.03, 0.0, 0.0, 0.01])],
                         ids=["ellipse21", "fourier005", "fourier003-001"])
def test_horner_arclength_matches_dense_sum(curve):
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0, math.pi, 2.0 * math.pi], rng.uniform(0.0, 2.0 * math.pi, 200),
                        rng.uniform(0.0, 1e5, 200)])
    ref = _arclength_dense(curve, t)
    got = curve.arclength_of_param(t)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), curve.total_length))
    assert curve.arclength_of_param(2.0 * math.pi) == pytest.approx(curve.total_length,
                                                                    rel=1e-14)
    assert all(curve.arclength_of_param(float(v)) == got[i] for i, v in enumerate(t[:20]))


FOURIER_TABLES = {"fourier005": [1.0, 0.0, 0.0, 0.05],
                  "fourier003-001": [1.0, 0.0, 0.0, 0.03, 0.0, 0.0, 0.01]}


@pytest.mark.parametrize("curve, tol", [(make_circle(1.3), 1e-14), (make_ellipse(2.0, 1.0), 1e-14)]
                         + [(make_fourier(c), 0.0) for c in FOURIER_TABLES.values()],
                         ids=["circle", "ellipse21", *FOURIER_TABLES])
def test_array_conic_step_matches_scalar_step(curve, tol):
    # numpy's and the C library's sin, cos and atan2 may round apart by an
    # ulp on conics; a Fourier step is step_many on one point, bit for bit
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 2.0 * math.pi, 1000)
    xi = rng.uniform(-0.99, 0.99, 1000)
    t1, xi1, ell = curve.step_many(t, xi)
    ref = np.array([curve.step(float(a), float(b)) for a, b in zip(t, xi)])
    dt = (t1 - ref[:, 0] + math.pi) % (2.0 * math.pi) - math.pi
    assert np.max(np.abs(dt)) <= tol
    assert np.max(np.abs(xi1 - ref[:, 1])) <= tol
    assert np.max(np.abs(ell - ref[:, 2])) <= tol


def _brent_bounce(coeffs):
    """Reference Fourier bounce (t, xi) -> (t', xi', chord length): Brent's
    method on the radial gap of the ray.  By Blaschke's rolling theorem the
    disk of radius 1/kappa_max tangent at the start lies inside the table,
    so the ray is inside at half its chord of that disk, u = sqrt(1 - xi^2) /
    kappa_max, and outside at u = 2.2 rho_max; in a star-shaped table the
    gap is negative until the exit and positive after it."""
    rho0, ab = coeffs[0], coeffs[1:] + [0.0] * (len(coeffs) % 2 == 0)
    harmonics = [(k + 1, ab[2 * k], ab[2 * k + 1]) for k in range(len(ab) // 2)]

    def rho(th, m=0):
        return (rho0 if m == 0 else 0.0) + sum(
            k ** m * (a * math.cos(k * th + m * math.pi / 2) + b * math.sin(k * th + m * math.pi / 2))
            for k, a, b in harmonics)

    def tangent(th):
        vx = rho(th, 1) * math.cos(th) - rho(th) * math.sin(th)
        vy = rho(th, 1) * math.sin(th) + rho(th) * math.cos(th)
        return vx / math.hypot(vx, vy), vy / math.hypot(vx, vy)

    kappa_max = max((rho(g) ** 2 + 2 * rho(g, 1) ** 2 - rho(g) * rho(g, 2))
                    / (rho(g) ** 2 + rho(g, 1) ** 2) ** 1.5
                    for g in np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
    rho_max = rho0 + sum(abs(v) for v in ab)

    def bounce(t, xi):
        x0, y0 = rho(t) * math.cos(t), rho(t) * math.sin(t)
        tx, ty = tangent(t)
        eta = math.sqrt(1.0 - xi * xi)
        dx, dy = xi * tx - eta * ty, xi * ty + eta * tx

        def gap(u):
            px, py = x0 + u * dx, y0 + u * dy
            return math.hypot(px, py) - rho(math.atan2(py, px))

        u = brentq(gap, eta / (1.01 * kappa_max), 2.2 * rho_max, xtol=1e-15, rtol=8.9e-16)
        t1 = math.atan2(y0 + u * dy, x0 + u * dx) % (2.0 * math.pi)
        wx, wy = tangent(t1)
        return t1, dx * wx + dy * wy, u
    return bounce


@pytest.mark.parametrize("coeffs", FOURIER_TABLES.values(), ids=FOURIER_TABLES)
def test_fourier_step_matches_brent_root_of_the_gap(coeffs):
    rng = np.random.default_rng(17)
    t = rng.uniform(0.0, 2.0 * math.pi, 512)
    xi = rng.uniform(-0.95, 0.95, 512)
    t1, xi1, ell = make_fourier(coeffs).step_many(t, xi)
    bounce = _brent_bounce(coeffs)
    ref = np.array([bounce(float(a), float(b)) for a, b in zip(t, xi)])
    dt = (t1 - ref[:, 0] + math.pi) % (2.0 * math.pi) - math.pi
    assert np.max(np.abs(dt)) <= 1e-14
    assert np.max(np.abs(xi1 - ref[:, 1])) <= 1e-14
    assert np.max(np.abs(ell - ref[:, 2])) <= 1e-14
