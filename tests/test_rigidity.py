import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from spectral_billiards.billiard import PhasePoint, orbit
from spectral_billiards.errors import HOutOfRange, ValidationError
from spectral_billiards.geometry import LiouvilleTable, elliptic_table
from spectral_billiards.radon import (BoundaryFunction, liouville_radon,
                                      rotation_function)
from spectral_billiards.rigidity import (invert_radon, radon_matrix,
                                         rotation_profile,
                                         symmetric_basis_function)
from spectral_billiards.tori import rotation_number


@pytest.fixture(scope="module")
def small_matrix(table_c1):
    h = np.linspace(table_c1.q_N + 0.08, -0.08, 8)
    return radon_matrix(table_c1, h, 6)


def test_basis_symmetry():
    xs = np.linspace(0.0, 2.0 * math.pi, 97)
    for j in range(5):
        K = symmetric_basis_function(j)
        assert np.max(np.abs(K.in_x(xs) - K.in_x(-xs))) < 1e-12
        assert np.max(np.abs(K.in_x(xs) - K.in_x(math.pi - xs))) < 1e-12


def test_constant_column_positive(small_matrix):
    assert np.all(small_matrix.entries[:, 0] > 0.0)


def test_entries_linear_in_basis(table_c1, small_matrix):
    doubled = BoundaryFunction(s_func=None,
                               x_func=lambda x: 2.0 * np.cos(2.0 * np.asarray(x)))
    for i, h in enumerate(small_matrix.h_grid):
        val = liouville_radon(table_c1, doubled, float(h)).plus
        assert val == pytest.approx(2.0 * small_matrix.entries[i, 1], rel=1e-10)


def test_sigma_min_positive(small_matrix):
    assert small_matrix.sigma_min > 0.0
    assert np.all(np.diff(small_matrix.singular_values) <= 0.0)


def test_matrix_preconditions(table_c1):
    with pytest.raises(ValidationError):
        radon_matrix(table_c1, [-0.5, -0.7], 2)       # not increasing
    with pytest.raises(HOutOfRange):
        radon_matrix(table_c1, [-0.5, 0.5], 2)        # second not rotational
    with pytest.raises(ValidationError):
        radon_matrix(table_c1, [-0.7, -0.5], 5)       # J > grid


def test_roundtrip_reconstruction(small_matrix):
    c_true = np.zeros(6)
    c_true[1], c_true[2] = 0.3, 0.1
    rep = invert_radon(small_matrix, small_matrix.entries @ c_true, reg=1e-10)
    rel = np.linalg.norm(rep.coefficients - c_true) / np.linalg.norm(c_true)
    assert rel < 1e-3
    assert rep.residual < 1e-10


def test_zero_data_zero_solution(small_matrix):
    rep = invert_radon(small_matrix, np.zeros(len(small_matrix.h_grid)), reg=1e-10)
    assert np.max(np.abs(rep.coefficients)) == 0.0


def test_identical_data_identical_reconstruction(small_matrix):
    c = np.zeros(6)
    c[1] = 0.25
    d1 = small_matrix.entries @ c
    r1 = invert_radon(small_matrix, d1.copy(), reg=1e-10)
    r2 = invert_radon(small_matrix, d1.copy(), reg=1e-10)
    assert np.array_equal(r1.coefficients, r2.coefficients)


def test_noise_linearity(small_matrix, rng):
    c_true = np.zeros(6)
    c_true[1], c_true[2] = 0.3, 0.1
    data = small_matrix.entries @ c_true
    noise = rng.standard_normal(len(data))
    clean = invert_radon(small_matrix, data, reg=1e-6).coefficients
    errs = []
    for scale in (5e-7, 1e-6):
        noisy = invert_radon(small_matrix, data + scale * noise, reg=1e-6).coefficients
        errs.append(np.linalg.norm(noisy - clean))
    assert errs[1] == pytest.approx(2.0 * errs[0], rel=1e-6)


def test_rank_deficient_raised(small_matrix):
    from spectral_billiards.errors import RankDeficient
    with pytest.raises(RankDeficient):
        invert_radon(small_matrix, np.zeros(len(small_matrix.h_grid)), reg=2.0)


def test_profile_smoothness_surrogate(table_c1):
    # Radon profiles of trig-polynomial kernels interpolate to off-grid
    # values at 1e-6: the desk-scale stand-in for analyticity in h
    K = BoundaryFunction(s_func=None,
                         x_func=lambda x: 1.0 + 0.5 * np.cos(2.0 * np.asarray(x)))
    grid = np.linspace(table_c1.q_N + 0.15, -0.1, 49)
    vals = np.array([liouville_radon(table_c1, K, float(h)).plus for h in grid])
    spline = CubicSpline(grid, vals)
    mids = 0.5 * (grid[:-1] + grid[1:])[4:-4]
    direct = np.array([liouville_radon(table_c1, K, float(h)).plus for h in mids])
    assert np.max(np.abs(spline(mids) - direct) / np.abs(direct)) < 1e-6


def test_rotation_profile_monotone(table_c1):
    h = np.linspace(table_c1.q_N + 0.01, table_c1.q_N + 0.2, 10)
    prof = rotation_profile(table_c1, h)
    assert prof["strictly_monotone"]
    omegas = [r[1] for r in prof["rows"]]
    assert all(0.0 < w < 0.5 for w in omegas)


def test_rotation_profile_out_of_range(table_c1):
    with pytest.raises(HOutOfRange):
        rotation_profile(table_c1, [table_c1.q_N - 0.1, -0.5])


@pytest.mark.parametrize("c, N", [(1.0, 1.0), (1.5, 0.7)])
@pytest.mark.parametrize("fraction", [0.8, 0.5, 0.2])
def test_period_integral_omega_matches_orbit(c, N, fraction):
    # the orbit from (0, xi0) with xi0^2 = h/q(N) lies on the level h
    table = elliptic_table(c, N)
    h = fraction * table.q_N
    omega, err = rotation_function(table, h)
    orb = orbit(table.boundary_curve(), PhasePoint(0.0, math.sqrt(fraction)), 4096)
    assert abs(omega - rotation_number(orb).omega % 1.0) < 1e-11
    assert 0.0 <= err < 1e-11


def _cosine_series(coeffs):
    """sum_k a_k cos(k x) in x and its image q(y) = sum_k a_k cosh(k y) under
    x = iy, each with all derivatives in closed form."""
    def f(x, m=0):
        x = np.asarray(x, dtype=float)
        return sum(a * k ** m * np.cos(k * x + 0.5 * math.pi * m) for k, a in coeffs)

    def q(y, m=0):
        y = np.asarray(y, dtype=float)
        hyp = np.cosh if m % 2 == 0 else np.sinh
        return sum(a * k ** m * hyp(k * y) for k, a in coeffs)
    return f, q


def test_rotation_profile_on_a_table_without_planar_realization():
    # f = 0.55 - 0.5 cos 2x - 0.05 cos 4x, q(y) = f(iy): a Liouville table that
    # is no ellipse, so the profile cannot come from a planar orbit
    f, q = _cosine_series([(0, 0.55), (2, -0.5), (4, -0.05)])
    table = LiouvilleTable(f=f, q=q, N=1.0, family="generic")
    with pytest.raises(ValidationError):
        table.boundary_curve()
    h_grid = table.q_N * np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    prof = rotation_profile(table, h_grid)
    assert prof["strictly_monotone"]
    for (h, omega, err), h_in in zip(prof["rows"], h_grid):
        assert h == h_in
        # h - q(y_h + d) without cancellation, by
        # cosh A - cosh B = 2 sinh((A+B)/2) sinh((A-B)/2)
        y_h = brentq(lambda y: float(q(y)) - h, 0.0, 1.0, xtol=1e-15)

        def gap(d):
            return (math.sinh(2.0 * y_h + d) * math.sinh(d)
                    + 0.1 * math.sinh(2.0 * (2.0 * y_h + d)) * math.sinh(2.0 * d))
        caustic = quad(lambda w: 2.0 * w / math.sqrt(gap(w * w)), 0.0,
                       math.sqrt(1.0 - y_h), epsabs=1e-14, epsrel=1e-13)[0]
        leray = quad(lambda x: 1.0 / math.sqrt(float(f(x)) - h), 0.0, 2.0 * math.pi,
                     epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert abs(omega - 2.0 * caustic / leray) < 1e-11
        assert 0.0 <= err < 1e-11
