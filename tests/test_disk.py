import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from spectral_billiards.disk import (bessel_zero, dirichlet_spectrum,
                                     disk_circle)
from spectral_billiards.errors import ParameterOutOfRange
from spectral_billiards.geometry import make_circle
from spectral_billiards.quasi import BirkhoffData


def _spectrum_from_jn_zeros(lambda_max):
    """Reference: scipy's zeros of each order, squared, m >= 1 twice."""
    mu_max = math.sqrt(lambda_max)
    orders, zeros = [], []
    for m in range(int(mu_max) + 1):
        z = jn_zeros(m, int(mu_max / math.pi) + 2)
        z = z[z <= mu_max]
        orders += [m] * len(z)
        zeros += z.tolist()
    orders, zeros = np.array(orders), np.array(zeros)
    order = np.argsort(zeros)
    return orders[order], zeros[order]


def test_dirichlet_spectrum_against_jn_zeros():
    orders, zeros = _spectrum_from_jn_zeros(2e4)
    ev = dirichlet_spectrum(2e4)
    assert len(ev) == 4925
    ref = np.sort(np.repeat(zeros * zeros, np.where(orders == 0, 1, 2)))
    assert np.max(np.abs(ev - ref) / ref) <= 3e-15


def test_bessel_zeros_against_mpmath():
    # the Newton step of 40-digit J_m at the computed zero is its error
    mpmath = pytest.importorskip("mpmath")
    for m, p in ((0, 1), (0, 40), (3, 30), (60, 20), (100, 10), (130, 1), (300, 2)):
        with mpmath.workdps(40):
            z = mpmath.mpf(bessel_zero(m, p))
            f = mpmath.besselj(m, z)
            step = f / ((m / z) * f - mpmath.besselj(m + 1, z))
        assert abs(step) / z <= 5e-16


@pytest.mark.parametrize("lambda_max, count", [(3600.0, 871), (100.0, 21), (5.9, 1), (5.7, 0)])
def test_dirichlet_spectrum_counts(lambda_max, count):
    ev = dirichlet_spectrum(lambda_max)
    assert len(ev) == count
    assert np.all(ev <= lambda_max) and np.all(np.diff(ev) >= 0.0)


def test_dirichlet_spectrum_edge_at_the_first_eigenvalue():
    j01 = bessel_zero(0, 1)
    lam1 = j01 * j01
    assert len(dirichlet_spectrum(np.nextafter(lam1, 0.0))) == 0
    # a bound equal to the computed eigenvalue keeps it
    assert dirichlet_spectrum(lam1).tolist() == [lam1]


def test_bessel_zero_is_a_view_of_the_spectrum_solver():
    ev = set(dirichlet_spectrum(2e4).tolist())
    for m, p in ((0, 1), (0, 40), (1, 3), (5, 2), (40, 1), (65, 4), (100, 2), (130, 1)):
        z = bessel_zero(m, p)
        assert z == pytest.approx(jn_zeros(m, p)[-1], rel=3e-15)
        assert z * z in ev


@pytest.mark.parametrize("lambda_max", [-5.0, 0.0, math.nan, math.inf])
def test_dirichlet_spectrum_rejects_a_bad_bound(lambda_max):
    with pytest.raises(ParameterOutOfRange, match="lambda_max"):
        dirichlet_spectrum(lambda_max)


@pytest.mark.parametrize("m, p", [(0, 0), (3, -1), (-1, 1), (2.5, 1), (2, 1.5)])
def test_bessel_zero_rejects_bad_indices(m, p):
    with pytest.raises(ParameterOutOfRange):
        bessel_zero(m, p)


@pytest.mark.parametrize("theta", [0.0, -0.5, math.pi, 4.0])
def test_disk_circle_rejects_theta_outside_open_interval(theta):
    with pytest.raises(ParameterOutOfRange, match="theta"):
        disk_circle(make_circle(1.0), theta)


@pytest.mark.parametrize("theta", [2.0, 4.0])
def test_disk_quasimode_data_rejects_negative_action(theta):
    with pytest.raises(ParameterOutOfRange, match="cos"):
        BirkhoffData.disk(theta)
