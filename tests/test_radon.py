import math

import numpy as np
import pytest

from spectral_billiards import radon
from spectral_billiards.billiard import PhasePoint, billiard_map_many
from spectral_billiards.disk import disk_circle
from spectral_billiards.errors import (CirclesNotExchanged, GlancingCircle,
                                       HOutOfRange)
from spectral_billiards.geometry import elliptic_table
from spectral_billiards.radon import (BoundaryFunction, LerayCircle,
                                      SymmetryGroup, _hausdorff,
                                      _turning_point,
                                      bouncing_ball_identity_check,
                                      leray_mass, librational_circles,
                                      liouville_radon, rotational_circle,
                                      symmetry_average, torus_invariant)
from spectral_billiards.tori import circle_conjugacy

TWO_PI = 2.0 * math.pi


# --- torus_invariant ------------------------------------------------------------

def test_constant_kernel_disk(unit_circle):
    circ = disk_circle(unit_circle, math.pi / 3.0)
    val = torus_invariant(unit_circle, [circ], BoundaryFunction.constant(1.0))
    assert val == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)


def test_zero_mean_kernel_disk(unit_circle):
    circ = disk_circle(unit_circle, math.pi / 3.0)
    K = BoundaryFunction(s_func=np.cos)
    assert torus_invariant(unit_circle, [circ], K) == pytest.approx(0.0, abs=1e-12)


def test_linearity_and_positivity(ellipse21):
    circ = circle_conjugacy(ellipse21, PhasePoint(0.0, 0.6), n_modes=64)
    K1 = BoundaryFunction.trig(ellipse21, cos_coeffs=[0.2], constant=1.5)
    K2 = BoundaryFunction.trig(ellipse21, sin_coeffs=[0.0, 0.3], constant=0.2)
    v1 = torus_invariant(ellipse21, [circ], K1)
    v2 = torus_invariant(ellipse21, [circ], K2)
    K12 = BoundaryFunction(s_func=lambda s: K1(s) + 2.0 * K2(s))
    assert torus_invariant(ellipse21, [circ], K12) == pytest.approx(v1 + 2.0 * v2, rel=1e-10)
    assert v1 > 0.0  # K1 > 0 pointwise


def test_pushforward_invariance(ellipse21):
    circ = circle_conjugacy(ellipse21, PhasePoint(0.0, 0.55), n_modes=64)
    K = BoundaryFunction.trig(ellipse21, cos_coeffs=[0.4, 0.1], constant=1.0)

    class Pushed:
        def measure_nodes(self, n):
            s2, xi2, *_ = billiard_map_many(ellipse21, *circ.phase_nodes(n))
            return s2, xi2, np.full(n, 1.0 / n)

    direct = torus_invariant(ellipse21, [circ], K)
    pushed = torus_invariant(ellipse21, [Pushed()], K)
    assert pushed == pytest.approx(direct, abs=1e-9)


def test_glancing_circle_rejected(unit_circle):
    circ = disk_circle(unit_circle, 1e-7)
    with pytest.raises(GlancingCircle):
        torus_invariant(unit_circle, [circ], BoundaryFunction.constant(1.0))


# --- symmetry averaging -----------------------------------------------------------

def test_symmetry_average_kills_odd_modes(unit_circle):
    G = SymmetryGroup.for_curve(unit_circle)
    s = np.linspace(0.0, TWO_PI, 33)
    for K in (BoundaryFunction(s_func=np.cos), BoundaryFunction(s_func=np.sin)):
        assert np.max(np.abs(symmetry_average(K, G)(s))) < 1e-14


def test_symmetry_average_fixes_even_modes(unit_circle):
    G = SymmetryGroup.for_curve(unit_circle)
    K = BoundaryFunction(s_func=lambda s: np.cos(2.0 * np.asarray(s)))
    s = np.linspace(0.0, TWO_PI, 33)
    assert np.max(np.abs(symmetry_average(K, G)(s) - np.cos(2 * s))) < 1e-14


def test_symmetry_average_is_projection(ellipse21, rng):
    G = SymmetryGroup.for_curve(ellipse21)
    K = BoundaryFunction.trig(ellipse21, cos_coeffs=list(rng.standard_normal(4)),
                              sin_coeffs=list(rng.standard_normal(4)))
    once = symmetry_average(K, G)
    twice = symmetry_average(once, G)
    s = np.linspace(0.0, ellipse21.total_length, 65)
    assert np.max(np.abs(twice(s) - once(s))) < 1e-14


def test_group_elements_are_involutions(ellipse21):
    G = SymmetryGroup.for_curve(ellipse21)
    s = np.linspace(0.0, ellipse21.total_length, 17)
    L = ellipse21.total_length
    for name, g in zip(G.element_names(), G.maps()):
        if name.startswith("reflect"):
            d = (g(g(s)) - s) % L
            assert np.max(np.minimum(d, L - d)) < 1e-12


# --- Liouville Radon transform ------------------------------------------------------

def test_radon_zero_kernel(table_c1):
    pair = liouville_radon(table_c1, BoundaryFunction.constant(0.0), -0.5)
    assert pair.plus == 0.0 and pair.minus == 0.0


def test_radon_brute_force_oracle(table_c1):
    # 10^6-node midpoint rule on the closed-form integrand
    h = -0.5
    n = 1_000_000
    x = (np.arange(n) + 0.5) * TWO_PI / n
    f = np.sin(x) ** 2
    oracle = (TWO_PI / n) * np.sum(np.sqrt((f - table_c1.q_N) / ((h - table_c1.q_N) * (f - h))))
    pair = liouville_radon(table_c1, BoundaryFunction.constant(1.0), h)
    assert pair.plus == pytest.approx(oracle, abs=1e-8)
    assert pair.minus == -pair.plus


def test_radon_scaling_linearity(table_c1):
    K = BoundaryFunction(s_func=None, x_func=lambda x: np.cos(2.0 * np.asarray(x)))
    K2 = BoundaryFunction(s_func=None, x_func=lambda x: 2.0 * np.cos(2.0 * np.asarray(x)))
    assert liouville_radon(table_c1, K2, -0.7).plus == pytest.approx(
        2.0 * liouville_radon(table_c1, K, -0.7).plus, rel=1e-12)


def test_radon_h_out_of_range(table_c1):
    for h in (table_c1.q_N - 0.1, 0.0, table_c1.f_max + 0.1):
        with pytest.raises(HOutOfRange):
            liouville_radon(table_c1, BoundaryFunction.constant(1.0), h)


def test_radon_librational_branch_against_tanh_sinh_oracle(table_e21):
    # mpmath's double-exponential rule absorbs the inverse-sqrt endpoints
    import mpmath as mp
    h = 1.0
    c2 = table_e21.c ** 2
    x1 = math.asin(math.sqrt(h / c2))
    x2 = math.pi - x1

    def integrand(x):
        f = c2 * mp.sin(x) ** 2
        return mp.sqrt((f - table_e21.q_N) / ((h - table_e21.q_N) * (f - h)))

    with mp.workdps(30):
        oracle = float(mp.quad(integrand, [x1, x2]))
    pair = liouville_radon(table_e21, BoundaryFunction.constant(1.0), h)
    # the component integral doubles over the two momentum branches
    assert pair.plus == pytest.approx(2.0 * oracle, rel=1e-8)
    assert pair.plus == pytest.approx(pair.minus, rel=1e-10)


@pytest.mark.parametrize("c", [0.8, 1.0, 1.25])
def test_turning_points_match_the_elliptic_closed_forms(c):
    # f = c^2 sin^2 x and q = -c^2 sinh^2 y: x_h = asin(sqrt(h)/c) on a
    # librational level, y_h = asinh(sqrt(-h)/c) on a rotational one
    import mpmath as mp
    table = elliptic_table(c, 1.0)
    with mp.workdps(30):
        for frac in np.linspace(0.02, 0.98, 25):
            h = float(frac * table.f_max)
            x_h = LerayCircle(table, h).ends[0]
            exact = mp.asin(mp.sqrt(h) / c)
            assert abs(x_h - exact) <= 1e-15 * exact
            h = float(frac * table.q_N)
            exact = mp.asinh(mp.sqrt(-h) / c)
            assert abs(_turning_point(table, h) - exact) <= 1e-15 * exact


def test_librational_level_solves_its_turning_point_once(table_c1, monkeypatch):
    calls = []

    def counting(table, h):
        calls.append(h)
        return _turning_point(table, h)

    monkeypatch.setattr(radon, "_turning_point", counting)
    levels = [0.2, 0.5, 0.8]
    for h in levels:
        liouville_radon(table_c1, BoundaryFunction.constant(1.0), h)
    assert calls == levels
    # the second component is the first shifted by pi, bit for bit as if
    # it had solved x_h itself
    _, second = librational_circles(table_c1, 0.5)
    monkeypatch.undo()
    fresh = LerayCircle(table_c1, 0.5, x_shift=math.pi)
    for got, want in zip(second.x_nodes(64), fresh.x_nodes(64)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("h", [-1.6, 0.0, 1.5])
def test_leray_circle_rejects_a_level_that_is_not_regular(table_c1, h):
    # q_N = -sinh(1)^2 = -1.38, f_max = 1
    with pytest.raises(HOutOfRange, match="not a regular value"):
        LerayCircle(table_c1, h)
    with pytest.raises(HOutOfRange, match="not a regular value"):
        leray_mass(table_c1, h)


def test_leray_vs_probability_normalization(table_c1):
    curve = table_c1.boundary_curve()
    K1 = BoundaryFunction.constant(1.0)
    for h in (-1.0, -0.4):
        lc = rotational_circle(table_c1, h)
        ti = torus_invariant(curve, [lc], K1)
        assert ti * leray_mass(table_c1, h) == pytest.approx(
            liouville_radon(table_c1, K1, h).plus, rel=1e-9)


def test_orbit_circle_matches_leray_circle(table_c1):
    curve = table_c1.boundary_curve()
    h = -0.6
    xi0 = math.sqrt(h / table_c1.q_N)
    orb_circ = circle_conjugacy(curve, PhasePoint(0.0, xi0), n_modes=64)
    K = BoundaryFunction.from_x(lambda x: 1.0 + 0.3 * np.cos(2.0 * np.asarray(x)), curve)
    a = torus_invariant(curve, [orb_circ], K)
    b = torus_invariant(curve, [rotational_circle(table_c1, h)], K)
    assert a == pytest.approx(b, rel=1e-8)


# --- bouncing-ball identity ---------------------------------------------------------

def test_bouncing_ball_identity_asymmetric(ellipse21, table_e21):
    lam1, lam2 = librational_circles(table_e21, 1.0)
    G = SymmetryGroup.for_curve(ellipse21)
    K = BoundaryFunction.trig(ellipse21, cos_coeffs=[0.3, 0.0, 0.2],
                              sin_coeffs=[0.25, 0.4])
    assert bouncing_ball_identity_check(ellipse21, lam1, lam2, K, G) < 1e-8


def test_bouncing_ball_identity_symmetric_kernel(ellipse21, table_e21):
    lam1, lam2 = librational_circles(table_e21, 0.7)
    G = SymmetryGroup.for_curve(ellipse21)
    K = BoundaryFunction.trig(ellipse21, cos_coeffs=[0.0, 0.5])  # cos(4 pi s / L)
    K_sym = symmetry_average(K, G)
    s = np.linspace(0.0, ellipse21.total_length, 33)
    assert np.max(np.abs(K_sym(s) - K(s))) < 1e-12
    assert bouncing_ball_identity_check(ellipse21, lam1, lam2, K, G) < 1e-10


def test_bouncing_ball_constant_kernel(ellipse21, table_e21):
    lam1, lam2 = librational_circles(table_e21, 1.4)
    G = SymmetryGroup.for_curve(ellipse21)
    assert bouncing_ball_identity_check(ellipse21, lam1, lam2,
                                        BoundaryFunction.constant(1.0), G) < 1e-10


def test_bouncing_ball_rejects_unrelated_circles(ellipse21, table_e21):
    lam1, _ = librational_circles(table_e21, 1.0)
    _, other = librational_circles(table_e21, 2.0)
    G = SymmetryGroup.for_curve(ellipse21)
    with pytest.raises(CirclesNotExchanged):
        bouncing_ball_identity_check(ellipse21, lam1, other,
                                     BoundaryFunction.constant(1.0), G)


def test_hausdorff_matches_pointwise_loop(ellipse21, rng):
    L = ellipse21.total_length
    a = (rng.uniform(0.0, L, 40), rng.uniform(-0.9, 0.9, 40))
    b = (rng.uniform(0.0, L, 25), rng.uniform(-0.9, 0.9, 25))

    def one_sided(p, q):
        return max(min(np.hypot(abs(((sp - sq + 0.5 * L) % L) - 0.5 * L), xp - xq)
                       for sq, xq in zip(*q)) for sp, xp in zip(*p))

    assert _hausdorff(ellipse21, a, b) == max(one_sided(a, b), one_sided(b, a))
