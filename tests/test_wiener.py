import math

import numpy as np
import pytest

from spectral_billiards.errors import (NonZeroMean, ParameterOutOfRange,
                                       ResonantMode)
from spectral_billiards.tori import diophantine_kappa
from spectral_billiards.wiener import (TorusFunction, apply_Lomega,
                                       load_coefficients, solve_homological,
                                       wiener_norm)

PHI = 2.0 * math.pi * np.arange(4096) / 4096


def derivative_sup(u, order):
    """sup |u^(order)| of a one-dimensional series on a 4096-point grid."""
    return float(np.abs(u.derivative(order)(PHI)).max())


def test_norm_cosine():
    assert wiener_norm(TorusFunction.cosine(2), 1.0) == pytest.approx(3.0)


def test_norm_single_harmonic():
    for k in (1, 3, 7):
        for s in (0.0, 1.0, 2.5):
            assert wiener_norm(TorusFunction.harmonic(k), s) == pytest.approx((1 + k) ** s)


def test_banach_algebra_property(rng):
    for _ in range(40):
        u = TorusFunction.random_real(rng, max_k=8)
        v = TorusFunction.random_real(rng, max_k=8)
        assert wiener_norm(u * v, 2.0) <= wiener_norm(u, 2.0) * wiener_norm(v, 2.0) * (1 + 1e-12)


def test_solve_golden_first_mode(golden):
    u = solve_homological(TorusFunction.harmonic(1), golden)
    assert abs(u.coeffs[(1,)]) == pytest.approx(1.0 / (2.0 * abs(math.sin(math.pi * golden))),
                                                abs=1e-12)
    assert abs(u.coeffs[(1,)]) == pytest.approx(0.5364620, abs=1e-6)


def test_solve_zero_function(golden):
    u = solve_homological(TorusFunction({}, dim=1), golden)
    assert u.coeffs == {}


def test_nonzero_mean_rejected(golden):
    with pytest.raises(NonZeroMean):
        solve_homological(TorusFunction({(0,): 1.0}), golden)


def test_resonant_mode_reported():
    with pytest.raises(ResonantMode) as err:
        solve_homological(TorusFunction.harmonic(3), 1.0 / 3.0)
    assert err.value.k == (3,)


def test_roundtrip_exact(rng, golden):
    worst = 0.0
    for _ in range(100):
        f = TorusFunction.random_real(rng, max_k=15)
        u = solve_homological(f, golden)
        worst = max(worst, apply_Lomega(u, golden).coefficient_error(f))
    assert worst < 1e-12


def test_apply_Lomega_half_rotation():
    out = apply_Lomega(TorusFunction.harmonic(1), 0.5)
    assert out.coeffs[(1,)] == pytest.approx(-2.0, abs=1e-12)
    assert apply_Lomega(TorusFunction({(0,): 2.0}), 0.37).coeffs == {}


def test_loss_of_regularity_bound(rng, golden):
    tau, s = 1.0, 2.0
    kappa = diophantine_kappa(golden, tau, 15).kappa_hat
    for _ in range(100):
        f = TorusFunction.random_real(rng, max_k=15)
        u = solve_homological(f, golden, kappa=kappa, tau=tau)
        assert wiener_norm(u, s - tau) <= wiener_norm(f, s) / (4.0 * kappa) * (1 + 1e-12)


def test_kappa_precondition_enforced(golden):
    kappa = diophantine_kappa(golden, 1.0, 5).kappa_hat
    with pytest.raises(ParameterOutOfRange, match="exceeds the witnessed constant"):
        solve_homological(TorusFunction.harmonic(5), golden, kappa=2.0 * kappa, tau=1.0)


def test_linearity_and_rotation_equivariance(rng, golden):
    f = TorusFunction.random_real(rng, max_k=10)
    g = TorusFunction.random_real(rng, max_k=10)
    lhs = solve_homological(f + 2.5 * g, golden)
    rhs = solve_homological(f, golden) + 2.5 * solve_homological(g, golden)
    assert lhs.coefficient_error(rhs) < 1e-12
    # rotating the datum rotates the solution
    beta = 0.7331
    f_rot = f.scale_modes(lambda k: np.exp(-1j * k[0] * beta))
    u_rot = solve_homological(f_rot, golden)
    u_expect = solve_homological(f, golden).scale_modes(lambda k: np.exp(-1j * k[0] * beta))
    assert u_rot.coefficient_error(u_expect) < 1e-12


def test_sharpness_along_fibonacci_denominators(golden):
    # modes on continued-fraction denominators realize the 1/(4 kappa) rate
    # within a factor 4
    for q in (34, 89, 233):
        u = solve_homological(TorusFunction.harmonic(q), golden)
        ratio = wiener_norm(u, 1.0) / wiener_norm(TorusFunction.harmonic(q), 2.0)
        kq = diophantine_kappa(golden, 1.0, q).kappa_hat
        assert 0.25 <= ratio * 4.0 * kq <= 1.0


# sup |d^alpha u| <= ||u||_s for all alpha <= s: the computable half of the
# embedding of the Wiener space into C^s

def test_derivative_sup_bound_cos2():
    u = TorusFunction.cosine(2)
    assert wiener_norm(u, 1) == pytest.approx(3.0)
    assert derivative_sup(u, 1) == pytest.approx(2.0, abs=1e-10)
    assert all(derivative_sup(u, a) <= wiener_norm(u, 1) * (1.0 + 1e-12) for a in (0, 1))


def test_derivative_sup_bound_harmonic():
    for k in (2, 5):
        u = TorusFunction.harmonic(k)
        for s in (1, 3):
            assert all(derivative_sup(u, a) <= wiener_norm(u, s) * (1.0 + 1e-12)
                       for a in range(s + 1))
            assert derivative_sup(u, s) == pytest.approx(float(k) ** s, rel=1e-12)


def test_derivative_sup_bound_random(rng):
    u = TorusFunction.random_real(rng, max_k=9)
    assert all(derivative_sup(u, a) <= wiener_norm(u, 3) * (1.0 + 1e-12) for a in range(4))


def test_two_dimensional_solve(rng):
    omega = [math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]
    f = TorusFunction.random_real(rng, max_k=4, dim=2)
    u = solve_homological(f, omega)
    back = apply_Lomega(u, omega)
    assert back.coefficient_error(f) < 1e-12


def test_coefficient_file_roundtrip(tmp_path, rng):
    f = TorusFunction.random_real(rng, max_k=6)
    path = tmp_path / "coeffs.txt"
    path.write_text("".join(f"{k} {v.real:.17g} {v.imag:.17g}\n"
                            for (k,), v in sorted(f.coeffs.items())))
    g = load_coefficients(path, dim=1)
    assert f.coefficient_error(g) < 1e-15


def test_real_detection(rng):
    f = TorusFunction.random_real(rng, max_k=6)
    assert f.is_real()
    assert not TorusFunction.harmonic(2, 1.0 + 0.5j).is_real()
