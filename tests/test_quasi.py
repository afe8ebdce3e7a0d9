import math
from dataclasses import replace

import numpy as np
import pytest

from spectral_billiards.billiard import PhasePoint, orbit
from spectral_billiards.disk import bessel_zero, ebk_eigenvalue
from spectral_billiards.errors import (DegenerateAction, MissingJet,
                                       NonPositiveD, ParameterOutOfRange)
from spectral_billiards.geometry import make_circle
from spectral_billiards.quasi import (BirkhoffData, evaluate_mu,
                                      find_indices, solve_recursion,
                                      QuasiEigenvalue)
from .oracles import quantization_residuals

TWO_PI = 2.0 * math.pi


def _disk_data(**kw):
    return BirkhoffData.disk(math.pi / 3.0, **kw)


# --- index selection -------------------------------------------------------------

def test_find_indices_disk_example():
    data = _disk_data(maslov=(0, 0))
    idx = find_indices(data, 4.0, (100, 100))
    (q, mu0), = idx.items
    assert q == (100, 22)
    assert mu0 == pytest.approx(200.0, abs=1e-10)
    assert abs(TWO_PI * 22 - 200.0 * data.L0) == pytest.approx(1.2594, abs=1e-3)
    assert idx.growth_constant > 0.0


def test_find_indices_degenerate_action():
    data = BirkhoffData(I0=0.0, omega=-0.3, L0=1.0, hessL=1.0)
    with pytest.raises(DegenerateAction):
        find_indices(data, 4.0, (1, 10))


def test_find_indices_exact_match_impossible():
    data = _disk_data(maslov=(0, 0))
    assert len(find_indices(data, 0.0, (1, 500))) == 0


def test_growth_bound_over_range():
    data = _disk_data(maslov=(0, 1))
    idx = find_indices(data, 4.0, (10, 2000))
    assert len(idx) > 0
    mus = np.array([mu for _, mu in idx.items])
    qs = np.array([math.hypot(*q) for q, _ in idx.items])
    assert np.all(mus >= idx.growth_constant * qs)
    assert idx.growth_constant > 0.5


# --- the linear-system recursion ---------------------------------------------------

def test_zero_seed_propagates():
    # engineer L0 so both quantization coordinates are exact integers
    mu0, I0, om = 100.0, 0.5, -1.0 / 3.0
    L0 = TWO_PI * round(mu0 * 1.9 / TWO_PI) / mu0
    data = BirkhoffData(I0=I0, omega=om, L0=L0, hessL=0.7)
    qe = solve_recursion(data, (50, round(mu0 * L0 / TWO_PI)), mu0)
    assert np.allclose(qe.c, 0.0, atol=1e-14)
    assert np.allclose(qe.b, 0.0, atol=1e-14)


def test_c1_equals_2R_over_D_for_zero_seed():
    mu0, I0, om = 100.0, 0.5, -1.0 / 3.0
    L0 = TWO_PI * round(mu0 * 1.9 / TWO_PI) / mu0
    R = 0.7
    data = BirkhoffData(I0=I0, omega=om, L0=L0, hessL=0.7,
                        birkhoff_p={(0, 0): -2j * R})
    qe = solve_recursion(data, (50, round(mu0 * L0 / TWO_PI)), mu0)
    assert qe.c[0] == 0.0 and qe.b[0] == 0.0
    assert qe.c[1] == pytest.approx(2.0 * R / data.D, abs=1e-14)


def test_affine_response_in_radon_invariant():
    base = dict(I0=0.5, omega=-1.0 / 3.0, L0=1.91, hessL=2.3)
    D = BirkhoffData(**base).D
    Rs = np.linspace(-2.0, 2.0, 10)
    c1 = []
    for R in Rs:
        data = BirkhoffData(**base, birkhoff_p={(0, 0): -2j * float(R)})
        c1.append(solve_recursion(data, (40, 11), 85.0).c[1])
    slopes = np.diff(c1) / np.diff(Rs)
    assert np.max(np.abs(slopes - 2.0 / D)) < 1e-12


def test_c0_b0_independent_of_invariants(rng):
    base = dict(I0=0.5, omega=-1.0 / 3.0, L0=1.91, hessL=2.3)
    ref = solve_recursion(BirkhoffData(**base), (40, 11), 85.0)
    for _ in range(5):
        p = {(0, 0): complex(rng.standard_normal(), rng.standard_normal()),
             (0, 1): complex(rng.standard_normal(), rng.standard_normal()),
             (1, 0): complex(rng.standard_normal(), rng.standard_normal())}
        qe = solve_recursion(BirkhoffData(**base, birkhoff_p=p), (40, 11), 85.0)
        assert qe.c[0] == ref.c[0]
        assert qe.b[0] == ref.b[0]


def test_w1_identity():
    # the j = 1 system's W-side must be -c0*b0
    data = _disk_data(maslov=(0, 1), radon_value=0.9)
    (q, mu0), = find_indices(data, 4.0, (80, 80)).items
    qe = solve_recursion(data, q, mu0)
    W1 = qe.b[1] + qe.c[1] * data.I0
    assert W1 == pytest.approx(-qe.c[0] * qe.b[0], abs=1e-12)


def test_system_determinant_is_D():
    data = _disk_data()
    assert data.D == pytest.approx(math.sqrt(3.0), abs=1e-12)  # mean chord


def test_nonpositive_D_rejected():
    data = BirkhoffData(I0=0.5, omega=1.0, L0=0.1, hessL=1.0)
    with pytest.raises(NonPositiveD):
        solve_recursion(data, (10, 3), 20.0)


def test_missing_jet_rejected():
    with pytest.raises(MissingJet):
        solve_recursion(_disk_data(M=3), (10, 3), 20.0)


def test_hand_solved_two_by_two_oracle():
    # generic seed, solved symbolically: c_j = (V_j - 2 pi om W_j)/D, b_j = W_j - c_j I0
    I0, om, L0, hess, L3 = 0.5, -1.0 / 3.0, 1.91, 2.3, 0.9
    p00, p01, p10 = -1.4j, 0.6j, -0.8j
    mu0 = 100.0
    k = mu0 * I0 + 0.2                # W0 = 0.2
    kn = (mu0 * L0 + 0.3) / TWO_PI    # V0 = 0.3 (non-integer k, k_n: fine for the algebra)
    data = BirkhoffData(I0=I0, omega=om, L0=L0, hessL=hess, L3=L3,
                        birkhoff_p={(0, 0): p00, (0, 1): p01, (1, 0): p10})
    qe = solve_recursion(data, (k, kn), mu0)
    D = L0 - TWO_PI * I0 * om
    W0, V0 = 0.2, 0.3
    c0 = (V0 - TWO_PI * om * W0) / D
    b0 = W0 - c0 * I0
    assert qe.c[0] == pytest.approx(c0, abs=1e-12)
    assert qe.b[0] == pytest.approx(b0, abs=1e-12)
    W1 = -c0 * b0
    V1 = (-p00 / 1j - c0 * TWO_PI * om * b0 - 0.5 * hess * b0 ** 2).real
    c1 = (V1 - TWO_PI * om * W1) / D
    b1 = W1 - c1 * I0
    assert qe.c[1] == pytest.approx(c1, abs=1e-12)
    assert qe.b[1] == pytest.approx(b1, abs=1e-12)
    W2 = -(c0 * b1 + c1 * b0)
    u2 = p10 + p01 * b0 - c0 * p00 - 0.5 * p00 ** 2
    V2 = (-u2 / 1j - hess * b0 * b1 - L3 * b0 ** 3 / 6.0
          - c0 * (TWO_PI * om * b1 + 0.5 * hess * b0 ** 2)
          - c1 * TWO_PI * om * b0).real
    c2 = (V2 - TWO_PI * om * W2) / D
    assert qe.c[2] == pytest.approx(c2, abs=1e-12)


def test_quantization_residual_orders():
    data = BirkhoffData.disk(math.pi / 3.0, maslov=(0, 1), radon_value=1.3)
    data = replace(data, birkhoff_p={**data.birkhoff_p, (0, 1): -0.5j, (1, 0): 2.1j})
    for kk in (120, 480):
        (q, mu0), = find_indices(data, 4.0, (kk, kk)).items
        qe = solve_recursion(data, q, mu0)
        r1, r2_re, r2_im = quantization_residuals(data, qe)
        assert r1 < 100.0 * mu0 ** -3
        assert r2_re < 100.0 * mu0 ** -3
        # the dropped imaginary part is the symbol-modulus defect
        assert r2_im == pytest.approx(abs(2.0 * 1.3) ** 2 / (2.0 * mu0 ** 2), rel=0.05)


def test_boundedness_over_large_range():
    data = _disk_data(maslov=(0, 1), radon_value=0.8)
    idx = find_indices(data, 4.0, (50, 10_000))
    sup = 0.0
    for q, mu0 in idx.items[:: max(1, len(idx) // 500)]:
        qe = solve_recursion(data, q, mu0)
        sup = max(sup, float(np.abs(qe.c).max()))
    assert math.isfinite(sup)
    assert sup < 50.0


# --- series evaluation ---------------------------------------------------------------

def test_evaluate_mu_all_zero():
    qe = QuasiEigenvalue(q=(0, 0), mu0=123.0, c=np.zeros(3), b=np.zeros(4), max_imag=0.0)
    mu, mu2 = evaluate_mu(qe)
    assert mu == 123.0 and mu2 == 123.0 ** 2


def test_evaluate_mu_arithmetic():
    qe = QuasiEigenvalue(q=(0, 0), mu0=200.0, c=np.array([0.1, 2.0, 0.0]),
                         b=np.zeros(4), max_imag=0.0)
    mu, _ = evaluate_mu(qe)
    assert mu == pytest.approx(200.11, abs=1e-12)


def test_evaluate_mu_override_slope():
    qe = QuasiEigenvalue(q=(0, 0), mu0=150.0, c=np.array([0.3, 1.0, -0.2]),
                         b=np.zeros(4), max_imag=0.0)
    mu_a, _ = evaluate_mu(qe)
    mu_b, _ = evaluate_mu(replace(qe, c=np.array([0.3, 1.0 + 0.5, -0.2])))
    assert mu_b - mu_a == pytest.approx(0.5 / 150.0, abs=1e-13)


def test_mu_squared_continuity_along_sweep():
    data = _disk_data(maslov=(0, 1), radon_value=0.4)
    (q, mu0), = find_indices(data, 4.0, (90, 90)).items
    qe = solve_recursion(data, q, mu0)
    t = np.linspace(0.0, 1.0, 101)
    c1 = qe.c[1] + 0.3 * np.sin(math.pi * t)
    mu2 = np.array([evaluate_mu(replace(qe, c=np.array([qe.c[0], c, qe.c[2]])))[1]
                    for c in c1])
    steps = np.abs(np.diff(mu2))
    # d(mu^2)/dc1 = 2*mu/mu0 ~ 2, times the c1 step
    assert steps.max() < 3.0 * np.abs(np.diff(c1)).max()


# --- disk EBK calibration ---------------------------------------------------------------

def test_bessel_oracle_reference_value():
    assert bessel_zero(50, 1) == pytest.approx(57.1173, abs=1e-3)
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-10)


def test_bessel_oracle_against_scipy():
    from scipy.special import jn_zeros
    for m, p in ((0, 3), (5, 2), (40, 1), (65, 4)):
        assert bessel_zero(m, p) == pytest.approx(jn_zeros(m, p)[-1], abs=1e-9)


def test_whispering_gallery_match():
    # the EBK quantization against the Bessel-zero oracle, p = 1
    rels = [abs(ebk_eigenvalue(m, 1) - bessel_zero(m, 1)) / bessel_zero(m, 1)
            for m in range(50, 81, 5)]
    assert all(r < 1e-3 for r in rels)
    assert all(a > b for a, b in zip(rels, rels[1:]))


@pytest.mark.parametrize("m", [2, 5, 10, 20, 40, 80, 160, 200])
def test_ebk_eigenvalue_against_brent_root(m):
    # reference: Brent's method on tan(theta) - theta = rhs
    from scipy.optimize import brentq
    for p in range(1, 6):
        rhs = (2.0 * math.pi * p - 0.5 * math.pi) / (2.0 * m)
        th = brentq(lambda t: math.tan(t) - t - rhs, 1e-12, 0.5 * math.pi - 1e-9,
                    xtol=1e-15, rtol=8.9e-16)
        assert ebk_eigenvalue(m, p) == pytest.approx(m / math.cos(th), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda: find_indices(_disk_data(), -1.0, (1, 10)),
    lambda: solve_recursion(_disk_data(M=-1), (20, 5), 30.0),
    lambda: evaluate_mu(QuasiEigenvalue(q=(0, 0), mu0=0.5, c=np.zeros(3), b=np.zeros(4),
                                        max_imag=0.0)),
    lambda: ebk_eigenvalue(0, 1),
    lambda: ebk_eigenvalue(5, 0),
    lambda: orbit(make_circle(1.0), PhasePoint(0.0, 0.3), 0),
], ids=["d_n<0", "M<0", "mu0<1", "m+theta0/4<=0", "p-theta/4<=0", "no-bounce"])
def test_out_of_range_parameters_raise_typed_errors(call):
    with pytest.raises(ParameterOutOfRange):
        call()


def test_maslov_offset_by_four_absorbed():
    from spectral_billiards.disk import ebk_eigenvalue
    assert ebk_eigenvalue(55, 2, (0, 1)) == pytest.approx(
        ebk_eigenvalue(55, 1, (0, 1 - 4)), abs=1e-12)
