import math

import numpy as np
import pytest

from spectral_billiards.billiard import (PhasePoint, billiard_map,
                                         billiard_map_many, flowout_integral,
                                         map_jacobian, orbit, refine)
from spectral_billiards.disk import disk_circle
from spectral_billiards.errors import GlancingRay, QuadratureNonConvergence
from spectral_billiards.geometry import make_circle, make_ellipse, make_fourier
from .oracles import DegenerateChord, generating_residual, liouville_integral


def test_circle_diameter(unit_circle):
    q, chord = billiard_map(unit_circle, PhasePoint(0.0, 0.0))
    assert q.s == pytest.approx(math.pi, abs=1e-13)
    assert q.xi == pytest.approx(0.0, abs=1e-13)
    assert chord.length == pytest.approx(2.0, abs=1e-13)


def test_circle_closed_form_advance(unit_circle):
    q, chord = billiard_map(unit_circle, PhasePoint(0.0, 0.5))
    assert q.s == pytest.approx(2.0 * math.pi / 3.0, abs=1e-13)
    assert q.xi == pytest.approx(0.5, abs=1e-13)
    assert chord.length == pytest.approx(math.sqrt(3.0), abs=1e-13)


def test_ellipse_major_axis(ellipse21):
    q, chord = billiard_map(ellipse21, PhasePoint(0.0, 0.0))
    assert q.s == pytest.approx(ellipse21.total_length / 2.0, abs=1e-10)
    assert q.xi == pytest.approx(0.0, abs=1e-12)
    assert chord.length == pytest.approx(4.0, abs=1e-12)


def test_glancing_cutoff(unit_circle):
    with pytest.raises(GlancingRay):
        billiard_map(unit_circle, PhasePoint(0.0, 1.0 - 1e-9))


def test_period_three_orbit(unit_circle):
    ob = orbit(unit_circle, PhasePoint(0.0, 0.5), 3)
    wrapped = ob.s_lifted[-1] % (2.0 * math.pi)
    assert min(wrapped, 2.0 * math.pi - wrapped) < 1e-12
    assert ob.total_geodesic_length == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-12)


def test_golden_orbit_never_repeats(unit_circle, golden):
    ob = orbit(unit_circle, PhasePoint(0.0, math.cos(math.pi * golden)), 10_000)
    assert np.ptp(ob.xi) < 5e-12          # xi invariant on the disk
    s = ob.s_mod[1:]
    assert np.min(np.abs(s - ob.s_mod[0])) > 1e-6


def test_ellipse_conserved_quantity(ellipse21):
    ob = orbit(ellipse21, PhasePoint(0.0, 0.5), 10_000)
    vals = liouville_integral(ellipse21, ob.s_mod, ob.xi)
    assert np.max(np.abs(vals - vals[0])) < 1e-9


BENCH_ELLIPSES = {"ellipse21": (2.0, 1.0), "ellipse16": (1.6, 1.0)}


@pytest.mark.parametrize("axes", BENCH_ELLIPSES.values(), ids=BENCH_ELLIPSES)
@pytest.mark.parametrize("kind", ["rotational", "librational"])
def test_conic_orbit_keeps_the_conserved_quantity(axes, kind):
    # a rotational seed at the major vertex (F = -xi^2 b^2 < 0) and a
    # librational one at the minor vertex (F = c^2 - xi^2 a^2 > 0); the
    # spread measured 5.3e-11 to 1.4e-10 over 2*10^4 bounces
    curve = make_ellipse(*axes)
    p = PhasePoint(0.0, 0.5) if kind == "rotational" else PhasePoint(curve.total_length / 4.0, 0.1)
    ob = orbit(curve, p, 20_000)
    vals = liouville_integral(curve, ob.s_mod, ob.xi)
    assert (vals[0] < 0.0) == (kind == "rotational")
    assert np.max(np.abs(vals - vals[0])) < 1e-9


@pytest.mark.parametrize("axes", BENCH_ELLIPSES.values(), ids=BENCH_ELLIPSES)
def test_conic_orbit_is_reversible(axes):
    # flip the last point's momentum and run back: the orbit returns to
    # the seed with the momentum flipped.  The twist shears the rounding
    # walk, so the gap grows with the bounces; after 100 bounces from 16
    # random seeds it measured up to 4.4e-11 in t and 5.5e-11 in xi
    curve = make_ellipse(*axes)
    rng = np.random.default_rng(3)
    for s0, xi0 in zip(rng.uniform(0.0, curve.total_length, 16), rng.uniform(-0.9, 0.9, 16)):
        ob = orbit(curve, PhasePoint(s0, xi0), 100)
        t, xi, _ = curve.orbit_t(ob.t_lifted[-1] % (2.0 * math.pi), -ob.xi[-1], 100)
        dt = (t[-1] - ob.t_lifted[0] + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(dt) < 1e-9
        assert abs(xi[-1] + xi0) < 5e-10


@pytest.mark.parametrize("curve", [make_circle(1.3), *(make_ellipse(*ab) for ab in BENCH_ELLIPSES.values())],
                         ids=["circle", *BENCH_ELLIPSES])
def test_one_orbit_bounce_equals_the_array_map(curve):
    # the kernel's closed-form chord against billiard_map_many's array step
    rng = np.random.default_rng(8)
    L = curve.total_length
    s, xi = rng.uniform(0.0, L, 200), rng.uniform(-0.99, 0.99, 200)
    s1, xi1, ell, _, _ = billiard_map_many(curve, s, xi)
    for i in range(len(s)):
        ob = orbit(curve, PhasePoint(float(s[i]), float(xi[i])), 1)
        assert abs((ob.s_mod[1] - s1[i] + 0.5 * L) % L - 0.5 * L) <= 1e-14
        assert abs(ob.xi[1] - xi1[i]) <= 1e-14
        assert abs(ob.lengths[0] - ell[i]) <= 1e-14


def test_generating_residual_circle_closed_form(unit_circle):
    r1, r2 = generating_residual(unit_circle, 0.0, 2.0 * math.pi / 3.0)
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8


def test_generating_residual_random_chords(ellipse21, rng):
    L = ellipse21.total_length
    for _ in range(25):
        s = rng.uniform(0.0, L)
        sp = (s + rng.uniform(0.05 * L, 0.95 * L)) % L
        r1, r2 = generating_residual(ellipse21, s, sp)
        assert abs(r1) < 1e-7 and abs(r2) < 1e-7


def test_generating_residual_degenerate(unit_circle):
    with pytest.raises(DegenerateChord):
        generating_residual(unit_circle, 1.0, 1.0)


def test_reversibility(any_curve, rng):
    for _ in range(20):
        p = PhasePoint(rng.uniform(0.0, any_curve.total_length), rng.uniform(-0.9, 0.9))
        q, _ = billiard_map(any_curve, p)
        back, _ = billiard_map(any_curve, PhasePoint(q.s, -q.xi))
        assert back.s == pytest.approx(p.s, abs=1e-9)
        assert back.xi == pytest.approx(-p.xi, abs=1e-10)


def test_area_preservation_sample(any_curve):
    for s in np.linspace(0.5, 9.0, 5):
        for xi in (-0.6, 0.1, 0.7):
            J = map_jacobian(any_curve, PhasePoint(float(s), xi))
            assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)


def test_batched_map_equals_one_point_map_bit_for_bit(any_curve, rng):
    s = rng.uniform(0.0, any_curve.total_length, 32)
    xi = rng.uniform(-0.9, 0.9, 32)
    s1, xi1, ell, _, _ = billiard_map_many(any_curve, s, xi)
    for i in range(32):
        q, chord = billiard_map(any_curve, PhasePoint(float(s[i]), float(xi[i])))
        assert (q.s, q.xi, chord.length) == (s1[i], xi1[i], ell[i])


def test_billiard_map_returns_plain_floats(any_curve):
    q, chord = billiard_map(any_curve, PhasePoint(0.3, 0.2))
    values = (q.s, q.xi, chord.length, *chord.start_xy, *chord.end_xy, *chord.direction)
    assert all(type(v) is float for v in values)


def test_fourier_circle_matches_exact_circle_bounce_for_bounce(rng):
    circle, fourier = make_circle(1.0), make_fourier([1.0])
    assert fourier.kind == "fourier"
    s = rng.uniform(0.0, circle.total_length, 32)
    xi = rng.uniform(-0.9, 0.9, 32)
    exact = billiard_map_many(circle, s, xi)
    series = billiard_map_many(fourier, s, xi)
    L = circle.total_length
    ds = ((series[0] - exact[0] + 0.5 * L) % L) - 0.5 * L
    assert np.max(np.abs(ds)) < 1e-13
    for k in (1, 2):       # xi' and chord length
        assert np.max(np.abs(series[k] - exact[k])) < 1e-13
    # the orbit's own stepping, one bounce at a time
    exact, series = orbit(circle, PhasePoint(0.4, 0.6), 12), orbit(fourier, PhasePoint(0.4, 0.6), 12)
    assert np.max(np.abs(np.diff(series.s_lifted) - np.diff(exact.s_lifted))) < 1e-13
    assert np.max(np.abs(series.xi - exact.xi)) < 1e-13


def test_orbit_error_carries_bounce_index(ellipse21):
    # on the ellipse xi grows toward the minor axis along a rotational
    # caustic orbit; the seed passes the cutoff, a later bounce does not
    with pytest.raises(GlancingRay, match="bounce 309:"):
        orbit(ellipse21, PhasePoint(0.0, 0.999997), 1000)


# --- flow-out integrals -------------------------------------------------------

def test_flowout_constant_potential(unit_circle):
    circ = disk_circle(unit_circle, math.pi / 3.0)
    res = flowout_integral(unit_circle, circ, lambda x, y: 1.0)
    assert res.value == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert res.volume == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_flowout_r_squared_diameter_circle(unit_circle):
    # theta = pi/2: integral of cos^2(theta) + u^2 over the diameter = 2/3
    circ = disk_circle(unit_circle, math.pi / 2.0)
    res = flowout_integral(unit_circle, circ, lambda x, y: x ** 2 + y ** 2)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_flowout_zero_potential(unit_circle):
    circ = disk_circle(unit_circle, math.pi / 4.0)
    res = flowout_integral(unit_circle, circ, lambda x, y: 0.0 * np.asarray(x))
    assert res.value == 0.0


def test_flowout_closed_form_any_theta(unit_circle):
    theta = 1.1
    circ = disk_circle(unit_circle, theta)
    res = flowout_integral(unit_circle, circ, lambda x, y: x ** 2 + y ** 2)
    expected = 2.0 * math.sin(theta) * math.cos(theta) ** 2 + (2.0 / 3.0) * math.sin(theta) ** 3
    assert res.value == pytest.approx(expected, abs=1e-12)


def test_refine_stops_at_first_agreeing_doubling():
    calls = []

    def evaluate(n):
        calls.append(n)
        return 1.0 + 1.0 / n ** 4

    value, n, err = refine(evaluate, 8, 1e-6, 1024, "test sum")
    # successive differences 2.3e-4, 1.4e-5, 8.9e-7: the third is below tol
    assert calls == [8, 16, 32, 64]
    assert (value, n) == (1.0 + 1.0 / 64 ** 4, 64)
    assert err == pytest.approx(1.0 / 32 ** 4 - 1.0 / 64 ** 4, rel=1e-9)


def test_refine_error_estimate_is_never_zero_for_a_nonzero_value():
    # successive sums that agree bit for bit still carry their rounding
    value, n, err = refine(lambda n: 0.1, 8, 1e-9, 64, "constant sum")
    assert (value, n) == (0.1, 16)
    assert err == 4.0 * math.ulp(0.1)


def test_refine_names_its_quantity_when_it_does_not_settle():
    with pytest.raises(QuadratureNonConvergence, match="test sum did not settle at 64 nodes"):
        refine(lambda n: float(n), 8, 1e-9, 64, "test sum")
