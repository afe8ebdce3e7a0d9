"""Tests of the benchmark's oracles and checks: python3 -m pytest bench

Each oracle is tied to a closed form or to a computation made another way,
and each check is shown to pass on an output built from the oracles and to
reject the same output perturbed beyond its tolerance.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate, special

import oracles as O
import workloads as W

TWO_PI = 2.0 * math.pi


def bench_orbit(ell, t, xi, n):
    """Bounce n times on the ellipse with the oracle's conic chord; returns
    the forward arclength increments."""
    inc = np.empty(n)
    for i in range(n):
        length, x0, y0, dx, dy = ell.chord(t, xi)
        x1, y1 = x0 + length * dx, y0 + length * dy
        t1 = math.atan2(y1 / ell.b, x1 / ell.a)
        tx, ty = ell.tangent(t1)
        inc[i] = (ell.arclength(t1) - ell.arclength(t)) % ell.perimeter
        t, xi = t1, dx * tx + dy * ty
    return inc


def weighted_mean(values):
    s = np.arange(1, len(values) + 1) / (len(values) + 1.0)
    w = np.exp(-1.0 / (s * (1.0 - s)))
    return float(np.dot(w, values) / w.sum())


def test_ellipse_perimeter_and_arclength():
    ell = O.Ellipse(2.0, 1.0)
    e2 = 1.0 - 0.25
    assert ell.perimeter == pytest.approx(4.0 * 2.0 * special.ellipe(e2), rel=1e-15)
    speed = integrate.quad(lambda t: math.hypot(2.0 * math.sin(t), math.cos(t)), 0.0, TWO_PI,
                           epsabs=0, epsrel=1e-13)[0]
    assert ell.perimeter == pytest.approx(speed, rel=1e-13)
    t = np.array([0.3, 2.0, 4.5, 7.0])
    s = np.array([integrate.quad(lambda u: float(ell.speed(u)), 0.0, v, epsrel=1e-13)[0] for v in t])
    assert np.allclose(ell.arclength(t), s, rtol=1e-12, atol=0)
    assert np.allclose(ell.param(s), t, rtol=0, atol=1e-13)


@pytest.mark.parametrize("xi0", [0.35, 0.6])
def test_rotation_number_matches_bench_orbit(xi0):
    ell = O.Ellipse(2.0, 1.0)
    h = -ell.b ** 2 * xi0 ** 2
    inc = bench_orbit(ell, 0.0, xi0, 3000)
    assert weighted_mean(inc) / ell.perimeter == pytest.approx(ell.table.omega(h), abs=1e-10)


def test_near_circle_limit_matches_disk_closed_forms():
    theta = 1.1
    ell = O.Ellipse(1.0 + 1e-6, 1.0)
    h = -ell.b ** 2 * math.cos(theta) ** 2
    assert ell.table.omega(h) == pytest.approx(O.disk_omega(theta), abs=1e-5)
    assert ell.mean_chord(h) == pytest.approx(2.0 * math.sin(theta), abs=1e-5)
    assert ell.mean_r2_integral(h) == pytest.approx(O.disk_r2_integral(theta), abs=1e-5)
    assert ell.table.action(h) == pytest.approx(math.cos(theta), abs=1e-5)


def test_disk_r2_integral_closed_form():
    theta = 0.7
    s, c = math.sin(theta), math.cos(theta)
    # chord from (1, 0) at angle theta to the tangent (0, 1)
    d = (-s, c)
    length = 2.0 * s
    direct = integrate.quad(lambda u: (1.0 + u * d[0]) ** 2 + (u * d[1]) ** 2, 0.0, length)[0]
    assert O.disk_r2_integral(theta) == pytest.approx(direct, rel=1e-14)


def test_action_derivative_is_leray_mass():
    tab = O.LiouvilleTable(1.2, 0.8)
    h, dh = 0.5 * tab.qN, 1e-4
    dI = (tab.action(h + dh) - tab.action(h - dh)) / (2.0 * dh)
    assert dI == pytest.approx(-tab.leray_norm(h) / (2.0 * TWO_PI), rel=1e-7)


def test_librational_against_tanh_sinh():
    import mpmath as mp
    tab = O.LiouvilleTable(1.0, 1.0)
    h = 0.3
    with mp.workdps(30):
        x_h = mp.asin(mp.sqrt(h))
        qN = -mp.sinh(1) ** 2

        def g(x):
            f = mp.sin(x) ** 2
            return mp.cos(2 * x) * mp.sqrt((f - qN) / (h - qN)) / mp.sqrt(f - h)
        want = float(2 * mp.quad(g, [x_h, mp.pi / 2, mp.pi - x_h]))
    assert tab.radon_librational(h, lambda x: math.cos(2.0 * x)) == pytest.approx(want, rel=1e-12)


def test_clusters_hand_derived_endpoints():
    from scipy.optimize import brentq
    ev = np.array([float(j * j) for j in range(1, 61)])
    intervals, raw = O.clusters(ev, 1.0, 1.0, 50.0)
    k = int(np.flatnonzero(raw[:, 0] < 100.0)[-1])
    lo = brentq(lambda x: x + 2.0 / x - 100.0, 90.0, 100.0, xtol=1e-13)
    hi = brentq(lambda x: x - 2.0 / x - 100.0, 100.0, 110.0, xtol=1e-13)
    assert raw[k] == pytest.approx([lo, hi], abs=1e-10)
    assert intervals[k] == pytest.approx([lo + 1.5 / lo, hi - 1.5 / hi], abs=1e-10)


def test_disk_dirichlet_from_bessel_zeros():
    ev = O.disk_dirichlet(400.0)
    assert ev[0] == pytest.approx(2.404825557695773 ** 2, rel=1e-14)
    # lambda_2 = lambda_3 = j_{1,1}^2: angular modes are double
    assert ev[1] == ev[2] == pytest.approx(3.831705970207512 ** 2, rel=1e-14)
    assert np.all(ev <= 400.0) and np.all(np.diff(ev) >= 0.0)


# ---------------------------------------------------------------------------
# checks accept oracle-built outputs and reject perturbed ones
# ---------------------------------------------------------------------------

def run_check(cmd, tmp_path, write):
    cmd.workdir = str(tmp_path)
    write(cmd)
    cmd.check(cmd)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")


def test_circle_map_check_rejects_perturbed_chord(tmp_path):
    r, theta, m = 1.3, 0.9, 50
    t = 0.2 + 2.0 * theta * np.arange(m)
    rows = [(i, (r * t[i]) % (TWO_PI * r), math.cos(theta), 2.0 * r * math.sin(theta),
             r * math.cos(t[i]), r * math.sin(t[i])) for i in range(m)]
    cmd = W.Command("map", "map", {}, "csv", W.map_check("circle", r, m))
    header = ["bounce_index", "s", "xi", "chord_length", "x", "y"]
    run_check(cmd, tmp_path, lambda c: write_csv(c.out, header, rows))
    bad = list(rows)
    bad[7] = bad[7][:3] + (bad[7][3] * (1.0 + 1e-7),) + bad[7][4:]
    with pytest.raises(W.CheckFailed):
        run_check(cmd, tmp_path, lambda c: write_csv(c.out, header, bad))


def circle_outputs(ell, xi0, scale_I0=1.0):
    """Outputs of `circle` built from the oracles."""
    h = -ell.b ** 2 * xi0 ** 2
    w, I0, A = ell.table.omega(h), ell.table.action(h), ell.mean_chord(h)
    hess = -TWO_PI * ell.table.domega_dI(h)
    k = np.arange(1, 51)
    kappa = float(np.min(np.abs(k * w - np.round(k * w)) * k))
    action = {"I0": I0 * scale_I0, "L0": A - TWO_PI * I0 * w, "gradL": -TWO_PI * w,
              "hessL": hess, "A_avg": A, "omega": -w}
    record = {"action": action, "residual": 1e-10,
              "diophantine": {"kappa_hat": kappa, "tau": 1.0, "k_max": 50}}
    x = TWO_PI * np.arange(256) / 256
    xi = np.array([ell.xi_on_level(v, h) for v in x])
    rows = np.column_stack([x, ell.arclength(x) % ell.perimeter, xi, ell.chord(x, xi)[0]])
    return record, rows


@pytest.mark.parametrize("scale_I0, ok", [(1.0, True), (1.0 + 1e-6, False)])
def test_circle_check_rejects_perturbed_action(tmp_path, scale_I0, ok):
    ell, xi0 = O.Ellipse(2.0, 1.0), 0.55
    record, rows = circle_outputs(ell, xi0, scale_I0)
    cmd = W.Command("circle", "circle", {}, "csv", W.circle_check(ell, xi0),
                    extra_outputs=(".action.json",))

    def write(c):
        write_csv(c.out, ["phi", "s", "xi", "chord_length"], rows)
        with open(c.out + ".action.json", "w") as fh:
            json.dump(record, fh)

    if ok:
        run_check(cmd, tmp_path, write)
    else:
        with pytest.raises(W.CheckFailed):
            run_check(cmd, tmp_path, write)


def test_radon_levels_check_rejects_perturbed_value(tmp_path):
    tab = O.LiouvilleTable(1.0, 1.0)
    cmd = W.radon_levels_command("radon", tab, {"type": "liouville", "c": 1.0, "N": 1.0},
                                 np.random.default_rng(5))
    j, amp = cmd.config["kernel"]["j"], cmd.config["kernel"]["amplitude"]
    h_values = cmd.config["h_values"]

    def K(x):
        return amp * math.cos(2.0 * j * x)

    vals = [tab.radon_rotational(h, [K])[0] if h < 0 else tab.radon_librational(h, K)
            for h in h_values]
    header = ["h_or_omega", "invariant_value", "quadrature_nodes", "est_error"]
    run_check(cmd, tmp_path, lambda c: write_csv(c.out, header, [(h, v, 128, 0.0) for h, v in zip(h_values, vals)]))
    vals[-1] *= 1.0 + 1e-7
    with pytest.raises(W.CheckFailed):
        run_check(cmd, tmp_path, lambda c: write_csv(c.out, header, [(h, v, 128, 0.0) for h, v in zip(h_values, vals)]))


def test_homological_check_rejects_wrong_mode(tmp_path):
    cmd = W.homological_command("hom", np.random.default_rng(3), dim=1, degree=4)
    omega = cmd.config["omega"]
    f = {int(e[0]): complex(e[1], e[2]) for e in cmd.config["f"]["coeffs"]}
    u = {k: v / (np.exp(-2j * math.pi * k * omega) - 1.0) for k, v in f.items()}

    def write(sol):
        def w(c):
            norm_f = sum((1.0 + abs(k)) ** 2 * abs(v) for k, v in f.items())
            norm_u = sum((1.0 + abs(k)) ** 1 * abs(v) for k, v in sol.items())
            with open(c.out, "w") as fh:
                json.dump({"s": 2.0, "norm_f_s": norm_f, "norm_u_s_minus_tau": norm_u,
                           "roundtrip_error": 0.0,
                           "solution": [[k, v.real, v.imag] for k, v in sorted(sol.items())]}, fh)
        return w

    run_check(cmd, tmp_path, write(u))
    k0 = sorted(u)[0]
    u[k0] *= 1.0 + 1e-9
    with pytest.raises(W.CheckFailed):
        run_check(cmd, tmp_path, write(u))
