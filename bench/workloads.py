"""Workload definitions: seeded CLI configs and the check of every output.

A workload is a list of Commands run back to back as one round.  Each
Command carries the argv for ``spectral_billiards.cli.main`` and a check
that reads the files the command wrote and compares them with the
independent computations in ``oracles`` or with a property the method
must have.  Expected values are computed lazily, once per Command.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as O

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    pass


def expect(ok, what: str):
    if not bool(ok):
        raise CheckFailed(what)


def close(got, want, tol, what, rel=False):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(1.0, np.abs(want)) if rel else 1.0
    err = np.abs(got - want) / scale
    worst = float(np.max(err)) if err.size else 0.0
    expect(np.all(np.isfinite(got)) and worst <= tol,
           f"{what}: error {worst:.3e} above {tol:.1e}")
    return worst


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@dataclass
class Command:
    label: str
    command: str
    config: dict
    fmt: str
    check: Callable[["Command"], None]
    extra_outputs: tuple[str, ...] = ()
    repeat: int = 1         # runs back to back per round; one latency sample, their mean
    workdir: str = ""
    cache: dict = field(default_factory=dict)

    @property
    def config_path(self):
        return os.path.join(self.workdir, f"{self.label}.config.json")

    @property
    def out(self):
        return os.path.join(self.workdir, f"{self.label}.out.{self.fmt}")

    def outputs(self):
        return [self.out] + [self.out + suffix for suffix in self.extra_outputs]

    def argv(self):
        return [self.command, "--config", self.config_path, "--out", self.out,
                "--format", self.fmt]

    def write_config(self):
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def once(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    warmup: Command


def rng_for(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % (2 ** 63), salt])


# ---------------------------------------------------------------------------
# momentum screening
# ---------------------------------------------------------------------------

def near_resonant(omega: float, q_max: int = 12, kappa: float = 0.1) -> bool:
    """True when |omega - p/q| < kappa/q^2 for some q <= q_max."""
    for q in range(1, q_max + 1):
        if abs(omega - round(omega * q) / q) * q * q < kappa:
            return True
    return False


# Grid points (xi0 = i/200) at which circle_conjugacy fails on these two
# ellipses (see the FOUND lines in CHANGES.md); they are left out so that
# every seed runs without failures.
CONJUGACY_FAILURES = {(2.0, 1.0): {67, 88, 118, 126, 147, 149},
                      (1.6, 1.0): {86, 89, 106, 110}}
# Grid points at which the fit, or one of the two neighbouring fits of the
# Hessian, takes extra refine rounds (1.5 to 6 times the map calls of one
# round).  Seeded draws skip them so that the work per round does not hinge
# on how many the seed happens to pick; the workload runs one of them on
# every seed instead (REFINE_HEAVY_XI0), so the wasted rounds stay measured.
REFINE_HEAVY = {(2.0, 1.0): {65, 89, 90, 125, 135, 144, 158},
                (1.6, 1.0): {69, 74, 96, 104, 116, 118, 134}}
REFINE_HEAVY_XI0 = 0.345


def ellipse_momenta(ell: O.Ellipse, rng, strata) -> list[float]:
    """One screened momentum xi0 = i/200 from each stratum [lo, hi] of i."""
    key = (ell.a, ell.b)
    bad = CONJUGACY_FAILURES.get(key, set()) | REFINE_HEAVY.get(key, set())
    out = []
    for lo, hi in strata:
        ok = [i for i in range(lo, hi + 1) if i not in bad
              and not near_resonant(ell.table.omega(-ell.b ** 2 * (i / 200.0) ** 2))]
        out.append(int(rng.choice(ok)) / 200.0)
    return out


# ---------------------------------------------------------------------------
# checks shared by several workloads
# ---------------------------------------------------------------------------

def ellipse_spec(ell):
    return {"type": "ellipse", "a": ell.a, "b": ell.b}


def circle_check(ell: O.Ellipse, xi0: float, hess: bool = True):
    h = -ell.b ** 2 * xi0 ** 2

    def oracle():
        tab = ell.table
        w = tab.omega(h)
        I0 = tab.action(h)
        A = ell.mean_chord(h)
        return {"omega": w, "I0": I0, "A": A, "L0": A - TWO_PI * I0 * w,
                "hessL": -TWO_PI * tab.domega_dI(h) if hess else None}

    def check(cmd: Command):
        o = cmd.once("oracle", oracle)
        rec = read_json(cmd.out + ".action.json")
        act = rec["action"]
        close(O.wrap(-act["omega"] - o["omega"]), 0.0, 1e-10, "omega vs oracle")
        close(act["I0"], o["I0"], 1e-7, "I0 vs oracle", rel=True)
        close(act["A_avg"], o["A"], 1e-8, "mean chord vs oracle", rel=True)
        close(act["L0"], o["L0"], 1e-6, "L0 vs oracle", rel=True)
        if hess:
            close(act["hessL"], o["hessL"], 1e-4 * abs(o["hessL"]), "hessL vs oracle")
        else:
            expect(act["hessL"] is None, "no hessL without hess")
        close(act["gradL"], TWO_PI * act["omega"], 1e-14, "gradL = 2 pi omega", rel=True)
        expect(rec["residual"] < 1e-7, f"conjugacy residual {rec['residual']:.2e}")
        dio = rec["diophantine"]
        k = np.arange(1, dio["k_max"] + 1)
        x = k * (o["omega"] % 1.0)
        kappa = float(np.min(np.abs(x - np.round(x)) * k ** dio["tau"]))
        close(dio["kappa_hat"], kappa, 1e-8, "kappa_hat vs oracle")
        header, rows = read_csv(cmd.out)
        expect(header == ["phi", "s", "xi", "chord_length"], "circle CSV header")
        n = len(rows)
        expect(n == 256, f"circle CSV has {n} rows")
        close(rows[:, 0], TWO_PI * np.arange(n) / n, 1e-14, "phi grid")
        t = ell.param(rows[:, 1])
        close(ell.level(t, rows[:, 2]), h, 1e-6, "rows on level h")
        close(rows[:, 3], ell.chord(t, rows[:, 2])[0], 1e-10, "chord length vs conic chord")
    return check


def rotational_h(tab: O.LiouvilleTable, fractions) -> list[float]:
    return [float(tab.qN * f) for f in fractions]


def rigidity_check(tab: O.LiouvilleTable, h_grid, J, true_coeffs=None, rotation_grid=None):
    h_grid = np.asarray(h_grid, dtype=float)

    def oracle():
        kernels = [lambda x, j=j: math.cos(2.0 * j * x) for j in range(J)]
        M = np.array([tab.radon_rotational(h, kernels) for h in h_grid])
        return {"M": M, "sigma": np.linalg.svd(M, compute_uv=False),
                "omega": [tab.omega(h) for h in (rotation_grid or [])]}

    def check(cmd: Command):
        o = cmd.once("oracle", oracle)
        header, rows = read_csv(cmd.out)
        expect(header == [f"j{j}" for j in range(J)], "rigidity CSV header")
        expect(rows.shape == (len(h_grid), J), f"matrix shape {rows.shape}")
        close(rows, o["M"], 1e-9, "Radon matrix vs quadrature", rel=True)
        rep = read_json(cmd.out + ".report.json")
        sig = np.asarray(rep["singular_values"])
        smax = o["sigma"][0]
        close(sig / smax, o["sigma"] / smax, 1e-10, "singular values vs oracle SVD")
        expect(rep["sigma_min"] == sig[-1] and rep["sigma_max"] == sig[0], "sigma min/max")
        if true_coeffs is not None:
            rec = rep["reconstruction"]
            expect(rec["true_coefficients"] == list(true_coeffs), "seeded coefficients echoed")
            coef = np.asarray(rec["coefficients"])
            data = o["M"] @ np.asarray(true_coeffs)
            # the truncated SVD drops directions below 1e-10 sigma_max (it did
            # on every seed tried), so the coefficients are only determined
            # through the data they reproduce
            close(np.linalg.norm(o["M"] @ coef - data) / np.linalg.norm(data), 0.0, 1e-9,
                  "reconstruction reproduces the data")
        if rotation_grid is not None:
            prof = rep["rotation_profile"]
            got = np.array(prof["rows"])
            close(got[:, 0], rotation_grid, 0.0, "rotation grid levels")
            close(O.wrap(got[:, 1] - np.asarray(o["omega"])), 0.0, 1e-11, "omega(h) vs oracle")
            expect(prof["strictly_monotone"] == bool(np.all(np.diff(o["omega"]) > 0)),
                   "monotonicity verdict")
    return check


# ---------------------------------------------------------------------------
# ellipse-circles
# ---------------------------------------------------------------------------

def ellipse_circles(seed: int) -> Workload:
    rng = rng_for(seed, 1)
    e1, e2 = O.Ellipse(2.0, 1.0), O.Ellipse(1.6, 1.0)
    # three strata of xi0 = i/200 per ellipse, the Hessian (two more fits)
    # on the middle one, and one fit that needs extra refine rounds
    strata = [(60, 92), (94, 126), (128, 160)]
    cmds = []
    for tag, ell in (("e1", e1), ("e2", e2)):
        for i, xi0 in enumerate(ellipse_momenta(ell, rng, strata)):
            hess = i == 1
            cmds.append(Command(f"circle-{tag}-{i}", "circle",
                                {"domain": ellipse_spec(ell), "xi0": xi0, "hess": hess}, "csv",
                                circle_check(ell, xi0, hess), extra_outputs=(".action.json",)))
    cmds.append(Command("circle-e2-refine", "circle",
                        {"domain": ellipse_spec(e2), "xi0": REFINE_HEAVY_XI0, "hess": False}, "csv",
                        circle_check(e2, REFINE_HEAVY_XI0, False), extra_outputs=(".action.json",)))
    xi_pot, xi_quasi = ellipse_momenta(e1, rng, [(64, 96), (104, 136)])
    xi_radon = ellipse_momenta(e2, rng, [(64, 96), (104, 136)])
    m = int(rng.integers(1, 4))

    h_pot = -e1.b ** 2 * xi_pot ** 2

    def check_potential(cmd):
        o = cmd.once("oracle", lambda: (e1.mean_r2_integral(h_pot), e1.mean_chord(h_pot)))
        rec = read_json(cmd.out)
        close(rec["invariant"], o[0], 1e-9, "flow-out integral of x^2+y^2 vs oracle", rel=True)
        close(rec["volume"], o[1], 1e-9, "flow-out volume vs mean chord", rel=True)
        close(rec["c1_slope"], 4.0 / rec["volume"], 1e-15, "c1 slope = 4/volume", rel=True)
        expect(rec["est_error"] < 1e-9 * max(1.0, abs(rec["invariant"])), "flow-out converged")

    cmds.append(Command("potential-e1", "potential",
                        {"domain": ellipse_spec(e1), "xi0": xi_pot,
                         "potential": {"type": "r2"}}, "json", check_potential))

    def check_radon(cmd):
        levels = [-e2.b ** 2 * x ** 2 for x in xi_radon]
        o = cmd.once("oracle", lambda: [(e2.table.omega(h), e2.radon_cos_s(h, m)) for h in levels])
        header, rows = read_csv(cmd.out)
        expect(header == ["h_or_omega", "invariant_value", "quadrature_nodes", "est_error"],
               "radon CSV header")
        expect(len(rows) == len(levels), "one row per xi0")
        for row, (w, val) in zip(rows, o):
            close(O.wrap(row[0] + w), 0.0, 1e-10, "omega vs oracle")
            close(row[1], val, 3e-7, "circle Radon value vs Leray quadrature")

    cmds.append(Command("radon-e2", "radon",
                        {"domain": ellipse_spec(e2), "xi0_values": xi_radon,
                         "kernel": {"type": "cos_s", "m": m}}, "csv", check_radon))

    k0 = int(rng.integers(10, 30))
    k_range = [k0, k0 + 60]
    h_q = -e1.b ** 2 * xi_quasi ** 2

    def check_quasi(cmd):
        def oracle():
            I0 = e1.table.action(h_q)
            w = e1.table.omega(h_q)
            A = e1.mean_chord(h_q)
            return I0, A - TWO_PI * I0 * w, A
        I0, L0, D = cmd.once("oracle", oracle)
        header, rows = read_csv(cmd.out)
        expect(header == ["k", "k_n", "mu0", "c0", "c1", "c2", "mu", "mu_squared"],
               "quasimode CSV header")
        # with d_n = 4 > pi every k is admissible, k_n the integer nearest
        # to mu0 L0 / 2 pi
        k = np.arange(k_range[0], k_range[1] + 1)
        mu0 = k / I0
        k_n = rows[:, 1]
        expect(np.array_equal(rows[:, 0], k), "one row per k in k_range")
        expect(np.all(k_n == np.round(k_n)) and np.all(np.abs(k_n - mu0 * L0 / TWO_PI) <= 0.5 + 1e-6),
               "k_n nearest to mu0 L0 / 2 pi")
        close(rows[:, 2], mu0, 1e-9, "mu0 = k / I0", rel=True)
        close(rows[:, 3], (TWO_PI * k_n - mu0 * L0) / D, 1e-6, "c0 = (2 pi k_n - mu0 L0) / D")
        close(rows[:, 6], rows[:, 2] + rows[:, 3] + rows[:, 4] / rows[:, 2]
              + rows[:, 5] / rows[:, 2] ** 2, 1e-12, "mu series", rel=True)
        close(rows[:, 7], rows[:, 6] ** 2, 1e-12, "mu_squared", rel=True)

    cmds.append(Command("quasimode-e1", "quasimode",
                        {"domain": ellipse_spec(e1), "xi0": xi_quasi,
                         "kernel": {"type": "const"}, "k_range": k_range}, "csv", check_quasi))

    warm = Command("warmup", "circle", {"domain": ellipse_spec(e2), "xi0": 0.7, "hess": False},
                   "csv", circle_check(e2, 0.7, hess=False), extra_outputs=(".action.json",))
    return Workload("ellipse-circles", cmds, warm)


# ---------------------------------------------------------------------------
# liouville-rigidity
# ---------------------------------------------------------------------------

def liouville_rigidity(seed: int) -> Workload:
    rng = rng_for(seed, 2)
    cmds = []
    # the levels scale with c^2, so node counts, and the cost, do not depend
    # on c: the three rigidity commands cost the same on every seed
    N = 1.0
    for i in range(3):
        c = float(np.round(rng.uniform(0.8, 1.25), 6))
        tab = O.LiouvilleTable(c, N)
        spec = {"type": "liouville", "c": c, "N": N}
        n_h, J = 20, 10
        h_grid = {"min": tab.qN * 0.95, "max": tab.qN * 0.05, "count": n_h}
        levels = np.linspace(h_grid["min"], h_grid["max"], n_h)
        coeffs = [float(np.round(v, 6)) for v in rng.standard_normal(J) / (1.0 + np.arange(J)) ** 2]
        cmds.append(Command(f"rigidity-t{i}", "rigidity",
                            {"table": spec, "h_grid": h_grid, "J": J,
                             "recover": {"coefficients": coeffs}},
                            "csv", rigidity_check(tab, levels, J, true_coeffs=coeffs),
                            extra_outputs=(".report.json",)))
        if i < 2:
            cmds.append(radon_levels_command(f"radon-t{i}", tab, spec, rng))
    warm = radon_levels_command("warmup", O.LiouvilleTable(1.0, 1.0),
                                {"type": "liouville", "c": 1.0, "N": 1.0},
                                np.random.default_rng(0), count=1)
    return Workload("liouville-rigidity", cmds, warm)


def radon_levels_command(label, tab: O.LiouvilleTable, spec, rng, count=3) -> Command:
    """radon over h_values: count rotational and count librational levels."""
    rot = sorted(rotational_h(tab, rng.uniform(0.1, 0.9, count)))
    lib = sorted(float(tab.f_max * f) for f in rng.uniform(0.1, 0.9, count))
    h_values = rot + lib
    j = int(rng.integers(0, 4))
    amp = float(np.round(rng.uniform(0.5, 2.0), 6))

    def K(x):
        return amp * math.cos(2.0 * j * x)

    def oracle():
        return [tab.radon_rotational(h, [K])[0] if h < 0 else tab.radon_librational(h, K)
                for h in h_values]

    def check(cmd):
        want = cmd.once("oracle", oracle)
        header, rows = read_csv(cmd.out)
        expect(header == ["h_or_omega", "invariant_value", "quadrature_nodes", "est_error"],
               "radon CSV header")
        close(rows[:, 0], h_values, 0.0, "levels echoed")
        close(rows[:, 1], want, 1e-9, "Radon value vs quadrature", rel=True)
        expect(np.all(rows[:, 2] >= 64), "node counts")

    return Command(label, "radon", {"domain": spec, "h_values": h_values,
                                    "kernel": {"type": "cos_x", "j": j, "amplitude": amp}},
                   "csv", check)


# ---------------------------------------------------------------------------
# sequential-orbits
# ---------------------------------------------------------------------------

def map_check(kind, geom, bounces):
    """Checks of a `map` CSV: points on the curve, chord lengths, momenta as
    the tangential component of the outgoing chord, and the kind's own law."""

    def check(cmd):
        header, rows = read_csv(cmd.out)
        expect(header == ["bounce_index", "s", "xi", "chord_length", "x", "y"], "map CSV header")
        expect(len(rows) == bounces and np.array_equal(rows[:, 0], np.arange(bounces)),
               "one row per bounce")
        s, xi, ell, x, y = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
        t = np.arctan2(y, x)
        if kind == "circle":
            r = geom
            close(np.hypot(x, y), r, 1e-12, "points on the circle")
            close(xi, xi[0], 1e-10, "xi constant on the circle")
            close(ell, 2.0 * r * np.sqrt(1.0 - xi ** 2), 1e-12, "chord = 2r sqrt(1 - xi^2)")
            close(O.wrap(s - r * t, TWO_PI * r), 0.0, 1e-10, "s = r t")
            tx, ty = -np.sin(t), np.cos(t)
        elif kind == "ellipse":
            e = geom
            close((x / e.a) ** 2 + (y / e.b) ** 2, 1.0, 1e-12, "points on the ellipse")
            t = np.arctan2(y / e.b, x / e.a)
            lev = e.level(t, xi)
            close(lev, lev[0], 1e-8, "conserved quantity constant")
            close(O.wrap(s - e.arclength(t), e.perimeter), 0.0, 1e-10, "s = elliptic arclength")
            tx, ty = e.tangent(t)
        else:
            fr = geom
            close(np.hypot(x, y), fr.rho(t), 1e-12, "points on the Fourier curve")
            L = fr.arclength(TWO_PI)
            picks = np.linspace(0, bounces - 1, 12).astype(int)
            want = np.array([fr.arclength(float(v) % TWO_PI) for v in t[picks]])
            close(O.wrap(s[picks] - want, L), 0.0, 1e-10, "s = arclength of rho")
            tx, ty = fr.tangent(t)
        dx, dy = np.diff(x), np.diff(y)
        dist = np.hypot(dx, dy)
        close(dist, ell[:-1], 1e-8, "distance between bounces = chord_length")
        ux, uy = dx / dist, dy / dist
        close(xi[:-1], ux * tx[:-1] + uy * ty[:-1], 1e-8, "xi = tangential part of outgoing chord")
        close(ux[:-1] * tx[1:-1] + uy[:-1] * ty[1:-1], ux[1:] * tx[1:-1] + uy[1:] * ty[1:-1],
              1e-8, "reflection law")
    return check


def sequential_orbits(seed: int) -> Workload:
    rng = rng_for(seed, 3)

    def draw(lo, hi):
        return float(np.round(rng.uniform(lo, hi), 6))

    r = draw(0.8, 1.2)
    ell = O.Ellipse(draw(1.6, 2.4), 1.0)
    cmds = [
        Command("map-circle", "map", {"domain": {"type": "circle", "r": r}, "s0": draw(0.0, 1.0),
                                      "xi0": draw(0.2, 0.8), "bounces": 10000},
                "csv", map_check("circle", r, 10000)),
        Command("map-ellipse", "map", {"domain": ellipse_spec(ell), "s0": draw(0.0, 1.0),
                                       "xi0": draw(0.2, 0.8), "bounces": 20000},
                "csv", map_check("ellipse", ell, 20000)),
    ]
    for i, coeffs in enumerate(([1.0, 0.0, 0.0, 0.05], [1.0, 0.0, 0.0, 0.03, 0.0, 0.0, 0.01])):
        cmds.append(Command(f"map-fourier{i}", "map",
                            {"domain": {"type": "fourier", "coeffs": coeffs},
                             "s0": draw(0.0, 1.0), "xi0": draw(0.4, 0.5), "bounces": 300},
                            "csv", map_check("fourier", O.FourierRadius(coeffs), 300)))
    tab = O.LiouvilleTable(1.0, 1.0)
    h_grid = rotational_h(tab, [0.8, 0.6, 0.4, 0.2])
    rot = []
    for lo in np.linspace(0.1, 0.9, 10, endpoint=False):
        for _ in range(100):
            h = tab.qN * (1.0 - float(np.round(lo + rng.uniform(0.0, 0.08), 6)))
            if not near_resonant(tab.omega(h)):
                break
        else:
            raise RuntimeError(f"no non-resonant level near {lo}")
        rot.append(h)
    cmds.append(Command("rigidity-rotation", "rigidity",
                        {"table": {"type": "liouville", "c": 1.0, "N": 1.0},
                         "h_grid": h_grid, "J": 3, "rotation_grid": rot},
                        "csv", rigidity_check(tab, h_grid, 3, rotation_grid=rot),
                        extra_outputs=(".report.json",)))
    warm = Command("warmup", "map", {"domain": {"type": "fourier", "coeffs": [1.0, 0.0, 0.0, 0.05]},
                                     "xi0": 0.5, "bounces": 20},
                   "csv", map_check("fourier", O.FourierRadius([1.0, 0.0, 0.0, 0.05]), 20))
    return Workload("sequential-orbits", cmds, warm)


# ---------------------------------------------------------------------------
# disk-clusters
# ---------------------------------------------------------------------------

LAMBDA_MAX = 2.0e4
C_CLUSTER, D_CLUSTER, M_TRAP = 1.0, 1.2, 3.0


def disk_clusters(seed: int, workdir: str) -> Workload:
    rng = rng_for(seed, 4)
    ev = O.disk_dirichlet(LAMBDA_MAX)
    alpha = float(np.round(rng.uniform(50.0, 100.0), 6))
    intervals, _ = O.clusters(ev, C_CLUSTER, D_CLUSTER, alpha)
    a_cut = alpha + 1.0
    top = intervals[-1, 1]

    # H2 family: every eigenvalue moved by less than 0.4 of its distance to
    # the ends of its interval, so every member must pass
    idx = np.clip(np.searchsorted(intervals[:, 0], ev, side="right") - 1, 0, None)
    inside = (ev >= intervals[idx, 0]) & (ev <= intervals[idx, 1])
    room = np.where(inside, np.minimum(ev - intervals[idx, 0], intervals[idx, 1] - ev), 0.0)
    h2_files, h2_counts = [], []
    for i in range(3):
        member = ev + 0.4 * room * rng.uniform(-1.0, 1.0, len(ev))
        path = os.path.join(workdir, f"h2_member{i}.txt")
        with open(path, "w") as fh:
            fh.writelines(f"{v:.17g}\n" for v in member)
        h2_files.append(path)
        h2_counts.append(int(np.count_nonzero((member >= a_cut) & (member <= top))))

    trap, expected_records = trap_block(intervals, ev, rng)

    def check_cluster(cmd):
        header, rows = read_csv(cmd.out)
        expect(header == ["k", "a_k", "b_k", "gap_margin", "length"], "cluster CSV header")
        expect(rows.shape[0] == len(intervals), f"{rows.shape[0]} intervals, oracle {len(intervals)}")
        close(rows[:, 1:3], intervals, 1e-12, "interval ends vs jn_zeros spectrum", rel=True)
        a, b = intervals[:, 0], intervals[:, 1]
        margins = a[1:] - b[:-1] - C_CLUSTER * b[:-1] ** (-D_CLUSTER)
        close(rows[:-1, 3], margins, 1e-9, "gap margins")
        close(rows[:, 4], b - a, 1e-9, "lengths")
        rep = read_json(cmd.out + ".report.json")
        h1 = rep["H1"]
        expect(h1["n_intervals"] == len(intervals), "H1 interval count")
        close(h1["min_gap_margin"], margins.min(), 1e-9, "H1 min gap margin")
        expect(h1["soundness"] == {"eigenvalues_covered_once": True, "shrink_width_positive": True},
               "cluster soundness")
        expect(h1["passed"] == bool(margins.min() >= 0.0 and h1["tail_decreasing"]), "H1 verdict")
        h2 = rep["H2"]
        expect(h2["passed"] and h2["first_violation"] is None, "H2 passes for the perturbed family")
        expect([m["n_checked"] for m in h2["per_member"]] == h2_counts, "H2 eigenvalues checked")
        tr = rep["trap"]
        expect(not tr["passed"] and not tr["all_trapped"] and tr["verdict"] == "flagged",
               "trap verdict")
        got = {r["q_index"]: r for r in tr["records"]}
        for qi, want in expected_records.items():
            rec = got.get(qi)
            expect(rec is not None and rec["trapped"] == want["trapped"], f"trap path {qi}")
            if want["trapped"]:
                expect(rec["interval"] == want["interval"] and rec["drift"] == 0.0
                       and rec["bound_ok"], f"trapped path {qi}")
            else:
                expect(rec["jump_at"] == want["jump_at"], f"jump index of path {qi}")

    cmds = [Command("cluster", "cluster",
                    {"spectrum": {"type": "disk-dirichlet", "lambda_max": LAMBDA_MAX},
                     "c": C_CLUSTER, "d": D_CLUSTER, "alpha": alpha, "s": 0,
                     "h2_files": h2_files, "a": a_cut, "trap": trap},
                    "csv", check_cluster, extra_outputs=(".report.json",))]

    theta = float(np.round(rng.uniform(0.6, 1.0), 6))
    k_range = [10, 400]

    def check_disk_quasi(cmd):
        header, rows = read_csv(cmd.out)
        k, k_n = rows[:, 0].astype(int), rows[:, 1].astype(int)
        expect(np.array_equal(k, np.arange(k_range[0], k_range[1] + 1)), "one row per k")
        close(rows[:, 2], k / math.cos(theta), 1e-12, "mu0 = k / cos(theta)", rel=True)
        zeros = cmd.once("oracle", lambda: np.array([O.bessel_zero(int(a), int(b))
                                                     for a, b in zip(k, k_n)]))
        rel = np.abs(rows[:, 6] - zeros) / zeros
        close(rel, 0.0, 2e-2, "mu vs Bessel zero j_{k,k_n}")
        close(np.median(rel), 0.0, 1e-4, "median relative error vs Bessel zeros")
        close(rows[:, 7], rows[:, 6] ** 2, 1e-12, "mu_squared", rel=True)

    cmds.append(Command("quasimode-disk", "quasimode",
                        {"disk_theta": theta, "maslov": [0, 1], "k_range": k_range},
                        "csv", check_disk_quasi, repeat=10))
    cmds.append(homological_command("homological", rng, dim=2, degree=10, repeat=10))
    warm = homological_command("warmup", np.random.default_rng(0), dim=1, degree=4)
    return Workload("disk-clusters", cmds, warm)


def trap_block(intervals, ev, rng):
    """Paths whose trap verdict is known: four constant paths at seeded
    eigenvalues (trapped, zero drift) and one that walks from the middle of
    an interval into the next gap in steps below half the minimal gap."""
    a, b = intervals[:, 0], intervals[:, 1]
    gaps = a[1:] - b[:-1]
    half_gap = 0.5 * gaps.min()
    beta = 0.5 * (max(2.0 * D_CLUSTER, 0.0) + M_TRAP)
    fat = 0.5 * C_CLUSTER * a ** (-beta / 2.0)
    # walk length in steps of 0.8 * half_gap from the middle of interval k
    # to the middle of the gap after it
    need = (0.5 * (b[:-1] - a[:-1]) + 0.5 * gaps) / (0.8 * half_gap)
    ok = np.flatnonzero((0.5 * gaps > 2.0 * fat[:-1]) & (need < 40))
    k = int(ok[0])
    n_t = int(math.ceil(need[k])) + 1
    walk = np.linspace(0.5 * (a[k] + b[k]), 0.5 * (b[k] + a[k + 1]), n_t)
    outside = np.flatnonzero(walk > b[k] + fat[k])
    jump = int(outside[0])
    margin = min(abs(walk - (b[k] + fat[k])).min(), abs(walk - b[k]).min())
    expect(margin > 1e-9 * b[k], "walking path keeps clear of the interval ends")
    idx = np.searchsorted(a, ev, side="right") - 1
    inside = np.flatnonzero((idx >= 0) & (ev <= b[np.clip(idx, 0, None)]) & (ev > a[0]))
    picks = np.sort(rng.choice(inside, 4, replace=False))
    paths = [[float(ev[p])] * n_t for p in picks] + [walk.tolist()]
    mu0 = [math.sqrt(float(ev[p])) for p in picks] + [math.sqrt(float(walk[0]))]
    expected = {i: {"trapped": True, "interval": int(idx[p])} for i, p in enumerate(picks)}
    expected[len(picks)] = {"trapped": False, "jump_at": jump}
    return {"paths": paths, "mu0_list": mu0, "s": 0, "M": M_TRAP}, expected


def homological_command(label, rng, dim, degree, repeat=1) -> Command:
    """Seeded real trig polynomial f on T^dim and a screened frequency."""
    while True:
        omega = [float(np.round(v, 9)) for v in rng.uniform(0.05, 0.95, dim)]
        if dim == 1:
            if not near_resonant(omega[0]):
                break
        else:
            k = np.array([(i, j) for i in range(-degree, degree + 1)
                          for j in range(-degree, degree + 1) if 0 < abs(i) + abs(j) <= degree])
            x = k @ np.array(omega)
            if np.min(np.abs(x - np.round(x))) > 1e-4:
                break
    coeffs = {}
    for key in np.ndindex(*([2 * degree + 1] * dim)):
        kk = tuple(int(v) - degree for v in key)
        norm1 = sum(abs(v) for v in kk)
        if norm1 == 0 or norm1 > degree or kk in coeffs:
            continue
        z = complex(*np.round(rng.standard_normal(2) / (1.0 + norm1) ** 2, 9))
        coeffs[kk] = z
        coeffs[tuple(-v for v in kk)] = z.conjugate()
    entries = [[*kk, z.real, z.imag] for kk, z in sorted(coeffs.items())]
    tau = 1.0

    def check(cmd):
        rec = read_json(cmd.out)
        sol = {tuple(int(v) for v in e[:dim]): complex(e[dim], e[dim + 1]) for e in rec["solution"]}
        expect(set(sol) == set(coeffs), "solution modes = modes of f")
        for kk, f in coeffs.items():
            phase = np.exp(-2j * math.pi * float(np.dot(kk, omega)))
            err = abs(sol[kk] * (phase - 1.0) - f)
            expect(err <= 1e-12 * max(1.0, abs(f)), f"u_k (e^(-2 pi i k.omega) - 1) = f_k at {kk}")
        s = rec["s"]
        norm_f = sum((1.0 + sum(abs(v) for v in kk)) ** s * abs(f) for kk, f in coeffs.items())
        close(rec["norm_f_s"], norm_f, 1e-12, "Wiener norm of f", rel=True)
        expect(rec["roundtrip_error"] <= 1e-12, "round trip")
        norm_u = sum((1.0 + sum(abs(v) for v in kk)) ** (s - tau) * abs(u) for kk, u in sol.items())
        close(rec["norm_u_s_minus_tau"], norm_u, 1e-12, "Wiener norm of u", rel=True)

    return Command(label, "homological",
                   {"omega": omega if dim > 1 else omega[0], "tau": tau,
                    "f": {"coeffs": entries, "dim": dim}}, "json", check, repeat=repeat)


GENERATORS = {
    "ellipse-circles": lambda seed, workdir: ellipse_circles(seed),
    "liouville-rigidity": lambda seed, workdir: liouville_rigidity(seed),
    "sequential-orbits": lambda seed, workdir: sequential_orbits(seed),
    "disk-clusters": disk_clusters,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    wl = GENERATORS[name](seed, workdir)
    for cmd in wl.commands + [wl.warmup]:
        cmd.workdir = workdir
        cmd.write_config()
    return wl
