"""Batch command-line front end.

One command = one module workflow, driven by a JSON config with strict key
checking; outputs are CSV (header row, 17 significant digits) or JSON,
byte-identical for identical configs.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import billiard, disk, geometry, quasi, radon, rigidity, spectra, tori, wiener
from .errors import ConfigError, NumericalError, ValidationError


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_keys(cfg: dict, allowed: set, where: str):
    extra = set(cfg) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _positive(cfg: dict, key: str, default=None):
    val = float(cfg.get(key, default))
    if val <= 0.0:
        raise ConfigError(f"{key} must be positive")
    return val


def _kernel(cfg: dict, curve=None) -> radon.BoundaryFunction:
    _check_keys(cfg, {"type", "value", "m", "j", "amplitude"}, "kernel")
    kind = _require(cfg, "type", "kernel")
    amp = float(cfg.get("amplitude", 1.0))
    if kind == "const":
        return radon.BoundaryFunction.constant(float(cfg.get("value", 1.0)))
    if kind in ("cos_s", "sin_s") and curve is None:
        raise ConfigError(f"kernel {kind!r} is a function of arclength and needs a curve domain")
    if kind == "cos_s":
        m = int(_require(cfg, "m", "kernel"))
        return radon.BoundaryFunction.trig(curve, cos_coeffs=[0.0] * (m - 1) + [amp])
    if kind == "sin_s":
        m = int(_require(cfg, "m", "kernel"))
        return radon.BoundaryFunction.trig(curve, sin_coeffs=[0.0] * (m - 1) + [amp])
    if kind == "cos_x":
        j = int(_require(cfg, "j", "kernel"))
        fn = rigidity.symmetric_basis_function(j)
        if curve is not None:
            return radon.BoundaryFunction.from_x(lambda x: amp * fn.x_func(x), curve)
        return radon.BoundaryFunction(s_func=None, x_func=lambda x: amp * fn.x_func(x))
    raise ConfigError(f"unknown kernel type {kind!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_map(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"domain", "s0", "xi0", "bounces"}, "map config")
    curve = geometry.curve_from_spec(_require(cfg, "domain", "map config"))
    m = int(cfg.get("bounces", 100))
    p = billiard.PhasePoint(float(cfg.get("s0", 0.0)), float(_require(cfg, "xi0", "map config")))
    orb = billiard.orbit(curve, p, m)
    xy = orb.positions()
    smod = orb.s_mod
    rows = [(i, smod[i], orb.xi[i], orb.lengths[i], xy[i, 0], xy[i, 1])
            for i in range(m)]
    if fmt == "json":
        _write_json(out, {"rows": [dict(zip(("bounce_index", "s", "xi", "chord_length", "x", "y"), r)) for r in rows],
                          "total_geodesic_length": orb.total_geodesic_length})
    else:
        _write_csv(out, ["bounce_index", "s", "xi", "chord_length", "x", "y"], rows)
    return 0


def cmd_circle(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"domain", "s0", "xi0", "n_modes", "tau", "k_max", "hess"}, "circle config")
    curve = geometry.curve_from_spec(_require(cfg, "domain", "circle config"))
    seed = billiard.PhasePoint(float(cfg.get("s0", 0.0)), float(_require(cfg, "xi0", "circle config")))
    circ = tori.circle_conjugacy(curve, seed, n_modes=int(cfg.get("n_modes", 64)),
                                 tol_conj=tol or 1e-8)
    ad = tori.action_data(curve, circ, hess=bool(cfg.get("hess", True)))
    witness = tori.diophantine_kappa(circ.omega.omega % 1.0, float(cfg.get("tau", 1.0)),
                                     int(cfg.get("k_max", 50)))
    record = {"action": ad.as_dict(),
              "residual": circ.residual,
              "diophantine": {"kappa_hat": witness.kappa_hat, "tau": witness.tau,
                              "k_max": witness.k_max, "argmin_k": list(witness.argmin_k),
                              "k_n": witness.k_n}}
    if fmt == "json":
        _write_json(out, record)
        return 0
    n = nodes or 256
    phi, s, xi = circ.grid(n)
    ell = billiard.billiard_map_many(curve, s, xi)[2]
    _write_csv(out, ["phi", "s", "xi", "chord_length"], zip(phi, s, xi, ell))
    if out is not None:
        _write_json(str(out) + ".action.json", record)
    return 0


def cmd_radon(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"domain", "kernel", "xi0_values", "h_values", "n_modes"}, "radon config")
    dom = _require(cfg, "domain", "radon config")
    quad_tol = tol or 1e-9
    rows = []
    if "h_values" in cfg:
        table = geometry.table_from_spec(dom)
        K = _kernel(_require(cfg, "kernel", "radon config"))
        for h in cfg["h_values"]:
            pair = radon.liouville_radon(table, K, float(h), tol=quad_tol)
            rows.append((float(h), pair.plus, pair.n_nodes, pair.est_error))
    elif "xi0_values" in cfg:
        curve = geometry.curve_from_spec(dom)
        K = _kernel(_require(cfg, "kernel", "radon config"), curve)
        for xi0 in cfg["xi0_values"]:
            circ = tori.circle_conjugacy(curve, billiard.PhasePoint(0.0, float(xi0)),
                                         n_modes=int(cfg.get("n_modes", 64)))
            val, n, err = radon.torus_invariant(curve, [circ], K, tol=quad_tol,
                                                full_output=True)
            rows.append((circ.omega.omega % 1.0, val, n, err))
    else:
        raise ConfigError("radon config needs h_values (table) or xi0_values (curve)")
    if fmt == "json":
        _write_json(out, {"rows": [dict(zip(("h_or_omega", "invariant_value",
                                             "quadrature_nodes", "est_error"), r)) for r in rows]})
    else:
        _write_csv(out, ["h_or_omega", "invariant_value", "quadrature_nodes", "est_error"], rows)
    return 0


def _potential_function(cfg: dict):
    _check_keys(cfg, {"type", "value", "terms"}, "potential")
    kind = _require(cfg, "type", "potential")
    if kind == "const":
        v = float(cfg.get("value", 1.0))
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), v)
    if kind == "r2":
        return lambda x, y: np.asarray(x) ** 2 + np.asarray(y) ** 2
    if kind == "monomials":
        terms = [(int(i), int(j), float(c)) for i, j, c in _require(cfg, "terms", "potential")]

        def V(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            out = np.zeros_like(x)
            for i, j, c in terms:
                out = out + c * x ** i * y ** j
            return out
        return V
    raise ConfigError(f"unknown potential type {kind!r}")


def cmd_potential(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"domain", "s0", "xi0", "potential", "n_modes"}, "potential config")
    curve = geometry.curve_from_spec(_require(cfg, "domain", "potential config"))
    seed = billiard.PhasePoint(float(cfg.get("s0", 0.0)), float(_require(cfg, "xi0", "potential config")))
    if curve.kind == "circle":
        theta = math.acos(seed.xi)
        circ = disk.disk_circle(curve, theta, s0=seed.s)
    else:
        circ = tori.circle_conjugacy(curve, seed, n_modes=int(cfg.get("n_modes", 64)))
    V = _potential_function(_require(cfg, "potential", "potential config"))
    res = billiard.flowout_integral(curve, circ, V, n_phi=nodes or 256, tol=tol or 1e-9)
    payload = {"invariant": res.value, "volume": res.volume,
               "n_phi": res.n_phi, "est_error": res.est_error,
               "c1_slope": 4.0 / res.volume}
    if fmt == "csv":
        _write_csv(out, ["invariant", "volume", "n_phi", "est_error", "c1_slope"],
                   [(res.value, res.volume, res.n_phi, res.est_error, 4.0 / res.volume)])
    else:
        _write_json(out, payload)
    return 0


def cmd_homological(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"omega", "tau", "kappa", "s", "f"}, "homological config")
    omega = cfg.get("omega")
    if omega is None:
        raise ConfigError("homological config needs omega")
    fcfg = _require(cfg, "f", "homological config")
    _check_keys(fcfg, {"coeffs", "file", "dim"}, "f")
    dim = int(fcfg.get("dim", 1))
    if "file" in fcfg:
        f = wiener.load_coefficients(fcfg["file"], dim=dim)
    else:
        coeffs = {}
        for entry in _require(fcfg, "coeffs", "f"):
            *kk, re, im = entry
            coeffs[tuple(int(v) for v in kk)] = float(re) + 1j * float(im)
        f = wiener.TorusFunction(coeffs, dim=dim)
    tau = float(cfg.get("tau", 1.0))
    s = float(cfg.get("s", max(tau, 2.0)))
    deg = max(f.max_degree(), 1)
    witness = tori.diophantine_kappa(np.atleast_1d(omega), tau, deg)
    kappa = float(cfg.get("kappa", witness.kappa_hat))
    u = wiener.solve_homological(f, omega, kappa=kappa, tau=tau)
    back = wiener.apply_Lomega(u, omega)
    payload = {
        "kappa_hat": witness.kappa_hat,
        "kappa_used": kappa,
        "tau": tau,
        "s": s,
        "norm_f_s": wiener.wiener_norm(f, s),
        "norm_u_s_minus_tau": wiener.wiener_norm(u, s - tau) if s >= tau else None,
        "bound_rhs": wiener.wiener_norm(f, s) / (4.0 * kappa) if kappa > 0 else None,
        "roundtrip_error": back.coefficient_error(f),
        "solution": [[*k, v.real, v.imag] for k, v in sorted(u.coeffs.items())],
    }
    if fmt == "csv":
        rows = [(*k, v.real, v.imag) for k, v in sorted(u.coeffs.items())]
        header = [f"k_{i+1}" for i in range(dim)] + ["re", "im"]
        _write_csv(out, header, rows)
    else:
        _write_json(out, payload)
    return 0


def cmd_quasimode(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"domain", "disk_theta", "s0", "xi0", "kernel", "maslov",
                      "radon_value", "k_range", "d_n", "M", "n_modes"},
                "quasimode config")
    maslov = tuple(int(v) for v in cfg.get("maslov", (0, 0)))
    M = int(cfg.get("M", 2))
    if "disk_theta" in cfg:
        data = quasi.BirkhoffData.disk(float(cfg["disk_theta"]), maslov=maslov,
                                       radon_value=cfg.get("radon_value"), M=M)
    else:
        curve = geometry.curve_from_spec(_require(cfg, "domain", "quasimode config"))
        seed = billiard.PhasePoint(float(cfg.get("s0", 0.0)),
                                   float(_require(cfg, "xi0", "quasimode config")))
        circ = tori.circle_conjugacy(curve, seed, n_modes=int(cfg.get("n_modes", 64)))
        ad = tori.action_data(curve, circ, hess=True)
        R = cfg.get("radon_value")
        if R is None and "kernel" in cfg:
            K = _kernel(cfg["kernel"], curve)
            R = radon.torus_invariant(curve, [circ], K)
        data = quasi.BirkhoffData.from_action(ad, maslov=maslov, radon_value=R, M=M)
    k0, k1 = (int(v) for v in _require(cfg, "k_range", "quasimode config"))
    d_n = float(cfg.get("d_n", 4.0))
    idx = quasi.find_indices(data, d_n, (k0, k1))
    rows = []
    for q, mu0 in idx:
        qe = quasi.solve_recursion(data, q, mu0)
        mu, mu2 = quasi.evaluate_mu(qe)
        c = list(qe.c) + [0.0] * (3 - len(qe.c))
        rows.append((q[0], q[1], mu0, c[0], c[1], c[2], mu, mu2))
    if fmt == "json":
        _write_json(out, {"growth_constant": idx.growth_constant,
                          "rows": [dict(zip(("k", "k_n", "mu0", "c0", "c1", "c2",
                                             "mu", "mu_squared"), r)) for r in rows]})
    else:
        _write_csv(out, ["k", "k_n", "mu0", "c0", "c1", "c2", "mu", "mu_squared"], rows)
    return 0


def _spectrum_from_cfg(cfg: dict) -> spectra.Spectrum:
    _check_keys(cfg, {"type", "lambda_max", "count", "file", "dimension"}, "spectrum")
    dim = int(cfg.get("dimension", 2))
    if "file" in cfg:
        return spectra.Spectrum.from_file(cfg["file"], dimension=dim)
    kind = _require(cfg, "type", "spectrum")
    if kind == "disk-dirichlet":
        lam = float(cfg.get("lambda_max", 3600.0))
        return spectra.Spectrum(disk.dirichlet_spectrum(lam), dimension=dim)
    if kind == "disk-dirichlet-shipped":
        return spectra.Spectrum.from_file(disk.shipped_spectrum_path(), dimension=dim)
    if kind == "squares":
        n = int(cfg.get("count", 60))
        return spectra.Spectrum(np.array([float(j * j) for j in range(1, n + 1)]),
                                dimension=dim)
    raise ConfigError(f"unknown spectrum type {kind!r}")


def cmd_cluster(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"spectrum", "c", "d", "alpha", "s", "h2_files", "a",
                      "trap"}, "cluster config")
    spec = _spectrum_from_cfg(_require(cfg, "spectrum", "cluster config"))
    c = _positive(cfg, "c", 1.0)
    d = float(_require(cfg, "d", "cluster config"))
    alpha = float(_require(cfg, "alpha", "cluster config"))
    setI = spectra.build_clusters(spec, c, d, alpha)
    report = {"H1": spectra.verify_H1(setI, s=int(cfg.get("s", 0)))}
    if "h2_files" in cfg:
        fam = [spectra.Spectrum.from_file(p, dimension=spec.dimension)
               for p in cfg["h2_files"]]
        report["H2"] = spectra.verify_H2(fam, setI, a=float(cfg.get("a", alpha + 1.0)))
    if "trap" in cfg:
        tcfg = cfg["trap"]
        _check_keys(tcfg, {"paths", "mu0_list", "s", "M"}, "trap")
        report["trap"] = spectra.trap_constancy(
            np.asarray(_require(tcfg, "paths", "trap"), dtype=float), setI,
            s=int(tcfg.get("s", 0)), M=float(_require(tcfg, "M", "trap")),
            mu0_list=_require(tcfg, "mu0_list", "trap"))
    if fmt == "json":
        report["intervals"] = [list(r) for r in setI.rows()]
        _write_json(out, report)
    else:
        _write_csv(out, ["k", "a_k", "b_k", "gap_margin", "length"], setI.rows())
        if out is not None:
            _write_json(str(out) + ".report.json", report)
    return 0


def cmd_rigidity(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"table", "h_grid", "J", "reg", "recover", "data",
                      "rotation_grid"}, "rigidity config")
    table = geometry.table_from_spec(_require(cfg, "table", "rigidity config"))

    def grid_of(gcfg, lo_default, hi_default):
        if isinstance(gcfg, list):
            return np.asarray(gcfg, dtype=float)
        _check_keys(gcfg, {"min", "max", "count"}, "grid")
        return np.linspace(float(gcfg.get("min", lo_default)),
                           float(gcfg.get("max", hi_default)),
                           int(gcfg.get("count", 20)))

    h = grid_of(_require(cfg, "h_grid", "rigidity config"),
                table.q_N + 0.05, -0.05)
    J = int(cfg.get("J", len(h)))
    M = rigidity.radon_matrix(table, h, J, tol=tol or 1e-10)
    report = {"sigma_min": M.sigma_min, "sigma_max": M.sigma_max,
              "singular_values": M.singular_values.tolist()}
    reg = float(cfg.get("reg", 1e-10))
    if "recover" in cfg:
        coefficients = np.zeros(J)
        for j, v in enumerate(cfg["recover"].get("coefficients", [])):
            coefficients[j] = float(v)
        data = M.entries @ coefficients
        inv = rigidity.invert_radon(M, data, reg=reg)
        report["reconstruction"] = inv.as_dict()
        report["reconstruction"]["true_coefficients"] = coefficients.tolist()
    elif "data" in cfg:
        inv = rigidity.invert_radon(M, np.asarray(cfg["data"], dtype=float), reg=reg)
        report["reconstruction"] = inv.as_dict()
    if "rotation_grid" in cfg:
        rg = grid_of(cfg["rotation_grid"], table.q_N + 0.01, table.q_N + 0.2)
        prof = rigidity.rotation_profile(table, rg)
        report["rotation_profile"] = {
            "strictly_monotone": prof["strictly_monotone"],
            "rows": [list(r) for r in prof["rows"]]}
    if fmt == "json":
        _write_json(out, report)
    else:
        rows = [tuple(M.entries[i]) for i in range(len(h))]
        _write_csv(out, [f"j{j}" for j in range(J)], rows)
        if out is not None:
            _write_json(str(out) + ".report.json", report)
    return 0


def cmd_validate_liouville(cfg, out, fmt, nodes, tol):
    _check_keys(cfg, {"table", "k_check"}, "validate-liouville config")
    table = geometry.table_from_spec(_require(cfg, "table", "validate-liouville config"))
    rep = geometry.liouville_validate(table, k_check=int(cfg.get("k_check", 4)))
    payload = rep.as_dict()
    if fmt == "csv":
        rows = [(c["name"], int(c["passed"]), c["detail"]) for c in payload["conditions"]]
        _write_csv(out, ["condition", "passed", "detail"], rows)
    else:
        _write_json(out, payload)
    return 0


COMMANDS = {
    "map": cmd_map,
    "circle": cmd_circle,
    "radon": cmd_radon,
    "potential": cmd_potential,
    "homological": cmd_homological,
    "quasimode": cmd_quasimode,
    "cluster": cmd_cluster,
    "rigidity": cmd_rigidity,
    "validate-liouville": cmd_validate_liouville,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectral-billiards",
        description="billiard dynamics, Kronecker circles, and isospectral Radon invariants")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _write_json(None, {"error": type(exc).__name__, "message": str(exc)})
        return 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        return COMMANDS[args.command](cfg, args.out, args.format, args.nodes, args.tol)
    except NumericalError as exc:
        _write_json(None, {"error": type(exc).__name__, "message": str(exc)})
        return 3
    except (ValidationError, ValueError, KeyError, TypeError, OSError) as exc:
        _write_json(None, {"error": type(exc).__name__, "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
