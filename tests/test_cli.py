import json
import math

import numpy as np
import pytest

from spectral_billiards import cli
from spectral_billiards.geometry import make_ellipse
from test_tori import ellipse_hess_L

TABLE = {"type": "liouville", "c": 1.0, "N": 1.0}

# one small config per command: (config, format, extra output suffixes)
CONFIGS = {
    "map": ({"domain": {"type": "circle", "r": 1.0}, "xi0": 0.3, "bounces": 40}, "csv", ()),
    "circle": ({"domain": {"type": "ellipse", "a": 2.0, "b": 1.0}, "xi0": 0.6, "hess": False},
               "csv", (".action.json",)),
    "radon": ({"domain": TABLE, "h_values": [-0.5, 0.3],
               "kernel": {"type": "cos_x", "j": 1, "amplitude": 2.0}}, "csv", ()),
    "potential": ({"domain": {"type": "circle", "r": 1.0}, "xi0": 0.4,
                   "potential": {"type": "r2"}}, "json", ()),
    "homological": ({"omega": (math.sqrt(5.0) - 1.0) / 2.0,
                     "f": {"coeffs": [[1, 1.0, 0.0], [-1, 1.0, 0.0]]}}, "json", ()),
    "quasimode": ({"disk_theta": math.pi / 3.0, "k_range": [20, 22]}, "csv", ()),
    "cluster": ({"spectrum": {"type": "squares", "count": 60, "dimension": 1},
                 "d": 1.0, "alpha": 50.0}, "csv", (".report.json",)),
    "rigidity": ({"table": TABLE, "h_grid": {"count": 6}, "J": 4,
                  "recover": {"coefficients": [1.0, 0.5]}}, "csv", (".report.json",)),
    "validate-liouville": ({"table": TABLE}, "json", ()),
}


def run(tmp_path, command, config, fmt="json", tag="out"):
    cfg = tmp_path / f"{tag}.config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{tag}.{fmt}"
    return cli.main([command, "--config", str(cfg), "--out", str(out), "--format", fmt]), out


def error_of(capsys):
    return json.loads(capsys.readouterr().out)["error"]


def test_every_command_is_covered():
    assert set(CONFIGS) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_command_succeeds_and_rerun_is_byte_identical(tmp_path, command):
    config, fmt, extras = CONFIGS[command]
    outputs = []
    for tag in ("first", "second"):
        rc, out = run(tmp_path, command, config, fmt, tag)
        assert rc == 0
        outputs.append([out.read_bytes()] + [(tmp_path / (out.name + sfx)).read_bytes()
                                             for sfx in extras])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_seed_key_is_unknown_and_exits_2(tmp_path, capsys, command):
    config, fmt, _ = CONFIGS[command]
    rc, _ = run(tmp_path, command, {**config, "seed": 1}, fmt)
    assert rc == 2
    assert error_of(capsys) == "ConfigError"


def test_rigidity_truncating_everything_exits_3(tmp_path, capsys):
    config = CONFIGS["rigidity"][0]
    rc, _ = run(tmp_path, "rigidity", {**config, "reg": 2.0})
    assert rc == 3
    assert error_of(capsys) == "RankDeficient"


@pytest.mark.parametrize("theta", [0.0, 1e-300, math.pi])
def test_quasimode_on_glancing_disk_circle_exits_2(tmp_path, capsys, theta):
    rc, _ = run(tmp_path, "quasimode", {**CONFIGS["quasimode"][0], "disk_theta": theta}, "csv")
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "GlancingCircle"
    assert "glancing" in report["message"]


@pytest.mark.parametrize("where", ["spectrum", "h2_files"])
def test_missing_input_file_exits_2(tmp_path, capsys, where):
    missing = str(tmp_path / "missing.txt")
    config = dict(CONFIGS["cluster"][0])
    if where == "spectrum":
        config["spectrum"] = {"file": missing, "dimension": 1}
    else:
        config["h2_files"] = [missing]
    rc, _ = run(tmp_path, "cluster", config)
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "FileNotFoundError"
    assert "missing.txt" in report["message"]


@pytest.mark.parametrize("config", [{"table": TABLE, "h_grid": {"count": 6}, "J": 0},
                                    {"table": TABLE, "h_grid": {"count": 6}, "J": -1},
                                    {"table": TABLE, "h_grid": {"count": 0}}],
                         ids=["J=0", "J=-1", "empty-h-grid"])
def test_rigidity_without_basis_functions_exits_2(tmp_path, capsys, config):
    rc, _ = run(tmp_path, "rigidity", config)
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ValidationError"
    assert "at least one basis function" in report["message"]


@pytest.mark.parametrize("kind", ["cos_s", "sin_s"])
def test_arclength_kernel_on_a_table_exits_2(tmp_path, capsys, kind):
    rc, _ = run(tmp_path, "radon", {**CONFIGS["radon"][0], "kernel": {"type": kind, "m": 2}})
    assert rc == 2
    assert error_of(capsys) == "ConfigError"


def test_cluster_eigenvalue_below_the_cutoff_curve_exits_2(tmp_path, capsys):
    rc, _ = run(tmp_path, "cluster", {"spectrum": {"type": "squares"}, "c": 1.0, "d": 1.2,
                                      "alpha": 1.0})
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "CutoffOutOfRange"
    assert "eigenvalue 1.0" in report["message"]


def test_circle_hess_matches_period_integral_oracle(tmp_path):
    rc, out = run(tmp_path, "circle", {"domain": {"type": "ellipse", "a": 1.6, "b": 1.0},
                                       "xi0": 0.445}, "csv")
    assert rc == 0
    action = json.loads((tmp_path / (out.name + ".action.json")).read_text())["action"]
    assert action["hessL"] == pytest.approx(ellipse_hess_L(1.6, 1.0, 0.445), rel=1e-8)


@pytest.mark.parametrize("alpha, error", [(3300.0, "TooFewIntervals"), (3500.0, "NoClusters")])
def test_cluster_without_enough_intervals_exits_2(tmp_path, capsys, alpha, error):
    rc, _ = run(tmp_path, "cluster", {**CONFIGS["cluster"][0], "alpha": alpha})
    assert rc == 2
    assert error_of(capsys) == error


def test_cos_x_kernel_on_curve_keeps_amplitude():
    curve = make_ellipse(2.0, 1.0)
    K = cli._kernel({"type": "cos_x", "j": 1, "amplitude": 2}, curve)
    x = np.linspace(0.0, 2.0 * math.pi, 17)
    assert np.allclose(K.in_x(x), 2.0 * np.cos(2.0 * x), rtol=0.0, atol=1e-15)
    assert np.allclose(K(curve.arclength_of_param(x)), 2.0 * np.cos(2.0 * x),
                       rtol=0.0, atol=1e-9)


def test_cluster_json_with_h2_and_trap_blocks(tmp_path):
    member = tmp_path / "member.txt"
    member.write_text("".join(f"{j * j + 1e-4}\n" for j in range(1, 61)))
    config = {**CONFIGS["cluster"][0], "h2_files": [str(member)],
              "trap": {"paths": [[100.0, 100.0, 100.0], [100.0, 104.0, 108.0]],
                       "mu0_list": [10.0, 10.0], "M": 3.0}}
    texts = []
    for tag in ("first", "second"):
        rc, out = run(tmp_path, "cluster", config, "json", tag)
        assert rc == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    assert report["H2"]["passed"]
    records = {r["q_index"]: r for r in report["trap"]["records"]}
    assert records[0]["trapped"] and records[0]["bound_ok"] is True
    assert not records[1]["trapped"] and records[1]["jump_at"] == 1
