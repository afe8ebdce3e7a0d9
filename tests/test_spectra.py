import bisect
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from spectral_billiards.disk import dirichlet_spectrum
from spectral_billiards.errors import (ConfigError, CutoffOutOfRange, DTooSmall,
                                       EmptySpectrumAboveAlpha, GridTooCoarse,
                                       NoClusters, PathCountMismatch,
                                       TooFewEigenvalues, TooFewIntervals)
from spectral_billiards.quasi import (BirkhoffData, evaluate_mu, find_indices,
                                      solve_recursion)
from spectral_billiards.spectra import (IntervalClusterSet, Spectrum,
                                        _endpoints, build_clusters,
                                        trap_constancy, verify_H1, verify_H2,
                                        weyl_fit)


@pytest.fixture(scope="module")
def squares():
    return Spectrum(np.array([float(j * j) for j in range(1, 61)]), dimension=1)


@pytest.fixture(scope="module")
def disk_spec():
    return Spectrum(dirichlet_spectrum(3600.0), dimension=2)


@pytest.fixture(scope="module")
def disk_clusters(disk_spec):
    return build_clusters(disk_spec, c=1.0, d=1.2, alpha=50.0)


# --- cluster construction -----------------------------------------------------

def test_squares_cluster_hand_derived_endpoints(squares):
    cs = build_clusters(squares, c=1.0, d=1.0, alpha=50.0)
    k = cs.locate(100.0)
    abar, bbar = cs.raw_intervals[k]
    lo = brentq(lambda x: x + 2.0 / x - 100.0, 90.0, 100.0, xtol=1e-13)
    hi = brentq(lambda x: x - 2.0 / x - 100.0, 100.0, 110.0, xtol=1e-13)
    assert abar == pytest.approx(lo, abs=1e-10)
    assert bbar == pytest.approx(hi, abs=1e-10)
    a, b = cs.intervals[k]
    assert a == pytest.approx(lo + 1.5 / lo, abs=1e-10)
    assert b == pytest.approx(hi - 1.5 / hi, abs=1e-10)
    assert abar == pytest.approx(99.98, abs=1e-3)
    assert b == pytest.approx(100.005, abs=1e-3)


def test_cluster_soundness(squares, disk_clusters):
    cs = build_clusters(squares, c=1.0, d=1.0, alpha=50.0)
    assert cs.soundness["eigenvalues_covered_once"]
    assert cs.soundness["shrink_width_positive"]
    assert disk_clusters.soundness["eigenvalues_covered_once"]
    assert disk_clusters.soundness["shrink_width_positive"]


def test_cluster_preconditions(squares):
    with pytest.raises(DTooSmall):
        build_clusters(squares, c=1.0, d=0.4, alpha=50.0)
    with pytest.raises(EmptySpectrumAboveAlpha):
        build_clusters(squares, c=1.0, d=1.0, alpha=1e7)


def test_h1_report_passes(disk_clusters):
    rep = verify_H1(disk_clusters, s=0)
    assert rep["passed"]
    assert rep["min_gap_margin"] >= 0.0
    assert rep["tail_decreasing"]
    assert rep["s_in_guaranteed_range"]


def test_h1_widened_interval_fails(disk_clusters):
    bad_intervals = list(disk_clusters.intervals)
    a5, b5 = bad_intervals[5]
    a6, _ = bad_intervals[6]
    bad_intervals[5] = (a5, a6 - 1e-9)  # swallow the gap
    bad = IntervalClusterSet(intervals=bad_intervals, c=disk_clusters.c,
                             d=disk_clusters.d, alpha=disk_clusters.alpha,
                             dimension=disk_clusters.dimension)
    rep = verify_H1(bad, s=0)
    assert not rep["passed"]
    assert rep["min_gap_margin"] < 0.0


def test_h1_s_out_of_guaranteed_range(disk_clusters):
    rep = verify_H1(disk_clusters, s=2)
    assert not rep["s_in_guaranteed_range"]  # 2 >= 2d - n = 0.4


def test_h1_needs_ten_intervals(squares):
    cs = build_clusters(squares, c=1.0, d=1.0, alpha=3300.0)
    with pytest.raises(TooFewIntervals):
        verify_H1(cs, s=0)


def test_no_surviving_component_raises(squares):
    # alpha = 3500 leaves only 3600, whose component the top cut drops
    with pytest.raises(NoClusters):
        build_clusters(squares, c=1.0, d=1.0, alpha=3500.0)


def test_cluster_endpoints_near_the_minimum_of_the_cutoff_curve():
    # lam + 2 lam^-1.2 falls to its minimum 2.729 at lam = 1.489, then rises
    tail = [float(j * j) for j in range(2, 61)]
    with pytest.raises(CutoffOutOfRange, match="eigenvalue 1.0 is below 2.72938"):
        build_clusters(Spectrum(np.array([1.0] + tail)), c=1.0, d=1.2, alpha=1.0)
    # just above the minimum the usual bracket starts left of it, where the
    # curve is above lam_j; the endpoint is the root on the rising branch
    cs = build_clusters(Spectrum(np.array([2.74] + tail)), c=1.0, d=1.2, alpha=1.5)
    lo = cs.raw_intervals[0, 0]
    assert lo > 1.489
    assert lo + 2.0 * lo ** -1.2 == pytest.approx(2.74, rel=1e-14)


def test_cluster_endpoints_match_closed_form_roots(squares):
    # with c = 1, d = 1 the endpoints solve x^2 - lam x -+ 2 = 0; the squares
    # are far apart, so every raw interval belongs to one eigenvalue
    cs = build_clusters(squares, c=1.0, d=1.0, alpha=50.0)
    lam = squares.eigenvalues[squares.eigenvalues >= 50.0][:len(cs.raw_intervals)]
    lo = 0.5 * (lam + np.sqrt(lam * lam - 8.0))
    hi = 0.5 * (lam + np.sqrt(lam * lam + 8.0))
    np.testing.assert_allclose(cs.raw_intervals, np.column_stack([lo, hi]), rtol=1e-15, atol=0.0)


def test_cluster_endpoints_match_scalar_brent_roots(disk_spec):
    lam = disk_spec.eigenvalues[disk_spec.eigenvalues >= 50.0]
    raw = build_clusters(disk_spec, c=1.0, d=1.2, alpha=50.0).raw_intervals
    for side, col in ((+1, 0), (-1, 1)):
        want = np.array([brentq(lambda x: x + side * 2.0 * x ** -1.2 - lam_j,
                                lam_j - 5.0 * lam_j ** -1.2, lam_j + 5.0 * lam_j ** -1.2,
                                xtol=1e-14, rtol=8.9e-16) for lam_j in lam])
        got = _endpoints(lam, 1.0, 1.2, side)
        assert np.max(np.abs(got - want) / want) <= 1e-15
        # the components of build_clusters start and end at these roots
        assert np.all(np.isin(raw[:, col], got))


# --- locate -----------------------------------------------------------------------

def _locate_loop(intervals, x, fatten):
    """Reference: bisect over the starts, then test interval i and i + 1."""
    starts = [a for a, _ in intervals]
    i = bisect.bisect_right(starts, x + fatten) - 1
    for k in (i, i + 1):
        if 0 <= k < len(intervals):
            a, b = intervals[k]
            if a - fatten <= x <= b + fatten:
                return k
    return -1


@pytest.mark.parametrize("fatten", [0.0, 1e-3])
def test_locate_array_matches_scalar_and_loop(disk_clusters, fatten):
    iv = disk_clusters.intervals
    a, b = iv[:, 0], iv[:, 1]
    gaps = 0.5 * (b[:-1] + a[1:])
    x = np.concatenate([0.5 * (a + b), a, b, gaps, a - 0.5 * fatten, b + 0.5 * fatten,
                        [a[0] - 1.0, b[-1] + 1.0, 0.0, 1e9]])
    found = disk_clusters.locate(x, fatten=fatten)
    assert found.shape == x.shape
    one_at_a_time = [disk_clusters.locate(float(v), fatten=fatten) for v in x]
    assert all(isinstance(k, int) for k in one_at_a_time)
    loop = [_locate_loop(iv.tolist(), float(v), fatten) for v in x]
    assert found.tolist() == one_at_a_time == loop
    assert np.all(found[-4:] == -1)
    assert np.all(found[3 * len(a):3 * len(a) + len(gaps)] == -1)


# --- H2 -------------------------------------------------------------------------

def test_h2_generating_spectrum_covered(disk_spec, disk_clusters):
    rep = verify_H2([disk_spec, disk_spec], disk_clusters, a=51.0)
    assert rep["passed"]


def test_h2_cutoff_below_one_raises(disk_spec, disk_clusters):
    with pytest.raises(CutoffOutOfRange):
        verify_H2([disk_spec], disk_clusters, a=0.5)


def test_h2_gap_eigenvalue_detected(disk_spec, disk_clusters):
    gap_point = 0.5 * (disk_clusters.intervals[7][1] + disk_clusters.intervals[8][0])
    bad = Spectrum(np.append(disk_spec.eigenvalues, gap_point))
    rep = verify_H2([disk_spec, bad], disk_clusters, a=51.0)
    assert not rep["passed"]
    t, lam = rep["first_violation"]
    assert t == 1
    assert lam == pytest.approx(gap_point)


def test_h2_reports_smallest_gap_eigenvalue(disk_spec, disk_clusters):
    iv = disk_clusters.intervals
    gap_lo = 0.5 * (iv[7, 1] + iv[8, 0])
    gap_hi = 0.5 * (iv[20, 1] + iv[21, 0])
    bad = Spectrum(np.append(disk_spec.eigenvalues, [gap_hi, gap_lo]))
    rep = verify_H2([disk_spec, bad], disk_clusters, a=51.0)
    assert rep["first_violation"] == (1, float(gap_lo))
    assert [m["violation"] for m in rep["per_member"]] == [None, float(gap_lo)]


def test_h2_perturbation_within_window_still_covered(disk_spec, disk_clusters):
    ev = disk_spec.eigenvalues.copy()
    lam = ev[300]
    # a perturbation well inside the shrunken interval stays covered
    shifted = lam + 0.25 * disk_clusters.c * lam ** (-disk_clusters.d)
    rep = verify_H2([Spectrum(np.sort(np.append(ev, shifted)))], disk_clusters, a=51.0)
    assert rep["passed"]
    # the full 2c lam^-d window is covered by the raw component set
    big = lam + 1.9 * disk_clusters.c * lam ** (-disk_clusters.d)
    assert any(lo <= big <= hi for lo, hi in disk_clusters.raw_intervals)


# --- Weyl fit ---------------------------------------------------------------------

def test_weyl_exact_power_law():
    spec = Spectrum(np.array([float(j * j) for j in range(1, 200)]), dimension=1)
    fit = weyl_fit(spec)
    assert fit["two_v"] == pytest.approx(1.0, abs=1e-6)
    assert fit["two_sided_ok"]


def test_weyl_disk(disk_spec):
    fit = weyl_fit(disk_spec)
    assert 3.5 <= fit["two_v"] <= 4.5
    assert fit["two_sided_ok"]


def test_weyl_needs_fifty_eigenvalues():
    with pytest.raises(TooFewEigenvalues):
        weyl_fit(Spectrum(np.arange(1.0, 11.0)))


def test_weyl_degenerate_flagged():
    fit = weyl_fit(Spectrum(np.full(120, 7.0)))
    assert fit["degenerate"]


# --- trap and constancy --------------------------------------------------------------

@pytest.fixture(scope="module")
def quasi_family():
    data = BirkhoffData.disk(math.pi / 3.0, maslov=(0, 1), radon_value=0.8)
    idx = find_indices(data, 4.0, (40, 120))
    items = idx.items[::8][:10]
    tgrid = np.linspace(0.0, 1.0, 21)

    def family(drift_c1, amp_c2):
        paths, mu0s = [], []
        for q, mu0 in items:
            qe = solve_recursion(data, q, mu0)
            row = [evaluate_mu(replace(qe, c=np.array([
                       qe.c[0], qe.c[1] + drift_c1 * math.sin(math.pi * t),
                       qe.c[2] + amp_c2 * math.sin(2.0 * math.pi * t)])))[1]
                   for t in tgrid]
            paths.append(row)
            mu0s.append(mu0)
        return np.array(paths), np.array(mu0s)

    base, mu0s = family(0.0, 0.0)
    # reference spectrum: the t=0 values plus fillers so the top interval
    # of interest is not dropped as possibly truncated
    gen = Spectrum(np.sort(np.concatenate([base[:, 0],
                                           [base[:, 0].max() + 500.0,
                                            base[:, 0].max() + 1000.0]])), dimension=2)
    clusters = build_clusters(gen, c=1.0, d=1.2, alpha=float(base[:, 0].min() - 100.0))
    return family, mu0s, clusters


def test_trap_constant_paths(quasi_family):
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.0, 0.0)
    rep = trap_constancy(paths, clusters, s=0, M=3.0, mu0_list=mu0s)
    assert rep["passed"]
    assert rep["verdict"] == "consistent with c(t)=c(0)"


def test_trap_constant_c1_bounded_c2(quasi_family):
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.0, 5e-5)
    rep = trap_constancy(paths, clusters, s=0, M=3.0, mu0_list=mu0s)
    assert rep["passed"]
    assert rep["eps_decreasing"]


def test_trap_drifting_c1_flagged(quasi_family):
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.5, 0.0)
    rep = trap_constancy(paths, clusters, s=0, M=3.0, mu0_list=mu0s)
    assert not rep["passed"]
    assert rep["all_trapped"] is False
    # the drifting c1 moves some path out of its interval: its record says where
    jumps = [r for r in rep["records"] if not r["trapped"]]
    assert jumps and all(0 < r["jump_at"] < 21 for r in jumps)


def test_trap_monotone_in_tolerance(quasi_family):
    # enlarging every interval never converts pass into fail
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.0, 5e-5)
    widened = IntervalClusterSet(
        intervals=[(a - 1e-7, b + 1e-7) for a, b in clusters.intervals],
        c=clusters.c, d=clusters.d, alpha=clusters.alpha,
        dimension=clusters.dimension)
    assert trap_constancy(paths, widened, s=0, M=3.0, mu0_list=mu0s)["passed"]


def test_trap_grid_too_coarse(quasi_family):
    family, mu0s, clusters = quasi_family
    # a two-point "path" hopping between distant intervals cannot certify
    # continuity: its step exceeds half the minimal gap
    lam0 = 0.5 * sum(clusters.intervals[0])
    lam1 = 0.5 * sum(clusters.intervals[3])
    with pytest.raises(GridTooCoarse):
        trap_constancy(np.array([[lam0, lam1]]), clusters, s=0, M=3.0,
                       mu0_list=[math.sqrt(lam0)])


def test_trap_requires_M_above_threshold(quasi_family):
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.0, 0.0)
    with pytest.raises(CutoffOutOfRange):
        trap_constancy(paths, clusters, s=0, M=2.0, mu0_list=mu0s)


def test_trap_requires_one_mu0_per_path(quasi_family):
    family, mu0s, clusters = quasi_family
    paths, _ = family(0.0, 0.0)
    with pytest.raises(PathCountMismatch):
        trap_constancy(paths, clusters, s=0, M=3.0, mu0_list=list(mu0s)[:-1])


# --- spectrum file I/O -----------------------------------------------------------------

def test_spectrum_file_roundtrip(tmp_path, squares):
    path = tmp_path / "spec.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in squares.eigenvalues))
    back = Spectrum.from_file(path, dimension=1)
    assert np.array_equal(back.eigenvalues, squares.eigenvalues)


def test_spectrum_file_parse_equals_per_line_float(tmp_path):
    values = np.random.default_rng(3).uniform(0.0, 2e4, 500)
    path = tmp_path / "spec.txt"
    lines = ["# disk spectrum", ""] + [f"{v:.17g}" for v in values[:250]]
    lines += ["   # indented comment", "  ", "\t"] + [f"  {v:.17g}  " for v in values[250:]] + [""]
    path.write_text("\n".join(lines))
    # reference: the per-line float() parse
    want = [float(line.strip()) for line in lines
            if line.strip() and not line.strip().startswith("#")]
    got = Spectrum.from_file(path).eigenvalues
    assert np.array_equal(got.view(np.int64), np.sort(want).view(np.int64))


def test_spectrum_file_with_two_columns_is_rejected(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ConfigError, match="one eigenvalue per line"):
        Spectrum.from_file(path)


def test_shipped_spectrum_matches_generator(disk_spec):
    from spectral_billiards.disk import shipped_spectrum_path
    shipped = Spectrum.from_file(shipped_spectrum_path())
    assert len(shipped) == len(disk_spec)
    assert np.max(np.abs(shipped.eigenvalues - disk_spec.eigenvalues)) < 1e-10
