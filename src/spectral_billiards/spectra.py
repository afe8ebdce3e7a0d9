"""Weak-isospectrality machinery: interval clusters around a spectrum.

From a reference spectrum, build_clusters produces the union of shrinking,
polynomially separated intervals that every weakly isospectral deformation
must respect; trap_constancy then checks that families of quasi-eigenvalue
paths are trapped in single intervals with the decaying drift bound that
forces the leading deformation coefficient to be constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, CutoffOutOfRange, DTooSmall,
                     EmptySpectrumAboveAlpha, GridTooCoarse, NoClusters,
                     PathCountMismatch, TooFewEigenvalues, TooFewIntervals)
from .roots import bracketed_newton


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    dimension: int = 2

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0.0):
            ev = np.sort(ev)
        self.eigenvalues = ev

    def __len__(self):
        return len(self.eigenvalues)

    @classmethod
    def from_file(cls, path, dimension: int = 2) -> "Spectrum":
        """One eigenvalue per line; blank lines and lines starting with #
        are skipped.  A line that does not parse, or a file with more than
        one value per line, raises ConfigError."""
        try:
            vals = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed spectrum file: {exc}") from None
        if vals.shape[1] != 1:
            raise ConfigError(f"{path}: expected one eigenvalue per line, found {vals.shape[1]}")
        return cls(vals[:, 0], dimension=dimension)


@dataclass
class IntervalClusterSet:
    """Disjoint increasing intervals [a_k, b_k] with separation constants.

    ``intervals`` and ``raw_intervals`` are stored as float arrays of shape
    (n, 2), one row [a_k, b_k] per interval in increasing order; any
    sequence of pairs given to the constructor is converted.
    """

    intervals: np.ndarray
    c: float
    d: float
    alpha: float
    dimension: int = 2
    raw_intervals: np.ndarray = field(default_factory=list)
    soundness: dict = field(default_factory=dict)

    def __post_init__(self):
        self.intervals = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        self.raw_intervals = np.asarray(self.raw_intervals, dtype=float).reshape(-1, 2)

    def __len__(self):
        return len(self.intervals)

    def widths(self) -> np.ndarray:
        a, b = self.intervals.T
        return b - a

    def gap_margins(self) -> np.ndarray:
        """a_{k+1} - b_k - c*b_k^{-d} for consecutive pairs."""
        a, b = self.intervals[1:, 0], self.intervals[:-1, 1]
        return a - b - self.c * b ** (-self.d)

    def locate(self, x, fatten: float = 0.0):
        """Index of the interval containing x, each interval widened by
        ``fatten`` on both sides, or -1 where none does.  A scalar x gives
        an int; an array x gives an integer array of its shape.
        """
        a, b = self.intervals.T
        i = np.searchsorted(a, np.add(x, fatten), "right") - 1
        hit = (i >= 0) & (a[i] - fatten <= x) & (x <= b[i] + fatten)
        found = np.where(hit, i, -1)
        return int(found) if found.ndim == 0 else found

    def rows(self) -> list[tuple]:
        a, b = self.intervals.T
        margins = np.append(self.gap_margins(), math.nan)
        return list(zip(range(len(self)), a.tolist(), b.tolist(),
                        margins.tolist(), (b - a).tolist()))


def _endpoints(lam: np.ndarray, c: float, d: float, side: int) -> np.ndarray:
    """Solve x + side*2c*x^-d = lam_j for the component endpoint of every
    eigenvalue lam_j at once.

    Each root is bracketed in [lam_j - 2.5w, lam_j + 2.5w], w = 2c lam_j^-d,
    where g(x) = x + side*2c x^-d - lam_j has g <= 0 at the lower end and
    g > 0 at the upper one.  roots.bracketed_newton refines all roots at
    once from lam_j - side*w, stopping each at a step below
    1e-14 + 8.9e-16 x.
    """
    w = 2.0 * c * lam ** (-d)
    lo, hi = np.maximum(lam - 2.5 * w, 1e-9), lam + 2.5 * w
    if side > 0:
        # lam + 2c lam^-d falls to its minimum at lam_min, then rises; where
        # the bracket starts above lam_j, the endpoint is the root on the
        # rising branch, if there is one
        rising = lo + 2.0 * c * lo ** (-d) - lam > 0.0
        if rising.any():
            lam_min = (2.0 * c * d) ** (1.0 / (d + 1.0))
            floor = lam_min + 2.0 * c * lam_min ** (-d)
            below = lam[rising & (lam < floor)]
            if len(below):
                raise CutoffOutOfRange(f"eigenvalue {float(below[0])} is below {floor:.6g}, the "
                                       "minimum of lam + 2c lam^-d; raise alpha above it")
            lo[rising] = lam_min

    def g_and_slope(live, x):
        t = 2.0 * c * x ** (-d)
        return x + side * t - lam[live], 1.0 - side * d * t / x

    return bracketed_newton(g_and_slope, np.clip(lam - side * w, lo, hi), lo, hi,
                            np.zeros(len(lam), bool), 1e-14, 8.9e-16, "cluster endpoints")


def build_clusters(spec: Spectrum, c: float, d: float, alpha: float) -> IntervalClusterSet:
    """Connected components of {lam >= alpha : dist(lam, Spec) <= 2c lam^-d},
    shrunk by (3/2)c*endpoint^-d on each side.

    The indicator is a union of per-eigenvalue intervals whose endpoints
    solve lam -+ 2c lam^-d = lam_j, all eigenvalues at once by the array
    Newton solver _endpoints; overlapping ones merge into components.
    Components that may be truncated by the top of the supplied spectrum
    are dropped; NoClusters is raised when no interval is left.
    """
    n = spec.dimension
    if d <= 0.5 * n:
        raise DTooSmall(f"need d > n/2 = {0.5 * n}, got {d}")
    ev = spec.eigenvalues
    ev_above = ev[ev >= alpha]
    if len(ev_above) == 0:
        raise EmptySpectrumAboveAlpha(f"no eigenvalues above alpha = {alpha}")

    lo = _endpoints(ev_above, c, d, +1)
    hi = _endpoints(ev_above, c, d, -1)
    # a piece starts a new component when its lo lies above every earlier hi
    reach = np.maximum.accumulate(hi)
    first = np.append(True, lo[1:] > reach[:-1])
    lo, hi = lo[first], reach[np.append(first[1:], True)]
    lam_top = ev.max()
    top_cut = lam_top - 4.0 * c * lam_top ** (-d)
    keep = (lo >= alpha) & (hi < top_cut)
    lo, hi = lo[keep], hi[keep]

    a = lo + 1.5 * c * lo ** (-d)
    b = hi - 1.5 * c * hi ** (-d)
    nonempty = a < b
    if not nonempty.any():
        raise NoClusters(f"no cluster interval survives between alpha = {alpha} "
                         f"and the top of the spectrum ({lam_top})")
    # soundness: eigenvalue coverage and shrink-rule positivity; both raw
    # columns are sorted, so the searchsorted difference counts exactly the
    # raw intervals containing each eigenvalue
    lam = ev_above[ev_above < top_cut]
    hits = np.searchsorted(lo, lam, "right") - np.searchsorted(hi, lam, "left")
    width_ok = b - a >= 0.5 * c * (lo ** (-d) + hi ** (-d)) * (1.0 - 1e-9) - 1e-12 * hi
    return IntervalClusterSet(
        intervals=np.column_stack([a, b])[nonempty], c=c, d=d, alpha=alpha, dimension=n,
        raw_intervals=np.column_stack([lo, hi]),
        soundness={"eigenvalues_covered_once": bool(np.all(hits == 1)),
                   "shrink_width_positive": bool(np.all(width_ok[nonempty]))})


def verify_H1(setI: IntervalClusterSet, s: int = 0) -> dict:
    """Check the separation/shrinking conditions on the stored intervals.

    Reports the minimum gap margin, the maximum length, and the tail trend
    of a_k^(s/2) (b_k - a_k); passes iff margins are nonnegative and the
    tail medians decrease.
    """
    if len(setI) < 10:
        raise TooFewIntervals(f"need at least 10 intervals, got {len(setI)}")
    margins = setI.gap_margins()
    widths = setI.widths()
    seq = setI.intervals[:, 0] ** (s / 2.0) * widths
    third = max(1, len(seq) // 3)
    med = [float(np.median(seq[i * third:(i + 1) * third])) for i in range(3)]
    tail_decreasing = med[0] >= med[1] >= med[2]
    s_in_range = s < 2.0 * setI.d - setI.dimension
    passed = bool(np.all(margins >= 0.0) and tail_decreasing)
    return {
        "n_intervals": len(setI),
        "min_gap_margin": float(margins.min()),
        "max_length": float(widths.max()),
        "decay_sequence_medians": med,
        "tail_decreasing": tail_decreasing,
        "s": s,
        "s_in_guaranteed_range": bool(s_in_range),
        "passed": passed,
        "soundness": setI.soundness,
    }


def verify_H2(spectra: list[Spectrum], setI: IntervalClusterSet, a: float) -> dict:
    """Coverage of every eigenvalue >= a by some interval, per family member.

    Only eigenvalues up to the top of the stored set are checked; beyond it
    the finite cluster list says nothing.
    """
    if a < 1.0:
        raise CutoffOutOfRange(f"the cutoff a must be >= 1, got {a}")
    top = setI.intervals[-1, 1]
    first_violation = None
    per_t = []
    for t, spec in enumerate(spectra):
        ev = spec.eigenvalues
        ev = ev[(ev >= a) & (ev <= top)]
        outside = ev[setI.locate(ev) < 0]
        bad = float(outside[0]) if len(outside) else None
        per_t.append({"t_index": t, "n_checked": int(len(ev)), "violation": bad})
        if bad is not None and first_violation is None:
            first_violation = (t, bad)
    return {"passed": first_violation is None,
            "first_violation": first_violation,
            "per_member": per_t}


def weyl_fit(spec: Spectrum) -> dict:
    """Least-squares growth constant v in lam_j ~ 2v j^(2/n).

    Fitted on the top half of the spectrum; also checks the two-sided
    sandwich v j^(2/n) <= lam_j <= 4v j^(2/n) there.
    """
    ev = spec.eigenvalues
    if len(ev) < 50:
        raise TooFewEigenvalues(f"need at least 50 eigenvalues, got {len(ev)}")
    n = spec.dimension
    j = np.arange(1, len(ev) + 1, dtype=float)
    half = len(ev) // 2
    jj, ll = j[half:], ev[half:]
    degenerate = float(np.ptp(ev)) < 1e-12 * max(1.0, abs(float(ev[-1])))
    if degenerate:
        return {"v": math.nan, "two_v": math.nan, "degenerate": True,
                "two_sided_ok": False, "residual_trend": None}
    basis = jj ** (2.0 / n)
    v = float(np.dot(ll, basis) / (2.0 * np.dot(basis, basis)))
    fitted = 2.0 * v * basis
    rel = (ll - fitted) / fitted
    t3 = max(1, len(rel) // 3)
    trend = [float(np.sqrt(np.mean(rel[:t3] ** 2))),
             float(np.sqrt(np.mean(rel[-t3:] ** 2)))]
    two_sided = bool(np.all(v * basis <= ll) and np.all(ll <= 4.0 * v * basis))
    return {"v": v, "two_v": 2.0 * v, "degenerate": False,
            "two_sided_ok": two_sided, "residual_trend": trend}


def trap_constancy(paths: np.ndarray, setI: IntervalClusterSet, s: int, M: float,
                   mu0_list) -> dict:
    """Trap each path t -> mu_q(t)^2 in one fattened interval and test the
    decaying drift bound that forces the order-(s+1) coefficient constant.

    paths has shape (n_q, n_t); mu0_list gives the base frequencies.  Per
    path: the fattened interval (half-width (c/2) a_k^(-beta/2), beta
    halfway between max(2d, s) and M) must contain every grid value with a
    t-independent index, grid steps must stay under half the minimal gap
    (else GridTooCoarse), and (mu0)^(s+1) |mu(t)-mu(0)| must stay below
    eps_q = C (a^(s/2)(b-a) + c a^((s-beta)/2)) with eps_q decreasing.
    A path that leaves its interval is recorded untrapped, with jump_at the
    first grid index outside it.
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    mu0 = np.asarray(mu0_list, dtype=float)
    if len(mu0) != paths.shape[0]:
        raise PathCountMismatch(f"mu0_list has {len(mu0)} entries for {paths.shape[0]} paths")
    lim = max(2.0 * setI.d, float(s))
    if M <= lim:
        raise CutoffOutOfRange(f"need M > max(2d, s) = {lim}, got M = {M}")
    beta = 0.5 * (lim + M)
    gaps = setI.intervals[1:, 0] - setI.intervals[:-1, 1]
    half_gap = 0.5 * float(gaps.min())

    records = []
    all_trapped = True
    bound_ok = True
    eps_list = []
    order = np.argsort(mu0)
    for qi in order:
        path = paths[qi]
        step = float(np.abs(np.diff(path)).max()) if len(path) > 1 else 0.0
        if step > half_gap:
            raise GridTooCoarse(
                f"path {qi}: grid step {step:.3e} exceeds half the minimal gap {half_gap:.3e}")
        k0 = None
        jump_at = None
        for ti, val in enumerate(path):
            k = setI.locate(float(val))
            if k < 0:
                a_guess = float(setI.intervals[0 if k0 is None else k0, 0])
                fat = 0.5 * setI.c * a_guess ** (-beta / 2.0)
                k = setI.locate(float(val), fatten=fat)
            if k < 0 or (k0 is not None and k != k0):
                jump_at = ti
                break
            k0 = k
        if jump_at is not None:
            records.append({"q_index": int(qi), "mu0": float(mu0[qi]),
                            "trapped": False, "jump_at": int(jump_at)})
            all_trapped = False
            continue
        a_k, b_k = setI.intervals[k0].tolist()
        mu = np.sqrt(path)
        C = float(np.max(mu ** s * 2.0 * mu))
        eps_q = C * (a_k ** (s / 2.0) * (b_k - a_k)
                     + setI.c * a_k ** ((s - beta) / 2.0))
        drift = float(np.max(mu0[qi] ** (s + 1) * np.abs(mu - mu[0])))
        ok = drift <= eps_q
        bound_ok &= ok
        eps_list.append(eps_q)
        records.append({"q_index": int(qi), "mu0": float(mu0[qi]),
                        "trapped": True, "interval": int(k0),
                        "eps_q": eps_q, "drift": drift, "bound_ok": ok})
    eps_decreasing = all(e1 >= e2 for e1, e2 in zip(eps_list, eps_list[1:]))
    passed = all_trapped and bound_ok and eps_decreasing
    return {"passed": passed,
            "all_trapped": all_trapped,
            "bound_ok": bound_ok,
            "eps_decreasing": eps_decreasing,
            "beta": beta,
            "records": records,
            "verdict": "consistent with c(t)=c(0)" if passed else "flagged"}
