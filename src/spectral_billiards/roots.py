"""Safeguarded Newton on bracketed roots, the toolkit's only root finder.

float_newton, one root on plain floats: the Fourier chord (geometry), the
Liouville turning points x_h and caustics y_h (radon) and the EBK angle
(disk).  bracketed_newton, many roots at once on arrays: the disk's Bessel
zeros and the endpoints of the spectral clusters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NewtonDivergence


def float_newton(f_and_slope, x: float, lo: float, hi: float, atol: float, rtol: float,
                 what: str) -> float:
    """Root of f in [lo, hi], f(lo) <= 0 < f(hi), from x clamped into the
    bracket: bracketed_newton's steps for one root on plain floats, with
    f_and_slope(x) = (f, f').  The bracket is inclusive, so an exact root
    stays put; the stop is a step of at most atol + rtol*|x|."""
    x = min(max(x, lo), hi)
    for _ in range(100):
        f, df = f_and_slope(x)
        lo, hi = (x, hi) if f <= 0.0 else (lo, x)
        xn = x - f / df if df else math.nan
        if not lo <= xn <= hi:
            xn = 0.5 * (lo + hi)
        x, dx = xn, xn - x
        if abs(dx) <= atol + rtol * abs(x):
            return x
    raise NewtonDivergence(f"{what} did not settle in 100 steps")


def bracketed_newton(f_and_slope, x, lo, hi, lo_positive, atol: float, rtol: float,
                     what: str) -> np.ndarray:
    """Refine root i of f_i inside [lo[i], hi[i]] from x[i], for all i at once.

    f_and_slope(live, x) returns the values and slopes of the functions
    numbered by the index array live at the points x.  lo_positive[i] is
    the sign of f_i at lo[i] (f_i changes sign in the bracket).  Each step
    moves the end of the bracket on the side of the sign of f_i to the
    current point; a Newton step that leaves the bracket, or meets a zero
    slope, bisects instead.  An entry stops once its Newton step is below
    atol + rtol*x and stays in the bracket.  x, lo and hi are updated in
    place, and x is returned; NewtonDivergence, naming `what`, is raised
    after 100 steps.
    """
    live = np.arange(len(x))
    for _ in range(100):
        xl = x[live]
        f, df = f_and_slope(live, xl)
        on_lo_side = (f > 0.0) == lo_positive[live]
        lo[live[on_lo_side]] = xl[on_lo_side]
        hi[live[~on_lo_side]] = xl[~on_lo_side]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xn = xl - step
        lo_l, hi_l = lo[live], hi[live]
        outside = ~((xn >= lo_l) & (xn <= hi_l))
        xn[outside] = 0.5 * (lo_l + hi_l)[outside]
        x[live] = xn
        live = live[outside | (np.abs(step) > atol + rtol * xl)]
        if not len(live):
            return x
    raise NewtonDivergence(f"{len(live)} {what} did not settle in 100 Newton steps")
