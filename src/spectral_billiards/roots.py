"""Safeguarded Newton on many bracketed roots at once.

Shared by the array root finders of the toolkit: the disk's Bessel zeros
and the endpoints of the spectral clusters.
"""

from __future__ import annotations

import numpy as np

from .errors import NewtonDivergence


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
