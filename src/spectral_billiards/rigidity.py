"""Desk-scale Radon rigidity: discretized transform, inversion, rotation profile.

The forward operator maps symmetric boundary functions (the cos(2jx)
basis, invariant under both reflections) to their Radon profiles over a
grid of rotational levels h; injectivity at matrix scale is witnessed by
the smallest singular value, and reconstruction uses a truncated SVD.  On
rotational levels q(N) < h < 0 the kernel 1/sqrt(f - h) is smooth, so the
transform is Stieltjes-like and exponentially ill-posed: on
elliptic_table(1, 1) with J = 10 and 20 levels from q(N) + 0.05 to -0.05,
the singular values fall about tenfold per index and sigma_min/sigma_max
is 2.7e-11.  The rotation profile omega(h) is the ratio of the two period
integrals of the separated flow (radon.rotation_function), so no orbit is
run and tables without a planar realization are served too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HOutOfRange, RankDeficient, ValidationError
from .geometry import LiouvilleTable
from .radon import BoundaryFunction, liouville_radon, rotation_function


def symmetric_basis_function(j: int) -> BoundaryFunction:
    """cos(2jx), invariant under x -> -x and x -> pi - x."""
    def x_func(x):
        return np.cos(2.0 * j * np.asarray(x, dtype=float))
    return BoundaryFunction(s_func=None, x_func=x_func)


@dataclass
class RadonMatrix:
    h_grid: np.ndarray
    J: int
    entries: np.ndarray                 # shape (len(h_grid), J)
    singular_values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.singular_values is None:
            self.singular_values = np.linalg.svd(self.entries, compute_uv=False)

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])


def radon_matrix(table: LiouvilleTable, h_grid, J: int,
                 tol: float = 1e-10) -> RadonMatrix:
    """Forward matrix R[i][j] = Radon profile of cos(2jx) at h_i."""
    h_grid = np.asarray(h_grid, dtype=float)
    if np.any(np.diff(h_grid) <= 0.0):
        raise ValidationError("h grid must be strictly increasing")
    if not (np.all(h_grid > table.q_N) and np.all(h_grid < 0.0)):
        raise HOutOfRange("all h must be regular rotational values in (q(N), 0)")
    if J < 1:
        raise ValidationError(f"need at least one basis function, got J = {J}")
    if J > len(h_grid):
        raise ValidationError("need at least as many h values as basis functions")
    xs = np.linspace(0.0, 2.0 * math.pi, 129)
    entries = np.empty((len(h_grid), J))
    for j in range(J):
        K = symmetric_basis_function(j)
        sym = max(float(np.abs(K.in_x(xs) - K.in_x(-xs)).max()),
                  float(np.abs(K.in_x(xs) - K.in_x(math.pi - xs)).max()))
        if sym > 1e-12:
            raise ValidationError(f"basis element {j} is not symmetric: defect {sym:.2e}")
        for i, h in enumerate(h_grid):
            entries[i, j] = liouville_radon(table, K, float(h), tol=tol).plus
    return RadonMatrix(h_grid=h_grid, J=J, entries=entries)


@dataclass
class InversionReport:
    coefficients: np.ndarray
    residual: float
    effective_rank: int
    retained_sigmas: np.ndarray

    def as_dict(self) -> dict:
        return {"coefficients": self.coefficients.tolist(),
                "residual": self.residual,
                "effective_rank": self.effective_rank,
                "sigma_spectrum": self.retained_sigmas.tolist()}


def invert_radon(matrix: RadonMatrix, data, reg: float = 1e-10) -> InversionReport:
    """Minimum-norm truncated-SVD solve of R x = data.

    Singular directions below reg * sigma_max are discarded; the report
    carries the retained spectrum and the data-space residual.
    """
    data = np.asarray(data, dtype=float)
    if len(data) != len(matrix.h_grid):
        raise ValidationError("data length must match the h grid")
    U, S, Vt = np.linalg.svd(matrix.entries, full_matrices=False)
    keep = S >= reg * S[0]
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise RankDeficient("no singular value passes the truncation threshold")
    coeff = Vt[keep].T @ ((U[:, keep].T @ data) / S[keep])
    residual = float(np.linalg.norm(matrix.entries @ coeff - data))
    return InversionReport(coefficients=coeff, residual=residual,
                           effective_rank=rank, retained_sigmas=S[keep])


def rotation_profile(table: LiouvilleTable, h_grid) -> dict:
    """Rotation numbers omega(h) over a grid of rotational levels, from the
    period integrals of radon.rotation_function, with a strict-monotonicity
    verdict (the rotation function is strictly increasing near the boundary
    level q(N)).  Rows are (h, omega, quadrature error estimate)."""
    rows = [(float(h), *rotation_function(table, float(h)))
            for h in np.asarray(h_grid, dtype=float)]
    omegas = np.array([r[1] for r in rows])
    return {"rows": rows,
            "strictly_monotone": bool(np.all(np.diff(omegas) > 0.0))}
