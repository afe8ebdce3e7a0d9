"""Quantization conditions and the quasi-eigenvalue recursion.

Given normal-form data (action I0, rotation datum omega, loop action L0,
its Hessian, Maslov integers, and the first-order invariants p0_{j,alpha}),
the admissible index pairs q = (k, k_n) are those for which some mu0 >= 1
puts mu0*(I0, L0) within d_n of (k + theta0/4, 2*pi*k_n - pi*theta/2);
for each such q the corrections c_{q,j}, b_{q,j} solve a chain of 2x2
linear systems whose determinant is D(I0) = L0 - 2*pi*I0*omega, the mean
chord action.  The expansion is carried to second order, which is what the
supplied Taylor data of L supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk import (MASLOV_THETA, MASLOV_THETA0, disk_grad_L, disk_hess_L, disk_L,
                   disk_third_L)
from .errors import (DegenerateAction, GlancingCircle, MissingJet, NonPositiveD,
                     ParameterOutOfRange)
from .geometry import TWO_PI
from .tori import ActionData


@dataclass
class BirkhoffData:
    """Inputs of the quasi-eigenvalue construction for a single circle.

    birkhoff_p maps (j, alpha) -> p0_{j,alpha} with j + alpha <= M - 1;
    the zeroth invariant carries the boundary-function average,
    p0_{0,0} = -2i * (Radon invariant), under the c = 0 normalization.
    L3 is the optional third derivative of L; without it the order-2
    system drops the (1/6) L'''(I0) b0^3 source term.
    """

    I0: float
    omega: float
    L0: float
    hessL: float
    maslov_theta0: int = 0
    maslov_theta: int = 0
    birkhoff_p: dict[tuple[int, int], complex] = field(default_factory=dict)
    M: int = 2
    L3: float | None = None

    @property
    def D(self) -> float:
        """D(I0) = L0 - 2*pi*I0*omega, the mean chord action."""
        return self.L0 - TWO_PI * self.I0 * self.omega

    def p(self, j: int, alpha: int) -> complex:
        return complex(self.birkhoff_p.get((j, alpha), 0.0))

    @classmethod
    def from_action(cls, ad: ActionData, maslov: tuple[int, int] = (0, 0),
                    radon_value: float | None = None, M: int = 2) -> "BirkhoffData":
        return cls(I0=ad.I0, omega=ad.omega.omega, L0=ad.L0,
                   hessL=ad.hessL if ad.hessL is not None else 0.0,
                   maslov_theta0=maslov[0], maslov_theta=maslov[1],
                   birkhoff_p=_radon_symbol(radon_value), M=M)

    @classmethod
    def disk(cls, theta: float, maslov: tuple[int, int] = (MASLOV_THETA0, MASLOV_THETA),
             radon_value: float | None = None, M: int = 2) -> "BirkhoffData":
        I0 = math.cos(theta)
        if 1.0 - I0 * I0 <= 0.0:
            raise GlancingCircle(f"disk circle at theta={theta!r} is glancing: cos(theta)^2 = 1")
        if I0 < 0.0:
            raise ParameterOutOfRange(f"disk quasimodes need cos(theta) >= 0, the action I0; "
                                      f"theta={theta!r} gives {I0!r}")
        return cls(I0=I0, omega=disk_grad_L(I0) / TWO_PI, L0=disk_L(I0),
                   hessL=disk_hess_L(I0), maslov_theta0=maslov[0],
                   maslov_theta=maslov[1], birkhoff_p=_radon_symbol(radon_value), M=M,
                   L3=disk_third_L(I0))


def _radon_symbol(radon_value: float | None) -> dict[tuple[int, int], complex]:
    """The invariants p0_{j,alpha} a Radon value gives: p0_{0,0} = -2i * R."""
    return {} if radon_value is None else {(0, 0): -2j * radon_value}


@dataclass
class QuasiEigenvalue:
    q: tuple[int, int]
    mu0: float
    c: np.ndarray              # c_0 .. c_M
    b: np.ndarray              # b_0 .. b_{M+1}
    max_imag: float            # largest imaginary part dropped from c, b

    @property
    def M(self) -> int:
        return len(self.c) - 1


@dataclass
class IndexSet:
    items: list[tuple[tuple[int, int], float]]
    growth_constant: float     # empirical min of mu0/|q|

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def find_indices(data: BirkhoffData, d_n: float, k_range) -> IndexSet:
    """Admissible index pairs (k, k_n) with their base frequencies mu0.

    mu0 = (k + theta0/4)/I0 pins the first quantization coordinate; k_n is
    the nearest integer for the second, accepted when the defect is within
    d_n.  Raises DegenerateAction for I0 = 0.
    """
    if d_n < 0.0:
        raise ParameterOutOfRange(f"d_n must be nonnegative, got {d_n}")
    if abs(data.I0) < 1e-14:
        raise DegenerateAction("I0 = 0: the angular quantization condition degenerates")
    if isinstance(k_range, tuple):
        k_range = range(k_range[0], k_range[1] + 1)
    th0, th = data.maslov_theta0, data.maslov_theta
    items = []
    ratios = []
    for k in k_range:
        mu0 = (k + th0 / 4.0) / data.I0
        if mu0 < 1.0:
            continue
        k_n = round((mu0 * data.L0 + 0.5 * math.pi * th) / TWO_PI)
        defect = abs(mu0 * data.L0 - (TWO_PI * k_n - 0.5 * math.pi * th))
        if defect <= d_n:
            items.append(((k, k_n), mu0))
            ratios.append(mu0 / math.hypot(k, k_n))
    growth = min(ratios) if ratios else math.inf
    return IndexSet(items=items, growth_constant=growth)


def solve_recursion(data: BirkhoffData, q: tuple[int, int], mu0: float) -> QuasiEigenvalue:
    """Solve the chain of 2x2 linear systems for (c_j, b_j), j = 0..data.M.

    Order j matches the epsilon^j coefficient of the two quantization
    equations; the right-hand sides V_j collect the Birkhoff invariants
    through the logarithm expansion and the Taylor terms of L at I0.
    """
    M = data.M
    if M > 2:
        raise MissingJet(f"order M={M} needs L-jets beyond the supplied Hessian")
    if M < 0:
        raise ParameterOutOfRange(f"M must be nonnegative, got {M}")
    D = data.D
    if D <= 0.0:
        raise NonPositiveD(f"D(I0) = {D} must be positive")
    k, k_n = q
    th0, th = data.maslov_theta0, data.maslov_theta
    I0, om, L0, hess = data.I0, data.omega, data.L0, data.hessL
    L3 = data.L3 if data.L3 is not None else 0.0

    c = np.zeros(M + 1, dtype=complex)
    b = np.zeros(M + 2, dtype=complex)
    p00 = data.p(0, 0)
    p01 = data.p(0, 1)
    p10 = data.p(1, 0)

    for j in range(M + 1):
        if j == 0:
            W = (k + th0 / 4.0) - mu0 * I0
            V = (TWO_PI * k_n - 0.5 * math.pi * th) - mu0 * L0
        elif j == 1:
            W = -c[0] * b[0]
            V = (-p00 / 1j
                 - c[0] * TWO_PI * om * b[0]
                 - 0.5 * hess * b[0] ** 2)
        else:
            W = -(c[0] * b[1] + c[1] * b[0])
            u2 = p10 + p01 * b[0] - c[0] * p00 - 0.5 * p00 ** 2
            V = (-u2 / 1j
                 - hess * b[0] * b[1]
                 - L3 * b[0] ** 3 / 6.0
                 - c[0] * (TWO_PI * om * b[1] + 0.5 * hess * b[0] ** 2)
                 - c[1] * TWO_PI * om * b[0])
        c[j] = (V - TWO_PI * om * W) / D
        b[j] = W - c[j] * I0

    # closing coefficient b_{M+1} = W_{M+1} / (eps*mu)
    W_top = -sum(c[r] * b[s] for s in range(M + 1) for r in range(M - s, M + 1))
    eps = 1.0 / mu0
    mu_val = mu0 + sum(c[j].real * eps ** j for j in range(M + 1))
    b[M + 1] = W_top / (eps * mu_val)

    max_imag = float(max(np.abs(c.imag).max(), np.abs(b.imag).max()))
    return QuasiEigenvalue(q=q, mu0=mu0, c=c.real.copy(), b=b.real.copy(),
                           max_imag=max_imag)


def evaluate_mu(qe: QuasiEigenvalue) -> tuple[float, float]:
    """Truncated series mu = mu0 + sum_j c_j (mu0)^{-j}; returns (mu, mu^2)."""
    if qe.mu0 < 1.0:
        raise ParameterOutOfRange(f"mu0 must be >= 1, got {qe.mu0}")
    eps = 1.0 / qe.mu0
    mu = qe.mu0 + sum(qe.c[j] * eps ** j for j in range(len(qe.c)))
    return mu, mu * mu
