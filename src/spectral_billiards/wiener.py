"""Weighted Wiener spaces on the torus and the small-denominator solver.

TorusFunction is a finitely supported Fourier series on T^(n-1); the
weighted norm sum (1+|k|)^s |u_k| makes these spaces Banach algebras, and
the homological equation u(phi - 2*pi*omega) - u(phi) = f(phi) is solved
exactly coefficient by coefficient.  All equalities here are exact on the
finite support; truncation of infinite series is the caller's business.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonZeroMean, ResonantMode
from .tori import diophantine_kappa

Key = tuple[int, ...]


def _as_key(k, dim: int) -> Key:
    if isinstance(k, int):
        key = (k,)
    else:
        key = tuple(int(c) for c in k)
    if len(key) != dim:
        raise ValueError(f"mode {k} has dimension {len(key)}, expected {dim}")
    return key


@dataclass
class TorusFunction:
    """Finitely supported Fourier series sum u_k e^{i<k,phi>} on T^dim."""

    coeffs: dict[Key, complex] = field(default_factory=dict)
    dim: int = 1

    def __post_init__(self):
        clean = {}
        for k, v in self.coeffs.items():
            key = _as_key(k, self.dim)
            if v != 0:
                clean[key] = complex(v)
        self.coeffs = clean

    # constructors -----------------------------------------------------------
    @classmethod
    def harmonic(cls, k, amplitude: complex = 1.0, dim: int | None = None) -> "TorusFunction":
        key = (k,) if isinstance(k, int) else tuple(int(c) for c in k)
        return cls({key: complex(amplitude)}, dim=dim or len(key))

    @classmethod
    def cosine(cls, k: int, amplitude: float = 1.0) -> "TorusFunction":
        a = 0.5 * amplitude
        return cls({(k,): a, (-k,): a}, dim=1)

    @classmethod
    def random_real(cls, rng: np.random.Generator, max_k: int = 12,
                    zero_mean: bool = True, dim: int = 1) -> "TorusFunction":
        """Random real trig polynomial with coefficients ~ N(0,1)/(1+|k|)."""
        coeffs: dict[Key, complex] = {}
        ks = range(-max_k, max_k + 1)
        import itertools
        for k in itertools.product(ks, repeat=dim):
            if all(c == 0 for c in k):
                continue
            if k in coeffs or tuple(-c for c in k) in coeffs:
                continue
            norm1 = sum(abs(c) for c in k)
            z = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + norm1) ** 2
            coeffs[k] = z
            coeffs[tuple(-c for c in k)] = z.conjugate()
        if not zero_mean:
            coeffs[(0,) * dim] = complex(rng.standard_normal())
        return cls(coeffs, dim=dim)

    # algebra ----------------------------------------------------------------
    def __add__(self, other: "TorusFunction") -> "TorusFunction":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return TorusFunction(out, dim=self.dim)

    def __sub__(self, other: "TorusFunction") -> "TorusFunction":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) - v
        return TorusFunction(out, dim=self.dim)

    def __mul__(self, other):
        if isinstance(other, TorusFunction):
            out: dict[Key, complex] = {}
            for k1, v1 in self.coeffs.items():
                for k2, v2 in other.coeffs.items():
                    k = tuple(a + b for a, b in zip(k1, k2))
                    out[k] = out.get(k, 0.0) + v1 * v2
            return TorusFunction(out, dim=self.dim)
        return TorusFunction({k: other * v for k, v in self.coeffs.items()}, dim=self.dim)

    __rmul__ = __mul__

    def scale_modes(self, factor) -> "TorusFunction":
        return TorusFunction({k: v * factor(k) for k, v in self.coeffs.items()}, dim=self.dim)

    # queries ----------------------------------------------------------------
    def mean(self) -> complex:
        return self.coeffs.get((0,) * self.dim, 0.0)

    def max_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(abs(c) for c in k) for k in self.coeffs)

    def is_real(self, tol: float = 1e-12) -> bool:
        for k, v in self.coeffs.items():
            w = self.coeffs.get(tuple(-c for c in k), 0.0)
            if abs(v.conjugate() - w) > tol:
                return False
        return True

    def derivative(self, alpha) -> "TorusFunction":
        alpha = (alpha,) if isinstance(alpha, int) else tuple(alpha)
        out = {}
        for k, v in self.coeffs.items():
            fac = complex(1.0)
            for kj, aj in zip(k, alpha):
                fac *= (1j * kj) ** aj
            out[k] = v * fac
        return TorusFunction(out, dim=self.dim)

    def __call__(self, phi):
        """Evaluate at phi (scalar/array for dim=1, tuple of arrays else)."""
        if self.dim == 1:
            phi = np.asarray(phi, dtype=float)
            out = np.zeros(phi.shape, dtype=complex)
            for (k,), v in self.coeffs.items():
                out += v * np.exp(1j * k * phi)
            return out
        phis = [np.asarray(p, dtype=float) for p in phi]
        out = np.zeros(np.broadcast(*phis).shape, dtype=complex)
        for k, v in self.coeffs.items():
            phase = sum(kj * pj for kj, pj in zip(k, phis))
            out = out + v * np.exp(1j * phase)
        return out

    def coefficient_error(self, other: "TorusFunction") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) for k in keys),
                   default=0.0)


def wiener_norm(u: TorusFunction, s: float) -> float:
    """Weighted Wiener norm sum (1+|k|_1)^s |u_k|; exact finite sum."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return sum((1.0 + sum(abs(c) for c in k)) ** s * abs(v) for k, v in u.coeffs.items())


def _rotation_phase(k: Key, omega) -> complex:
    dot = sum(kj * wj for kj, wj in zip(k, np.atleast_1d(omega)))
    return cmath.exp(-2j * math.pi * dot)


def apply_Lomega(u: TorusFunction, omega) -> TorusFunction:
    """L_omega u(phi) = u(phi - 2*pi*omega) - u(phi), i.e. the mode map
    u_k -> u_k (e^{-2*pi*i<k,omega>} - 1)."""
    out = {k: v * (_rotation_phase(k, omega) - 1.0) for k, v in u.coeffs.items()}
    return TorusFunction(out, dim=u.dim)


def solve_homological(f: TorusFunction, omega, kappa: float | None = None,
                      tau: float = 1.0) -> TorusFunction:
    """Unique zero-mean solution of u(phi - 2*pi*omega) - u(phi) = f(phi).

    Mode k is divided by (e^{-2*pi*i<k,omega>} - 1), the exact inverse of
    apply_Lomega, so the round trip is exact on the finite support.  When
    kappa is supplied it is checked against the witnessed best constant and
    the bound ||u||_{s-tau} <= ||f||_s / (4*kappa) is guaranteed.
    """
    mean = f.mean()
    norm0 = wiener_norm(f, 0.0)
    if abs(mean) > 1e-14 * max(1.0, norm0):
        raise NonZeroMean(f"f has mean {mean}")
    deg = f.max_degree()
    if kappa is not None and deg > 0:
        witness = diophantine_kappa(np.atleast_1d(omega), tau, deg)
        if kappa > witness.kappa_hat * (1.0 + 1e-12):
            raise ValueError(
                f"kappa={kappa} exceeds the witnessed constant {witness.kappa_hat} "
                f"at k_max={deg}; the solution bound would be unsupported")
    out: dict[Key, complex] = {}
    for k, v in f.coeffs.items():
        if all(c == 0 for c in k):
            continue
        denom = _rotation_phase(k, omega) - 1.0
        if abs(denom) < 1e-14:
            raise ResonantMode(k)
        out[k] = v / denom
    return TorusFunction(out, dim=f.dim)


def derivative_sup_bound_check(u: TorusFunction, s: int, grid: int = 4096) -> dict:
    """Grid check of sup |d^alpha u| <= ||u||_s for all |alpha| <= s
    (the computable half of the embedding of the Wiener space into C^s)."""
    if s < 0 or s != int(s):
        raise ValueError("s must be a nonnegative integer")
    norm = wiener_norm(u, s)
    rows = []
    ok = True
    if u.dim == 1:
        phi = 2.0 * math.pi * np.arange(grid) / grid
        for a in range(s + 1):
            sup = float(np.abs(u.derivative(a)(phi)).max()) if u.coeffs else 0.0
            passed = sup <= norm * (1.0 + 1e-12)
            ok &= passed
            rows.append({"alpha": (a,), "sup": sup, "passed": passed})
    else:
        import itertools
        side = max(8, int(round(grid ** (1.0 / u.dim))))
        axes = [2.0 * math.pi * np.arange(side) / side] * u.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        for alpha in itertools.product(range(s + 1), repeat=u.dim):
            if sum(alpha) > s:
                continue
            sup = float(np.abs(u.derivative(alpha)(tuple(mesh))).max()) if u.coeffs else 0.0
            passed = sup <= norm * (1.0 + 1e-12)
            ok &= passed
            rows.append({"alpha": alpha, "sup": sup, "passed": passed})
    return {"norm": norm, "s": s, "rows": rows, "passed": ok}


def save_coefficients(u: TorusFunction, path) -> None:
    """Coefficient file: one line 'k_1 ... k_dim re im' per mode."""
    with open(path, "w") as fh:
        for k in sorted(u.coeffs):
            v = u.coeffs[k]
            ks = " ".join(str(c) for c in k)
            fh.write(f"{ks} {v.real:.17g} {v.imag:.17g}\n")


def load_coefficients(path, dim: int = 1) -> TorusFunction:
    coeffs: dict[Key, complex] = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 2:
                raise ValueError(f"bad coefficient line: {line!r}")
            k = tuple(int(c) for c in parts[:dim])
            coeffs[k] = float(parts[dim]) + 1j * float(parts[dim + 1])
    return TorusFunction(coeffs, dim=dim)
