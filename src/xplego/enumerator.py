"""Weight enumerator polynomials, distances, and coset trace scalars.

Everything here is exact brute force at desk scale.  The two polynomials
are computed by two genuinely different routes: the A side factorizes
Tr[E Pi] per qubit into a fast Pauli transform, while the B side applies a
weight-generating single-qubit channel to the projector and interpolates
Tr[channel(Pi) Pi] at integer points.  Coefficients snap to exact
rationals, and the pair must satisfy the MacWilliams transform before they
are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .dense_oracle import omega_table, operator_action
from .xp_algebra import XpOperator

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_LIST = [PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]]


class NotAProjectorError(ValueError):
    """The enumerator input must be an (unnormalized-rank) projector."""


class SnapError(ValueError):
    """A computed coefficient refused to snap to a small rational."""


@dataclass(frozen=True)
class EnumeratorPoly:
    """Integer-or-rational coefficients indexed by Pauli weight."""

    coefficients: tuple[Fraction, ...]
    dimension: Fraction

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, d: int) -> Fraction:
        return self.coefficients[d]

    def format(self, var: str = "z") -> str:
        """Render like ``1 + 21z^4 + 42z^6``; exact integers stay integers."""
        terms = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if d == 0:
                terms.append(coeff)
            else:
                power = var if d == 1 else f"{var}^{d}"
                terms.append(power if coeff == "1" else f"{coeff}{power}")
        return " + ".join(terms) if terms else "0"


def _snap_fraction(value: float, max_den: int, tol: float = 1e-6) -> Fraction:
    frac = Fraction(value).limit_denominator(max_den)
    if abs(float(frac) - value) > tol:
        raise SnapError(f"value {value!r} does not snap to a rational with denominator <= {max_den}")
    return frac


def _check_projector(mat: np.ndarray, tol: float = 1e-9) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotAProjectorError("input is not square")
    if np.max(np.abs(mat - mat.conj().T)) > tol * max(1.0, np.max(np.abs(mat))):
        raise NotAProjectorError("input is not Hermitian")
    if np.max(np.abs(mat @ mat - mat)) > 1e-7 * max(1.0, np.max(np.abs(mat))):
        raise NotAProjectorError("input is not idempotent")
    n = int(np.log2(mat.shape[0]))
    if 2 ** n != mat.shape[0]:
        raise NotAProjectorError("dimension is not a power of two")
    return n


def pauli_transform(mat: np.ndarray) -> np.ndarray:
    """Tr[E mat] for every n-qubit Pauli string E, as a (4,)*n tensor.

    E is indexed base 4 per qubit in I, X, Y, Z order, qubit 0 first.  One
    butterfly per qubit, so the cost is O(n 4^n).  Every Pauli entry is 0,
    +-1 or +-i, so each output is one rounded sum of two exact terms.
    """
    n = int(np.log2(mat.shape[0]))
    t = mat
    for i in range(n):
        # Row bit i, remaining rows, column bit i, remaining columns with
        # the Pauli axes done so far; the fresh Pauli axis goes last.
        rows = 2 ** (n - 1 - i)
        m = t.reshape(2, rows, 2, rows * 4 ** i)
        t = np.empty((rows, rows * 4 ** i, 4), dtype=complex)
        np.add(m[0, :, 0], m[1, :, 1], out=t[..., 0])
        np.add(m[0, :, 1], m[1, :, 0], out=t[..., 1])
        y = t[..., 2]
        np.subtract(m[0, :, 1], m[1, :, 0], out=y)
        y *= 1j
        np.subtract(m[0, :, 0], m[1, :, 1], out=t[..., 3])
    return t.reshape((4,) * n)


def pauli_weights(n: int) -> np.ndarray:
    """Weight of each base-4 Pauli index, aligned with pauli_transform."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = (w[:, None] + np.array([0, 1, 1, 1])[None, :]).reshape(-1)
    return w


def enumerators(projector: np.ndarray, dimension: int | None = None,
                ) -> tuple[EnumeratorPoly, EnumeratorPoly]:
    """The weight polynomials A(z) and B(z) of a code projector.

    A_d sums Tr[E Pi]^2 over weight-d Pauli strings and is normalized by
    the squared code dimension; B_d sums Tr[E Pi E Pi] normalized by the
    dimension, so both start at one.  The two are computed independently
    and must satisfy the MacWilliams transform exactly.
    """
    n = _check_projector(projector)
    if n > 11:
        raise NotAProjectorError("enumerators are capped at 11 qubits")
    if dimension is None:
        dimension = int(round(float(np.trace(projector).real)))
    if dimension < 1:
        raise NotAProjectorError("projector has vanishing trace")

    traces = pauli_transform(projector).reshape(-1)
    weights = pauli_weights(n)
    a_raw = np.bincount(weights, weights=(traces.real ** 2 + traces.imag ** 2),
                        minlength=n + 1)
    max_den = 4 ** n
    a_poly = EnumeratorPoly(
        tuple(_snap_fraction(v / dimension ** 2, max_den) for v in a_raw),
        Fraction(dimension))

    # Independent route for B: interpolate Tr[channel_z(Pi) Pi], a degree-n
    # polynomial in z with value sum_d B_d z^d, at z = 0..n.
    samples = []
    for z in range(n + 1):
        val = np.trace(apply_channel(projector, np.diag([1, z, z, z])) @ projector).real
        samples.append(val / dimension)
    vander = [[Fraction(z) ** d for d in range(n + 1)] for z in range(n + 1)]
    rhs = [_snap_fraction(s, max_den * 2 ** n, tol=1e-5) for s in samples]
    b_coeffs = _solve_fraction_system(vander, rhs)
    b_poly = EnumeratorPoly(tuple(b_coeffs), Fraction(dimension))

    mac = macwilliams_transform(a_poly, n)
    if mac.coefficients != b_poly.coefficients:
        raise SnapError("A and B violate the MacWilliams transform")
    return a_poly, b_poly


def _solve_fraction_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination over the rationals."""
    size = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def macwilliams_transform(a: EnumeratorPoly, n: int) -> EnumeratorPoly:
    """B(z) = (K / 2^n) (1 + 3z)^n A((1 - z)/(1 + 3z)), exactly."""
    out = [Fraction(0)] * (n + 1)
    one_minus = [Fraction(1), Fraction(-1)]
    one_plus3 = [Fraction(1), Fraction(3)]

    def poly_mul(p, q):
        res = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                res[i + j] += pi * qj
        return res

    def poly_pow(p, k):
        res = [Fraction(1)]
        for _ in range(k):
            res = poly_mul(res, p)
        return res

    for d, coeff in enumerate(a.coefficients):
        if coeff == 0:
            continue
        term = poly_mul(poly_pow(one_minus, d), poly_pow(one_plus3, n - d))
        for i, v in enumerate(term):
            if i <= n:
                out[i] += coeff * v
    scale = a.dimension / 2 ** n
    return EnumeratorPoly(tuple(c * scale for c in out), a.dimension)


def distance(a: EnumeratorPoly, b: EnumeratorPoly) -> int:
    """Least d with B_d - A_d > 0, or n + 1 when no such weight exists."""
    if len(a.coefficients) != len(b.coefficients):
        raise ValueError("mismatched polynomial lengths")
    for d in range(1, len(a.coefficients)):
        if b.coefficients[d] - a.coefficients[d] > 0:
            return d
    return len(a.coefficients)


def biased_distance(projector: np.ndarray, axis: str, tol: float = 1e-9) -> int:
    """Minimum weight of an axis-restricted Pauli logical operator.

    Searches strings over {I, axis}: the string must preserve the code
    space (E Pi E^dag == Pi) while acting nontrivially on it (E Pi != Pi).
    Returns n + 1 when no such operator exists.
    """
    n = _check_projector(projector)
    x_on, z_on = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[axis.upper()]
    scale = max(1.0, float(np.max(np.abs(projector))))
    best = n + 1
    for mask in range(1, 2 ** n):
        weight = bin(mask).count("1")
        if weight >= best:
            continue
        bits = [(mask >> (n - 1 - q)) & 1 for q in range(n)]
        # Y = i XZ, so a Y string carries the phase i^weight.
        string = XpOperator(2, tuple(x_on * b for b in bits), tuple(z_on * b for b in bits),
                            weight * x_on * z_on % 4)
        phases, targets = operator_action(string)
        left = np.empty_like(projector)
        left[targets] = phases[:, None] * projector  # E Pi
        both = left[:, targets] * phases[targets].conj()  # E Pi E^dag
        if np.max(np.abs(both - projector)) > tol * scale:
            continue
        if np.max(np.abs(left - projector)) <= tol * scale:
            continue
        best = weight
    return best


def xp_factors(op) -> list[np.ndarray]:
    """Single-qubit matrix factors of an XP operator, global phase on the first."""
    table = omega_table(op.precision)
    factors = []
    for q in range(op.n):
        mat = np.diag([1.0 + 0j, table[(2 * op.z[q]) % (2 * op.precision)]])
        if op.x[q]:
            mat = PAULI["X"] @ mat
        factors.append(mat)
    if factors:
        factors[0] = factors[0] * table[op.phase]
    else:
        factors = [np.eye(1, dtype=complex) * table[op.phase]]
    return factors


def channel_kernel_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Single-qubit superoperator kernel from the Pauli pairing table.

    kernel[r', c', r, c] = sum_{P P'} k[P, P'] P[r', r] conj(P'[c', c]),
    which reproduces rho -> sum_i K_i rho K_i^dag.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    kernel = np.zeros((2, 2, 2, 2), dtype=complex)
    for a, pa in enumerate(PAULI_LIST):
        for b, pb in enumerate(PAULI_LIST):
            if coeffs[a, b] != 0:
                kernel += coeffs[a, b] * np.einsum("ab,cd->acbd", pa, pb.conj())
    return kernel


def apply_channel(mat: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply the same single-qubit channel to every qubit of mat."""
    n = int(np.log2(mat.shape[0]))
    kernel = channel_kernel_from_coeffs(coeffs)
    t = mat.reshape((2,) * (2 * n))
    for i in range(n):
        t = np.tensordot(t, kernel, axes=([i, n + i], [2, 3]))
        t = np.moveaxis(t, -2, i)
        t = np.moveaxis(t, -1, n + i)
    return t.reshape(mat.shape)


class CosetTrace:
    """The coset trace scalars of one code projector under one channel.

    ``coeffs`` is the 4x4 Pauli pairing table of the single-qubit channel.
    The projector check and the channel-applied projector, one 4^n complex
    array, depend only on the pair, so they are made once here; calling
    the context with the single-qubit factors of a residual error times
    logical representative returns (a_scalar, b_scalar) with

        a = sum_i Tr[K_i Pi Etilde^dag] Tr[K_i^dag Etilde Pi]
        b = sum_i Tr[K_i Pi K_i^dag Pi_s],   Pi_s = Etilde Pi Etilde^dag

    where the index runs over all n-fold tensor products of the Kraus
    operators.  The a side contracts two Pauli transform vectors through
    coeffs one qubit at a time; the b side reads the channel-applied
    projector.
    """

    def __init__(self, coeffs: np.ndarray, projector: np.ndarray):
        self.n = _check_projector(projector)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.projector = projector
        self.channel_projector = apply_channel(projector, self.coeffs)

    def __call__(self, e_tilde_factors: Sequence[np.ndarray]) -> tuple[complex, complex]:
        n = self.n
        if len(e_tilde_factors) != n:
            raise ValueError("factor list length must equal the qubit count")
        e_tilde = reduce(np.kron, [np.asarray(f, dtype=complex) for f in e_tilde_factors])
        e_dag = e_tilde.conj().T

        e_pi = e_tilde @ self.projector
        t1 = pauli_transform(self.projector @ e_dag)
        t2 = pauli_transform(e_pi)
        for i in range(n):
            t2 = np.moveaxis(np.tensordot(t2, self.coeffs, axes=([i], [1])), -1, i)
        a_scalar = complex(np.tensordot(t1, t2, axes=n))

        pi_s = e_pi @ e_dag
        b_scalar = complex(np.trace(self.channel_projector @ pi_s))
        return a_scalar, b_scalar


def coset_scalars(coeffs: np.ndarray, projector: np.ndarray,
                  e_tilde_factors: Sequence[np.ndarray]) -> tuple[complex, complex]:
    """The two trace scalars of ``CosetTrace`` for a single residual error."""
    return CosetTrace(coeffs, projector)(e_tilde_factors)
