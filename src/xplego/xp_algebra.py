"""The XP operator group: exact integer arithmetic, no floating point.

An operator is stored as the reduced triple (x|z|p) with x over Z_2, z over
Z_N and the global phase exponent p over Z_2N, where N is the group
precision.  The generating single-qubit matrices are X, the phase gate
P = diag(1, w^2), and the scalar w*I with w = exp(i*pi/N).  At N = 2 the
group is the Pauli group.

The group law is the special row operation

    op(u1) * op(u2) = op(u1 + u2) * antisym(2 * x2 * z1)

with entrywise products taken over the integers on the reduced
representatives before any reduction.  Acting on a computational basis
ket |e> the operator sends it to w^(p + 2 z.e) |e xor x>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class IncompatibleOperatorsError(ValueError):
    """Raised when two operators disagree on qubit count or precision."""


class PrecisionError(ValueError):
    """The operation needs a different precision (in range, even, or a power of two)."""


# Keeps the int64 phase tables (sums of about n terms below 2N) exact.
MAX_PRECISION = 1 << 24


@dataclass(frozen=True)
class XpOperator:
    """A single XP group element in reduced vector form.

    Attributes:
        precision: Group precision 2 <= N <= ``MAX_PRECISION``.
        x: Length-n tuple over {0, 1}.
        z: Length-n tuple over [0, N).
        phase: Scalar exponent in [0, 2N); the operator carries w^phase.
    """

    precision: int
    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: int

    def __post_init__(self) -> None:
        n = self.precision
        if not 2 <= n <= MAX_PRECISION:
            raise PrecisionError(f"precision must be in [2, {MAX_PRECISION}], got {n}")
        if len(self.x) != len(self.z):
            raise IncompatibleOperatorsError("x and z blocks differ in length")
        object.__setattr__(self, "x", tuple(int(v) % 2 for v in self.x))
        object.__setattr__(self, "z", tuple(int(v) % n for v in self.z))
        object.__setattr__(self, "phase", int(self.phase) % (2 * n))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def is_diagonal(self) -> bool:
        return not any(self.x)

    @property
    def is_identity(self) -> bool:
        return not any(self.x) and not any(self.z) and self.phase == 0

    @property
    def x_mask(self) -> int:
        """The x block packed big endian, so qubit 0 is the leading bit."""
        mask = 0
        for bit in self.x:
            mask = (mask << 1) | bit
        return mask

    @classmethod
    def identity(cls, n: int, precision: int) -> "XpOperator":
        return cls(precision, (0,) * n, (0,) * n, 0)

    def __str__(self) -> str:
        xs = " ".join(str(v) for v in self.x)
        zs = " ".join(str(v) for v in self.z)
        return f"XP_{self.precision}({xs}|{zs}|{self.phase})"


def _check_compatible(a: XpOperator, b: XpOperator) -> None:
    if a.n != b.n or a.precision != b.precision:
        raise IncompatibleOperatorsError(
            f"operators act on ({a.n} qubits, N={a.precision}) vs ({b.n} qubits, N={b.precision})"
        )


def antisymmetric(z: Sequence[int], precision: int) -> XpOperator:
    """The diagonal correction operator op(0 | -z | sum(z)).

    The z argument is taken as a vector of plain integers; the column sum is
    computed before reduction, which is what makes the group law exact.
    """
    total = sum(int(v) for v in z)
    return XpOperator(precision, (0,) * len(tuple(z)), tuple(-int(v) for v in z), total)


def _row_mul(a: tuple, b: tuple, precision: int) -> tuple:
    """The group law on reduced (x, z, p) rows; ``multiply`` wraps it."""
    (xa, za, pa), (xb, zb, pb) = a, b
    w = [2 * zi if xi else 0 for xi, zi in zip(xb, za)]
    return (tuple(i ^ j for i, j in zip(xa, xb)),
            tuple((i + j - k) % precision for i, j, k in zip(za, zb, w)),
            (pa + pb + sum(w)) % (2 * precision))


def _row_inv(a: tuple, precision: int) -> tuple:
    """Group inverse of a reduced (x, z, p) row; ``inverse`` wraps it."""
    x, z, p = a
    w = [2 * zi if xi else 0 for xi, zi in zip(x, z)]
    return x, tuple((k - zi) % precision for zi, k in zip(z, w)), (-p - sum(w)) % (2 * precision)


def multiply(a: XpOperator, b: XpOperator) -> XpOperator:
    """Group product a * b via the exact composition rule."""
    _check_compatible(a, b)
    return XpOperator(a.precision, *_row_mul((a.x, a.z, a.phase), (b.x, b.z, b.phase),
                                             a.precision))


def inverse(a: XpOperator) -> XpOperator:
    """Group inverse; both a*inv(a) and inv(a)*a reduce to the identity."""
    return XpOperator(a.precision, *_row_inv((a.x, a.z, a.phase), a.precision))


def power(a: XpOperator, k: int) -> XpOperator:
    """k-fold product; negative k goes through the inverse."""
    if k < 0:
        return power(inverse(a), -k)
    result = XpOperator.identity(a.n, a.precision)
    base = a
    while k:
        if k & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        k >>= 1
    return result


def conjugate(a: XpOperator, b: XpOperator) -> XpOperator:
    """a * b * a^-1 through the closed-form diagonal correction.

    The correction vector is 2*x_a*z_b + 2*x_b*z_a - 4*x_a*x_b*z_a with all
    products entrywise over the integers.
    """
    _check_compatible(a, b)
    corr = [
        2 * xa * zb + 2 * xb * za - 4 * xa * xb * za
        for xa, za, xb, zb in zip(a.x, a.z, b.x, b.z)
    ]
    return multiply(b, antisymmetric(corr, a.precision))


def commutes(a: XpOperator, b: XpOperator) -> bool:
    return multiply(a, b) == multiply(b, a)


def tensor(a: XpOperator, b: XpOperator) -> XpOperator:
    """Tensor product; phases add, blocks concatenate."""
    if a.precision != b.precision:
        raise IncompatibleOperatorsError("tensor requires equal precision")
    return XpOperator(a.precision, a.x + b.x, a.z + b.z, a.phase + b.phase)


def embed(op: XpOperator, n: int, legs: Sequence[int]) -> XpOperator:
    """Embed an operator into n qubits, placing its factors on ``legs``."""
    if len(legs) != op.n:
        raise IncompatibleOperatorsError("leg list does not match operator size")
    x = [0] * n
    z = [0] * n
    for src, dst in enumerate(legs):
        x[dst] = op.x[src]
        z[dst] = op.z[src]
    return XpOperator(op.precision, tuple(x), tuple(z), op.phase)


def restrict(op: XpOperator, legs: Sequence[int]) -> XpOperator:
    """Keep only the factors on ``legs`` (phase travels with the result)."""
    x = tuple(op.x[i] for i in legs)
    z = tuple(op.z[i] for i in legs)
    return XpOperator(op.precision, x, z, op.phase)


def delete_legs(op: XpOperator, legs: Iterable[int]) -> XpOperator:
    """Drop the given qubit positions from the vector representation."""
    drop = set(legs)
    keep = [i for i in range(op.n) if i not in drop]
    return restrict(op, keep)


def from_z_vector(zvec: Sequence[int], precision: int, phase: int = 0) -> XpOperator:
    return XpOperator(precision, (0,) * len(tuple(zvec)), tuple(zvec), phase)
