"""Exact linear algebra over the residue rings Z/mZ.

Provides the Howell form over Z/mZ (the ring generalization of RREF with a
uniqueness guarantee), linear congruence solving, and kernel computation,
exactly on Python integers; the moduli used, 2 and 2N, stay at most 2^25
under the precision cap ``xp_algebra.MAX_PRECISION``.

Matrices have few rows (about one per qubit) but can be wide: the
constraint matrices of ``code_structure`` have one column per Z-support
string, thousands at 21 qubits.  The Howell form of such a matrix is the
dominant cost, so it is factored once: every ``ModMatrix`` caches the
Howell form of ``[A | I]``, and every solve and kernel on the same matrix
object reads that one form.  Callers build a constraint matrix once and
pass the same object to each solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence


class ModulusError(ValueError):
    """Raised when an operation is asked to run at an unsupported modulus."""


class DimensionError(ValueError):
    """Raised when vector/matrix dimensions do not line up."""


@dataclass(frozen=True)
class ModMatrix:
    """Dense integer matrix with entries reduced modulo a fixed modulus.

    Attributes:
        modulus: Ring modulus m >= 2.
        entries: Row tuples; every entry lies in [0, modulus).
    """

    modulus: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ModulusError(f"modulus must be >= 2, got {self.modulus}")
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionError("ragged rows in matrix")
        if any(min(r) < 0 or max(r) >= self.modulus for r in self.entries if r):
            raise ValueError("entry not reduced modulo the modulus")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], modulus: int) -> "ModMatrix":
        """Build a matrix, reducing every entry modulo ``modulus``."""
        return cls(modulus, tuple(tuple([int(v) % modulus for v in r]) for r in rows))

    @classmethod
    def identity(cls, size: int, modulus: int) -> "ModMatrix":
        return cls(modulus, tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    @cached_property
    def _augmented_form(self) -> "ModMatrix":
        """Howell form of [A | I], shared by every solve and kernel of A."""
        n = self.rows
        aug = tuple(r + tuple(1 if i == j else 0 for j in range(n))
                    for i, r in enumerate(self.entries))
        return howell_form(ModMatrix(self.modulus, aug))


def gcdex(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    g, s, _ = gcdex(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return s % m


def unit_for(a: int, m: int) -> int:
    """Return a unit u of Z/mZ with u*a == gcd(a, m) (mod m).

    This is the standard pivot-normalizing step of the Howell reduction.
    """
    a %= m
    if a == 0:
        return 1
    g = gcd(a, m)
    b = a // g
    mg = m // g
    u = modinv(b % mg, mg) if mg > 1 else 1
    # Lift u to a unit of Z/mZ; some lift u + k*mg is always coprime to m.
    while gcd(u, m) != 1:
        u += mg
    return u % m


def _row_scale(row: list[int], k: int, m: int) -> list[int]:
    return [(k * v) % m for v in row]


def _row_addmul(row: list[int], other: list[int], k: int, m: int) -> list[int]:
    return [(a + k * b) % m for a, b in zip(row, other)]


def howell_form(m: ModMatrix) -> ModMatrix:
    """Howell form of a matrix over Z/mZ.

    The output spans the same row module and is the unique canonical
    representative: rows are in echelon order, each pivot entry divides the
    modulus, entries above a pivot are reduced modulo the pivot value, and
    the span is closed in the Howell sense (every module element supported
    on later columns is spanned by later rows).  Zero rows are dropped.
    """
    mod = m.modulus
    ncols = m.cols
    work = [list(r) for r in m.entries if any(r)]
    placed: list[list[int]] = []
    for col in range(ncols):
        cand = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not cand:
            work = rest
            continue
        pivot = cand[0]
        for other in cand[1:]:
            a, b = pivot[col], other[col]
            g, s, t = gcdex(a, b)
            new_pivot = [(s * p + t * o) % mod for p, o in zip(pivot, other)]
            new_other = [((-(b // g)) * p + (a // g) * o) % mod for p, o in zip(pivot, other)]
            pivot, other[:] = new_pivot, new_other
            if any(other):
                rest.append(other)
        u = unit_for(pivot[col], mod)
        pivot = _row_scale(pivot, u, mod)
        g = pivot[col]
        # Annihilator row keeps the span Howell-closed past this pivot.
        ann = _row_scale(pivot, mod // gcd(g, mod), mod)
        if any(ann):
            rest.append(ann)
        placed.append(pivot)
        work = rest
    # Reduce entries above each pivot into [0, pivot).
    for i, row in enumerate(placed):
        col = next(c for c, v in enumerate(row) if v)
        g = row[col]
        for j in range(i):
            q = placed[j][col] // g
            if q:
                placed[j] = _row_addmul(placed[j], row, -q, mod)
    return ModMatrix(mod, tuple(tuple(r) for r in placed if any(r)))


def solve_linear_mod(a: ModMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Solve x^T a = b over Z/mZ for x of length ``a.rows``.

    Returns one solution with all entries reduced, or None when the system
    has no solution.  The solution returned is the canonical greedy
    reduction of ``b`` against the Howell form of the row module, so it is
    deterministic.

    Raises:
        DimensionError: if len(b) != a.cols.
    """
    mod = a.modulus
    if len(b) != a.cols:
        raise DimensionError(f"rhs length {len(b)} != matrix cols {a.cols}")
    residual = [int(v) % mod for v in b]
    x = [0] * a.rows
    if a.rows == 0:
        return tuple(x) if not any(residual) else None
    ncols = a.cols
    for row in a._augmented_form.entries:
        col = next(c for c, v in enumerate(row) if v)
        if col >= ncols:
            break  # kernel rows; nothing left to reduce with
        g = row[col]
        val = residual[col]
        if val == 0:
            continue
        d = gcd(g, mod)
        if val % d:
            return None
        q = (val // d) * modinv(g // d, mod // d) % (mod // d)
        residual = [(r - q * y) % mod for r, y in zip(residual, row[:ncols])]
        for i in range(a.rows):
            x[i] = (x[i] + q * row[ncols + i]) % mod
    if any(residual):
        return None
    return tuple(x)


def kernel_mod(a: ModMatrix) -> ModMatrix:
    """Generators of the left kernel {x : x^T a = 0 (mod m)}.

    Returns a Howell-form matrix whose rows generate the kernel module.
    """
    mod = a.modulus
    if a.rows == 0:
        return ModMatrix.from_rows([], mod)
    ncols = a.cols
    gens = [row[ncols:] for row in a._augmented_form.entries if not any(row[:ncols])]
    if not gens:
        return ModMatrix.from_rows([], mod)
    return howell_form(ModMatrix.from_rows(gens, mod))
