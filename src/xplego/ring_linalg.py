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
pass the same object to each solve.  ``reduce_row`` is the one reduction
of a row against a Howell form, here and in the callers' membership tests.
"""

from __future__ import annotations

from bisect import bisect_left
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
    def pivots(self) -> tuple[int, ...]:
        """Leading column of each row; ascending on a Howell form."""
        return tuple(next(c for c, v in enumerate(r) if v) for r in self.entries)

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


def reduce_row(vec: Sequence[int], rows: Sequence[Sequence[int]], pivots: Sequence[int],
               modulus: int) -> list[int]:
    """Greedy reduction of ``vec`` against Howell-form ``rows``: each takes the
    entry at its pivot into [0, pivot), so against a whole Howell form the
    result is zero exactly when ``vec`` lies in the row module."""
    vec = list(vec)
    for col, row in zip(pivots, rows):
        q = vec[col] // row[col]
        if q:
            vec = [(v - q * w) % modulus for v, w in zip(vec, row)]
    return vec


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
    pivots: list[int] = []
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
        pivots.append(col)
        work = rest
    # Reduce entries above each pivot into [0, pivot), against the rows below.
    form = ModMatrix(mod, tuple(tuple(reduce_row(row, placed[i + 1:], pivots[i + 1:], mod))
                                for i, row in enumerate(placed)))
    form.__dict__["pivots"] = tuple(pivots)  # known here: no scan of wide rows
    return form


def solve_linear_mod(a: ModMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Solve x^T a = b over Z/mZ for x of length ``a.rows``.

    Returns one solution with all entries reduced, or None when the system
    has no solution.  The solution returned is the canonical greedy
    reduction of ``(b | 0)`` against the rows of the Howell form of
    ``[A | I]`` that pivot in ``A``, so it is deterministic.

    Raises:
        DimensionError: if len(b) != a.cols.
    """
    mod, ncols = a.modulus, a.cols
    if len(b) != ncols:
        raise DimensionError(f"rhs length {len(b)} != matrix cols {a.cols}")
    form = a._augmented_form
    used = bisect_left(form.pivots, ncols)
    vec = reduce_row([int(v) % mod for v in b] + [0] * a.rows, form.entries[:used],
                     form.pivots[:used], mod)
    if any(vec[:ncols]):
        return None
    return tuple(-v % mod for v in vec[ncols:])


def kernel_mod(a: ModMatrix) -> ModMatrix:
    """Howell form of the left kernel {x : x^T a = 0 (mod m)}: the ``I`` parts
    of the rows of the Howell form of ``[A | I]`` whose ``A`` part is zero."""
    form = a._augmented_form
    return ModMatrix(a.modulus, tuple(row[a.cols:] for row in
                                      form.entries[bisect_left(form.pivots, a.cols):]))
