"""Weight enumerator polynomials, distances, and coset trace scalars.

``enumerators`` and ``biased_distance`` work from the symbolic codeword
table of an XP code in exact integer arithmetic over Z[w], w = exp(i pi/N):
no projector is built and nothing is rounded.  A(z) sums the squared Pauli
traces of the projector per weight, and B(z) follows from the MacWilliams
transform.

``dense_enumerators`` is the independent oracle for any dense projector,
including ones that are not XP codes.  Its A side factorizes Tr[E Pi] per
qubit into a fast Pauli transform, while its B side applies a
weight-generating single-qubit channel to the projector and interpolates
Tr[channel(Pi) Pi] at integer points; both snap floats to rationals and
must satisfy the MacWilliams transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

import numpy as np

from .code_structure import (
    InvariantError,
    SizeLimitError,
    XpGroup,
    _coset_min,
    _phase_steps,
    _span_basis,
    _xor_basis,
    canonical_form,
    codewords,
)
from .dense_oracle import omega_table
from .xp_algebra import XpOperator

# A per-shift table counts as 2^n x 2N entries, which n = 20 at N = 8
# reaches; reduced modulo Phi_2N it holds at most 2^n x N int64 entries,
# 64 MiB at this limit.
SHIFT_TABLE_MAX_ENTRIES = 1 << 24
# Shifts are transformed together in batches of about this many entries.
BATCH_ENTRIES = 1 << 18
# The dense oracle holds 4^n complex numbers.
DENSE_ENUMERATOR_MAX_QUBITS = 11
# CosetTrace's block products equal one dense product bit for bit only when
# BLAS runs them through a kernel that rounds like the dense one, and BLAS
# picks its kernel by the matrix shape.  With numpy 2.4's scipy-openblas
# 0.3.31 on x86_64, 2 x 2 blocks change bits and blocks of 4, 8 and 16
# strings do not; 8 is a margin over 4 that no measurement has shown to be
# needed.  The == tests in tests/test_enumerator.py check any other build.
MIN_COSET_SIZE = 8
# A contraction step of CosetTrace multiplies at most this many spectrum
# entries at a time, so that its two temporary arrays stay at 256 KiB each
# while the 4^n arrays of the final sum are held.
STEP_ENTRIES = 1 << 14

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


class NotRationalError(ValueError):
    """An exact enumerator coefficient is irrational; it is not rounded."""


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


def _pauli_butterfly(v: np.ndarray, shifts: np.ndarray,
                     spare: np.ndarray | None = None) -> np.ndarray:
    """Tr[X^a Z^b M] for the x parts a = shifts[s] and every z part b.

    Row s of v holds v[s, k] = M[k, k ^ a], the only entries of M that
    X^a Z^b meets, and row s of the result holds the traces over b.  The
    result is v after an even number of qubits and ``spare`` (a scratch
    array of v's shape, new when None) after an odd one; both are
    overwritten.  Bit q of k and b belongs to qubit n - 1 - q, as in
    ``XpOperator.x_mask``.  One butterfly per qubit, qubit 0 first: the
    halves of a row that differ in that qubit, lo with a 0 and hi with a 1,
    become lo + hi (I or X) and lo - hi (Z), times 1j for Y where a has
    that qubit.  The new z bit goes last, so after n steps the z bits are
    back in qubit order.  Every Pauli entry is 0, +-1 or +-i, so each
    output is one rounded sum of two exact terms.
    """
    count, size = v.shape
    n = size.bit_length() - 1
    if spare is None:
        spare = np.empty_like(v)
    # Column q: the rows whose x part has qubit q.
    has_x = (shifts[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    for q in range(n):
        m = v.reshape(count, 2, size >> 1)
        out = spare.reshape(count, size >> 1, 2)
        np.add(m[:, 0], m[:, 1], out=out[..., 0])
        diff = out[..., 1]
        np.subtract(m[:, 0], m[:, 1], out=diff)
        np.multiply(diff, 1j, out=diff, where=has_x[:, q, None])
        v, spare = spare, v
    return v


def _pauli_index(strings: np.ndarray) -> np.ndarray:
    """Each bit string with bit i moved to bit 2i: the base-4 digits of its X^a.

    A Pauli string X^a Z^b (I, X, Y, Z = 0, 1, 2, 3 per qubit, qubit 0
    first) has the base-4 index ``_pauli_index(a) ^ 3 * _pauli_index(b)``.
    """
    out = np.zeros_like(strings)
    for i in range(int(strings.max(initial=0)).bit_length()):
        out |= ((strings >> i) & 1) << (2 * i)
    return out


def pauli_transform(mat: np.ndarray) -> np.ndarray:
    """Tr[E mat] for every n-qubit Pauli string E, as a (4,)*n tensor.

    E is indexed base 4 per qubit in I, X, Y, Z order, qubit 0 first.  This
    is ``_pauli_butterfly`` over all 2^n x parts, so the cost is O(n 4^n);
    the rows are read and written one x part at a time, so no index array
    holds more than 2^n entries.
    """
    n = int(np.log2(mat.shape[0]))
    strings = np.arange(1 << n)
    mat = np.asarray(mat, dtype=complex)
    v = np.empty_like(mat)
    for a in strings:
        v[a] = mat[strings, strings ^ a]
    t = _pauli_butterfly(v, strings)
    index = _pauli_index(strings)
    out = np.empty(1 << 2 * n, dtype=complex)
    for a in strings:
        out[index[a] ^ 3 * index] = t[a]
    return out.reshape((4,) * n)


def pauli_weights(n: int) -> np.ndarray:
    """Weight of each base-4 Pauli index, aligned with pauli_transform."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = (w[:, None] + np.array([0, 1, 1, 1])[None, :]).reshape(-1)
    return w


def dense_enumerators(projector: np.ndarray, dimension: int | None = None,
                      ) -> tuple[EnumeratorPoly, EnumeratorPoly]:
    """The weight polynomials A(z) and B(z) of a dense code projector.

    A_d sums Tr[E Pi]^2 over weight-d Pauli strings and is normalized by
    the squared code dimension; B_d sums Tr[E Pi E Pi] normalized by the
    dimension, so both start at one.  The two are computed independently
    from floats snapped to rationals and must satisfy the MacWilliams
    transform exactly.  This is the oracle for ``enumerators`` and the only
    route for projectors that are not XP codes.

    Raises:
        SizeLimitError: above ``DENSE_ENUMERATOR_MAX_QUBITS`` qubits.
    """
    if projector.shape[0] > 2 ** DENSE_ENUMERATOR_MAX_QUBITS:
        raise SizeLimitError(
            f"dense enumerators are capped at {DENSE_ENUMERATOR_MAX_QUBITS} qubits")
    n = _check_projector(projector)
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
    """B(z) = (K / 2^n) (1 + 3z)^n A((1 - z)/(1 + 3z)), exactly.

    The coefficients of A are brought to one denominator, so every product
    runs over the integers and each output is divided once.
    """
    den = lcm(*(c.denominator for c in a.coefficients))
    out = [0] * (n + 1)
    for d, coeff in enumerate(a.coefficients):
        if coeff == 0:
            continue
        num = coeff.numerator * (den // coeff.denominator)
        # (1 - z)^d (1 + 3z)^(n - d), by binomial expansion of both factors.
        minus = [comb(d, j) * (-1) ** j for j in range(d + 1)]
        plus = [comb(n - d, j) * 3 ** j for j in range(n - d + 1)]
        for i, u in enumerate(minus):
            for j, v in enumerate(plus):
                out[i + j] += num * u * v
    scale = a.dimension / (den * 2 ** n)
    return EnumeratorPoly(tuple(c * scale for c in out), a.dimension)


def distance(a: EnumeratorPoly, b: EnumeratorPoly) -> int:
    """Least d with B_d - A_d > 0, or n + 1 when no such weight exists."""
    if len(a.coefficients) != len(b.coefficients):
        raise ValueError("mismatched polynomial lengths")
    for d in range(1, len(a.coefficients)):
        if b.coefficients[d] - a.coefficients[d] > 0:
            return d
    return len(a.coefficients)


# ---------------------------------------------------------------------------
# Exact enumerators from the codeword table


def _divide_monic(num: list[int], den: list[int]) -> list[int]:
    """Quotient of two integer polynomials (low degree first), den monic."""
    num = list(num)
    shift = len(den) - 1
    quot = [0] * (len(num) - shift)
    for i in range(len(num) - 1, shift - 1, -1):
        c = quot[i - shift] = num[i]
        for j, dj in enumerate(den):
            num[i - shift + j] -= c * dj
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_m, low degree first."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_monic(poly, list(_cyclotomic(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(two_n: int) -> np.ndarray:
    """Row j holds x^j mod Phi_2N over 1, x, ..., x^(phi - 1), for j < 2N.

    Phi_2N is the minimal polynomial of w = exp(i pi / N), so two integer
    vectors over the powers of x take the same value at w exactly when their
    reductions agree, and a value is rational exactly when only the
    constant term of its reduction survives.  For a power-of-two N this is
    x^N = -1.
    """
    phi = _cyclotomic(two_n)
    deg = len(phi) - 1
    row = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(two_n):
        rows.append(row)
        top = row[-1]
        row = [0] + row[:-1]
        row = [r - top * c for r, c in zip(row, phi[:deg])]
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def _walsh_hadamard(t: np.ndarray) -> None:
    """In-place integer Walsh-Hadamard transform along axis 1 of (s, 2^n, w)."""
    s, size, w = t.shape
    h = 1
    while h < size:
        v = t.reshape(s, size // (2 * h), 2, h, w)
        lo, hi = v[:, :, 0], v[:, :, 1]
        lo += hi
        hi *= -2
        hi += lo  # lo - hi
        h *= 2


@dataclass(frozen=True)
class _Traces:
    """What ``enumerators`` and ``biased_distance`` read of one code's traces.

    ``lag_sums[d, m]`` sums L_m = sum_i u_i u_(i-m) over weight-d Pauli
    strings E, with u = 2^r Tr[E Pi] over 1, w, ..., w^(phi - 1).  Per axis,
    ``parts`` marks the parts of strings with a nonzero trace (see
    ``biased_distance``), and ``trivial`` the supports c with Tr[E Pi] = K.
    """

    dimension: int
    support_size: int
    lag_sums: np.ndarray
    parts: dict[str, np.ndarray]
    trivial: dict[str, np.ndarray]


@lru_cache(maxsize=1)
def _exact_traces(code: XpGroup) -> _Traces:
    """Exact Pauli traces of a canonical XP code projector, in one pass.

    A codeword is the sum of w^p(k) |k> over an orbit k ^ span(x block) of
    2^r strings, so Pi = 2^-r sum_c |c><c| over the K codewords and

        2^r Tr[X^a Z^b Pi] = sum_{k in support} (-1)^(b.k) w^(p(k) - p(k ^ a)),

    which vanishes unless a lies in the x-block span.  Per shift a, row k
    of a (2^n, phi) int64 table holds the monomial x^((p(k) - p(k ^ a))
    mod 2N) reduced modulo Phi_2N, over 1, x, ..., x^(phi - 1) with x = w.
    The reduction is linear, so one integer Walsh-Hadamard transform over k
    then gives every b at once, as Z[w] coordinates u.  Each batch of shifts
    is transformed once, and only the records of ``_Traces`` are kept.

    Raises:
        SizeLimitError: when one table would exceed
            ``SHIFT_TABLE_MAX_ENTRIES``, before anything is allocated, or
            when a reduction entry is too large for exact int64 sums.
    """
    n, two_n = code.n, 2 * code.precision
    size = 1 << n
    if size * two_n > SHIFT_TABLE_MAX_ENTRIES:
        raise SizeLimitError(
            f"a trace table of {n} qubits at precision {code.precision} exceeds "
            f"the {SHIFT_TABLE_MAX_ENTRIES}-entry limit")
    rows = _reduction_rows(two_n)
    phi = rows.shape[1]
    # Exactness.  Let every entry of rows be at most c in magnitude.  u(b) =
    # t(b) @ rows for the unreduced transform t over 1, x, ..., x^(2N-1),
    # whose entries sum in magnitude to at most |support| <= 2^n <= 2^22; so
    # every butterfly value is at most c 2^22, and |L_m| <= |u|^2.  Per
    # shift, by Parseval, sum_b |t(b)|^2 = 2^n |support|, so sum_b |L_m(b)|
    # <= |rows|_F^2 2^n |support| <= (2^n 2N) (2^n phi) c^2 <= 2^47 c^2; a
    # batch of several shifts holds at most 2^18 entries and stays below
    # 2^42 c^2.  So the int64 sums per lag and weight are exact for c < 2^8.
    # c is 1 for a power-of-two N and at most 4 for 2N < 1400.  Batches add
    # as Python ints, which do not overflow.
    if np.abs(rows).max() >= 1 << 8:
        raise SizeLimitError(
            f"precision {code.precision} is too large for exact int64 trace sums")

    table = codewords(code)
    support = table.strings
    # The x-block span: codeword 0 moved by its representative, its least string.
    shifts = support[table.owner == 0] ^ table.orbits.e_m[0]

    want = support.size * rows[0]  # K 2^r
    lag_sums = np.zeros((n + 1, phi), dtype=object)
    parts = {axis: np.zeros(size, dtype=bool) for axis in "XYZ"}
    trivial = {axis: np.zeros(size, dtype=bool) for axis in "XYZ"}
    step = max(1, BATCH_ENTRIES // (size * phi))
    for start in range(0, shifts.size, step):
        a = shifts[start:start + step]
        expo = -_phase_steps(support, table.phases, a) % two_n
        u = np.zeros((a.size, size, phi), dtype=np.int64)
        u[:, support] = rows[expo]
        _walsh_hadamard(u)

        # |u|^2 = u(x) u(1/x) has L_m at x^m and x^-m: lags 0..phi-1 suffice.
        weights = np.bitwise_count(a[:, None] | np.arange(size)).ravel().astype(np.intp)
        batch_sums = np.zeros((phi, n + 1), dtype=np.int64)
        for m in range(phi):
            norm = np.einsum("sbj,sbj->sb", u[..., m:], u[..., :phi - m])
            np.add.at(batch_sums[m], weights, norm.ravel())
        lag_sums += batch_sums.T.astype(object)

        nonzero = u.any(axis=-1)
        parts["X"] |= nonzero.any(axis=0)
        parts["Z"][a] = nonzero.any(axis=1)
        s, b = np.nonzero(nonzero)
        parts["Y"][a[s] ^ b] = True
        own = np.arange(a.size)
        trivial["X"][a] = (u[own, 0] == want).all(axis=-1)
        # Y^c = i^|c| X^c Z^c with i^|c| = w^(N |c| / 2), so Y^c acts
        # trivially when 2^r Tr[X^c Z^c Pi] = K 2^r w^(-N |c| / 2).  For odd
        # N |c|, i^|c| lies outside Z[w] and Tr[Y^c Pi] cannot be K.
        turns = np.bitwise_count(a).astype(np.int64) * code.precision
        want_y = support.size * rows[-(turns // 2) % two_n]
        trivial["Y"][a] = (turns % 2 == 0) & (u[own, a] == want_y).all(axis=-1)
        if start == 0:  # shifts[0] is 0: the diagonal strings Z^b
            trivial["Z"] = (u[0] == want).all(axis=-1)
    for cached in (lag_sums, *parts.values(), *trivial.values()):
        cached.setflags(write=False)
    return _Traces(len(table.orbits.e_m), support.size, lag_sums, parts, trivial)


def enumerators(code: XpGroup) -> tuple[EnumeratorPoly, EnumeratorPoly]:
    """The weight polynomials A(z) and B(z) of an XP code, exactly.

    A_d = sum |Tr[E Pi]|^2 / K^2 over weight-d Pauli strings E, from the lag
    sums of ``_exact_traces``; B = ``macwilliams_transform(A)``.

    Raises:
        SizeLimitError: above the shift-table limit, before any allocation.
        NotRationalError: when a coefficient is irrational.
        InvariantError: when A_0 != 1, sum A_d != 2^n / K, or not
            0 <= A_d <= B_d for every d.
    """
    traces = _exact_traces(canonical_form(code))
    n = code.n
    rows = _reduction_rows(2 * code.precision)
    # L_m multiplies x^m + x^(2N - m) for m >= 1 and 1 for m = 0.
    lags = np.arange(1, rows.shape[1])
    lag_rows = np.vstack([rows[:1], rows[lags] + rows[-lags]]).astype(object)
    scale = traces.support_size ** 2  # (K 2^r)^2
    coeffs = []
    for d, value in enumerate((traces.lag_sums @ lag_rows).tolist()):
        if any(value[1:]):
            raise NotRationalError(f"A_{d} is not rational: {value} over powers of w")
        coeffs.append(Fraction(value[0], scale))

    dimension = Fraction(traces.dimension)
    a_poly = EnumeratorPoly(tuple(coeffs), dimension)
    b_poly = macwilliams_transform(a_poly, n)
    if coeffs[0] != 1:
        raise InvariantError(f"A_0 = {coeffs[0]}, not 1")
    if sum(coeffs) != Fraction(2 ** n) / dimension:
        raise InvariantError(f"sum of A is {sum(coeffs)}, not 2^{n}/{dimension}")
    if not all(0 <= x <= y for x, y in zip(a_poly.coefficients, b_poly.coefficients)):
        raise InvariantError("A and B violate 0 <= A_d <= B_d")
    return a_poly, b_poly


def biased_distance(code: XpGroup, axis: str) -> int:
    """Minimum weight of an axis-restricted Pauli logical operator.

    Searches strings E over {I, axis} with support c != 0.  E preserves the
    code space exactly when it commutes with every Pauli string that has a
    nonzero trace against Pi: c must be GF(2)-orthogonal to the z part of
    each such string for X, to its x part for Z, and to x ^ z for Y.  It
    acts trivially when Tr[E Pi] = K, with Y^c = i^|c| X^c Z^c.  Returns the
    least weight of a preserving, nontrivial string, or n + 1 when there is
    none.
    """
    axis = axis.upper()
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    traces = _exact_traces(canonical_form(code))
    strings = np.arange(1 << code.n, dtype=np.int64)
    preserving = (strings != 0) & ~traces.trivial[axis]
    for v in _span_basis(np.flatnonzero(traces.parts[axis])):
        preserving &= np.bitwise_count(strings & v) % 2 == 0
    weights = np.bitwise_count(strings[preserving])
    return int(weights.min()) if weights.size else code.n + 1


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


def _coset_blocks(projector: np.ndarray) -> np.ndarray:
    """Basis strings grouped into cosets that the projector does not couple.

    Pi[i, j] != 0 only when i ^ j lies in D, the GF(2) span of those
    differences, so Pi is zero between two cosets of D.  D is padded with
    unit strings to at least min(2^n, ``MIN_COSET_SIZE``) strings.  Row c
    holds coset c in increasing order; cosets are ordered by least string.
    """
    size = projector.shape[0]
    rows, cols = np.nonzero(projector)
    coupled = np.zeros(size, dtype=bool)
    coupled[rows ^ cols] = True
    basis = _span_basis(np.flatnonzero(coupled))
    unit = 1
    while 1 << len(basis) < min(size, MIN_COSET_SIZE):
        basis = _xor_basis(basis + [unit])
        unit <<= 1
    order = np.argsort(_coset_min(np.arange(size), basis), kind="stable")
    return order.reshape(-1, 1 << len(basis))


def _row_values(op: XpOperator) -> np.ndarray:
    """The nonzero entry of each row i of the dense XP operator, at column i ^ x.

    Qubit q contributes 1 or w^(2 z_q) (X swaps the two rows), the global
    phase multiplies qubit 0's pair, and the pairs fold left as
    ``np.kron`` folds the single-qubit matrices: the same products, in the
    same order and through the same broadcast multiply.
    """
    table = omega_table(op.precision)
    values = None
    for q in range(op.n):
        pair = np.array([1.0 + 0j, table[(2 * op.z[q]) % (2 * op.precision)]])
        if op.x[q]:
            pair = pair[::-1]
        if q == 0:
            pair = pair * table[op.phase]
        values = pair if values is None else (values[:, None] * pair).reshape(-1)
    return values


# The x and z part of each Pauli digit I, X, Y, Z.
_DIGIT_X = np.array([0, 1, 1, 0])
_DIGIT_Z = np.array([0, 0, 1, 1])


def _ranks(strings: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of each value in the sorted strings, len(strings) where absent."""
    at = np.minimum(np.searchsorted(strings, values), strings.size - 1)
    return np.where(strings[at] == values, at, strings.size)


def _contraction_plan(span: np.ndarray, n: int, mixes: bool,
                      ) -> tuple[tuple[tuple[np.ndarray, np.ndarray, int], ...], np.ndarray]:
    """The steps that contract qubits 0..n-1 of a Pauli spectrum on x ^ span.

    A spectrum on the x parts x ^ L, for sorted offsets L, is held as a
    (len(L) + 1, 2^n) array over (offset, z part) whose last row is zero,
    with the contracted qubit's z bit leading.  A step pairs the offsets
    l and l | bit, which differ only in the qubit's bit, and multiplies
    the four Pauli digits (I, X, Y, Z) of each pair by the pairing table.
    A channel whose pairing table couples different x parts lets the
    support take both x parts of each contracted qubit; otherwise it stays
    x ^ span.  Returns the steps and the final sorted offsets.

    A step is ``(reads, writes, size)``.  Digit c takes the offset whose
    bit is its x part ^ x's bit, so both tables hold one (pairs, 4) array
    per bit b of x: ``reads[b]`` the z half-rows that digit c reads (its
    offset's row, z bit ``_DIGIT_Z[c]``), with the zero row for an offset
    not in L, and ``writes[b]`` the rows among the ``size`` offsets after
    the step that take the products, with the z bit trailing, or the last
    row where an offset has no row there.  Both tables are int32, which
    keeps them below the channel rows from 3 qubits up.
    """
    size = 1 << n
    steps = []
    support = span
    by_bit = np.array([_DIGIT_X, _DIGIT_X ^ 1])
    for q in range(n):
        bit = 1 << (n - 1 - q)
        present = np.zeros(size, dtype=bool)
        present[support] = present[support ^ bit] = True
        both = np.flatnonzero(present)
        low = both[both & bit == 0]
        pairs = np.stack([low, low | bit], axis=1)
        grown = both if mixes else support
        reads = 2 * _ranks(support, pairs)[:, by_bit].transpose(1, 0, 2) + _DIGIT_Z
        writes = _ranks(grown, pairs)[:, by_bit].transpose(1, 0, 2)
        steps.append((reads.astype(np.int32), writes.astype(np.int32), grown.size))
        support = grown
    return tuple(steps), support


class CosetTrace:
    """The coset trace scalars of one code projector under one channel.

    ``coeffs`` is the 4x4 Pauli pairing table of the single-qubit channel.
    For the XP operator Etilde (a residual error times a logical
    representative) the scalars are

        a = sum_i Tr[K_i Pi Etilde^dag] Tr[K_i^dag Etilde Pi]
        b = sum_i Tr[K_i Pi K_i^dag Pi_s],   Pi_s = Etilde Pi Etilde^dag

    where the index runs over all n-fold tensor products of the Kraus
    operators.  ``scalar_pairs`` returns (a, b) for each of a list of
    operators, such as the logical classes of one syndrome;
    ``coset_scalars`` is the one-element list.  The a side contracts the
    Pauli spectra of Pi Etilde^dag and Etilde Pi through coeffs one qubit
    at a time; the b side reads the channel-applied projector.

    Pi is block diagonal on the cosets of ``_coset_blocks``, and Etilde
    maps coset c onto coset c ^ x, so the three products with Etilde run as
    batched block products and Etilde is never rendered densely.

    The two a-side products couple i to j only when i ^ j lies in x ^ D,
    with D the padded coupling span, so Tr[X^a Z^b .] of either vanishes
    unless a does: |D| 2^n of the 4^n Pauli entries.  Their spectra are
    read from the block products as (|D|, 2^n) arrays and transformed by
    ``_pauli_butterfly``.  The n contraction steps through coeffs run on
    the rows of the support only, as (M, 4) @ coeffs.T products; the
    support grows on every qubit where coeffs pairs different x parts.
    Both spectra are then scattered into 4^n arrays for the final sum.

    Made once here: the projector check, Pi's diagonal blocks, the rows of
    the channel-applied projector in coset order (4^n complex entries),
    and the contraction steps from D and coeffs' zero pattern, as rows for
    either bit of x.  A step's indices depend on x only through the
    qubit's bit, so each step moves whole z half-rows.  ``scalar_pairs``
    makes the indices that depend on all of x once per distinct x among
    its operators (``_score_x``), and its scratch arrays once per list:
    the 4^n arrays of the final sum are zeroed only where an operator
    wrote them, and the b side's slabs share the first of them.  Steps run
    in blocks of ``STEP_ENTRIES``, so on a channel that keeps x parts a
    list holds about two 4^n arrays at its peak, as a one-operator list
    does; where the support grows, the scratch arrays reach 4^n too.

    Bits.  Every float equals the dense computation's, zeros aside, whose
    sign may differ where the dense arrays held zeros outside the support.
    The butterfly, the gathers and the scatters move floats or combine
    them elementwise as the dense transform did, so they keep every bit by
    construction.  The BLAS products keep bits per BLAS build only: each
    block product entry is one nonzero term, each contraction step
    multiplies a subset of the dense step's (4^(n-1), 4) rows, and each
    diagonal entry of the b side sums over all 2^n columns in index order,
    so they agree as long as BLAS rounds an entry alike whatever the
    matrix shape.  Blocks hold at least ``MIN_COSET_SIZE`` strings because
    2-string blocks did not, and the == tests against the dense
    computation check the rest on the build they run on.  The final sum is
    the dense one: the (1, 4^n) @ (4^n, 1) product that ``np.tensordot``
    makes of the same two 4^n arrays.
    """

    def __init__(self, coeffs: np.ndarray, projector: np.ndarray):
        self.n = _check_projector(projector)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        members = self._members = _coset_blocks(projector)
        count, width = members.shape
        size = 1 << self.n
        self._coset = np.empty(size, dtype=np.intp)
        self._coset[members] = np.arange(count)[:, None]
        self._position = np.empty(size, dtype=np.intp)
        self._position[members] = np.arange(width)
        self._blocks = projector[members[:, :, None], members[:, None, :]]
        self._channel_rows = apply_channel(projector, self.coeffs)[members]

        span = members[0]
        mixes = bool(np.any(self.coeffs[_DIGIT_X[:, None] != _DIGIT_X]))
        self._steps, grown = _contraction_plan(span, self.n, mixes)
        # int32, so that the 4^n indices of the final sum are made without
        # an int64 copy while a list holds its 4^n arrays.
        self._digits = _pauli_index(np.arange(size, dtype=np.int32))
        self._span_digits = self._digits[span]
        self._grown_digits = self._digits[grown]

    def scalar_pairs(self, e_tildes: Sequence[XpOperator]) -> list[tuple[complex, complex]]:
        """(a, b) for each operator, in order.

        The operators run x by x, each one's b side before its a side, on
        scratch arrays made once per list (see the class notes).
        """
        n, size = self.n, 1 << self.n
        if any(op.n != n for op in e_tildes):
            raise ValueError("the operator's qubit count must equal the projector's")
        count, width = self._members.shape
        by_x: dict[int, list[int]] = {}
        for i, op in enumerate(e_tildes):
            by_x.setdefault(op.x_mask, []).append(i)

        e_blocks = np.zeros((count, width, width), dtype=complex)
        dense = np.zeros((2, 1 << 2 * n), dtype=complex)
        # Two scratch arrays for the spectra, the first of which also holds
        # the block products (Pi Etilde^dag, then Etilde Pi) until they are
        # read.
        rows = max([2 * width] + [grown + 1 for _, _, grown in self._steps])
        scratch = np.empty((2, rows * size), dtype=complex)
        pairs: list = [None] * len(e_tildes)
        for x, indices in by_x.items():
            for i, pair in zip(indices, self._score_x(
                    x, [e_tildes[i] for i in indices], e_blocks, dense, scratch)):
                pairs[i] = pair
        return pairs

    def _score_x(self, x: int, e_tildes: list[XpOperator], e_blocks: np.ndarray,
                 dense: np.ndarray, scratch: np.ndarray) -> list[tuple[complex, complex]]:
        """(a, b) for operators that share the x part x.

        ``e_blocks`` and ``dense`` are zero on entry and are left so.  The
        indices that depend on x are made once here for all the operators.
        """
        n, size = self.n, 1 << self.n
        half = size >> 1
        members = self._members
        count, width = members.shape
        span = members[0]  # D, whose size is the block width
        # Block c maps the coset of members[c] ^ x onto coset c: row t holds
        # the value of string members[c, t] in the column of members[c, t] ^ x.
        shifted = members ^ x
        pi_blocks = self._blocks[self._coset[shifted[:, 0]]]
        e_entries = (np.arange(count)[:, None], np.arange(width), self._position[shifted])
        # Row s of each spectrum input holds M[k, k ^ x ^ span[s]], read in
        # the block of row k at the position of that string in its coset:
        # Pi Etilde^dag, then Etilde Pi.  int32 halves what a list holds
        # next to its 4^n arrays.
        moved = np.arange(size) ^ x
        column = self._position[moved ^ span[:, None]]
        spectra = np.concatenate([
            (self._coset[moved] * width + self._position) * width + column,
            ((count + self._coset) * width + self._position) * width + column]).astype(np.int32)
        shifts = np.tile(span ^ x, 2)
        # The places of the two spectra among the 4^n Pauli strings.
        x_digits = self._digits[x]
        z_digits = 3 * self._digits
        dense1 = (self._span_digits ^ x_digits)[:, None] ^ z_digits
        dense2 = (self._grown_digits ^ x_digits)[:, None] ^ z_digits

        e_conj = np.empty_like(e_blocks)
        e_dag = e_conj.transpose(0, 2, 1)
        length = 2 * width * size
        products = scratch[0, :length].reshape(2, count, width, width)
        v = scratch[1, :length].reshape(2 * width, size)
        # The columns of coset c of Pi_s, zero outside the rows of coset c.
        slabs = dense[0].reshape(count, size, width)
        slab_entries = (np.arange(count)[:, None], members)
        diagonal = np.empty(size, dtype=complex)
        coeffs_t = self.coeffs.T
        block = max(1, STEP_ENTRIES // (2 * size))
        pairs = []
        for op in e_tildes:
            e_blocks[e_entries] = _row_values(op)[members]
            np.conjugate(e_blocks, out=e_conj)
            e_pi = np.matmul(e_blocks, pi_blocks, out=products[1])
            slabs[slab_entries] = np.matmul(e_pi, e_dag)  # Pi_s
            diagonal[members] = np.matmul(self._channel_rows, slabs).diagonal(axis1=1, axis2=2)
            slabs[slab_entries] = 0
            b_scalar = complex(diagonal.sum())
            np.matmul(pi_blocks, e_dag, out=products[0])

            # Every index is in range; "clip" lets np.take write v unbuffered.
            np.take(scratch[0, :length], spectra, out=v, mode="clip")
            t = _pauli_butterfly(v, shifts, scratch[0, :length].reshape(v.shape))
            dense[0, dense1] = t[:width]
            # The second spectrum over (offset, z part), z bits rotating so
            # that the contracted qubit leads; the last row stays zero.  The
            # butterfly swaps its two arrays once per qubit.
            free = n % 2
            t2 = scratch[free, :(width + 1) * size]
            t2[:-size] = t[width:].reshape(-1)
            t2[-size:] = 0
            for q, (reads, writes, grown) in enumerate(self._steps):
                bit = (x >> (n - 1 - q)) & 1
                reads, writes = reads[bit], writes[bit]
                source = t2.reshape(-1, half)
                free ^= 1
                t2 = scratch[free, :(grown + 1) * size]
                for lo in range(0, len(reads), block):
                    product = np.dot(source[reads[lo:lo + block]].transpose(0, 2, 1).reshape(-1, 4),
                                     coeffs_t)
                    t2.reshape(-1, half, 2)[writes[lo:lo + block], :, _DIGIT_Z] = \
                        product.reshape(-1, half, 4).transpose(0, 2, 1)
                t2[-size:] = 0
            dense[1, dense2] = t2[:-size].reshape(-1, size)
            # The (1, 4^n) @ (4^n, 1) product that np.tensordot makes of the
            # two spectra as (4,) * n tensors.
            a_scalar = complex(np.dot(dense[0].reshape(1, -1), dense[1].reshape(-1, 1))[0, 0])
            pairs.append((a_scalar, b_scalar))
            dense[0, dense1] = 0
        e_blocks[e_entries] = 0
        dense[1, dense2] = 0
        return pairs


def coset_scalars(coeffs: np.ndarray, projector: np.ndarray,
                  e_tilde: XpOperator) -> tuple[complex, complex]:
    """The two trace scalars of ``CosetTrace`` for a single residual error."""
    return CosetTrace(coeffs, projector).scalar_pairs([e_tilde])[0]
