"""Generator lists as codes: canonical form and structural analysis.

A group of XP operators is canonicalized, on integer rows under the group
law, into non-diagonal generators whose x parts form a reduced row echelon
basis, then diagonal generators whose (2z|p) embedding over Z_2N is in
Howell form, closed under conjugation by reduction against that basis.
Reducing the non-diagonal rows' diagonal parts makes the form unique.

From the canonical form the module derives the Z-support of the stabilized
space, its orbit and core decomposition under the non-diagonal x action,
diagonal Pauli generators for the same support, logical operators for
regular codes, and the generator-counting certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .ring_linalg import ModMatrix, howell_form, kernel_mod, reduce_row, solve_linear_mod
from .xp_algebra import MAX_PRECISION, PrecisionError, XpOperator, _row_mul, embed, restrict


class EmptyCodeError(ValueError):
    """The generator list stabilizes no state."""


class NonRegularError(ValueError):
    """Logical-structure extraction is only supported for regular codes."""


class SizeLimitError(ValueError):
    """The input is larger than an exponential stage can hold in memory."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; the result would be wrong."""


# The Z-support scan holds one boolean per basis string: 64 MiB at 26 qubits.
Z_SUPPORT_MAX_QUBITS = 26
# Each support string costs about 100 bytes of Python ints downstream.
Z_SUPPORT_MAX_STRINGS = 1 << 20


@dataclass(frozen=True)
class XpGroup:
    """An XP group presented by an ordered generator list.  ``canonical``
    marks a list known to be the canonical form; it is not compared."""

    precision: int
    n: int
    generators: tuple[XpOperator, ...]
    canonical: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not 2 <= self.precision <= MAX_PRECISION:
            raise PrecisionError(
                f"precision must be in [2, {MAX_PRECISION}], got {self.precision}")
        for op in self.generators:
            if op.n != self.n or op.precision != self.precision:
                raise ValueError("generator does not match group qubit count / precision")

    @classmethod
    def from_generators(cls, generators: Sequence[XpOperator], n: int | None = None,
                        precision: int | None = None) -> "XpGroup":
        gens = tuple(generators)
        if not gens and (n is None or precision is None):
            raise ValueError("empty generator list needs explicit n and precision")
        return cls(precision or gens[0].precision, n if n is not None else gens[0].n, gens)

    @property
    def x_block(self) -> tuple[XpOperator, ...]:
        return tuple(op for op in self.generators if not op.is_diagonal)

    @property
    def z_block(self) -> tuple[XpOperator, ...]:
        return tuple(op for op in self.generators if op.is_diagonal)


def int_to_bits(e: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of a basis index."""
    return tuple((e >> (n - 1 - i)) & 1 for i in range(n))


def _support_bits(strings: Sequence[int], n: int) -> np.ndarray:
    """0/1 array of shape (n, len(strings)); row i is qubit i (big endian)."""
    values = np.asarray(strings, dtype=np.int64).reshape(-1)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (values[None, :] >> shifts[:, None]) & 1


def _xor_basis(dirs: Sequence[int]) -> list[int]:
    """Reduced GF(2) basis of the span of ``dirs``.

    No basis vector has the leading bit of another set, so clearing leading
    bits one vector at a time, in any order, gives the least coset element.
    """
    basis: list[int] = []
    for d in dirs:
        for b in basis:
            d = min(d, d ^ b)
        if d:
            basis = [min(b, b ^ d) for b in basis] + [d]
    return basis


def _coset_min(values: np.ndarray, basis: Sequence[int]) -> np.ndarray:
    """min(v ^ s for s in span) per entry, for a basis from ``_xor_basis``."""
    out = np.asarray(values, dtype=np.int64)
    for b in basis:
        out = np.minimum(out, out ^ b)
    return out


def _span_basis(values: np.ndarray) -> list[int]:
    """``_xor_basis`` of many values, adding one value outside the span per pass."""
    basis: list[int] = []
    while True:
        values = values[_coset_min(values, basis) != 0]
        if not values.size:
            return basis
        basis = _xor_basis(basis + [int(values[0])])


def _square_vec(a: tuple) -> list:
    """(2z|p) of the square of an (x, z, p) row, unreduced:
    (4z - 4x*z | 2p + 2 x.z)."""
    x, z, p = a
    xz = [xi * zi for xi, zi in zip(x, z)]
    return [4 * (zi - v) for zi, v in zip(z, xz)] + [2 * p + 2 * sum(xz)]


def _commutator_vec(a: tuple, b: tuple) -> list | None:
    """(2z|p) of the commutator a b (b a)^-1 of two (x, z, p) rows, unreduced:
    (2d - 4x*d | 2 x.d - sum d) with d = 2(x_a*z_b - x_b*z_a) and
    x = x_a ^ x_b.  None when d = 0, where it is the identity."""
    (xa, za, _), (xb, zb, _) = a, b
    d = [2 * (u * zv - v * zu) for u, zu, v, zv in zip(xa, za, xb, zb)]
    if not any(d):
        return None
    xd = [(u ^ v) * dv for u, v, dv in zip(xa, xb, d)]
    return [2 * dv - 4 * w for dv, w in zip(d, xd)] + [2 * sum(xd) - sum(d)]


def canonical_form(g: XpGroup) -> XpGroup:
    """Unique canonical presentation of the generated group, computed on
    (x, z, p) integer rows with the exact group law, never plain row
    addition.  Conjugating a diagonal row (v | p), v = 2z mod 2N, by an x
    row s gives (v - 2 x_s*v | p + x_s.v); each conjugate is reduced
    against the Howell basis, which is recomputed only when one is left."""
    if g.canonical:
        return g
    n, precision, two_n = g.n, g.precision, 2 * g.precision
    work = [(op.x, op.z, op.phase) for op in g.generators if not op.is_identity]

    # Sweep the x block into RREF; every row operation is a group product.
    sx: list[tuple] = []
    for col in range(n):
        idx = next((i for i, row in enumerate(work) if row[0][col]), None)
        if idx is None:
            continue
        pivot = work.pop(idx)
        work = [_row_mul(row, pivot, precision) if row[0][col] else row for row in work]
        sx = [_row_mul(row, pivot, precision) if row[0][col] else row for row in sx]
        sx.append(pivot)

    # All remaining rows are diagonal.  Close the diagonal subgroup under
    # squares, pairwise commutators (both in closed form), and conjugation
    # by the x block.
    pool = [[2 * zi for zi in z] + [p] for _, z, p in work] + [_square_vec(s) for s in sx]
    commutators = (_commutator_vec(a, b) for i, a in enumerate(sx) for b in sx[i + 1:])
    pool += [vec for vec in commutators if vec is not None]
    basis = howell_form(ModMatrix.from_rows(pool, two_n))
    while True:
        grown = []
        for x, _, _ in sx:
            for row in basis.entries:
                conj = [(-v if xi else v) % two_n for xi, v in zip(x, row)]
                conj.append((row[n] + sum(v for xi, v in zip(x, row) if xi)) % two_n)
                grown.append(reduce_row(conj, basis.entries, basis.pivots, two_n))
        grown = [row for row in grown if any(row)]
        if not grown:
            break
        basis = howell_form(ModMatrix.from_rows(basis.entries + tuple(grown), two_n))

    rows = [(x, reduce_row([2 * zi for zi in z] + [p], basis.entries, basis.pivots, two_n))
            for x, z, p in sx]
    rows += [((0,) * n, row) for row in basis.entries]
    gens = tuple(XpOperator(precision, x, tuple(v // 2 for v in vec[:n]), vec[n])
                 for x, vec in rows)
    return XpGroup(precision, n, gens, canonical=True)


def merge_canonical_blocks(n: int, precision: int,
                           blocks: Sequence[tuple[XpGroup, Sequence[int]]]) -> XpGroup:
    """Canonical form of a product of canonical groups on disjoint legs.

    Each block must be a canonical group, placed on the listed legs of
    ``n`` in increasing order so that its own canonical order survives.  No
    product of rows from different blocks reduces either, so the canonical
    form of the product is the blocks' rows in canonical order: x rows by
    their first x leg, then diagonal rows by the first nonzero entry of
    (2z mod 2N | p).  A phase-only row (a phase times identity: an empty
    code) would be a pivot of every block, so then the product falls back
    to ``canonical_form``.
    """
    rows = [embed(op, n, legs) for group, legs in blocks for op in group.generators]
    if any(op.is_diagonal and not any(op.z) for op in rows):
        return canonical_form(XpGroup(precision, n, tuple(rows)))
    x_rows = sorted((op for op in rows if not op.is_diagonal), key=lambda op: op.x.index(1))
    z_rows = sorted((op for op in rows if op.is_diagonal),
                    key=lambda op: next(i for i, zi in enumerate(op.z) if zi))
    return XpGroup(precision, n, tuple(x_rows + z_rows), canonical=True)


class LegBlock(NamedTuple):
    """The rows of a group on one block of its legs: the sorted legs, the
    generators supported inside them, restricted to them, and the block's
    codeword and logical counts where they are known (None where not)."""

    legs: tuple[int, ...]
    group: XpGroup
    codewords: int | None = None
    logicals: int | None = None


def _leg_blocks(group: XpGroup) -> tuple[LegBlock, ...]:
    """Connected components of the generator supports, ordered by first leg.

    A leg is in a generator's support when its x or z entry is nonzero; a
    leg that no generator touches is a block of its own, and a generator
    with empty support (a phase) lies inside every block, or in one block on
    no legs when the group has no legs.  The rows of a canonical group
    inside one block are that block's canonical form, so each block is
    flagged canonical when the group is.
    """
    label = list(range(group.n))  # the least leg of each leg's block so far
    firsts = []  # a leg of each generator's support, None when it is empty
    for op in group.generators:
        joined = {label[i] for i, (x, z) in enumerate(zip(op.x, op.z)) if x or z}
        if len(joined) > 1:
            label = [min(joined) if lab in joined else lab for lab in label]
        firsts.append(min(joined, default=None))
    blocks: dict[int, tuple[list[int], list[XpOperator]]] = {
        0: ([], [])} if group.generators and not group.n else {}
    for leg, lab in enumerate(label):
        blocks.setdefault(lab, ([], []))[0].append(leg)
    for op, first in zip(group.generators, firsts):
        for legs, rows in blocks.values() if first is None else [blocks[label[first]]]:
            rows.append(restrict(op, legs))
    return tuple(LegBlock(tuple(legs), XpGroup(group.precision, len(legs), tuple(rows),
                                               group.canonical)) for legs, rows in blocks.values())


def phase_identity(g: XpGroup) -> XpOperator | None:
    """The derived w^p * I generator, if the group contains a nontrivial one."""
    g = canonical_form(g)
    for op in g.z_block:
        if not any(op.z) and op.phase:
            return op
    return None


def _exponent_table(z: Sequence[int], two_n: int) -> np.ndarray:
    """sum_i 2 z_i b_i (mod 2N) for every big-endian bit string b of len(z)."""
    table = np.zeros(1 << len(z), dtype=np.int64)
    for i, zi in enumerate(reversed(z)):
        table[1 << i:2 << i] = table[:1 << i] + 2 * zi
    return table % two_n


def z_support(g: XpGroup) -> tuple[int, ...]:
    """Basis indices on which every diagonal generator acts with phase one.

    A generator's exponent on a string is a table entry for its high half
    plus one for its low half, so one broadcast comparison per generator
    fills a 2^n boolean mask; no wider array is held.

    Raises:
        SizeLimitError: above ``Z_SUPPORT_MAX_QUBITS`` qubits, before any
            allocation, or when the support has more than
            ``Z_SUPPORT_MAX_STRINGS`` strings.
        EmptyCodeError: when no basis string survives, or the group contains
            a phase-of-identity element (an inconsistent presentation).
    """
    if g.n > Z_SUPPORT_MAX_QUBITS:
        raise SizeLimitError(
            f"Z-support scan of {g.n} qubits exceeds the {Z_SUPPORT_MAX_QUBITS}-qubit limit")
    g = canonical_form(g)
    if phase_identity(g) is not None:
        raise EmptyCodeError("group contains a nontrivial phase times identity")
    n, two_n = g.n, 2 * g.precision
    high = n // 2
    ok = np.ones((1 << high, 1 << (n - high)), dtype=bool)
    hit = np.empty_like(ok)
    for op in g.z_block:
        need = (-op.phase - _exponent_table(op.z[:high], two_n)) % two_n
        np.equal(need[:, None], _exponent_table(op.z[high:], two_n)[None, :], out=hit)
        ok &= hit
    count = int(np.count_nonzero(ok))
    if count == 0:
        raise EmptyCodeError("diagonal generators stabilize no basis string")
    if count > Z_SUPPORT_MAX_STRINGS:
        raise SizeLimitError(
            f"Z-support of {count} strings exceeds the {Z_SUPPORT_MAX_STRINGS}-string limit")
    return tuple(np.flatnonzero(ok).tolist())


@dataclass(frozen=True)
class OrbitDecomposition:
    """Z-support split into x-orbit representatives and the core."""

    e_m: tuple[int, ...]
    e_q: tuple[int, ...]
    regular: bool
    logical_x_dirs: tuple[int, ...]


def orbit_decomposition(g: XpGroup) -> OrbitDecomposition:
    g = canonical_form(g)
    support = np.array(z_support(g), dtype=np.int64)
    span_basis = _xor_basis([op.x_mask for op in g.x_block])
    in_support = np.zeros(1 << g.n, dtype=bool)
    in_support[support] = True
    if not all(in_support[support ^ b].all() for b in span_basis):
        raise InvariantError("an x-orbit of a stabilized string leaves the Z-support")
    # An orbit is labelled by its least string.
    reps = support[_coset_min(support, span_basis) == support]
    e_m = tuple(reps.tolist())

    # Shifts d with label(m ^ d) in e_m for every m; the map m -> label(m ^ d)
    # is injective on labels, so that makes it a permutation of e_m.
    is_rep = np.zeros_like(in_support)
    is_rep[reps] = True
    candidates = sorted(set(_coset_min(reps[0] ^ reps, span_basis).tolist()))
    w_group = [d for d in candidates if is_rep[_coset_min(reps ^ d, span_basis)].all()]
    regular = len(w_group) == len(e_m)

    # Transversal of the representative set under the invariant shifts.
    seen: set[int] = set()
    core: list[int] = []
    for m in e_m:
        if m in seen:
            continue
        orbit = _coset_min(m ^ np.array(w_group, dtype=np.int64), span_basis)
        seen.update(orbit.tolist())
        core.append(int(orbit.min()))

    # Independent direction basis modulo the x-block span.
    basis: list[int] = []
    for d in w_group:
        if len(_xor_basis(span_basis + basis + [d])) > len(span_basis) + len(basis):
            basis.append(d)
    if 2 ** len(basis) != len(w_group):
        raise InvariantError("invariant shifts do not form a group")
    return OrbitDecomposition(e_m, tuple(sorted(core)), regular, tuple(basis))


def r_z_generators(g: XpGroup) -> list[XpOperator]:
    """Diagonal Pauli generators stabilizing exactly the Z-support.

    The z exponents are multiples of N/2 and the rows of their exponent
    pattern form the GF(2) annihilator of the support's difference span.
    """
    g = canonical_form(g)
    if g.precision % 2:
        raise PrecisionError("Pauli extraction needs even precision")
    return _r_z_from_support(z_support(g), g.n, g.precision)


def _r_z_from_support(support: Sequence[int], n: int, precision: int) -> list[XpOperator]:
    """``r_z_generators`` for a Z-support listed in any order."""
    e0 = support[0]  # an annihilator row has one parity on the whole support
    dirs = sorted(_span_basis(np.asarray(support) ^ e0), reverse=True)
    vs = kernel_mod(ModMatrix.from_rows(_support_bits(dirs, n).tolist(), 2)).entries
    half = precision // 2
    out = []
    for v in vs:
        sign = sum(b * ((e0 >> (n - 1 - i)) & 1) for i, b in enumerate(v)) % 2
        out.append(XpOperator(precision, (0,) * n, tuple(half * b for b in v), precision * sign))
    return out


@dataclass(frozen=True, eq=False)
class CodewordTable:
    """Symbolic codewords as read-only int64 arrays: the Z-support ``strings``
    ascending, each string's phase exponent ``phases`` and codeword index
    ``owner``; codeword i is the orbit of representative ``orbits.e_m[i]``."""

    precision: int
    n: int
    strings: np.ndarray
    phases: np.ndarray
    owner: np.ndarray
    orbits: OrbitDecomposition

    @cached_property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per codeword, its (string, phase) pairs in ascending string order."""
        at = np.argsort(self.owner, kind="stable").reshape(len(self.orbits.e_m), -1)
        return tuple(tuple(zip(self.strings[i].tolist(), self.phases[i].tolist())) for i in at)


def _phase_steps(strings: np.ndarray, phases: np.ndarray, dirs: Sequence[int]) -> np.ndarray:
    """phases[e ^ w] - phases[e], a row per direction w in ``dirs`` and a column
    per string e of the ascending ``strings``; InvariantError when e ^ w is not one."""
    moved = strings ^ np.array(dirs, dtype=np.int64)[:, None]
    at = strings.searchsorted(moved)
    if not (strings.take(at, mode="clip") == moved).all():
        raise InvariantError("a direction moves a string out of the Z-support")
    return phases[at] - phases


def codewords(g: XpGroup) -> CodewordTable:
    """Orbit expansion of each representative under the x-block generators.

    The 2^|S_X| subset products of the x block, shared by every orbit, are
    built as (x, z, p) integer rows with the row law ``xp_algebra._row_mul``.
    """
    g = canonical_form(g)
    od = orbit_decomposition(g)
    prods = [((0,) * g.n, (0,) * g.n, 0)]
    for s in [(op.x, op.z, op.phase) for op in g.x_block]:
        prods += [_row_mul(row, s, g.precision) for row in prods]
    xs, zs, ps = zip(*prods)
    masks = np.array(xs, dtype=np.int64) @ (1 << np.arange(g.n - 1, -1, -1, dtype=np.int64))
    if len(set(masks.tolist())) != masks.size:
        raise InvariantError("two x-block products move a string to the same place")
    z = np.array(zs, dtype=np.int64)
    p = np.array(ps, dtype=np.int64)
    reps = np.array(od.e_m, dtype=np.int64)
    # Product k sends |m> to w^phases[k, m] |strings[k, m]>.
    strings = masks[:, None] ^ reps[None, :]
    phases = np.repeat(p[:, None], reps.size, axis=1)
    for zi, bits in zip(2 * z.T, _support_bits(reps, g.n)):
        phases += zi[:, None] * bits[None, :]
    phases %= 2 * g.precision
    # Flat index i is product i // |e_m| applied to representative i % |e_m|.
    order = strings.argsort(axis=None)
    columns = np.array([strings.ravel()[order], phases.ravel()[order], order % reps.size])
    columns.setflags(write=False)
    return CodewordTable(g.precision, g.n, *columns, od)


def _constraint_matrix(n: int, precision: int, strings: Sequence[int],
                       orbit_ids: Sequence[int] | None = None) -> ModMatrix:
    """Action-phase constraints on a diagonal operator, as a matrix over Z_2N.

    The unknowns, one per row, are u_i = 2 z_i, the phase p and, with
    ``orbit_ids``, a constant gamma_j per orbit j >= 1 (orbit 0 has none).
    Column c is the exponent p + u . bits(e) + gamma_orbit(e) on the string
    e = ``strings[c]``; n trailing columns N u_i keep every u_i even.
    """
    cols = len(strings)
    n_gamma = max(orbit_ids, default=0) if orbit_ids is not None else 0
    mat = np.zeros((n + 1 + n_gamma, cols + n), dtype=np.int64)
    mat[:n, :cols] = _support_bits(strings, n)
    mat[:n, cols:] = precision * np.eye(n, dtype=np.int64)
    mat[n, :cols] = 1
    if n_gamma:
        mat[n + 1:, :cols] = np.arange(1, n_gamma + 1)[:, None] == np.asarray(orbit_ids)[None, :]
    return ModMatrix(2 * precision, tuple(map(tuple, (mat % (2 * precision)).tolist())))


def _solve_constraints(mat: ModMatrix, n: int, targets: Sequence[int],
                       ) -> tuple[XpOperator, tuple[int, ...]] | None:
    """Solve a ``_constraint_matrix`` system for per-string ``targets``: the
    diagonal operator and the gammas (zero on orbit 0), or None."""
    sol = solve_linear_mod(mat, list(targets) + [0] * n)
    if sol is None:
        return None
    op = XpOperator(mat.modulus // 2, (0,) * n, tuple(u // 2 for u in sol[:n]), sol[n])
    return op, (0,) + tuple(sol[n + 1:])


@dataclass(frozen=True)
class LogicalBasis:
    """Per logical direction j of a regular code: ``x[j]``, the completion
    of X along it with its per-orbit phases (gammas); ``z[j]``, the diagonal
    logical acting as -1 on the codewords whose representative carries it;
    ``coords[j]``, that coordinate of each orbit representative.  Orbit
    tuples follow ``table.entries``; a logical with no XP completion is None.
    """

    table: CodewordTable
    x: tuple[tuple[XpOperator, tuple[int, ...]] | None, ...]
    z: tuple[XpOperator | None, ...]
    coords: tuple[tuple[int, ...], ...]

    def x_logicals(self) -> list[XpOperator]:
        if None in self.x:
            raise NonRegularError("no XP completion for a logical direction")
        return [op for op, _ in self.x]

    def z_logicals(self) -> list[XpOperator]:
        if None in self.z:
            raise NonRegularError("no diagonal logical for a direction")
        return list(self.z)


def logical_basis(g: XpGroup) -> LogicalBasis:
    """Logical basis of a regular code from one read of ``codewords(g)``.

    Representative m has coordinates c with m ^ q0 == sum_j c_j w_j (mod
    the x-block span) over the logical directions w_j, q0 being the core
    string.  The X completion maps every codeword to a codeword, the base
    orbit with phase one and every other orbit with a constant phase, which
    is all a valid logical needs; the Z logical has exponent N c_j on orbit
    m.  One orbit constraint matrix serves every X solve and one plain
    matrix every Z solve.

    Raises NonRegularError when the code core has more than one element.
    """
    g = canonical_form(g)
    table = codewords(g)
    od = table.orbits
    if not od.regular:
        raise NonRegularError("code core has more than one element")
    n, precision = g.n, g.precision
    dirs = [op.x_mask for op in g.x_block]
    pool = ModMatrix.from_rows(
        [int_to_bits(v, n) for v in dirs + list(od.logical_x_dirs)], 2)
    sols = [solve_linear_mod(pool, int_to_bits(m ^ od.e_q[0], n)) if pool.rows else ()
            for m in od.e_m]
    if None in sols:
        raise InvariantError("orbit representative outside the logical span")
    coords = tuple(zip(*(sol[len(dirs):] for sol in sols)))

    x_mat = _constraint_matrix(n, precision, table.strings, table.owner)
    z_mat = _constraint_matrix(n, precision, table.strings)
    xs, zs = [], []
    steps = _phase_steps(table.strings, table.phases, od.logical_x_dirs).tolist()
    for w, column, targets in zip(od.logical_x_dirs, coords, steps):
        solved = _solve_constraints(x_mat, n, targets)
        if solved is not None:
            diag, gammas = solved
            solved = XpOperator(precision, int_to_bits(w, n), diag.z, diag.phase), gammas
        xs.append(solved)
        solved = _solve_constraints(z_mat, n, (precision * np.array(column))[table.owner].tolist())
        zs.append(None if solved is None else solved[0])
    return LogicalBasis(table, tuple(xs), tuple(zs), coords)


def logical_x_operators(g: XpGroup) -> list[XpOperator]:
    """Non-diagonal logical generators of a regular code, one per logical
    direction of the representative space (see ``logical_basis``)."""
    g = canonical_form(g)
    if g.precision & (g.precision - 1):
        raise PrecisionError("logical extraction needs a power-of-two precision")
    return logical_basis(g).x_logicals()


def diagonal_logical_operators(g: XpGroup) -> list[XpOperator]:
    """Diagonal logicals, one per logical direction, acting as -1 on the
    codewords whose representative carries that direction."""
    return logical_basis(g).z_logicals()


def _lid(strings: np.ndarray, phases: np.ndarray, dirs: Sequence[int], n: int,
         precision: int) -> XpGroup | None:
    """Canonical group of the diagonal operators fixing each of the ascending
    ``strings`` and, per direction w in ``dirs``, the completion of X^w that
    carries each w^phase(e) |e> to w^phase(e ^ w) |e ^ w>; None when a
    direction has no completion.  One constraint matrix, factored once,
    serves every solve and the kernel.

    The result is built in canonical form, with no ``canonical_form`` pass.
    The kernel of the constraint matrix is the module of every diagonal
    (2z|p) row fixing the support, which is the group's diagonal block, and
    ``kernel_mod`` returns its Howell form.  ``dirs`` must be in reduced row
    echelon order (pivots ascending, each pivot bit clear in the other
    directions), so they are the canonical x parts; reducing each solved
    completion against the kernel rows leaves the canonical (2z|p) part.
    """
    two_n = 2 * precision
    mat = _constraint_matrix(n, precision, strings)
    kernel = kernel_mod(mat)
    gens = []
    for w, steps in zip(dirs, _phase_steps(strings, phases, dirs).tolist()):
        sol = solve_linear_mod(mat, steps + [0] * n)
        if sol is None:
            return None
        vec = reduce_row(sol, kernel.entries, kernel.pivots, two_n)
        gens.append(XpOperator(precision, int_to_bits(w, n), tuple(u // 2 for u in vec[:n]),
                               vec[n]))
    gens += [XpOperator(precision, (0,) * n, tuple(u // 2 for u in row[:n]), row[n])
             for row in kernel.entries]
    return XpGroup(precision, n, tuple(gens), canonical=True)


def _completion(g: XpGroup) -> tuple[XpGroup, CodewordTable]:
    """``complete_lid(g)`` and the codeword table of ``g`` it was built from.

    The completion has the code space and the x span of ``g``, so that table
    is also the completion's own: a caller that needs both reads it here
    instead of building it again.
    """
    g = canonical_form(g)
    table = codewords(g)
    lid = _lid(table.strings, table.phases, [op.x_mask for op in g.x_block], g.n, g.precision)
    if lid is None:
        raise InvariantError("stabilizer row lost its own completion")
    return lid, table


def complete_lid(g: XpGroup) -> XpGroup:
    """The full logical identity group of the code presented by ``g``.

    The diagonal block is recomputed as every diagonal operator fixing the
    Z-support, and each x-block direction is re-completed so that it fixes
    every codeword exactly.  The input generators witness solvability, so
    the output always contains the input group.  The result is canonical
    (see ``_lid``) and has the same ``codewords`` table as ``g``.
    """
    return _completion(g)[0]


def lid_from_phase_table(pairs: Sequence[tuple[int, int]], n: int, precision: int,
                         ) -> XpGroup | None:
    """Full symmetry group of the uniform state sum of w^phase |e>.

    The pairs list one phase exponent per support string.  Returns None
    when no XP group pins the state alone: the support must be an affine
    GF(2) space, every support direction must admit a completion matching
    the phases, and the resulting group must stabilize a one-dimensional
    space.
    """
    if not pairs:
        return None
    phases = {e: ph % (2 * precision) for e, ph in pairs}
    strings, values = (np.array(v, dtype=np.int64) for v in zip(*sorted(phases.items())))
    # The support is affine exactly when it fills the span of its shifts.
    dirs = sorted(_span_basis(strings ^ strings[0]), reverse=True)
    if strings.size != 2 ** len(dirs):
        return None
    group = _lid(strings, values, dirs, n, precision)
    if group is None or len(orbit_decomposition(group).e_m) != 1:
        return None
    return group


def counted_logicals(g: XpGroup, blocks: Sequence[LegBlock] | None = None) -> int | None:
    """The logical count k when the generator-counting certificate
    |S_X| + k + |S_Z| == n holds, else None.

    This is a necessary condition for the group to be the full symmetry
    group at power-of-two precision, used as the fast screen after tracing.
    The group is the product of its leg blocks' groups and the logical
    count is additive over a product, so the orbit structure is read one
    block at a time and the cost follows the largest block; ``blocks``,
    when given, are those of ``g``, and the ones with a logical count are
    not read again.
    """
    g = canonical_form(g)
    if phase_identity(g) is not None:
        return None
    k = 0
    for block in _leg_blocks(g) if blocks is None else blocks:
        logicals = block.logicals
        if logicals is None:
            try:
                logicals = len(orbit_decomposition(block.group).logical_x_dirs)
            except EmptyCodeError:
                return None
        k += logicals
    return k if len(g.generators) + k == g.n else None


def counting_check(g: XpGroup, logical_dims: int | None = None) -> bool:
    """Generator-counting certificate |S_X| + |L_X| + |S_Z| == n (see
    ``counted_logicals``) with ``logical_dims`` logical directions: 0 for a
    group that should pin down a state, None to accept any (a code)."""
    k = counted_logicals(g)
    return k is not None and logical_dims in (None, k)


def permute_legs(g: XpGroup, order: Sequence[int]) -> XpGroup:
    """Reorder qubit columns; ``order[i]`` is the old index of new leg i."""
    return XpGroup(g.precision, g.n, tuple(restrict(op, order) for op in g.generators))
