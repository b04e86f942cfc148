"""Quantum lego operations on check matrices.

A lego is a list of leg blocks over an ordered set of legs plus an optional
dense amplitude shadow.  Legos combine by tensor product, which joins any
number of factors at once, and fuse by self-trace, which glues two legs
through an unnormalized Bell kernel.  The symbolic side of a trace keeps
every element of the group that matches on the traced legs,

    x[j] == x[k]  and  z[j] + z[k] == 0 (mod N).

Before matching, the group is restricted to the Bell sector the trace keeps
and completed to its full logical identity group.  In a one-codeword state
whose support strings collide in pairs on the traced legs, the pairs are
combined exactly into the traced phase table, so that amplitude
cancellation cannot hide symmetries of the result.  Tracing with an X
inserted on the bond flips the diagonal condition to z[j] == z[k] and adds
2 z[j] to the surviving phase.

The generators split the legs into blocks (connected components of their
supports, each with its own rows), and the group is their product, so a
lego holds it as that list of blocks: a flat group is split once, a tensor
product joins its factors' blocks, and the flat group is merged only when
read.  A trace matches on the blocks holding its two legs (the front) and
splits only the traced front; every other block (a spectator) is completed
once, carrying its codeword and logical counts, and handed through on
shifted legs.  The cost of a trace follows the blocks it touches, not the
network, and the counting check reads only blocks no trace completed.

Each lego carries a record of the work its lineage has done, keyed by a
block's own group (precision, leg count and generators) rather than its legs:
a spectator block maps to its completed group and counts, and a bond front
(the restricted group on the blocks a bond touches, bond legs first, with
the trace mode and rebuild flag) to the blocks of its matched group, or
None when it vanished.  Completion and front matching are pure in these
keys, so a block or front met again, on another copy of the same lego or
at other legs, is read from the record instead of being recomputed.  A new
lego starts with an empty record, a trace extends a copy of it and a
tensor product takes the union, so the record never leaves one network.
The gain needs blocks or fronts repeated within one network: chains of
copies of one lego have them, while the shipped networks repeat none.

Re-designating a physical leg as logical shortens the code in place: the
group keeps every element with no X and z == 0 on the leg, then the leg's
column is deleted.  Matching and shortening select through one routine,
which finds generators of the elements whose z entries on the removed legs
satisfy a linear condition mod N, with the exact group law, never plain row
addition.  The reverse direction materializes one implicit logical qubit as
a fresh physical leg paired with its X and Z logical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .code_structure import (
    CodewordTable,
    EmptyCodeError,
    InvariantError,
    LegBlock,
    NonRegularError,
    XpGroup,
    _completion,
    _leg_blocks,
    _phase_steps,
    canonical_form,
    codewords,
    lid_from_phase_table,
    logical_basis,
    merge_canonical_blocks,
    permute_legs,
    phase_identity,
)
from .dense_oracle import contract, stabilized_by, state_from_pairs
from .enumerator import _reduction_rows
from .registry import MalformedMatrixError, group_from_json, is_int, lookup
from .ring_linalg import ModMatrix, kernel_mod, solve_linear_mod
from .xp_algebra import XpOperator, delete_legs, embed, multiply, power

PHYSICAL = "P"
LOGICAL = "L"

X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# A tensor product drops the dense shadow above this many legs (1 MiB of
# amplitudes at 16) and records a "dense-shadow-dropped" warning.
DENSE_SHADOW_MAX_QUBITS = 16


class LegError(ValueError):
    """A trace or designation referenced an unusable leg."""


class NotIsometryError(ValueError):
    """The requested designation does not define an encoding isometry."""


@dataclass(frozen=True)
class Lego:
    """Leg blocks plus leg metadata and an optional dense shadow.

    A flat ``XpGroup`` given for ``blocks`` is canonicalized, split and gives
    ``precision``; ``group`` is the flat canonical group.  ``_record`` holds
    the completions and matchings of the lego's lineage (see the module
    docstring)."""

    blocks: tuple[LegBlock, ...]
    designation: tuple[str, ...]
    dense: np.ndarray | None = None
    warnings: tuple[str, ...] = ()
    _record: dict[object, object] = field(default_factory=dict, compare=False, repr=False)
    precision: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.blocks, XpGroup):
            group = canonical_form(self.blocks)
            object.__setattr__(self, "blocks", _leg_blocks(group))
            object.__setattr__(self, "precision", group.precision)
            self.__dict__["group"] = group
        if len(self.designation) != sum(len(block.legs) for block in self.blocks):
            raise LegError("designation length must equal the leg count")
        if not set(self.designation) <= {PHYSICAL, LOGICAL}:
            raise LegError(f"designation entries must be {PHYSICAL!r} or {LOGICAL!r}")
        if self.dense is not None:
            if self.dense.shape[0] != 2 ** self.n:
                raise LegError("dense shadow dimension does not match leg count")
            with np.errstate(over="ignore"):  # a norm that overflows is still > 1e-12
                nonzero = np.linalg.norm(self.dense) > 1e-12
            if nonzero and not stabilized_by(self.group.generators, self.dense, tol=1e-9):
                raise ValueError("dense shadow is not stabilized by the generators")

    @property
    def n(self) -> int:
        return len(self.designation)

    @cached_property
    def group(self) -> XpGroup:
        return merge_canonical_blocks(self.n, self.precision,
                                      [(block.group, block.legs) for block in self.blocks])


def lego_from_group(group: XpGroup, dense: np.ndarray | None = None,
                    designation: Sequence[str] | None = None) -> Lego:
    des = tuple(designation) if designation is not None else (PHYSICAL,) * group.n
    return Lego(group, des, dense)


def state_lego(group: XpGroup) -> Lego:
    """Lego for a group that pins a single state; shadow built symbolically."""
    group = canonical_form(group)
    dense = None
    if group.n <= DENSE_SHADOW_MAX_QUBITS:
        table = codewords(group)
        if len(table.orbits.e_m) == 1:
            dense = state_from_pairs(table.entries[0], group.n, group.precision)
    return lego_from_group(group, dense)


def tensor_product(*legos: Lego) -> Lego:
    """Disjoint union of the legos' legs, in order: the factors' leg blocks,
    each moved past the legs before it.  The shadow is the Kronecker product
    until a factor has none, or takes it past ``DENSE_SHADOW_MAX_QUBITS``
    legs (with a warning)."""
    if not legos:
        raise LegError("a tensor product needs at least one lego")
    if len({lego.precision for lego in legos}) != 1:
        raise ValueError("tensor product needs equal precision")
    offsets = np.cumsum([0] + [lego.n for lego in legos]).tolist()
    blocks = tuple(block._replace(legs=tuple(start + leg for leg in block.legs))
                   for lego, start in zip(legos, offsets) for block in lego.blocks)
    dense, warnings = legos[0].dense, legos[0].warnings
    for lego, n in zip(legos[1:], offsets[2:]):
        wide = dense is not None and lego.dense is not None and n > DENSE_SHADOW_MAX_QUBITS
        warnings += lego.warnings + ("dense-shadow-dropped",) * wide
        dense = None if dense is None or lego.dense is None or wide else np.kron(dense, lego.dense)
    return Lego(blocks, sum((lego.designation for lego in legos), ()), dense, warnings,
                {key: v for lego in legos for key, v in lego._record.items()}, legos[0].precision)


def _traced_table_if_collisions(table: CodewordTable) -> list[tuple[int, int]] | None:
    """Traced phase table of a one-codeword table whose strings collide on
    the first two legs, empty when every colliding pair cancels.

    Returns None when no rebuild applies: several codewords, no two support
    strings differ exactly on the traced legs, or surviving pairs of unequal
    amplitude, which no XP state has.  One codeword is one orbit of the x
    span, so once two strings collide every string has its partner.
    """
    if len(table.orbits.e_m) != 1:
        return None
    precision, two_n = table.precision, 2 * table.precision
    flip = 3 << (table.n - 2)  # both traced legs
    rest = table.strings & ~flip
    if len(set(rest.tolist())) == rest.size:
        return None
    # The traced legs read 00 or 01 on the lower string of each pair: the first half.
    half = table.strings.size // 2
    d = _phase_steps(table.strings, table.phases, [flip])[0, :half] % two_n
    dcls = np.minimum(d, two_n - d)
    live = d != precision  # a pair with d == N cancels
    if np.unique(dcls[live]).size > 1:
        return None
    # Amplitude w^a (1 + w^d); dividing out the common pair factor
    # leaves exponent a, or a - dcls for the mirrored class.
    a = table.phases[:half]
    phases = np.where(d == dcls, a, (a - dcls) % two_n)
    return list(zip(rest[:half][live].tolist(), phases[live].tolist()))


def _vanishing_subgroup(g: XpGroup, column: Sequence[int]) -> list[XpOperator]:
    """Generators of the elements of canonical ``g`` whose column vanishes.

    The column of an operator is sum(column[i] * z[i]) mod N over the legs
    a trace or a shortening removes.  At most one row, the lead, has X on
    leg 0 and no other row may have X on a leg the column reads, so every
    element is lead^e * h with h an ordered product of powers of the other
    rows, and the column of h is linear in their exponents.  Rows with
    column 0 stay; the kernel of the column over the others, kept in
    canonical order (x rows first), gives their vanishing products, and its
    Howell form spans the diagonal part, so no product is missed; one solve
    completes the lead when it can be.
    """
    precision = g.precision
    reads = [(i, c) for i, c in enumerate(column) if c]
    rows = list(g.generators)
    lead = rows.pop(0) if rows and rows[0].x[0] else None
    if any(op.x[i] for op in rows for i, _ in reads):
        raise InvariantError("a row past the lead has X on a removed leg")

    def col(op: XpOperator) -> int:
        return sum(c * op.z[i] for i, c in reads) % precision

    def product(start: XpOperator, coeffs: Sequence[int]) -> XpOperator:
        for c, r in zip(coeffs, live):
            if c:
                start = multiply(start, power(r, c))
        return start

    kept = [r for r in rows if not col(r)]
    live = [r for r in rows if col(r)]
    sol = None if lead is None or col(lead) else ()
    if live:
        cmat = ModMatrix.from_rows([[col(r)] for r in live], precision)
        kept += [product(XpOperator.identity(g.n, precision), coeffs)
                 for coeffs in kernel_mod(cmat).entries]
        if lead is not None:
            sol = solve_linear_mod(cmat, (-col(lead),))
    if sol is not None:
        kept.append(product(lead, sol))
    if any(col(op) for op in kept):
        raise InvariantError("a kept element has a nonzero column")
    return [op for op in kept if not op.is_identity]


def _trace_front_two(group: XpGroup, mode: str, rebuild: bool = True) -> XpGroup | None:
    """Operator matching on the first two legs of a group.

    The rows must include generators of the diagonal subgroup, as the rows
    of the leg blocks of a canonical group that the bond touches do, placed
    on the front legs in any order.  Returns the post-trace group (columns
    0 and 1 removed, canonical), or None when the traced state vanishes: the
    support restriction leaves no string, every colliding pair cancels, or
    matching keeps a phase times identity.  Matching keeps every
    element of the completed group with x[0] == x[1] and z[0] + z[1] == 0
    (z[0] == z[1] with an X inserted), through ``_vanishing_subgroup``.
    ``rebuild`` is False when the group is one factor of a code whose other
    factors hold several codewords: the whole code then has several, so the
    one-codeword collision rebuild does not apply.  The restricted group and
    its completion share one codeword table, so the completion's table is
    the one the collision check reads.
    """
    precision, n = group.precision, group.n

    # Sweep X on the traced legs into one pivot row per leg.  A pivot with X
    # on one traced leg alone never matches, but the product of two does;
    # dropping such pivots loses no other matched element, as their squares
    # and commutators are diagonal, so products of the diagonal rows.
    rows, pivots = list(group.generators), []
    for leg in (0, 1):
        pivot = next((r for r in rows if r.x[leg]), None)
        if pivot is not None:
            rows.remove(pivot)
            rows = [multiply(r, pivot) if r.x[leg] else r for r in rows]
            pivots = [multiply(r, pivot) if r.x[leg] else r for r in pivots] + [pivot]
    rows += [r for r in pivots if r.x[0] == r.x[1]]
    lone = [r for r in pivots if r.x[0] != r.x[1]]
    if len(lone) == 2:
        rows.append(multiply(*lone))
    # Restrict the support to the kept Bell sector (e[0] == e[1], or
    # e[0] != e[1] with an X inserted), then rebuild the full logical
    # identity group: the restricted object can have strictly finer
    # symmetries than the presentation generates.
    sign = 1 if mode == "plain" else -1
    rows.append(XpOperator(precision, (0,) * n, (1, -sign) + (0,) * (n - 2), sign - 1))
    try:
        g, table = _completion(XpGroup(precision, n, tuple(rows)))
    except EmptyCodeError:
        return None

    # With the support restricted, distinct strings can land on the same
    # traced string when they differ exactly on the two traced legs.  Their
    # amplitudes then add and can cancel, which is invisible to operator
    # matching; in that situation a one-codeword result is rebuilt exactly
    # from its combined phase table.
    pairs = _traced_table_if_collisions(table) if rebuild else None
    if pairs is not None:
        if not pairs:
            return None
        lid = lid_from_phase_table(pairs, g.n - 2, precision)
        if lid is not None:
            return lid

    matched = _vanishing_subgroup(g, (1, sign) + (0,) * (g.n - 2))
    if any(op.x[0] != op.x[1] for op in matched):
        raise InvariantError("a matched element has X on one traced leg only")
    # An inserted X adds 2 z[0] to the surviving phase.
    survivors = tuple(XpOperator(precision, op.x[2:], op.z[2:], op.phase + (1 - sign) * op.z[0])
                      for op in matched)
    traced = canonical_form(XpGroup(precision, g.n - 2, survivors))
    # A phase times identity stabilizes nothing: the traced state vanished.
    return None if phase_identity(traced) is not None else traced


def _trace_blocks(lego: Lego, j: int, k: int, mode: str,
                  ) -> tuple[tuple[LegBlock, ...], dict[object, object]]:
    """Trace legs j and k of a lego on the leg blocks that hold them.

    Matching runs on the front: the blocks holding j and k, bond legs first.
    Every spectator is brought, once, to what a trace of the whole group
    makes of it, its full logical identity group.  The collision rebuild
    needs the whole code to hold one codeword, so it runs only when every
    spectator does; an annihilated front or spectator leaves the empty group
    on every remaining leg.  Completions and front matchings are read from
    the lego's record when it holds them.

    Returns the traced blocks and a copy of the record extended with the
    completions and the matching this trace made.
    """
    n, precision = lego.n, lego.precision
    record = dict(lego._record)
    shift = [leg - (leg > j) - (leg > k) for leg in range(n)]
    touched, kept = [], []
    for block in lego.blocks:
        if j in block.legs or k in block.legs:
            touched.append(block)
            continue
        if block.codewords is None:
            if block.group not in record:
                try:
                    done, table = _completion(block.group)
                except EmptyCodeError:
                    return _leg_blocks(XpGroup(precision, n - 2, ())), record
                record[block.group] = done, len(table.orbits.e_m), len(table.orbits.logical_x_dirs)
            block = LegBlock(block.legs, *record[block.group])
        kept.append(block._replace(legs=tuple(shift[leg] for leg in block.legs)))
    one_codeword = all(block.codewords == 1 for block in kept)
    front = [j, k] + sorted(leg for block in touched for leg in block.legs if leg not in (j, k))
    on_front = {leg: i for i, leg in enumerate(front)}
    rows = XpGroup(precision, len(front), tuple(
        embed(op, len(front), [on_front[leg] for leg in block.legs])
        for block in touched for op in block.group.generators))
    key = rows, mode, one_codeword
    if key not in record:
        traced = _trace_front_two(rows, mode, rebuild=one_codeword)
        record[key] = None if traced is None else _leg_blocks(traced)
    if record[key] is None:
        return _leg_blocks(XpGroup(precision, n - 2, ())), record
    kept += [LegBlock(tuple(shift[front[2 + leg]] for leg in block.legs), block.group)
             for block in record[key]]
    return tuple(kept), record


def _insertion_mode(insertion) -> tuple[str, np.ndarray | None]:
    """Trace mode and dense bond kernel of a bond insertion.

    ``None``, ``"I"`` or an identity matrix give a plain trace and ``"X"`` or
    an X matrix an ``insert_x`` trace, both on the check matrix; any other
    2x2 numeric matrix gives ``dense-only``, applied on the dense shadow
    alone.  Anything else raises LegError.
    """
    if insertion is None or isinstance(insertion, str):
        name = "I" if insertion is None else insertion.upper()
        if name not in ("I", "X"):
            raise LegError(f"unknown named insertion {insertion!r}")
        return ("plain", None) if name == "I" else ("insert_x", X_MATRIX)
    try:
        mat = np.asarray(insertion)
    except ValueError:  # a ragged nested list
        mat = np.empty(0)
    if mat.shape != (2, 2) or mat.dtype.kind not in "iufc" or not np.isfinite(mat).all():
        raise LegError(f"insertion {insertion!r} is not None, 'I', 'X' or a 2x2 matrix"
                       " of finite numbers")
    if np.allclose(mat, np.eye(2)):
        return "plain", None
    if np.allclose(mat, X_MATRIX):
        return "insert_x", X_MATRIX
    return "dense-only", mat.astype(complex)


def _check_physical(lego: Lego, *legs: int) -> None:
    for leg in legs:
        if not 0 <= leg < lego.n:
            raise LegError(f"leg {leg} out of range")
        if lego.designation[leg] != PHYSICAL:
            raise LegError(f"leg {leg} is not physical")


def _trace(lego: Lego, j: int, k: int, mode: str, kernel: np.ndarray | None) -> Lego:
    if j == k:
        raise LegError("trace legs must differ")
    _check_physical(lego, j, k)

    keep = [i for i in range(lego.n) if i not in (j, k)]
    warnings = list(lego.warnings)
    if mode == "dense-only":
        if lego.dense is None:
            raise LegError("general insertions need a dense shadow")
        blocks, record = _leg_blocks(XpGroup(lego.precision, lego.n - 2, ())), lego._record
        warnings.append("dense-only")
    else:
        blocks, record = _trace_blocks(lego, j, k, mode)

    dense = None
    if lego.dense is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            dense, _ = contract([lego.dense], [(j, k)], [kernel])
            norm = np.linalg.norm(dense)
        if not np.isfinite(norm):
            raise LegError("the dense contraction left a shadow whose norm is not finite")
        if norm < 1e-12:
            warnings.append("empty-trace")
    if not any(block.group.generators for block in blocks) and keep and mode != "dense-only":
        warnings.append("trivial-symbolic-group")
    designation = tuple(lego.designation[i] for i in keep)
    return Lego(blocks, designation, dense, tuple(dict.fromkeys(warnings)), record, lego.precision)


def self_trace(lego: Lego, j: int, k: int) -> Lego:
    """Bell fusion of two physical legs of the same lego."""
    return _trace(lego, j, k, "plain", None)


def trace_with_insertion(lego: Lego, j: int, k: int, insertion) -> Lego:
    """Trace two legs against (I x U)|Bell>.

    The check-matrix path supports U = identity and U = X; any other
    single-qubit matrix is applied on the dense shadow only, and the result
    carries a ``dense-only`` warning with an empty symbolic group.
    """
    mode, kernel = _insertion_mode(insertion)
    if mode == "plain":
        return self_trace(lego, j, k)
    return _trace(lego, j, k, mode, kernel)


def conjoin(a: Lego, b: Lego, leg_a: int, leg_b: int) -> Lego:
    """Contraction of two distinct legos: tensor product then self-trace."""
    combined = tensor_product(a, b)
    return self_trace(combined, leg_a, a.n + leg_b)


def _check_shortening_isometry(lego: Lego, leg: int) -> None:
    """Maximal-entanglement precondition for making ``leg`` logical.

    The codeword blocks split by the leg's bit must form a scaled isometry.
    Two codewords' blocks with the same bit have disjoint supports, so this
    asks for equal string counts in every block and, for every pair of
    codewords (c, c'), that the sum of w^(p'(e ^ L) - p(e)) over strings e
    of c with the leg bit clear and e ^ L in c' is exactly zero.
    """
    table = codewords(lego.group)
    two_n, k = 2 * table.precision, len(table.orbits.e_m)
    flip = 1 << (table.n - 1 - leg)
    strings, phases, owner = table.strings, table.phases, table.owner
    is_set = (strings & flip) != 0
    counts = np.bincount(owner + k * is_set, minlength=2 * k)
    src = np.flatnonzero(~is_set)
    dst = np.searchsorted(strings, strings[src] | flip).clip(max=strings.size - 1)
    found = strings[dst] == strings[src] | flip
    src, dst = src[found], dst[found]
    keys, pair = np.unique(owner[src] * k + owner[dst], return_inverse=True)
    sums = np.zeros((keys.size, two_n), dtype=np.int64)
    np.add.at(sums, (pair, (phases[dst] - phases[src]) % two_n), 1)
    if np.any(counts != counts[0]) or np.any(sums @ _reduction_rows(two_n)):
        raise NotIsometryError(f"leg {leg} is not maximally entangled with the rest")


def shorten_to_logical(lego: Lego, leg: int) -> Lego:
    """Re-designate a physical leg as logical by code shortening: keep every
    element with no X and z == 0 on the leg, then delete the leg."""
    _check_physical(lego, leg)
    _check_shortening_isometry(lego, leg)
    order = [leg] + [i for i in range(lego.n) if i != leg]
    front = canonical_form(permute_legs(lego.group, order))
    kept = _vanishing_subgroup(front, (1,) + (0,) * (lego.n - 1))
    cut = tuple(delete_legs(op, (0,)) for op in kept if not op.x[0])
    designation = tuple(d for i, d in enumerate(lego.designation) if i != leg)
    return Lego(XpGroup(lego.precision, lego.n - 1, cut), designation, None, lego.warnings)


def materialize_logical(lego: Lego, logical_index: int = 0) -> Lego:
    """Re-designate one implicit logical qubit as a new trailing physical leg.

    The new leg pairs the chosen non-diagonal logical with X and the
    matching diagonal logical with Z, so the enlarged group stabilizes the
    channel state of the encoding map.
    """
    group = canonical_form(lego.group)
    basis = logical_basis(group)
    k = len(basis.coords)
    if not 0 <= logical_index < k:
        raise LegError(f"logical index {logical_index} out of range for k={k}")
    n, precision = group.n, group.precision
    solved = basis.x[logical_index]
    if solved is None:
        raise NonRegularError("no XP completion for the logical direction")
    xbar, gammas = solved
    zbar = basis.z_logicals()[logical_index]

    # The per-orbit phases must be constant on each slice of the chosen
    # logical bit and differ by an even amount between the slices.
    slices = [{gamma for b, gamma in zip(basis.coords[logical_index], gammas) if b == bit}
              for bit in (0, 1)]
    if any(len(s) > 1 for s in slices):
        raise NonRegularError("logical phase does not factor through the chosen qubit")
    gamma0, gamma1 = (min(s, default=0) for s in slices)
    if (gamma1 - gamma0) % 2:
        raise NonRegularError("logical phase needs a half step; no XP leg operator")

    # The solved logical sends codeword b to omega^(-gamma_b) times its
    # image, so the leg factor X P^s with phase t must supply t = gamma_0
    # and t + 2s = gamma_1.
    two_n = 2 * precision
    leg_phase = gamma0 % two_n
    leg_z = ((gamma1 - gamma0) // 2) % precision
    x_pair = multiply(embed(xbar, n + 1, list(range(n))),
                      XpOperator(precision, (0,) * n + (1,), (0,) * n + (leg_z,), leg_phase))
    z_pair = multiply(embed(zbar, n + 1, list(range(n))),
                      XpOperator(precision, (0,) * (n + 1), (0,) * n + (precision // 2,), 0))

    gens = [embed(op, n + 1, list(range(n))) for op in group.generators]
    gens += [x_pair, z_pair]
    return Lego(XpGroup(precision, n + 1, tuple(gens)), lego.designation + (PHYSICAL,), None,
                lego.warnings)


def redesignate(lego: Lego, leg: int, role: str) -> Lego:
    """Flip a leg designation: ``role`` is the new role of the leg.

    Physical to logical removes the leg by shortening; logical to physical
    materializes implicit logical qubit number ``leg`` as a new trailing leg.
    """
    if role == LOGICAL:
        return shorten_to_logical(lego, leg)
    if role == PHYSICAL:
        return materialize_logical(lego, leg)
    raise LegError(f"unknown role {role!r}")


# ---------------------------------------------------------------------------
# Network files: a list of named legos plus bonds between (lego, leg) pairs.

def _check_network(doc) -> dict[str, list]:
    """Raise LegError unless ``doc`` has the shape of a network file.

    Returns its bonds, designate and order lists, empty where absent.
    """
    if not (isinstance(doc, dict) and isinstance(doc.get("legos"), list) and doc["legos"]):
        raise LegError("a network is an object with a non-empty list of legos")
    for i, spec in enumerate(doc["legos"]):
        if not (isinstance(spec, dict) and ("name" in spec or "matrix" in spec)
                and isinstance(spec.get("name", ""), str)):
            raise LegError(f"lego {i} needs a name string or a matrix")
    lists = {key: [] if doc.get(key) is None else doc[key]
             for key in ("bonds", "designate", "order")}
    if not all(isinstance(v, list) for v in lists.values()):
        raise LegError("bonds, designate and order must be lists")
    for bond in lists["bonds"]:
        if not (isinstance(bond, list) and len(bond) in (4, 5)
                and all(is_int(v) for v in bond[:4])):
            raise LegError(f"bond {bond!r} is not four integer indices [legoA, legA, legoB,"
                           " legB] and an optional insertion")
        _insertion_mode(bond[4] if len(bond) == 5 else None)
    if not all(is_int(v) for v in lists["designate"] + lists["order"]):
        raise LegError("designate and order must list integer leg indices")
    if len(set(lists["designate"])) != len(lists["designate"]):
        raise LegError(f"designate {lists['designate']} lists a leg more than once")
    return lists


def run_network(doc: dict) -> Lego:
    """Contract a lego network description.

    Schema: {"legos": [{"name": ...} | {"matrix": {...}}, ...],
             "bonds": [[legoA, legA, legoB, legB] or
                       [legoA, legA, legoB, legB, insertion], ...],
             "designate": [post-trace leg index, ...],
             "order": [final leg order, ...]}

    Legs are numbered globally in lego order; bonds consume legs but the
    global numbering is preserved until the end, when surviving legs are
    packed in order.  Designation indices refer to the packed result, and
    the optional "order" relabels the legs that remain after designation
    (entry i is the leg that becomes position i).
    """
    lists = _check_network(doc)
    legos: list[Lego] = []
    built: dict[str, Lego] = {}
    for i, spec in enumerate(doc["legos"]):
        if "name" in spec:
            name = spec["name"]
            if name not in built:
                built[name] = state_lego(lookup(name).group)
            legos.append(built[name])
        else:
            try:
                group, designation = group_from_json(spec["matrix"])
            except MalformedMatrixError as exc:
                raise LegError(f"lego {i}: {exc}") from exc
            legos.append(lego_from_group(group, designation=designation))
    combined = tensor_product(*legos)

    offsets = np.cumsum([0] + [l.n for l in legos]).tolist()
    alive = list(range(combined.n))
    current = combined
    for bond in lists["bonds"]:
        la, ja, lb, jb, *rest = bond
        for lego, leg in ((la, ja), (lb, jb)):
            if not 0 <= lego < len(legos) or not 0 <= leg < legos[lego].n:
                raise LegError(f"bond {bond}: lego {lego} has no leg {leg}")
        a = offsets[la] + ja
        b = offsets[lb] + jb
        if a not in alive or b not in alive:
            raise LegError("bond endpoint already contracted")
        insertion = rest[0] if rest else None
        current = trace_with_insertion(current, alive.index(a), alive.index(b), insertion)
        alive = [leg for leg in alive if leg not in (a, b)]
    for leg in sorted(lists["designate"], reverse=True):
        current = shorten_to_logical(current, leg)
    order = doc.get("order")
    if order is not None:
        if sorted(order) != list(range(current.n)):
            raise LegError("order must be a permutation of the surviving legs")
        group = permute_legs(current.group, order)
        designation = tuple(current.designation[i] for i in order)
        dense = None
        if current.dense is not None:
            t = current.dense.reshape((2,) * current.n)
            dense = np.transpose(t, axes=order).reshape(-1)
        current = Lego(group, designation, dense, current.warnings)
    return current
