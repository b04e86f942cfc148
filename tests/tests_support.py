"""Shared helpers: the phase of an XP operator on one basis string, random
XP states built from twisted stabilizer states, a brute-force biased
distance over dense Pauli strings, the trace of a whole group by operator
matching, a group from rows written as digit strings, the matched subgroup
of a trace and the kept subgroup of a shortening by brute force over the
group's elements, the counting certificate read from the orbit structure of
the whole group, the dense projector of a first-round decoding sector, and
the canonical form computed with ``XpOperator`` products."""

from __future__ import annotations

import random
from functools import reduce
from typing import Sequence

import numpy as np

from xplego.code_structure import (
    EmptyCodeError,
    XpGroup,
    canonical_form,
    complete_lid,
    orbit_decomposition,
    permute_legs,
    phase_identity,
)
from xplego.dense_oracle import (
    basis_state,
    group_elements,
    hadamard_unitary,
    projector,
    render_operator,
)
from xplego.enumerator import PAULI_LIST
from xplego.lego import _trace_front_two
from xplego.ring_linalg import ModMatrix, howell_form
from xplego.xp_algebra import XpOperator, conjugate, delete_legs, inverse, multiply, power


def action_phase(op: XpOperator, e: int) -> int:
    """Exponent of w that op picks up on basis index ``e`` (big endian).

    One string at a time, as the reference for the library's tables of all
    strings (``code_structure._exponent_table``).
    """
    acc = op.phase
    for i, zi in enumerate(op.z):
        if zi and (e >> (op.n - 1 - i)) & 1:
            acc += 2 * zi
    return acc % (2 * op.precision)


def random_clifford_state_vec(rng: random.Random, n: int) -> np.ndarray:
    """Random stabilizer state from a short H/S/CZ/X circuit on |0...0>."""
    vec = basis_state(0, n)
    h = hadamard_unitary()
    s = np.diag([1.0, 1.0j])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(4 * n + 2):
        kind = rng.choice(["h", "s", "cz", "x"])
        if kind == "cz" and n >= 2:
            a, b = rng.sample(range(n), 2)
            idx = np.arange(2 ** n)
            mask = (((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)).astype(bool)
            vec = vec.copy()
            vec[mask] *= -1.0
        else:
            q = rng.randrange(n)
            gate = {"h": h, "s": s, "x": x, "cz": h}[kind]
            t = vec.reshape((2,) * n)
            t = np.tensordot(gate, t, axes=([1], [q]))
            vec = np.moveaxis(t, 0, q).reshape(-1)
    return vec


def random_xp_state_vec(rng: random.Random, n: int, precision: int) -> np.ndarray:
    """Random stabilizer state twisted by random single-qubit phase gates."""
    vec = random_clifford_state_vec(rng, n)
    for q in range(n):
        k = rng.randrange(precision)
        idx = np.arange(2 ** n)
        on = ((idx >> (n - 1 - q)) & 1).astype(bool)
        vec = vec.copy()
        vec[on] *= np.exp(2j * np.pi * k / (2 * precision))
    return vec


def dense_biased_distance(pi: np.ndarray, axis: str) -> int:
    """Least weight of a string over {I, axis} that maps the code projector
    to itself but does not fix it, or n + 1 when there is none."""
    n = int(np.log2(pi.shape[0]))
    want = n + 1
    for mask in range(1, 2 ** n):
        e = reduce(np.kron, [PAULI_LIST["IXYZ".index(axis)] if (mask >> (n - 1 - q)) & 1
                             else PAULI_LIST[0] for q in range(n)])
        if (np.max(np.abs(e @ pi @ e.conj().T - pi)) <= 1e-9
                and np.max(np.abs(e @ pi - pi)) > 1e-9):
            want = min(want, bin(mask).count("1"))
    return want


def whole_group_trace(group: XpGroup, j: int, k: int, mode: str = "plain") -> XpGroup:
    """Operator matching on the whole group, with no split into blocks: the
    reference that a trace on the bond's block of legs must equal."""
    keep = [i for i in range(group.n) if i not in (j, k)]
    traced = _trace_front_two(permute_legs(canonical_form(group), [j, k] + keep), mode)
    return XpGroup(group.precision, group.n - 2, ()) if traced is None else traced


def digit_rows(precision: int, rows) -> XpGroup:
    """Group of (x, z, p) rows with x and z written as digit strings."""
    return XpGroup(precision, len(rows[0][0]), tuple(
        XpOperator(precision, tuple(map(int, x)), tuple(map(int, z)), p) for x, z, p in rows))


def brute_force_trace_front(group: XpGroup, mode: str, limit: int = 4096) -> XpGroup | None:
    """Operator matching on the first two legs by brute force: every element
    of the completed front with x[0] == x[1] and z[0] + z[1] == 0 (z[0] ==
    z[1] for ``insert_x``), legs 0 and 1 deleted.  The front is built as a
    trace builds it: rows with X on one traced leg only are merged in pairs
    or dropped, the support is restricted to the kept Bell sector, and the
    group is completed.  None when the traced state vanishes, as for
    ``_trace_front_two`` without the collision rebuild; ValueError when the
    completed front has more than ``limit`` elements."""
    n, precision = group.n, group.precision
    g = canonical_form(group)
    rows = [op for op in g.generators if op.x[0] == op.x[1]]
    lone = [op for op in g.generators if op.x[0] != op.x[1]]
    if len(lone) == 2:
        rows.append(multiply(*lone))
    sign = 1 if mode == "plain" else -1
    rows.append(XpOperator(precision, (0,) * n, (1, -sign) + (0,) * (n - 2),
                           0 if mode == "plain" else -2))
    try:
        front = complete_lid(XpGroup(precision, n, tuple(rows)))
    except EmptyCodeError:
        return None
    kept = []
    for op in group_elements(front, limit=limit):
        if op.x[0] == op.x[1] and (op.z[0] + sign * op.z[1]) % precision == 0:
            cut = delete_legs(op, (0, 1))
            fix = 2 * op.z[0] if mode == "insert_x" else 0
            kept.append(XpOperator(precision, cut.x, cut.z, cut.phase + fix))
    traced = canonical_form(XpGroup(precision, n - 2, tuple(kept)))
    return None if phase_identity(traced) is not None else traced


def brute_force_shortening(group: XpGroup, legs: Sequence[int],
                           limit: int = 4096) -> list[XpGroup]:
    """Per leg in ``legs``, the group a shortening of it must keep: every
    element with no X and z == 0 on the leg, the leg deleted, in canonical
    form.  ValueError when the group has more than ``limit`` elements."""
    elements = group_elements(canonical_form(group), limit)
    return [canonical_form(XpGroup(group.precision, group.n - 1, tuple(
        delete_legs(op, (leg,)) for op in elements if op.x[leg] == 0 and op.z[leg] == 0)))
        for leg in legs]


def whole_group_counting_check(group: XpGroup, logical_dims: int | None = None) -> bool:
    """|S_X| + k + |S_Z| == n with k read from the orbit structure of the
    whole group, with no split into blocks: the reference for the per-block
    ``counting_check``."""
    g = canonical_form(group)
    try:
        k = len(orbit_decomposition(g).logical_x_dirs)
    except EmptyCodeError:
        return False
    if logical_dims is not None and k != logical_dims:
        return False
    return len(g.x_block) + k + len(g.z_block) == g.n


def dense_sector_projector(setup, s_z) -> np.ndarray:
    """E Pi_z E^dag for a decoder setup: Pi_z is the dense projector of the
    r_z group and E the X-string representative of the sector ``s_z``."""
    rz_group = XpGroup.from_generators(setup.r_z, n=setup.n, precision=setup.precision)
    e_sz = render_operator(setup.z_representative(s_z))
    return e_sz @ projector(rz_group) @ e_sz.conj().T


def _diag_to_vec(op: XpOperator) -> tuple[int, ...]:
    """(2z|p) embedding of a diagonal operator over Z_2N."""
    two_n = 2 * op.precision
    return tuple((2 * zi) % two_n for zi in op.z) + (op.phase,)


def _vec_to_diag(vec: Sequence[int], n: int, precision: int) -> XpOperator:
    z = tuple(v // 2 for v in vec[:n])
    return XpOperator(precision, (0,) * n, z, vec[n])


def _diag_howell(ops: Sequence[XpOperator], n: int, precision: int) -> list[XpOperator]:
    if not ops:
        return []
    mat = ModMatrix.from_rows([_diag_to_vec(op) for op in ops], 2 * precision)
    return [_vec_to_diag(row, n, precision) for row in howell_form(mat).entries]


def _reduce_diag_part(op: XpOperator, basis: Sequence[XpOperator]) -> XpOperator:
    """Right-multiply by diagonal basis elements to canonicalize (2z|p)."""
    if not basis:
        return op
    two_n = 2 * op.precision
    vec = list(_diag_to_vec(op))
    for b in basis:
        bvec = _diag_to_vec(b)
        col = next(c for c, v in enumerate(bvec) if v)
        q = vec[col] // bvec[col]
        if q:
            vec = [(v - q * w) % two_n for v, w in zip(vec, bvec)]
    z = tuple(v // 2 for v in vec[: op.n])
    return XpOperator(op.precision, op.x, z, vec[op.n])


def reference_canonical_form(g: XpGroup) -> XpGroup:
    """Canonical form with ``XpOperator`` products throughout: the x block
    swept by ``multiply``, the pool of squares and commutators built as
    products (``power``, ``multiply``, ``inverse``) where ``canonical_form``
    uses closed forms, the diagonal block closed by ``conjugate`` and a
    Howell form per round until one round leaves it unchanged.  The
    reference that ``canonical_form`` must equal."""
    n, precision = g.n, g.precision
    work = [op for op in g.generators if not op.is_identity]
    sx: list[XpOperator] = []
    for col in range(n):
        idx = next((i for i, op in enumerate(work) if op.x[col]), None)
        if idx is None:
            continue
        pivot = work.pop(idx)
        work = [multiply(op, pivot) if op.x[col] else op for op in work]
        sx = [multiply(op, pivot) if op.x[col] else op for op in sx]
        sx.append(pivot)
    pool: list[XpOperator] = [op for op in work]
    for s in sx:
        pool.append(power(s, 2))
    for i in range(len(sx)):
        for j in range(i + 1, len(sx)):
            ab = multiply(sx[i], sx[j])
            ba = multiply(sx[j], sx[i])
            pool.append(multiply(ab, inverse(ba)))
    basis = _diag_howell(pool, n, precision)
    while True:
        extra = [conjugate(s, d) for s in sx for d in basis]
        new_basis = _diag_howell(list(basis) + extra, n, precision)
        if new_basis == basis:
            break
        basis = new_basis
    sx = [_reduce_diag_part(op, basis) for op in sx]
    return XpGroup(precision, n, tuple(sx) + tuple(basis), canonical=True)
