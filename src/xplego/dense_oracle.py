"""Exact complex state-vector backend at desk scale.

Renders XP operators and groups as dense vectors and matrices, performs
Bell-fusion contraction of tensor-network states, and derives the full XP
symmetry group of a dense state when one exists.  Phases are computed from
integer exponents of the primitive root of unity, so group identities hold
to machine precision.

Operators act on basis kets through their sparse column structure (one
nonzero per column); full matrices are only materialized where a trace or
projector is genuinely needed.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .code_structure import (
    EmptyCodeError,
    SizeLimitError,
    XpGroup,
    _exponent_table,
    _support_bits,
    canonical_form,
    lid_from_phase_table,
    phase_identity,
)
from .xp_algebra import XpOperator, multiply

# A dense projector holds 4^n complex numbers: 256 MiB at 12 qubits.
PROJECTOR_MAX_QUBITS = 12


class InvalidUnitaryError(ValueError):
    """A local factor fails the unitarity check."""


def omega_table(precision: int) -> np.ndarray:
    """All 2N powers of w = exp(i*pi/N)."""
    return np.exp(1j * np.pi * np.arange(2 * precision) / precision)


def _phase_exponents(op: XpOperator) -> np.ndarray:
    two_n = 2 * op.precision
    return (op.phase + _exponent_table(op.z, two_n)) % two_n


def operator_action(op: XpOperator) -> tuple[np.ndarray, np.ndarray]:
    """Phase vector and targets of the sparse action |e> -> w^(p + 2 z.e) |e xor x>.

    The target map e -> e xor x is its own inverse, so ``(phases * vec)[targets]``
    is the acted-on vector; batches of row vectors index their last axis.
    """
    phases = omega_table(op.precision)[_phase_exponents(op)]
    return phases, np.arange(2 ** op.n) ^ op.x_mask


def apply_operator(op: XpOperator, arr: np.ndarray) -> np.ndarray:
    """Sparse action |e> -> w^(p + 2 z.e) |e xor x> along axis 0: a vector or matrix columns."""
    if arr.shape[0] != 2 ** op.n:
        raise ValueError("state dimension does not match operator")
    phases, targets = operator_action(op)
    out = np.zeros(arr.shape, dtype=complex)
    out[targets] = phases.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr
    return out


def render_operator(op: XpOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the operator."""
    if op.n > PROJECTOR_MAX_QUBITS:
        raise SizeLimitError(
            f"a dense rendering of {op.n} qubits exceeds the {PROJECTOR_MAX_QUBITS}-qubit limit")
    return apply_operator(op, np.eye(2 ** op.n, dtype=complex))


def basis_state(e: int, n: int) -> np.ndarray:
    vec = np.zeros(2 ** n, dtype=complex)
    vec[e] = 1.0
    return vec


def state_from_pairs(pairs: Sequence[tuple[int, int]], n: int, precision: int) -> np.ndarray:
    """Unnormalized sum of w^phase |e> over (e, phase) pairs."""
    table = omega_table(precision)
    vec = np.zeros(2 ** n, dtype=complex)
    for e, ph in pairs:
        vec[e] += table[ph % (2 * precision)]
    return vec


def projector(g: XpGroup) -> np.ndarray:
    """Code projector in product form.

    Multiplies the averaged factors (1/2)(I + S) over the non-diagonal
    generators and (1/N) sum of powers over the diagonal ones.  Raises
    EmptyCodeError when the presentation is inconsistent or stabilizes
    nothing, and SizeLimitError above ``PROJECTOR_MAX_QUBITS`` qubits,
    before anything is allocated.
    """
    if g.n > PROJECTOR_MAX_QUBITS:
        raise SizeLimitError(
            f"a dense projector of {g.n} qubits exceeds the {PROJECTOR_MAX_QUBITS}-qubit limit")
    g = canonical_form(g)
    if phase_identity(g) is not None:
        raise EmptyCodeError("group contains a nontrivial phase times identity")
    dim = 2 ** g.n
    mat = np.eye(dim, dtype=complex)
    table = omega_table(g.precision)
    for op in reversed(g.generators):
        if op.is_diagonal:
            expo = _phase_exponents(op)
            diag = np.zeros(dim, dtype=complex)
            for l in range(g.precision):
                diag += table[(l * expo) % (2 * g.precision)]
            mat = (diag / g.precision)[:, None] * mat
        else:
            mat = (mat + apply_operator(op, mat)) / 2.0
    if abs(np.trace(mat)) < 0.5:
        raise EmptyCodeError("projector has vanishing trace")
    return mat


def group_elements(g: XpGroup, limit: int = 4096) -> list[XpOperator]:
    """Breadth-first closure of the generated group, for oracle checks."""
    gens = [op for op in g.generators]
    seen = {XpOperator.identity(g.n, g.precision)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = multiply(a, s)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > limit:
                        raise ValueError(f"group larger than {limit}")
        frontier = nxt
    return sorted(seen, key=lambda o: (o.x, o.z, o.phase))


def stabilizes(op, state: np.ndarray, tol: float = 1e-9) -> bool:
    """True when op fixes the state: ||op s - s|| <= tol * ||s||."""
    return stabilized_by((op,), state, tol)


def stabilized_by(ops, state: np.ndarray, tol: float = 1e-9) -> bool:
    """True when every op fixes the state: ||op s - s|| <= tol * ||s||.

    The state is divided by its largest magnitude first, once for all ops,
    so that the norms of huge finite amplitudes do not overflow.  An XP
    operator is read on the nonzero support S alone, which the ops share:
    op s - s is w^phase(e) s[e] - s[e ^ x] at e in S, where s[e ^ x] is 0
    when e ^ x leaves S, plus -s[e] on each such e ^ x.  A matrix op is
    applied to the whole state.
    """
    scale = np.max(np.abs(state), initial=0.0)
    if 0 < scale < np.inf:
        state = state / scale
    bound = tol * np.linalg.norm(state)
    support = np.flatnonzero(state)
    amps = state.reshape(-1)[support]
    bits = _support_bits(support, state.shape[0].bit_length() - 1)
    for op in ops:
        if isinstance(op, XpOperator):
            if state.shape != (2 ** op.n,):
                raise ValueError("state dimension does not match operator")
            expo = (op.phase + 2 * np.asarray(op.z, dtype=np.int64) @ bits) % (2 * op.precision)
            partner = support ^ op.x_mask
            at = np.searchsorted(support, partner).clip(max=support.size - 1)
            found = support[at] == partner
            moved = omega_table(op.precision)[expo] * amps - np.where(found, amps[at], 0)
            gap = np.linalg.norm(np.concatenate([moved, amps[~found]]))
        else:
            gap = np.linalg.norm(np.asarray(op) @ state - state)
        if not gap <= bound:
            return False
    return True


def contract(states: Sequence[np.ndarray], bonds: Sequence[tuple[int, int]],
             insertions: Sequence[np.ndarray | None] | None = None,
             ) -> tuple[np.ndarray, list[int]]:
    """Bell-fusion contraction of a list of state vectors.

    Legs are numbered globally in tensor order.  Each bond (j, k) sums the
    two indices against the kernel <Phi|(I x U) with |Phi> = |00> + |11>
    unnormalized; ``insertions`` holds one U per bond, None for the
    identity.  Returns the contracted vector and the surviving global leg
    indices in order.
    """
    ns = [int(np.log2(s.shape[0])) for s in states]
    vec = reduce(np.kron, states) if len(states) > 1 else np.asarray(states[0], dtype=complex)
    total = sum(ns)
    tensor = vec.reshape((2,) * total) if total else vec.reshape(())
    if insertions is None:
        insertions = [None] * len(bonds)
    if len(insertions) != len(bonds):
        raise ValueError(f"{len(bonds)} bonds need one insertion each, got {len(insertions)}")
    alive = list(range(total))
    for (j, k), ins in zip(bonds, insertions):
        if j == k:
            raise ValueError("bond endpoints must differ")
        if j not in alive or k not in alive:
            raise ValueError("bond endpoint already contracted")
        if ins is None:
            kernel = np.eye(2, dtype=complex)
        else:
            u = np.asarray(ins, dtype=complex)
            kernel = u.T.conj()
        aj, ak = alive.index(j), alive.index(k)
        tensor = np.tensordot(tensor, kernel, axes=([aj, ak], [0, 1]))
        alive = [leg for leg in alive if leg not in (j, k)]
    return tensor.reshape(-1), alive


def lu_conjugate(mat: np.ndarray, factors: Sequence[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """(U1 x ... x Un) mat (U1 x ... x Un)^dagger with unitarity checked."""
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if np.linalg.norm(f.conj().T @ f - np.eye(f.shape[0])) > tol:
            raise InvalidUnitaryError("factor is not unitary")
    u = reduce(np.kron, [np.asarray(f, dtype=complex) for f in factors])
    return u @ mat @ u.conj().T


def xp_state_from_dense(vec: np.ndarray, precision: int, tol: float = 1e-9,
                        ) -> XpGroup | None:
    """Full XP symmetry group of a dense state, or None when it is not XP.

    A state is XP at the given precision when its support amplitudes share
    one magnitude, the support is an affine GF(2) space, the relative
    phases are powers of w, every support direction admits an XP completion
    consistent with those phases, and the resulting group fixes the state
    alone (one-dimensional stabilized space).
    """
    vec = np.asarray(vec, dtype=complex)
    n = int(np.log2(vec.shape[0]))
    mags = np.abs(vec)
    amax = float(np.max(mags))
    if not 0.0 < amax < np.inf:  # a zero vector, or a non-finite entry
        return None
    on = mags > 0.5 * amax
    if np.any(mags[~on] > tol * amax):
        return None
    if np.any(np.abs(mags[on] - amax) > tol * amax):
        return None
    support = np.flatnonzero(on).tolist()

    e0 = support[0]
    two_n = 2 * precision
    table = omega_table(precision)
    pairs: list[tuple[int, int]] = []
    for e in support:
        ratio = vec[e] / vec[e0]
        k = int(round(np.angle(ratio) / (np.pi / precision))) % two_n
        if abs(ratio - table[k]) > 10 * tol:
            return None
        pairs.append((e, k))

    group = lid_from_phase_table(pairs, n, precision)
    if group is None:
        return None
    if not stabilized_by(group.generators, vec, tol=1e-7):
        return None
    return group


# Common single-qubit unitaries, unnormalized Hadamard excluded on purpose.
def hadamard_unitary() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def phase_unitary(precision: int, exponent: int) -> np.ndarray:
    """diag(1, w^exponent); exponent counts half-steps of P = diag(1, w^2)."""
    return np.diag([1.0, np.exp(1j * np.pi * exponent / precision)]).astype(complex)
