"""Dense backend tests: rendering, contraction, the stabilization check on a
state's support, and the symmetry certificate."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from xplego.code_structure import SizeLimitError, XpGroup, canonical_form, codewords
from xplego.dense_oracle import (
    InvalidUnitaryError,
    apply_operator,
    basis_state,
    contract,
    hadamard_unitary,
    lu_conjugate,
    omega_table,
    projector,
    render_operator,
    stabilized_by,
    stabilizes,
    state_from_pairs,
    xp_state_from_dense,
)
from xplego.lego import lego_from_group
from xplego.registry import lookup
from xplego.xp_algebra import XpOperator, multiply


def random_op(rng: random.Random, n: int, precision: int) -> XpOperator:
    return XpOperator(
        precision,
        tuple(rng.randint(0, 1) for _ in range(n)),
        tuple(rng.randrange(precision) for _ in range(n)),
        rng.randrange(2 * precision),
    )


def random_clifford_state(rng: random.Random, n: int) -> np.ndarray:
    """Random stabilizer state from a short H/S/CZ/X circuit on |0...0>."""
    vec = basis_state(0, n)
    h = hadamard_unitary()
    s = np.diag([1.0, 1.0j])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(4 * n):
        kind = rng.choice(["h", "s", "cz", "x"])
        if kind == "cz" and n >= 2:
            a, b = rng.sample(range(n), 2)
            idx = np.arange(2 ** n)
            mask = (((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)).astype(bool)
            vec = vec.copy()
            vec[mask] *= -1.0
        else:
            q = rng.randrange(n)
            gate = {"h": h, "s": s, "x": x, "cz": s}[kind]
            t = vec.reshape((2,) * n)
            t = np.tensordot(gate, t, axes=([1], [q]))
            vec = np.moveaxis(t, 0, q).reshape(-1)
    return vec


def random_xp_state(rng: random.Random, n: int, precision: int) -> np.ndarray:
    """Random stabilizer state twisted by random single-qubit phase gates."""
    vec = random_clifford_state(rng, n)
    for q in range(n):
        k = rng.randrange(precision)
        idx = np.arange(2 ** n)
        on = ((idx >> (n - 1 - q)) & 1).astype(bool)
        vec = vec.copy()
        vec[on] *= np.exp(2j * np.pi * k / (2 * precision))
    return vec


def test_render_identity():
    ident = XpOperator.identity(2, 8)
    assert np.allclose(render_operator(ident), np.eye(4))


def test_render_entries_are_roots_of_unity():
    rng = random.Random(0)
    for _ in range(20):
        op = random_op(rng, 3, 8)
        mat = render_operator(op)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(8))) < 1e-12
        mags = np.abs(mat[np.abs(mat) > 1e-12])
        assert np.max(np.abs(mags - 1.0)) < 1e-12


def test_render_is_group_homomorphism():
    rng = random.Random(1)
    for _ in range(30):
        a, b = random_op(rng, 3, 8), random_op(rng, 3, 8)
        lhs = render_operator(multiply(a, b))
        rhs = render_operator(a) @ render_operator(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_magic_state_stabilizer():
    # The T-type state |0> + exp(i pi/4)|1> at precision 8.
    state = state_from_pairs([(0, 0), (1, 2)], 1, 8)
    op = XpOperator(8, (1,), (6,), 2)
    assert stabilizes(op, state, tol=1e-12)
    assert not stabilizes(XpOperator(8, (1,), (0,), 0), basis_state(0, 1), 1e-9)


def test_contract_bell_with_itself():
    bell = state_from_pairs([(0, 0), (3, 0)], 2, 8)
    vec, legs = contract([bell, bell], [(0, 2), (1, 3)])
    assert legs == []
    assert abs(vec[0] - 2.0) < 1e-12


def test_contract_with_x_insertion_is_orthogonal():
    bell = state_from_pairs([(0, 0), (3, 0)], 2, 8)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    vec, _ = contract([bell], [(0, 1)], [x])
    assert abs(vec[0]) < 1e-12


def test_contract_traced_counterexample_state():
    state = state_from_pairs(codewords(lookup("lego6-second").group).entries[0], 6, 8)
    vec, legs = contract([state], [(0, 1)])
    assert legs == [2, 3, 4, 5]
    w = omega_table(8)
    expect = np.zeros(16, dtype=complex)
    expect[0b0000] = 1
    expect[0b0010] = 1
    expect[0b1110] = w[1]
    expect[0b1100] = w[13]
    assert np.max(np.abs(vec - expect)) < 1e-12


def test_lu_conjugate_checks_unitarity():
    pi = projector(lookup("422").group)
    factors = [np.eye(2)] * 4
    assert np.max(np.abs(lu_conjugate(pi, factors) - pi)) < 1e-12
    with pytest.raises(InvalidUnitaryError):
        lu_conjugate(pi, [np.eye(2) * 2.0] + [np.eye(2)] * 3)


def test_certificate_recovers_lid_of_registry_states():
    for name in ("lego6-steane", "lego6-second", "H-magic", "bell", "ghz"):
        entry = lookup(name)
        state = state_from_pairs(codewords(entry.group).entries[0],
                                 entry.group.n, entry.group.precision)
        derived = xp_state_from_dense(state, entry.group.precision)
        assert derived is not None, name
        assert derived.generators == canonical_form(entry.group).generators, name


def test_certificate_accepts_random_twisted_states():
    rng = random.Random(5)
    for precision in (2, 4, 8):
        for _ in range(10):
            n = rng.randint(1, 4)
            vec = random_xp_state(rng, n, precision)
            group = xp_state_from_dense(vec, precision)
            assert group is not None
            for op in group.generators:
                assert stabilizes(op, vec, tol=1e-8)
            assert len(group.generators) == n


def test_certificate_rejects_non_xp_states():
    # Non-uniform magnitudes.
    vec = np.array([1.0, 0.5], dtype=complex)
    assert xp_state_from_dense(vec, 8) is None
    # Non-affine support on two qubits.
    vec = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex)
    assert xp_state_from_dense(vec, 8) is None
    # Phase not a power of omega.
    vec = np.array([1.0, np.exp(0.3j)], dtype=complex)
    assert xp_state_from_dense(vec, 8) is None
    # The traced counterexample state: uniform and affine, but the phase
    # function admits no consistent completion.
    w = omega_table(8)
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = 1
    vec[0b0010] = 1
    vec[0b1110] = w[1]
    vec[0b1100] = w[13]
    assert xp_state_from_dense(vec, 8) is None
    # Non-finite amplitudes.
    for bad in (np.nan, np.inf, complex(np.inf, np.nan)):
        assert xp_state_from_dense(np.array([1.0, bad], dtype=complex), 8) is None


def test_huge_finite_amplitudes_answer_without_overflow():
    # Norms are taken after dividing by the largest magnitude, so this
    # state is certified like (1, i) and its lego accepts the shadow.
    vec = np.array([1e308, 1e308j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        group = xp_state_from_dense(vec, 4)
        assert group is not None
        assert group == xp_state_from_dense(np.array([1, 1j]), 4)
        assert all(stabilizes(op, vec) for op in group.generators)
        assert lego_from_group(group, vec).dense is vec


def dense_stabilized_by(ops, state: np.ndarray, tol: float = 1e-9) -> bool:
    """||op s - s|| <= tol ||s|| for every op, acting on the whole dense state
    after the same division by the largest magnitude: the reference for the
    support read of ``stabilized_by``."""
    scale = np.max(np.abs(state), initial=0.0)
    if 0 < scale < np.inf:
        state = state / scale
    bound = tol * np.linalg.norm(state)
    moved = [apply_operator(op, state) if isinstance(op, XpOperator) else op @ state
             for op in ops]
    return all(np.linalg.norm(m - state) <= bound for m in moved)


def support_read_cases():
    """(ops, state) pairs: random XP states with their groups and random
    operators, bare and with noise off the support; sparse random states
    whose support an x moves partly off itself; the zero state; huge finite
    amplitudes; a NaN entry; render_operator matrices among the ops."""
    rng = random.Random(21)
    cases = []
    for _ in range(40):
        n, precision = rng.randint(1, 6), rng.choice((2, 4, 8, 16))
        vec = random_xp_state(rng, n, precision)
        group = xp_state_from_dense(vec, precision)
        ops = list(group.generators) + [random_op(rng, n, precision) for _ in range(3)]
        noisy = vec.copy()
        for e in np.flatnonzero(np.abs(vec) < 1e-12):
            if rng.random() < 0.5:
                noisy[e] = rng.choice((1e-14, 1e-11, 1e-6)) * np.exp(6j * rng.random())
        sparse = np.zeros(2 ** n, dtype=complex)
        sparse[rng.sample(range(2 ** n), rng.randint(1, 2 ** n))] = 1.0
        cases += [(ops, vec), (ops, noisy), (ops, sparse), (ops, 1e308 * vec),
                  (ops + [render_operator(ops[0])], noisy)]
    # S = {0, 1, 2}: X on qubit 1 swaps 0 and 1 and moves 2 off S.
    partial = np.array([1, 1, 1, 0], dtype=complex)
    cases += [([XpOperator(2, (0, 1), (0, 0), 0)], partial),
              ([XpOperator(2, (1, 0), (0, 0), 0)], np.array([1, 1, 0, 0], dtype=complex))]
    one = XpOperator(4, (1, 0), (1, 0), 0)
    cases += [([one], np.zeros(4, dtype=complex)),
              ([one, render_operator(one)], np.zeros(4, dtype=complex)),
              ([XpOperator.identity(2, 4)], np.array([1, np.nan, 0, 0], dtype=complex)),
              ([render_operator(one)], np.array([1, np.nan, 0, 0], dtype=complex)),
              ([XpOperator.identity(1, 4)], np.array([1e308, -1e308j]))]
    return cases


def test_the_support_read_agrees_with_the_dense_check():
    decisions = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ops, state in support_read_cases():
            for op in ops:
                decisions.append(stabilized_by([op], state))
                assert decisions[-1] == dense_stabilized_by([op], state)
            assert stabilized_by(ops, state) == dense_stabilized_by(ops, state)
    assert 0.2 < np.mean(decisions) < 0.8


def test_the_support_read_needs_a_state_vector_of_the_operator_size():
    op = XpOperator(4, (1,), (1,), 0)
    for bad in (np.ones(4, dtype=complex), np.eye(2, dtype=complex)):
        with pytest.raises(ValueError, match="dimension"):
            stabilized_by([op], bad)


def test_apply_operator_matches_matrix():
    # Along axis 0: a state vector, and every column of a matrix.
    rng = random.Random(6)
    for _ in range(20):
        op = random_op(rng, 3, 4)
        vec = np.array([rng.random() + 1j * rng.random() for _ in range(8)])
        assert np.max(np.abs(apply_operator(op, vec) - render_operator(op) @ vec)) < 1e-12
        mat = np.array([[rng.random() + 1j * rng.random() for _ in range(5)] for _ in range(8)])
        assert np.max(np.abs(apply_operator(op, mat) - render_operator(op) @ mat)) < 1e-12


def test_channel_state_duality_of_symmetries():
    # A product symmetry O x Q of a bipartite state vec(V) satisfies
    # O V Q^T = V, so the map read out of the state turns the logical
    # factor into the transposed physical action.
    from xplego.code_structure import codewords
    from xplego.lego import lego_from_group, materialize_logical
    from xplego.registry import lookup

    code = canonical_form(lookup("422").group)
    lego = materialize_logical(materialize_logical(lego_from_group(code), 0), 0)
    state_group = lego.group
    assert state_group.n == 6
    table = codewords(state_group)
    assert len(table.entries) == 1
    state = state_from_pairs(table.entries[0], 6, 2)
    v = state.reshape(16, 4)  # physical legs 0-3 row, logical legs 4-5 column
    for op in state_group.generators:
        phys = render_operator(XpOperator(2, op.x[:4], op.z[:4], op.phase))
        logical = render_operator(XpOperator(2, op.x[4:], op.z[4:], 0))
        assert np.max(np.abs(phys @ v @ logical.T - v)) < 1e-9


def test_projector_refuses_more_than_twelve_qubits():
    with pytest.raises(SizeLimitError, match="13 qubits"):
        projector(XpGroup(2, 13, ()))


def test_render_operator_refuses_more_than_twelve_qubits():
    with pytest.raises(SizeLimitError, match="13 qubits"):
        render_operator(XpOperator.identity(13, 2))
