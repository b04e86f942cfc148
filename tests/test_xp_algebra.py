"""Group-law tests for XP operators, cross-checked against dense matrices."""

from __future__ import annotations

import random

import numpy as np
import pytest

from xplego.dense_oracle import render_operator
from xplego.xp_algebra import (
    MAX_PRECISION,
    IncompatibleOperatorsError,
    PrecisionError,
    XpOperator,
    antisymmetric,
    conjugate,
    inverse,
    multiply,
    power,
    tensor,
)


def random_op(rng: random.Random, n: int, precision: int) -> XpOperator:
    return XpOperator(
        precision,
        tuple(rng.randint(0, 1) for _ in range(n)),
        tuple(rng.randrange(precision) for _ in range(n)),
        rng.randrange(2 * precision),
    )


def test_p_times_x_at_precision_8():
    p = XpOperator(8, (0,), (1,), 0)
    x = XpOperator(8, (1,), (0,), 0)
    assert multiply(p, x) == XpOperator(8, (1,), (7,), 2)


def test_identity_is_neutral():
    rng = random.Random(0)
    for _ in range(20):
        g = random_op(rng, 3, 4)
        ident = XpOperator.identity(3, 4)
        assert multiply(ident, g) == g
        assert multiply(g, ident) == g


def test_multiply_matches_dense_product():
    rng = random.Random(1)
    for _ in range(100):
        a = random_op(rng, 3, 4)
        b = random_op(rng, 3, 4)
        sym = render_operator(multiply(a, b))
        dense = render_operator(a) @ render_operator(b)
        assert np.max(np.abs(sym - dense)) < 1e-12


def test_incompatible_operators_raise():
    a = XpOperator(4, (0, 1), (0, 0), 0)
    b = XpOperator(8, (0, 1), (0, 0), 0)
    with pytest.raises(IncompatibleOperatorsError):
        multiply(a, b)
    c = XpOperator(4, (1,), (0,), 0)
    with pytest.raises(IncompatibleOperatorsError):
        multiply(a, c)


def test_precision_is_capped_with_a_typed_error():
    assert XpOperator(MAX_PRECISION, (1,), (MAX_PRECISION - 1,), 0).z == (MAX_PRECISION - 1,)
    with pytest.raises(PrecisionError):
        XpOperator(2 * MAX_PRECISION, (1,), (0,), 0)


def test_antisymmetric_values():
    assert antisymmetric((2,), 8) == XpOperator(8, (0,), (6,), 2)
    assert antisymmetric((0, 0), 8) == XpOperator.identity(2, 8)
    d = antisymmetric((1, 3), 4)
    assert d == XpOperator(4, (0, 0), (3, 1), 4)
    mat = render_operator(d)
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-12


def test_inverse_round_trip():
    assert inverse(XpOperator.identity(2, 8)) == XpOperator.identity(2, 8)
    diag = XpOperator(8, (0, 0), (3, 5), 9)
    assert inverse(diag) == XpOperator(8, (0, 0), (5, 3), 7)
    rng = random.Random(2)
    for _ in range(100):
        g = random_op(rng, 3, 8)
        ident = XpOperator.identity(3, 8)
        assert multiply(g, inverse(g)) == ident
        assert multiply(inverse(g), g) == ident


def test_conjugate_matches_multiply_chain():
    rng = random.Random(3)
    ident = XpOperator.identity(2, 8)
    assert conjugate(ident, random_op(rng, 2, 8)) == random_op(random.Random(3), 2, 8)
    for _ in range(100):
        a = random_op(rng, 3, 8)
        b = random_op(rng, 3, 8)
        chain = multiply(multiply(a, b), inverse(a))
        assert conjugate(a, b) == chain


def test_power_contracts():
    rng = random.Random(4)
    a = random_op(rng, 2, 8)
    assert power(a, 0) == XpOperator.identity(2, 8)
    p = XpOperator(8, (0,), (1,), 0)
    assert power(p, 8) == XpOperator.identity(1, 8)
    for _ in range(40):
        g = random_op(rng, 3, 6)
        k = rng.randint(-5, 5)
        expected = XpOperator.identity(3, 6)
        step = g if k >= 0 else inverse(g)
        for _ in range(abs(k)):
            expected = multiply(expected, step)
        assert power(g, k) == expected


def test_precision_two_is_pauli_algebra():
    x = XpOperator(2, (1,), (0,), 0)
    z = XpOperator(2, (0,), (1,), 0)
    xz = multiply(x, z)
    zx = multiply(z, x)
    # X and Z anticommute: ZX = -XZ, and the minus sign is phase exponent 2.
    assert zx == XpOperator(2, (1,), (1,), 2)
    assert multiply(xz, inverse(zx)) == XpOperator(2, (0,), (0,), 2)
    assert np.allclose(render_operator(x), np.array([[0, 1], [1, 0]]))
    assert np.allclose(render_operator(z), np.array([[1, 0], [0, -1]]))


def test_tensor_blocks_concatenate():
    a = XpOperator(8, (1,), (3,), 2)
    b = XpOperator(8, (0,), (5,), 1)
    t = tensor(a, b)
    assert t == XpOperator(8, (1, 0), (3, 5), 3)
    assert np.max(np.abs(render_operator(t) - np.kron(render_operator(a), render_operator(b)))) < 1e-12


def test_unique_reduced_representation():
    a = XpOperator(4, (2, 3), (6, -1), 11)
    assert a.x == (0, 1)
    assert a.z == (2, 3)
    assert a.phase == 3
    assert str(a) == "XP_4(0 1|2 3|3)"
