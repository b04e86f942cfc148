"""Tests for exact Z/mZ linear algebra.

Oracles here are brute force: row spans are enumerated element by element
and solver results are cross-checked against exhaustive candidate search,
on fixed seeds and on every matrix of at most 3 x 3 that hypothesis draws
at moduli 2, 3, 4, 6, 8, 9 and 16.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xplego.ring_linalg as ring_linalg
from xplego.ring_linalg import (
    DimensionError,
    ModMatrix,
    howell_form,
    kernel_mod,
    solve_linear_mod,
)


def enumerate_span(rows: list[list[int]], modulus: int, cols: int) -> set[tuple[int, ...]]:
    """All Z/mZ combinations of the rows, by brute force."""
    span: set[tuple[int, ...]] = set()
    if not rows:
        return {tuple([0] * cols)}
    for coeffs in product(range(modulus), repeat=len(rows)):
        vec = [0] * cols
        for c, row in zip(coeffs, rows):
            vec = [(v + c * r) % modulus for v, r in zip(vec, row)]
        span.add(tuple(vec))
    return span


def test_howell_identity_fixed():
    ident = ModMatrix.identity(2, 4)
    assert howell_form(ident) == ident


def test_howell_small_example():
    m = ModMatrix.from_rows([[2, 0], [2, 2]], 4)
    h = howell_form(m)
    assert h.to_lists() == [[2, 0], [0, 2]]
    assert enumerate_span(h.to_lists(), 4, 2) == enumerate_span(m.to_lists(), 4, 2)


def test_howell_idempotent_and_span_preserving():
    rng = random.Random(11)
    for modulus in (2, 4, 6, 8):
        for _ in range(12):
            rows = [[rng.randrange(modulus) for _ in range(4)] for _ in range(rng.randint(1, 4))]
            m = ModMatrix.from_rows(rows, modulus)
            h = howell_form(m)
            assert enumerate_span(h.to_lists(), modulus, 4) == enumerate_span(rows, modulus, 4)
            assert howell_form(h) == h


def test_howell_uniqueness_under_remixing():
    rng = random.Random(3)
    for modulus in (4, 8):
        for _ in range(10):
            rows = [[rng.randrange(modulus) for _ in range(4)] for _ in range(3)]
            m = ModMatrix.from_rows(rows, modulus)
            # Random invertible-ish remixing: add multiples of other rows, permute.
            mixed = [list(r) for r in rows]
            for _ in range(6):
                i, j = rng.randrange(3), rng.randrange(3)
                if i != j:
                    k = rng.randrange(modulus)
                    mixed[i] = [(a + k * b) % modulus for a, b in zip(mixed[i], mixed[j])]
            rng.shuffle(mixed)
            m2 = ModMatrix.from_rows(mixed, modulus)
            assert howell_form(m) == howell_form(m2)
            assert enumerate_span(mixed, modulus, 4) == enumerate_span(rows, modulus, 4)


def test_howell_pivot_divides_modulus_and_reduced_above():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[rng.randrange(8) for _ in range(5)] for _ in range(4)]
        h = howell_form(ModMatrix.from_rows(rows, 8))
        pivcols = []
        for i, row in enumerate(h.entries):
            col = next(c for c, v in enumerate(row) if v)
            pivcols.append(col)
            assert 8 % row[col] == 0
            for j in range(i):
                assert h.entries[j][col] < row[col]
        assert pivcols == sorted(pivcols)


def test_solve_identity():
    a = ModMatrix.identity(2, 8)
    assert solve_linear_mod(a, (3, 5)) == (3, 5)


def test_solve_parity_obstruction():
    a = ModMatrix.from_rows([[2]], 4)
    assert solve_linear_mod(a, (1,)) is None
    assert solve_linear_mod(a, (2,)) == (1,)


def test_solve_dimension_mismatch():
    a = ModMatrix.from_rows([[1, 0], [0, 1]], 4)
    with pytest.raises(DimensionError):
        solve_linear_mod(a, (1, 2, 3))


def test_solve_matches_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(12):
        rows = [[rng.randrange(8) for _ in range(6)] for _ in range(4)]
        a = ModMatrix.from_rows(rows, 8)
        b = [rng.randrange(8) for _ in range(6)]
        got = solve_linear_mod(a, b)
        # Exhaustive oracle over all 8^4 candidate x.
        exists = False
        for x in product(range(8), repeat=4):
            vec = [0] * 6
            for c, row in zip(x, rows):
                vec = [(v + c * r) % 8 for v, r in zip(vec, row)]
            if vec == [v % 8 for v in b]:
                exists = True
                break
        assert (got is not None) == exists
        if got is not None:
            vec = [0] * 6
            for c, row in zip(got, rows):
                vec = [(v + c * r) % 8 for v, r in zip(vec, row)]
            assert vec == [v % 8 for v in b]


def test_kernel_generates_all_annihilators():
    rng = random.Random(17)
    for modulus in (4, 8):
        for _ in range(8):
            rows = [[rng.randrange(modulus) for _ in range(3)] for _ in range(3)]
            a = ModMatrix.from_rows(rows, modulus)
            ker = kernel_mod(a)
            # Every kernel generator annihilates a.
            for krow in ker.entries:
                vec = [0] * 3
                for c, row in zip(krow, rows):
                    vec = [(v + c * r) % modulus for v, r in zip(vec, row)]
                assert not any(vec)
            # Brute-force kernel equals the span of the generators.
            brute = set()
            for x in product(range(modulus), repeat=3):
                vec = [0] * 3
                for c, row in zip(x, rows):
                    vec = [(v + c * r) % modulus for v, r in zip(vec, row)]
                if not any(vec):
                    brute.add(x)
            assert enumerate_span([list(r) for r in ker.entries], modulus, 3) == brute


@st.composite
def small_systems(draw):
    """(modulus, rows of a matrix of at most 3 x 3, right-hand side)."""
    modulus = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 16]))
    nrows = draw(st.integers(0, 3))
    ncols = draw(st.integers(0, 3)) if nrows else 0
    entry = st.integers(0, modulus - 1)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return modulus, rows, draw(st.lists(entry, min_size=ncols, max_size=ncols))


def left_images(rows: list[list[int]], modulus: int, ncols: int) -> dict:
    """x -> x^T a for every x in (Z/mZ)^rows, by brute force."""
    return {x: tuple(sum(c * row[j] for c, row in zip(x, rows)) % modulus for j in range(ncols))
            for x in product(range(modulus), repeat=len(rows))}


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_solve_and_kernel_match_brute_force(system):
    modulus, rows, b = system
    a = ModMatrix.from_rows(rows, modulus)
    images = left_images(rows, modulus, len(b))
    got = solve_linear_mod(a, b)
    assert (got is not None) == (tuple(b) in images.values())
    if got is not None:
        assert images[got] == tuple(b)
    ker = kernel_mod(a)
    zero = (0,) * len(b)
    assert enumerate_span(ker.to_lists(), modulus, len(rows)) == {
        x for x, image in images.items() if image == zero}
    assert howell_form(ker) == ker


def test_one_matrix_is_factored_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return howell_form(m)

    monkeypatch.setattr(ring_linalg, "howell_form", counted)
    a = ModMatrix.from_rows([[2, 1, 0], [0, 2, 4], [6, 3, 2]], 8)
    kernel_mod(a)
    for b in ([2, 1, 0], [1, 0, 0], [0, 0, 6]):
        solve_linear_mod(a, b)
    assert len(calls) == 1
