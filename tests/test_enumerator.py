"""Enumerator tests: golden polynomials, transforms, and coset scalars.

The exact enumerators and biased distances of XP codes are checked against
the dense oracle (``dense_enumerators``) and against brute force over
dense Pauli strings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from tests_support import dense_biased_distance

from xplego import cli, enumerator
from xplego.code_structure import SizeLimitError, XpGroup, canonical_form
from xplego.decoder import (
    Channel,
    Syndrome,
    UnsupportedCodeError,
    amplitude_damping,
    decoder_setup,
    depolarizing,
    pauli_process_coeffs,
    representative_errors,
)
from xplego.dense_oracle import (
    hadamard_unitary,
    lu_conjugate,
    omega_table,
    phase_unitary,
    projector,
    render_operator,
)
from xplego.enumerator import (
    PAULI_LIST,
    CosetTrace,
    EnumeratorPoly,
    NotAProjectorError,
    apply_channel,
    biased_distance,
    coset_scalars,
    dense_enumerators,
    distance,
    enumerators,
    macwilliams_transform,
    pauli_transform,
    pauli_weights,
)
from xplego.lego import lego_from_group, tensor_product
from xplego.registry import group_from_rows, lookup, registry
from xplego.xp_algebra import XpOperator, multiply


def code(name: str) -> XpGroup:
    return canonical_form(lookup(name).group)


def code_projector(name: str) -> np.ndarray:
    return projector(code(name))


def poly_product(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for (i, x), (j, y) in product(enumerate(p), enumerate(q)):
        out[i + j] += x * y
    return tuple(out)


def test_pure_state_enumerators():
    pi = np.diag([1.0, 0.0]).astype(complex)
    a, b = dense_enumerators(pi)
    assert a.coefficients == b.coefficients == (Fraction(1), Fraction(1))
    assert a.format() == "1 + z"


def test_single_qubit_trivial_code():
    for a, b in (dense_enumerators(np.eye(2, dtype=complex)), enumerators(XpGroup(2, 1, ()))):
        assert a.coefficients == (Fraction(1), Fraction(0))
        assert b.coefficients == (Fraction(1), Fraction(3))


def test_enumerators_match_brute_force():
    rng = random.Random(3)
    for name in ("422", "bell"):
        pi = code_projector(name)
        n = int(np.log2(pi.shape[0]))
        k = int(round(np.trace(pi).real))
        a_direct = [0.0] * (n + 1)
        b_direct = [0.0] * (n + 1)
        for combo in product(range(4), repeat=n):
            e = reduce(np.kron, [PAULI_LIST[c] for c in combo])
            w = sum(1 for c in combo if c)
            a_direct[w] += np.trace(e @ pi).real ** 2
            b_direct[w] += np.trace(e @ pi @ e @ pi).real
        for a, b in (enumerators(code(name)), dense_enumerators(pi)):
            for d in range(n + 1):
                assert abs(float(a[d]) - a_direct[d] / k ** 2) < 1e-9
                assert abs(float(b[d]) - b_direct[d] / k) < 1e-9


GOLDEN = {
    "steane-xp": ("1 + 21z^4 + 42z^6",
                  "1 + 21z^3 + 21z^4 + 126z^5 + 42z^6 + 45z^7", 3),
    "second-713": ("1 + 13z^4 + 24z^5 + 18z^6 + 8z^7",
                   "1 + 13z^3 + 53z^4 + 78z^5 + 74z^6 + 37z^7", 3),
    "711": ("1 + 3z^2 + 23z^4 + 37z^6",
            "1 + z + 3z^2 + 23z^3 + 23z^4 + 111z^5 + 37z^6 + 57z^7", 1),
    "812": ("1 + 4z^2 + 18z^4 + 16z^5 + 28z^6 + 48z^7 + 13z^8",
            "1 + 6z^2 + 20z^3 + 36z^4 + 120z^5 + 130z^6 + 116z^7 + 83z^8", 2),
    "steane": ("1 + 21z^4 + 42z^6",
               "1 + 21z^3 + 21z^4 + 126z^5 + 42z^6 + 45z^7", 3),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_polynomials(name):
    a_want, b_want, d_want = GOLDEN[name]
    for a, b in (enumerators(code(name)), dense_enumerators(code_projector(name))):
        assert a.format() == a_want
        assert b.format() == b_want
        assert distance(a, b) == d_want


def test_distance_edge_cases():
    a = EnumeratorPoly((Fraction(1), Fraction(0), Fraction(3)), Fraction(1))
    assert distance(a, a) == 3  # no gap anywhere: sentinel n + 1
    a711, b711 = dense_enumerators(code_projector("711"))
    assert b711[1] - a711[1] == 1


def test_macwilliams_on_trivial_code():
    a = EnumeratorPoly((Fraction(1), Fraction(0)), Fraction(2))
    b = macwilliams_transform(a, 1)
    assert b.coefficients == (Fraction(1), Fraction(3))


def test_enumerator_coefficients_are_counts_for_stabilizer_codes():
    for name in ("steane", "422", "812", "711"):
        a, b = dense_enumerators(code_projector(name))
        n = a.degree
        k = a.dimension
        assert sum(a.coefficients) == Fraction(2 ** n) / k ** 2 * k  # 2^(n-k) groups
        for c in a.coefficients + b.coefficients:
            assert c.denominator == 1 and c >= 0


def test_b_dominates_a_on_registry_codes():
    for name in ("722", "steane-xp", "second-713", "711", "812", "steane", "422"):
        a, b = dense_enumerators(code_projector(name))
        assert all(bb >= aa for aa, bb in zip(a.coefficients, b.coefficients)), name


def test_lu_invariance_of_enumerators():
    pi = code_projector("steane-xp")
    rng = random.Random(11)
    factors = []
    for _ in range(7):
        theta = rng.random() * np.pi
        factors.append(np.array([[np.cos(theta), -np.sin(theta)],
                                 [np.sin(theta), np.cos(theta)]], dtype=complex)
                       @ np.diag([1, np.exp(1j * rng.random())]))
    a0, b0 = dense_enumerators(pi)
    a1, b1 = dense_enumerators(lu_conjugate(pi, factors))
    assert a0.coefficients == a1.coefficients
    assert b0.coefficients == b1.coefficients


def test_steane_equivalence_by_local_phases():
    # Conjugating the first distance-3 construction by the printed local
    # unitary lands exactly on the Steane projector.
    pi_xp = code_projector("steane-xp")
    factors = [np.eye(2, dtype=complex)] * 7
    factors[1] = phase_unitary(8, 7)
    factors[3] = np.diag([1.0, -1.0]).astype(complex)
    factors[5] = phase_unitary(8, 7)
    moved = lu_conjugate(pi_xp, factors)
    assert np.max(np.abs(moved - code_projector("steane"))) < 1e-9


def test_biased_distances():
    c711 = code("711")
    assert biased_distance(c711, "Z") == 1
    assert biased_distance(c711, "X") == 3
    assert biased_distance(code("812"), "Z") == 2
    # Two-qubit repetition code: a weight-1 X acts as the logical, a
    # weight-2 Z string is the lightest diagonal logical.
    rep = group_from_rows([((1, 1), (0, 0), 0)], 2, 2)
    assert biased_distance(rep, "X") == 1
    assert biased_distance(rep, "Z") == 2
    # A stabilized state has no axis-restricted logical at all: sentinel.
    bell = code("bell")
    assert biased_distance(bell, "X") == 3
    assert biased_distance(bell, "Z") == 3
    # Y strings: on the trivial one-qubit code Y itself is a logical, and
    # the Steane code has weight-3 Y logicals.
    assert biased_distance(XpGroup(2, 1, ()), "Y") == 1
    assert biased_distance(code("steane"), "Y") == 3


@pytest.mark.parametrize("name", sorted(name for name, entry in registry().items()
                                        if entry.group.n <= 7))
def test_biased_distance_matches_dense_pauli_strings(name):
    pi = code_projector(name)
    for axis in "XYZ":
        assert biased_distance(code(name), axis) == dense_biased_distance(pi, axis), axis


def test_rejects_non_projector():
    with pytest.raises(NotAProjectorError):
        dense_enumerators(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("name", sorted(name for name, entry in registry().items()
                                        if entry.group.n <= 8))
def test_exact_enumerators_equal_dense_oracle(name):
    a, b = enumerators(code(name))
    a_dense, b_dense = dense_enumerators(code_projector(name))
    assert a.coefficients == a_dense.coefficients
    assert b.coefficients == b_dense.coefficients
    assert a.dimension == a_dense.dimension
    assert all(isinstance(c, Fraction) for c in a.coefficients + b.coefficients)


@pytest.mark.parametrize("first, second", [("722", "hadamard"), ("722-traced", "722-traced")])
def test_tensor_codes_give_product_polynomials(first, second):
    # These two inputs made the dense B route fail the MacWilliams check.
    joined = tensor_product(lego_from_group(code(first)), lego_from_group(code(second)))
    a, b = enumerators(joined.group)
    a1, b1 = enumerators(code(first))
    a2, b2 = enumerators(code(second))
    assert a.coefficients == poly_product(a1.coefficients, a2.coefficients)
    assert b.coefficients == poly_product(b1.coefficients, b2.coefficients)


def test_rm15_distances_and_sum_rules():
    rm15 = code("rm15")
    a, b = enumerators(rm15)
    n, k = rm15.n, a.dimension
    assert k == 2
    assert a[0] == b[0] == 1
    assert sum(a.coefficients) == Fraction(2 ** n) / k
    assert sum(b.coefficients) == 2 ** n * k
    assert distance(a, b) == 3
    assert biased_distance(rm15, "Z") == 3
    assert biased_distance(rm15, "X") == 7


def test_precision_three_code_matches_dense_route():
    # Phi_6 = x^2 - x + 1 is not of the form x^N + 1.
    g = group_from_rows([((1, 1, 1), (0, 0, 0), 0), ((0, 0, 0), (1, 2, 0), 0)], 3, 3)
    a, b = enumerators(g)
    assert a.format() == "1 + z^2 + 2z^3"
    assert b.format() == "1 + z + 7z^2 + 7z^3"
    assert (a, b) == dense_enumerators(projector(g))


def test_over_the_table_limit_raises_before_any_work():
    too_big = XpGroup(8, 21, ())  # 2^21 strings x 16 exponents > 2^24 entries
    for call in (lambda: enumerators(too_big), lambda: biased_distance(too_big, "X")):
        with pytest.raises(SizeLimitError, match="21 qubits"):
            call()
    with pytest.raises(SizeLimitError, match="dense"):
        dense_enumerators(np.broadcast_to(np.complex128(0), (2 ** 12, 2 ** 12)))


def test_reduction_entries_too_large_for_exact_sums_are_refused(monkeypatch):
    rows = np.array([[1, 0], [0, 1], [0, 1 << 8], [0, -1]], dtype=np.int64)
    monkeypatch.setattr(enumerator, "_reduction_rows", lambda two_n: rows)
    enumerator._exact_traces.cache_clear()
    with pytest.raises(SizeLimitError, match="int64"):
        enumerators(XpGroup(2, 1, ()))


def test_enumerate_biased_makes_one_trace_pass(monkeypatch, capsys):
    calls = {"codewords": 0, "_walsh_hadamard": 0}
    for name in calls:
        def counted(*args, real=getattr(enumerator, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(enumerator, name, counted)
    enumerator._exact_traces.cache_clear()
    assert cli.main(["enumerate", "steane-xp", "--biased", "--json"]) == 0
    # A, B, dZ and dX read one pass; steane-xp's shifts fit in one batch.
    assert calls == {"codewords": 1, "_walsh_hadamard": 1}


def test_coset_scalars_trivial_channel():
    pi = code_projector("422")
    identity_channel = pauli_process_coeffs(depolarizing(0.0))
    a, b = coset_scalars(identity_channel, pi, XpOperator.identity(4, 2))
    assert abs(a - 16.0) < 1e-9  # Tr[Pi]^2
    assert abs(b - 4.0) < 1e-9   # Tr[Pi^2]


def test_coset_scalars_match_direct_kraus_sum():
    rng = random.Random(5)
    for channel in (depolarizing(0.07), amplitude_damping(0.2)):
        coeffs = pauli_process_coeffs(channel)
        kraus = [np.asarray(k) for k in channel.kraus]
        pi = code_projector("bell")
        n = 2
        op = XpOperator(8, (1, 0), (3, 2), 5)
        e = render_operator(op)
        a_direct = 0.0 + 0j
        b_direct = 0.0 + 0j
        pi_s = e @ pi @ e.conj().T
        for combo in product(range(len(kraus)), repeat=n):
            kc = reduce(np.kron, [kraus[c] for c in combo])
            a_direct += np.trace(kc @ pi @ e.conj().T) * np.trace(kc.conj().T @ e @ pi)
            b_direct += np.trace(kc @ pi @ kc.conj().T @ pi_s)
        a, b = coset_scalars(coeffs, pi, op)
        assert abs(a - a_direct) < 1e-9
        assert abs(b - b_direct) < 1e-9


def test_apply_channel_reconstructs_kraus_action():
    rng = np.random.default_rng(7)
    channel = amplitude_damping(0.3)
    coeffs = pauli_process_coeffs(channel)
    kraus = [np.asarray(k) for k in channel.kraus]
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        direct = np.zeros_like(rho)
        for combo in product(range(2), repeat=2):
            kc = np.kron(kraus[combo[0]], kraus[combo[1]])
            direct += kc @ rho @ kc.conj().T
        assert np.max(np.abs(apply_channel(rho, coeffs) - direct)) < 1e-12


def test_pauli_transform_agrees_with_traces():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    t = pauli_transform(raw).reshape(-1)
    weights = pauli_weights(3)
    for i, combo in enumerate(product(range(4), repeat=3)):
        e = reduce(np.kron, [PAULI_LIST[c] for c in combo])
        assert abs(t[i] - np.trace(e @ raw)) < 1e-9
        assert weights[i] == sum(1 for c in combo if c)


# Reference implementations: the tensordot Pauli transform and the dense
# one-call coset scalars that the butterfly transform and CosetTrace replace.
# The production results must equal them bit for bit (the sign of a zero
# aside).

def xp_factors(op) -> list[np.ndarray]:
    """Single-qubit matrix factors of an XP operator, global phase on the first."""
    table = omega_table(op.precision)
    factors = []
    for q in range(op.n):
        mat = np.diag([1.0 + 0j, table[(2 * op.z[q]) % (2 * op.precision)]])
        if op.x[q]:
            mat = PAULI_LIST[1] @ mat
        factors.append(mat)
    factors[0] = factors[0] * table[op.phase]
    return factors


def reference_pauli_transform(mat):
    n = int(np.log2(mat.shape[0]))
    kernel = np.array([[p[c, r] for r in (0, 1) for c in (0, 1)]
                       for p in PAULI_LIST], dtype=complex).reshape(4, 2, 2)
    t = mat.reshape((2,) * (2 * n))
    for i in range(n):
        t = np.tensordot(t, kernel, axes=([i, n], [1, 2]))
        t = np.moveaxis(t, -1, i)
    return t


def reference_coset_scalars(coeffs, projector, e_tilde_factors):
    n = int(np.log2(projector.shape[0]))
    e_tilde = reduce(np.kron, [np.asarray(f, dtype=complex) for f in e_tilde_factors])
    m1 = projector @ e_tilde.conj().T
    m2 = e_tilde @ projector
    t1 = reference_pauli_transform(m1)
    t2 = reference_pauli_transform(m2)
    for i in range(n):
        t2 = np.moveaxis(np.tensordot(t2, np.asarray(coeffs, dtype=complex),
                                      axes=([i], [1])), -1, i)
    a_scalar = complex(np.tensordot(t1, t2, axes=n))
    pi_s = e_tilde @ projector @ e_tilde.conj().T
    b_scalar = complex(np.trace(apply_channel(projector, coeffs) @ pi_s))
    return a_scalar, b_scalar


def exactly_equal(a, b) -> bool:
    """Equal under ==, elementwise; a zero of either sign matches both."""
    return a.shape == b.shape and bool(np.all(a == b))


@pytest.mark.parametrize("n", range(1, 9))
def test_pauli_transform_equals_tensordot_reference(n):
    rng = np.random.default_rng(100 + n)
    dim = 2 ** n
    for _ in range(3):
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat[rng.random((dim, dim)) < 0.3] = 0
        mat.real[rng.random((dim, dim)) < 0.2] = 0
        assert exactly_equal(pauli_transform(mat), reference_pauli_transform(mat))


def random_span(rng: np.random.Generator, n: int, generators: int) -> np.ndarray:
    span = np.zeros(1, dtype=np.int64)
    for v in rng.integers(1 << n, size=generators):
        span = np.union1d(span, span ^ v)
    return span


@pytest.mark.parametrize("n", range(1, 9))
def test_pauli_butterfly_equals_reference_on_a_coset_support(n):
    # A matrix that couples i to j only for i ^ j in x ^ D has its Pauli
    # spectrum on the x parts x ^ D, which the butterfly computes alone.
    rng = np.random.default_rng(300 + n)
    size = 2 ** n
    strings = np.arange(size)
    for span in (np.zeros(1, dtype=np.int64), random_span(rng, n, n // 2), strings):
        shifts = span ^ int(rng.integers(size))
        mat = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat[~np.isin(strings ^ strings[:, None], shifts)] = 0
        want = reference_pauli_transform(mat).reshape(-1)
        index = enumerator._pauli_index(shifts)[:, None] ^ 3 * enumerator._pauli_index(strings)
        got = enumerator._pauli_butterfly(mat[strings, strings ^ shifts[:, None]], shifts)
        assert exactly_equal(got, want[index])
        outside = np.ones(4 ** n, dtype=bool)
        outside[index] = False
        assert not want[outside].any()
        assert not pauli_transform(mat).reshape(-1)[outside].any()


def test_pauli_transform_equals_reference_on_registry_projectors():
    for name, entry in registry().items():
        if entry.group.n > 8:
            continue
        pi = code_projector(name)
        assert exactly_equal(pauli_transform(pi), reference_pauli_transform(pi)), name


# Depolarizing and damping pair Pauli strings with the same x parts only;
# the Hadamard mixture also pairs X with Z, so it grows the support of the
# contracted spectrum.
SCALAR_CHANNELS = {"depolarizing-0.05": depolarizing(0.05),
                   "damping-0.2": amplitude_damping(0.2),
                   "hadamard-mixture-0.1": Channel((np.sqrt(0.9) * PAULI_LIST[0],
                                                    np.sqrt(0.1) * hadamard_unitary()))}


def random_operator(rng: random.Random, n: int, precision: int) -> XpOperator:
    return XpOperator(precision, tuple(rng.randrange(2) for _ in range(n)),
                      tuple(rng.randrange(precision) for _ in range(n)),
                      rng.randrange(2 * precision))


def assert_equals_reference(coeffs, pi, context, op):
    want = reference_coset_scalars(coeffs, pi, xp_factors(op))
    assert context.scalar_pairs([op]) == [want], op
    return want


@pytest.mark.parametrize("channel", sorted(SCALAR_CHANNELS))
def test_coset_trace_equals_reference_on_steane_xp_classes(channel):
    code = canonical_form(lookup("steane-xp").group)
    setup = decoder_setup(code)
    coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
    context = CosetTrace(coeffs, setup.projector)
    for index, bits in enumerate(product((0, 1), repeat=6)):
        e_sz, e_sx = representative_errors(Syndrome(bits[:3], bits[3:]), code)
        for name, logical in setup.classes:
            op = multiply(multiply(e_sz, e_sx), logical)
            want = assert_equals_reference(coeffs, setup.projector, context, op)
            if index % 4 == 0:
                assert coset_scalars(coeffs, setup.projector, op) == want, (bits, name)


@pytest.mark.parametrize("channel", sorted(SCALAR_CHANNELS))
@pytest.mark.parametrize("name", ["second-713", "steane", "711"])
def test_coset_trace_equals_reference_on_decoder_classes(name, channel):
    # Every fourth syndrome, with all four classes of each.
    code = canonical_form(lookup(name).group)
    setup = decoder_setup(code)
    coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
    context = CosetTrace(coeffs, setup.projector)
    nz = len(setup.r_z)
    for bits in list(product((0, 1), repeat=nz + len(setup.x_checks)))[::4]:
        e_sz, e_sx = representative_errors(Syndrome(bits[:nz], bits[nz:]), code)
        for _, logical in setup.classes:
            assert_equals_reference(coeffs, setup.projector, context,
                                    multiply(multiply(e_sz, e_sx), logical))


SMALL_REGISTRY = [name for name, entry in registry().items() if entry.group.n <= 8]


@pytest.mark.parametrize("channel", sorted(SCALAR_CHANNELS))
def test_scoring_a_syndromes_classes_in_one_call_equals_one_call_per_class(channel):
    # scalar_pairs shares its x indices and scratch arrays across a list;
    # each one-class list makes its own.  Every eighth syndrome of every
    # k = 1 code, then all of those classes in one list, whose x parts
    # change from one operator to the next.
    coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
    decoded = 0
    for name in SMALL_REGISTRY:
        code = canonical_form(lookup(name).group)
        try:
            setup = decoder_setup(code)
        except UnsupportedCodeError:
            continue
        if setup.classes is None:
            continue
        decoded += 1
        context = CosetTrace(coeffs, setup.projector)
        nz = len(setup.r_z)
        everything = []
        for bits in list(product((0, 1), repeat=nz + len(setup.x_checks)))[::8]:
            e_sz, e_sx = representative_errors(Syndrome(bits[:nz], bits[nz:]), code)
            ops = [multiply(multiply(e_sz, e_sx), logical) for _, logical in setup.classes]
            one_by_one = [context.scalar_pairs([op])[0] for op in ops]
            assert context.scalar_pairs(ops) == one_by_one, (name, bits)
            everything += zip(ops, one_by_one)
        ops, want = zip(*everything)
        assert context.scalar_pairs(ops) == list(want), name
    assert decoded == 7


@pytest.mark.parametrize("channel", sorted(SCALAR_CHANNELS))
@pytest.mark.parametrize("name", SMALL_REGISTRY)
def test_coset_trace_equals_reference_on_random_residuals(name, channel):
    rng = random.Random(f"{name}:{channel}")
    group = canonical_form(lookup(name).group)
    pi = projector(group)
    coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
    context = CosetTrace(coeffs, pi)
    for _ in range(6):
        assert_equals_reference(coeffs, pi, context, random_operator(rng, group.n, group.precision))


def test_coset_trace_equals_reference_on_a_ten_qubit_tensor_code():
    # Blocks of a larger code run larger batched products against the
    # 1024 x 1024 dense ones.
    group = canonical_form(tensor_product(
        lego_from_group(canonical_form(lookup("steane-xp").group)),
        lego_from_group(canonical_form(lookup("ghz").group))).group)
    assert group.n == 10
    pi = projector(group)
    rng = random.Random("steane-xp*ghz")
    for channel in sorted(SCALAR_CHANNELS):
        coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
        context = CosetTrace(coeffs, pi)
        for _ in range(2):
            assert_equals_reference(coeffs, pi, context,
                                    random_operator(rng, group.n, group.precision))


@pytest.mark.parametrize("channel", sorted(SCALAR_CHANNELS))
def test_coset_trace_equals_reference_on_a_dense_projector(channel):
    # A random rank-2 projector couples every pair of strings: one block.
    rng = np.random.default_rng(17)
    n = 4
    raw = rng.normal(size=(2 ** n, 2)) + 1j * rng.normal(size=(2 ** n, 2))
    q, _ = np.linalg.qr(raw)
    pi = q @ q.conj().T
    coeffs = pauli_process_coeffs(SCALAR_CHANNELS[channel])
    context = CosetTrace(coeffs, pi)
    assert enumerator._coset_blocks(pi).shape == (1, 2 ** n)
    ops = random.Random(channel)
    for _ in range(6):
        assert_equals_reference(coeffs, pi, context, random_operator(ops, n, 4))
    with pytest.raises(ValueError):
        context.scalar_pairs([random_operator(ops, n + 1, 4)])


def test_coset_trace_index_plan_is_smaller_than_the_channel_rows():
    # The a-side plan of a context: the row tables of its contraction
    # steps, for either bit of x, and its digit tables, under channels that
    # keep and that mix x parts.
    for name, entry in registry().items():
        if not 3 <= entry.group.n <= 8:
            continue
        pi = code_projector(name)
        for channel in SCALAR_CHANNELS.values():
            context = CosetTrace(pauli_process_coeffs(channel), pi)
            arrays = [context._digits, context._span_digits, context._grown_digits]
            arrays += [a for reads, writes, _ in context._steps for a in (reads, writes)]
            assert sum(a.nbytes for a in arrays) < context._channel_rows.nbytes, name


def test_registry_projectors_vanish_between_coset_blocks():
    for name, entry in registry().items():
        if entry.group.n > 10:
            continue
        pi = code_projector(name)
        members = enumerator._coset_blocks(pi)
        size = pi.shape[0]
        assert sorted(members.ravel().tolist()) == list(range(size)), name
        assert members.shape[1] >= min(size, enumerator.MIN_COSET_SIZE), name
        # Each block is a coset of one subspace: a shift of the first block.
        shifts = members[:, :1] ^ members[0]
        assert (np.sort(shifts, axis=1) == members).all(), name
        coset = np.empty(size, dtype=np.intp)
        coset[members] = np.arange(len(members))[:, None]
        across = coset[:, None] != coset[None, :]
        assert not pi[across].any(), name
