"""Decoder tests: channels, syndrome extraction, ML weights, Monte Carlo."""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import product

import numpy as np
import pytest
from tests_support import dense_sector_projector

from xplego import decoder, enumerator
from xplego.code_structure import canonical_form, r_z_generators
from xplego.decoder import (
    Channel,
    ChannelError,
    DecoderSetup,
    NondeterministicMeasurementError,
    Syndrome,
    UnsupportedCodeError,
    amplitude_damping,
    decoder_setup,
    depolarizing,
    extract_syndrome,
    measure_syndrome,
    ml_decode,
    monte_carlo,
    pauli_process_coeffs,
    representative_errors,
)
from xplego.dense_oracle import PROJECTOR_MAX_QUBITS, apply_operator, render_operator
from xplego.lego import shorten_to_logical, state_lego
from xplego.registry import lookup, registry
from xplego.xp_algebra import XpOperator


def load_code(name="steane-xp"):
    return canonical_form(lookup(name).group)


def small_test_code():
    """Five-qubit precision-8 code used for exact probability checks."""
    return shorten_to_logical(state_lego(lookup("lego6-steane").group), 0).group


def codeword(code, setup=None, mix=(1.0, 0.7j)):
    setup = setup or decoder_setup(code)
    vec = sum(a * v / np.linalg.norm(v) for a, v in zip(mix, setup.codeword_states))
    return vec / np.linalg.norm(vec)


def test_channel_validation():
    with pytest.raises(ChannelError):
        Channel((np.eye(2) * 0.5,))
    with pytest.raises(ChannelError):
        depolarizing(1.5)


def test_process_coeffs_examples():
    ident = pauli_process_coeffs(Channel((np.eye(2, dtype=complex),)))
    assert np.allclose(ident, np.diag([1.0, 0, 0, 0]))
    p = 0.12
    dep = pauli_process_coeffs(depolarizing(p))
    assert np.allclose(dep, np.diag([1 - p, p / 3, p / 3, p / 3]))


def test_process_coeffs_reconstruct_damping():
    gamma = 0.35
    channel = amplitude_damping(gamma)
    coeffs = pauli_process_coeffs(channel)
    from xplego.enumerator import PAULI_LIST
    rng = np.random.default_rng(3)
    for _ in range(10):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = raw @ raw.conj().T
        direct = sum(np.asarray(k) @ rho @ np.asarray(k).conj().T for k in channel.kraus)
        rebuilt = sum(coeffs[a, b] * PAULI_LIST[a] @ rho @ PAULI_LIST[b]
                      for a in range(4) for b in range(4))
        assert np.max(np.abs(direct - rebuilt)) < 1e-12


def test_uncorrupted_codeword_has_zero_syndrome():
    code = load_code()
    syn = extract_syndrome(codeword(code), code)
    assert syn.s_z == (0, 0, 0) and syn.s_x == (0, 0, 0)


def test_x_error_flips_matching_checks():
    code = load_code()
    setup = decoder_setup(code)
    state = codeword(code, setup)
    for qubit in range(code.n):
        err = XpOperator(8, tuple(1 if i == qubit else 0 for i in range(7)),
                         (0,) * 7, 0)
        syn = extract_syndrome(apply_operator(err, state), code)
        expected = tuple(1 if op.z[qubit] else 0 for op in setup.r_z)
        assert syn.s_z == expected


def test_superposed_syndrome_raises_without_sampler():
    code = load_code()
    state = codeword(code)
    # A half phase rotation on one qubit leaves no definite second-round
    # sector on this code.
    twist = XpOperator(8, (0,) * 7, (2, 0, 0, 0, 0, 0, 0), 0)
    with pytest.raises(NondeterministicMeasurementError):
        extract_syndrome(apply_operator(twist, state), code)
    rng = np.random.default_rng(5)
    syn, collapsed = measure_syndrome(apply_operator(twist, state), code, rng=rng)
    assert len(syn.s_x) == 3 and np.linalg.norm(collapsed) > 1e-9


def test_representative_errors():
    code = load_code()
    zero = Syndrome((0, 0, 0), (0, 0, 0))
    e_sz, e_sx = representative_errors(zero, code)
    assert e_sz.is_identity and e_sx.is_identity
    setup = decoder_setup(code)
    for flipped in range(3):
        s_z = tuple(1 if i == flipped else 0 for i in range(3))
        e_sz, _ = representative_errors(Syndrome(s_z, (0, 0, 0)), code)
        assert sum(e_sz.x) <= 3
        syn = tuple(sum(a * b for a, b in zip(op.z, e_sz.x)) // 4 % 2
                    for op in setup.r_z)
        assert syn == s_z
    # Every second-round pattern admits a diagonal representative.
    code722 = load_code("722")
    for s_x in product((0, 1), repeat=2):
        _, e_sx = representative_errors(Syndrome((0, 0, 0), s_x), code722)
        for op, want in zip(decoder_setup(code722).x_checks, s_x):
            parity = sum(a * (1 if b else 0) for a, b in zip(op.x, e_sx.z)) % 2
            assert parity == want


def test_zero_syndrome_decodes_to_identity():
    code = load_code()
    coeffs = pauli_process_coeffs(depolarizing(0.001))
    res = ml_decode(Syndrome((0, 0, 0), (0, 0, 0)), coeffs, code)
    assert res.chosen == "I"
    # The overlap term contributes a class-independent floor of
    # 1/(K+1) = 1/3, so the identity weight approaches 1 while the other
    # classes stay pinned near the floor.
    assert res.probabilities["I"] > 0.99
    assert max(v for k, v in res.probabilities.items() if k != "I") < 0.34


def test_ml_probabilities_match_bayes_oracle_sample():
    code = small_test_code()
    setup = decoder_setup(code)
    coeffs = pauli_process_coeffs(depolarizing(0.05))
    kraus = [np.asarray(k) for k in depolarizing(0.05).kraus]
    n, pi, kdim = code.n, setup.projector, setup.dimension
    strings = []
    for combo in product(range(4), repeat=n):
        strings.append(reduce(np.kron, [kraus[c] for c in combo]))

    def bayes_joint(syndrome, logical_op):
        e_sz, e_sx = representative_errors(syndrome, code)
        ez, ex = render_operator(e_sz), render_operator(e_sx)
        lmat = render_operator(logical_op)
        pi_sz = dense_sector_projector(setup, syndrome.s_z)
        pi_sx = ex @ pi @ ex.conj().T
        total = 0.0
        for kc in strings:
            a = lmat.conj().T @ ex.conj().T @ pi_sx @ ez.conj().T @ pi_sz @ kc
            abar = pi @ a @ pi
            total += np.trace(abar @ abar.conj().T).real + abs(np.trace(pi @ a)) ** 2
        return total / (kdim * (kdim + 1))

    for syn in (Syndrome((0, 0), (0, 0)), Syndrome((1, 0), (0, 1)),
                Syndrome((1, 1), (1, 0))):
        res = ml_decode(syn, coeffs, code)
        for name, lop in setup.classes:
            assert abs(bayes_joint(syn, lop) - res.probabilities[name]) < 1e-9


@pytest.mark.parametrize("name", sorted(name for name, entry in registry().items()
                                        if entry.group.n <= PROJECTOR_MAX_QUBITS))
def test_sector_masks_are_the_dense_sector_projectors(name):
    # Every first-round sector projector E Pi_z E^dag is a 0/1 diagonal with
    # exactly zero off-diagonal entries, and its nonzero diagonal is the mask.
    # The Pauli checks read from the codeword table are those of the scan.
    setup = decoder_setup(load_code(name))
    assert setup.r_z == r_z_generators(setup.code)
    assert setup.dimension == round(np.trace(setup.projector).real)
    for s_z in product((0, 1), repeat=len(setup.r_z)):
        dense = dense_sector_projector(setup, s_z)
        diagonal = np.diag(dense)
        assert np.count_nonzero(dense - np.diag(diagonal)) == 0, s_z
        assert np.allclose(diagonal, 1.0 * setup.sector_mask(s_z), rtol=0, atol=1e-12), s_z


def test_weight_one_errors_are_corrected():
    code = load_code()
    coeffs = pauli_process_coeffs(depolarizing(0.01))
    state = codeword(code)
    for qubit in range(7):
        for kind in ("X", "Y", "Z"):
            x = tuple(1 if (i == qubit and kind in "XY") else 0 for i in range(7))
            z = tuple(4 if (i == qubit and kind in "YZ") else 0 for i in range(7))
            err = XpOperator(8, x, z, 0)
            corrupted = apply_operator(err, state)
            syn = extract_syndrome(corrupted, code)
            res = ml_decode(syn, coeffs, code)
            fixed = apply_operator(res.correction, corrupted)
            fidelity = abs(np.vdot(state, fixed)) ** 2 / np.vdot(fixed, fixed).real
            assert fidelity > 1 - 1e-9, (qubit, kind)


def test_decoder_rejects_unsupported_codes():
    with pytest.raises(UnsupportedCodeError):
        ml_decode(Syndrome((0,) * 3, (0,) * 2),
                  pauli_process_coeffs(depolarizing(0.01)),
                  load_code("722"))  # two logical qubits


def test_monte_carlo_zero_noise_and_determinism():
    code = load_code()
    r0 = monte_carlo(code, depolarizing(0.0), shots=50, seed=11)
    assert r0.rate == 0.0
    a = monte_carlo(code, depolarizing(0.05), shots=120, seed=3)
    b = monte_carlo(code, depolarizing(0.05), shots=120, seed=3)
    assert a.rate == b.rate and a.per_syndrome == b.per_syndrome
    c = monte_carlo(code, depolarizing(0.05), shots=120, seed=4)
    assert a.per_syndrome != c.per_syndrome


def test_monte_carlo_twirl_mode_and_damping():
    code = load_code()
    t = monte_carlo(code, depolarizing(0.05), shots=100, seed=9, mode="twirl")
    assert 0.0 <= t.rate <= 0.2
    d = monte_carlo(code, amplitude_damping(0.02), shots=60, seed=13)
    assert 0.0 <= d.rate <= 0.2


def test_joint_weights_sum_to_syndrome_probability():
    # Summed over the logical class basis, the joint weights equal K times
    # the directly computed syndrome probability (the weight normalization
    # carries one factor of the code dimension).
    code = small_test_code()
    setup = decoder_setup(code)
    coeffs = pauli_process_coeffs(depolarizing(0.05))
    kraus = [np.asarray(k) for k in depolarizing(0.05).kraus]
    n, pi, kdim = code.n, setup.projector, setup.dimension
    strings = [reduce(np.kron, [kraus[c] for c in combo])
               for combo in product(range(4), repeat=n)]
    total = 0.0
    for s_z in product((0, 1), repeat=len(setup.r_z)):
        for s_x in product((0, 1), repeat=len(setup.x_checks)):
            syn = Syndrome(s_z, s_x)
            e_sz, e_sx = representative_errors(syn, code)
            e_mat = render_operator(e_sz) @ render_operator(e_sx)
            pi_s = e_mat @ pi @ e_mat.conj().T
            p_s = sum(np.trace(pi_s @ kc @ (pi / kdim) @ kc.conj().T).real
                      for kc in strings)
            joints = ml_decode(syn, coeffs, code).probabilities
            assert abs(sum(joints.values()) - kdim * p_s) < 1e-9
            total += p_s
    assert abs(total - 1.0) < 1e-9


def test_distance_two_code_detects_every_weight_one_error():
    # On the eight-qubit distance-2 code, every weight-1 Pauli either acts
    # trivially on the code space or flips at least one syndrome bit.
    code = load_code("812")
    setup = decoder_setup(code)
    state = codeword(code, setup)
    pi = setup.projector
    for qubit in range(8):
        for kind in ("X", "Y", "Z"):
            x = tuple(1 if (i == qubit and kind in "XY") else 0 for i in range(8))
            z = tuple(1 if (i == qubit and kind in "YZ") else 0 for i in range(8))
            err = XpOperator(2, x, z, 0)
            corrupted = apply_operator(err, state)
            mat = render_operator(err)
            if np.max(np.abs(mat @ pi - pi)) < 1e-9:
                continue  # acts as identity on the code space
            syn = extract_syndrome(corrupted, code)
            assert any(syn.s_z) or any(syn.s_x), (qubit, kind)


def test_coset_trace_context_is_built_once_per_channel(monkeypatch):
    # A decision table builds the channel-applied projector and checks the
    # projector once; one decode per syndrome used to redo both per class.
    code = load_code()
    setups = {"current": DecoderSetup(code)}
    monkeypatch.setattr(decoder, "decoder_setup", lambda c: setups["current"])
    calls = Counter()
    for name in ("apply_channel", "_check_projector"):
        def counted(*args, _original=getattr(enumerator, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(enumerator, name, counted)

    syndromes = [Syndrome(b[:3], b[3:]) for b in product((0, 1), repeat=6)]

    def table(channel, subset=syndromes):
        # A fresh but equal pairing table per decode, as a caller may pass.
        return [ml_decode(s, pauli_process_coeffs(channel), code).probabilities
                for s in subset]

    def cold(channel, subset):
        warm = setups["current"]
        setups["current"] = DecoderSetup(code)
        try:
            return table(channel, subset)
        finally:
            setups["current"] = warm

    dep, damp = depolarizing(0.03), amplitude_damping(0.2)
    first = table(dep)
    assert calls == {"apply_channel": 1, "_check_projector": 1}
    context = setups["current"].coset_trace(pauli_process_coeffs(dep))

    damped = table(damp, syndromes[::8])
    assert calls == {"apply_channel": 2, "_check_projector": 2}
    assert setups["current"].coset_trace(pauli_process_coeffs(damp)) is not context
    assert damped == cold(damp, syndromes[::8])

    again = table(dep, syndromes[::8])
    # Three contexts so far: depolarizing, damping and the cold damping one.
    assert calls == {"apply_channel": 4, "_check_projector": 4}
    assert again == first[::8] == cold(dep, syndromes[::8])


@pytest.mark.parametrize("s_z, s_x", [
    ((0, 0), (0, 0, 0)),         # one Z bit short
    ((0, 0, 0), (0, 0, 0, 1)),   # one X bit too many
    ((0, 2, 0), (0, 0, 0)),
    ((0, 0, 0), (0, -1, 0)),
    ((0, 0, 0.5), (1, 0, 0)),
])
def test_ml_decode_refuses_a_syndrome_that_is_not_one_bit_per_check(s_z, s_x):
    coeffs = pauli_process_coeffs(depolarizing(0.01))
    with pytest.raises(ValueError, match="syndrome must hold 3 bits of 0 or 1"):
        ml_decode(Syndrome(s_z, s_x), coeffs, load_code())


@pytest.mark.parametrize("coeffs", [
    np.eye(3),
    np.eye(4)[:, :3],
    np.eye(4)[None],
    np.full((4, 4), np.nan),
    np.diag([1.0, 0.0, 0.0, np.inf]),
    [["not", "a", "table", "!"]] * 4,
])
def test_ml_decode_refuses_a_pairing_table_that_is_not_finite_4x4(coeffs):
    with pytest.raises(ChannelError, match="finite 4x4"):
        ml_decode(Syndrome((0, 0, 0), (0, 0, 0)), coeffs, load_code())
