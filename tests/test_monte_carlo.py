"""Differential tests of the block Monte Carlo harness.

The per-shot loop that ``decoder.monte_carlo`` replaced is kept here as the
reference, together with the per-state syndrome measurement it called.  Both
draw from ``default_rng([seed, shot])`` in the same order, so the rate, the
failure count and the per-syndrome tallies must agree exactly, and so must
runs of the block loop with different block sizes.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from tests_support import dense_sector_projector

from xplego import decoder
from xplego.cli import _parse_channel
from xplego.code_structure import canonical_form
from xplego.decoder import (
    NondeterministicMeasurementError,
    Syndrome,
    amplitude_damping,
    decoder_setup,
    depolarizing,
    monte_carlo,
    pauli_process_coeffs,
)
from xplego.dense_oracle import apply_operator
from xplego.registry import lookup
from xplego.xp_algebra import XpOperator, conjugate

CODE = canonical_form(lookup("steane-xp").group)


def reference_measure_pm(state, plus, minus, rng, tol):
    scale = float(np.linalg.norm(state))
    wp = float(np.vdot(plus, plus).real)
    wm = float(np.vdot(minus, minus).real)
    total = wp + wm
    if total <= tol * scale ** 2:
        raise NondeterministicMeasurementError("state annihilated by the sector projector")
    if wm / total <= tol:
        return 0, plus * (scale / np.sqrt(wp))
    if wp / total <= tol:
        return 1, minus * (scale / np.sqrt(wm))
    if rng is None:
        raise NondeterministicMeasurementError(
            "measurement outcome is not definite; decoding needs a definite sector")
    if rng.random() < wp / total:
        return 0, plus * (scale / np.sqrt(wp))
    return 1, minus * (scale / np.sqrt(wm))


def reference_measure_syndrome(state, code, rng=None, tol=1e-7):
    setup = decoder_setup(canonical_form(code))
    state = np.asarray(state, dtype=complex)
    s_z = []
    for op in setup.r_z:
        moved = apply_operator(op, state)
        bit, state = reference_measure_pm(state, (state + moved) / 2.0,
                                          (state - moved) / 2.0, rng, tol)
        s_z.append(bit)
    e_sz = setup.z_representative(s_z)
    pi_sector = dense_sector_projector(setup, s_z)
    projected = pi_sector @ state
    if np.linalg.norm(projected - state) > tol * max(np.linalg.norm(state), 1e-30):
        raise NondeterministicMeasurementError("state is not supported on its sector")
    s_x = []
    for op in setup.x_checks:
        conjugated = conjugate(e_sz, op)
        moved = pi_sector @ apply_operator(conjugated, state)
        bit, state = reference_measure_pm(state, (state + moved) / 2.0,
                                          (state - moved) / 2.0, rng, tol)
        s_x.append(bit)
    return Syndrome(tuple(s_z), tuple(s_x)), state


def reference_monte_carlo(code, channel, shots, seed, mode, decode):
    """The per-shot loop, with ``decode(syndrome, coeffs, code)`` as ML decoder."""
    code = canonical_form(code)
    setup = decoder_setup(code)
    coeffs = pauli_process_coeffs(channel)
    twirl_probs = np.clip(np.real(np.diag(coeffs)), 0.0, None)
    twirl_probs = twirl_probs / twirl_probs.sum()
    corrections = {}
    per_syndrome = {}
    failures = 0
    basis = [v / np.linalg.norm(v) for v in setup.codeword_states]
    kraus = [np.asarray(k, dtype=complex) for k in channel.kraus]
    n = setup.n
    for shot in range(shots):
        rng = np.random.default_rng([seed, shot])
        raw = rng.normal(size=2 * len(basis))
        amps = raw[::2] + 1j * raw[1::2]
        amps = amps / np.linalg.norm(amps)
        state = sum(a * v for a, v in zip(amps, basis))
        reference = state

        if mode == "twirl":
            for q in range(n):
                p = int(rng.choice(4, p=twirl_probs))
                if p:
                    op = XpOperator(
                        setup.precision,
                        tuple(1 if (q == i and p in (1, 2)) else 0 for i in range(n)),
                        tuple(setup.precision // 2 if (q == i and p in (2, 3)) else 0
                              for i in range(n)),
                        0)
                    state = apply_operator(op, state)
        else:
            for q in range(n):
                branches = []
                for k in kraus:
                    t = state.reshape((2,) * n)
                    t = np.tensordot(k, t, axes=([1], [q]))
                    branches.append(np.moveaxis(t, 0, q).reshape(-1))
                probs = np.array([float(np.vdot(b, b).real) for b in branches])
                probs = probs / probs.sum()
                pick = int(rng.choice(len(branches), p=probs))
                state = branches[pick] / np.linalg.norm(branches[pick])

        syndrome, state = reference_measure_syndrome(state, code, rng=rng)
        if syndrome not in corrections:
            corrections[syndrome] = decode(syndrome, coeffs, code).correction
        state = apply_operator(corrections[syndrome], state)
        fidelity = abs(np.vdot(reference, state)) ** 2 / float(
            np.vdot(state, state).real)
        ok = fidelity >= 1.0 - 1e-9
        if not ok:
            failures += 1
        key = syndrome.s_z + syndrome.s_x
        per_syndrome.setdefault(key, [0, 0])[0 if ok else 1] += 1

    stats = {"".join(map(str, k)): {"ok": v[0], "fail": v[1]}
             for k, v in sorted(per_syndrome.items())}
    return failures / shots, failures, stats


# ML decisions depend only on (channel, syndrome); both loops share them so
# that each distinct syndrome is decoded once per test session.
_DECODED: dict = {}
_ml_decode = decoder.ml_decode


def memo_decode(syndrome, coeffs, code):
    key = (coeffs.tobytes(), syndrome)
    if key not in _DECODED:
        _DECODED[key] = _ml_decode(syndrome, coeffs, code)
    return _DECODED[key]


@pytest.fixture
def decode_calls(monkeypatch):
    """Syndromes passed to ``ml_decode`` from inside ``monte_carlo``."""
    calls = []

    def counting(syndrome, coeffs, code):
        calls.append(syndrome)
        return memo_decode(syndrome, coeffs, code)

    monkeypatch.setattr(decoder, "ml_decode", counting)
    return calls


def kraus_file_channel(tmp_path):
    """A non-Pauli channel read like ``--channel kraus:FILE``: a small
    phase rotation, which leaves second-round outcomes undecided, mixed
    with bit flips."""
    p, theta = 0.05, 0.3
    a, c, s = np.sqrt(1 - p), np.cos(theta), np.sin(theta)
    doc = [
        [[[a, 0.0], [0.0, 0.0]], [[0.0, 0.0], [a * c, a * s]]],
        [[[0.0, 0.0], [np.sqrt(p), 0.0]], [[np.sqrt(p), 0.0], [0.0, 0.0]]],
    ]
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(doc))
    return _parse_channel(f"kraus:{path}")


CHANNELS = {
    "depolarizing-0.01": lambda tmp_path: depolarizing(0.01),
    "depolarizing-0.1": lambda tmp_path: depolarizing(0.1),
    "damping-0.1": lambda tmp_path: amplitude_damping(0.1),
    "damping-0.3": lambda tmp_path: amplitude_damping(0.3),
    "kraus-file": kraus_file_channel,
}


def check_against_reference(channel, shots, seed, mode, calls):
    got = monte_carlo(CODE, channel, shots=shots, seed=seed, mode=mode)
    want = reference_monte_carlo(CODE, channel, shots, seed, mode, memo_decode)
    assert (got.rate, got.failures, got.per_syndrome) == want
    assert got.shots == shots
    # One ML decode per distinct syndrome of the job.
    assert len(calls) == len(set(calls)) == len(got.per_syndrome)
    return got


@pytest.mark.parametrize("mode", ["exact", "twirl"])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_block_loop_matches_per_shot_loop(name, mode, tmp_path, decode_calls):
    got = check_against_reference(CHANNELS[name](tmp_path), 37, 7, mode, decode_calls)
    assert sum(v["ok"] + v["fail"] for v in got.per_syndrome.values()) == 37


def block_shots(monkeypatch, shots):
    """Make every Monte Carlo block on ``CODE`` hold ``shots`` shots."""
    monkeypatch.setattr(decoder, "MC_AMPLITUDES", shots << CODE.n)


@pytest.mark.parametrize("shots", [1, 17])
@pytest.mark.parametrize("name,mode", [("damping-0.3", "exact"),
                                       ("depolarizing-0.1", "twirl")])
def test_block_loop_matches_per_shot_loop_on_partial_blocks(name, mode, shots, tmp_path,
                                                            decode_calls, monkeypatch):
    # Blocks of 16 shots: 17 shots end on a one-shot block.
    block_shots(monkeypatch, 16)
    check_against_reference(CHANNELS[name](tmp_path), shots, 3, mode, decode_calls)


@pytest.mark.parametrize("name,mode", [("damping-0.3", "exact"),
                                       ("kraus-file", "exact"),
                                       ("depolarizing-0.1", "twirl")])
def test_results_do_not_depend_on_the_block_size(name, mode, tmp_path, decode_calls,
                                                 monkeypatch):
    channel = CHANNELS[name](tmp_path)
    shots = 2 * (decoder.MC_AMPLITUDES >> CODE.n) + 5
    default = monte_carlo(CODE, channel, shots=shots, seed=13, mode=mode)
    want = (default.rate, default.failures, default.per_syndrome)
    assert sum(v["ok"] + v["fail"] for v in default.per_syndrome.values()) == shots
    for size in (1, 3):
        block_shots(monkeypatch, size)
        got = monte_carlo(CODE, channel, shots=shots, seed=13, mode=mode)
        assert (got.rate, got.failures, got.per_syndrome) == want


def test_damping_draws_for_undecided_measurements():
    # Damping leaves some first- or second-round outcomes undecided, so the
    # comparison above covers the lazily drawn measurement randoms.
    setup = decoder_setup(CODE)
    rng = np.random.default_rng(0)
    state = sum(a * v for a, v in zip((0.6, 0.8j), setup.codeword_states))
    damped = state * np.array([np.sqrt(0.7) ** bin(e).count("1") for e in range(128)])
    with pytest.raises(NondeterministicMeasurementError):
        decoder.measure_syndrome(damped, CODE)
    syn, _ = decoder.measure_syndrome(damped, CODE, rng=rng)
    ref, _ = reference_measure_syndrome(damped, CODE, rng=np.random.default_rng(0))
    assert syn == ref


@pytest.mark.parametrize("draw", [0.0, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_zero_weight_kraus_branch_is_never_picked(order, draw):
    # Qubit 0 of every row is exactly |0>, where the damping branch K1 has
    # weight 0, whether it comes first or last and whatever the draw.
    kraus = np.array(amplitude_damping(0.3).kraus)[list(order)]
    zero = np.array([1, 0, 0, 0], dtype=complex)
    plus = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
    states = np.array([zero, plus, zero])
    draws = np.full((3, 1), draw)
    with np.errstate(all="raise"):
        out = decoder._kraus_noise(states, draws, kraus)
    assert np.all(np.isfinite(out))
    # K0 leaves every row alone.
    np.testing.assert_allclose(out, states, atol=1e-15)


def test_kraus_noise_weighs_and_applies_branches_like_the_branch_norms():
    # A random three-branch channel has complex Gram off-diagonals, so every
    # entry of each row's reduced density matrix enters the weights.
    rng = np.random.default_rng(4)
    isometry, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    kraus = isometry.reshape(3, 2, 2)
    n, rows = 3, 25
    states = rng.normal(size=(rows, 2 ** n)) + 1j * rng.normal(size=(rows, 2 ** n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    draws = rng.random((rows, n))
    got = decoder._kraus_noise(states, draws, kraus)
    for row, state in enumerate(states):
        for q in range(n):
            branches = [np.moveaxis(np.tensordot(k, state.reshape((2,) * n), axes=([1], [q])),
                                    0, q).reshape(-1) for k in kraus]
            weights = np.array([np.vdot(b, b).real for b in branches])
            pick = decoder._choice(weights / weights.sum(), np.array(draws[row, q]))
            state = branches[pick] / np.linalg.norm(branches[pick])
        np.testing.assert_allclose(got[row], state, atol=1e-12)


def test_the_drift_check_reads_each_rows_own_sector():
    setup = decoder_setup(CODE)
    codeword = setup.codeword_states[0] / np.linalg.norm(setup.codeword_states[0])
    flipped = codeword[np.arange(2 ** CODE.n) ^ (1 << (CODE.n - 1))]
    block = np.array([codeword, flipped])

    def measure(sectors):
        return decoder._measure_block(setup, block.copy(), [None, None], decoder._Actions(),
                                      sectors)

    s_z, _, _ = measure(decoder._Sectors(setup))
    assert s_z[0].tolist() != s_z[1].tolist()
    sectors = decoder._Sectors(setup)
    mask, coef = sectors[tuple(s_z[1].tolist())]
    sectors[tuple(s_z[1].tolist())] = (~mask, coef)
    with pytest.raises(NondeterministicMeasurementError, match="not supported on its sector"):
        measure(sectors)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_before_any_draw(
        seed, monkeypatch):
    monkeypatch.setattr(decoder, "decoder_setup", lambda code: pytest.fail("set up"))
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        monte_carlo(CODE, depolarizing(0.01), shots=1, seed=seed)


@pytest.mark.parametrize("shots", [0, -2, 2.5, True, False, "10", None])
def test_a_shot_count_that_is_not_a_positive_integer_is_refused_before_any_draw(
        shots, monkeypatch):
    monkeypatch.setattr(decoder, "decoder_setup", lambda code: pytest.fail("set up"))
    with pytest.raises(ValueError,
                       match=re.escape(f"shots must be a positive integer, got {shots!r}")):
        monte_carlo(CODE, depolarizing(0.01), shots=shots, seed=1)


def test_a_numpy_integer_shot_count_is_accepted():
    result = monte_carlo(CODE, depolarizing(0.01), shots=np.int64(2), seed=1)
    assert result.shots == 2
    assert sum(v["ok"] + v["fail"] for v in result.per_syndrome.values()) == 2
