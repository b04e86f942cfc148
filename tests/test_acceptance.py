"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion.  Two reference values (criteria 05b and 06) are
internally inconsistent with the check matrices they accompany; those
tests assert the reference values faithfully and fail, with the computed
truth stated in the printed detail line.
"""

from __future__ import annotations

import json
import random
from functools import reduce
from importlib import resources
from itertools import product

import numpy as np
import pytest

from tests_support import dense_sector_projector, random_xp_state_vec

from xplego.code_structure import (
    XpGroup,
    canonical_form,
    codewords,
    counting_check,
    r_z_generators,
)
from xplego.decoder import (
    Syndrome,
    decoder_setup,
    depolarizing,
    extract_syndrome,
    ml_decode,
    monte_carlo,
    pauli_process_coeffs,
    representative_errors,
)
from xplego.dense_oracle import (
    apply_operator,
    contract,
    lu_conjugate,
    omega_table,
    phase_unitary,
    projector,
    render_operator,
    state_from_pairs,
    stabilizes,
    xp_state_from_dense,
)
from xplego.enumerator import distance, enumerators
from xplego.lego import (
    lego_from_group,
    run_network,
    self_trace,
    shorten_to_logical,
    state_lego,
    tensor_product,
)
from xplego.registry import lookup, registry
from xplego.xp_algebra import XpOperator, commutes, multiply, power


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_trace_reproduction():
    code = lego_from_group(canonical_form(lookup("722").group))
    traced = self_trace(code, 0, 1)
    want = canonical_form(lookup("722-traced").group)
    report("01 worked seven-qubit self-trace",
           traced.group.generators == want.generators,
           "integer-exact three-row match")


def test_criterion_02_lego_reconstruction_of_both_codes():
    ok = True
    for fname, target in (("steane_xp_from_blocks.json", "steane-xp"),
                          ("second_713_from_blocks.json", "second-713")):
        doc = json.loads(resources.files("xplego").joinpath("data/networks").joinpath(fname).read_text())
        result = run_network(doc)
        want = canonical_form(lookup(target).group)
        ok = ok and result.group.generators == want.generators
    report("02 block reconstruction of both distance-3 codes", ok,
           "two copies of each six-leg block, fused and shortened")


def test_criterion_03_enumerator_goldens():
    golden = {
        "steane-xp": ("1 + 21z^4 + 42z^6",
                      "1 + 21z^3 + 21z^4 + 126z^5 + 42z^6 + 45z^7", 3),
        "second-713": ("1 + 13z^4 + 24z^5 + 18z^6 + 8z^7",
                       "1 + 13z^3 + 53z^4 + 78z^5 + 74z^6 + 37z^7", 3),
        "711": ("1 + 3z^2 + 23z^4 + 37z^6",
                "1 + z + 3z^2 + 23z^3 + 23z^4 + 111z^5 + 37z^6 + 57z^7", 1),
        "812": ("1 + 4z^2 + 18z^4 + 16z^5 + 28z^6 + 48z^7 + 13z^8",
                "1 + 6z^2 + 20z^3 + 36z^4 + 120z^5 + 130z^6 + 116z^7 + 83z^8", 2),
    }
    ok = True
    for name, (a_want, b_want, d_want) in golden.items():
        a, b = enumerators(canonical_form(lookup(name).group))
        ok = ok and a.format() == a_want and b.format() == b_want
        ok = ok and distance(a, b) == d_want
        if name == "711":
            ok = ok and (b[1] - a[1]) == 1
    report("03 enumerator golden polynomials", ok,
           "four codes, exact integer coefficients, distances 3/3/1/2")


def test_criterion_04_local_unitary_equivalence():
    pi_xp = projector(canonical_form(lookup("steane-xp").group))
    pi_steane = projector(canonical_form(lookup("steane").group))
    factors = [np.eye(2, dtype=complex)] * 7
    factors[1] = phase_unitary(8, 7)
    factors[3] = np.diag([1.0, -1.0]).astype(complex)
    factors[5] = phase_unitary(8, 7)
    moved = lu_conjugate(pi_xp, factors)
    equal = bool(np.max(np.abs(moved - pi_steane)) <= 1e-9)
    a2, b2 = enumerators(canonical_form(lookup("second-713").group))
    a_s, b_s = enumerators(canonical_form(lookup("steane").group))
    different = (a2.coefficients != a_s.coefficients) or (b2.coefficients != b_s.coefficients)
    report("04 local unitary equivalence", equal and different,
           "first code maps onto Steane; second has distinct enumerators")


def test_criterion_05a_counting_theorem_and_counterexample_flag():
    ok = True
    for name, entry in registry().items():
        if entry.group.precision & (entry.group.precision - 1):
            continue
        ok = ok and counting_check(entry.group)
    block = state_lego(lookup("lego6-second").group)
    traced = self_trace(block, 0, 1)
    ok = ok and len(traced.group.generators) == 3
    ok = ok and traced.group.n == 4
    ok = ok and not counting_check(traced.group, logical_dims=0)
    ok = ok and xp_state_from_dense(traced.dense, 8) is None
    report("05a counting certificate and non-XP flag", ok,
           "every registry code counts; counterexample keeps 3 generators on 4 legs")


def test_criterion_05b_counterexample_shadow_as_printed():
    # The printed post-trace superposition places both leftover phases on
    # one string; the contraction of the printed six-leg state does not.
    block = state_lego(lookup("lego6-second").group)
    traced = self_trace(block, 0, 1)
    w = omega_table(8)
    printed = np.zeros(16, dtype=complex)
    printed[0b0000] = 1
    printed[0b0010] = 1
    printed[0b1110] = w[1] + w[13]
    shadow = traced.dense
    overlap = abs(np.vdot(printed, shadow)) ** 2
    norm = float(np.vdot(printed, printed).real * np.vdot(shadow, shadow).real)
    proportional = bool(abs(overlap - norm) <= 1e-9 * max(norm, 1.0))
    report("05b counterexample shadow matches printed display", proportional,
           "computed shadow is |0000> + |0010> + w|1110> + w^13|1100>")


def test_criterion_06_magic_state_stabilizer_as_printed():
    state = state_from_pairs([(0, 0), (1, 2)], 1, 8)
    printed_op = XpOperator(8, (1,), (3,), 2)
    report("06 printed magic-state stabilizer", stabilizes(printed_op, state, tol=1e-12),
           "the square of the printed operator is -w^2 times identity, so it fixes nothing; "
           "the state is stabilized by the z=6 variant")


def test_criterion_07_matching_sufficiency_suite():
    rng = random.Random(777)
    certified = 0
    failures = 0
    attempts = 0
    while certified < 200 and attempts < 2000:
        attempts += 1
        precision = rng.choice((2, 4, 8))
        if rng.random() < 0.5:
            n = rng.randint(2, 6)
            vec = random_xp_state_vec(rng, n, precision)
            group = xp_state_from_dense(vec, precision)
            if group is None:
                continue
            lego = lego_from_group(group, dense=vec)
        else:
            n1 = rng.randint(1, 4)
            n2 = rng.randint(1, 4)
            v1 = random_xp_state_vec(rng, n1, precision)
            v2 = random_xp_state_vec(rng, n2, precision)
            g1 = xp_state_from_dense(v1, precision)
            g2 = xp_state_from_dense(v2, precision)
            if g1 is None or g2 is None:
                continue
            lego = tensor_product(lego_from_group(g1, dense=v1),
                                  lego_from_group(g2, dense=v2))
            n = n1 + n2
        if n < 2:
            continue
        j, k = rng.sample(range(n), 2)
        traced = self_trace(lego, j, k)
        if np.linalg.norm(traced.dense) < 1e-9:
            continue
        derived = xp_state_from_dense(traced.dense, precision)
        if derived is None:
            continue
        certified += 1
        pi_matched = projector(traced.group)
        w = traced.dense
        pi_state = np.outer(w, w.conj()) / float(np.vdot(w, w).real)
        if np.max(np.abs(pi_matched - pi_state)) > 1e-9:
            failures += 1
    report("07 matching sufficiency property suite",
           certified >= 200 and failures == 0,
           f"{certified} certified contractions, {failures} projector mismatches")


def test_criterion_08_decoder_exactness():
    # Exact class probabilities on a five-qubit code, every syndrome.
    code = shorten_to_logical(state_lego(lookup("lego6-steane").group), 0).group
    setup = decoder_setup(code)
    channel = depolarizing(0.05)
    coeffs = pauli_process_coeffs(channel)
    kraus = [np.asarray(k) for k in channel.kraus]
    n, pi, kdim = code.n, setup.projector, setup.dimension
    # The Kraus strings kc as one (4^n, 2^n, 2^n) stack, and every kc @ pi
    # side by side in one (2^n, 4^n 2^n) matrix.
    strings = np.stack([reduce(np.kron, [kraus[c] for c in combo])
                        for combo in product(range(4), repeat=n)])
    strings_pi = (strings @ pi).transpose(1, 0, 2).reshape(pi.shape[0], -1)

    def bayes_joint(syndrome, logical_op):
        e_sz, e_sx = representative_errors(syndrome, code)
        ez, ex = render_operator(e_sz), render_operator(e_sx)
        lmat = render_operator(logical_op)
        pi_sz = dense_sector_projector(setup, syndrome.s_z)
        pi_sx = ex @ pi @ ex.conj().T
        # pi @ mat = front @ kc and bar = pi @ mat @ pi = front @ kc @ pi, so
        # the sum over kc of Tr(bar bar^dag) is the squared norm of all bars.
        front = pi @ lmat.conj().T @ ex.conj().T @ pi_sx @ ez.conj().T @ pi_sz
        bars = front @ strings_pi
        traces = np.einsum("ij,kji->k", front, strings)
        return (np.vdot(bars, bars).real + np.sum(abs(traces) ** 2)) / (kdim * (kdim + 1))

    exact = True
    for s_z in product((0, 1), repeat=len(setup.r_z)):
        for s_x in product((0, 1), repeat=len(setup.x_checks)):
            syn = Syndrome(s_z, s_x)
            res = ml_decode(syn, coeffs, code)
            direct = {name: bayes_joint(syn, lop) for name, lop in setup.classes}
            total_ml = sum(res.probabilities.values())
            total_direct = sum(direct.values())
            for name, _ in setup.classes:
                cond_ml = res.probabilities[name] / total_ml
                cond_direct = direct[name] / total_direct
                exact = exact and abs(cond_ml - cond_direct) <= 1e-9

    # Every weight-one Pauli error corrected on both distance-3 codes.
    sweeps = True
    for name in ("steane-xp", "second-713"):
        code7 = canonical_form(lookup(name).group)
        setup7 = decoder_setup(code7)
        coeffs7 = pauli_process_coeffs(depolarizing(0.01))
        state = setup7.codeword_states[0] + 0.6j * setup7.codeword_states[1]
        state = state / np.linalg.norm(state)
        cache = {}
        for qubit in range(7):
            for kind in ("X", "Y", "Z"):
                x = tuple(1 if (i == qubit and kind in "XY") else 0 for i in range(7))
                z = tuple(4 if (i == qubit and kind in "YZ") else 0 for i in range(7))
                corrupted = apply_operator(XpOperator(8, x, z, 0), state)
                syn = extract_syndrome(corrupted, code7)
                if syn not in cache:
                    cache[syn] = ml_decode(syn, coeffs7, code7).correction
                fixed = apply_operator(cache[syn], corrupted)
                fid = abs(np.vdot(state, fixed)) ** 2 / float(np.vdot(fixed, fixed).real)
                sweeps = sweeps and fid > 1 - 1e-9
    report("08 decoder exactness", exact and sweeps,
           "Bayes-equal class conditionals on all syndromes; 21-error sweeps corrected")


def test_criterion_09_measurement_operator_lemmas():
    rng = random.Random(31)
    ok = True
    for entry in registry().values():
        if entry.group.n > 8:
            continue
        code = canonical_form(entry.group)
        if code.precision % 2:
            continue
        diag = XpGroup.from_generators(code.z_block, n=code.n, precision=code.precision) \
            if code.z_block else None
        rz = r_z_generators(code)
        pi_z = projector(XpGroup.from_generators(rz, n=code.n, precision=code.precision)) \
            if rz else np.eye(2 ** code.n, dtype=complex)
        gens = list(code.generators)
        dim = 2 ** code.n
        sample_ops = []
        for _ in range(100):
            op = XpOperator.identity(code.n, code.precision)
            for gidx, g in enumerate(gens):
                e = rng.randrange(2) if not g.is_diagonal else rng.randrange(code.precision)
                if e:
                    op = multiply(op, power(g, e))
            sample_ops.append(op)
            # Symbolic commutation with every Pauli support check.
            for r in rz:
                ok = ok and commutes(r, op)
            mat = pi_z @ render_operator(op)
            ok = ok and np.max(np.abs(mat - mat.conj().T)) <= 1e-9
            ok = ok and np.max(np.abs(mat @ mat - pi_z)) <= 1e-9
            if not ok:
                break
        for _ in range(30):
            a, b = rng.sample(sample_ops, 2) if len(sample_ops) >= 2 else (None, None)
            if a is None:
                break
            ma = pi_z @ render_operator(a)
            mb = pi_z @ render_operator(b)
            ok = ok and np.max(np.abs(ma @ mb - mb @ ma)) <= 1e-9
        for s in code.z_block:
            ok = ok and np.max(np.abs(pi_z @ render_operator(s) - pi_z)) <= 1e-9
        if not ok:
            break
    report("09 measurement operator lemmas", ok,
           "Hermitian, squares to the support projector, commuting family")


def test_criterion_10_fault_tolerant_t_gate():
    code = canonical_form(lookup("812").group)
    pi = projector(code)
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
    k_gate = np.diag([1.0, np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 4), 1.0]).astype(complex)
    tbar = reduce(np.kron, [t_gate] * 6 + [k_gate])
    preserves = bool(np.max(np.abs(tbar @ pi @ tbar.conj().T - pi)) <= 1e-9)

    table = codewords(code)
    k0 = state_from_pairs(table.entries[0], 8, 2)
    k1 = state_from_pairs(table.entries[1], 8, 2)
    c0 = np.vdot(k0, tbar @ k0) / np.vdot(k0, k0)
    c1 = np.vdot(k1, tbar @ k1) / np.vdot(k1, k1)
    diagonal = bool(
        np.linalg.norm(tbar @ k0 - c0 * k0) <= 1e-9 * np.linalg.norm(k0)
        and np.linalg.norm(tbar @ k1 - c1 * k1) <= 1e-9 * np.linalg.norm(k1))
    rel = c1 / c0
    target = np.exp(1j * np.pi / 4)
    # Logical T up to the orientation of the codeword labels.
    phase_ok = bool(min(abs(rel - target), abs(1 / rel - target)) <= 1e-9)

    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    z_mat = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    corr = (np.kron(eye, eye) + 1j * np.kron(z_mat, z_mat)) / np.sqrt(2.0)
    prop = True
    for xop in (np.kron(x_mat, eye), np.kron(eye, x_mat)):
        lhs = k_gate @ xop @ k_gate.conj().T
        prop = prop and np.max(np.abs(lhs - xop @ corr)) <= 1e-12
    report("10 fault-tolerant transversal T", preserves and diagonal and phase_ok and prop,
           "code space preserved, logical quarter phase, X propagation identity")


def test_criterion_11_monte_carlo_sanity():
    code = canonical_form(lookup("steane-xp").group)
    zero = monte_carlo(code, depolarizing(0.0), shots=2000, seed=5)
    rates = []
    for p in (0.005, 0.01, 0.02):
        rates.append(monte_carlo(code, depolarizing(p), shots=10_000, seed=5).rate)
    repeat = monte_carlo(code, depolarizing(0.01), shots=10_000, seed=5).rate
    physical = [1 - (1 - p) ** 7 for p in (0.005, 0.01, 0.02)]
    ok = (zero.rate == 0.0
          and rates[0] <= rates[1] <= rates[2]
          and rates[2] > 0.0
          and all(r < ph for r, ph in zip(rates, physical))
          and repeat == rates[1])
    report("11 Monte Carlo sanity", ok,
           f"rates {rates} monotone, below physical, seed-stable")
