"""Canonical form and structural analysis, validated by the dense oracle."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from tests_support import reference_canonical_form

from xplego import code_structure, ring_linalg, xp_algebra
from xplego.code_structure import (
    Z_SUPPORT_MAX_QUBITS,
    EmptyCodeError,
    InvariantError,
    PrecisionError,
    SizeLimitError,
    XpGroup,
    _phase_steps,
    canonical_form,
    codewords,
    complete_lid,
    counting_check,
    diagonal_logical_operators,
    logical_x_operators,
    orbit_decomposition,
    r_z_generators,
    z_support,
)
from xplego.dense_oracle import (
    group_elements,
    projector,
    render_operator,
    state_from_pairs,
    stabilizes,
)
from xplego.registry import lookup
from xplego.xp_algebra import MAX_PRECISION, XpOperator, from_z_vector, multiply


def single_p_group(precision=8):
    return XpGroup.from_generators([XpOperator(precision, (0,), (1,), 0)])


def test_canonical_fixes_printed_seven_qubit_matrix():
    g = lookup("722").group
    assert canonical_form(g).generators == g.generators


def test_canonical_fixes_all_printed_matrices():
    for name in ("722-traced", "lego6-steane", "lego6-second", "steane-xp",
                 "second-713", "711", "812", "steane", "422"):
        g = lookup(name).group
        got = canonical_form(g)
        assert got.generators == g.generators, name


def count_calls(monkeypatch, calls, module, name):
    """Count the calls of ``module.name`` in ``calls[name]``."""
    original = getattr(module, name)

    def counting(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)


def test_canonical_closure_grows_the_diagonal_block(monkeypatch):
    # {X, XZ} at N = 2: the sweep leaves -Z, and conjugating it by X gives Z,
    # which is not in <-Z>, so -I enters and the Howell form runs again.
    g = XpGroup.from_generators([XpOperator(2, (1,), (0,), 0), XpOperator(2, (1,), (1,), 0)])
    calls = {"howell_form": 0}
    count_calls(monkeypatch, calls, code_structure, "howell_form")
    got = canonical_form(g)
    assert calls == {"howell_form": 2}
    assert got == reference_canonical_form(g)
    assert XpOperator(2, (0,), (0,), 2) in got.generators


def test_canonical_closed_group_needs_one_howell_form_and_no_products(monkeypatch):
    gens = list(lookup("steane-xp").group.generators)
    random.Random(5).shuffle(gens)
    g = XpGroup.from_generators(gens)
    calls = {"howell_form": 0, "multiply": 0}
    count_calls(monkeypatch, calls, code_structure, "howell_form")
    count_calls(monkeypatch, calls, xp_algebra, "multiply")
    got = canonical_form(g)
    assert calls == {"howell_form": 1, "multiply": 0}
    assert got == reference_canonical_form(g)


def test_support_tables_stay_exact_at_the_precision_cap():
    # At N = MAX_PRECISION the exponent 4 + 2 (N - 1) (b0 + b1) is 4N on the
    # string 11 only, so the int64 tables must hold sums near 4N exactly.
    n_cap = MAX_PRECISION
    g = XpGroup.from_generators([XpOperator(n_cap, (0, 0), (n_cap - 1, n_cap - 1), 4)])
    assert z_support(g) == (3,)
    assert codewords(g).entries == (((3, 0),),)


@pytest.mark.parametrize("precision", [0, 1, 2 * MAX_PRECISION, 2 ** 62])
def test_a_group_checks_its_precision_without_rows(precision):
    with pytest.raises(PrecisionError):
        XpGroup(precision, 1, ())
    assert XpGroup(MAX_PRECISION, 1, ()).generators == ()


def test_canonical_removes_duplicates():
    g = lookup("422").group
    doubled = XpGroup.from_generators(g.generators + g.generators)
    c = canonical_form(doubled)
    assert c.generators == canonical_form(g).generators
    assert np.max(np.abs(projector(c) - projector(g))) < 1e-9


def test_canonical_invariant_under_remixing():
    rng = random.Random(9)
    base = lookup("lego6-steane").group
    target = canonical_form(base).generators
    for _ in range(10):
        gens = list(base.generators)
        for _ in range(8):
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            if i != j:
                gens[i] = multiply(gens[i], gens[j])
        rng.shuffle(gens)
        remixed = XpGroup.from_generators(gens, n=base.n, precision=base.precision)
        c = canonical_form(remixed)
        assert c.generators == target
        assert np.max(np.abs(projector(remixed) - projector(base))) < 1e-9


def test_z_support_examples():
    assert z_support(single_p_group()) == (0,)
    empty_sz = XpGroup.from_generators(
        [XpOperator(8, (1, 0), (0, 0), 0), XpOperator(8, (0, 1), (0, 0), 0)])
    assert z_support(empty_sz) == (0, 1, 2, 3)
    state = lookup("lego6-second").group
    support = z_support(state)
    expect = {0b000000, 0b100111, 0b010101, 0b110010,
              0b001110, 0b101001, 0b011011, 0b111100}
    assert set(support) == expect


def test_empty_code_detection():
    minus_identity = XpGroup.from_generators([XpOperator(4, (0,), (0,), 4)])
    with pytest.raises(EmptyCodeError):
        z_support(minus_identity)
    # Z and -Z together stabilize nothing.
    g = XpGroup.from_generators(
        [XpOperator(4, (0,), (2,), 0), XpOperator(4, (0,), (2,), 4)])
    with pytest.raises(EmptyCodeError):
        z_support(g)


def test_z_support_refuses_oversized_groups_before_allocating():
    n = 30
    assert n > Z_SUPPORT_MAX_QUBITS
    g = XpGroup.from_generators([XpOperator(8, (0,) * n, (4,) + (0,) * (n - 1), 0)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="30 qubits"):
            z_support(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_z_support_refuses_oversized_supports():
    # No diagonal generator: all 2^21 strings survive, above the string limit.
    g = XpGroup(8, 21, ())
    with pytest.raises(SizeLimitError, match="strings"):
        z_support(g)


def test_orbit_closure_is_checked_without_assert(monkeypatch):
    # The x generator pairs 0 with 1; a support holding only 0 breaks closure.
    g = XpGroup.from_generators([XpOperator(4, (1,), (0,), 0)])
    monkeypatch.setattr(code_structure, "z_support", lambda group: (0,))
    with pytest.raises(InvariantError):
        orbit_decomposition(g)


def test_complete_lid_factors_its_constraint_matrix_once(monkeypatch):
    # One (n+1) x (|support|+n) constraint system serves the kernel and
    # every x-block completion, so it is Howell-reduced exactly once.
    g = canonical_form(lookup("steane-xp").group)
    support = z_support(g)
    assert len(g.x_block) == 3
    widths = []
    howell_form = ring_linalg.howell_form

    def counting(m):
        widths.append(m.cols)
        return howell_form(m)

    monkeypatch.setattr(ring_linalg, "howell_form", counting)
    complete_lid(g)
    assert sum(w >= len(support) for w in widths) == 1


def test_logical_x_operators_factor_the_orbit_system_once(monkeypatch):
    # Every logical direction is solved on one orbit constraint system:
    # (n + 1 + orbits - 1) rows of |support| + n columns, Howell-reduced
    # once with the identity block appended.
    g = canonical_form(lookup("722").group)
    od = orbit_decomposition(g)
    assert len(od.logical_x_dirs) == 2
    rows = g.n + len(od.e_m)
    augmented = len(z_support(g)) + g.n + rows
    widths = []
    howell_form = ring_linalg.howell_form

    def counting(m):
        widths.append(m.cols)
        return howell_form(m)

    monkeypatch.setattr(ring_linalg, "howell_form", counting)
    logical_x_operators(g)
    assert widths.count(augmented) == 1


def test_decoder_setup_and_materialize_read_one_logical_basis(monkeypatch):
    # The logical basis reads one codeword table, and the Pauli checks read
    # the support from it, so decoder setup scans the Z-support once, and
    # materializing a logical leg scans it once.
    from xplego.decoder import DecoderSetup
    from xplego.lego import lego_from_group, materialize_logical

    code = canonical_form(lookup("steane-xp").group)
    calls = {"z_support": 0, "orbit_decomposition": 0}
    for name in calls:
        original = getattr(code_structure, name)

        def counting(g, _name=name, _original=original):
            calls[_name] += 1
            return _original(g)

        monkeypatch.setattr(code_structure, name, counting)
    DecoderSetup(code)
    assert calls == {"z_support": 1, "orbit_decomposition": 1}
    calls.update(z_support=0, orbit_decomposition=0)
    materialize_logical(lego_from_group(code), 0)
    assert calls == {"z_support": 1, "orbit_decomposition": 1}


def test_orbit_decomposition_for_states_and_codes():
    od = orbit_decomposition(lookup("lego6-second").group)
    assert od.regular and len(od.e_m) == 1 and od.logical_x_dirs == ()

    od = orbit_decomposition(lookup("steane-xp").group)
    assert od.regular
    assert len(od.e_m) == 2
    assert len(od.logical_x_dirs) == 1

    od = orbit_decomposition(lookup("722").group)
    assert od.regular
    assert len(od.e_m) == 4
    assert len(od.logical_x_dirs) == 2


def test_non_regular_toy():
    # Single diagonal generator whose support {000, 011, 101} is not affine.
    g = XpGroup.from_generators([from_z_vector((3, 3, 1), 4)])
    assert set(z_support(g)) == {0b000, 0b011, 0b101}
    od = orbit_decomposition(g)
    assert not od.regular
    assert len(od.e_q) == 3


def test_r_z_generators_examples():
    rz = r_z_generators(single_p_group())
    assert len(rz) == 1
    assert rz[0] == XpOperator(8, (0,), (4,), 0)

    code = lookup("722").group
    rz = r_z_generators(code)
    assert len(rz) == 3 == len(canonical_form(code).z_block)

    with pytest.raises(PrecisionError):
        r_z_generators(XpGroup.from_generators([XpOperator(3, (0,), (1,), 0)]))


def test_r_z_projector_matches_diagonal_block():
    for name in ("722", "steane-xp", "second-713", "711", "812", "lego6-second"):
        code = canonical_form(lookup(name).group)
        rz = r_z_generators(code)
        a = projector(XpGroup.from_generators(rz, n=code.n, precision=code.precision))
        b = projector(XpGroup.from_generators(code.z_block, n=code.n, precision=code.precision))
        assert np.max(np.abs(a - b)) < 1e-9, name


def test_counting_theorem_on_registry():
    for name in ("722", "steane-xp", "second-713", "711", "812",
                 "lego6-steane", "lego6-second", "steane", "422", "rm15"):
        assert counting_check(lookup(name).group), name


def test_codewords_simple_and_printed():
    plus = XpGroup.from_generators([XpOperator(2, (1,), (0,), 0)])
    table = codewords(plus)
    assert table.entries == (((0, 0), (1, 0)),)

    state = lookup("lego6-second").group
    table = codewords(state)
    assert len(table.entries) == 1
    phases = dict(table.entries[0])
    assert phases[0b111100] == 13
    assert phases[0b011011] == 5
    assert phases[0b001110] == 1
    assert phases[0b110010] == 0


def test_codewords_are_stabilized_densely():
    for name in ("722", "steane-xp", "711", "lego6-steane"):
        code = canonical_form(lookup(name).group)
        table = codewords(code)
        for cw in table.entries:
            vec = state_from_pairs(cw, code.n, code.precision)
            for op in code.generators:
                assert stabilizes(op, vec, tol=1e-9), name


def test_logical_x_operators():
    state = lookup("lego6-second").group
    assert logical_x_operators(state) == []

    code711 = lookup("711").group
    ops = logical_x_operators(code711)
    assert len(ops) == 1
    assert ops[0].x == (0, 0, 1, 0, 0, 1, 1)

    code722 = lookup("722").group
    ops = logical_x_operators(code722)
    assert len(ops) == 2
    pi = projector(code722)
    for op in ops:
        mat = render_operator(op)
        assert np.max(np.abs(mat @ pi @ mat.conj().T - pi)) < 1e-9
        assert np.max(np.abs(mat @ pi - pi)) > 1e-6


def test_diagonal_logicals_pair_with_x_logicals():
    for name in ("steane-xp", "second-713", "711", "812"):
        code = canonical_form(lookup(name).group)
        pi = projector(code)
        xbar = logical_x_operators(code)[0]
        zbar = diagonal_logical_operators(code)[0]
        xmat, zmat = render_operator(xbar), render_operator(zbar)
        assert np.max(np.abs(xmat @ pi @ xmat.conj().T - pi)) < 1e-9, name
        assert np.max(np.abs(zmat @ pi @ zmat.conj().T - pi)) < 1e-9, name
        # They anticommute on the code space, as an X/Z logical pair must.
        anti = xmat @ zmat @ pi + zmat @ xmat @ pi
        assert np.max(np.abs(anti)) < 1e-9, name


def test_projector_properties():
    z_code = XpGroup.from_generators([XpOperator(2, (0,), (1,), 0)])
    assert np.allclose(projector(z_code), np.diag([1.0, 0.0]))

    code = lookup("722").group
    pi = projector(code)
    assert abs(np.trace(pi).real - 4.0) < 1e-9
    assert np.max(np.abs(pi @ pi - pi)) < 1e-9
    assert np.max(np.abs(pi - pi.conj().T)) < 1e-9

    # Different stabilizer groups, identical code space.
    p_grp = single_p_group()
    z_grp = XpGroup.from_generators([XpOperator(8, (0,), (4,), 0)])
    assert np.max(np.abs(projector(p_grp) - projector(z_grp))) < 1e-12


def test_projector_equals_group_average():
    for name in ("422", "lego6-steane", "722"):
        code = canonical_form(lookup(name).group)
        elems = group_elements(code, limit=4096)
        avg = np.zeros((2 ** code.n, 2 ** code.n), dtype=complex)
        for op in elems:
            avg += render_operator(op)
        avg /= len(elems)
        assert np.max(np.abs(avg - projector(code))) < 1e-9, name


def test_counting_check_fails_on_undersized_group():
    # Three generators on four qubits: the certificate must reject.
    rows = [
        XpOperator(8, (1, 1, 1, 0), (3, 6, 6, 0), 1),
        XpOperator(8, (0, 0, 0, 0), (4, 4, 0, 0), 0),
        XpOperator(8, (0, 0, 0, 0), (0, 0, 0, 4), 0),
    ]
    g = XpGroup.from_generators(rows)
    # As a state certificate (no logical directions allowed) this fails;
    # read as a code the same group is a consistent [[4,1]] object.
    assert not counting_check(g, logical_dims=0)
    assert counting_check(g)


def test_a_phase_step_out_of_the_support_is_an_invariant_error():
    code = canonical_form(lookup("steane-xp").group)
    table = codewords(code)
    strings, phases = table.strings, table.phases
    dirs = [op.x_mask for op in code.x_block] + list(table.orbits.logical_x_dirs)
    assert _phase_steps(strings, phases, dirs).tolist() == [
        [phases[strings == e ^ w][0] - ph for e, ph in zip(strings, phases)] for w in dirs]
    outside = next(w for w in range(1, 1 << table.n) if not np.isin(strings ^ w, strings).all())
    with pytest.raises(InvariantError, match="out of the Z-support"):
        _phase_steps(strings, phases, dirs + [outside])


def test_css_mapping_unitary_strips_phases():
    # The diagonal unitary built from codeword phases conjugates a regular
    # code's projector onto the projector of its phase-stripped CSS twin
    # (x-block supports as plain X rows plus the Pauli support checks).
    from xplego.dense_oracle import omega_table

    for name in ("steane-xp", "second-713", "722", "lego6-second"):
        code = canonical_form(lookup(name).group)
        n, precision = code.n, code.precision
        codes = codewords(code)
        table = omega_table(precision)
        diag = np.ones(2 ** n, dtype=complex)
        diag[codes.strings] = table[(-codes.phases) % (2 * precision)]
        u = np.diag(diag)
        css_rows = [XpOperator(precision, op.x, (0,) * n, 0) for op in code.x_block]
        css_rows += r_z_generators(code)
        css = XpGroup.from_generators(css_rows, n=n, precision=precision)
        moved = u @ projector(code) @ u.conj().T
        assert np.max(np.abs(moved - projector(css))) < 1e-9, name


def test_precision_sixteen_works_end_to_end():
    # Desk scale includes precision 16: build a twisted two-qubit state,
    # canonicalize, and check the counting certificate and support.
    gens = [
        XpOperator(16, (1, 1), (3, 13), 0),
        XpOperator(16, (0, 0), (1, 15), 0),
    ]
    g = canonical_form(XpGroup.from_generators(gens))
    assert counting_check(g, logical_dims=0)
    support = z_support(g)
    assert set(support) == {0b00, 0b11}
    vec = state_from_pairs(codewords(g).entries[0], 2, 16)
    for op in g.generators:
        assert stabilizes(op, vec, tol=1e-9)
