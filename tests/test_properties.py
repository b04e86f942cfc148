"""Property tests of the algebra and the support-sized stages on random XP
groups.

The group law, inverses and powers are checked against dense rendering,
the GF(2) span routine against the per-value basis, the Howell form against
unimodular remixing and a brute-force span, the closed-form squares and
commutators of the canonical form's diagonal pool against row products, and
the canonical form against the same algorithm on ``XpOperator`` products,
also at N in {3, 6}.  Each
vectorized stage is compared with the per-string loop it replaced, kept
here as the reference, at precisions N in {2, 4, 8, 16}; the logical
identity group completion is checked against its defining properties, the
symbolic trace against the full symmetry group of the dense contraction
and, on random products (whose tensor product must be the canonical form of
the plain product), against matching on the whole group, operator
matching and code shortening against the brute-force subgroup of every
group element that meets their condition, and the exact enumerators and
biased distances against the dense oracle, also at N in {3, 5, 6}.  On
products of groups over disjoint legs, the pivot merge of canonical blocks
is checked against the canonical form of the product and the per-block
counting certificate against the whole-group one; chains of registry legos
are traced block by block against the whole-group trace at every step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tests_support import (
    action_phase,
    brute_force_shortening,
    brute_force_trace_front,
    dense_biased_distance,
    digit_rows,
    random_xp_state_vec,
    reference_canonical_form,
    whole_group_counting_check,
    whole_group_trace,
)

from xplego.code_structure import (
    EmptyCodeError,
    XpGroup,
    _commutator_vec,
    _constraint_matrix,
    _lid,
    _solve_constraints,
    _square_vec,
    _span_basis,
    _xor_basis,
    canonical_form,
    codewords,
    complete_lid,
    counted_logicals,
    counting_check,
    int_to_bits,
    lid_from_phase_table,
    merge_canonical_blocks,
    orbit_decomposition,
    permute_legs,
    z_support,
)
from xplego.dense_oracle import projector, render_operator, xp_state_from_dense
from xplego.enumerator import biased_distance, dense_enumerators, enumerators
from xplego import lego as lego_module
from xplego.lego import (
    Lego,
    NotIsometryError,
    _trace_front_two,
    lego_from_group,
    shorten_to_logical,
    tensor_product,
    trace_with_insertion,
)
from xplego.registry import lookup
from xplego.ring_linalg import ModMatrix, howell_form
from xplego.xp_algebra import (XpOperator, _row_inv, _row_mul, conjugate, embed, inverse,
                               multiply, power)

PRECISIONS = (2, 4, 8, 16)
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def xp_groups(draw, max_n=10, max_x=3, max_diag=4, precisions=PRECISIONS):
    precision = draw(st.sampled_from(precisions))
    n = draw(st.integers(1, max_n))
    zs = st.tuples(*[st.integers(0, precision - 1)] * n)
    phases = st.integers(0, 2 * precision - 1)
    gens = []
    for _ in range(draw(st.integers(0, max_x))):
        x = draw(st.tuples(*[st.integers(0, 1)] * n))
        gens.append(XpOperator(precision, x, draw(zs), draw(phases)))
    for _ in range(draw(st.integers(0, max_diag))):
        gens.append(XpOperator(precision, (0,) * n, draw(zs), draw(phases)))
    return XpGroup.from_generators(gens, n=n, precision=precision)


@st.composite
def xp_operator_pairs(draw, max_n=4):
    precision = draw(st.sampled_from(PRECISIONS))
    n = draw(st.integers(1, max_n))

    def operator():
        return XpOperator(precision, draw(st.tuples(*[st.integers(0, 1)] * n)),
                          draw(st.tuples(*[st.integers(0, precision - 1)] * n)),
                          draw(st.integers(0, 2 * precision - 1)))

    return operator(), operator()


@PROPERTY_SETTINGS
@given(xp_operator_pairs(), st.integers(-3, 5))
def test_group_law_agrees_with_dense_rendering(pair, k):
    a, b = pair
    assert np.allclose(render_operator(multiply(a, b)),
                       render_operator(a) @ render_operator(b), atol=1e-12)
    assert np.allclose(render_operator(inverse(a)), render_operator(a).conj().T, atol=1e-12)
    assert np.allclose(render_operator(power(a, k)),
                       np.linalg.matrix_power(render_operator(a), k), atol=1e-12)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 255), max_size=12).map(lambda v: v + v[:3] + [0]))
def test_span_basis_equals_the_per_value_xor_basis(values):
    # Zeros and repeated values included; both bases are reduced, hence unique.
    assert set(_span_basis(np.array(values))) == set(_xor_basis(values))


@PROPERTY_SETTINGS
@given(xp_groups(max_n=6, max_x=4, precisions=(2, 3, 4, 6, 8, 16)))
def test_canonical_form_equals_the_operator_product_reference(group):
    # Odd and non-power-of-two N reach the gcd branches of howell_form.
    assert canonical_form(group) == reference_canonical_form(group)


@PROPERTY_SETTINGS
@given(xp_operator_pairs(max_n=6))
def test_closed_form_squares_and_commutators_equal_the_row_products(pair):
    a, b = ((op.x, op.z, op.phase) for op in pair)
    precision = pair[0].precision
    two_n = 2 * precision

    def diagonal_vec(row):
        x, z, p = row
        assert not any(x)
        return [2 * zi % two_n for zi in z] + [p]

    assert [v % two_n for v in _square_vec(a)] == diagonal_vec(_row_mul(a, a, precision))
    ba_inv = _row_inv(_row_mul(b, a, precision), precision)
    want = diagonal_vec(_row_mul(_row_mul(a, b, precision), ba_inv, precision))
    # None stands for d = 0; a nonzero d can still give the identity mod 2N.
    assert [v % two_n for v in _commutator_vec(a, b) or [0] * len(want)] == want


# Mostly x rows, so that the pool holds many squares and commutators.
@PROPERTY_SETTINGS
@given(xp_groups(max_n=6, max_x=6, max_diag=1))
def test_the_closed_form_pool_gives_the_product_pool_canonical_form(group):
    assert canonical_form(group) == reference_canonical_form(group)


@st.composite
def remixed_matrices(draw, max_rows=3, max_cols=3):
    """A matrix over Z_N and the same rows after a random unimodular
    remixing: swaps, additions of a multiple of another row, unit scalings."""
    modulus = draw(st.sampled_from(PRECISIONS))
    cols = draw(st.integers(1, max_cols))
    rows = [list(draw(st.tuples(*[st.integers(0, modulus - 1)] * cols)))
            for _ in range(draw(st.integers(1, max_rows)))]
    mixed = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        step = draw(st.sampled_from(("swap", "add", "scale")))
        if step == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif step == "add" and i != j:
            k = draw(st.integers(1, modulus - 1))
            mixed[i] = [(a + k * b) % modulus for a, b in zip(mixed[i], mixed[j])]
        elif step == "scale":
            unit = draw(st.integers(0, modulus // 2 - 1)) * 2 + 1  # odd: a unit of Z_N
            mixed[i] = [unit * a % modulus for a in mixed[i]]
    return ModMatrix.from_rows(rows, modulus), ModMatrix.from_rows(mixed, modulus)


def brute_span(rows, modulus, cols):
    """Every Z_N combination of ``rows``, as a set of tuples."""
    span = np.zeros((1, cols), dtype=np.int64)
    for row in rows:
        steps = np.arange(modulus)[:, None] * np.asarray(row)[None, :]
        span = np.unique((span[:, None, :] + steps[None, :, :]).reshape(-1, cols) % modulus,
                         axis=0)
    return set(map(tuple, span.tolist()))


@PROPERTY_SETTINGS
@given(remixed_matrices())
def test_howell_form_is_unique_and_spans_the_row_module(case):
    a, mixed = case
    h = howell_form(a)
    assert howell_form(mixed) == h
    assert brute_span(h.entries, a.modulus, a.cols) == brute_span(a.entries, a.modulus, a.cols)


def brute_support(ops, n):
    return tuple(e for e in range(2 ** n) if all(action_phase(op, e) == 0 for op in ops))


def reference_codewords(g):
    """Per-representative product formula: every x-block subset product
    applied to every orbit representative."""
    g = canonical_form(g)
    sx = g.x_block
    entries = []
    for m in orbit_decomposition(g).e_m:
        pairs = []
        for exps in product((0, 1), repeat=len(sx)):
            op = XpOperator.identity(g.n, g.precision)
            for e, s in zip(exps, sx):
                if e:
                    op = multiply(op, s)
            pairs.append((m ^ op.x_mask, action_phase(op, m)))
        entries.append(tuple(sorted(pairs)))
    return tuple(entries)


def reference_orbits(g):
    """Orbit decomposition by enumerating the x span string by string."""
    g = canonical_form(g)
    support = set(z_support(g))
    dirs = [op.x_mask for op in g.x_block]
    span = {0}
    for d in dirs:
        span |= {s ^ d for s in span}
    assert all(e ^ s in support for e in support for s in span)

    def label(e):
        return min(e ^ s for s in span)

    e_m = sorted({label(e) for e in support})
    reps = set(e_m)
    w_group = sorted(d for d in {label(e_m[0] ^ m) for m in e_m}
                     if {label(m ^ d) for m in e_m} == reps)
    seen, core = set(), []
    for m in e_m:
        if m not in seen:
            orbit = {label(m ^ d) for d in w_group}
            seen |= orbit
            core.append(min(orbit))
    basis, covered = [], set(span)
    for d in w_group:
        if d not in covered:
            basis.append(d)
            covered |= {c ^ d for c in covered}
    return tuple(e_m), tuple(sorted(core)), len(w_group) == len(e_m), tuple(basis)


@PROPERTY_SETTINGS
@given(xp_groups(max_x=0))
def test_z_support_of_diagonal_groups_matches_brute_force(g):
    want = brute_support(g.generators, g.n)
    if not want:
        with pytest.raises(EmptyCodeError):
            z_support(g)
    else:
        assert z_support(g) == want


@PROPERTY_SETTINGS
@given(xp_groups())
def test_z_support_of_xp_groups_matches_brute_force(g):
    want = brute_support(canonical_form(g).z_block, g.n)
    if not want:
        with pytest.raises(EmptyCodeError):
            z_support(g)
    else:
        assert z_support(g) == want


@PROPERTY_SETTINGS
@given(xp_groups(max_n=8))
def test_codewords_and_orbits_match_the_per_string_loops(g):
    try:
        table = codewords(g)
    except EmptyCodeError:
        with pytest.raises(EmptyCodeError):
            z_support(g)
        return
    assert table.entries == reference_codewords(g)
    assert np.all(np.diff(table.strings) > 0)
    assert tuple(table.strings.tolist()) == z_support(g)
    by_owner = [table.owner == c for c in range(len(table.orbits.e_m))]
    assert table.entries == tuple(
        tuple(zip(table.strings[c].tolist(), table.phases[c].tolist())) for c in by_owner)
    assert not any(a.flags.writeable for a in (table.strings, table.phases, table.owner))
    od = orbit_decomposition(g)
    assert (od.e_m, od.e_q, od.regular, od.logical_x_dirs) == reference_orbits(g)


# Qubit counts at which every diagonal operator can be enumerated.
BRUTE_MAX_N = {2: 4, 4: 3, 8: 2, 16: 2}


@st.composite
def constraint_systems(draw, with_orbits=False):
    precision = draw(st.sampled_from(PRECISIONS))
    n = draw(st.integers(1, BRUTE_MAX_N[precision]))
    strings = sorted(draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1)))
    targets = [draw(st.integers(0, 2 * precision - 1)) for _ in strings]
    orbit_ids = None
    if with_orbits:
        orbit_ids = [draw(st.integers(0, 1)) for _ in strings]
        orbit_ids[0] = 0
    return precision, n, strings, targets, orbit_ids


def solve_constraints(precision, n, strings, targets, orbit_ids):
    return _solve_constraints(_constraint_matrix(n, precision, strings, orbit_ids), n, targets)


def span_kernel(precision, n, strings):
    """Howell basis of every diagonal operator fixing each of ``strings``."""
    strings = np.array(strings, dtype=np.int64)
    return _lid(strings, np.zeros_like(strings), (), n, precision)


def brute_solvable(precision, n, strings, targets, orbit_ids):
    two_n = 2 * precision
    zs = np.array(list(product(range(precision), repeat=n)), dtype=np.int64)
    bits = np.array([[(e >> (n - 1 - i)) & 1 for i in range(n)] for e in strings])
    base = 2 * zs @ bits.T                      # (operators, strings)
    offsets = np.zeros(len(strings), dtype=np.int64)
    gammas = range(two_n) if orbit_ids is not None and any(orbit_ids) else (0,)
    for gamma in gammas:
        if orbit_ids is not None:
            offsets = gamma * np.array(orbit_ids)
        for p in range(two_n):
            hits = (base + p + offsets - np.array(targets)) % two_n == 0
            if hits.all(axis=1).any():
                return True
    return False


@PROPERTY_SETTINGS
@given(constraint_systems())
def test_diagonal_constraint_solution_matches_brute_force(system):
    precision, n, strings, targets, _ = system
    solved = solve_constraints(precision, n, strings, targets, None)
    assert (solved is not None) == brute_solvable(precision, n, strings, targets, None)
    if solved is not None:
        op, gammas = solved
        assert gammas == (0,)
        assert [action_phase(op, e) for e in strings] == [t % (2 * precision) for t in targets]


@PROPERTY_SETTINGS
@given(constraint_systems(with_orbits=True))
def test_orbit_constraint_solution_matches_brute_force(system):
    precision, n, strings, targets, orbit_ids = system
    solved = solve_constraints(precision, n, strings, targets, orbit_ids)
    assert (solved is not None) == brute_solvable(precision, n, strings, targets, orbit_ids)
    if solved is not None:
        op, gammas = solved
        two_n = 2 * precision
        for e, t, j in zip(strings, targets, orbit_ids):
            assert (action_phase(op, e) + gammas[j] - t) % two_n == 0


@PROPERTY_SETTINGS
@given(constraint_systems())
def test_diagonal_span_kernel_fixes_every_string(system):
    precision, n, strings, _, _ = system
    for op in span_kernel(precision, n, strings).generators:
        assert all(action_phase(op, e) == 0 for e in strings)


def parity(v):
    return bin(v).count("1") % 2


@st.composite
def stabilizing_groups(draw, max_n=8, precisions=PRECISIONS):
    """Random subgroups of the symmetry group of one XP state D|A>.

    A is the uniform state on an affine GF(2) space e0 + span(dirs) and D a
    diagonal operator.  The full group is generated by D X^w D^-1 for w in
    dirs and by the Z strings (-1)^(v.e0) Z^v with v orthogonal to dirs; up
    to two of those generators are dropped, which leaves a code.
    """
    precision = draw(st.sampled_from(precisions))
    n = draw(st.integers(1, max_n))
    e0 = draw(st.integers(0, 2 ** n - 1))
    dirs = draw(st.lists(st.integers(1, 2 ** n - 1), min_size=1, max_size=3))
    d = XpOperator(precision, (0,) * n, draw(st.tuples(*[st.integers(0, precision - 1)] * n)),
                   draw(st.integers(0, 2 * precision - 1)))
    gens = [conjugate(d, XpOperator(precision, int_to_bits(w, n), (0,) * n, 0)) for w in dirs]
    span = {0}
    for v in range(1, 2 ** n):
        if v not in span and not any(parity(v & w) for w in dirs):
            span |= {s ^ v for s in span}
            z = tuple(precision // 2 * b for b in int_to_bits(v, n))
            gens.append(XpOperator(precision, (0,) * n, z, precision * parity(v & e0)))
    for _ in range(draw(st.integers(0, min(2, len(gens))))):
        gens.pop(draw(st.integers(0, len(gens) - 1)))
    return XpGroup.from_generators(gens, n=n, precision=precision)


@PROPERTY_SETTINGS
@given(stabilizing_groups())
def test_complete_lid_contains_the_group_and_fixes_every_codeword(g):
    table = codewords(g)
    lid = complete_lid(g)
    both = XpGroup(g.precision, g.n, lid.generators + g.generators)
    assert canonical_form(both).generators == lid.generators
    two_n = 2 * g.precision
    for op in lid.generators:
        for cw in table.entries:
            phases = dict(cw)
            for e, ph in cw:
                assert phases[e ^ op.x_mask] == (ph + action_phase(op, e)) % two_n
    if len(table.entries) == 1:
        assert lid_from_phase_table(table.entries[0], g.n, g.precision) == lid


@st.composite
def traced_xp_states(draw, max_n=6):
    """A lego of one random XP state, or of the product of two (where a bond
    between the factors is a conjoin), with its dense vector, two distinct
    legs and a bond insertion of None or X."""
    precision = draw(st.sampled_from(PRECISIONS))
    first = draw(st.integers(1, max_n))
    second = draw(st.integers(max(0, 2 - first), max_n - first))
    rng = draw(st.randoms(use_true_random=False))
    legos = []
    for n in [n for n in (first, second) if n]:
        vec = random_xp_state_vec(rng, n, precision)
        group = xp_state_from_dense(vec, precision)
        assume(group is not None)
        legos.append(lego_from_group(group, dense=vec))
    state = legos[0] if len(legos) == 1 else tensor_product(*legos)
    legs = draw(st.lists(st.integers(0, state.n - 1), min_size=2, max_size=2, unique=True))
    return state, legs, draw(st.sampled_from((None, "X")))


# Only a few percent of draws need the exact collision handling of a trace,
# so this property takes more examples than the others.
@settings(max_examples=300, deadline=None)
@given(traced_xp_states())
def test_symbolic_trace_equals_the_dense_certificate(case):
    state, (j, k), insertion = case
    traced = trace_with_insertion(state, j, k, insertion)
    if np.linalg.norm(traced.dense) > 1e-9:
        derived = xp_state_from_dense(traced.dense, traced.precision)
        if derived is not None:
            assert canonical_form(traced.group).generators == derived.generators


@st.composite
def traced_products(draw, max_factors=4):
    """A lego tensoring up to four random factors, two distinct legs and a
    bond insertion of None or X.  A factor is one random XP state (one
    codeword), a subgroup of an XP state's symmetry group (often several
    codewords), a random XP code or group (the group may stabilize nothing;
    the legs of either may fall into several blocks), a free leg that no
    generator touches or -I on one leg (an empty code).  Returns the lego,
    the legs, the insertion and the factors."""
    precision = draw(st.sampled_from(PRECISIONS))
    rng = draw(st.randoms(use_true_random=False))
    factors = []
    for _ in range(draw(st.integers(1, max_factors))):
        kind = draw(st.sampled_from(("state", "code", "random code", "group", "free", "-I")))
        if kind == "state":
            n = draw(st.integers(1, 4))
            group = xp_state_from_dense(random_xp_state_vec(rng, n, precision), precision)
            assume(group is not None)
        elif kind == "code":
            group = draw(stabilizing_groups(max_n=3, precisions=(precision,)))
        elif kind == "random code":
            group = draw(xp_codes(max_n=3, precisions=(precision,)))
        elif kind == "group":
            group = draw(xp_groups(max_n=3, max_x=2, max_diag=2, precisions=(precision,)))
        elif kind == "free":
            group = XpGroup(precision, 1, ())
        else:
            group = XpGroup(precision, 1, (XpOperator(precision, (0,), (0,), precision),))
        factors.append(lego_from_group(group))
    lego = factors[0]
    for factor in factors[1:]:
        lego = tensor_product(lego, factor)
    assume(lego.n >= 2)
    legs = draw(st.lists(st.integers(0, lego.n - 1), min_size=2, max_size=2, unique=True))
    return lego, legs, draw(st.sampled_from((None, "X"))), factors


@settings(max_examples=400, deadline=None)
@given(traced_products())
def test_block_trace_equals_the_whole_group_trace(case):
    lego, (j, k), insertion, factors = case
    # A tensor product is the canonical form of the plain embedded product,
    # merged from its factors' canonical forms or, past a phase-only row,
    # computed anew; either way a trace starts from a canonical group.
    if len(factors) > 1:
        offsets = np.cumsum([0] + [f.n for f in factors]).tolist()
        plain = product_group(lego.n, lego.precision, [
            (f.group, range(start, start + f.n)) for f, start in zip(factors, offsets)])
        assert lego.group.canonical
        assert lego.group.generators == canonical_form(plain).generators
    want = whole_group_trace(lego.group, j, k, "plain" if insertion is None else "insert_x")
    got = trace_with_insertion(lego, j, k, insertion).group
    assert (got.n, got.generators) == (want.n, want.generators)


# |00> - |11> on the traced legs beside Z on a third leg: the two strings
# collide and cancel.
CANCELLING_PAIR = (lego_from_group(XpGroup(2, 3, (XpOperator(2, (1, 1, 0), (0, 0, 0), 2),
                                                  XpOperator(2, (0, 0, 0), (1, 1, 0), 0),
                                                  XpOperator(2, (0, 0, 0), (0, 0, 1), 0)))),
                   [0, 1], None)


@example(CANCELLING_PAIR)
@settings(max_examples=300, deadline=None)
@given(st.one_of(traced_xp_states(), traced_products().map(lambda case: case[:3])))
def test_one_codeword_strings_collide_all_in_pairs_or_not_at_all(case):
    # A one-codeword table is one orbit of the x span: once two strings
    # differ exactly on the traced legs, every string has its partner.
    lego, (j, k), insertion = case
    tables = []
    check = lego_module._traced_table_if_collisions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lego_module, "_traced_table_if_collisions",
                      lambda table: tables.append(table) or check(table))
        trace_with_insertion(Lego(lego.group, lego.designation), j, k, insertion)
    for table in tables:
        if len(table.entries) == 1:
            rest = (1 << (table.n - 2)) - 1
            assert set(Counter(e & rest for e, _ in table.entries[0]).values()) in ({1}, {2})


@st.composite
def xp_codes(draw, max_n=5, precisions=(2, 4, 8)):
    """Random XP groups, last generators dropped until a code space remains.

    Most random groups stabilize nothing; the twisted stabilizer codes of
    ``stabilizing_groups`` have phase differences too regular to tell a
    wrong exponent modulus or a skipped cyclotomic reduction apart.  Half
    the draws lead with X on every qubit, phased so that it squares to the
    identity: that row is never dropped, no single-qubit Z commutes with it,
    and most such codes have a logical of weight 2 to n, where the others
    mostly have every biased distance 1.
    """
    g = draw(xp_groups(max_n=max_n, precisions=precisions))
    n, precision = g.n, g.precision
    gens = list(g.generators)
    if draw(st.booleans()):
        # Entries 0 and N/2 make it a Pauli string on some qubits, so odd
        # weight Y strings also act on the code as a phase.
        entry = st.sampled_from((0, precision // 2, draw(st.integers(0, precision - 1))))
        z = draw(st.tuples(*[entry] * n))
        phase = -sum(z) % precision + precision * draw(st.integers(0, 1))
        gens.insert(0, XpOperator(precision, (1,) * n, z, phase))
    while True:
        code = XpGroup.from_generators(gens, n=n, precision=precision)
        try:
            codewords(code)
            return code
        except EmptyCodeError:
            gens.pop()


# Codes from both generators: twisted stabilizer codes and random XP codes.
LID_CODES = st.one_of(stabilizing_groups(), xp_codes(precisions=PRECISIONS))


@settings(max_examples=300, deadline=None)
@given(LID_CODES)
def test_logical_identity_groups_are_built_in_canonical_form(g):
    # complete_lid, lid_from_phase_table and the bare kernel of _lid skip
    # the canonical_form pass, so each result must already be its own form.
    def recanonicalized(group):
        return canonical_form(replace(group, canonical=False)).generators

    lid = complete_lid(g)
    assert lid.canonical and recanonicalized(lid) == lid.generators
    for cw in codewords(g).entries:
        state = lid_from_phase_table(cw, g.n, g.precision)
        assert state is not None and state.canonical
        assert recanonicalized(state) == state.generators
    kernel = span_kernel(g.precision, g.n, z_support(g))
    assert kernel.canonical and recanonicalized(kernel) == kernel.generators


@settings(max_examples=300, deadline=None)
@given(LID_CODES)
def test_a_completion_has_the_codeword_table_of_its_group(g):
    # A trace reads the codeword table of the group it completes as the
    # table of the completion.
    assert codewords(complete_lid(g)).entries == codewords(g).entries


@st.composite
def small_codes_and_states(draw, max_n=5):
    """A code from either generator of ``LID_CODES`` or one random XP state,
    on 2 to ``max_n`` legs in a random order."""
    if draw(st.booleans()):
        g = draw(st.one_of(stabilizing_groups(max_n=max_n),
                           xp_codes(max_n=max_n, precisions=PRECISIONS)))
    else:
        precision = draw(st.sampled_from(PRECISIONS))
        n = draw(st.integers(2, max_n))
        rng = draw(st.randoms(use_true_random=False))
        g = xp_state_from_dense(random_xp_state_vec(rng, n, precision), precision)
        assume(g is not None)
    assume(g.n >= 2)
    return permute_legs(g, draw(st.permutations(range(g.n))))


# Neither x row matches on legs 0 and 1 alone; their product does.
@example(digit_rows(4, [("100000", "300202", 1), ("000100", "200300", 5),
                        ("000001", "200001", 3), ("000000", "000010", 0)]), "plain")
@settings(max_examples=100, deadline=None)
@given(small_codes_and_states(), st.sampled_from(("plain", "insert_x")))
def test_matching_keeps_every_matched_element_of_the_front(g, mode):
    try:
        want = brute_force_trace_front(g, mode, limit=2048)
    except ValueError:
        assume(False)
    got = _trace_front_two(canonical_form(g), mode, rebuild=False)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.generators == want.generators


# Products of rows whose z on the leg cancels have no X and z == 0 there.
@example(digit_rows(4, [("10000", "10022", 7), ("01000", "01020", 3), ("00010", "22002", 4),
                        ("00001", "20020", 0), ("00000", "00100", 6)]))
@example(digit_rows(8, [("10000", "30044", 13), ("01001", "40005", 11),
                        ("00010", "40040", 4)]))
# Most draws have no leg that can be shortened and are filtered out.
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_codes_and_states())
def test_shortening_keeps_every_element_clear_on_the_leg(g):
    shortened = {}
    for leg in range(g.n):
        try:
            shortened[leg] = shorten_to_logical(lego_from_group(g), leg).group
        except NotIsometryError:
            pass
    assume(shortened)
    try:
        want = brute_force_shortening(g, list(shortened))
    except ValueError:
        assume(False)
    assert [s.generators for s in shortened.values()] == [s.generators for s in want]


# Reduced coordinates differ from x^N = -1 exactly at N = 3, 5 and 6.
EXACT_PRECISIONS = (2, 3, 4, 5, 6, 8, 16)


@PROPERTY_SETTINGS
@given(xp_codes(precisions=EXACT_PRECISIONS))
def test_exact_enumerators_equal_the_dense_oracle(g):
    assert enumerators(g) == dense_enumerators(projector(g))


# A wrong phase for odd weight Y strings shows on a few percent of draws.
@settings(max_examples=300, deadline=None)
@given(xp_codes(precisions=EXACT_PRECISIONS))
def test_biased_distances_equal_dense_pauli_strings(g):
    pi = projector(g)
    for axis in "XYZ":
        assert biased_distance(g, axis) == dense_biased_distance(pi, axis), axis


@st.composite
def disjoint_factors(draw, max_factors=4, max_free=2, max_n=12):
    """Up to four groups at one precision on disjoint, interleaved legs, plus
    up to two free legs that no generator touches, 12 legs at most.  A factor is a subgroup
    of an XP state's symmetry group, its full logical identity group, a
    random XP code, a random group (which may stabilize nothing or hold a
    phase times identity), or the one-leg group of -P, which for N >= 4
    fixes no string yet holds no phase times identity.  Returns
    (n, precision, [(group, legs)]) with each leg list increasing."""
    precision = draw(st.sampled_from(PRECISIONS))
    groups = []
    for _ in range(draw(st.integers(1, max_factors))):
        kind = draw(st.sampled_from(("code", "complete", "random code", "group", "-P")))
        if kind == "-P":
            group = XpGroup(precision, 1, (XpOperator(precision, (0,), (1,), precision),))
        elif kind in ("code", "complete"):
            group = draw(stabilizing_groups(max_n=3, precisions=(precision,)))
            if kind == "complete":
                group = complete_lid(group)
        elif kind == "random code":
            group = draw(xp_codes(max_n=3, precisions=(precision,)))
        else:
            group = draw(xp_groups(max_n=3, max_x=2, max_diag=2, precisions=(precision,)))
        groups.append(group)
    n = sum(g.n for g in groups)
    n += draw(st.integers(0, min(max_free, max_n - n)))
    order = draw(st.permutations(range(n)))
    placed, start = [], 0
    for g in groups:
        placed.append((g, sorted(order[start:start + g.n])))
        start += g.n
    return n, precision, placed


def product_group(n, precision, placed):
    rows = [embed(op, n, legs) for g, legs in placed for op in g.generators]
    return XpGroup(precision, n, tuple(rows))


@PROPERTY_SETTINGS
@given(disjoint_factors())
def test_the_pivot_merge_of_canonical_blocks_is_the_canonical_product(case):
    n, precision, placed = case
    blocks = [(canonical_form(g), legs) for g, legs in placed]
    merged = merge_canonical_blocks(n, precision, blocks)
    assert merged.canonical
    assert merged.generators == canonical_form(product_group(n, precision, placed)).generators


@PROPERTY_SETTINGS
@given(disjoint_factors())
def test_per_block_counting_equals_the_whole_group_count(case):
    group = product_group(*case)
    for logical_dims in (None, 0):
        want = whole_group_counting_check(group, logical_dims)
        assert counting_check(group, logical_dims) == want


# Small registry legos for chains.  422 (N = 2) is lifted to N = 8, where
# Z = P^4 and i = w^4, so that every copy has the same precision.
CHAIN_LEGOS = ("722", "722-traced", "lego6-steane", "422")


def chain_copy(name: str, precision: int = 8) -> Lego:
    g = lookup(name).group
    scale = precision // g.precision
    ops = tuple(XpOperator(precision, op.x, tuple(scale * z for z in op.z), scale * op.phase)
                for op in g.generators)
    return lego_from_group(canonical_form(XpGroup(precision, g.n, ops)))


@st.composite
def lego_chains(draw, max_legs=24):
    """2 to 5 copies of the chain legos, 24 legs at most, and one bond
    between each pair of consecutive copies: (leg on copy i, leg on copy
    i + 1, insertion), on random legs that no other bond uses."""
    names = draw(st.lists(st.sampled_from(CHAIN_LEGOS), min_size=2, max_size=5))
    sizes = [lookup(name).group.n for name in names]
    assume(sum(sizes) <= max_legs)
    bonds, used = [], None
    for left, right in zip(sizes, sizes[1:]):
        leg = draw(st.sampled_from([i for i in range(left) if i != used]))
        used = draw(st.integers(0, right - 1))
        bonds.append((leg, used, draw(st.sampled_from(("I", "X")))))
    return names, bonds


# The whole-group oracle scans 2^n support strings: 0.4 s at 23 legs.
ORACLE_MAX_LEGS = 20


# Repeated copies and bonds meet the same blocks and fronts again; the
# 8-copy chain is past the oracle, so it checks the record and the counts.
@example((["722"] * 4, [(2, 4, "I")] * 3))
@example((["722", "422", "722", "422"], [(1, 0, "X"), (3, 5, "I"), (2, 1, "X")]))
@example((["722"] * 3, [(2, 4, "I"), (2, 4, "X")]))
@example((["722"] * 8, [(2, 4, "I")] * 7))
@example((["722", "722-traced", "422", "422"], [(2, 4, "X"), (0, 1, "I"), (3, 2, "X")]))
@settings(max_examples=60, deadline=None)
@given(lego_chains())
def test_a_chain_traces_alike_with_and_without_its_record(case):
    # At every step the traced blocks merge to the trace of the previous
    # step's merged group, on a lego split anew with an empty record and,
    # up to ORACLE_MAX_LEGS legs, on the whole group; the carried logical
    # counts give the whole group's counting check.
    names, bonds = case
    copies = [chain_copy(name) for name in names]
    offsets = np.cumsum([0] + [c.n for c in copies]).tolist()
    kept = tensor_product(*copies)
    alive = list(range(kept.n))
    for i, (left, right, insertion) in enumerate(bonds):
        a, b = offsets[i] + left, offsets[i + 1] + right
        j, k = alive.index(a), alive.index(b)
        before = kept.group
        emptied = trace_with_insertion(Lego(before, kept.designation), j, k, insertion)
        kept = trace_with_insertion(kept, j, k, insertion)
        assert (kept.group, kept.warnings) == (emptied.group, emptied.warnings)
        if before.n <= ORACLE_MAX_LEGS:
            mode = "plain" if insertion == "I" else "insert_x"
            assert kept.group == whole_group_trace(before, j, k, mode)
        alive = [leg for leg in alive if leg not in (a, b)]
    carried = counted_logicals(kept.group, kept.blocks)
    assert carried == counted_logicals(kept.group)
    if kept.n <= ORACLE_MAX_LEGS:
        assert whole_group_counting_check(kept.group, carried) == (carried is not None)
