"""Lego fusion tests: tracing, insertions, designation, and network files.

The dense oracle double-checks every symbolic claim: traced check matrices
must stabilize the contracted shadow, and whenever the contraction is an
XP state the matched group must equal its full symmetry group.
"""

from __future__ import annotations

import json
import random
from importlib import resources

import numpy as np
import pytest
from tests_support import brute_force_shortening, digit_rows, whole_group_trace

from xplego import code_structure, lego
from xplego.code_structure import (
    InvariantError,
    XpGroup,
    _completion,
    canonical_form,
    codewords,
    complete_lid,
    counting_check,
    orbit_decomposition,
    permute_legs,
)
from xplego.dense_oracle import (
    contract,
    omega_table,
    projector,
    render_operator,
    stabilizes,
    state_from_pairs,
    xp_state_from_dense,
)
from xplego.lego import (
    LegError,
    NotIsometryError,
    lego_from_group,
    materialize_logical,
    redesignate,
    run_network,
    self_trace,
    shorten_to_logical,
    state_lego,
    tensor_product,
    trace_with_insertion,
)
from xplego.lego import _trace_front_two
from xplego.registry import atomic_legos, group_from_rows, lookup
from xplego.ring_linalg import ModMatrix
from xplego.xp_algebra import XpOperator


def entry_lego(name: str):
    return state_lego(lookup(name).group)


def test_tensor_product_with_empty_lego():
    a = entry_lego("bell")
    empty = lego_from_group(XpGroup(8, 0, ()), dense=np.ones(1, dtype=complex))
    t = tensor_product(a, empty)
    assert t.n == 2
    assert canonical_form(t.group).generators == canonical_form(a.group).generators


def test_tensor_product_of_plus_states():
    plus = state_lego(XpGroup.from_generators([XpOperator(2, (1,), (0,), 0)]))
    t = tensor_product(plus, plus)
    assert {op.x for op in canonical_form(t.group).generators} == {(1, 0), (0, 1)}
    assert np.allclose(t.dense, np.ones(4))


def test_tensor_product_counting():
    block = lego_from_group(canonical_form(lookup("lego6-second").group))
    both = tensor_product(block, block)
    assert both.n == 12
    assert len(canonical_form(both.group).generators) == 12
    assert counting_check(both.group, logical_dims=0)


def test_worked_seven_qubit_self_trace():
    code = lego_from_group(canonical_form(lookup("722").group))
    traced = self_trace(code, 0, 1)
    want = canonical_form(lookup("722-traced").group)
    assert traced.group.generators == want.generators


def test_bell_full_self_trace_gives_scalar_two():
    bell = entry_lego("bell")
    scalar = self_trace(bell, 0, 1)
    assert scalar.n == 0
    assert abs(scalar.dense[0] - 2.0) < 1e-12
    assert "empty-trace" not in scalar.warnings


def test_counterexample_trace_is_flagged_non_xp():
    block = entry_lego("lego6-second")
    traced = self_trace(block, 0, 1)
    assert len(traced.group.generators) == 3
    assert not counting_check(traced.group, logical_dims=0)
    # The shadow is the exact contraction; one pair of amplitudes keeps the
    # two distinct phase factors on separate strings.
    w = omega_table(8)
    expect = np.zeros(16, dtype=complex)
    expect[0b0000] = 1
    expect[0b0010] = 1
    expect[0b1110] = w[1]
    expect[0b1100] = w[13]
    assert np.max(np.abs(traced.dense - expect)) < 1e-9
    assert xp_state_from_dense(traced.dense, 8) is None
    for op in traced.group.generators:
        assert stabilizes(op, traced.dense, tol=1e-9)


def test_trace_matches_full_symmetry_group_of_xp_contraction():
    for name in ("lego6-steane", "lego6-second"):
        block = entry_lego(name)
        both = tensor_product(block, block)
        t1 = self_trace(both, 0, 6)
        t2 = self_trace(t1, 0, 5)
        derived = xp_state_from_dense(t2.dense, 8)
        assert derived is not None
        assert canonical_form(t2.group).generators == derived.generators


def test_support_restriction_is_required_for_completeness():
    # The second fusion of the first building block has a finer diagonal
    # symmetry that only the restricted support shows; matching must keep it.
    block = entry_lego("lego6-steane")
    both = tensor_product(block, block)
    t1 = self_trace(both, 0, 6)
    front = canonical_form(
        permute_legs(t1.group, [0, 5] + [i for i in range(10) if i not in (0, 5)]))
    with_restriction = _trace_front_two(front, "plain")
    vec, _ = contract([t1.dense], [(0, 5)])
    derived = xp_state_from_dense(vec, 8)
    assert with_restriction.generators == derived.generators


def diag(precision, z, phase=0):
    return XpOperator(precision, (0,) * len(z), tuple(z), phase)


def test_a_spectator_block_is_completed():
    # A Bell pair on legs 0 and 1 beside <Z x Z> at N = 4: the trace of the
    # whole group completes the spectator, which gains P x P^3.
    zz = diag(4, (0, 0, 2, 2))
    group = XpGroup(4, 4, (XpOperator(4, (1, 1, 0, 0), (0,) * 4, 0), diag(4, (2, 2, 0, 0)), zz))
    traced = self_trace(lego_from_group(group), 0, 1)
    assert traced.group.generators == (diag(4, (1, 3)),)
    assert traced.group == complete_lid(XpGroup(4, 2, (diag(4, (2, 2)),)))
    assert traced.group == whole_group_trace(group, 0, 1)


@pytest.mark.parametrize("free_legs", [0, 1])
def test_collision_rebuild_needs_one_codeword_in_every_spectator(free_legs):
    # |00> - |11> on legs 0 and 1 cancels under the trace.  With Z on leg 2
    # the whole code holds one codeword, and the rebuild finds it empty; a
    # free leg gives the whole code two codewords, so the rebuild does not
    # run, and matching keeps Z and the phase -1, which stabilizes nothing.
    # Both give the empty group and the same warnings.
    n = 3 + free_legs
    group = XpGroup(2, n, (XpOperator(2, (1, 1) + (0,) * (n - 2), (0,) * n, 2),
                           diag(2, (1, 1) + (0,) * (n - 2)),
                           diag(2, (0, 0, 1) + (0,) * (n - 3))))
    traced = self_trace(lego_from_group(group), 0, 1)
    assert traced.group == whole_group_trace(group, 0, 1)
    assert traced.group.generators == ()
    assert traced.warnings == ("empty-trace", "trivial-symbolic-group")


@pytest.mark.parametrize("rows", [
    # |01> on legs 0 and 1 vanishes under the trace; <Z> on leg 2 is not
    # tensored back.
    (diag(2, (1, 0, 0)), diag(2, (0, 1, 0), 2), diag(2, (0, 0, 1))),
    # A Bell pair beside a spectator holding Z and -Z, which fixes nothing.
    (XpOperator(2, (1, 1, 0), (0, 0, 0), 0), diag(2, (1, 1, 0)),
     diag(2, (0, 0, 1)), diag(2, (0, 0, 1), 2)),
], ids=["annihilated-block", "annihilated-spectator"])
def test_an_annihilated_block_or_spectator_empties_the_whole_trace(rows):
    group = XpGroup(2, 3, rows)
    traced = self_trace(lego_from_group(group), 0, 1)
    assert traced.group == whole_group_trace(group, 0, 1) == XpGroup(2, 1, ())
    assert traced.warnings == ("empty-trace", "trivial-symbolic-group")


def test_a_raw_presentation_is_traced_from_its_canonical_form():
    # X P on leg 1 squares to Z on leg 2, which the raw presentation does not
    # list.  The two-pivot sweep drops the lone row, so without the canonical
    # form that the trace starts from, leg 2 would keep no symmetry.
    group = XpGroup(4, 3, (XpOperator(4, (0, 1, 0), (0, 0, 1), 0),))
    traced = self_trace(lego_from_group(group), 0, 1)
    assert traced.group.generators == (diag(4, (1,)),)
    assert traced.group == whole_group_trace(group, 0, 1)
    assert traced.warnings == ()


def test_a_bond_onto_an_empty_code_leaves_the_trivial_group():
    # -I on two legs holds a phase times identity: the tensor product falls
    # back from the block merge to the canonical form, and the traced code
    # stays empty.
    minus = {"n": 2, "precision": 8, "rows": [{"x": [0, 0], "z": [0, 0], "p": 8}]}
    network = {"legos": [{"name": "722"}, {"matrix": minus}],
               "bonds": [[0, 0, 1, 0], [0, 1, 1, 1]]}
    result = run_network(network)
    assert (result.n, result.group.generators) == (5, ())
    assert "trivial-symbolic-group" in result.warnings


def count_spectator_completions(monkeypatch, tables: list[int] | None = None,
                                fronts: list[int] | None = None) -> list[int]:
    """Patch lego so that every completion made outside operator matching
    appends the size of its group to the returned list; with ``tables``,
    every codeword table built outside matching appends its size there, and
    with ``fronts``, every front that operator matching runs on appends its
    size there."""
    sizes: list[int] = []
    matching: list[bool] = []
    if tables is not None:
        def building(group, _real=code_structure.codewords):
            if not matching:
                tables.append(group.n)
            return _real(group)

        monkeypatch.setattr(code_structure, "codewords", building)
        monkeypatch.setattr(lego, "codewords", building)

    def completing(group):
        if not matching:
            sizes.append(group.n)
        return _completion(group)

    def matching_front(group, *args, **kwargs):
        if fronts is not None:
            fronts.append(group.n)
        matching.append(True)
        try:
            return _trace_front_two(group, *args, **kwargs)
        finally:
            matching.pop()

    monkeypatch.setattr(lego, "_completion", completing)
    monkeypatch.setattr(lego, "_trace_front_two", matching_front)
    return sizes


def test_a_chain_completes_each_spectator_block_once(monkeypatch):
    # Each 722 copy splits into blocks on legs 0-2 and 3-6.  The bond (2, 4)
    # leaves four spectators, two copies of each block, and completes one of
    # each; the bond (3, 5) touches copy 1's traced block and copy 2's legs
    # 3-6, and its three spectators are in the record.  Without the record
    # it completes seven blocks.
    # Each completion hands its codeword table on for the count; the one
    # 7-qubit table is the named 722 lego's, built once for its shadow.
    tables: list[int] = []
    sizes = count_spectator_completions(monkeypatch, tables)
    network = {"legos": [{"name": "722"}] * 3, "bonds": [[0, 2, 1, 4], [1, 3, 2, 5]]}
    run_network(network)
    assert sorted(sizes) == [3, 4]
    assert sorted(tables) == [3, 4, 7]


def test_a_recorded_block_that_a_later_bond_touches_is_completed_again(monkeypatch):
    copy = entry_lego("722")
    three = tensor_product(tensor_product(copy, copy), copy)
    assert three._record == {}
    # Copy 0 leg 2 to copy 1 leg 4 leaves legs 0-1, 2-5 (copy 0), 6-8 (copy 1
    # legs 0-2), 9-11 (copy 1 legs 3, 5, 6) and 12-18 (copy 2).  Copy 2
    # repeats the two spectator blocks of copies 0 and 1, so each of the two
    # kinds of block is completed once.
    fronts: list[int] = []
    sizes = count_spectator_completions(monkeypatch, fronts=fronts)
    first = self_trace(three, 2, 11)
    assert sorted(sizes) == [3, 4] and fronts == [7]
    assert first.group == whole_group_trace(three.group, 2, 11)
    # Copy 1 leg 3 to copy 2 leg 5 touches the recorded block 15-18: it joins
    # a new matching front, which completes it again, and the three
    # untouched spectators are read from the record.
    sizes.clear()
    second = self_trace(first, 9, 17)
    assert sizes == [] and fronts == [7, 9]
    assert second.group == whole_group_trace(first.group, 9, 17)
    assert first._record.items() < second._record.items()


def test_a_trace_hands_every_untouched_block_through(monkeypatch):
    # After bond (2, 4) of an 8-copy 722 chain every block is complete but
    # the bond's front.  Bond (3, 4) from copy 1, on that front, to copy 2
    # leaves every other block as it was, on shifted legs: the same rows,
    # and no merge of the whole group.
    copy = entry_lego("722")
    first = self_trace(tensor_product(*[copy] * 8), 2, 11)
    j, k = 7 + 3 - 1, 14 + 4 - 2
    merges = []
    monkeypatch.setattr(lego, "merge_canonical_blocks", lambda *args: merges.append(args))
    second = self_trace(first, j, k)
    assert merges == []
    untouched = [block for block in first.blocks if j not in block.legs and k not in block.legs]
    assert len(untouched) == len(first.blocks) - 2
    assert all(block.codewords is not None for block in untouched)
    shift = [leg - (leg > j) - (leg > k) for leg in range(first.n)]
    handed = {(id(block.group), block.legs) for block in second.blocks}
    assert all((id(block.group), tuple(shift[leg] for leg in block.legs)) in handed
               for block in untouched)
    monkeypatch.undo()
    assert second.group == self_trace(lego.Lego(first.group, first.designation), j, k).group


def test_tensor_product_takes_the_union_of_the_records(monkeypatch):
    copy = entry_lego("722")
    pair = self_trace(tensor_product(copy, copy), 2, 11)
    both = tensor_product(pair, pair)
    assert both._record == pair._record
    other = self_trace(tensor_product(copy, copy), 3, 12)
    assert tensor_product(pair, other)._record == {**pair._record, **other._record}
    # A bond on the first pair's traced block completes one spectator: the
    # second pair's traced block on legs 12, 13 and 21-23, which the record
    # holds as a matched front, not as a completed block.
    fronts: list[int] = []
    sizes = count_spectator_completions(monkeypatch, fronts=fronts)
    traced = self_trace(both, 0, 9)
    assert sizes == [5] and fronts == [5]
    # The same bond on the second pair meets the same front, read from the
    # record; of its spectators only the first pair's block that the last
    # trace left on legs 0, 8 and 9 is new.
    again = self_trace(traced, 10, 19)
    assert sizes == [5, 3] and fronts == [5]
    assert traced.group == whole_group_trace(both.group, 0, 9)
    assert again.group == whole_group_trace(traced.group, 10, 19)


def test_the_record_keeps_fronts_matched_with_and_without_the_rebuild_apart():
    # One state at N = 4 whose trace on legs 0 and 1 with an X inserted
    # collides: the rebuild gives P on the leg left, matching alone P^2.
    # Beside <Z x Z>, which holds two codewords, the first copy's trace
    # cannot rebuild; once that pair is traced away, the second copy's
    # trace can, on the same front rows.
    state = digit_rows(4, [("100", "300", 1), ("010", "032", 1), ("001", "022", 6)])
    pair = lego_from_group(XpGroup(4, 2, (diag(4, (2, 2)),)))
    start = tensor_product(tensor_product(lego_from_group(state), lego_from_group(state)), pair)
    first = trace_with_insertion(start, 0, 1, "X")
    assert first.group == whole_group_trace(start.group, 0, 1, "insert_x")
    assert diag(4, (2, 0, 0, 0, 0, 0)) in first.group.generators
    second = self_trace(first, 4, 5)
    third = trace_with_insertion(second, 1, 2, "X")
    assert third.group == whole_group_trace(second.group, 1, 2, "insert_x")
    # The first copy's leg is a completed spectator by now, so it holds P too.
    assert third.group.generators == (diag(4, (1, 0)), diag(4, (0, 1)))


def test_identity_insertion_equals_plain_trace():
    code = lego_from_group(canonical_form(lookup("722").group))
    a = self_trace(code, 0, 1)
    b = trace_with_insertion(code, 0, 1, "I")
    c = trace_with_insertion(code, 0, 1, np.eye(2))
    assert a.group.generators == b.group.generators == c.group.generators


def test_bell_trace_with_x_insertion_is_empty():
    bell = entry_lego("bell")
    traced = trace_with_insertion(bell, 0, 1, "X")
    assert traced.n == 0
    assert abs(traced.dense[0]) < 1e-12
    assert "empty-trace" in traced.warnings


def test_x_insertion_matches_dense_oracle():
    from tests_support import random_xp_state_vec

    rng = random.Random(21)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        precision = rng.choice((2, 4, 8))
        vec = random_xp_state_vec(rng, n, precision)
        group = xp_state_from_dense(vec, precision)
        if group is None:
            continue
        lego = lego_from_group(group, dense=vec)
        j, k = rng.sample(range(n), 2)
        traced = trace_with_insertion(lego, j, k, "X")
        dense, _ = contract([vec], [(j, k)], [x])
        assert np.max(np.abs(traced.dense - dense)) < 1e-9
        for op in traced.group.generators:
            assert stabilizes(op, dense, tol=1e-8) or np.linalg.norm(dense) < 1e-9
        derived = xp_state_from_dense(dense, traced.precision) \
            if np.linalg.norm(dense) > 1e-9 else None
        if derived is not None:
            assert canonical_form(traced.group).generators == derived.generators
        checked += 1


def test_general_insertion_falls_back_to_dense():
    bell = entry_lego("bell")
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    traced = trace_with_insertion(bell, 0, 1, t_gate)
    assert "dense-only" in traced.warnings
    assert traced.group.generators == ()
    assert abs(traced.dense[0] - (1 + np.exp(-1j * np.pi / 4))) < 1e-12


def test_a_tensor_product_of_no_legos_is_refused():
    with pytest.raises(LegError, match="at least one lego"):
        tensor_product()


def test_a_designation_other_than_physical_or_logical_is_refused():
    # As in a check-matrix file, a leg is "P" or "L".
    ghz = entry_lego("ghz")
    with pytest.raises(LegError, match="designation entries"):
        lego.Lego(ghz.group, ("Q", "P", "P"))


def test_general_insertion_on_a_logical_leg_is_refused():
    ghz = entry_lego("ghz")
    marked = lego.Lego(ghz.group, ("L", "P", "P"), ghz.dense)
    with pytest.raises(LegError, match="not physical"):
        trace_with_insertion(marked, 0, 1, np.diag([1.0, np.exp(1j * np.pi / 4)]))


def test_general_insertion_on_an_out_of_range_leg_is_refused():
    with pytest.raises(LegError, match="out of range"):
        trace_with_insertion(entry_lego("ghz"), 0, 5, np.diag([1.0, np.exp(1j * np.pi / 4)]))


def test_shorten_to_logical_on_code_families():
    code422 = lego_from_group(canonical_form(lookup("422").group))
    trivial = shorten_to_logical(code422, 0)
    assert trivial.n == 3 and trivial.group.generators == ()

    sec = lego_from_group(canonical_form(lookup("second-713").group))
    c622 = shorten_to_logical(sec, 1)
    assert c622.n == 6
    assert len(c622.group.generators) == 4
    od = orbit_decomposition(c622.group)
    assert len(od.logical_x_dirs) == 2
    assert counting_check(c622.group)
    # The removed stabilizer row acts as a logical on the shortened code.
    logical = XpOperator(8, (0, 1, 0, 0, 1, 1), (0, 6, 0, 4, 3, 2), 2)
    pi = projector(c622.group)
    mat = render_operator(logical)
    assert np.max(np.abs(mat @ pi @ mat.conj().T - pi)) < 1e-9
    assert np.max(np.abs(mat @ pi - pi)) > 1e-6


def test_shorten_rejects_unentangled_leg():
    product_state = state_lego(XpGroup.from_generators(
        [XpOperator(8, (0, 0), (1, 0), 0), XpOperator(8, (0, 0), (0, 1), 0)]))
    with pytest.raises(NotIsometryError):
        shorten_to_logical(product_state, 0)


def test_shortening_check_covers_codes_above_twelve_qubits():
    rm15 = lego_from_group(canonical_form(lookup("rm15").group))
    for leg in range(rm15.n):
        assert shorten_to_logical(rm15, leg).n == 14
    zero = next(e for e in atomic_legos(rm15.precision) if e.name == "zero")
    with pytest.raises(NotIsometryError):
        shorten_to_logical(tensor_product(rm15, lego_from_group(zero.group)), 15)


def shortened_codeword_rank(group: XpGroup, leg: int) -> int:
    """Rank of the codewords with ``leg`` fixed to 0 and to 1: the dimension
    of the code left when the leg becomes logical."""
    vecs = []
    for cw in codewords(group).entries:
        vec = state_from_pairs(cw, group.n, group.precision).reshape((2,) * group.n)
        vecs += [np.take(vec, bit, axis=leg).reshape(-1) for bit in (0, 1)]
    return int(np.linalg.matrix_rank(np.array(vecs), tol=1e-9))


@pytest.mark.parametrize("precision,rows,leg,dimension", [
    (4, [("10000", "10022", 7), ("01000", "01020", 3), ("00010", "22002", 4),
         ("00001", "20020", 0), ("00000", "00100", 6)], 3, 2),
    (8, [("10000", "30044", 13), ("01001", "40005", 11), ("00010", "40040", 4)], 0, 8),
])
def test_shortening_keeps_products_whose_z_on_the_leg_cancels(precision, rows, leg, dimension):
    # No single row has X and z both clear on the leg; products of rows do,
    # and a shortening that drops them leaves a code too large (8 and 16).
    group = digit_rows(precision, rows)
    short = shorten_to_logical(lego_from_group(group), leg).group
    assert shortened_codeword_rank(group, leg) == dimension
    assert np.trace(projector(short)).real == pytest.approx(dimension)
    assert [short] == brute_force_shortening(group, [leg])
    if precision == 8:
        assert XpOperator(8, (1, 0, 1, 1), (0, 0, 4, 5), 15) in short.generators


def test_materialize_logical_gives_five_qubit_code():
    code = lego_from_group(canonical_form(lookup("422").group))
    five = materialize_logical(code, 0)
    want = group_from_rows(
        [((1, 1, 1, 1, 0), (0, 0, 0, 0, 0), 0),
         ((0, 0, 0, 0, 0), (1, 1, 1, 1, 0), 0),
         ((1, 1, 0, 0, 1), (0, 0, 0, 0, 0), 0),
         ((0, 0, 0, 0, 0), (1, 0, 1, 0, 1), 0)], 5, 2)
    assert five.group.generators == canonical_form(want).generators


def test_materialize_logical_keeps_code_consistent():
    for name in ("steane-xp", "second-713", "711", "812"):
        code = lego_from_group(canonical_form(lookup(name).group))
        choi = materialize_logical(code, 0)
        assert len(choi.group.generators) == choi.n
        assert counting_check(choi.group, logical_dims=0)
        # Shortening the fresh leg undoes the materialization.
        back = shorten_to_logical(choi, choi.n - 1)
        assert back.group.generators == code.group.generators


def test_redesignate_dispatches_on_the_new_role():
    sec = lego_from_group(canonical_form(lookup("second-713").group))
    assert redesignate(sec, 1, "L") == shorten_to_logical(sec, 1)
    code = lego_from_group(canonical_form(lookup("steane-xp").group))
    assert redesignate(code, 0, "P") == materialize_logical(code, 0)
    with pytest.raises(LegError, match="unknown role"):
        redesignate(code, 0, "X")


def test_leg_errors():
    bell = entry_lego("bell")
    with pytest.raises(LegError):
        self_trace(bell, 0, 0)
    with pytest.raises(LegError):
        self_trace(bell, 0, 5)
    with pytest.raises(LegError):
        trace_with_insertion(bell, 0, 1, "Q")


def test_insertions_other_than_names_and_2x2_matrices_are_refused():
    bell = entry_lego("bell")
    for insertion in (XpOperator(8, (1,), (0,), 0), "ID", np.eye(3), [[True, False], [False, True]],
                      [[1, 0], [0]], [[1, "0"], [0, 1]]):
        with pytest.raises(LegError):
            trace_with_insertion(bell, 0, 1, insertion)


def test_wrong_kernel_combination_raises_invariant_error(monkeypatch):
    # Unit coefficients pick single rows whose traced column does not
    # vanish; the check on every kept element must stop them entering the
    # group.
    monkeypatch.setattr(lego, "kernel_mod", lambda a: ModMatrix.identity(a.rows, a.modulus))
    with pytest.raises(InvariantError):
        self_trace(lego_from_group(lookup("722").group), 0, 1)


def test_wrong_matching_solution_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(lego, "solve_linear_mod", lambda a, b: (1,) * a.rows)
    with pytest.raises(InvariantError):
        self_trace(lego_from_group(lookup("722").group), 0, 1)


@pytest.mark.parametrize("fname,target", [
    ("722_selftrace.json", "722-traced"),
    ("steane_xp_from_blocks.json", "steane-xp"),
    ("second_713_from_blocks.json", "second-713"),
])
def test_shipped_networks_reproduce_printed_codes(fname, target):
    doc = json.loads(resources.files("xplego").joinpath("data/networks").joinpath(fname).read_text())
    result = run_network(doc)
    want = canonical_form(lookup(target).group)
    assert result.group.generators == want.generators


def test_precision_two_traces_stay_pauli():
    # At precision 2 the matched lego is always a Pauli stabilizer object:
    # bucket collisions either cancel or align, so the contraction of a
    # stabilizer state is a stabilizer state or zero.
    from tests_support import random_xp_state_vec

    rng = random.Random(77)
    seen = 0
    while seen < 40:
        n = rng.randint(2, 5)
        vec = random_xp_state_vec(rng, n, 2)
        group = xp_state_from_dense(vec, 2)
        if group is None:
            continue
        lego = lego_from_group(group, dense=vec)
        j, k = rng.sample(range(n), 2)
        traced = self_trace(lego, j, k)
        seen += 1
        if np.linalg.norm(traced.dense) < 1e-9:
            continue
        assert xp_state_from_dense(traced.dense, 2) is not None
        for op in traced.group.generators:
            assert all(z in (0, 1) for z in op.z)


def test_eight_qubit_code_from_spider_concatenation():
    # Fusing the leg carrying the weight-one diagonal logical of the
    # seven-qubit transversal-T code with one leg of the three-leg
    # even-parity tensor concatenates that qubit with the two-qubit
    # repetition code and lands exactly on the printed eight-qubit matrix.
    from xplego.registry import atomic_legos

    code711 = lego_from_group(canonical_form(lookup("711").group))
    spider = next(lego_from_group(canonical_form(e.group))
                  for e in atomic_legos(2) if e.name == "xspider")
    fused = self_trace(tensor_product(code711, spider), 2, 9)
    want = canonical_form(lookup("812").group)
    assert fused.group.generators == want.generators

    doc = json.loads(resources.files("xplego")
                     .joinpath("data/networks/812_from_711.json").read_text())
    assert run_network(doc).group.generators == want.generators


def test_conjoin_is_tensor_then_trace():
    from xplego.lego import conjoin

    bell = entry_lego("bell")
    ghz = entry_lego("ghz")
    joined = conjoin(bell, ghz, 1, 0)
    manual = self_trace(tensor_product(bell, ghz), 1, 2)
    assert joined.group.generators == manual.group.generators
    # Fusing a Bell pair into one leg of the repetition tensor leaves the
    # repetition tensor (teleportation through the bond).
    want = canonical_form(entry_lego("ghz").group)
    assert joined.group.generators == want.generators


def test_counting_plus_stabilization_implies_space_match():
    # Whenever the traced group passes the state counting certificate and
    # its generators stabilize the dense contraction, the symbolic and
    # dense spaces must coincide.
    from tests_support import random_xp_state_vec

    rng = random.Random(99)
    confirmed = 0
    while confirmed < 25:
        n = rng.randint(2, 5)
        precision = rng.choice((2, 4, 8))
        vec = random_xp_state_vec(rng, n, precision)
        group = xp_state_from_dense(vec, precision)
        if group is None:
            continue
        lego = lego_from_group(group, dense=vec)
        j, k = rng.sample(range(n), 2)
        traced = self_trace(lego, j, k)
        if np.linalg.norm(traced.dense) < 1e-9 or traced.n == 0:
            continue
        if not counting_check(traced.group, logical_dims=0):
            continue
        assert all(stabilizes(op, traced.dense, tol=1e-8)
                   for op in traced.group.generators)
        pi = projector(traced.group)
        w = traced.dense
        assert np.max(np.abs(pi - np.outer(w, w.conj()) / np.vdot(w, w).real)) < 1e-8
        confirmed += 1


def test_code_trace_soundness():
    # Tracing a code matrix keeps only true symmetries: every traced
    # codeword is fixed by every generator of the matched output.
    from tests_support import random_xp_state_vec

    rng = random.Random(555)
    checked = 0
    while checked < 15:
        n = rng.randint(3, 5)
        precision = rng.choice((2, 4, 8))
        vec = random_xp_state_vec(rng, n, precision)
        group = xp_state_from_dense(vec, precision)
        if group is None:
            continue
        try:
            code = shorten_to_logical(lego_from_group(group, dense=vec), rng.randrange(n))
        except Exception:
            continue
        if code.n < 2:
            continue
        table = codewords(code.group)
        j, k = rng.sample(range(code.n), 2)
        traced = self_trace(lego_from_group(code.group), j, k)
        for cw in table.entries:
            cvec = state_from_pairs(cw, code.n, precision)
            tvec, _ = contract([cvec], [(j, k)])
            if np.linalg.norm(tvec) < 1e-9:
                continue
            for op in traced.group.generators:
                assert stabilizes(op, tvec, tol=1e-8)
        checked += 1


def test_tensor_product_drops_a_wide_dense_shadow():
    block = state_lego(lookup("lego6-steane").group)
    assert block.dense is not None
    pair = tensor_product(block, block)
    assert pair.dense is not None and pair.warnings == ()
    joined = pair
    for _ in range(3):
        joined = tensor_product(joined, block)
    # Five copies would be 2^30 amplitudes; the shadow goes at 18 legs.
    assert joined.n == 30 and joined.dense is None
    assert joined.warnings == ("dense-shadow-dropped",)
    assert lego.DENSE_SHADOW_MAX_QUBITS == 16


def test_a_variadic_tensor_product_equals_the_binary_fold():
    # With every factor shadowed the shadow goes, with one warning, at the
    # third copy (18 legs); a factor with no shadow drops it silently.
    block = state_lego(lookup("lego6-steane").group)
    bare = lego_from_group(block.group)
    for factors in ([block], [block, block], [block] * 5, [block, bare, block], [block, block, bare]):
        fold = factors[0]
        for factor in factors[1:]:
            fold = tensor_product(fold, factor)
        joined = tensor_product(*factors)
        assert (joined.group, joined.designation) == (fold.group, fold.designation)
        assert joined.warnings == fold.warnings == (("dense-shadow-dropped",) if len(factors) == 5 else ())
        assert (joined.dense is None) == (fold.dense is None)
        assert fold.dense is None or np.array_equal(joined.dense, fold.dense)


def test_a_network_order_permutes_a_kept_dense_shadow():
    # A Bell pair bonded to a GHZ state, beside |0>: the order moves the |0>
    # leg first, so the shadow is the contraction transposed to that order.
    doc = {"legos": [{"name": "bell"}, {"name": "ghz"}, {"name": "zero"}],
           "bonds": [[0, 1, 1, 0]]}
    order = [3, 0, 2, 1]
    result = run_network({**doc, "order": order})
    states = [state_lego(lookup(name).group).dense for name in ("bell", "ghz", "zero")]
    want, _ = contract(states, [(1, 2)])
    assert result.dense is not None
    assert np.array_equal(result.dense, np.transpose(want.reshape((2,) * 4), order).reshape(-1))
    assert result.dense[0b0000] != 0 and result.dense[0b0111] != 0
    unordered = run_network(doc)
    assert result.group == canonical_form(permute_legs(unordered.group, order))
    assert all(stabilizes(op, result.dense) for op in result.group.generators)
