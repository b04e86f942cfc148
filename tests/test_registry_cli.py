"""Registry entries and the command-line surface."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from tests_support import digit_rows

import xplego
from xplego.cli import main
from xplego.code_structure import (
    InvariantError,
    canonical_form,
    codewords,
    counting_check,
    orbit_decomposition,
    z_support,
)
from xplego.dense_oracle import contract, projector, stabilizes, state_from_pairs
from xplego.registry import (
    MalformedMatrixError,
    UnknownCodeError,
    _entry_from_state,
    group_from_json,
    group_to_json,
    lookup,
    registry,
)
from xplego.xp_algebra import XpOperator


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_every_entry_is_canonical_and_serializable():
    for name, entry in registry().items():
        canonical = canonical_form(entry.group)
        assert canonical_form(canonical).generators == canonical.generators, name
        doc = json.loads(json.dumps(group_to_json(canonical, entry.designation)))
        parsed, designation = group_from_json(doc)
        assert parsed.generators == canonical.generators, name
        assert designation == entry.designation, name


def test_counting_on_power_of_two_entries():
    for name, entry in registry().items():
        assert counting_check(entry.group), name


def test_atomic_states_are_stabilized():
    for name in ("zero", "H-magic", "bell", "hadamard", "phase", "ghz", "xspider"):
        entry = lookup(name)
        table = codewords(entry.group)
        assert len(table.entries) == 1, name
        vec = state_from_pairs(table.entries[0], entry.group.n, entry.group.precision)
        for op in entry.group.generators:
            assert stabilizes(op, vec, tol=1e-9), name


def test_magic_entry_matches_its_state():
    entry = lookup("H-magic")
    assert entry.group.generators == (XpOperator(8, (1,), (6,), 2),)
    state = state_from_pairs([(0, 0), (1, 2)], 1, 8)
    assert stabilizes(entry.group.generators[0], state, tol=1e-12)


def test_non_xp_registry_state_raises_invariant_error():
    # Three equal amplitudes on two qubits: the support is not affine.
    with pytest.raises(InvariantError):
        _entry_from_state("not-xp", [(0, 0), (1, 0), (2, 0)], 2, 8, "")


def test_reed_muller_structure():
    entry = lookup("rm15")
    g = canonical_form(entry.group)
    assert g.n == 15 and g.precision == 2
    assert len(g.x_block) == 4 and len(g.z_block) == 10
    od = orbit_decomposition(g)
    assert od.regular and len(od.logical_x_dirs) == 1
    assert len(z_support(g)) == 32


def test_lookup_unknown_reports_candidates():
    with pytest.raises(UnknownCodeError) as err:
        lookup("not-a-code")
    assert "steane-xp" in str(err.value)


def test_cli_show_is_stable():
    rc1, out1 = run_cli("show", "722")
    rc2, out2 = run_cli("show", "722")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "x: 1 1 1 0 0 0 0 | z: 0 0 7 0 0 0 0 | p: 9" in out1


def test_cli_canonical_is_stable(tmp_path):
    src = tmp_path / "in.json"
    entry = lookup("lego6-steane")
    src.write_text(json.dumps(group_to_json(entry.group, entry.designation)))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["canonical", str(src), "-o", str(out1)]) == 0
    assert main(["canonical", str(src), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    parsed, _ = group_from_json(json.loads(out1.read_text()))
    assert parsed.generators == canonical_form(entry.group).generators


def test_cli_enumerate_golden_line():
    rc, out = run_cli("enumerate", "steane-xp")
    assert rc == 0
    assert "A = 1 + 21z^4 + 42z^6" in out
    assert "distance = 3" in out


def test_cli_enumerate_biased():
    rc, out = run_cli("enumerate", "711", "--biased")
    assert rc == 0
    assert "dZ = 1" in out and "dX = 3" in out


def test_cli_enumerate_rm15_exactly():
    rc, out = run_cli("enumerate", "rm15", "--biased")
    assert rc == 0
    assert "distance = 3" in out and "dZ = 3" in out and "dX = 7" in out


def test_cli_enumerate_over_the_table_limit_exits_with_message(tmp_path):
    # Three 722 copies: 21 qubits at N = 8 need 2^21 x 16 table entries.
    entry = lookup("722")
    rows = [{"x": list(op.x) + [0] * 14, "z": list(op.z) + [0] * 14, "p": op.phase}
            for op in entry.group.generators]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 21, "precision": 8, "rows": rows}))
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("enumerate", str(path), "--biased")
    assert rc == 1 and out == ""
    assert err.getvalue().startswith("error: a trace table of 21 qubits")


def test_cli_trace_network(tmp_path):
    from importlib import resources
    path = resources.files("xplego").joinpath("data/networks/722_selftrace.json")
    rc, out = run_cli("trace", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["counting_check"] is True
    assert doc["matrix"]["n"] == 5


def test_cli_trace_keeps_a_product_of_two_unmatched_rows(tmp_path):
    # Neither x row matches on legs 0 and 1 by itself, but their product
    # XP_4(0101|0301|0) fixes every traced codeword; without it the traced
    # code has dimension 8 where the contraction spans 4.
    group = digit_rows(4, [("100000", "300202", 1), ("000100", "200300", 5),
                           ("000001", "200001", 3), ("000000", "000010", 0)])
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"legos": [{"matrix": group_to_json(group)}],
                                "bonds": [[0, 0, 0, 1]]}))
    rc, out = run_cli("trace", str(path))
    assert rc == 0
    doc = json.loads(out)
    assert doc["counting_check"] is True
    assert doc["matrix"]["rows"] == [{"x": [0, 1, 0, 1], "z": [0, 3, 0, 1], "p": 0},
                                     {"x": [0, 0, 0, 0], "z": [0, 0, 1, 0], "p": 0}]
    traced, _ = group_from_json(doc["matrix"])
    contracted = [contract([state_from_pairs(cw, 6, 4)], [(0, 1)])[0]
                  for cw in codewords(group).entries]
    assert np.linalg.matrix_rank(np.array(contracted), tol=1e-9) == 4
    assert np.trace(projector(traced)).real == pytest.approx(4)


GHZ_PAIR = {"legos": [{"name": "ghz"}, {"name": "ghz"}], "bonds": [[0, 0, 1, 0]]}


@pytest.mark.parametrize("doc,rows,warnings,shadow", [
    # Two GHZ states bonded leg to leg give the four-leg GHZ state.
    (GHZ_PAIR, 4, [], [["0000", 1.0, 0.0], ["1111", 1.0, 0.0]]),
    # A Z insertion on the bond acts on the dense shadow alone.
    ({**GHZ_PAIR, "bonds": [[0, 0, 1, 0, [[1, 0], [0, -1]]]]}, 0, ["dense-only"],
     [["0000", 1.0, 0.0], ["1111", -1.0, 0.0]]),
    # A Bell pair traced on itself leaves one amplitude on no legs, labelled
    # by the empty bit string.
    ({"legos": [{"name": "bell"}], "bonds": [[0, 0, 0, 1]]}, 0, [], [["", 2.0, 0.0]]),
])
def test_cli_trace_reports_the_shadow_of_a_state_network(tmp_path, doc, rows, warnings, shadow):
    path = tmp_path / "states.json"
    path.write_text(json.dumps(doc))
    rc, out = run_cli("trace", str(path))
    assert rc == 0
    report = json.loads(out)
    assert report["xp_certified"] is True and "shadow" not in report
    assert (len(report["matrix"]["rows"]), report["warnings"]) == (rows, warnings)
    rc, out = run_cli("trace", str(path), "--dense")
    assert rc == 0 and json.loads(out) == {**report, "shadow": shadow}


@pytest.mark.parametrize("legos,n,expected", [
    # rep-z traced on itself through X: |00> + |11> has no |01> or |10> part.
    ([{"name": "rep-z"}], 0, ["empty-trace"]),
    # The same beside a spectator: the whole contraction is zero.
    ([{"name": "rep-z"}, {"name": "zero"}], 1, ["empty-trace", "trivial-symbolic-group"]),
], ids=["alone", "beside-a-spectator"])
def test_cli_trace_says_a_vanished_symbolic_trace_is_empty(tmp_path, legos, n, expected):
    path = tmp_path / "vanished.json"
    path.write_text(json.dumps({"legos": legos, "bonds": [[0, 0, 0, 1, "X"]]}))
    for dense in ((), ("--dense",)):
        rc, out = run_cli("trace", str(path), *dense)
        report = json.loads(out)
        assert (rc, report["matrix"]["n"], report["matrix"]["rows"]) == (0, n, [])
        assert report["warnings"] == expected
        # A zero contraction certifies nothing.
        assert report["counting_check"] is report["state_counting_check"] is False


def test_cli_trace_takes_the_x_matrix_as_the_named_x_insertion(tmp_path):
    reports = []
    for insertion in ("X", [[0, 1], [1, 0]]):
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps({**GHZ_PAIR, "bonds": [[0, 0, 1, 0, insertion]]}))
        rc, out = run_cli("trace", str(path), "--dense")
        assert rc == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["warnings"] == [] and len(reports[0]["shadow"]) == 2


def test_cli_decode_report():
    rc, out = run_cli("decode", "--code", "steane-xp",
                      "--channel", "depolarizing:0.02", "--shots", "40", "--seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["shots"] == 40
    assert 0.0 <= doc["rate"] <= 1.0


def test_cli_decode_report_under_damping():
    rc, out = run_cli("decode", "--code", "steane-xp",
                      "--channel", "damping:0.1", "--shots", "40", "--seed", "1")
    assert rc == 0
    assert sorted(json.loads(out)) == ["ci95", "failures", "per_syndrome", "rate", "shots"]


def test_cli_decode_unknown_channel_exits_with_message():
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("decode", "--code", "steane-xp", "--channel", "bitflip:0.1")
    assert rc == 1 and out == ""
    assert err.getvalue() == "error: unknown channel spec 'bitflip:0.1'\n"


def test_cli_decode_refuses_a_negative_seed():
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("decode", "--code", "steane-xp",
                          "--channel", "depolarizing:0.02", "--seed", "-1")
    assert rc == 1 and out == ""
    assert err.getvalue() == "error: seed must be a non-negative integer, got -1\n"


def test_python_dash_m_runs_the_cli():
    package = Path(xplego.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    for argv in (["show", "722"], ["enumerate", "422"]):
        done = subprocess.run([sys.executable, "-m", "xplego", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == run_cli(*argv)[1]
    assert done.stdout.startswith("A = ")


def test_cli_verify_single_code():
    rc, out = run_cli("verify", "422")
    assert rc == 0
    assert "[ok]" in out and "FAIL" not in out
    assert "[ok] exact enumerators match the dense oracle" in out


def test_cli_verify_failure_exits_2_and_names_the_code(monkeypatch):
    from xplego import cli
    monkeypatch.setattr(cli, "_verify_entry", lambda name, tolerance, out: name != "422")
    rc, out = run_cli("verify", "422")
    assert rc == 2
    assert out == "422\nverification failed: 422\n"


def test_cli_unknown_name_is_usage_error():
    rc, _ = run_cli("show", "no-such-code")
    assert rc == 1


def test_cli_usage_error_exit_code():
    rc, _ = run_cli("bogus-command")
    assert rc == 1


def test_cli_trace_is_stable_and_matches_printed_matrix():
    from importlib import resources
    path = resources.files("xplego").joinpath("data/networks/722_selftrace.json")
    rc1, out1 = run_cli("trace", str(path))
    rc2, out2 = run_cli("trace", str(path))
    assert rc1 == rc2 == 0 and out1 == out2
    got = json.loads(out1)["matrix"]
    want = group_to_json(canonical_form(lookup("722-traced").group),
                         lookup("722-traced").designation)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_cli_decode_with_kraus_file(tmp_path):
    p = 0.05
    kraus = [
        [[[np.sqrt(1 - p), 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.sqrt(1 - p), 0.0]]],
        [[[0.0, 0.0], [np.sqrt(p), 0.0]], [[np.sqrt(p), 0.0], [0.0, 0.0]]],
    ]
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(kraus))
    rc, out = run_cli("decode", "--code", "steane-xp",
                      "--channel", f"kraus:{path}", "--shots", "30", "--seed", "2")
    assert rc == 0
    assert json.loads(out)["shots"] == 30


def test_cli_decode_refuses_a_huge_kraus_entry_before_any_matmul(tmp_path):
    # K^dagger K would overflow to inf and then meet 0 * inf.  No entry of a
    # trace-preserving channel exceeds 1 in magnitude, so the check comes first.
    path = tmp_path / "chan.json"
    path.write_text(json.dumps([[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]))
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        rc, out = run_cli("decode", "--code", "steane-xp",
                          "--channel", f"kraus:{path}", "--shots", "1")
    assert (rc, out) == (1, "")
    assert err.getvalue() == "error: each Kraus entry must be finite and at most 1 in magnitude\n"


def chain_network(tmp_path, bonds):
    """Network file chaining len(bonds) + 1 copies of 722, one bond per pair."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "legos": [{"name": "722"}] * (len(bonds) + 1),
        "bonds": [[i, a, i + 1, b] for i, (a, b) in enumerate(bonds)],
    }))
    return path


# Canonical rows (x, z, p) of two 722 copies bonded on legs 2 and 4.
CHAIN_722_BOND_2_4 = (
    ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 3, 4), 7),
    ((0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0), 14),
    ((0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0), 9),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 3, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4), 8),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 4, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4), 8),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 4, 4, 4, 4, 0, 0, 0, 0, 0, 0), 8),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0), 0),
)


def test_cli_trace_of_two_722_copies_is_pinned(tmp_path):
    rc, out = run_cli("trace", str(chain_network(tmp_path, [(2, 4)])))
    assert rc == 0
    doc = json.loads(out)
    assert doc["matrix"]["n"] == 12 and doc["matrix"]["precision"] == 8
    assert doc["matrix"]["designation"] == ["P"] * 12
    rows = tuple((tuple(r["x"]), tuple(r["z"]), r["p"]) for r in doc["matrix"]["rows"])
    assert rows == CHAIN_722_BOND_2_4
    assert doc["counting_check"] is True
    assert doc["state_counting_check"] is False
    assert doc["warnings"] == []


# Canonical rows of four 722 copies bonded (2, 4), (3, 5), (1, 6), as x and
# z digit strings and the phase.  Each trace runs on the block of legs its
# bond touches, and no such block holds more than 9 of the 28 qubits.
CHAIN_722_FOUR_COPIES = (
    ("1100000001100111000000", "0100000003400560000000", 13),
    ("0011110000000000000000", "0012340000000000000000", 14),
    ("0000001110000000000000", "0000000070000000000000", 9),
    ("0000000000011000000111", "0000000000003000000123", 7),
    ("0000000000000000111000", "0000000000000000007000", 9),
    ("0000000000000000000000", "1300000004400444000000", 0),
    ("0000000000000000000000", "0400000004400444000000", 0),
    ("0000000000000000000000", "0044440000000000000000", 8),
    ("0000000000000000000000", "0000001070000000000000", 0),
    ("0000000000000000000000", "0000000170000000000000", 0),
    ("0000000000000000000000", "0000000000013000000444", 8),
    ("0000000000000000000000", "0000000000004000000444", 8),
    ("0000000000000000000000", "0000000000000000107000", 0),
    ("0000000000000000000000", "0000000000000000017000", 0),
)


def test_cli_trace_of_four_722_copies_is_pinned(tmp_path):
    rc, out = run_cli("trace", str(chain_network(tmp_path, [(2, 4), (3, 5), (1, 6)])))
    assert rc == 0
    doc = json.loads(out)
    assert doc["matrix"]["n"] == 22 and doc["matrix"]["precision"] == 8
    rows = tuple(("".join(map(str, r["x"])), "".join(map(str, r["z"])), r["p"])
                 for r in doc["matrix"]["rows"])
    assert rows == CHAIN_722_FOUR_COPIES
    assert doc["counting_check"] is True
    assert doc["state_counting_check"] is False
    assert doc["warnings"] == []


def test_cli_trace_of_five_722_copies_reports_counting(tmp_path):
    # 27 legs are over the Z-support cap, but no block holds more than 9 of
    # them, and the counting check reads one block at a time.
    rc, out = run_cli("trace", str(chain_network(tmp_path, [(2, 4), (3, 5), (1, 6), (2, 4)])))
    assert rc == 0
    doc = json.loads(out)
    assert doc["matrix"]["n"] == 27
    assert doc["counting_check"] is True
    assert doc["state_counting_check"] is False


# SHA-256 prefixes of the trace reports of 722 chains of 2 to 8 copies, from
# traces that completed every spectator block and matched every front anew:
# bonds all (2, 4), and bonds cycling through (2, 4), (3, 5) and (1, 6).
CHAIN_722_REPORT_DIGESTS = {
    ("repeated", 2): "905705ada4165972", ("mixed", 2): "905705ada4165972",
    ("repeated", 3): "09b5f4531e7e14bf", ("mixed", 3): "d9438cac0589d3b7",
    ("repeated", 4): "32b249a597cf2018", ("mixed", 4): "8fb437801a540470",
    ("repeated", 5): "ea03bef2fc3296a6", ("mixed", 5): "8af02ed41f0a4853",
    ("repeated", 6): "aa9cfc4d6613feec", ("mixed", 6): "ae4c0b9525090f8c",
    ("repeated", 7): "86cc79b6420e9b64", ("mixed", 7): "0cb4736f43fac2d3",
    ("repeated", 8): "368c2b7681027cf5", ("mixed", 8): "0ed15a1e65476e60",
}


@pytest.mark.parametrize("kind,copies", sorted(CHAIN_722_REPORT_DIGESTS))
def test_cli_trace_reports_of_722_chains_are_pinned(tmp_path, kind, copies):
    cycle = [(2, 4)] if kind == "repeated" else [(2, 4), (3, 5), (1, 6)]
    bonds = [cycle[i % len(cycle)] for i in range(copies - 1)]
    rc, out = run_cli("trace", str(chain_network(tmp_path, bonds)))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == CHAIN_722_REPORT_DIGESTS[kind, copies]


def test_cli_trace_report_reads_each_leg_block_once(tmp_path, monkeypatch):
    # Both counting answers come from one orbit pass over each leg block
    # that no trace completed; the other blocks carry their logical counts.
    # Here the last bond's front is the only block no trace completed.
    from xplego import cli, code_structure
    from xplego.lego import run_network

    path = chain_network(tmp_path, [(2, 4), (3, 5), (1, 6)])
    result = run_network(json.loads(path.read_text()))
    monkeypatch.setattr(cli, "run_network", lambda doc: result)
    calls = []
    original = code_structure.orbit_decomposition
    monkeypatch.setattr(code_structure, "orbit_decomposition",
                        lambda g: calls.append(g) or original(g))
    rc, out = run_cli("trace", str(path))
    assert rc == 0 and json.loads(out)["counting_check"] is True
    open_blocks = [block for block in result.blocks if block.logicals is None]
    assert [block.legs for block in open_blocks] == [(11, 12, 19, 20, 21)]
    assert [id(g) for g in calls] == [id(block.group) for block in open_blocks]
    # A carried count is the block's own.
    assert all(len(original(block.group).logical_x_dirs) == block.logicals
               for block in result.blocks if block.logicals is not None)


def test_cli_trace_over_the_support_limit_exits_with_message(tmp_path):
    # Two rm15 copies bonded leg 0 to leg 0: the bond's block holds all 30
    # qubits, so the first trace scans a 30-qubit support.
    path = tmp_path / "rm15_pair.json"
    path.write_text(json.dumps({"legos": [{"name": "rm15"}] * 2, "bonds": [[0, 0, 1, 0]]}))
    err = io.StringIO()
    with redirect_stderr(err):
        rc, _ = run_cli("trace", str(path))
    assert rc == 1
    assert err.getvalue().startswith("error: Z-support scan of 30 qubits")


IDENTITY_KRAUS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


MALFORMED_KRAUS_FILES = {
    "rows-of-numbers": json.dumps([[[1, 0], [0, 0]]]),
    "triple-entry": json.dumps([[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]]),
    "string-entry": json.dumps([[[["1", "0"], [0, 0]], [[0, 0], [1, 0]]]]),
    "boolean-entry": json.dumps([[[[True, False], [0, 0]], [[0, 0], [1, 0]]]]),
    "short-row": json.dumps([[[[1, 0]], [[0, 0], [1, 0]]]]),
    "long-row": json.dumps([[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]]]]),
    "object-document": json.dumps({"kraus": [IDENTITY_KRAUS]}),
    "number-document": json.dumps(3),
    "empty-list": json.dumps([]),
    "one-by-one": json.dumps([[[[1, 0]]]]),
    "three-by-three": json.dumps([[[[1, 0], [0, 0], [0, 0]]] * 3]),
    "not-tp-short": json.dumps([[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]),
    "not-tp-long": json.dumps([IDENTITY_KRAUS, IDENTITY_KRAUS]),
    "nan-entry": json.dumps([[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]]),
    "huge-entry": json.dumps([[[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]]),
    "not-json": "[[",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_KRAUS_FILES))
def test_cli_decode_malformed_kraus_file_exits_with_message(tmp_path, name):
    path = tmp_path / "chan.json"
    path.write_text(MALFORMED_KRAUS_FILES[name])
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("decode", "--code", "steane-xp",
                          "--channel", f"kraus:{path}", "--shots", "1")
    assert rc == 1 and out == ""
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


MALFORMED_NETWORKS = {
    "legos-not-a-list": {"legos": "x"},
    "document-is-a-list": [{"name": "722"}],
    "lego-without-name-or-matrix": {"legos": [{"label": "722"}]},
    "no-legos": {"legos": []},
    "leg-out-of-range": {"legos": [{"name": "722"}], "bonds": [[0, 0, 0, 9]]},
    "two-entry-bond": {"legos": [{"name": "722"}], "bonds": [[0, 0]]},
    "lego-index-out-of-range": {"legos": [{"name": "722"}], "bonds": [[1, 0, 0, 1]]},
    "negative-lego-index": {"legos": [{"name": "722"}], "bonds": [[-1, 0, 0, 1]]},
    "fractional-leg": {"legos": [{"name": "722"}], "bonds": [[0, 0.5, 0, 1]]},
    "bonds-not-a-list": {"legos": [{"name": "722"}], "bonds": "01"},
    "insertion-object": {"legos": [{"name": "ghz"}], "bonds": [[0, 0, 0, 1, {}]]},
    "insertion-wrong-shape": {"legos": [{"name": "ghz"}], "bonds": [[0, 0, 0, 1, [[1, 0, 0]]]]},
    "name-not-a-string": {"legos": [{"name": 722}]},
    "matrix-not-an-object": {"legos": [{"matrix": "x"}]},
    "matrix-without-rows": {"legos": [{"matrix": {"n": 1, "precision": 2}}]},
    "matrix-ragged-row": {"legos": [{"matrix": {"n": 2, "precision": 2, "rows": [
        {"x": [1, 1], "z": [0], "p": 0}]}}]},
    "matrix-x-entry-two": {"legos": [{"matrix": {"n": 1, "precision": 2, "rows": [
        {"x": [2], "z": [0], "p": 0}]}}]},
    "matrix-unknown-designation": {"legos": [{"matrix": {
        "n": 2, "precision": 2, "designation": ["P", "Q"],
        "rows": [{"x": [1, 1], "z": [0, 0], "p": 0}]}}]},
    "designate-strings": {"legos": [{"name": "722"}], "designate": ["a"]},
    "designate-out-of-range": {"legos": [{"name": "722"}], "designate": [7]},
    "designate-repeated-leg": {"legos": [{"name": "steane-xp"}], "designate": [0, 0]},
    "order-objects": {"legos": [{"name": "722"}], "bonds": [[0, 0, 0, 1]],
                      "order": [{}, 1, 2, 3, 4]},
    "order-not-a-permutation": {"legos": [{"name": "722"}], "bonds": [[0, 0, 0, 1]],
                                "order": [0, 1, 2, 2, 3]},
    # json writes and reads NaN; the second shadow's norm overflows at its first bond.
    "insertion-nan": {"legos": [{"name": "bell"}],
                      "bonds": [[0, 0, 0, 1, [[float("nan"), 0], [0, 1]]]]},
    "insertion-overflows-the-shadow": {"legos": [{"name": "lego6-steane"}], "bonds": [
        [0, 0, 0, 1, [[1e200, 0], [0, 1e200]]], [0, 2, 0, 3, [[1e200, 0], [0, 1e200]]]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_NETWORKS))
def test_cli_trace_malformed_network_exits_with_message(tmp_path, name):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(MALFORMED_NETWORKS[name]))
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("trace", str(path))
    assert rc == 1 and out == ""
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    assert "unpack" not in err.getvalue() and "already contracted" not in err.getvalue()


def test_cli_trace_second_bond_on_a_contracted_leg_names_the_bond(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"legos": [{"name": "722"}], "bonds": [[0, 0, 0, 1], [0, 1, 0, 2]]}))
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli("trace", str(path))
    assert rc == 1 and out == ""
    assert err.getvalue() == "error: bond [0, 1, 0, 2]: endpoint already contracted\n"


ONE_ROW_MATRIX = {"n": 1, "precision": 4, "rows": [{"x": [1], "z": [0], "p": 0}]}


def one_row_matrix(**changes):
    """The one-row matrix with some top-level or row fields replaced."""
    row = {key: changes.pop(key, value) for key, value in ONE_ROW_MATRIX["rows"][0].items()}
    return {**ONE_ROW_MATRIX, **changes, "rows": [row]}


MALFORMED_MATRICES = {
    "empty-object": {},
    "document-is-a-list": [1, 2],
    "row-not-an-object": {"n": 2, "precision": 2, "rows": [[1]]},
    "float-precision": one_row_matrix(precision=4.9),
    "float-z": one_row_matrix(z=[1.5]),
    "string-x": one_row_matrix(x=["1"]),
    "boolean-phase": one_row_matrix(p=True),
    "float-n": one_row_matrix(n=1.0),
    "precision-over-cap": one_row_matrix(precision=2 ** 62),
    "rowless-precision-over-cap": {"n": 1, "precision": 2 ** 62, "rows": []},
    "x-entry-two": one_row_matrix(x=[2]),
    "x-entry-three": one_row_matrix(x=[3]),
}


@pytest.mark.parametrize("command", ["show", "canonical", "enumerate", "decode"])
@pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
def test_cli_malformed_matrix_file_exits_with_message(tmp_path, name, command):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(MALFORMED_MATRICES[name]))
    argv = [command, str(path)]
    if command == "decode":
        argv = [command, "--code", str(path), "--channel", "depolarizing:0.01"]
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli(*argv)
    assert rc == 1 and out == ""
    assert err.getvalue().startswith("error: malformed check matrix")
    assert "Traceback" not in err.getvalue()


def test_json_x_entries_must_be_bits_while_z_and_p_are_reduced():
    group, _ = group_from_json(one_row_matrix(z=[5], p=9))
    assert group.generators == (XpOperator(4, (1,), (1,), 1),)
    for x in (2, 3, -1):
        with pytest.raises(MalformedMatrixError, match="x entries must be 0 or 1"):
            group_from_json(one_row_matrix(x=[x]))


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf", "abc"])
def test_cli_tolerance_must_be_finite_and_positive(value):
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli(f"--tolerance={value}", "verify", "bell")
    assert rc == 1 and out == ""
    assert err.getvalue().startswith("usage: xplego")
    reason = "invalid tolerance value" if value == "abc" else "must be finite and above 0"
    assert f"argument --tolerance: {reason}" in err.getvalue()
