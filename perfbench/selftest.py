"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import inputs
import run
from tracer import Tracer

run.pin_threads()
PROGRAM = run.load_program()
NETWORK_722 = run.SRC / "xplego" / "data" / "networks" / "722_selftrace.json"


def test_inputs_are_deterministic_for_a_seed(tmp_path):
    for make in (inputs.lego_round, inputs.montecarlo_round, inputs.analysis_round):
        first = [make(11, r) for r in range(6)]
        assert first == [make(11, r) for r in range(6)], make.__name__
        assert first != [make(12, r) for r in range(6)], make.__name__

    seeds = [s for r in range(50) for s in inputs.montecarlo_round(5, r).values()]
    golden = {s for menu in inputs.GOLDEN_MC_SEEDS.values() for s in menu}
    assert len(set(seeds)) == len(seeds)
    assert set(seeds[:len(golden)]) == golden
    assert min(seeds[len(golden):]) >= inputs.FRESH_SEED_BASE

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    files_a, files_b = inputs.write_chain_files(a), inputs.write_chain_files(b)
    assert files_a.keys() == files_b.keys()
    assert all(files_a[k].read_bytes() == files_b[k].read_bytes() for k in files_a)


def test_every_drawable_input_has_a_golden_output():
    golden = json.loads(run.GOLDEN.read_text())
    keys = {inputs.chain_key(b) for b in inputs.chain14_menu() + inputs.chain21_menu()}
    assert keys == set(golden["chains"])
    for mode in inputs.MC_MODES:
        assert set(golden["montecarlo"][mode]) == {str(s) for s in inputs.GOLDEN_MC_SEEDS[mode]}
        for job in golden["montecarlo"][mode].values():
            shots = sum(v["ok"] + v["fail"] for v in job["per_syndrome"].values())
            assert shots == inputs.MC_SHOTS
    assert "--shots" not in inputs.decode_argv("exact", 1)
    assert all(set(inputs.analysis_round(7, r)) == set(inputs.TABLE_CHANNELS)
               for r in range(4))
    tables = {f"depolarizing:{s}" for s in inputs.DEPOLARIZING_STRENGTHS}
    tables |= {f"damping:{s}" for s in inputs.DAMPING_STRENGTHS}
    assert tables == set(golden["tables"])
    assert set(golden["networks"]) == {fname for fname, _ in inputs.NETWORKS}


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if module is not None and (name == "xplego" or name.startswith("xplego."))
            for attr, value in vars(module).items()}


def _sample_outputs():
    dec = PROGRAM.decoder
    code = PROGRAM.code_structure.canonical_form(
        PROGRAM.registry.lookup("steane-xp").group)
    coeffs = dec.pauli_process_coeffs(dec.amplitude_damping(0.1))
    return (
        run.run_cli(PROGRAM, ["trace", str(NETWORK_722)]),
        run.run_cli(PROGRAM, ["enumerate", "422", "--biased", "--json"]),
        run.run_cli(PROGRAM, ["decode", "--code", "steane-xp", "--channel",
                              "depolarizing:0.05", "--shots", "20", "--seed", "3"]),
        dec.ml_decode(dec.Syndrome((1, 0, 0), (0, 1, 0)), coeffs, code).probabilities,
    )


def test_tracer_changes_no_result_and_restores_every_function():
    before = _bindings()
    plain = _sample_outputs()
    tracer = Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        traced = _sample_outputs()
    finally:
        tracer.restore()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for key in ("cli.main", "lego.run_network", "lego.self_trace", "enumerator.enumerators",
                "decoder.monte_carlo", "decoder.ml_decode", "xp_algebra.multiply"):
        assert tracer.calls[key] > 0, key
    spans = tracer.spans_json()
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)
    assert tracer.totals["code_structure.z_support.strings_scanned"] > 0


def test_failing_operation_is_counted_not_fatal():
    ledger = run.Ledger()

    def boom():
        raise ValueError("broken on purpose")

    def wrong(out):
        run.expect(out == 2, "expected two")

    assert ledger.op("raises", boom) is None
    assert ledger.op("known", lambda: run.run_cli(PROGRAM, ["enumerate", "no-such-code"]),
                     known_defect="unknown code") is None
    assert ledger.op("mismatch", lambda: 1, wrong) is None
    assert ledger.op("fine", lambda: 2, wrong) is not None
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.failed_share == {"value": 3 / 4, "failed": 3, "attempted": 4}
    assert [e["op"] for e in ledger.errors] == ["raises"]
    assert [e["op"] for e in ledger.known_failures] == ["known"]
    assert [e["op"] for e in ledger.mismatches] == ["mismatch"]
    assert not ledger.correct

    known_only = run.Ledger()
    known_only.op("known", lambda: run.run_cli(PROGRAM, ["enumerate", "no-such-code"]),
                  known_defect="unknown code")
    assert known_only.correct and (known_only.attempted, known_only.failed) == (0, 0)
    assert known_only.failed_share["failed"] == 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metric_names_match_benchmark_json(trace, monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert declared == (run.E2E_UNITS if trace == "0" else run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "lego", "--seed", "3", "--seconds", "0",
                         "--trace", trace])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
