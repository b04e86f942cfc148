#!/usr/bin/env python3
"""Regenerate ``golden.json``: the outputs every benchmark input must give.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

It traces every chain the lego menu can draw, runs every golden Monte Carlo
seed, enumerates every code of the analysis workload and builds every
decision table the strength menus allow.  The shipped networks are stored
as their registry matrices, after checking that the traces reproduce them.
A run takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import inputs
import run


def main() -> int:
    run.pin_threads()
    program = run.load_program()
    reg = program.registry
    cs = program.code_structure
    golden: dict = {"networks": {}, "chains": {}, "montecarlo": {}, "enumerate": {},
                    "tables": {}}

    network_dir = run.SRC / "xplego" / "data" / "networks"
    for fname, name in inputs.NETWORKS:
        want = reg.group_to_json(cs.canonical_form(reg.lookup(name).group))
        got = json.loads(run.run_cli(program, ["trace", str(network_dir / fname)]))["matrix"]
        if any(got[key] != want[key] for key in ("n", "precision", "rows")):
            raise SystemExit(f"{fname} does not reproduce the registry matrix of {name}")
        golden["networks"][fname] = {key: want[key] for key in ("n", "precision", "rows")}

    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"golden-inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        add_input_goldens(program, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def add_input_goldens(program, golden: dict, workdir) -> None:
    """Goldens of the generated inputs, whose files go to ``workdir``."""
    reg = program.registry
    cs = program.code_structure
    for key, path in inputs.write_chain_files(workdir).items():
        golden["chains"][key] = json.loads(run.run_cli(program, ["trace", str(path)]))
        print(key, file=sys.stderr)

    for mode in inputs.MC_MODES:
        golden["montecarlo"][mode] = {}
        for seed in inputs.GOLDEN_MC_SEEDS[mode]:
            report = json.loads(run.run_cli(program, inputs.decode_argv(mode, seed)))
            golden["montecarlo"][mode][str(seed)] = {
                "failures": report["failures"], "per_syndrome": report["per_syndrome"]}
        print(mode, file=sys.stderr)

    for name, entry in reg.registry().items():
        if entry.group.n <= inputs.SMALL_CODE_MAX_QUBITS:
            golden["enumerate"][name] = run.run_cli(
                program, ["enumerate", name, "--biased", "--json"])
    tensor_files = inputs.write_tensor_codes(workdir)
    for a, b in inputs.TENSOR_CODES:
        key = inputs.tensor_key(a, b)
        golden["enumerate"][key] = run.run_cli(
            program, ["enumerate", str(tensor_files[key]), "--json"])

    code = cs.canonical_form(reg.lookup(inputs.TABLE_CODE).group)
    for kind, strengths in (("depolarizing", inputs.DEPOLARIZING_STRENGTHS),
                            ("damping", inputs.DAMPING_STRENGTHS)):
        for strength in strengths:
            golden["tables"][f"{kind}:{strength}"] = run.decision_table(
                program, code, kind, strength)


if __name__ == "__main__":
    sys.exit(main())
