#!/usr/bin/env python3
"""Benchmark of the xplego command-line paths.

Run from the repository root:

    python3 perfbench/run.py --workload lego --seed 1 --seconds 30 --trace 0

Workloads are ``lego`` (``xplego trace``), ``montecarlo`` (``xplego decode``)
and ``analysis`` (``xplego enumerate`` plus the ML decision table).  The load
is a closed loop: one client in this process calls ``xplego.cli.main`` and
starts each operation after the previous one ends.  Every output is checked
against golden values or invariants.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps the layers' public functions from outside and
prints the per-layer metrics, writing the spans to ``perfbench/out``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import inputs
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("lego", "montecarlo", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# Seconds one reference block takes on the machine the benchmark was written
# on (2-core x86_64, Python 3.11, numpy 2.4) when the host is not slowed.
REF_S = 0.022
# A reference block measured this recently still describes the host speed.
REF_FRESH_S = 0.5
# Syndromes per decision-table operation (the table has 64).
TABLE_BLOCK = 16
# Passes over the shipped networks in one lego round, and over the small
# codes in one analysis round: cheap operations repeat so that their medians
# get as many samples as the expensive ones.
NETWORK_PASSES = 3
ENUMERATE_PASSES = 2
# Traced and untraced repeats of round 0 that give the tracing overhead.
OVERHEAD_PAIRS = 3
# Rounds are never cut short, and a run completes at least this many, so
# every timing has a few samples even when one round is long.
MIN_ROUNDS = 2

# End-to-end metrics, the same on every workload.  The two operation slots
# name, per workload, the operation kind that exercises the layer the
# workload targets and the kind that shares code with it but bypasses that
# mechanism; ROLES maps them to the named timings.
E2E_UNITS = {
    "setup_s": "s",
    "target_op_s": "s",
    "control_op_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}
ROLES = {
    "lego": {"target_op_s": "chain21_s", "control_op_s": "networks_s"},
    "montecarlo": {"target_op_s": "exact_job_s", "control_op_s": "twirl_job_s"},
    "analysis": {"target_op_s": "enumerate_s", "control_op_s": "decode_tables_s"},
}
# Named timings of each workload, reported by name next to the gated metrics.
NAMED = {
    "lego": {"networks_s": "s", "chain14_s": "s", "chain21_s": "s"},
    "montecarlo": {"exact_job_s": "s", "twirl_job_s": "s",
                   "shots_per_s": "1/s", "twirl_shots_per_s": "1/s"},
    "analysis": {"enumerate_s": "s", "enumerate_n10_s": "s", "decode_table_s": "s",
                 "decode_table_damping_s": "s", "decode_tables_s": "s"},
}

# Per-layer metrics of the traced run: one round of the workload plus its
# set-up (and, on analysis, the once-per-run operations before the rounds).
PER_LAYER_UNITS = {
    "ring_linalg.howell_form.calls": "count",
    "ring_linalg.howell_form.self_s": "s",
    "ring_linalg.howell_form.max_cols": "count",
    "ring_linalg.solve_linear_mod.calls": "count",
    "ring_linalg.solve_linear_mod.self_s": "s",
    "ring_linalg.solve_linear_mod.unsolved_ratio": "ratio",
    "ring_linalg.kernel_mod.calls": "count",
    "ring_linalg.kernel_mod.self_s": "s",
    "xp_algebra.multiply.calls": "count",
    "xp_algebra.conjugate.calls": "count",
    "code_structure.z_support.calls": "count",
    "code_structure.z_support.self_s": "s",
    "code_structure.z_support.strings_scanned": "count",
    "code_structure.z_support.support_ratio": "ratio",
    "code_structure.codewords.self_s": "s",
    "code_structure.orbit_decomposition.self_s": "s",
    "code_structure.complete_lid.calls": "count",
    "code_structure.complete_lid.self_s": "s",
    "code_structure.canonical_form.calls": "count",
    "code_structure.canonical_form.self_s": "s",
    "lego.run_network.self_s": "s",
    "lego.self_trace.calls": "count",
    "lego.self_trace.self_s": "s",
    "lego.self_trace.rows_in": "count",
    "lego.self_trace.rows_out": "count",
    "dense_oracle.apply_operator.calls": "count",
    "dense_oracle.apply_operator.self_s": "s",
    "dense_oracle.contract.self_s": "s",
    "dense_oracle.xp_state_from_dense.self_s": "s",
    "dense_oracle.projector.self_s": "s",
    "enumerator.enumerators.self_s": "s",
    "enumerator.pauli_transform.calls": "count",
    "enumerator.pauli_transform.self_s": "s",
    "enumerator.pauli_transform.computed_bytes": "bytes",
    "enumerator.apply_channel.calls": "count",
    "enumerator.apply_channel.self_s": "s",
    "enumerator.coset_scalars.calls": "count",
    "enumerator.coset_scalars.self_s": "s",
    "enumerator.biased_distance.self_s": "s",
    "decoder.monte_carlo.self_s": "s",
    "decoder.measure_syndrome.calls": "count",
    "decoder.measure_syndrome.self_s": "s",
    "decoder.ml_decode.calls": "count",
    "decoder.ml_decode.self_s": "s",
    "decoder.decode_hit_ratio": "ratio",
    "decoder.decoder_setup.self_s": "s",
    "registry.registry.self_s": "s",
    "cli.main.self_s": "s",
    "tracer.overhead_s": "s",
}


class MissingProgram(RuntimeError):
    """The checkout does not hold the xplego sources."""


class ExitError(RuntimeError):
    """A command exited with a non-zero code."""


class Mismatch(AssertionError):
    """An operation finished but its output is wrong."""


def pin_threads() -> None:
    """One BLAS thread: set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program() -> SimpleNamespace:
    """Import xplego from this checkout's ``src``, and nowhere else."""
    package = SRC / "xplego"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no xplego sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    xplego = importlib.import_module("xplego")
    if Path(xplego.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"xplego was imported from {xplego.__file__}, not {package}")
    # import_module, not attribute access: the package binds the function
    # ``registry`` over the module of the same name.
    return SimpleNamespace(**{name: importlib.import_module(f"xplego.{name}")
                              for name in ("cli", "code_structure", "decoder", "registry")})


def run_cli(program, argv: list[str]) -> str:
    """One in-process ``xplego`` command; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    if code != 0:
        raise ExitError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


SYNDROMES = list(itertools.product((0, 1), repeat=6))


def decision_table(program, code, kind: str, strength: float,
                   syndromes=SYNDROMES) -> list[str]:
    """The ML class chosen for each steane-xp syndrome (6 bits: 3 Z, 3 X)."""
    dec = program.decoder
    channel = {"depolarizing": dec.depolarizing, "damping": dec.amplitude_damping}[kind]
    coeffs = dec.pauli_process_coeffs(channel(strength))
    return [dec.ml_decode(dec.Syndrome(bits[:3], bits[3:]), coeffs, code).chosen
            for bits in syndromes]


class Reference:
    """A fixed CPU-bound block owned by the benchmark, timed around every
    operation.

    Host speed on a shared machine drifts by tens of percent over seconds
    to minutes.  An operation's time times REF_S over the reference time
    measured next to it removes most of that drift, and the program under
    test cannot change the reference.  The block mixes the three kinds of
    work the program does: interpreter-bound integer and dict work (the
    symbolic algebra), many numpy calls on a 7-qubit state (a Monte Carlo
    shot) and the tensordot pattern of a Pauli transform on a 2^16 tensor
    (an enumerator).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self.gate = rng.normal(size=(2, 2)) + 0j
        self.state = rng.normal(size=(2,) * 7) + 0j
        self.kernel = rng.normal(size=(4, 2, 2)) + 0j
        self.tensor = rng.normal(size=(2,) * 16) + 0j

    def seconds(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(60000):
            acc = (acc * 31 + i) % 1000003
            table[i & 1023] = acc
        state = self.state
        for q in range(300):
            state = np.moveaxis(np.tensordot(self.gate, state, axes=([1], [q % 7])), 0, q % 7)
            state = state / np.sqrt(float(np.vdot(state, state).real))
        t = self.tensor
        for _ in range(2):
            for i in range(8):
                t = np.moveaxis(np.tensordot(t, self.kernel, axes=([i, 8], [1, 2])), -1, i)
            t = t.reshape((2,) * 16)
        return time.perf_counter() - start


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Operation ledger


class Ledger:
    """Attempted, failed and checked operations of one run.

    A known defect is an operation that fails with a message named in
    advance.  It is listed by name in ``known_failures`` and counted in the
    reported ``failed_share``, but it stays out of ``attempted`` and
    ``failed``: those count only operations that are meant to succeed, so
    they read the same for the same code however many rounds a run makes.
    A known defect does not make the run incorrect.  Any other exception,
    and any output check that fails, does.
    """

    def __init__(self, tracer: Tracer | None = None, reference: Reference | None = None):
        self.tracer = tracer
        self.reference = reference
        self.speeds: list[float] = []
        self._last_ref: tuple[float, float] | None = None
        self.run = "setup"
        self.attempted = 0
        self.failed = 0
        self.known_failures: list[dict] = []
        self.errors: list[dict] = []
        self.mismatches: list[dict] = []
        self.records: list[dict] = []
        self.repeats: Counter = Counter()

    def set_run(self, label: str) -> None:
        """Label the operations (and spans) that follow."""
        self.run = label
        if self.tracer is not None:
            self.tracer.run = label

    @property
    def correct(self) -> bool:
        return not self.errors and not self.mismatches

    @property
    def failed_share(self) -> dict:
        """Failed ÷ attempted operations, the known defects included."""
        known = len(self.known_failures)
        failed, attempted = self.failed + known, self.attempted + known
        return {"value": failed / attempted, "failed": failed, "attempted": attempted}

    def reference_seconds(self, fresh: bool = False) -> float:
        """The reference time now, reusing one measured moments ago."""
        now = time.perf_counter()
        if fresh or self._last_ref is None or now - self._last_ref[1] > REF_FRESH_S:
            self._last_ref = (self.reference.seconds(), time.perf_counter())
        return self._last_ref[0]

    def scaled(self, seconds: float, ref_before: float, fresh: bool = False) -> float:
        """``seconds`` at the reference speed, from the reference times
        measured before and (now) after them."""
        speed = REF_S / ((ref_before + self.reference_seconds(fresh)) / 2)
        self.speeds.append(speed)
        return seconds * speed

    def op(self, label: str, fn, check=None, known_defect: str | None = None,
           **info) -> float | None:
        """Time ``fn()``, then check its output.

        Returns the seconds, scaled to the reference speed when the ledger
        has a reference, or None when the operation failed.
        """
        self.attempted += 1
        record = {"op": label, "run": self.run, "repeat": self.repeats[label], **info}
        self.repeats[label] += 1
        tracing = self.tracer is not None and self.tracer.installed
        before = self.tracer.snapshot() if tracing else None
        ref_before = self.reference_seconds() if self.reference is not None else None
        start = time.perf_counter()
        try:
            output = fn()
        except Exception as exc:  # one failing operation must not end the run
            record["seconds"] = time.perf_counter() - start
            if self.reference is not None:
                record["scaled_seconds"] = self.scaled(record["seconds"], ref_before)
            entry = {"op": label, "error": f"{type(exc).__name__}: {exc}"}
            if known_defect is not None and known_defect in str(exc):
                self.attempted -= 1
                self.known_failures.append(entry)
            else:
                self.failed += 1
                entry["traceback"] = traceback.format_exc()
                self.errors.append(entry)
            self._close(record, before, ok=False)
            return None
        seconds = time.perf_counter() - start
        record["seconds"] = seconds
        if self.reference is not None:
            seconds = self.scaled(seconds, ref_before)
            record["scaled_seconds"] = seconds
        try:
            if check is not None:
                check(output)
        except Exception as exc:  # a check that cannot parse the output also fails it
            self.failed += 1
            self.mismatches.append({"op": label, "error": f"{type(exc).__name__}: {exc}"})
            self._close(record, before, ok=False)
            return None
        self._close(record, before, ok=True)
        return seconds

    def _close(self, record: dict, before, ok: bool) -> None:
        record["ok"] = ok
        if before is not None:
            after = self.tracer.snapshot()
            record["calls"] = dict(after["calls"] - before["calls"])
            record["totals"] = dict(after["totals"] - before["totals"])
            points = self.tracer.decode_points[before["decode_points"]:after["decode_points"]]
            if points:
                shots0 = before["calls"]["decoder.measure_syndrome"]
                decodes0 = before["calls"]["decoder.ml_decode"]
                record["decode_points"] = [[s - shots0, d - decodes0] for s, d in points]
        self.records.append(record)


def add_sample(samples: dict, name: str, *times) -> None:
    """Record the total of ``times`` when every part succeeded."""
    if all(t is not None for t in times):
        samples.setdefault(name, []).append(sum(times))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, optional probes and one round of a workload."""

    name = ""

    def __init__(self, program, seed: int, workdir: Path, golden: dict | None):
        self.program = program
        self.seed = seed
        self.workdir = workdir
        self.golden = golden

    def setup(self) -> None:
        self.program.registry.registry()

    def probes(self, ledger: Ledger) -> dict:
        """Operations that run once per run, before the measuring window;
        returns their timings."""
        return {}

    def round(self, ledger: Ledger, r: int) -> dict:
        raise NotImplementedError

    def _decoder_setup(self, name: str):
        """The first decoder set-up (projectors) of a code; returns the code."""
        code = self.program.code_structure.canonical_form(
            self.program.registry.lookup(name).group)
        self.program.decoder.decoder_setup(code)
        return code


class LegoWorkload(Workload):
    """``xplego trace`` on the shipped networks and on generated 722 chains."""

    name = "lego"

    def setup(self) -> None:
        super().setup()
        self.chain_files = inputs.write_chain_files(self.workdir)
        self.network_dir = SRC / "xplego" / "data" / "networks"

    def _trace(self, ledger, label, path, check, **info):
        return ledger.op(label, lambda: run_cli(self.program, ["trace", str(path)]),
                         check, **info)

    def _check_network(self, fname):
        want = self.golden["networks"][fname]

        def check(out):
            got = json.loads(out)["matrix"]
            for key in ("n", "precision", "rows"):
                expect(got[key] == want[key], f"{fname}: {key} differs from the registry matrix")
        return check

    def _check_chain(self, key):
        want = self.golden["chains"][key]

        def check(out):
            expect(json.loads(out) == want, f"{key}: report differs from the golden one")
        return check

    def round(self, ledger, r):
        plan = inputs.lego_round(self.seed, r)
        samples: dict = {}
        network_times = []
        for _ in range(NETWORK_PASSES):
            # The shipped 722 self-trace is the one-copy point of the chain curve.
            times = [self._trace(ledger, f"trace {fname}", self.network_dir / fname,
                                 self._check_network(fname),
                                 **({"copies": 1} if fname == "722_selftrace.json" else {}))
                     for fname, _ in inputs.NETWORKS]
            add_sample(samples, "networks_s", *times)
            network_times += times
        chain_times = []
        for kind in ("chain14", "chain21"):
            key = inputs.chain_key(plan[kind])
            t = self._trace(ledger, f"trace {key}", self.chain_files[key],
                            self._check_chain(key), copies=len(plan[kind]) + 1)
            add_sample(samples, f"{kind}_s", t)
            chain_times.append(t)
        add_sample(samples, "round_s", *network_times, *chain_times)
        return samples


class MonteCarloWorkload(Workload):
    """``xplego decode`` on steane-xp, exact Kraus noise and its Pauli twirl."""

    name = "montecarlo"

    def setup(self) -> None:
        super().setup()
        self._decoder_setup(inputs.MC_CODE)

    def _check(self, mode, mc_seed):
        golden = self.golden["montecarlo"][mode].get(str(mc_seed))
        bound = 1.0 - (1.0 - inputs.MC_STRENGTH) ** 7

        def check(out):
            report = json.loads(out)
            expect(report["shots"] == inputs.MC_SHOTS, "shot count differs")
            fails = sum(v["fail"] for v in report["per_syndrome"].values())
            total = sum(v["ok"] + v["fail"] for v in report["per_syndrome"].values())
            expect(total == inputs.MC_SHOTS and fails == report["failures"],
                   "per_syndrome does not add up to the shots and failures")
            if golden is not None:
                expect(report["failures"] == golden["failures"]
                       and report["per_syndrome"] == golden["per_syndrome"],
                       f"{mode} seed {mc_seed}: differs from the golden result")
            else:
                expect(report["rate"] < bound,
                       f"{mode} seed {mc_seed}: rate {report['rate']} >= {bound}")
        return check

    def round(self, ledger, r):
        plan = inputs.montecarlo_round(self.seed, r)
        samples: dict = {}
        times = []
        for mode in inputs.MC_MODES:
            mc_seed = plan[mode]
            argv = inputs.decode_argv(mode, mc_seed)
            t = ledger.op(f"decode {mode} seed {mc_seed}",
                          lambda argv=argv: run_cli(self.program, argv),
                          self._check(mode, mc_seed), shots=inputs.MC_SHOTS)
            add_sample(samples, f"{mode}_job_s", t)
            rate_name = "shots_per_s" if mode == "exact" else "twirl_shots_per_s"
            if t is not None:
                samples.setdefault(rate_name, []).append(inputs.MC_SHOTS / t)
            times.append(t)
        add_sample(samples, "round_s", *times)
        return samples


class AnalysisWorkload(Workload):
    """Enumerators of every small code and of 10-qubit tensor codes, plus
    the full ML decision table of steane-xp under two channels."""

    name = "analysis"

    def setup(self) -> None:
        super().setup()
        reg = self.program.registry.registry()
        self.small_codes = [name for name, entry in reg.items()
                            if entry.group.n <= inputs.SMALL_CODE_MAX_QUBITS]
        self.sizes = {name: reg[name].group.n for name in self.small_codes}
        self.tensor_files = inputs.write_tensor_codes(self.workdir)
        self.table_code = self._decoder_setup(inputs.TABLE_CODE)

    def _enumerate(self, ledger, label, argv, check, n, known_defect=None):
        return ledger.op(label, lambda: run_cli(self.program, argv), check,
                         known_defect=known_defect, n=n)

    def _check_text(self, key):
        want = self.golden["enumerate"][key]

        def check(out):
            expect(out == want, f"enumerate {key}: output differs from the golden one")
        return check

    def _check_product(self, a, b):
        """A tensor product's polynomials are the products of its factors'."""
        def poly(name, which):
            doc = json.loads(self.golden["enumerate"][name].splitlines()[-1])
            return [int(c) for c in doc[which]]

        def times(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for (i, x), (j, y) in itertools.product(enumerate(p), enumerate(q)):
                out[i + j] += x * y
            return out

        def check(out):
            doc = json.loads(out.splitlines()[-1])
            for which in ("A", "B"):
                got = [int(c) for c in doc[which]]
                expect(got == times(poly(a, which), poly(b, which)),
                       f"{a}*{b}: {which} is not the product of its factors")
        return check

    def probes(self, ledger):
        """The 10-qubit enumerators and the two known-defect inputs.

        A 10-qubit enumerator runs for seconds, long enough for the host
        speed to change inside it, which the reference cannot follow; a
        gated median over a few of them spread too widely between runs.  So
        they run once per run, outside the rounds, and are reported by name.
        """
        samples: dict = {}
        for a, b in inputs.TENSOR_CODES:
            key = inputs.tensor_key(a, b)
            t = self._enumerate(ledger, f"enumerate {key}",
                                ["enumerate", str(self.tensor_files[key]), "--json"],
                                self._check_text(key), n=self.sizes[a] + self.sizes[b])
            add_sample(samples, "enumerate_n10_s", t)
        for a, b in inputs.KNOWN_DEFECT_CODES:
            key = inputs.tensor_key(a, b)
            self._enumerate(ledger, f"enumerate {key}",
                            ["enumerate", str(self.tensor_files[key]), "--json"],
                            self._check_product(a, b),
                            n=self.sizes[a] + self.sizes[b],
                            known_defect=inputs.KNOWN_DEFECT_MESSAGE)
        return samples

    def _table(self, ledger, kind, strength) -> list:
        """The table in blocks of syndromes, one operation each; their times."""
        key = f"{kind}:{strength}"
        times = []
        for start in range(0, len(SYNDROMES), TABLE_BLOCK):
            block = SYNDROMES[start:start + TABLE_BLOCK]
            want = self.golden["tables"][key][start:start + TABLE_BLOCK]

            def check(chosen, want=want, start=start):
                expect(chosen == want,
                       f"decision table {key} from syndrome {start} differs from the golden one")
            times.append(ledger.op(
                f"decision table {key} from syndrome {start}",
                lambda block=block: decision_table(self.program, self.table_code, kind,
                                                   strength, block),
                check))
        return times

    def round(self, ledger, r):
        plan = inputs.analysis_round(self.seed, r)
        samples: dict = {}
        small = []
        for _ in range(ENUMERATE_PASSES):
            times = [self._enumerate(ledger, f"enumerate {name}",
                                     ["enumerate", name, "--biased", "--json"],
                                     self._check_text(name), n=self.sizes[name])
                     for name in self.small_codes]
            add_sample(samples, "enumerate_s", *times)
            small += times
        # The table under both channels in every round, so that a change to
        # either channel moves every sample of the control slot.
        blocks = {kind: self._table(ledger, kind, plan[kind]) for kind in inputs.TABLE_CHANNELS}
        add_sample(samples, "decode_table_s", *blocks["depolarizing"])
        add_sample(samples, "decode_table_damping_s", *blocks["damping"])
        tables = [t for times in blocks.values() for t in times]
        add_sample(samples, "decode_tables_s", *tables)
        add_sample(samples, "round_s", *small, *tables)
        return samples


WORKLOAD_CLASSES = {cls.name: cls for cls in (LegoWorkload, MonteCarloWorkload,
                                              AnalysisWorkload)}


# ---------------------------------------------------------------------------
# Measurement


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and count."""
    n = len(values)
    out = {"median": statistics.median(values), "samples": n, "max": max(values)}
    q = 100 * (n - 10) // n
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def measure_setup(args, ledger: Ledger) -> list[float]:
    """Time from process start to ready, over fresh set-up processes,
    scaled to the reference speed like the operations."""
    samples = []
    for _ in range(SETUP_REPEATS):
        ref_before = ledger.reference_seconds()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        samples.append(ledger.scaled(elapsed, ref_before, fresh=True))
    return samples


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pin": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload: Workload, ledger: Ledger, deadline: float, first: int = 0,
               min_rounds: int | None = None, label: str | None = None) -> tuple[dict, int]:
    """Closed loop: whole rounds until the deadline, at least ``min_rounds``
    (MIN_ROUNDS by default)."""
    if min_rounds is None:
        min_rounds = MIN_ROUNDS
    samples: dict = {}
    r = first
    while r - first < min_rounds or time.perf_counter() < deadline:
        ledger.set_run(label or f"round{r}")
        for name, values in workload.round(ledger, r).items():
            samples.setdefault(name, []).extend(values)
        r += 1
    return samples, r - first


def e2e_metrics(workload_name: str, samples: dict, setup_samples: list[float]) -> dict:
    values = {"setup_s": statistics.median(setup_samples), "peak_rss_mb": peak_rss_mb()}
    for slot, named in ROLES[workload_name].items():
        values[slot] = statistics.median(samples[named])
    values["round_s"] = statistics.median(samples["round_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def layer_metrics(snapshot: dict, overhead_s: float) -> dict:
    calls, totals = snapshot["calls"], snapshot["totals"]
    shots = calls["decoder.measure_syndrome"]
    derived = {
        "ring_linalg.howell_form.max_cols": snapshot["peak"].get(
            "ring_linalg.howell_form.max_cols", 0),
        "ring_linalg.solve_linear_mod.unsolved_ratio":
            totals["ring_linalg.solve_linear_mod.unsolved"]
            / max(1, calls["ring_linalg.solve_linear_mod"]),
        "code_structure.z_support.support_ratio":
            totals["code_structure.z_support.support_strings"]
            / max(1, totals["code_structure.z_support.strings_scanned"]),
        "decoder.decode_hit_ratio":
            1.0 - calls["decoder.ml_decode"] / shots if shots else 0.0,
        "tracer.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        key, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif stat == "calls":
            value = calls[key]
        elif stat == "self_s":
            value = snapshot["self_s"].get(key, 0.0)
        else:
            value = totals[name]
        out[name] = {"value": value, "unit": unit}
    return out


def scaling_records(records: list[dict]) -> list[dict]:
    """Cost against size from the traced probes and round 0: the 722 chain
    at 1, 2 and 3 copies, enumerators at n = 7-10, and ml_decode calls
    against the shot index in each decode job."""
    out = []
    for rec in records:
        if rec["run"] not in ("probe", "round0"):
            continue
        if "copies" in rec or rec.get("n", 0) >= 7 or "shots" in rec:
            out.append({k: v for k, v in rec.items() if k not in ("run", "repeat")})
    return out


def repeat_changes(records: list[dict]) -> list[dict]:
    """Traced repeats of an operation whose call counts differ from its
    first traced execution, as a cross-call cache serving a repeat would."""
    first: dict = {}
    changes = []
    for rec in records:
        if "calls" not in rec:
            continue
        base = first.setdefault(rec["op"], rec)
        if rec is not base and rec["calls"] != base["calls"]:
            keys = sorted(k for k in set(rec["calls"]) | set(base["calls"])
                          if rec["calls"].get(k) != base["calls"].get(k))
            changes.append({"op": rec["op"], "repeat": rec["repeat"],
                            "first_repeat": base["repeat"],
                            "changed": {k: [base["calls"].get(k, 0), rec["calls"].get(k, 0)]
                                        for k in keys}})
    return changes


def round_seconds(ledger: Ledger, label: str, key: str) -> float:
    return sum(r[key] for r in ledger.records if r["run"] == label)


def traced_run(args, workload: Workload, env: dict) -> dict:
    tracer = Tracer()
    # The reference scales the round-0 times that give the overhead.
    ledger = Ledger(tracer, Reference())
    tracer.install()
    try:
        workload.setup()
        ledger.set_run("probe")
        workload.probes(ledger)
        deadline = time.perf_counter() + args.seconds
        # Per-layer metrics cover set-up, probes and the first round 0.  Round
        # 0 then runs untraced and traced in turn, and the overhead is the
        # median of the traced-minus-untraced differences.
        pairs = []
        for i in range(OVERHEAD_PAIRS):
            traced_label = "round0" if i == 0 else f"round0-again{i}"
            if i > 0:
                tracer.install()
            run_rounds(workload, ledger, 0.0, min_rounds=1, label=traced_label)
            if i == 0:
                snapshot = tracer.snapshot()
            tracer.restore()
            run_rounds(workload, ledger, 0.0, min_rounds=1, label=f"round0-untraced{i}")
            pairs.append({key: {"traced_round_s": round_seconds(ledger, traced_label, key),
                                "untraced_round_s": round_seconds(ledger, f"round0-untraced{i}",
                                                                  key)}
                          for key in ("scaled_seconds", "seconds")})
        overhead = statistics.median(p["scaled_seconds"]["traced_round_s"]
                                     - p["scaled_seconds"]["untraced_round_s"] for p in pairs)
        # Later rounds only add per-operation records, so that a repeat
        # served by a cross-call cache shows as a change in its call counts.
        tracer.install()
        run_rounds(workload, ledger, deadline, first=1, min_rounds=0)
    finally:
        tracer.restore()
    metrics = layer_metrics(snapshot, overhead)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "environment": env,
        "overhead": {"overhead_s": overhead, "pairs": pairs},
        "per_layer": {k: v["value"] for k, v in metrics.items()},
        "scaling": scaling_records(ledger.records),
        "repeat_changes": repeat_changes(ledger.records),
        "operations": ledger.records,
        "known_failures": ledger.known_failures,
        "spans": tracer.spans_json(),
    }
    trace_path.write_text(json.dumps(doc))
    repeats = Counter(r["op"] for r in ledger.records if "calls" in r)
    print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT)),
                      "spans": len(doc["spans"]), "overhead": doc["overhead"],
                      "traced_repeats": sum(n - 1 for n in repeats.values()),
                      "known_failures": [f["op"] for f in ledger.known_failures],
                      "repeat_changes": doc["repeat_changes"],
                      "scaling": [{k: v for k, v in rec.items()
                                   if k not in ("calls", "totals")} for rec in doc["scaling"]]}))
    return {"ledger": ledger, "metrics": metrics}


def untraced_run(args, workload: Workload, env: dict) -> dict:
    ledger = Ledger(reference=Reference())
    started = time.perf_counter()
    workload.setup()
    setup_inproc = time.perf_counter() - started
    setup_samples = measure_setup(args, ledger)
    ledger.set_run("probe")
    probed = workload.probes(ledger)
    samples, rounds = run_rounds(workload, ledger, time.perf_counter() + args.seconds)
    for name, values in probed.items():
        samples.setdefault(name, []).extend(values)
    missing = [name for name in [*ROLES[args.workload].values(), "round_s"] if not samples.get(name)]
    if missing:
        raise RuntimeError(f"no successful operation for {', '.join(missing)}: "
                           f"{(ledger.errors + ledger.mismatches)[:3]}")
    metrics = e2e_metrics(args.workload, samples, setup_samples)
    named = {"setup_s": {"unit": "s", **summarize(setup_samples)},
             "failed_share": {"unit": "ratio", **ledger.failed_share},
             "peak_rss_mb": {"unit": "MB", "value": metrics["peak_rss_mb"]["value"]},
             "round_s": {"unit": "s", **summarize(samples["round_s"])}}
    for name, unit in NAMED[args.workload].items():
        if samples.get(name):
            named[name] = {"unit": unit, **summarize(samples[name])}
    for name, info in named.items():
        shown = info.get("median", info.get("value"))
        print(f"{args.workload:>10} {name:<24} {shown:>14.6g} {info['unit']:<6}"
              f" samples={info.get('samples', 1)}")
    print(json.dumps({"report": named, "roles": ROLES[args.workload], "rounds": rounds,
                      "host_speed": summarize(ledger.speeds),
                      "setup_inprocess_s": setup_inproc,
                      "known_failures": [f["op"] for f in ledger.known_failures],
                      "errors": ledger.errors, "mismatches": ledger.mismatches,
                      "environment": env}))
    return {"ledger": ledger, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        program = load_program()
    except MissingProgram as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            WORKLOAD_CLASSES[args.workload](program, args.seed, workdir, None).setup()
            print("ready", flush=True)
            return 0
        golden = json.loads(GOLDEN.read_text())
        workload = WORKLOAD_CLASSES[args.workload](program, args.seed, workdir, golden)
        env = environment(args)
        result = (traced_run if args.trace else untraced_run)(args, workload, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = result["ledger"]
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
