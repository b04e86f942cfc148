"""Outside-in layer tracer for the xplego benchmark.

The tracer replaces selected public functions of the xplego modules with
wrappers, in every module namespace that binds them (the package imports
names directly, so ``complete_lid`` lives in both ``code_structure`` and
``lego``).  A span wrapper records name, start, end, parent span and run
id; a count wrapper only counts calls, for functions so hot that a span
would distort the timing.  Spans stay in memory until the caller writes
them out.  ``restore`` puts every original object back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: its module, its name and how it is recorded."""

    module: str
    name: str
    spans: bool = True
    hook: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


def _howell_cols(tracer, args, kwargs, result):
    tracer.peak["ring_linalg.howell_form.max_cols"] = max(
        tracer.peak["ring_linalg.howell_form.max_cols"], args[0].cols)


def _solve_unsolved(tracer, args, kwargs, result):
    if result is None:
        tracer.totals["ring_linalg.solve_linear_mod.unsolved"] += 1


def _support_strings(tracer, args, kwargs, result):
    tracer.totals["code_structure.z_support.strings_scanned"] += 2 ** args[0].n
    tracer.totals["code_structure.z_support.support_strings"] += len(result)


def _trace_rows(tracer, args, kwargs, result):
    tracer.totals["lego.self_trace.rows_in"] += len(args[0].group.generators)
    tracer.totals["lego.self_trace.rows_out"] += len(result.group.generators)


def _transform_bytes(tracer, args, kwargs, result):
    tracer.totals["enumerator.pauli_transform.computed_bytes"] += (
        args[0].nbytes + result.nbytes)


def _ml_decode_shot(tracer, args, kwargs, result):
    # measure_syndrome runs once per shot, so its running count is the shot
    # index at which this syndrome was first decoded.
    tracer.decode_points.append(
        (tracer.calls["decoder.measure_syndrome"], tracer.calls["decoder.ml_decode"]))


TARGETS = (
    Target("ring_linalg", "howell_form", hook=_howell_cols),
    Target("ring_linalg", "solve_linear_mod", hook=_solve_unsolved),
    Target("ring_linalg", "kernel_mod"),
    Target("xp_algebra", "multiply", spans=False),
    Target("xp_algebra", "conjugate", spans=False),
    Target("code_structure", "z_support", hook=_support_strings),
    Target("code_structure", "codewords"),
    Target("code_structure", "orbit_decomposition"),
    Target("code_structure", "complete_lid"),
    Target("code_structure", "canonical_form"),
    Target("lego", "run_network"),
    Target("lego", "self_trace", hook=_trace_rows),
    Target("dense_oracle", "apply_operator"),
    Target("dense_oracle", "contract"),
    Target("dense_oracle", "xp_state_from_dense"),
    Target("dense_oracle", "projector"),
    Target("enumerator", "enumerators"),
    Target("enumerator", "pauli_transform", hook=_transform_bytes),
    Target("enumerator", "apply_channel"),
    Target("enumerator", "coset_scalars"),
    Target("enumerator", "biased_distance"),
    Target("decoder", "monte_carlo"),
    Target("decoder", "measure_syndrome"),
    Target("decoder", "ml_decode", hook=_ml_decode_shot),
    Target("decoder", "decoder_setup"),
    Target("registry", "registry"),
    Target("cli", "main"),
)


class Tracer:
    """Span stack, per-function call counts and self times for one process.

    ``self_s`` of a function is the time its spans cover minus the time
    covered by their child spans.  ``run`` labels the spans that follow, so
    spans of one operation share an identifier.
    """

    def __init__(self):
        self.run = "setup"
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.totals: Counter = Counter()
        self.peak: defaultdict = defaultdict(int)
        self.decode_points: list[tuple[int, int]] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every xplego module that binds it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "xplego" or name.startswith("xplego."))]
        for target in TARGETS:
            home = sys.modules[f"xplego.{target.module}"]
            original = getattr(home, target.name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original function the tracer replaced."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, target: Target, original):
        key = target.key
        hook = target.hook
        calls = self.calls

        if not target.spans:
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            counted.__wrapped__ = original
            return counted

        def traced(*args, **kwargs):
            calls[key] += 1
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[key] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[span_id] = (span_id, key, parent, self.run, start, end)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        traced.__wrapped__ = original
        return traced

    # -- readout ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters at this moment, for differencing around an operation."""
        return {"calls": Counter(self.calls), "self_s": dict(self.self_s),
                "totals": Counter(self.totals), "peak": dict(self.peak),
                "decode_points": len(self.decode_points)}

    def spans_json(self) -> list[dict]:
        return [{"id": s[0], "name": s[1], "parent": s[2], "run": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans if s is not None]
