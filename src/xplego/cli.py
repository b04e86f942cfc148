"""Command-line surface.

Subcommands: ``canonical`` (rewrite a check-matrix file), ``trace`` (run a
lego network), ``enumerate`` (weight polynomials and distance), ``decode``
(Monte Carlo decoding report), ``verify`` (oracle invariant suites), and
``show`` (pretty-print a matrix).  Exit codes: 0 success, 1 usage error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from .code_structure import (
    EmptyCodeError,
    XpGroup,
    canonical_form,
    codewords,
    counted_logicals,
    counting_check,
    r_z_generators,
)
from .decoder import (
    Channel,
    ChannelError,
    amplitude_damping,
    depolarizing,
    monte_carlo,
)
from .dense_oracle import (
    group_elements,
    projector,
    render_operator,
    stabilized_by,
    state_from_pairs,
    xp_state_from_dense,
)
from .enumerator import biased_distance, dense_enumerators, distance, enumerators
from .lego import run_network
from .registry import (
    UnknownCodeError,
    canonical_json,
    group_from_json,
    group_to_json,
    lookup,
    registry,
)


def _load_group(spec: str) -> tuple[XpGroup, tuple[str, ...]]:
    """A code by registry name, or a check-matrix JSON file path."""
    try:
        entry = lookup(spec)
        return entry.group, entry.designation
    except UnknownCodeError:
        pass
    try:
        with open(spec) as fh:
            return group_from_json(json.load(fh))
    except FileNotFoundError:
        raise UnknownCodeError(spec, sorted(registry()))


def _format_matrix(group: XpGroup) -> str:
    lines = [f"n={group.n} precision={group.precision} rows={len(group.generators)}"]
    for op in group.generators:
        xs = " ".join(str(v) for v in op.x)
        zs = " ".join(str(v) for v in op.z)
        lines.append(f"x: {xs} | z: {zs} | p: {op.phase}")
    return "\n".join(lines) + "\n"


def _cmd_show(args) -> int:
    group, _ = _load_group(args.code)
    sys.stdout.write(_format_matrix(canonical_form(group)))
    return 0


def _cmd_canonical(args) -> int:
    group, designation = _load_group(args.input)
    text = canonical_json(group, designation)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trace(args) -> int:
    with open(args.network) as fh:
        doc = json.load(fh)
    result = run_network(doc)
    # A zero contraction has no code to count, so neither check holds.
    logicals = (None if "empty-trace" in result.warnings
                else counted_logicals(result.group, result.blocks))
    report = {
        "matrix": group_to_json(result.group, result.designation),
        "counting_check": logicals is not None,
        "state_counting_check": logicals == 0,
        "warnings": list(result.warnings),
    }
    if result.dense is not None:
        certified = xp_state_from_dense(result.dense, result.precision) is not None
        report["xp_certified"] = certified
        if args.dense:
            shadow = []
            for e in range(result.dense.shape[0]):
                amp = result.dense[e]
                if abs(amp) > args.tolerance:
                    label = format(e, f"0{result.n}b") if result.n else ""
                    shadow.append([label, float(amp.real), float(amp.imag)])
            report["shadow"] = shadow
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    group, _ = _load_group(args.code)
    group = canonical_form(group)
    a, b = enumerators(group)
    sys.stdout.write(f"A = {a.format()}\n")
    sys.stdout.write(f"B = {b.format()}\n")
    sys.stdout.write(f"distance = {distance(a, b)}\n")
    if args.biased:
        sys.stdout.write(f"dZ = {biased_distance(group, 'Z')}\n")
        sys.stdout.write(f"dX = {biased_distance(group, 'X')}\n")
    if args.json:
        doc = {
            "A": [str(c) for c in a.coefficients],
            "B": [str(c) for c in b.coefficients],
            "distance": distance(a, b),
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def _parse_channel(spec: str) -> Channel:
    kind, _, value = spec.partition(":")
    if kind == "depolarizing":
        return depolarizing(float(value))
    if kind == "damping":
        return amplitude_damping(float(value))
    if kind == "kraus":
        with open(value) as fh:
            return Channel(_kraus_from_json(json.load(fh)))
    raise ValueError(f"unknown channel spec {spec!r}")


def _kraus_from_json(doc) -> tuple[np.ndarray, ...]:
    """Kraus operators from a list of 2x2 matrices of [re, im] pairs."""
    if not isinstance(doc, list) or not doc:
        raise ChannelError("a Kraus file holds a non-empty list of 2x2 matrices")

    def pair(entry) -> bool:
        return (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and abs(v) <= sys.float_info.max for v in entry))

    for k in doc:
        if not (isinstance(k, list) and len(k) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in k)):
            raise ChannelError("each Kraus operator must be a 2x2 matrix: two rows of two entries")
        if not all(pair(entry) for row in k for entry in row):
            raise ChannelError("each Kraus matrix entry must be a [re, im] pair of finite numbers")
    return tuple(np.array([[complex(*entry) for entry in row] for row in k]) for k in doc)


def _cmd_decode(args) -> int:
    group, _ = _load_group(args.code)
    channel = _parse_channel(args.channel)
    result = monte_carlo(canonical_form(group), channel, shots=args.shots,
                         seed=args.seed, mode=args.mode)
    report = {
        "rate": result.rate,
        "ci95": result.ci95,
        "shots": result.shots,
        "failures": result.failures,
        "per_syndrome": result.per_syndrome,
    }
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _verify_entry(name: str, tolerance: float, out) -> bool:
    entry = lookup(name)
    group = entry.group
    ok = True

    def check(label: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        out.write(f"  [{'ok' if passed else 'FAIL'}] {label}\n")

    canonical = canonical_form(group)
    check("canonical round-trip", canonical_form(canonical).generators == canonical.generators)
    doc = group_to_json(canonical, entry.designation)
    parsed, _ = group_from_json(json.loads(json.dumps(doc)))
    check("json round-trip", parsed.generators == canonical.generators)
    power_of_two = canonical.precision & (canonical.precision - 1) == 0
    if power_of_two:
        check("generator counting", counting_check(canonical))
    if canonical.n <= 10:
        pi = projector(canonical)
        scale = max(1.0, float(np.max(np.abs(pi))))
        check("projector idempotent", bool(np.max(np.abs(pi @ pi - pi)) < tolerance * 10 * scale))
        check("projector Hermitian", bool(np.max(np.abs(pi - pi.conj().T)) < tolerance * scale))
        check("canonicalization preserves projector",
              bool(np.max(np.abs(pi - projector(group))) < tolerance * 10))
        if power_of_two and canonical.precision % 2 == 0:
            rz = r_z_generators(canonical)
            pz_pauli = projector(XpGroup.from_generators(
                rz, n=canonical.n, precision=canonical.precision))
            diag = canonical.z_block
            pz_diag = projector(XpGroup.from_generators(
                diag, n=canonical.n, precision=canonical.precision))
            check("support projector match", bool(np.max(np.abs(pz_pauli - pz_diag)) < tolerance * 10))
        check("codewords stabilized", all(
            stabilized_by(canonical.generators,
                          state_from_pairs(cw, canonical.n, canonical.precision),
                          tol=tolerance * 10)
            for cw in codewords(canonical).entries))
        check("exact enumerators match the dense oracle",
              enumerators(canonical) == dense_enumerators(pi))
        try:
            elems = group_elements(canonical, limit=4096)
            avg = np.zeros((2 ** canonical.n,) * 2, dtype=complex)
            for op in elems:
                avg += render_operator(op)
            avg /= len(elems)
            check("group average equals projector",
                  bool(np.max(np.abs(avg - pi)) < tolerance * 10))
        except ValueError:
            pass
    return ok


def _cmd_verify(args) -> int:
    names = sorted(registry()) if args.code == "all" else [args.code]
    failed = []
    for name in names:
        sys.stdout.write(f"{name}\n")
        if not _verify_entry(name, args.tolerance, sys.stdout):
            failed.append(name)
    if failed:
        sys.stdout.write(f"verification failed: {', '.join(failed)}\n")
        return 2
    sys.stdout.write("all checks passed\n")
    return 0


def tolerance(text: str) -> float:
    """Type of ``--tolerance``: a finite float above 0 (argparse names it in errors)."""
    if not 0 < (value := float(text)) < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text!r}")
    return value


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xplego")
    parser.add_argument("--tolerance", type=tolerance, default=1e-9,
                        help="numeric tolerance for dense checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="pretty-print a check matrix")
    p.add_argument("code")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("canonical", help="canonicalize a check-matrix file")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("trace", help="contract a lego network file")
    p.add_argument("network")
    p.add_argument("--dense", action="store_true", help="emit the dense shadow")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enumerate", help="weight enumerators and distance")
    p.add_argument("code")
    p.add_argument("--biased", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("decode", help="Monte Carlo decoding report")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True,
                   help="depolarizing:P | damping:G | kraus:FILE")
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "twirl"), default="exact")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="run oracle invariant suites")
    p.add_argument("code", help="registry name, or 'all'")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UnknownCodeError, EmptyCodeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
