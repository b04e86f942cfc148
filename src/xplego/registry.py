"""Named check matrices: atomic tensors and the shipped example codes.

Entries carry the generator matrix in (x|z|p) row form, a per-leg
designation, and a short provenance note.  Atomic few-leg tensors are
the full symmetry groups of their states, derived from the phase tables,
so their generator lists are canonical by construction.  JSON (de)serialization of
check matrices lives here as well; the schema stores integers only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .code_structure import InvariantError, XpGroup, canonical_form, lid_from_phase_table
from .xp_algebra import XpOperator


class UnknownCodeError(KeyError):
    """Lookup failed; carries the candidate name list."""

    def __init__(self, name: str, candidates: Sequence[str]):
        super().__init__(name)
        self.name = name
        self.candidates = tuple(candidates)

    def __str__(self) -> str:
        return f"unknown code {self.name!r}; known names: {', '.join(self.candidates)}"


class MalformedMatrixError(ValueError):
    """A check-matrix document does not follow the JSON schema."""


@dataclass(frozen=True)
class CodeRegistryEntry:
    name: str
    group: XpGroup
    designation: tuple[str, ...]
    note: str


def group_from_rows(rows: Sequence[tuple[Sequence[int], Sequence[int], int]],
                    n: int, precision: int) -> XpGroup:
    gens = tuple(XpOperator(precision, tuple(x), tuple(z), p) for x, z, p in rows)
    return XpGroup(precision, n, gens)


def _entry_from_rows(name: str, rows, n: int, precision: int, designation: str, note: str,
                     ) -> CodeRegistryEntry:
    return CodeRegistryEntry(name, group_from_rows(rows, n, precision),
                             tuple(designation), note)


def _entry_from_state(name: str, pairs, n: int, precision: int, note: str) -> CodeRegistryEntry:
    group = lid_from_phase_table(pairs, n, precision)
    if group is None:
        raise InvariantError(f"registry state {name} is not XP")
    return CodeRegistryEntry(name, group, ("P",) * n, note)


# Check matrix of the seven-qubit error-detecting code at precision 8 and
# its printed five-qubit self-trace.
_ROWS_722 = [
    ((1, 1, 1, 0, 0, 0, 0), (0, 0, 7, 0, 0, 0, 0), 9),
    ((0, 0, 0, 1, 1, 1, 1), (0, 0, 0, 1, 2, 3, 4), 14),
    ((0, 0, 0, 0, 0, 0, 0), (1, 0, 7, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 1, 7, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 4, 4, 4, 4), 8),
]

_ROWS_722_TRACED = [
    ((1, 0, 0, 0, 0), (7, 0, 0, 0, 0), 9),
    ((0, 1, 1, 1, 1), (0, 1, 2, 3, 4), 14),
    ((0, 0, 0, 0, 0), (0, 4, 4, 4, 4), 8),
]

# Six-leg building-block states at precision 8 for the two seven-qubit
# distance-3 constructions, and the resulting codes.
_ROWS_LEGO6_A = [
    ((1, 0, 0, 1, 1, 1), (0, 0, 0, 0, 0, 0), 0),
    ((0, 1, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 1, 1, 1, 0), (0, 0, 3, 4, 0, 4), 1),
    ((0, 0, 0, 0, 0, 0), (4, 0, 0, 4, 4, 4), 0),
    ((0, 0, 0, 0, 0, 0), (0, 4, 0, 4, 4, 0), 0),
    ((0, 0, 0, 0, 0, 0), (0, 0, 4, 4, 0, 4), 0),
]

_ROWS_LEGO6_B = [
    ((1, 0, 0, 1, 1, 1), (2, 0, 0, 2, 6, 6), 0),
    ((0, 1, 0, 1, 0, 1), (0, 0, 0, 2, 0, 6), 0),
    ((0, 0, 1, 1, 1, 0), (0, 0, 3, 6, 6, 4), 1),
    ((0, 0, 0, 0, 0, 0), (4, 0, 0, 4, 4, 4), 0),
    ((0, 0, 0, 0, 0, 0), (0, 4, 0, 4, 4, 0), 0),
    ((0, 0, 0, 0, 0, 0), (0, 0, 4, 4, 0, 4), 0),
]

_ROWS_STEANE_XP = [
    ((1, 0, 1, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 1, 1, 0, 0, 1, 1), (0, 3, 4, 0, 0, 3, 4), 2),
    ((0, 0, 0, 1, 1, 1, 1), (0, 0, 0, 0, 0, 7, 0), 1),
    ((0, 0, 0, 0, 0, 0, 0), (4, 0, 4, 0, 4, 0, 4), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 4, 4, 0, 0, 4, 4), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 4, 4, 4, 4), 0),
]

_ROWS_SECOND_713 = [
    ((1, 0, 1, 0, 1, 0, 1), (0, 0, 2, 0, 0, 4, 6), 0),
    ((0, 1, 1, 0, 0, 1, 1), (0, 3, 6, 0, 4, 3, 2), 2),
    ((0, 0, 0, 1, 1, 1, 1), (0, 0, 0, 2, 0, 7, 2), 13),
    ((0, 0, 0, 0, 0, 0, 0), (4, 0, 4, 0, 4, 0, 4), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 4, 4, 0, 0, 4, 4), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 4, 4, 4, 4), 0),
]

# Distance-one seven-qubit code with transversal T, and the eight-qubit
# error-detecting extension; both are Pauli codes written at precision 2.
_ROWS_711 = [
    ((1, 1, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 0, 1, 1, 1, 1), (0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 1, 0, 1), 2),
    ((0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0, 1), 0),
    ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0), 2),
    ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1), 2),
]

_ROWS_812 = [
    ((1, 1, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 1, 1, 1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 1, 1, 1), 2),
    ((0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 1, 1, 1), 0),
    ((0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0), 2),
    ((0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0), 2),
]

_STEANE_SUPPORTS = [
    (1, 0, 1, 0, 1, 0, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
]

_ROWS_STEANE = [((s), (0,) * 7, 0) for s in _STEANE_SUPPORTS] + [
    ((0,) * 7, s, 0) for s in _STEANE_SUPPORTS
]

_ROWS_422 = [
    ((1, 1, 1, 1), (0, 0, 0, 0), 0),
    ((0, 0, 0, 0), (1, 1, 1, 1), 0),
]


def _rm15_rows():
    """[[15,1,3]] punctured Reed-Muller code: qubits are the nonzero
    four-bit points; X checks from the linear forms, Z checks from the
    linear and quadratic forms."""
    points = list(range(1, 16))
    lin = [[(p >> a) & 1 for p in points] for a in range(4)]
    rows = [(tuple(v), (0,) * 15, 0) for v in lin]
    zvecs = [tuple(v) for v in lin]
    for a in range(4):
        for b in range(a + 1, 4):
            zvecs.append(tuple(((p >> a) & 1) * ((p >> b) & 1) for p in points))
    rows += [((0,) * 15, v, 0) for v in zvecs]
    return rows


def atomic_legos(precision: int = 8) -> list[CodeRegistryEntry]:
    """The atomic tensor set at a chosen precision.

    Contains the single-qubit |0> and magic tensors, the two-leg Hadamard
    and phase-gate tensors, the repetition tensors, and the two-qubit
    repetition codes; fusing these reaches every state the formalism
    describes at this precision.
    """
    minus = precision  # phase exponent of -1
    entries = [
        _entry_from_state("zero", [(0, 0)], 1, precision,
                          "single-qubit |0> tensor"),
        _entry_from_state("bell", [(0, 0), (3, 0)], 2, precision,
                          "two-qubit repetition state |00> + |11>"),
        _entry_from_state("hadamard", [(0, 0), (1, 0), (2, 0), (3, minus)], 2, precision,
                          "two-leg Hadamard tensor |00>+|01>+|10>-|11>"),
        _entry_from_state("phase", [(0, 0), (3, 2)], 2, precision,
                          "two-leg tensor of the elementary phase gate"),
        _entry_from_state("ghz", [(0, 0), (7, 0)], 3, precision,
                          "three-leg repetition tensor |000> + |111>"),
        _entry_from_state("xspider", [(0, 0), (3, 0), (5, 0), (6, 0)], 3, precision,
                          "three-leg even-parity tensor"),
        _entry_from_rows("rep-z", [((0, 0), (precision // 2, precision // 2), 0)],
                         2, precision, "PP",
                         "two-qubit repetition code, Z-type check"),
        _entry_from_rows("rep-x", [((1, 1), (0, 0), 0)], 2, precision, "PP",
                         "two-qubit repetition code, X-type check"),
    ]
    if precision % 4 == 0:
        entries.insert(1, _entry_from_state(
            "H-magic", [(0, 0), (1, precision // 4)], 1, precision,
            "single-qubit |0> + exp(i pi/4)|1> tensor"))
    return entries


@lru_cache(maxsize=1)
def registry() -> dict[str, CodeRegistryEntry]:
    entries = atomic_legos()
    entries += [
        _entry_from_rows("722", _ROWS_722, 7, 8, "P" * 7,
                         "seven-qubit error-detecting code, precision 8"),
        _entry_from_rows("722-traced", _ROWS_722_TRACED, 5, 8, "P" * 5,
                         "five-qubit self-trace of the seven-qubit code"),
        _entry_from_rows("lego6-steane", _ROWS_LEGO6_A, 6, 8, "P" * 6,
                         "six-leg block state for the first distance-3 build"),
        _entry_from_rows("lego6-second", _ROWS_LEGO6_B, 6, 8, "P" * 6,
                         "six-leg block state for the second distance-3 build"),
        _entry_from_rows("steane-xp", _ROWS_STEANE_XP, 7, 8, "P" * 7,
                         "seven-qubit distance-3 code locally equivalent to Steane"),
        _entry_from_rows("second-713", _ROWS_SECOND_713, 7, 8, "P" * 7,
                         "seven-qubit distance-3 code not locally equivalent to Steane"),
        _entry_from_rows("711", _ROWS_711, 7, 2, "P" * 7,
                         "seven-qubit code with transversal T and one weight-1 Z logical"),
        _entry_from_rows("812", _ROWS_812, 8, 2, "P" * 8,
                         "eight-qubit distance-2 code with a fault-tolerant T"),
        _entry_from_rows("steane", _ROWS_STEANE, 7, 2, "P" * 7,
                         "Steane code"),
        _entry_from_rows("422", _ROWS_422, 4, 2, "P" * 4,
                         "four-qubit error-detecting CSS code"),
        _entry_from_rows("rm15", _rm15_rows(), 15, 2, "P" * 15,
                         "punctured Reed-Muller code, exploration only"),
    ]
    return {e.name: e for e in entries}


def lookup(name: str) -> CodeRegistryEntry:
    reg = registry()
    if name not in reg:
        raise UnknownCodeError(name, sorted(reg))
    return reg[name]


# ---------------------------------------------------------------------------
# JSON check-matrix schema: integers only, trivially diffable.

def is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def group_to_json(group: XpGroup, designation: Sequence[str] | None = None) -> dict:
    des = list(designation) if designation is not None else ["P"] * group.n
    return {
        "n": group.n,
        "precision": group.precision,
        "designation": des,
        "rows": [
            {"x": list(op.x), "z": list(op.z), "p": op.phase}
            for op in group.generators
        ],
    }


def group_from_json(doc: dict) -> tuple[XpGroup, tuple[str, ...]]:
    """The group and designation of a check-matrix document.

    Raises MalformedMatrixError for any document off the schema.
    """
    try:
        n, precision = doc["n"], doc["precision"]
        rows = [(tuple(r["x"]), tuple(r["z"]), r["p"]) for r in doc["rows"]]
        entries = [n, precision] + [v for x, z, p in rows for v in (*x, *z, p)]
        if not all(is_int(v) for v in entries):
            raise TypeError("n, precision, x, z and p must hold integers only")
        group = XpGroup(precision, n, tuple(XpOperator(precision, x, z, p) for x, z, p in rows))
        designation = tuple(doc.get("designation", ["P"] * n))
        known = set(designation) <= {"P", "L"}
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMatrixError(f"malformed check matrix ({exc!r})") from exc
    if len(designation) != n:
        raise MalformedMatrixError("designation length does not match n")
    if not known:
        raise MalformedMatrixError("designation entries must be \"P\" or \"L\"")
    return group, designation


def dumps_group(group: XpGroup, designation: Sequence[str] | None = None) -> str:
    return json.dumps(group_to_json(group, designation), indent=2, sort_keys=True) + "\n"


def canonical_json(group: XpGroup, designation: Sequence[str] | None = None) -> str:
    return dumps_group(canonical_form(group), designation)
