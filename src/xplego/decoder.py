"""Two-round syndrome extraction and maximum-likelihood decoding.

The first round measures the diagonal Pauli checks derived from the code's
Z-support.  The second round measures the non-diagonal checks conjugated
by the first-round representative error; inside the measured sector these
behave as commuting Hermitian observables with unit square, so the usual
ancilla circuit semantics apply and the rounds are simulated as exact
projections.  A correction is chosen by maximizing the joint weight

    p(L, s) = (b_scalar + a_scalar) / (K (K + 1))

over a transversal basis of logical classes, with both scalars evaluated
through the coset trace machinery of the enumerator module.  A Monte Carlo
harness samples i.i.d. single-qubit channels and scores logical success.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .code_structure import (
    NonRegularError,
    XpGroup,
    _r_z_from_support,
    _support_bits,
    canonical_form,
    logical_basis,
)
from .dense_oracle import (
    PROJECTOR_MAX_QUBITS,
    _phase_exponents,
    operator_action,
    projector,
    state_from_pairs,
)
from .enumerator import PAULI_LIST, CosetTrace
from .xp_algebra import XpOperator, conjugate, inverse, multiply

TOL = 1e-9
# A syndrome outcome is definite when the other branch holds at most this
# share of the weight; a row may leave this share outside its sector.
MEASURE_TOL = 1e-7
# Amplitudes per Monte Carlo block: shots run max(1, MC_AMPLITUDES >> n) at a
# time as (B, 2^n) arrays, so 128 shots at n = 7 and 4 at n = 12.  Each block
# costs a fixed number of numpy passes, so its per-shot overhead falls as it
# grows; BENCH_mc_shots.json records shots per second against the block size.
MC_AMPLITUDES = 2 ** 14


class ChannelError(ValueError):
    """The Kraus list does not describe a trace-preserving channel."""


class NondeterministicMeasurementError(RuntimeError):
    """A measurement outcome was not definite and no sampler was supplied."""


class UnsupportedCodeError(ValueError):
    """Decoding needs a regular power-of-two-precision code with k = 1."""


@dataclass(frozen=True)
class Channel:
    """Single-qubit channel given by 2x2 Kraus operators."""

    kraus: tuple

    def __post_init__(self) -> None:
        total = np.zeros((2, 2), dtype=complex)
        for k in self.kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != (2, 2):
                raise ChannelError("Kraus operators must be 2x2")
            total += k.conj().T @ k
        if not np.max(np.abs(total - np.eye(2))) <= TOL:
            raise ChannelError("Kraus operators do not resolve the identity")


def depolarizing(p: float) -> Channel:
    if not 0 <= p <= 1:
        raise ChannelError("depolarizing strength must lie in [0, 1]")
    sq = np.sqrt
    return Channel((
        sq(1 - p) * PAULI_LIST[0],
        sq(p / 3) * PAULI_LIST[1],
        sq(p / 3) * PAULI_LIST[2],
        sq(p / 3) * PAULI_LIST[3],
    ))


def amplitude_damping(gamma: float) -> Channel:
    if not 0 <= gamma <= 1:
        raise ChannelError("damping strength must lie in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return Channel((k0, k1))


def pauli_process_coeffs(channel: Channel) -> np.ndarray:
    """4x4 pairing table k[P, P'] = sum_m c_{m,P} conj(c_{m,P'}).

    The c coefficients expand each Kraus operator in the Pauli basis.  The
    table is Hermitian and its diagonal sums to one for a trace-preserving
    channel; both facts are validated.
    """
    cs = []
    for k in channel.kraus:
        k = np.asarray(k, dtype=complex)
        cs.append([np.trace(p @ k) / 2.0 for p in PAULI_LIST])
    coeffs = np.zeros((4, 4), dtype=complex)
    for c in cs:
        coeffs += np.outer(c, np.conj(c))
    if np.max(np.abs(coeffs - coeffs.conj().T)) > TOL:
        raise ChannelError("pairing table is not Hermitian")
    if abs(np.trace(coeffs).real - 1.0) > TOL:
        raise ChannelError("channel is not trace preserving")
    return coeffs


@dataclass(frozen=True)
class Syndrome:
    s_z: tuple[int, ...]
    s_x: tuple[int, ...]


@dataclass(frozen=True)
class DecodeResult:
    chosen: str
    logical: XpOperator
    correction: XpOperator
    probabilities: dict


class DecoderSetup:
    """Precomputed structure for decoding one code."""

    def __init__(self, code: XpGroup):
        code = canonical_form(code)
        if code.n > PROJECTOR_MAX_QUBITS:
            raise UnsupportedCodeError(
                f"decoding is dense and capped at {PROJECTOR_MAX_QUBITS} qubits")
        if code.precision & (code.precision - 1):
            raise UnsupportedCodeError("precision must be a power of two")
        try:
            basis = logical_basis(code)
        except NonRegularError:
            raise UnsupportedCodeError("code is not regular") from None
        self.code = code
        self.n = code.n
        self.precision = code.precision
        self.k = len(basis.coords)
        self.r_z = _r_z_from_support(basis.table.strings, code.n, code.precision)
        self.x_checks = list(code.x_block)
        self.projector = projector(code)
        self.dimension = len(basis.table.orbits.e_m)
        # Entry (e, c): the Pauli check r_z[c] has eigenvalue w^N = -1 on string e.
        self._z_outcomes = np.array([_phase_exponents(op) == code.precision for op in self.r_z],
                                    dtype=bool).reshape(len(self.r_z), 2 ** code.n).T
        self._z_reps = _min_weight_reps(
            [[1 if z else 0 for z in op.z] for op in self.r_z], code.n)
        self._x_reps = _min_weight_reps(
            [list(op.x) for op in self.x_checks], code.n)
        # (channel key, CosetTrace) for the most recent channel only: the
        # context holds a 4^n complex array.
        self._coset_trace: tuple[tuple, CosetTrace] | None = None
        self.classes: list[tuple[str, XpOperator]] | None = None
        if self.k == 1:
            xbar = basis.x_logicals()[0]
            zbar = basis.z_logicals()[0]
            self.classes = [
                ("I", XpOperator.identity(code.n, code.precision)),
                ("X", xbar),
                ("Z", zbar),
                ("XZ", multiply(xbar, zbar)),
            ]
        self.codeword_states = [state_from_pairs(cw, code.n, code.precision)
                                for cw in basis.table.entries]

    def z_representative(self, s_z: Sequence[int]) -> XpOperator:
        bits = self._z_reps[tuple(s_z)]
        return XpOperator(self.precision, tuple(bits), (0,) * self.n, 0)

    def x_representative(self, s_x: Sequence[int]) -> XpOperator:
        bits = self._x_reps[tuple(s_x)]
        half = self.precision // 2
        return XpOperator(self.precision, (0,) * self.n,
                          tuple(half * b for b in bits), 0)

    def coset_trace(self, coeffs: np.ndarray) -> CosetTrace:
        """The coset trace context of this code under the channel ``coeffs``.

        Keyed by value, so an equal table built afresh reuses the context; a
        different channel replaces it.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        key = (coeffs.shape, coeffs.tobytes())
        cached = self._coset_trace
        if cached is None or cached[0] != key:
            cached = self._coset_trace = (key, CosetTrace(coeffs, self.projector))
        return cached[1]

    def sector_mask(self, s_z: Sequence[int]) -> np.ndarray:
        """The basis strings of the first-round sector ``s_z``, as a 2^n mask."""
        return np.all(self._z_outcomes == np.asarray(s_z, dtype=bool), axis=1)


def _min_weight_reps(rows: list[list[int]], n: int) -> dict[tuple[int, ...], list[int]]:
    """Minimum-weight binary representative for every GF(2) syndrome.

    ``rows`` holds the binary check patterns; the syndrome of a candidate
    vector v is (rows . v mod 2).  Candidates are scanned in weight order,
    so the stored representative is minimal (ties resolve to the smaller
    index, which is lexicographic on the packed bits).
    """
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    bits = _support_bits(np.arange(2 ** n), n).T
    syndromes = bits @ mat.T % 2
    weights = bits.sum(axis=1)
    order = np.argsort(weights, kind="stable")
    reps: dict[tuple[int, ...], list[int]] = {}
    for e in order:
        key = tuple(int(v) for v in syndromes[e])
        if key not in reps:
            reps[key] = [int(b) for b in bits[e]]
    return reps


# One setup: each holds 4^n-entry arrays, and a process decodes one code.
@lru_cache(maxsize=1)
def decoder_setup(code: XpGroup) -> DecoderSetup:
    return DecoderSetup(code)


class _Actions(dict):
    """Operator -> (phases, targets) of its sparse action, built on first use."""

    def __missing__(self, op: XpOperator) -> tuple[np.ndarray, np.ndarray]:
        action = self[op] = operator_action(op)
        return action


def _act(action: tuple[np.ndarray, np.ndarray], states: np.ndarray) -> np.ndarray:
    """An operator action applied to every row of a (B, 2^n) block."""
    phases, targets = action
    return (states * phases)[:, targets]


def _sqnorms(states: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a complex block."""
    flat = np.ascontiguousarray(states).view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _groups(bits: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Row indices of a bit table, grouped by row value."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, key in enumerate(map(tuple, bits.tolist())):
        groups.setdefault(key, []).append(row)
    return {key: np.array(rows) for key, rows in groups.items()}


def _collapse(states: np.ndarray, moved: np.ndarray,
              rngs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the two-outcome measurement (1 +- C)/2 on every row.

    ``moved`` holds C applied to each row; it is overwritten.  A definite
    outcome draws nothing; an undecided one takes one ``random()`` from its
    row's generator, or raises when that generator is None.  Each surviving
    branch keeps the norm of its incoming row, so repeated collapses do not
    shrink the working vectors.
    """
    plus = states + moved
    minus = np.subtract(states, moved, out=moved)
    scale = np.sqrt(_sqnorms(states))
    # The branches are plus/2 and minus/2; halving is exact, so it is folded
    # into their weights and into the final rescaling.
    wp, wm = _sqnorms(plus) / 4.0, _sqnorms(minus) / 4.0
    total = wp + wm
    if np.any(total <= MEASURE_TOL * scale ** 2):
        raise NondeterministicMeasurementError("state annihilated by the sector projector")
    zero_definite = wm / total <= MEASURE_TOL
    bits = ~zero_definite & (wp / total <= MEASURE_TOL)
    for row in np.flatnonzero(~zero_definite & ~bits):
        if rngs[row] is None:
            raise NondeterministicMeasurementError(
                "measurement outcome is not definite; decoding needs a definite sector")
        bits[row] = not rngs[row].random() < wp[row] / total[row]
    kept = plus
    kept[bits] = minus[bits]
    kept *= (scale / (2.0 * np.sqrt(np.where(bits, wm, wp))))[:, None]
    return bits, kept


class _Sectors(dict):
    """First-round sector -> (mask, moved-row coefficients), built on first use.

    Row c of the coefficients is the conjugated X check c, read as ``moved =
    states[:, targets_c] * coef[c]``: its phases at the targets, times the
    sector mask.  Conjugation by any XP operator (here the sector's X-type
    representative) keeps a check's X part, so every sector shares the
    check's targets.
    """

    def __init__(self, setup: DecoderSetup):
        super().__init__()
        self.setup = setup
        self.targets = [operator_action(op)[1] for op in setup.x_checks]

    def __missing__(self, s_z: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        mask = self.setup.sector_mask(s_z)
        e_sz = self.setup.z_representative(s_z)
        coef = np.zeros((len(self.targets), len(mask)), dtype=complex)
        for c, (op, targets) in enumerate(zip(self.setup.x_checks, self.targets)):
            coef[c] = operator_action(conjugate(e_sz, op))[0][targets] * mask
        entry = self[s_z] = (mask, coef)
        return entry


def _measure_block(setup: DecoderSetup, states: np.ndarray, rngs: Sequence,
                   actions: _Actions, sectors: _Sectors,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both syndrome rounds on a (B, 2^n) block, one generator per row.

    Returns the first- and second-round outcome bits, (B, |r_z|) and
    (B, |x_checks|), and the collapsed rows.  Each check is one collapse over
    the whole block.  In round two every row gathers the conjugated checks
    and the mask of its own first-round sector, and a row with weight outside
    that mask raises ``NondeterministicMeasurementError``.
    """
    if states.shape[1] != 2 ** setup.n:
        raise ValueError("state dimension does not match operator")
    s_z = np.zeros((len(states), len(setup.r_z)), dtype=np.int64)
    for c, op in enumerate(setup.r_z):
        # A diagonal check acts by its phases alone.
        s_z[:, c], states = _collapse(states, states * actions[op][0], rngs)
    codes = s_z @ (1 << np.arange(s_z.shape[1]))
    _, first, row_sector = np.unique(codes, return_index=True, return_inverse=True)
    tables = [sectors[tuple(s_z[row].tolist())] for row in first]
    masks = np.array([mask for mask, _ in tables])[row_sector]
    coefs = np.array([coef for _, coef in tables])
    drift = np.sqrt(_sqnorms(np.where(masks, 0, states)))
    if np.any(drift > MEASURE_TOL * np.maximum(np.sqrt(_sqnorms(states)), 1e-30)):
        raise NondeterministicMeasurementError("state is not supported on its sector")
    s_x = np.zeros((len(states), len(setup.x_checks)), dtype=np.int64)
    for c, targets in enumerate(sectors.targets):
        moved = states[:, targets]
        moved *= coefs[row_sector, c]
        s_x[:, c], states = _collapse(states, moved, rngs)
    return s_z, s_x, states


def measure_syndrome(state: np.ndarray, code: XpGroup, rng=None) -> tuple[Syndrome, np.ndarray]:
    """Two-round syndrome measurement; returns the collapsed state too.

    Round one measures the diagonal Pauli checks.  Round two measures the
    conjugated non-diagonal checks inside the first-round sector's mask, which
    is where the Hermitian unit-square structure guarantees binary outcomes.
    Outcomes that are not definite are sampled with ``rng`` or raise.
    """
    setup = decoder_setup(canonical_form(code))
    block = np.asarray(state, dtype=complex)[None, :]
    s_z, s_x, out = _measure_block(setup, block, [rng], _Actions(), _Sectors(setup))
    return Syndrome(tuple(s_z[0].tolist()), tuple(s_x[0].tolist())), out[0]


def extract_syndrome(state: np.ndarray, code: XpGroup) -> Syndrome:
    """Deterministic syndrome of a definite-sector corruption."""
    syndrome, _ = measure_syndrome(state, code, rng=None)
    return syndrome


def representative_errors(syndrome: Syndrome, code: XpGroup) -> tuple[XpOperator, XpOperator]:
    """Minimum-weight X-type and Z-type products with the given syndrome."""
    setup = decoder_setup(canonical_form(code))
    return setup.z_representative(syndrome.s_z), setup.x_representative(syndrome.s_x)


def _op_weight(op: XpOperator) -> int:
    return sum(1 for x, z in zip(op.x, op.z) if x or z)


def ml_decode(syndrome: Syndrome, coeffs: np.ndarray, code: XpGroup) -> DecodeResult:
    """Maximum-likelihood class choice for one syndrome.

    For each logical class L the residual operator E_sz E_sx L enters the
    two coset scalars, all four classes in one ``CosetTrace.scalar_pairs``
    call; the joint weight is their sum over K(K+1).  Ties go to the
    lower-weight logical, then to class order.

    Raises:
        ValueError: when a syndrome part does not hold one bit of 0 or 1
            per check.
        ChannelError: when ``coeffs`` is not a finite 4x4 pairing table.
    """
    setup = decoder_setup(canonical_form(code))
    if setup.classes is None:
        raise UnsupportedCodeError("maximum-likelihood classes need k = 1")
    for bits, checks, kind in ((syndrome.s_z, setup.r_z, "Z"),
                               (syndrome.s_x, setup.x_checks, "X")):
        if len(bits) != len(checks) or any(b not in (0, 1) for b in bits):
            raise ValueError(f"the {kind} syndrome must hold {len(checks)} bits of 0 or 1, "
                             f"got {tuple(bits)!r}")
    try:
        coeffs = np.asarray(coeffs, dtype=complex)
    except (TypeError, ValueError):
        coeffs = None
    if coeffs is None or coeffs.shape != (4, 4) or not np.all(np.isfinite(coeffs)):
        raise ChannelError("the pairing table must be a finite 4x4 array")
    base = multiply(setup.z_representative(syndrome.s_z),
                    setup.x_representative(syndrome.s_x))
    kdim = setup.dimension
    e_tildes = [multiply(base, logical) for _, logical in setup.classes]
    scalars = setup.coset_trace(coeffs).scalar_pairs(e_tildes)
    probabilities = {}
    scored = []
    for idx, ((name, logical), e_tilde, (a_scalar, b_scalar)) in enumerate(
            zip(setup.classes, e_tildes, scalars)):
        weight = (b_scalar.real + a_scalar.real) / (kdim * (kdim + 1))
        probabilities[name] = weight
        scored.append((-weight, _op_weight(logical), idx, name, logical, e_tilde))
    scored.sort()
    _, _, _, name, logical, e_tilde = scored[0]
    return DecodeResult(name, logical, inverse(e_tilde), probabilities)


@dataclass(frozen=True)
class MonteCarloResult:
    rate: float
    ci95: float
    shots: int
    failures: int
    per_syndrome: dict


def _twirl_noise(states: np.ndarray, picks: np.ndarray, setup: DecoderSetup,
                 actions: _Actions) -> np.ndarray:
    """Apply each row's Pauli picks, (B, n) in 0..3 for I, X, XZ, Z."""
    states = states.copy()
    half = setup.precision // 2
    for q in range(setup.n):
        for p in (1, 2, 3):
            rows = np.flatnonzero(picks[:, q] == p)
            if rows.size:
                op = XpOperator(
                    setup.precision,
                    tuple(1 if (q == i and p in (1, 2)) else 0 for i in range(setup.n)),
                    tuple(half if (q == i and p in (2, 3)) else 0 for i in range(setup.n)),
                    0)
                states[rows] = _act(actions[op], states[rows])
    return states


def _kraus_noise(states: np.ndarray, draws: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """Branch every row on each qubit in turn and keep one Kraus branch.

    On qubit q the weight of branch m is Tr[K_m^dag K_m rho_q], read from each
    row's 2x2 reduced density matrix rho_q with the Gram matrices made once,
    and clipped at 0.  One uniform draw per row and qubit, ``draws`` (B, n),
    picks a branch by the rule of ``Generator.choice``, and only the picked
    operator is applied.  Weights are normalized per row, so the rows are
    renormalized once, at the end.  The pass runs on the transposed block,
    so every per-row factor multiplies a contiguous axis.
    """
    count, dim = states.shape
    gram = np.einsum("mai,maj->mij", kraus.conj(), kraus)
    # (rho_00, rho_11, Re rho_10, Im rho_10) -> Tr[gram_m rho] for every m.
    to_weights = np.array([gram[:, 0, 0].real, gram[:, 1, 1].real,
                           2 * gram[:, 0, 1].real, -2 * gram[:, 0, 1].imag])
    rho = np.empty((count, 4))
    block = np.ascontiguousarray(states.T)
    for q in range(draws.shape[1]):
        t = block.reshape(2 ** q, 2, -1, count)
        low, high = t[:, 0], t[:, 1]
        for c, half in enumerate((low, high)):
            flat = half.view(float)
            rho[:, c] = np.einsum("ijk,ijk->k", flat, flat).reshape(count, 2).sum(axis=1)
        rho_10 = np.einsum("ijk,ijk->k", low.conj(), high)
        rho[:, 2], rho[:, 3] = rho_10.real, rho_10.imag
        weights = np.clip(rho @ to_weights, 0.0, None)
        op = kraus[_choice(weights / weights.sum(axis=1, keepdims=True), draws[:, q])]
        kept = np.empty_like(t)
        np.multiply(low, op[:, 0, 0], out=kept[:, 0])
        kept[:, 0] += high * op[:, 0, 1]
        np.multiply(low, op[:, 1, 0], out=kept[:, 1])
        kept[:, 1] += high * op[:, 1, 1]
        block = kept.reshape(dim, count)
    states = np.ascontiguousarray(block.T)
    states *= (1.0 / np.sqrt(_sqnorms(states)))[:, None]
    return states


def _choice(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Generator.choice(m, p=probs[..., :])`` given its uniform draws ``u``:
    the count of normalized cumulative weights at or below the draw."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return np.sum(cdf <= u[..., None], axis=-1)


def monte_carlo(code: XpGroup, channel: Channel, shots: int, seed: int,
                mode: str = "exact") -> MonteCarloResult:
    """Sampled logical error rate of the full decode-and-recover loop.

    Each shot prepares a random codeword superposition, corrupts it with
    the channel (exact Kraus branching, or its Pauli twirl), measures both
    syndrome rounds, applies the cached maximum-likelihood correction, and
    scores success when the recovered state matches the input up to a
    global phase.  Shots draw independent generators seeded by (seed,
    shot), so results do not depend on execution order: each generator
    gives ``normal(2K)`` for the amplitudes, ``random(n)`` for the noise
    picks, then one ``random()`` per undecided measurement in check order.
    Shots run max(1, ``MC_AMPLITUDES`` >> n) at a time as (B, 2^n) arrays;
    the result does not depend on the block size.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if mode not in ("exact", "twirl"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    code = canonical_form(code)
    setup = decoder_setup(code)
    if setup.classes is None:
        raise UnsupportedCodeError("the harness decodes k = 1 codes")
    coeffs = pauli_process_coeffs(channel)
    twirl_probs = np.clip(np.real(np.diag(coeffs)), 0.0, None)
    twirl_probs = twirl_probs / twirl_probs.sum()
    kraus = np.array([np.asarray(k, dtype=complex) for k in channel.kraus])
    basis = np.array([v / np.linalg.norm(v) for v in setup.codeword_states])
    actions, sectors = _Actions(), _Sectors(setup)
    corrections: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    per_syndrome: dict[tuple[int, ...], list[int]] = {}
    failures = 0
    n, r = setup.n, len(setup.r_z)
    block = max(1, MC_AMPLITUDES >> n)
    for start in range(0, shots, block):
        rngs = [np.random.default_rng([seed, shot])
                for shot in range(start, min(start + block, shots))]
        raw = np.array([rng.normal(size=2 * len(basis)) for rng in rngs])
        draws = np.array([rng.random(n) for rng in rngs])
        amps = raw[:, ::2] + 1j * raw[:, 1::2]
        amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
        prepared = sum(amps[:, j, None] * v for j, v in enumerate(basis))
        if mode == "twirl":
            states = _twirl_noise(prepared, _choice(twirl_probs, draws), setup, actions)
        else:
            states = _kraus_noise(prepared, draws, kraus)
        # The decodes below run with only the noisy block alive; the overlap
        # with the prepared state is read through the codeword basis.
        del prepared

        s_z, s_x, states = _measure_block(setup, states, rngs, actions, sectors)
        groups = _groups(np.concatenate([s_z, s_x], axis=1))
        for key, rows in groups.items():
            if key not in corrections:
                syndrome = Syndrome(key[:r], key[r:])
                corrections[key] = actions[ml_decode(syndrome, coeffs, code).correction]
            states[rows] = _act(corrections[key], states[rows])
        overlap = np.einsum("ij,ij->i", amps.conj(), states @ basis.conj().T)
        ok = np.abs(overlap) ** 2 / _sqnorms(states) >= 1.0 - 1e-9
        for key, rows in groups.items():
            failed = int(np.count_nonzero(~ok[rows]))
            tally = per_syndrome.setdefault(key, [0, 0])
            tally[0] += len(rows) - failed
            tally[1] += failed
            failures += failed

    rate = failures / shots
    ci95 = 1.96 * np.sqrt(max(rate * (1.0 - rate), 1e-12) / shots)
    stats = {"".join(map(str, k)): {"ok": v[0], "fail": v[1]}
             for k, v in sorted(per_syndrome.items())}
    return MonteCarloResult(rate, ci95, shots, failures, stats)
