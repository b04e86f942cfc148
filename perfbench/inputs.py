"""Seeded inputs of the benchmark workloads.

Everything the program sees is made here from the workload seed: which
bond legs the generated ``722`` chains use, which Monte Carlo seeds the
decode jobs get, and which channel strengths the decision tables use.
Round ``r``'s inputs depend only on (workload, seed, r), not on how many
rounds ran before it.  The menus are small on purpose: every value they can
produce has a golden output in ``golden.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Shipped network files and the registry entry each one must reproduce.
NETWORKS = (
    ("722_selftrace.json", "722-traced"),
    ("812_from_711.json", "812"),
    ("second_713_from_blocks.json", "second-713"),
    ("steane_xp_from_blocks.json", "steane-xp"),
)

# Bond menu for the 722 chains: (leg on copy i, leg on copy i + 1).  A
# three-copy chain takes any two bonds: the legs a bond uses on copy i + 1
# (4, 5, 6) never meet the legs the next bond uses on that copy (1, 2, 3),
# so no leg is bonded twice.  The menu is small so that one run cycles
# through most of it, which keeps the run's median from depending on which
# chains the seed happened to draw.
CHAIN_BONDS = ((2, 4), (3, 5), (1, 6))

MC_CODE = "steane-xp"
MC_CHANNEL = "depolarizing:0.01"
MC_STRENGTH = 0.01
# The job passes no --shots, as a user's ``xplego decode`` would: this is
# the CLI default, which the report's shot count is checked against.
MC_SHOTS = 1000
MC_MODES = ("exact", "twirl")
# Monte Carlo seeds with golden failures/per_syndrome, a menu per mode so
# that no two jobs of a run share a seed.  A job's time depends on its seed,
# because each new syndrome costs one ML decode (19 to 25 per golden job).
# So a run takes the menu in a seed-shuffled order, one seed per round, and
# every run times nearly the same jobs.  Rounds beyond the menu get fresh seeds, at
# least FRESH_SEED_BASE, which never meet a golden one.
GOLDEN_MC_SEEDS = {"exact": tuple(range(1, 11)), "twirl": tuple(range(101, 111))}
FRESH_SEED_BASE = 10 ** 6

# Enumerator inputs: 10-qubit tensor-product codes that succeed today, and
# the two that exit 1 with the MacWilliams defect (kept on purpose).
TENSOR_CODES = (("steane-xp", "ghz"), ("second-713", "ghz"))
KNOWN_DEFECT_CODES = (("722", "hadamard"), ("722-traced", "722-traced"))
KNOWN_DEFECT_MESSAGE = "violate the MacWilliams transform"
SMALL_CODE_MAX_QUBITS = 8

TABLE_CODE = "steane-xp"
TABLE_CHANNELS = ("depolarizing", "damping")
DEPOLARIZING_STRENGTHS = (0.01, 0.03, 0.05, 0.1)
DAMPING_STRENGTHS = (0.05, 0.1, 0.2, 0.3)


def chain_key(bonds) -> str:
    """Stable name of a chain: its copy count and bond legs."""
    legs = ",".join(f"{a}-{b}" for a, b in bonds)
    return f"chain{len(bonds) + 1}:{legs}"


def chain_network(bonds) -> dict:
    """Network file chaining len(bonds) + 1 copies of 722, one bond per pair."""
    copies = len(bonds) + 1
    return {
        "legos": [{"name": "722"} for _ in range(copies)],
        "bonds": [[i, a, i + 1, b] for i, (a, b) in enumerate(bonds)],
    }


def chain14_menu() -> list[tuple]:
    return [(bond,) for bond in CHAIN_BONDS]


def chain21_menu() -> list[tuple]:
    return [(first, second) for first in CHAIN_BONDS for second in CHAIN_BONDS]


def tensor_key(a: str, b: str) -> str:
    return f"{a}*{b}"


def lego_round(seed: int, r: int) -> dict:
    """Round r takes the next chain of a seed-shuffled cycle through each menu."""
    picks = {}
    for kind, menu in (("chain14", chain14_menu()), ("chain21", chain21_menu())):
        order = random.Random(f"lego:{kind}:{seed}").sample(menu, len(menu))
        picks[kind] = order[r % len(order)]
    return picks


def decode_argv(mode: str, mc_seed: int) -> list[str]:
    """One Monte Carlo decode job, as its command line."""
    return ["decode", "--code", MC_CODE, "--channel", MC_CHANNEL,
            "--seed", str(mc_seed), "--mode", mode]


def montecarlo_round(seed: int, r: int) -> dict:
    """Decode-job seeds: a seed-shuffled pass over the golden menu, then
    fresh and distinct ones."""
    size = len(GOLDEN_MC_SEEDS[MC_MODES[0]])
    if r < size:
        order = random.Random(f"montecarlo:{seed}").sample(range(size), size)
        return {mode: GOLDEN_MC_SEEDS[mode][order[r]] for mode in MC_MODES}
    base = FRESH_SEED_BASE + random.Random(f"montecarlo:fresh:{seed}").randrange(10 ** 9)
    return {mode: base + len(MC_MODES) * r + i for i, mode in enumerate(MC_MODES)}


def analysis_round(seed: int, r: int) -> dict:
    """Every round builds the table under both channels, each with a drawn
    strength."""
    rng = random.Random(f"analysis:{seed}:{r}")
    strengths = {"depolarizing": DEPOLARIZING_STRENGTHS, "damping": DAMPING_STRENGTHS}
    return {channel: rng.choice(strengths[channel]) for channel in TABLE_CHANNELS}


def write_chain_files(directory: Path) -> dict[str, Path]:
    """Every chain the lego menu can draw, as network files."""
    paths = {}
    for bonds in chain14_menu() + chain21_menu():
        key = chain_key(bonds)
        path = directory / (key.replace(":", "_").replace(",", "_") + ".json")
        path.write_text(json.dumps(chain_network(bonds)))
        paths[key] = path
    return paths


def write_tensor_codes(directory: Path) -> dict[str, Path]:
    """Check-matrix files of the tensor-product enumerator inputs."""
    from xplego.code_structure import canonical_form
    from xplego.lego import lego_from_group, tensor_product
    from xplego.registry import group_to_json, lookup

    paths = {}
    for a, b in TENSOR_CODES + KNOWN_DEFECT_CODES:
        legos = [lego_from_group(canonical_form(lookup(name).group)) for name in (a, b)]
        joined = tensor_product(*legos)
        path = directory / f"tensor_{a}_{b}.json"
        path.write_text(json.dumps(group_to_json(joined.group, joined.designation)))
        paths[tensor_key(a, b)] = path
    return paths
