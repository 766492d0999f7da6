"""The benchmark's workloads: seeded `alphadet verify` argv and the report
each one must produce.

There are DIGEST_SLOTS input slots per workload; a slot picks the
program's inputs through a hash.  The i-th suite process of a run with
seed s uses slot (s + i) mod DIGEST_SLOTS, so the same seed always gives the
same inputs, and a run's median spans several inputs rather than one.
Reports are gated against digests recorded per (workload, slot) in
digests.json; record_digests.py rewrites that file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

DIGEST_SLOTS = 16

CHI_SAMPLES = 12
THEOREM_TRIALS = 16
ZSF_SAMPLES = 64
OMEGA_WEIGHTS = 22  # partitions of kn = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case_count: int
    argv: Callable[[int], list[str]]  # slot-derived u64 -> suite argv


def _chi(u: int) -> list[str]:
    return ["chi", "--k", "2", "--n", "4", "--samples", str(CHI_SAMPLES), "--seed", str(u)]


def _omega(u: int) -> list[str]:
    images = list(range(1, 9))
    random.Random(u).shuffle(images)
    perm = ",".join(map(str, images))
    return ["omega", "--k", "2", "--n", "4", "--perm", perm, "--seed", "0"]


def _theorem(u: int) -> list[str]:
    return ["theorem", "--k", "2", "--n", "3", "--trials", str(THEOREM_TRIALS), "--seed", str(u)]


def _zsf(u: int) -> list[str]:
    return ["zsf", "--k", "2", "--n", "4", "--samples", str(ZSF_SAMPLES), "--seed", str(u)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chi-sampled",
            "adet2_structured on its singleton branch (mu = 1^8) is nearly all the time; "
            "about 22 cycle types of g recur, so a class-keyed kernel has reuse",
            CHI_SAMPLES,
            _chi,
        ),
        Workload(
            "omega-weights",
            "adet2_structured on its coset branch with a new mu per call and one fixed g, "
            "so a class-keyed cache gets no reuse; also subgroup_averaged_character",
            OMEGA_WEIGHTS,
            _omega,
        ),
        Workload(
            "wreath-theorem",
            "the paper's main identity: adet_poly on dense 6x6 integer matrices, "
            "wreath_average_poly grouping and QPoly sums; no two-parameter work",
            THEOREM_TRIALS,
            _theorem,
        ),
        Workload(
            "zsf-sampled",
            "adet_at on sparse 0/1 8x8 inflated replicators, half of them repeated; "
            "the only user of det_power_coeff and double_coset_index",
            ZSF_SAMPLES,
            _zsf,
        ),
    )
}


def slot_of(seed: int, index: int) -> int:
    """Input slot of the index-th suite process of a run."""
    return (seed + index) % DIGEST_SLOTS


def suite_argv(workload: Workload, slot: int) -> list[str]:
    """The `alphadet` argv for an input slot, serial and without --json."""
    digest = hashlib.sha256(f"{workload.name}:{slot}".encode()).digest()
    u = int.from_bytes(digest[:8], "big")
    return ["verify", *workload.argv(u), "--workers", "1"]
