"""The machine's current speed, measured with a fixed pure-Python reference
unit that uses no alphadet code.

child.py's setup probes time a few units after their import; a suite
process times one unit every PERIOD_S seconds on a side thread while the
suite runs (SpeedSampler).  Every unit runs with the cyclic garbage
collector off, so no collection inside it walks alphadet's heap, and with
the thread switch interval above a unit's length, so the side thread runs
a unit without handing the interpreter back to the suite half way.
"""

import gc
import itertools
import sys
import threading
import time
from fractions import Fraction

PERIOD_S = 0.2
SWITCH_INTERVAL_S = 0.05

_G = (2, 0, 1, 4, 3, 5)
_ROWS = [[(3 * i + 5 * j) % 19 - 9 or 1 for j in range(6)] for i in range(6)]
_SPARSE = [[1 if i // 2 == j // 2 or i == (j + 3) % 7 else 0 for j in range(7)] for i in range(7)]


def _compose_and_count() -> dict:
    """Compose every permutation of S_6 with a fixed one; bucket the
    products by cycle count."""
    counts: dict = {}
    for p in itertools.permutations(range(6)):
        q = tuple(_G[p[i]] for i in range(6))
        seen = bytearray(6)
        cycles = 0
        for i in range(6):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = 1
                    j = q[j]
        counts[cycles] = counts.get(cycles, 0) + 1
    return counts


def _row_products() -> list[int]:
    """Integer products of a 6x6 matrix along every permutation."""
    acc = [0] * 6
    for p in itertools.permutations(range(6)):
        prod = 1
        for j in range(6):
            prod *= _ROWS[p[j]][j]
        acc[p[0]] += prod
    return acc


def _sparse_scan() -> int:
    """Products of a sparse 0/1 7x7 matrix along every permutation of S_7,
    abandoned at the first zero factor."""
    nonzero = 0
    for p in itertools.permutations(range(7)):
        for j in range(7):
            if not _SPARSE[p[j]][j]:
                break
        else:
            nonzero += 1
    return nonzero


def _fraction_sum() -> Fraction:
    """A sum of Fraction products, as in the package's exact arithmetic."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 - 3, i) * Fraction(i, 5)
    return total


def reference_unit_s() -> float:
    """Wall seconds of one reference unit: the four kinds of work the
    package's kernels do, in about equal shares of time.  A machine slowed
    by its neighbours slows these kinds unequally, and the mix tracks the
    four workloads better than any one kind alone.  Wall time, like the
    verdict time, includes the time the VM's CPU is taken by the host."""
    t0 = time.perf_counter()
    _compose_and_count()
    _sparse_scan()
    for _ in range(4):
        _row_products()
    for _ in range(3):
        _fraction_sum()
    return time.perf_counter() - t0


def timed_units(count: int) -> float:
    """Mean wall seconds of `count` reference units, timed with the cyclic
    garbage collector off."""
    gc.disable()
    try:
        return sum(reference_unit_s() for _ in range(count)) / count
    finally:
        gc.enable()


class SpeedSampler:
    """Times a reference unit every PERIOD_S seconds on a side thread.
    A unit takes about 7 ms, so the measured work loses about 3% of the
    interpreter to it, the same share on every version of the package."""

    def __enter__(self):
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append(timed_units(1))

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else timed_units(1)
