"""Kernel rows of the ROADMAP baseline table, re-measured in one fresh
process.  alphadet is imported inside `run`, so that run.py can read ROWS
without it.  Each row is the best of `repeats` timed calls, except the cold
character table, which is the first evaluation in the process.  Every row
also checks its result, against an independent computation where one is
cheap and against another route of the package otherwise.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

QPOLY_BATCH = 200

# (metric name, unit) in the order rows are reported
ROWS = [
    ("kernel.character.cold_ms", "ms"),
    ("kernel.character.warm_ms", "ms"),
    ("kernel.adet_poly.n9_ms", "ms"),
    ("kernel.adet2_poly.n6_ms", "ms"),
    ("kernel.adet2_structured.n8_mu1pow8_ms", "ms"),
    ("kernel.adet2_structured.n8_mu2pow4_ms", "ms"),
    ("kernel.adet2_structured.n8_mu4pow2_ms", "ms"),
    ("kernel.kostka_ssyt.shape2pow5_weight1pow10_ms", "ms"),
    ("kernel.qpoly.mul_us", "us"),
    ("kernel.qpoly.exact_div_us", "us"),
]


def _best_ms(repeats: int, fn):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best * 1e3, result


def _det(rows) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n):
                m[r][j] -= f * m[c][j]
    return det


def _permanent(rows) -> int:
    """Permanent by Ryser's inclusion-exclusion formula."""
    n = len(rows)
    total = 0
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        prod = 1
        for row in rows:
            prod *= sum(row[j] for j in cols)
        total += (-1) ** len(cols) * prod
    return (-1) ** n * total


def _class_size(rho) -> int:
    z = 1
    for part in set(rho):
        mult = rho.count(part)
        z *= part**mult * factorial(mult)
    return factorial(sum(rho)) // z


def run(seed: int, repeats: int) -> tuple[dict[str, float], list[str]]:
    """({metric name: value}, [problems]) for every row of ROWS."""
    from alphadet import (
        PermutedBlockOnes,
        Perm,
        QPoly,
        RatMatrix,
        adet2_poly,
        adet2_structured,
        adet_poly,
        character,
        content_poly_at,
        kostka_ssyt,
        num_standard_tableaux,
        partitions_of,
        subgroup_averaged_character,
    )

    rng = random.Random(seed)
    out: dict[str, float] = {}
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    # the character table of S_12: the first pass fills the
    # Murnaghan-Nakayama memo, later passes read it
    parts = partitions_of(12)
    table = [(shape, rho) for shape in parts for rho in parts]
    t0 = time.perf_counter()
    cold = [character(shape, rho) for shape, rho in table]
    out["kernel.character.cold_ms"] = (time.perf_counter() - t0) * 1e3
    out["kernel.character.warm_ms"], warm = _best_ms(
        repeats, lambda: [character(shape, rho) for shape, rho in table]
    )
    check(cold == warm, "character: warm table differs from cold")
    sizes = [_class_size(rho) for rho in parts]
    rows = [cold[i : i + len(parts)] for i in range(0, len(cold), len(parts))]
    check(
        all(sum(z * v * v for z, v in zip(sizes, row)) == factorial(12) for row in rows),
        "character: row orthogonality fails",
    )

    rows9 = [[rng.randint(-9, 9) for _ in range(9)] for _ in range(9)]
    out["kernel.adet_poly.n9_ms"], p9 = _best_ms(repeats, lambda: adet_poly(RatMatrix(rows9)))
    check(p9.eval(-1) == _det(rows9), "adet_poly n=9: value at -1 is not the determinant")
    check(p9.eval(1) == _permanent(rows9), "adet_poly n=9: value at 1 is not the permanent")

    a6 = RatMatrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
    out["kernel.adet2_poly.n6_ms"], p6 = _best_ms(repeats, lambda: adet2_poly(a6))
    single = adet_poly(a6)
    check(
        all(p6.coefficient(i, 0) == single.coefficient(i) for i in range(6)),
        "adet2_poly n=6: sigma = identity slice differs from adet_poly",
    )

    images = list(range(1, 9))
    rng.shuffle(images)
    g = Perm(images)
    k, n = 2, 4
    rect = (k,) * n
    f = num_standard_tableaux(rect)
    denom = content_poly_at((8,), Fraction(-1, 8))
    for label, mu in (("1pow8", (1,) * 8), ("2pow4", (2,) * 4), ("4pow2", (4, 4))):
        block = PermutedBlockOnes(g, mu)
        ms, value = _best_ms(
            repeats, lambda: adet2_structured(block, Fraction(-1, k), Fraction(1, n))
        )
        out[f"kernel.adet2_structured.n8_mu{label}_ms"] = ms
        mu_order = 1
        for part in mu:
            mu_order *= factorial(part)
        check(
            Fraction(f, mu_order) * value / denom == subgroup_averaged_character(rect, mu, g),
            f"adet2_structured mu={mu}: differs from the character average",
        )

    # the 2^5 rectangle has Catalan(5) = 42 standard tableaux
    out["kernel.kostka_ssyt.shape2pow5_weight1pow10_ms"], count = _best_ms(
        repeats, lambda: kostka_ssyt((2,) * 5, (1,) * 10)
    )
    check(count == 42, f"kostka_ssyt: {count} != 42")

    def rand_poly(degree):
        return QPoly(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(degree + 1))

    pairs = [(rand_poly(12), rand_poly(6) + QPoly.monomial(7)) for _ in range(QPOLY_BATCH)]
    ms, products = _best_ms(repeats, lambda: [p * q for p, q in pairs])
    out["kernel.qpoly.mul_us"] = ms * 1e3 / QPOLY_BATCH
    ms, quotients = _best_ms(
        repeats, lambda: [pq.exact_div(q) for pq, (_, q) in zip(products, pairs)]
    )
    out["kernel.qpoly.exact_div_us"] = ms * 1e3 / QPOLY_BATCH
    check(quotients == [p for p, _ in pairs], "QPoly: (p*q).exact_div(q) != p")
    return out, problems
