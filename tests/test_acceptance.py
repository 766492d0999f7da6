"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every assertion is exact (zero tolerance); the stated wall-clock budgets are
asserted where the criteria carry one.  Run with `pytest -s` to see the
per-criterion lines as they complete.
"""

import contextlib
import io
import re
import time
from fractions import Fraction as F
from math import factorial

import pytest

from alphadet.adet import adet2_structured, adet_poly
from alphadet.characters import character, immanant
from alphadet.cli import main
from alphadet.matrices import PermutedBlockOnes
from alphadet.partitions import content_poly, num_standard_tableaux, partitions_of
from alphadet.perms import Perm, enumerate_perms
from alphadet.polynomials import QPoly
from alphadet.randmat import SplitMix64, random_matrix, random_perm
from alphadet.verify import (
    verify_chi,
    verify_omega,
    verify_fourier_jm,
    verify_stanley,
    verify_theorem,
    verify_weak_alternating,
    verify_zsf,
)

from test_adet import _adet2_naive, _dense

THEOREM_GRID = [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)]

_oracle_gate_passed = False


def _line(number: int, label: str, status: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {number:>2} {label}: {status}{suffix}")


def test_criterion_01_main_averaging_identity():
    t0 = time.monotonic()
    for k, n in THEOREM_GRID:
        report = verify_theorem(k, n, trials=5, seed=1000 + 10 * k + n)
        assert report.passed, report.to_json()
    elapsed = time.monotonic() - t0
    _line(1, "main averaging identity, 5 matrices per (k, n)", "PASS", elapsed)
    assert elapsed < 60.0


def _weighted_average_tables(n: int, seed: int):
    a = random_matrix(n, n, seed)
    polys = {g: adet_poly(a.permute_columns(g)) for g in enumerate_perms(n)}
    return a, polys


@pytest.mark.xfail(
    strict=True,
    reason="the variant with an extra standard-tableau-count factor in the "
    "constant is false for every shape with more than one standard tableau; "
    "the factor-free variant below is the identity that holds",
)
def test_criterion_02_character_weighted_average_with_tableau_factor():
    for n in (3, 4, 5):
        for seed in (21, 22, 23):
            a, polys = _weighted_average_tables(n, seed)
            for shape in partitions_of(n):
                lhs = QPoly.zero()
                for g, q in polys.items():
                    lhs = lhs + character(shape, g.cycle_type()) * q
                f = num_standard_tableaux(shape)
                stated = f * immanant(shape, a) * content_poly(shape)
                if lhs != stated:
                    _line(
                        2,
                        "character-weighted average (with tableau factor)",
                        f"FAIL at shape {shape}, size {n}",
                    )
                assert lhs == stated, (n, seed, shape)


def test_criterion_02_character_weighted_average_corrected():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        for seed in (21, 22, 23):
            a, polys = _weighted_average_tables(n, seed)
            for shape in partitions_of(n):
                lhs = QPoly.zero()
                for g, q in polys.items():
                    lhs = lhs + character(shape, g.cycle_type()) * q
                assert lhs == immanant(shape, a) * content_poly(shape), (n, seed, shape)
    elapsed = time.monotonic() - t0
    _line(2, "character-weighted average (corrected constant)", "PASS", elapsed)
    assert elapsed < 30.0


def test_criterion_03_expansion_and_jucys_murphy():
    t0 = time.monotonic()
    for n in range(1, 9):
        report = verify_fourier_jm(n, seed=0)
        assert report.passed, report.to_json()
        expected_cases = ["expansion"] + (["jucys-murphy"] if n <= 6 else [])
        assert [c.id for c in report.cases] == expected_cases
    elapsed = time.monotonic() - t0
    _line(3, "alpha-power expansion (n<=8) and JM product (n<=6)", "PASS", elapsed)
    assert elapsed < 60.0


def test_criterion_09_structured_oracle_gate():
    global _oracle_gate_passed
    t0 = time.monotonic()
    rng = SplitMix64(4242)
    points = [(F(-1, 2), F(1, 2)), (F(1, 3), F(-1, 4)), (F(-2), F(3, 7))]
    instances = 0
    while instances < 20:
        n = 3 + rng.below(3)  # sizes 3..5
        weights = partitions_of(n)
        g = random_perm(n, rng)
        mu = weights[rng.below(len(weights))]
        s = PermutedBlockOnes(g, mu)
        oracle = _adet2_naive(_dense(s))
        x, y = points[rng.below(len(points))]
        assert adet2_structured(s, x, y) == oracle.eval(x, y), (g, mu, x, y)
        instances += 1
    _oracle_gate_passed = True
    _line(9, "structured path equals naive oracle on 20 instances", "PASS",
          time.monotonic() - t0)


def test_criterion_04_rectangular_kostka_formula():
    assert _oracle_gate_passed, "oracle gate (criterion 9) must pass first"
    t0 = time.monotonic()
    for k, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        report = verify_omega(k, n, seed=0)
        assert report.passed, report.to_json()
        assert report.case_count == len(partitions_of(k * n))
    elapsed = time.monotonic() - t0
    _line(4, "rectangular Kostka formula vs tableau oracle, all weights", "PASS", elapsed)
    assert elapsed < 120.0


def test_criterion_05_rectangular_character_formula():
    assert _oracle_gate_passed, "oracle gate (criterion 9) must pass first"
    t0 = time.monotonic()
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        report = verify_chi(k, n, seed=0)
        assert report.passed
        assert report.case_count == factorial(k * n)
    sampled = verify_chi(2, 4, samples=200, seed=8)
    assert sampled.passed
    assert sampled.case_count == 200
    _line(5, "rectangular character formula, exhaustive + 200 samples at size 8",
          "PASS", time.monotonic() - t0)


def test_criterion_06_stanley_formula():
    t0 = time.monotonic()
    for k, n in [(2, 2), (2, 3), (3, 2)]:
        for m in range(1, 5):
            report = verify_stanley(k, n, m, seed=0)
            assert report.passed
            assert report.case_count == factorial(m)
    _line(6, "small-support character formula, all w with m <= 4", "PASS",
          time.monotonic() - t0)


def test_criterion_07_three_route_agreement():
    t0 = time.monotonic()
    report = verify_zsf(2, 2, seed=0)
    assert report.passed
    assert report.case_count == 24
    # the worked value along all three routes
    from alphadet.characters import subgroup_averaged_character
    from alphadet.adet import det_power_coeff, wrdet
    from alphadet.matrices import column_replicator
    from alphadet.perms import block_profile, double_coset_index

    g = Perm.from_cycles(4, [(2, 3)])
    assert subgroup_averaged_character((2, 2), (2, 2), g) == F(-1, 2)
    rep = column_replicator(2, 2)
    assert wrdet(rep.permute_rows(g), 2) / wrdet(rep, 2) == F(-1, 2)
    assert det_power_coeff(block_profile(g, 2, 2), 2) == -2
    assert double_coset_index(g, 2, 2) == 4
    _line(7, "three-route agreement for the diagonal average", "PASS",
          time.monotonic() - t0)


def test_criterion_08_vanishing_and_divisibility():
    t0 = time.monotonic()
    configs = [(5, 1, 10), (5, 2, 10), (6, 2, 10), (6, 3, 10), (7, 2, 5), (7, 3, 5)]
    dup_cases = div_cases = 0
    for size, k, trials in configs:
        report = verify_weak_alternating(size, k, trials, seed=size * 100 + k)
        assert report.passed, report.to_json()
        dup_cases += sum(1 for c in report.cases if c.id.startswith("dup"))
        div_cases += sum(1 for c in report.cases if c.id.startswith("div"))
    assert dup_cases == 50 and div_cases == 50
    _line(8, "50 vanishing and 50 divisibility cases at size <= 7", "PASS",
          time.monotonic() - t0)


def _report_bytes(argv: list[str], path) -> bytes:
    """The --json report of `alphadet verify` argv, its wall time masked."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", *argv, "--json", str(path)]) == 0, argv
    masked, count = re.subn(rb'"wall_time_s": [^,\n}]*', b'"wall_time_s": null', path.read_bytes())
    assert count == 1
    return masked


def test_criterion_10_determinism_and_parallelism(tmp_path):
    # at the CLI, which still takes --workers: every suite runs in one
    # process, so the flag must leave the report bytes as they are
    t0 = time.monotonic()
    argvs = [
        ["theorem", "--k", "2", "--n", "2", "--trials", "3", "--seed", "42"],
        ["omega", "--k", "2", "--n", "2", "--seed", "42"],
        ["chi", "--k", "2", "--n", "2", "--seed", "42"],
        ["stanley", "--k", "2", "--n", "2", "--m", "2", "--seed", "42"],
        ["zsf", "--k", "2", "--n", "2", "--seed", "42"],
        ["weak-alt", "--size", "5", "--k", "2", "--trials", "4", "--seed", "42"],
        ["fourier", "--size", "4", "--seed", "42"],
    ]
    path = tmp_path / "report.json"
    for argv in argvs:
        reference = _report_bytes([*argv, "--workers", "1"], path)
        for workers in ("1", "2", "8"):  # a fresh run at 1, then 2 and 8
            assert _report_bytes([*argv, "--workers", workers], path) == reference, (argv, workers)
    _line(10, "identical reports at 1/2/8 workers and across reruns", "PASS",
          time.monotonic() - t0)


def test_criterion_11_performance_floor():
    t0 = time.monotonic()
    poly = adet_poly(random_matrix(9, 9, 9999))
    adet_elapsed = time.monotonic() - t0
    assert poly.degree <= 8
    assert adet_elapsed < 30.0

    t0 = time.monotonic()
    report = verify_theorem(2, 3, trials=5, seed=777)
    theorem_elapsed = time.monotonic() - t0
    assert report.passed
    assert theorem_elapsed < 60.0
    _line(11, "9x9 alpha-determinant and size-6 averaging suite in budget",
          f"PASS (adet {adet_elapsed:.2f}s, suite {theorem_elapsed:.2f}s)")
