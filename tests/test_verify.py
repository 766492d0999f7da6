import itertools
import json
import os
import types
from fractions import Fraction
from math import factorial

import pytest

import alphadet.adet as adet_module
import alphadet.characters as characters_module
import alphadet.matrices as matrices_module
import alphadet.partitions as partitions_module
import alphadet.perms as perms_module
import alphadet.randmat as randmat_module
import alphadet.verify as verify_module
from alphadet.adet import ADET_CAP, adet_structured, wrdet, wreath_average_poly
from alphadet.cli import main
from alphadet.errors import ShapeWeightMismatch, SizeCapExceeded
from alphadet.matrices import PermutedBlockOnes, RatMatrix, column_replicator
from alphadet.partitions import (
    _content_coefficients,
    conjugate,
    content_poly,
    num_standard_tableaux,
    partitions_of,
)
from alphadet.perms import Perm, enumerate_perms
from alphadet.polynomials import QPoly
from alphadet.randmat import SplitMix64, random_matrix, random_perm
from alphadet.rationals import format_rational
from alphadet.verify import (
    verify_chi,
    verify_omega,
    verify_fourier_jm,
    verify_stanley,
    verify_theorem,
    verify_weak_alternating,
    verify_zsf,
)


def _stripped(report):
    data = report.to_dict()
    data.pop("wall_time_s")
    return json.dumps(data, sort_keys=True)


def test_theorem_suite_passes():
    report = verify_theorem(2, 2, trials=5, seed=7)
    assert report.passed
    assert report.case_count == 5
    assert all(c.witness is None for c in report.cases)


def test_theorem_suite_k1():
    assert verify_theorem(1, 3, trials=3, seed=1).passed


def test_theorem_cap(monkeypatch):
    assert verify_theorem(3, 3, trials=1, seed=0).passed  # kn = 9 is the cap

    def no_matrix(*args):
        raise AssertionError("the cap must be checked before any matrix is drawn")

    monkeypatch.setattr(verify_module, "random_int_rows", no_matrix)
    with pytest.raises(SizeCapExceeded, match=r"^kn=10 exceeds cap 9$"):
        verify_theorem(2, 5, trials=1, seed=0)


_COUNTED_SUITES = [
    ("trials", lambda count: verify_theorem(2, 3, trials=count, seed=1)),
    ("samples", lambda count: verify_chi(2, 3, samples=count, seed=1)),
    ("samples", lambda count: verify_zsf(2, 3, samples=count, seed=1)),
    ("trials", lambda count: verify_weak_alternating(4, 2, trials=count, seed=1)),
]


def test_case_counts_past_the_cap_are_refused_before_any_work(monkeypatch, capsys):
    # a count past the case cap is refused before the clock starts and
    # before any case is listed or drawn; only refused counts run here
    def no_work(*args):
        raise AssertionError("a count past the cap must be refused before any work")

    assert verify_module.CASE_CAP == 10**4
    monkeypatch.setattr(verify_module, "time", types.SimpleNamespace(monotonic=no_work))
    for name in ("SplitMix64", "_case_perms", "_run", "_tables", "_content_coefficients"):
        monkeypatch.setattr(verify_module, name, no_work)
    for count in (10**4 + 1, 10**11):
        for name, run in _COUNTED_SUITES:
            with pytest.raises(SizeCapExceeded, match=rf"^{name}={count} exceeds case cap 10000$"):
                run(count)
    argvs = [
        ["theorem", "--k", "2", "--n", "3", "--trials"],
        ["chi", "--k", "2", "--n", "3", "--samples"],
        ["zsf", "--k", "2", "--n", "3", "--samples"],
        ["weak-alt", "--size", "4", "--k", "2", "--trials"],
    ]
    for argv in argvs:
        assert main(["verify", *argv, "100000000000", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {argv[-1][2:]}=100000000000 exceeds case cap 10000\n"


def test_the_case_cap_admits_its_own_count(monkeypatch):
    # at a small cap, a count at the cap runs every case and one past it is
    # refused, in every suite that takes a count
    monkeypatch.setattr(verify_module, "CASE_CAP", 3)
    for name, run in _COUNTED_SUITES:
        report = run(3)
        assert report.passed and report.case_count in (3, 6)  # weak-alt runs two kinds
        with pytest.raises(SizeCapExceeded, match=rf"^{name}=4 exceeds case cap 3$"):
            run(4)


@pytest.mark.parametrize("k, n", [(3, 3), (1, 9), (9, 1)])
def test_suites_at_kn_nine(k, n):
    # the two-parameter suites answer at the cap of the class-sum walk; omega
    # covers every weight at the identity, so the Kostka oracle runs too
    assert verify_theorem(k, n, trials=2, seed=9).passed
    report = verify_chi(k, n, samples=4, seed=9)
    assert report.passed and report.case_count == 4
    report = verify_omega(k, n, seed=0)
    assert report.passed and report.case_count == 30  # partitions of 9


def test_rect_formula_checks_sizes_before_any_work(monkeypatch):
    # the CLI passes any shape here: the checks must reject a huge one before
    # the tableau count, whose cost grows with the number of cells
    def no_work(*args):
        raise AssertionError("size checks must come first")

    monkeypatch.setattr(verify_module, "num_standard_tableaux", no_work)
    monkeypatch.setattr(matrices_module, "block_ones", no_work)
    monkeypatch.setattr(RatMatrix, "permute_rows", no_work)
    monkeypatch.setattr(adet_module, "profile_cells", no_work)
    with pytest.raises(SizeCapExceeded, match=r"^n=10 exceeds alpha-determinant cap 9$"):
        verify_module.rect_formula_value(10, 1, (10,), Perm.identity(10))
    with pytest.raises(ShapeWeightMismatch):
        verify_module.rect_formula_value(2, 2, (2, 1), Perm.identity(4))


def test_theorem_usage_error():
    with pytest.raises(ValueError):
        verify_theorem(2, 2, trials=0, seed=0)


def test_omega_suite_all_weights():
    report = verify_omega(2, 2, seed=0)
    assert report.passed
    assert report.case_count == 5  # partitions of 4


def test_omega_suite_specific_case():
    g = Perm.from_cycles(4, [(2, 3)])
    report = verify_omega(2, 2, mu=(2, 2), g=g, seed=0)
    assert report.passed
    assert report.case_count == 1


def test_omega_suite_kostka_cross_check_at_six():
    report = verify_omega(2, 3, mu=(3, 2, 1), seed=0)
    assert report.passed


def test_omega_refuses_a_weight_as_its_routes_do():
    # the suite checks a given weight once, before its cases, with the
    # errors that the Fraction routes raised from its first case: the size
    # from rect_formula_value, then the parts from the character average
    cases = [
        ((2, 1), ShapeWeightMismatch, r"^\|\(2, 1\)\| != 4 = k\*n$"),
        ((3, 2, -1), ValueError, r"^parts must be positive: \(3, 2, -1\)$"),
        ((1, 2, 1), ValueError, r"^parts must be weakly decreasing: \(1, 2, 1\)$"),
        ((2, 2, 0), ValueError, r"^parts must be positive: \(2, 2, 0\)$"),
        ((5, -1), ValueError, r"^parts must be positive: \(5, -1\)$"),
    ]
    identity = Perm.identity(4)
    for mu, error, message in cases:
        with pytest.raises(error, match=message):
            verify_omega(2, 2, mu=mu, seed=0)
        # each route on its own: the formula reads a composition as its
        # sorting, and the character average words the size check its way
        if mu == (1, 2, 1):
            value = verify_module.rect_formula_value(2, 2, mu, identity)
            assert value == verify_module.rect_formula_value(2, 2, (2, 1, 1), identity)
        else:
            with pytest.raises(error, match=message):
                verify_module.rect_formula_value(2, 2, mu, identity)
        if mu == (2, 1):
            message = r"^shape, mu and permutation sizes must agree$"
        with pytest.raises(error, match=message):
            characters_module.subgroup_averaged_character((2, 2), mu, identity)


def clear_walk_memos():
    """Empty the memo of class-sum walks, so that no walk of an earlier
    test is served from it."""
    adet_module._orbit_slots.cache_clear()


def test_chi_omega_and_stanley_never_build_the_tables(monkeypatch):
    # the corollaries read the sum at one point, so they take one value per
    # cycle type from the table reader and never leave a parameter free
    read = []
    real_tables = adet_module._tables

    def spy(n, alpha, beta):
        read.append((n, alpha, beta))
        return real_tables(n, alpha, beta)

    monkeypatch.setattr(adet_module, "_tables", spy)
    monkeypatch.setattr(verify_module, "_tables", spy)
    assert verify_chi(2, 2, seed=0).passed
    assert verify_omega(2, 2, seed=0).passed
    assert verify_omega(2, 2, g=Perm.from_cycles(4, [(1, 3, 2)]), seed=0).passed
    assert verify_stanley(2, 2, 3, seed=0).passed
    assert set(read) == {(4, Fraction(-1, 2), Fraction(1, 2)), (3, Fraction(-1, 2), Fraction(1, 2))}
    # the wreath average reads rows in alpha, free, at beta = -1/k
    read.clear()
    clear_walk_memos()
    assert verify_theorem(1, 2, trials=1, seed=0).passed
    assert read == [(2, None, Fraction(-1))]


@pytest.fixture
def walks(monkeypatch):
    """The input of every class-sum walk, starting from empty memos: the
    rows of each class_sums walk and the profile cells of each walk of
    P(g) 1_mu by letter type, which _typed_class_sums makes instead."""
    seen = []
    real_rows, real_typed = adet_module.class_sums, adet_module._typed_class_sums

    def spy_rows(rows):
        seen.append(rows)
        return real_rows(rows)

    def spy_typed(counts):
        seen.append(counts)
        return real_typed(counts)

    monkeypatch.setattr(adet_module, "class_sums", spy_rows)
    monkeypatch.setattr(characters_module, "class_sums", spy_rows)
    monkeypatch.setattr(adet_module, "_typed_class_sums", spy_typed)
    clear_walk_memos()
    return seen


def test_omega_case_walks_the_translates_once(walks):
    # the point-value sum and the character sum share one walk of P(g) 1_mu;
    # no memo keeps the walk of a weight that is not rectangular past the
    # case, so each public route walks its own
    constants = (2, 2, Perm((2, 3, 4, 1)), *verify_module._rect_point(2, 2))
    result = verify_module._omega_case(constants, (2, 1, 1))
    assert result.status == "pass"
    assert len(walks) == 1
    assert not hasattr(adet_module.translate_class_sums, "cache_info")
    assert not hasattr(verify_module._rect_scale, "cache_info")
    walks.clear()
    shape, mu, g = (2, 2), (2, 1, 1), Perm((2, 3, 4, 1))
    formula = verify_module.rect_formula_value(2, 2, mu, g)
    assert formula == characters_module.subgroup_averaged_character(shape, mu, g)
    assert len(walks) == 2


def test_one_type_count_per_case(monkeypatch):
    # the character average and the structured value of an omega case read
    # one (g, mu), so its mu-profile is made once per case; a zsf case
    # makes its block profile once and reads all three routes from it, and
    # the suite makes one more for its denominator, at the identity
    calls = []
    real = adet_module.profile_cells

    def spy(g, mu):
        calls.append((g, mu))
        return real(g, mu)

    monkeypatch.setattr(adet_module, "profile_cells", spy)
    monkeypatch.setattr(verify_module, "profile_cells", spy)
    g = Perm.from_cycles(6, [(1, 4, 2), (3, 6)])
    runs = [
        (lambda: verify_omega(2, 3, g=g, seed=0), 0),
        (lambda: verify_omega(3, 2, g=Perm.from_cycles(6, [(1, 2)]), seed=0), 0),
        (lambda: verify_zsf(2, 2, seed=0), 1),
        (lambda: verify_zsf(2, 3, samples=6, seed=3), 1),
    ]
    for run, denominator in runs:
        clear_walk_memos()
        calls.clear()
        report = run()
        assert report.passed
        assert len(calls) == report.case_count + denominator, report.suite


def test_structured_suites_build_no_rows(monkeypatch):
    # omega, chi and zsf read P(g) 1_mu through the mu-profile of g only
    def no_rows(*args):
        raise AssertionError("a structured path built the n x n rows of P(g) 1_mu")

    # and wherever the package holds a reference to it
    for module in (matrices_module, adet_module, characters_module, verify_module):
        if hasattr(module, "block_ones"):
            monkeypatch.setattr(module, "block_ones", no_rows)
    monkeypatch.setattr(RatMatrix, "permute_rows", no_rows)
    clear_walk_memos()
    assert verify_omega(2, 3, g=Perm.from_cycles(6, [(1, 4, 2), (3, 6)]), seed=0).passed
    assert verify_omega(3, 2, seed=0).passed
    assert verify_chi(2, 3, samples=6, seed=2).passed
    assert verify_chi(1, 5, seed=0).passed
    assert verify_zsf(2, 3, samples=6, seed=3).passed
    assert verify_zsf(3, 2, samples=6, seed=3).passed


def test_theorem_case_walks_the_inflation_once(walks):
    # the wreath average and the wreath determinant read one sum of the
    # inflation's class sums; at (2, 3) it walks one block profile of each
    # orbit of nonzero weight, by letter type, never the dense inflation,
    # and a second matrix walks only the orbits that the first did not.
    # The orbits are the slots of the memo that zsf reads too
    profiles = set(perms_module.block_profiles(2, 3))
    rows_at_beta = adet_module._tables(6, None, Fraction(-1, 2))
    constants = (2, 3, _content_coefficients((2, 2, 2)), *rows_at_beta)
    result = verify_module._theorem_case(constants, (0, 91))
    assert result.status == "pass"
    first = list(walks)
    slots = adet_module._orbit_slots(2, 3)
    assert len(slots) == 21 and len({id(slot) for slot in slots.values()}) == 8
    assert len(first) == len(_filled_orbits(slots)) > 0
    assert len(set(first)) == len(first) and set(first) <= profiles
    walks.clear()
    result = verify_module._theorem_case(constants, (1, 92))
    assert result.status == "pass"
    assert len(set(walks)) == len(walks) and set(walks) <= profiles - set(first)
    assert len(first) + len(walks) == len(_filled_orbits(slots))
    assert adet_module._orbit_slots(2, 3) is slots
    assert adet_module._orbit_slots.cache_info().maxsize == 1


def test_theorem_sums_each_inflation_once_per_trial(monkeypatch):
    # both sides of a passing trial read one integer sum of its inflation's
    # class sums, over the integer rows of its matrix, and no memo keeps it
    # past the trial
    assert not hasattr(adet_module._inflation_int_sums, "cache_info")
    summed = []
    real = adet_module._inflation_int_sums

    def spy(rows, k):
        summed.append(rows)
        return real(rows, k)

    for module in (adet_module, verify_module):
        monkeypatch.setattr(module, "_inflation_int_sums", spy)
    for k, n, trials in [(1, 3, 3), (2, 3, 5), (3, 2, 4), (2, 4, 2)]:
        summed.clear()
        report = verify_theorem(k, n, trials=trials, seed=31)
        assert report.passed
        rng = SplitMix64(31)
        drawn = [random_matrix(k * n, n, rng.next_u64()) for _ in range(trials)]
        assert [tuple(rows) for rows in summed] == [a.entries for a in drawn]
        assert all(type(e) is int for rows in summed for row in rows for e in row)


def _conjugate_content(monkeypatch) -> None:
    """Give the theorem suite the content of the conjugate rectangle, in
    its integer check and in its witness alike."""
    real = verify_module._content_coefficients
    monkeypatch.setattr(
        verify_module, "_content_coefficients", lambda shape: real(conjugate(shape))
    )


@pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (4, 2)])
def test_theorem_witness_is_the_public_polynomials(monkeypatch, k, n):
    # the conjugate rectangle's content negates every content, so no trial
    # holds; each witness is the pair that the public functions give
    _conjugate_content(monkeypatch)
    report = verify_theorem(k, n, trials=3, seed=41)
    assert report.status == "fail"
    assert [c.status for c in report.cases] == ["fail"] * 3
    for case in report.cases:
        a = random_matrix(k * n, n, case.witness["matrix_seed"])
        assert case.witness == {
            "matrix": a.to_json_dict(),
            "matrix_seed": case.witness["matrix_seed"],
            "lhs": wreath_average_poly(a, k).to_strings(),
            "rhs": (content_poly(conjugate((k,) * n)) * wrdet(a, k)).to_strings(),
        }
    argv = ["verify", "theorem", "--k", str(k), "--n", str(n), "--trials", "3", "--seed", "41"]
    assert main(argv) == 1


def test_theorem_pass_path_builds_no_polynomial(monkeypatch):
    # a passing trial compares integers from its integer draw: the
    # polynomial sides and the Fraction matrix are built only for a failing
    # trial's witness, and no public route or scaling to integers is called
    def no_polynomial(*args):
        raise AssertionError("a passing trial built a polynomial side or a Fraction matrix")

    monkeypatch.setattr(verify_module, "QPoly", no_polynomial)
    for name in ("wreath_average_poly", "wrdet"):
        monkeypatch.setattr(adet_module, name, no_polynomial)
    # wherever the package holds a reference to them
    modules = (adet_module, characters_module, matrices_module, randmat_module, verify_module)
    for name in ("RatMatrix", "random_matrix", "scaled_int_rows"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_polynomial)
    for k, n in [(1, 4), (2, 3), (3, 3), (4, 2), (9, 1)]:
        assert verify_theorem(k, n, trials=3, seed=43).passed
    assert main(["verify", "theorem", "--k", "2", "--n", "2", "--trials", "2", "--seed", "0"]) == 0


def _filled_orbits(slots) -> set:
    """The ids of the orbit slots of a memo that hold their class sums."""
    return {id(slot) for slot in slots.values() if slot[0] is not None}


def _orbit_key(m, n: int) -> tuple:
    """One label of the orbit of the block profile m, flat n x n cells,
    under relabeling the blocks and transposing, found by trying every
    relabeling."""
    transpose = tuple(m[j * n + i] for i in range(n) for j in range(n))
    return min(
        tuple(h[p[i] * n + p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
        for h in (m, transpose)
    )


def test_chi_makes_no_walk(walks):
    # P(g) is a permutation matrix, whose one class sum is {type of g: 1}, so
    # chi reads g's cycle type and walks nothing
    assert verify_chi(2, 2, seed=0).passed
    assert walks == []


def test_chi_suite_exhaustive():
    report = verify_chi(2, 2, seed=0)
    assert report.passed
    assert report.case_count == 24


def test_chi_suite_sampled():
    report = verify_chi(2, 3, samples=25, seed=9)
    assert report.passed
    assert report.case_count == 25


def test_chi_exhaustive_cap():
    with pytest.raises(SizeCapExceeded):
        verify_chi(2, 4, seed=0)


def test_stanley_suite():
    for k, n, m in [(2, 2, 1), (2, 2, 3), (3, 2, 4)]:
        report = verify_stanley(k, n, m, seed=0)
        assert report.passed
        assert report.case_count == [1, 6, 24][[(2, 2, 1), (2, 2, 3), (3, 2, 4)].index((k, n, m))]


def test_stanley_m_one_value():
    # single case: both sides equal kn
    report = verify_stanley(3, 2, 1, seed=0)
    assert report.passed


def _stanley_sum_naive(k, n, w):
    # (-1)^m sum over s in S_m of (-k)^c(ws) n^c(s), one permutation at a time
    total = 0
    for s in enumerate_perms(w.n):
        total += (-k) ** (w * s).cycle_count * n**s.cycle_count
    return (-1) ** w.n * total


@pytest.mark.parametrize("m", range(1, 7))
def test_stanley_sum_matches_the_s_m_scan(m):
    # the sum side that a stanley case compares is the integer point value
    # of w's cycle type at (-1/k, 1/n), over (kn)^m: the sum itself.  Every
    # k, n in 1..3 up to m = 5; the m = 6 scan is 720^2 products per (k, n)
    kns = [(2, 3)] if m == 6 else [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    for k, n in kns:
        values, denom = adet_module._tables(m, Fraction(-1, k), Fraction(1, n))
        assert denom == (k * n) ** m
        for w in enumerate_perms(m):
            got = values[w.cycle_type()][0]
            assert got == _stanley_sum_naive(k, n, w), (k, n, w)


def test_stanley_case_enumerates_no_permutations(monkeypatch):
    def no_enumeration(n):
        raise AssertionError("the sum side reads the class table")

    monkeypatch.setattr(verify_module, "enumerate_perms", no_enumeration)
    monkeypatch.setattr(perms_module, "perm_tuples", no_enumeration)
    monkeypatch.setattr(adet_module, "perm_tuples", no_enumeration)
    f = num_standard_tableaux((3, 3))
    values, _ = adet_module._tables(5, Fraction(-1, 3), Fraction(1, 2))
    constants = (3, 2, f, factorial(6) // factorial(1), values)
    for w_images in [(1, 2, 3, 4, 5), (2, 3, 1, 5, 4), (5, 4, 3, 2, 1)]:
        assert verify_module._stanley_case(constants, Perm(w_images)).status == "pass"


@pytest.mark.parametrize(
    "routes, run, case_id, witness",
    [
        (
            ("_mn",),
            lambda: verify_chi(2, 2, seed=0),
            "g=1,2,3,4",
            {"character_ratio": "3/2", "adet_ratio": "1"},
        ),
        (
            ("_mn",),
            lambda: verify_stanley(2, 2, 3, seed=0),
            "w=1,2,3",
            {"character_side": "36", "sum_side": "24"},
        ),
        (
            ("det_power_coeff",),
            lambda: verify_zsf(2, 2, seed=0),
            "g=1,2,3,4",
            {"character_average": "1", "wreath_ratio": "1", "coefficient_over_index": "2"},
        ),
        (
            ("kostka_ssyt",),
            lambda: verify_omega(2, 2, mu=(2, 1, 1), seed=0),
            "mu=2,1,1;g=1,2,3,4",
            {"rect_formula": "1", "character_average": "1", "kostka_ssyt": "2"},
        ),
    ],
)
def test_failing_case_witness_lists_every_route(monkeypatch, routes, run, case_id, witness):
    # one integer kernel of the pass path off by one.  The witness names
    # the value of each side that the case compared, in the order the case
    # computes them
    for route in routes:
        real = getattr(verify_module, route)
        monkeypatch.setattr(verify_module, route, lambda *args, real=real: real(*args) + 1)
    report = run()
    assert report.status == "fail"
    failing = next(c for c in report.cases if c.status == "fail")
    assert failing.id == case_id
    assert list(failing.witness.items()) == list(witness.items())


@pytest.mark.parametrize(
    "kernel, run, argv",
    [
        ("_mn", lambda: verify_chi(2, 2, seed=0), ["chi", "--k", "2", "--n", "2"]),
        (
            "_mn",
            lambda: verify_stanley(2, 3, 4, seed=0),
            ["stanley", "--k", "2", "--n", "3", "--m", "4"],
        ),
        ("_character_sum", lambda: verify_omega(2, 3, seed=0), ["omega", "--k", "2", "--n", "3"]),
        ("_character_sum", lambda: verify_zsf(2, 2, seed=0), ["zsf", "--k", "2", "--n", "2"]),
    ],
)
def test_a_broken_integer_kernel_fails_every_case(monkeypatch, capsys, kernel, run, argv):
    # the integer check is the verdict: with only the kernel that it reads
    # off by one, in verify, and every public route intact, no case passes,
    # and each witness shows the values that disagreed
    real = getattr(verify_module, kernel)
    monkeypatch.setattr(verify_module, kernel, lambda shape, arg: real(shape, arg) + 1)
    report = run()
    assert report.status == "fail" and report.case_count > 0
    for case in report.cases:
        assert case.status == "fail", case.id
        assert len(set(case.witness.values())) > 1, case.id
    capsys.readouterr()
    assert main(["verify", *argv, "--seed", "0"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_omega_chi_and_stanley_pass_paths_build_no_fraction_route(monkeypatch):
    # a passing omega, chi or stanley case compares integers: it calls no
    # public Fraction route and builds no Fraction at all; the suites build
    # their constants with Fractions, before their cases run
    def no_route(*args):
        raise AssertionError("a passing case built a Fraction route")

    for name in ("rect_formula_value", "adet2_structured"):
        monkeypatch.setattr(verify_module, name, no_route)
    for name in ("character", "subgroup_averaged_character"):
        monkeypatch.setattr(characters_module, name, no_route)

    decided = set()

    def without_fractions(case):
        def run(constants, item):
            decided.add(case.__name__)
            with monkeypatch.context() as m:
                m.setattr(verify_module, "Fraction", no_route)
                return case(constants, item)

        return run

    for name in ("_omega_case", "_chi_case", "_stanley_case"):
        monkeypatch.setattr(verify_module, name, without_fractions(getattr(verify_module, name)))
    rng = SplitMix64(47)
    for size in range(1, 7):
        for k in (k for k in range(1, size + 1) if size % k == 0):
            report = verify_omega(k, size // k, seed=0)
            assert report.passed and report.case_count == len(partitions_of(size))
            assert verify_omega(k, size // k, g=random_perm(size, rng), seed=0).passed
    for k, n in [(2, 3), (3, 2), (1, 6), (6, 1)]:
        assert verify_chi(k, n, seed=0).passed
    for k, n in [(2, 4), (3, 3)]:
        assert verify_chi(k, n, samples=8, seed=5).passed
    for m in range(1, 7):
        assert verify_stanley(2, 3, m, seed=0).passed
    for argv in [
        ["verify", "omega", "--k", "2", "--n", "3", "--seed", "0"],
        ["verify", "omega", "--k", "2", "--n", "3", "--perm", "3,1,2,6,4,5", "--seed", "0"],
        ["verify", "chi", "--k", "2", "--n", "3", "--samples", "4", "--seed", "0"],
        ["verify", "stanley", "--k", "2", "--n", "3", "--m", "4", "--seed", "0"],
    ]:
        assert main(argv) == 0, argv
    assert decided == {"_omega_case", "_chi_case", "_stanley_case"}


def _omega_public_routes(k: int, n: int, mu: tuple[int, ...], g: Perm) -> dict:
    """The routes of an omega case, as Fractions from the public functions,
    each looked up in its own module so that a patch there shows: the
    formula, the character average and, at g = id, the Kostka number."""
    shape = (k,) * n
    routes = {
        "rect_formula": verify_module.rect_formula_value(k, n, mu, g),
        "character_average": characters_module.subgroup_averaged_character(shape, mu, g),
    }
    if g.is_identity():
        routes["kostka_ssyt"] = Fraction(partitions_module.kostka_ssyt(shape, mu))
    return routes


def _chi_public_routes(k: int, n: int, g: Perm) -> dict:
    """The two ratios of a chi case from public functions: the character
    over f, and the formula at the weight 1^kn, whose P(g) 1_mu is the
    permutation matrix of g, over f."""
    shape = (k,) * n
    f = num_standard_tableaux(shape)
    return {
        "character_ratio": Fraction(characters_module.character(shape, g.cycle_type()), f),
        "adet_ratio": verify_module.rect_formula_value(k, n, (1,) * (k * n), g) / f,
    }


def _conjugate_character(monkeypatch) -> None:
    """Give every character of the rectangle the conjugate rectangle's, in
    the integer checks and in the public routes alike."""
    real = characters_module._mn
    mutant = lambda shape, rho: real(conjugate(shape), rho)  # noqa: E731
    monkeypatch.setattr(characters_module, "_mn", mutant)
    monkeypatch.setattr(verify_module, "_mn", mutant)


def _table_at_plus_one_over_k(monkeypatch) -> None:
    """Read every point value at (1/k, 1/n), not (-1/k, 1/n), in the suites'
    constants and in the public routes alike."""
    real = adet_module._tables

    def mutant(n, alpha, beta):
        return real(n, None if alpha is None else -alpha, beta)

    monkeypatch.setattr(adet_module, "_tables", mutant)
    monkeypatch.setattr(verify_module, "_tables", mutant)


def _kostka_plus_one(monkeypatch) -> None:
    real = partitions_module.kostka_ssyt
    mutant = lambda shape, mu: real(shape, mu) + 1  # noqa: E731
    monkeypatch.setattr(partitions_module, "kostka_ssyt", mutant)
    monkeypatch.setattr(verify_module, "kostka_ssyt", mutant)


@pytest.mark.parametrize(
    "mutate", [None, _conjugate_character, _table_at_plus_one_over_k, _kostka_plus_one]
)
def test_omega_and_chi_integer_verdicts_are_the_public_routes_agreement(
    monkeypatch, capsys, mutate
):
    # a case's integer verdict is whether the public Fraction routes, the
    # test's oracles, agree: omega at every weight, for g = id and three
    # seeded g, and chi at every g of S_6, on the program and on three
    # mutants of it, each patching an integer kernel and its public route
    # alike: the conjugate rectangle's character, the point values at +1/k
    # and the Kostka number off by one, which breaks every omega case at
    # g = id.  A failing case's witness is each public route's value, and
    # the CLI exits 1
    if mutate is not None:
        mutate(monkeypatch)
    witnessed = []
    real_fail = verify_module._fail

    def fail_spy(case_id, **values):
        witnessed.append(case_id)
        return real_fail(case_id, **values)

    monkeypatch.setattr(verify_module, "_fail", fail_spy)

    def check(report, routes_of_case) -> int:
        failed = 0
        for case, routes in zip(report.cases, routes_of_case, strict=True):
            holds = len(set(routes.values())) == 1
            assert (case.id in witnessed) == (not holds), case.id
            assert case.status == ("pass" if holds else "fail"), case.id
            if not holds:
                failed += 1
                assert case.witness == {name: format_rational(v) for name, v in routes.items()}
        witnessed.clear()
        return failed

    failed = {}
    rng = SplitMix64(53)
    for k, n in [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1)]:
        size = k * n
        for g in [Perm.identity(size), *(random_perm(size, rng) for _ in range(3))]:
            report = verify_omega(k, n, g=g, seed=0)
            routes = [_omega_public_routes(k, n, mu, g) for mu in partitions_of(size)]
            key = ("omega", k, n, "id" if g.is_identity() else "g")
            failed[key] = failed.get(key, 0) + check(report, routes)
    for k, n in [(1, 6), (2, 3), (3, 2), (6, 1)]:
        report = verify_chi(k, n, seed=0)
        routes = [_chi_public_routes(k, n, g) for g in enumerate_perms(6)]
        failed["chi", k, n] = check(report, routes)
    # the broken cases at each key above: omega at g = id, then at the
    # seeded g, of (2,2), (2,3), (3,2), (1,4) and (4,1), then chi at (1,6),
    # (2,3), (3,2) and (6,1).  The conjugate of (2,2) is itself, and the
    # Kostka number is a route at g = id only
    expected = {
        None: [0] * 14,
        _conjugate_character: [0, 0, 5, 18, 5, 17, 4, 13, 4, 13, 360, 240, 240, 360],
        _table_at_plus_one_over_k: [5, 15, 11, 33, 11, 33, 5, 15, 5, 15, 720, 720, 720, 720],
        _kostka_plus_one: [5, 0, 11, 0, 11, 0, 5, 0, 5, 0, 0, 0, 0, 0],
    }[mutate]
    assert list(failed.values()) == expected
    if mutate is not None:
        for argv, broken in [
            (["verify", "omega", "--k", "2", "--n", "3", "--seed", "0"], failed["omega", 2, 3, "id"]),
            (["verify", "chi", "--k", "2", "--n", "3", "--seed", "0"], failed["chi", 2, 3]),
        ]:
            capsys.readouterr()
            assert main(argv) == (1 if broken else 0)
            assert "Traceback" not in capsys.readouterr().err


def test_size_caps_are_the_module_constants(monkeypatch):
    # Stanley's and Fourier's cap is CHARACTER_CAP (12);
    # zsf's is ADET_CAP (9): it runs alpha-determinants of kn x kn matrices
    # and never a two-parameter sum.  Its coefficient route is bounded by
    # det_power_coeff alone, which no kn within the cap reaches: k <= 2
    # lists no permutation, and at k >= 3 the layers of every block profile
    # with kn <= 9 test at most 7 (residual, permutation) pairs
    assert adet_module.DET_POWER_TERM_CAP == 10**7
    for gone in ("DET_POWER_TERM_CAP", "DET_POWER_ROUTE_CAP"):
        assert not hasattr(verify_module, gone)
    read = []
    signed = adet_module._signed_cells
    with monkeypatch.context() as m:
        m.setattr(adet_module, "_signed_cells", lambda n: read.append(n) or signed(n))
        most = 0
        for k in range(3, ADET_CAP + 1):
            for n in range(1, ADET_CAP // k + 1):
                for cells in perms_module.block_profiles(k, n):
                    read.clear()
                    adet_module.det_power_coeff(cells, k)
                    most = max(most, len(read) * factorial(n))
    assert most == 7
    assert adet_module.det_power_coeff(perms_module.block_profile(Perm.identity(14), 7, 2), 2) == 1
    with monkeypatch.context() as m:
        # k <= 2 lists no permutation, so the count of tests never refuses it
        m.setattr(adet_module, "DET_POWER_TERM_CAP", 0)
        assert verify_zsf(1, 4, samples=3, seed=1).passed
        assert verify_zsf(2, 4, samples=3, seed=1).passed
    assert verify_zsf(3, 3, samples=2, seed=1).passed
    with pytest.raises(SizeCapExceeded, match=r"^kn=10 exceeds cap 9$"):
        verify_zsf(2, 5, samples=1, seed=1)
    assert verify_stanley(11, 1, 1, seed=0).passed
    assert verify_stanley(6, 2, 2, seed=0).passed
    with pytest.raises(SizeCapExceeded, match="character-evaluation cap 12"):
        verify_stanley(13, 1, 1, seed=0)
    report = verify_fourier_jm(12, seed=0)
    assert report.passed
    assert [c.id for c in report.cases] == ["expansion"]
    with pytest.raises(SizeCapExceeded, match=r"^size=13 exceeds character-evaluation cap 12$"):
        verify_fourier_jm(13, seed=0)
    # the Young-order, immanant and expansion caps bounded no work of their own
    for gone in ("YOUNG_ORDER_CAP", "IMMANANT_CAP", "EXPANSION_CAP"):
        assert not hasattr(characters_module, gone)
        assert not hasattr(verify_module, gone)
    # the two-parameter sums are bounded by ADET_CAP, which bounds their
    # walk; Stanley's m! cases by EXHAUSTIVE_CAP, which bounds chi's and zsf's
    for gone in ("ADET2_CAP", "STANLEY_M_CAP"):
        assert not hasattr(adet_module, gone)
        assert not hasattr(verify_module, gone)
    report = verify_stanley(7, 1, 7, seed=0)
    assert report.passed and report.case_count == 5040
    with pytest.raises(SizeCapExceeded, match=r"^m=8 exceeds min\(kn, 7\)$"):
        verify_stanley(8, 1, 8, seed=0)
    # weak-alt's bound is that of the column average's sums, which
    # subgroup_avg_adet reads too; chi and zsf share one
    # exhaustive bound, and so do those two and enumerate_perms, all read
    # from perms
    for gone in ("CHI_EXHAUSTIVE_CAP", "ZSF_EXHAUSTIVE_CAP", "WEAK_ALT_CAP"):
        assert not hasattr(verify_module, gone)
    assert not hasattr(adet_module, "SUBGROUP_AVG_CAP")
    assert verify_module.EXHAUSTIVE_CAP is adet_module.EXHAUSTIVE_CAP is perms_module.EXHAUSTIVE_CAP
    with pytest.raises(SizeCapExceeded, match=r"^n=8 exceeds subgroup-average cap 7$"):
        adet_module.subgroup_avg_adet(RatMatrix.ones(8, 8), 2)
    with pytest.raises(SizeCapExceeded, match=r"^size=8 exceeds cap 7$"):
        verify_weak_alternating(8, 2, 1, 0)
    exhaustive = r"^exhaustive run needs kn <= 7; pass samples for kn=8$"
    for suite in (verify_chi, verify_zsf):
        with pytest.raises(SizeCapExceeded, match=exhaustive):
            suite(2, 4)


def test_zsf_suite_exhaustive():
    report = verify_zsf(2, 2, seed=0)
    assert report.passed
    assert report.case_count == 24


def test_zsf_suite_sampled_at_six():
    report = verify_zsf(2, 3, samples=40, seed=2)
    assert report.passed
    assert report.case_count == 40


def test_zsf_evaluates_the_replicator_once(monkeypatch):
    # the ratio's denominator R_id = k^kn wrdet(column_replicator(n, k), k)
    # is the numerator's own integer formula at g = id, evaluated once per
    # suite before any case and bound to every case; no wrdet runs, and
    # each case reads one numerator, from the class sums that its character
    # average weighs too
    def no_wrdet(a, k):
        raise AssertionError("zsf evaluated a wreath determinant densely")

    numerators = []
    real = verify_module._wrdet_numerator

    def spy(sums, k, size):
        numerators.append(tuple(sums))
        return real(sums, k, size)

    passed = []
    real_run = verify_module._run

    def run_spy(suite, params, seed, t0, case, constants, items):
        def spy_case(constants, item):
            passed.append(constants[-1])
            return case(constants, item)

        return real_run(suite, params, seed, t0, spy_case, constants, items)

    monkeypatch.setattr(adet_module, "wrdet", no_wrdet)
    monkeypatch.setattr(verify_module, "_wrdet_numerator", spy)
    monkeypatch.setattr(verify_module, "_run", run_spy)
    for k, n, samples in [(2, 3, 1), (2, 3, 5), (1, 4, 3), (3, 2, 4), (4, 2, 2)]:
        numerators.clear()
        passed.clear()
        assert verify_zsf(k, n, samples=samples, seed=4).passed
        size = k * n
        identity = adet_module.translate_class_sums(Perm.identity(size), (k,) * n)
        assert numerators[0] == identity
        assert len(numerators) == samples + 1
        expected = k**size * wrdet(column_replicator(n, k), k)  # the original, unpatched
        assert expected.denominator == 1 and expected != 0
        assert passed == [expected.numerator] * samples


def test_zsf_pass_path_builds_no_fraction_route(monkeypatch):
    # a passing case compares integer numerators: it calls no public
    # Fraction route and builds no Fraction
    def no_route(*args):
        raise AssertionError("a passing zsf case built a Fraction route")

    monkeypatch.setattr(verify_module, "Fraction", no_route)
    monkeypatch.setattr(characters_module, "subgroup_averaged_character", no_route)
    for name in ("adet_structured", "wrdet"):
        monkeypatch.setattr(adet_module, name, no_route)
    for k, n in [(1, 4), (2, 3), (3, 2), (6, 1)]:
        assert verify_zsf(k, n, seed=0).passed
    for k, n in [(2, 4), (3, 3)]:
        assert verify_zsf(k, n, samples=8, seed=5).passed
    assert main(["verify", "zsf", "--k", "2", "--n", "3", "--samples", "4", "--seed", "0"]) == 0


def _zsf_public_routes(k: int, n: int, g: Perm) -> dict:
    """The three routes of a zsf case, as Fractions from the public
    functions, each looked up in its own module so that a patch there
    shows: the character average, the structured value over the
    replicator's, and the coefficient over Mackey's index."""
    shape = (k,) * n
    x = Fraction(-1, k)
    identity = PermutedBlockOnes(Perm.identity(k * n), shape)
    profile = perms_module.block_profile(g, n, k)
    return {
        "character_average": characters_module.subgroup_averaged_character(shape, shape, g),
        "wreath_ratio": adet_module.adet_structured(PermutedBlockOnes(g, shape), x)
        / adet_module.adet_structured(identity, x),
        "coefficient_over_index": Fraction(
            adet_module.det_power_coeff(profile, k), perms_module.double_coset_index(g, n, k)
        ),
    }


def _coefficient_plus_one(monkeypatch) -> None:
    real = adet_module.det_power_coeff
    mutant = lambda cells, k: real(cells, k) + 1  # noqa: E731
    monkeypatch.setattr(adet_module, "det_power_coeff", mutant)
    monkeypatch.setattr(verify_module, "det_power_coeff", mutant)


def _conjugate_character_sum(monkeypatch) -> None:
    """Give zsf's character numerator the conjugate rectangle, in its
    integer check and in the public route of its witness alike."""
    real = characters_module._character_sum
    mutant = lambda shape, sums: real(conjugate(shape), sums)  # noqa: E731
    monkeypatch.setattr(characters_module, "_character_sum", mutant)
    monkeypatch.setattr(verify_module, "_character_sum", mutant)


def _unsigned_wreath_ratio(monkeypatch) -> None:
    """Take zsf's wreath ratio at +1/k, not -1/k, in its integer numerators
    and in the public structured values alike."""
    real_numerator, real_structured = verify_module._wrdet_numerator, adet_module.adet_structured

    def numerator(sums, k, size):
        unsigned = [(rho, -w if (size - len(rho)) % 2 else w) for rho, w in sums]
        return real_numerator(unsigned, k, size)

    monkeypatch.setattr(verify_module, "_wrdet_numerator", numerator)
    monkeypatch.setattr(adet_module, "adet_structured", lambda s, x: real_structured(s, -x))


@pytest.mark.parametrize(
    "mutate", [None, _coefficient_plus_one, _conjugate_character_sum, _unsigned_wreath_ratio]
)
def test_zsf_integer_verdict_is_the_public_routes_agreement(monkeypatch, capsys, mutate):
    # at every g of S_6, a case's integer verdict is whether the three
    # public Fraction routes, the test's oracles, agree, on the program and
    # on three mutants of it, each patching an integer kernel and its public
    # route alike: the coefficient off by one, which breaks every case, the
    # character numerator of the conjugate rectangle (every (k, n) here has
    # k != n) and the wreath ratio at +1/k, which break the cases whose
    # route value changes with them; a failing case's witness is each
    # public route's value, and the CLI exits 1
    if mutate is not None:
        mutate(monkeypatch)
    witnessed = []
    real_fail = verify_module._fail

    def fail_spy(case_id, **values):
        witnessed.append(case_id)
        return real_fail(case_id, **values)

    monkeypatch.setattr(verify_module, "_fail", fail_spy)
    failed = {}
    for k, n in [(1, 6), (2, 3), (3, 2), (6, 1)]:
        witnessed.clear()
        report = verify_zsf(k, n, seed=0)
        failed[k, n] = 0
        for g, case in zip(enumerate_perms(6), report.cases, strict=True):
            routes = _zsf_public_routes(k, n, g)
            holds = len(set(routes.values())) == 1
            assert (case.id in witnessed) == (not holds), (k, n, case.id)
            assert case.status == ("pass" if holds else "fail")
            if not holds:
                failed[k, n] += 1
                assert case.witness == {name: format_rational(v) for name, v in routes.items()}
    # the count of broken cases at each (k, n) above: at k = 1 the average
    # is sign(g) and its conjugate's 1, and at n = 1 P(g) 1_(k^n) is the
    # all-ones matrix for every g, so its ratio is 1 at either sign
    expected = {
        None: [0, 0, 0, 0],
        _coefficient_plus_one: [720, 720, 720, 720],
        _conjugate_character_sum: [360, 696, 720, 720],
        _unsigned_wreath_ratio: [360, 392, 684, 0],
    }[mutate]
    assert list(failed.values()) == expected, list(failed.values())
    if mutate is not None:
        capsys.readouterr()
        assert main(["verify", "zsf", "--k", "2", "--n", "3", "--seed", "0"]) == 1
        assert "Traceback" not in capsys.readouterr().err


def test_zsf_walks_the_class_sums_once_per_case(walks):
    # a case walks only when the orbit of its block profile has not been
    # met, by the denominator's identity or by an earlier case
    for samples in (1, 5, 40):
        clear_walk_memos()
        walks.clear()
        assert verify_zsf(2, 3, samples=samples, seed=4).passed
        met = [Perm.identity(6), *verify_module._case_perms(6, samples, 4)]
        orbits = {_orbit_key(perms_module.block_profile(g, 3, 2), 3) for g in met}
        assert len(walks) == len(orbits) == len(_filled_orbits(adet_module._orbit_slots(2, 3)))


def test_runs_of_one_k_n_share_walks_across_another(walks):
    # a run at another (k, n) in between replaces the memo, so the zsf and
    # theorem runs of (2, 3) after it read one new memo and walk each orbit
    # once between them
    assert verify_theorem(2, 3, trials=4, seed=1).passed
    assert verify_zsf(2, 2, samples=4, seed=1).passed
    walks.clear()
    assert verify_zsf(2, 3, samples=5, seed=1).passed
    assert verify_theorem(2, 3, trials=4, seed=2).passed
    _assert_one_walk_per_orbit_of_the_live_memo(walks, 2, 3)


def test_switching_k_n_leaves_no_stale_profile_slot(walks):
    # the inflation's sum looks each profile up in the live memo, so after
    # a theorem run at (3, 3) has replaced the memo of (2, 3), the theorem
    # run back at (2, 3) fills the new memo, not the old one, and the zsf
    # run after it walks nothing
    assert verify_theorem(2, 3, trials=4, seed=1).passed
    assert verify_theorem(3, 3, trials=2, seed=1).passed
    walks.clear()
    assert verify_theorem(2, 3, trials=4, seed=2).passed
    _assert_one_walk_per_orbit_of_the_live_memo(walks, 2, 3)
    theorem_walks = list(walks)
    assert verify_zsf(2, 3, samples=5, seed=2).passed
    assert walks == theorem_walks


def _assert_one_walk_per_orbit_of_the_live_memo(walks, k: int, n: int) -> None:
    """After a theorem run of (k, n), whose random matrices weigh every
    block profile: the live ``_orbit_slots(k, n)`` holds every profile with
    its class sums, and the walks recorded are by letter type, one per
    orbit, each in a slot of that memo."""
    slots = adet_module._orbit_slots(k, n)
    assert len(slots) == len(perms_module.block_profiles(k, n))
    assert all(slot[0] is not None for slot in slots.values())
    walked = [slots.get(cells) for cells in walks]
    assert None not in walked
    assert len({id(slot) for slot in walked}) == len(walks) == len(_filled_orbits(slots))


def test_zsf_walks_each_case_once(walks):
    # the character average and the wreath ratio of a case read one walk of
    # P(g) 1_mu: at n = 1 every g of S_6 has the one block profile (6), so
    # the denominator's walk serves all 720 cases
    report = verify_zsf(6, 1, seed=0)
    assert report.passed and report.case_count == 720
    assert walks == [(6,)]


def test_zsf_denominator_is_the_replicators_wreath_determinant():
    # the structured value at g = id is wrdet of the column replicator, the
    # ratio's denominator, at every (k, n) within the cap
    for size in range(1, ADET_CAP + 1):
        for k in range(1, size + 1):
            if size % k:
                continue
            n = size // k
            identity = PermutedBlockOnes(Perm.identity(size), (k,) * n)
            expected = wrdet(column_replicator(n, k), k)
            assert adet_structured(identity, Fraction(-1, k)) == expected, (k, n)


@pytest.mark.parametrize("k, n", [(6, 1), (1, 6)])
def test_zsf_one_block_edges_exhaustive(k, n):
    # one block (n = 1) makes H all of S_6; blocks of one letter (k = 1)
    # make every case a lone determinant coefficient
    report = verify_zsf(k, n, seed=0)
    assert report.passed
    assert report.case_count == 720


def test_zsf_exhaustive_two_by_three():
    report = verify_zsf(2, 3)
    assert report.passed and report.case_count == 720


def test_theorem_six_trials_at_two_by_two():
    report = verify_theorem(2, 2, trials=6, seed=23)
    assert report.passed and report.case_count == 6


def test_weak_alt_suite():
    report = verify_weak_alternating(5, 2, trials=5, seed=4)
    assert report.passed
    assert report.case_count == 10  # duplicate-column and divisibility parts


def test_weak_alt_k1():
    assert verify_weak_alternating(4, 1, trials=3, seed=2).passed


def test_weak_alt_full_size_subgroup_runs_divisibility_only():
    report = verify_weak_alternating(4, 4, trials=3, seed=6)
    assert report.passed
    assert [c.id.split(";")[0] for c in report.cases] == ["div"] * 3


def test_fourier_suite():
    report = verify_fourier_jm(5, seed=0)
    assert report.passed
    assert [c.id for c in report.cases] == ["expansion", "jucys-murphy"]
    report7 = verify_fourier_jm(7, seed=0)
    assert report7.passed
    assert [c.id for c in report7.cases] == ["expansion"]


def test_fourier_suite_fails_on_a_broken_expansion(monkeypatch):
    # the conjugate shape's content polynomial negates every content, which
    # multiplies each class's value by its sign: the first odd class, (4, 1),
    # is the witness
    monkeypatch.setattr(
        characters_module, "content_poly", lambda shape: content_poly(conjugate(shape))
    )
    report = verify_fourier_jm(5, seed=0)
    assert report.status == "fail"
    expansion = report.cases[0]
    assert (expansion.id, expansion.status) == ("expansion", "fail")
    assert expansion.witness == {"detail": "expansion mismatch at cycle type (4, 1)"}
    assert report.cases[1].status == "pass"  # the JM product does not read it
    assert main(["verify", "fourier", "--size", "5", "--seed", "0"]) == 1


def _identity_class_plus_one(monkeypatch) -> None:
    # the class sum of the identity's type one too large, in every walk
    real = adet_module.class_sums

    def bumped(rows):
        sums = real(rows)
        identity = (1,) * len(rows)
        sums[identity] = sums.get(identity, 0) + 1
        return sums

    monkeypatch.setattr(adet_module, "class_sums", bumped)


@pytest.mark.parametrize(
    "size, k, cases",
    [
        (
            3,
            2,
            [
                (
                    "dup;trial=0",
                    {
                        "matrix": {
                            "rows": 3,
                            "cols": 3,
                            "entries": [["-5", "-5", "-5"], ["-5", "-5", "-5"], ["8", "8", "8"]],
                        },
                        "value": "1",
                    },
                ),
                (
                    "div;trial=0",
                    {
                        "matrix": {
                            "rows": 3,
                            "cols": 3,
                            "entries": [["-4", "-5", "3"], ["-2", "-6", "-3"], ["4", "-6", "-3"]],
                        },
                        "sum": ["-100", "-150", "-48"],
                        "divisor": ["1", "1"],
                    },
                ),
            ],
        ),
        (
            3,
            3,
            [
                (
                    "div;trial=0",
                    {
                        "matrix": {
                            "rows": 3,
                            "cols": 3,
                            "entries": [["-5", "0", "7"], ["-5", "-7", "-3"], ["8", "-3", "6"]],
                        },
                        "sum": ["-116", "-366", "-244"],
                        "divisor": ["1", "3", "2"],
                    },
                ),
            ],
        ),
    ],
)
def test_weak_alt_witnesses_under_a_broken_class_sum(monkeypatch, capsys, size, k, cases):
    # one class sum off by one in every walk: the duplicated columns no
    # longer vanish at -1/k, by 1, and each of the k! column walks adds 1 to
    # the sum's constant term, so it is no multiple of C_(k)
    _identity_class_plus_one(monkeypatch)
    report = verify_weak_alternating(size, k, trials=1, seed=1)
    assert [(c.id, c.status, c.witness) for c in report.cases] == [
        (case_id, "fail", witness) for case_id, witness in cases
    ]
    capsys.readouterr()
    argv = ["verify", "weak-alt", "--size", str(size), "--k", str(k), "--trials", "1", "--seed", "1"]
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_weak_alt_div_fails_when_the_average_misses_one_root(monkeypatch, k):
    # an average that vanishes at every root -1/j of C_(k) but one is no
    # multiple of it, and one that vanishes at all of them is; the class sum
    # of the type (d + 1, 1, ..., 1) is the coefficient of alpha^d
    size = 6

    def product(factors):
        coefficients = [1]
        for j in factors:
            coefficients = [a + j * b for a, b in zip([*coefficients, 0], [0, *coefficients])]
        return coefficients

    def case(coefficients):
        sums = tuple(((d + 1,) + (1,) * (size - d - 1), c) for d, c in enumerate(coefficients))
        monkeypatch.setattr(verify_module, "_column_average_sums", lambda a, group: (sums, 1))
        return verify_module._weak_alt_case((size, k), ("divisibility", 0, 7))

    divisor = [str(c) for c in product(range(1, k))]  # C_(k)
    for missed in range(1, k):
        coefficients = product(j for j in range(1, k) if j != missed)
        failing = case(coefficients)
        assert failing.status == "fail", missed
        assert failing.witness["sum"] == [str(c) for c in coefficients]
        assert failing.witness["divisor"] == divisor
    assert case(product([*range(1, k), 3])).status == "pass"


def test_fourier_witness_under_a_wrong_jucys_murphy_coefficient(monkeypatch, capsys):
    # one coefficient of the Jucys-Murphy product one too large: the
    # witness is the support and that one mismatch
    real = verify_module.jucys_murphy_product

    def wrong(n):
        product = dict(real(n))
        p = sorted(product)[3]
        product[p] = product[p] + QPoly.one()
        return product

    monkeypatch.setattr(verify_module, "jucys_murphy_product", wrong)
    report = verify_fourier_jm(4, seed=0)
    assert [(c.id, c.status, c.witness) for c in report.cases] == [
        ("expansion", "pass", None),
        (
            "jucys-murphy",
            "fail",
            {"support": 24, "mismatches": [{"perm": "1,3,4,2", "coefficient": ["1", "0", "1"]}]},
        ),
    ]
    capsys.readouterr()
    assert main(["verify", "fourier", "--size", "4", "--seed", "0"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_reports_reproducible_across_runs():
    a = verify_theorem(2, 2, trials=3, seed=11)
    b = verify_theorem(2, 2, trials=3, seed=11)
    assert _stripped(a) == _stripped(b)
    c = verify_theorem(2, 2, trials=3, seed=12)
    assert _stripped(a) != _stripped(c)


@pytest.mark.parametrize("count, failing", [(1, None), (3, None), (10, None), (10, 4), (64, 63)])
def test_runner_runs_each_case_once_in_item_order(count, failing):
    # the runner is a serial map: a case's side effects land in this
    # process, once per item and in item order, and one failure fails the suite
    seen = []

    def case(constants, item):
        seen.append((constants, item))
        return verify_module.CaseResult(f"{constants}{item}", "fail" if item == failing else "pass")

    report = verify_module._run("echo", {}, 0, 0.0, case, "c", list(range(count)))
    assert seen == [("c", i) for i in range(count)]
    assert [c.id for c in report.cases] == [f"c{i}" for i in range(count)]
    assert report.case_count == count
    assert report.status == ("pass" if failing is None else "fail")


_SUITE_RUNS = {
    "theorem": lambda: verify_theorem(2, 2, trials=4, seed=23),
    "omega": lambda: verify_omega(2, 3, g=Perm.from_cycles(6, [(1, 4, 2), (3, 6)]), seed=0),
    "chi": lambda: verify_chi(2, 3, samples=12, seed=5),
    "stanley": lambda: verify_stanley(2, 3, 4, seed=0),
    "zsf": lambda: verify_zsf(2, 3, samples=12, seed=3),
    "weak-alt": lambda: verify_weak_alternating(4, 2, trials=2, seed=1),
    "fourier": lambda: verify_fourier_jm(5, seed=0),
}


@pytest.mark.parametrize("name", list(_SUITE_RUNS))
def test_every_suite_runs_in_the_calling_process(monkeypatch, name):
    # every case of every suite runs in this process, and a rerun gives
    # the same report
    pids = []
    real_run = verify_module._run

    def run_spy(suite, params, seed, t0, case, constants, items):
        def pid_case(constants, item):
            pids.append(os.getpid())
            return case(constants, item)

        return real_run(suite, params, seed, t0, pid_case, constants, items)

    monkeypatch.setattr(verify_module, "_run", run_spy)
    first = _SUITE_RUNS[name]()
    assert first.passed and first.case_count > 0
    assert pids == [os.getpid()] * first.case_count
    assert _stripped(_SUITE_RUNS[name]()) == _stripped(first)


def test_sampled_suites_respect_seed():
    a = verify_chi(2, 3, samples=10, seed=5)
    b = verify_chi(2, 3, samples=10, seed=5)
    c = verify_chi(2, 3, samples=10, seed=6)
    assert _stripped(a) == _stripped(b)
    assert _stripped(a) != _stripped(c)


def test_report_json_schema():
    report = verify_theorem(2, 2, trials=2, seed=1)
    data = json.loads(report.to_json())
    assert set(data) == {
        "suite",
        "params",
        "seed",
        "case_count",
        "cases",
        "status",
        "wall_time_s",
    }
    assert data["suite"] == "theorem"
    assert data["status"] == "pass"
    for case in data["cases"]:
        assert set(case) <= {"id", "status", "witness"}


def test_report_records_construct_by_keyword():
    # the CLI's tests substitute canned reports built this way
    passing = verify_module.CaseResult(id="a", status="pass")
    failing = verify_module.CaseResult("b", "fail", witness={"lhs": "0", "rhs": "1"})
    assert (passing.id, passing.status, passing.witness) == ("a", "pass", None)
    report = verify_module.SuiteReport(
        suite="theorem",
        params={"k": 2},
        seed=7,
        case_count=2,
        cases=[passing, failing],
        status="fail",
        wall_time_s=0.5,
    )
    assert not report.passed
    assert json.loads(report.to_json()) == {
        "suite": "theorem",
        "params": {"k": 2},
        "seed": 7,
        "case_count": 2,
        "cases": [
            {"id": "a", "status": "pass"},
            {"id": "b", "status": "fail", "witness": {"lhs": "0", "rhs": "1"}},
        ],
        "status": "fail",
        "wall_time_s": 0.5,
    }
