import json
from math import factorial

import pytest

import alphadet.adet as adet_module
import alphadet.characters as characters_module
import alphadet.verify as verify_module
from alphadet.errors import ShapeWeightMismatch, SizeCapExceeded
from alphadet.perms import Perm
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


def test_theorem_cap():
    assert verify_theorem(4, 2, trials=1, seed=0).passed  # kn = 8 is the cap
    with pytest.raises(SizeCapExceeded):
        verify_theorem(3, 3, trials=1, seed=0)


def test_rect_formula_checks_sizes_before_any_work(monkeypatch):
    # the CLI passes any shape here: the checks must reject a huge one before
    # the tableau count, whose cost grows with the number of cells
    def no_work(*args):
        raise AssertionError("size checks must come first")

    monkeypatch.setattr(verify_module, "num_standard_tableaux", no_work)
    with pytest.raises(SizeCapExceeded):
        verify_module.rect_formula_value(9, 1, (9,), Perm.identity(9))
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


def test_omega_case_walks_the_translates_once(monkeypatch):
    # the two-parameter value and the character average share one walk of P(g) 1_mu
    walked = []

    def counting(rows):
        walked.append(rows)
        return real(rows)

    real = adet_module.class_sums
    monkeypatch.setattr(adet_module, "class_sums", counting)
    monkeypatch.setattr(characters_module, "class_sums", counting)
    adet_module.translate_class_sums.cache_clear()
    result = verify_module._omega_case((2, 2, (2, 1, 1), (2, 3, 4, 1)))
    assert result.status == "pass"
    assert len(walked) == 1
    assert adet_module.translate_class_sums.cache_info().maxsize == 1


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


def test_size_caps_are_the_module_constants(monkeypatch):
    # Stanley's cap is CHARACTER_CAP (12); Fourier's message names EXPANSION_CAP;
    # zsf's is ADET_CAP (9): it runs alpha-determinants of kn x kn matrices
    # and never a two-parameter sum; its coefficient-route bound is
    # det_power_coeff's
    assert verify_module.DET_POWER_TERM_CAP is adet_module.DET_POWER_TERM_CAP
    assert adet_module.DET_POWER_TERM_CAP == 10**7
    assert not hasattr(verify_module, "DET_POWER_ROUTE_CAP")
    with monkeypatch.context() as m:
        m.setattr(verify_module, "DET_POWER_TERM_CAP", factorial(4) ** 2 - 1)
        message = r"^\(n!\)\^k exceeds coefficient-route cap 575$"
        with pytest.raises(SizeCapExceeded, match=message):
            verify_zsf(2, 4, samples=1, seed=1)
    assert verify_zsf(3, 3, samples=2, seed=1).passed
    with pytest.raises(SizeCapExceeded, match=r"^kn=10 exceeds cap 9$"):
        verify_zsf(2, 5, samples=1, seed=1)
    assert verify_stanley(11, 1, 1, seed=0).passed
    assert verify_stanley(6, 2, 2, seed=0).passed
    with pytest.raises(SizeCapExceeded, match="character-evaluation cap 12"):
        verify_stanley(13, 1, 1, seed=0)
    with pytest.raises(SizeCapExceeded, match=r"^size=9 exceeds expansion cap 8$"):
        verify_fourier_jm(9, seed=0)


def test_zsf_suite_exhaustive():
    report = verify_zsf(2, 2, seed=0)
    assert report.passed
    assert report.case_count == 24


def test_zsf_suite_sampled_at_six():
    report = verify_zsf(2, 3, samples=40, seed=2)
    assert report.passed
    assert report.case_count == 40


def test_zsf_evaluates_the_replicator_once(monkeypatch):
    # the ratio's denominator wrdet(column_replicator(n, k), k) is the one
    # wrdet call of a suite; each case's numerator reads the class sums that
    # its character average has walked
    calls = []
    real = verify_module.wrdet

    def spy(a, k):
        calls.append(a)
        return real(a, k)

    monkeypatch.setattr(verify_module, "wrdet", spy)
    for samples in (1, 5):
        calls.clear()
        assert verify_zsf(2, 3, samples=samples, seed=4).passed
        assert len(calls) == 1


def test_zsf_walks_the_class_sums_once_per_case(monkeypatch):
    walks = []
    real = adet_module.class_sums

    def spy(rows):
        walks.append(rows)
        return real(rows)

    monkeypatch.setattr(adet_module, "class_sums", spy)
    for samples in (1, 5):
        adet_module.translate_class_sums.cache_clear()
        walks.clear()
        assert verify_zsf(2, 3, samples=samples, seed=4).passed
        assert len(walks) == samples + 1  # and one for the replicator's wrdet


@pytest.mark.parametrize("k, n", [(6, 1), (1, 6)])
def test_zsf_one_block_edges_exhaustive(k, n):
    # one block (n = 1) makes H all of S_6; blocks of one letter (k = 1)
    # make every case a lone determinant coefficient
    report = verify_zsf(k, n, seed=0)
    assert report.passed
    assert report.case_count == 720


def test_zsf_report_identical_with_the_constant_pickled_to_workers():
    serial = verify_zsf(2, 3, workers=1)
    assert serial.passed and serial.case_count == 720
    assert _stripped(verify_zsf(2, 3, workers=2)) == _stripped(serial)


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


def test_reports_reproducible_across_runs():
    a = verify_theorem(2, 2, trials=3, seed=11)
    b = verify_theorem(2, 2, trials=3, seed=11)
    assert _stripped(a) == _stripped(b)
    c = verify_theorem(2, 2, trials=3, seed=12)
    assert _stripped(a) != _stripped(c)


def test_reports_identical_for_any_worker_count():
    serial = verify_zsf(2, 2, seed=3, workers=1)
    for workers in (2, 8):
        parallel = verify_zsf(2, 2, seed=3, workers=workers)
        assert _stripped(serial) == _stripped(parallel)


class _PoolSpy:
    """Serial stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        _PoolSpy.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cases, cpus, expected",
    [(64, 3, 4, [3]), (64, 10, 4, [4]), (2, 10, 4, [2]), (8, 1, 4, []), (8, 5, None, [])],
)
def test_worker_pool_is_clamped(monkeypatch, workers, cases, cpus, expected):
    _PoolSpy.sizes = []
    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: cpus)
    assert verify_module._run_cases(str, list(range(cases)), workers) == [
        str(i) for i in range(cases)
    ]
    assert _PoolSpy.sizes == expected


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
