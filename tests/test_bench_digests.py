"""The benchmark's workloads still produce their recorded report bytes.

Slot 0 of each workload in perfbench/workloads.py, every slot of
omega-weights, whose P(g) 1_mu sums take both class_sums paths, and every
slot of zsf-sampled, whose three routes read the translate class sums, a
multinomial index and a closed determinant-power coefficient, runs
in-process through the CLI; its report must pass perfbench/gate.py against
the digest recorded in perfbench/digests.json.  Nothing under perfbench/ is
written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from alphadet.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")


def _check_slot(name: str, slot: int, tmp_path, capsys) -> None:
    workload = workloads.WORKLOADS[name]
    report = tmp_path / "report.json"
    exit_code = main([*workloads.suite_argv(workload, slot), "--json", str(report)])
    capsys.readouterr()
    digest = gate.load_digests()[name][slot]
    assert gate.check_run(exit_code, report.read_bytes(), workload.case_count, digest) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_slot_0_report_matches_recorded_digest(name, tmp_path, capsys):
    _check_slot(name, 0, tmp_path, capsys)


@pytest.mark.parametrize("slot", range(1, workloads.DIGEST_SLOTS))
def test_omega_weights_slot_matches_recorded_digest(slot, tmp_path, capsys):
    _check_slot("omega-weights", slot, tmp_path, capsys)


@pytest.mark.parametrize("slot", range(1, workloads.DIGEST_SLOTS))
def test_zsf_sampled_slot_matches_recorded_digest(slot, tmp_path, capsys):
    _check_slot("zsf-sampled", slot, tmp_path, capsys)
