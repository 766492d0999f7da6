"""The benchmark's workloads still produce their recorded report bytes.

Every input slot of every workload in perfbench/workloads.py runs
in-process through the CLI; its report must pass perfbench/gate.py against
the digest recorded in perfbench/digests.json.  Nothing under perfbench/ is
written.  The last test covers the slots that the first three leave over.
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


@pytest.mark.parametrize(
    "name, slot",
    [
        (name, slot)
        for name in sorted(workloads.WORKLOADS)
        if name not in ("omega-weights", "zsf-sampled")
        for slot in range(1, workloads.DIGEST_SLOTS)
    ],
)
def test_remaining_slot_matches_recorded_digest(name, slot, tmp_path, capsys):
    _check_slot(name, slot, tmp_path, capsys)
