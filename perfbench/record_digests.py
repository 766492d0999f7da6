"""Record the report digest of every (workload, slot) into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose reports are known to be right;
it refuses to record a run that fails any other part of the gate.  Every
workload is re-recorded and the table is written afresh.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import gate
from run import WORK_DIR, Runner
from workloads import DIGEST_SLOTS, WORKLOADS, suite_argv


def record(workload, run: Runner) -> list[str]:
    digests = []
    report = os.path.join(run.workdir, "report.json")
    for slot in range(DIGEST_SLOTS):
        argv = suite_argv(workload, slot)
        result, _, err = run.child("suite", "0", *argv, "--json", report)
        with open(report, "rb") as handle:
            raw = handle.read()
        os.remove(report)
        digest = gate.report_digest(raw)
        exit_code = None if result is None else result["exit_code"]
        problems = gate.check_run(exit_code, raw, workload.case_count, digest)
        if problems:
            raise SystemExit(f"{workload.name} slot {slot}: {problems} {err}")
        digests.append(digest)
        print(f"{workload.name} slot {slot}: {digest}", flush=True)
    return digests


def main() -> int:
    table = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        run = Runner(workdir, deadline=time.monotonic() + 3600)
        for name in sorted(WORKLOADS):
            table[name] = record(WORKLOADS[name], run)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
