"""Output-correctness gate for one `alphadet verify` run.

A run passes when the CLI exited 0, the report says `pass` for the suite
and for every case, it holds the expected number of cases, and its bytes,
with the value of `wall_time_s` masked, hash to the digest recorded for
that (workload, slot).
"""

from __future__ import annotations

import hashlib
import json
import os
import re

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]*')


def report_digest(raw: bytes) -> str:
    """sha256 of the report bytes with the wall-time value masked."""
    masked, count = _WALL_TIME.subn(b'"wall_time_s": null', raw)
    if count != 1:
        raise ValueError(f"report holds {count} wall_time_s fields, expected 1")
    return hashlib.sha256(masked).hexdigest()


def check_run(exit_code: int | None, raw: bytes | None, case_count: int, digest: str) -> list[str]:
    """Every reason the run fails the gate; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if raw is None:
        return problems + ["no report written"]
    try:
        report = json.loads(raw)
        got = report_digest(raw)
    except ValueError as exc:
        return problems + [f"unreadable report: {exc}"]
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    cases = report.get("cases", [])
    if report.get("case_count") != case_count or len(cases) != case_count:
        problems.append(f"case_count {report.get('case_count')} != {case_count}")
    failing = [c.get("id") for c in cases if c.get("status") != "pass"]
    if failing:
        problems.append(f"{len(failing)} cases not pass, first {failing[0]}")
    if got != digest:
        problems.append(f"report digest {got[:12]} != recorded {digest[:12]}")
    return problems


def load_digests() -> dict[str, list[str]]:
    """{workload: [digest per slot]} as recorded by record_digests.py."""
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
