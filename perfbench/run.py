"""Suite-level benchmark for `alphadet verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed run of `alphadet verify`
(through `alphadet.cli.main`, `--workers 1`) is a fresh Python process, as
it is for a user of the CLI, so imports and cold caches count.

--trace 0 reports the end-to-end metrics, medians over the processes of
the run:
  verdict_s    suite call to finished report, inside the process;
  setup_s      process spawn until `alphadet.cli` is imported, in rounds
               of PROBES_PER_SUITE probe processes around the suites;
  peak_rss_mb  peak resident memory of the suite process.
The speed of a shared machine drifts: on a 2-vCPU VM the same suite process
took from 4.5 s to 7.1 s within two minutes.  So each process also measures
the machine's speed with a fixed pure-Python reference unit (speed.py), on
a side thread while the suite runs and right after the import in a probe,
and verdict_s and setup_s are reference-normalized seconds: measured
seconds times REF_NOMINAL_S over the process's mean reference-unit time,
i.e. seconds on a machine that runs one reference unit in 6 ms.  The raw
medians are in the provenance line, and so is the median ratio of each
suite process's own unit time to that of the probes just before and after
it, outside the process: it stays near 1 unless the suite's process
disturbs its own reference.
--trace 1 re-measures the kernel rows of the ROADMAP baseline table in one
fresh process, then alternates untraced processes with processes in which
tracer.py records a span around every call of the traced layers, and
reports the per-layer metrics.  Their times are raw seconds of the traced
process, except trace.overhead_s, which is normalized as verdict_s is.

Every suite run goes through the gate in gate.py; runs that miss it count
as failed.  The last line of standard output is the JSON result; a
provenance line precedes it.  Timings are taken on a machine that is not
isolated, and the benchmark changes no machine setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(HERE, ".work")
# an installed CLI imports from bytecode caches, so children may write them
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

import gate  # noqa: E402
import kernels  # noqa: E402
import tracer  # noqa: E402
from workloads import DIGEST_SLOTS, WORKLOADS, slot_of, suite_argv  # noqa: E402

PROBES_PER_SUITE = 3
REF_NOMINAL_S = 0.006  # CPU seconds per reference unit that times are scaled to
MIN_TIMED_RUNS = 3
KERNEL_REPEATS = 3
RUN_BUDGET_S = 170  # every run ends well within 180 s

END_TO_END = [("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
TIMED_LAYERS = [
    "adet.adet2_structured",
    "adet.adet_poly",
    "adet.adet_at",
    "characters.subgroup_averaged_character",
]
REPEAT_RATIOS = [
    ("adet.adet_at.repeat_ratio", "adet.adet_at"),
    ("characters.character.repeat_ratio", "characters.character"),
    ("adet.adet2_structured.class_repeat_ratio", "adet.adet2_structured"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric --trace 1 reports."""
    out = []
    for _module, _path, name, _key in tracer.LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    for name in TIMED_LAYERS:
        out += [(f"{name}.p50_ms", "ms"), (f"{name}.p90_ms", "ms")]
    out += [(f"{name}.self_s", "s") for _m, _p, name, _k in tracer.SUITES]
    out += [(name, "ratio") for name, _layer in REPEAT_RATIOS]
    out += [
        ("trace.overhead_s", "s"),
        ("trace.layer_share", "ratio"),
        ("fail_ratio", "ratio"),
    ]
    return out + kernels.ROWS


def normalized(seconds: float, ref_unit_s: float) -> float:
    """Seconds scaled to a machine that runs one reference unit in REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_unit_s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def child(self, *args: str) -> tuple[dict | None, float, str]:
        """Run child.py; (its result or None, spawn time, stderr tail)."""
        self.count += 1
        out = os.path.join(self.workdir, f"child-{self.count}.json")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, CHILD, out, *args],
            cwd=ROOT,
            env=CHILD_ENV,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        result = None
        if proc.returncode == 0 and os.path.exists(out):
            with open(out, "r", encoding="utf-8") as handle:
                result = json.load(handle)
            os.remove(out)
        return result, spawned, proc.stderr.decode(errors="replace")[-2000:]

    def suite(self, argv: list[str], trace: bool, case_count: int, digest: str):
        """One gated suite run: (child result or None, spawn time, problems)."""
        report = os.path.join(self.workdir, "report.json")
        result, spawned, err = self.child("suite", "1" if trace else "0", *argv, "--json", report)
        raw = None
        if os.path.exists(report):
            with open(report, "rb") as handle:
                raw = handle.read()
            os.remove(report)
        exit_code = None if result is None else result["exit_code"]
        problems = gate.check_run(exit_code, raw, case_count, digest)
        if result is None:
            problems.append(f"process failed: {err.strip()}")
        return result, spawned, problems


def provenance() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            source.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                source.update(handle.read())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "timings": "unisolated: shared machine, no CPU pinning or governor control",
        "kernel_repeats": KERNEL_REPEATS,
    }


def probe_round(run: Runner, setup: list, raw_setup: list) -> float:
    """PROBES_PER_SUITE setup probes; the mean of their reference-unit times."""
    refs = []
    for _ in range(PROBES_PER_SUITE):
        result, spawned, err = run.child("setup")
        if result is None:
            raise BenchError(f"setup probe failed: {err.strip()}")
        raw_setup.append(result["ready"] - spawned)
        setup.append(normalized(raw_setup[-1], result["ref_unit_s"]))
        refs.append(result["ref_unit_s"])
    return sum(refs) / len(refs)


def measure_end_to_end(run: Runner, workload, seed: int, digests, seconds: float):
    """Probe rounds and timed suite processes in turn until the time is spent."""
    start = time.monotonic()
    warm, _, err = run.child("setup")  # also compiles bytecode; not counted
    if warm is None:
        raise BenchError(f"cannot import alphadet from {ROOT}/src: {err.strip()}")
    verdict, setup, rss, raw, raw_setup, outcomes = [], [], [], [], [], []
    inside_over_outside = []
    ref_before = probe_round(run, setup, raw_setup)
    took = 0.0
    while len(outcomes) < MIN_TIMED_RUNS or time.monotonic() + took < start + seconds:
        t0 = time.monotonic()
        slot = slot_of(seed, len(outcomes))
        argv = suite_argv(workload, slot)
        result, _, problems = run.suite(argv, False, workload.case_count, digests[slot])
        outcomes.append(problems)
        ref_after = probe_round(run, setup, raw_setup)
        if result is not None:
            verdict.append(normalized(result["verdict_s"], result["ref_unit_s"]))
            inside_over_outside.append(result["ref_unit_s"] * 2 / (ref_before + ref_after))
            raw.append(result["verdict_s"])
            rss.append(result["maxrss_kb"] / 1024)
        ref_before = ref_after
        took = time.monotonic() - t0
    if not verdict:
        raise BenchError(f"no suite run finished: {outcomes[0]}")
    metrics = {
        "verdict_s": statistics.median(verdict),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "raw_verdict_s_median": statistics.median(raw),
        "raw_setup_s_median": statistics.median(raw_setup),
        "ref_inside_over_outside_median": statistics.median(inside_over_outside),
        "verdict_samples": len(verdict),
        "setup_samples": len(setup),
    }
    return metrics, outcomes, notes


def trace_metrics(spans, verdict_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process."""
    rows = tracer.summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "keys": []}
    out: dict[str, float] = {}
    for _module, _path, name, _key in tracer.LAYERS:
        row = rows.get(name, empty)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.total_s"] = row["total_s"]
        out[f"{name}.self_s"] = row["self_s"]
    for name in TIMED_LAYERS:
        durations = rows.get(name, empty)["durations"]
        out[f"{name}.p50_ms"] = tracer.percentile(durations, 0.5) * 1e3
        out[f"{name}.p90_ms"] = tracer.percentile(durations, 0.9) * 1e3
    for _module, _path, name, _key in tracer.SUITES:
        out[f"{name}.self_s"] = rows.get(name, empty)["self_s"]
    for metric, name in REPEAT_RATIOS:
        out[metric] = tracer.repeat_ratio(rows.get(name, empty)["keys"])
    layer_self_s = sum(rows.get(name, empty)["self_s"] for _m, _p, name, _k in tracer.LAYERS)
    out["trace.layer_share"] = layer_self_s / verdict_s
    return out


def measure_layers(run: Runner, workload, seed: int, digests, seconds: float):
    """Kernel rows, then untraced and traced suite processes in turn."""
    start = time.monotonic()
    result, _, err = run.child("kernels", str(seed), str(KERNEL_REPEATS))
    if result is None:
        raise BenchError(f"kernel process failed: {err.strip()}")
    metrics = dict(result["kernels"])
    outcomes = [[f"kernel row: {p}" for p in result["problems"]]]
    overheads, traced, took = [], [], 0.0
    # at least the kernel process and one untraced-traced pair
    while len(outcomes) < 3 or time.monotonic() + took < start + seconds:
        t0 = time.monotonic()
        slot = slot_of(seed, (len(outcomes) - 1) // 2)
        argv = suite_argv(workload, slot)
        pair = []
        for trace in (False, True):
            result, _, problems = run.suite(argv, trace, workload.case_count, digests[slot])
            outcomes.append(problems)
            pair.append(result)
        plain, with_spans = pair
        if with_spans is not None:
            traced.append(trace_metrics(with_spans["spans"], with_spans["verdict_s"]))
            if plain is not None:
                overheads.append(
                    normalized(with_spans["verdict_s"], with_spans["ref_unit_s"])
                    - normalized(plain["verdict_s"], plain["ref_unit_s"])
                )
        took = time.monotonic() - t0
    if not overheads:
        raise BenchError(f"no suite run finished: {outcomes[1:]}")
    for name in traced[0]:
        metrics[name] = statistics.median(t[name] for t in traced)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    notes = {"traced_samples": len(traced), "pairs": len(overheads)}
    return metrics, outcomes, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    began = time.monotonic()
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "alphadet")):
            raise BenchError(f"no alphadet sources under {ROOT}/src")
        try:
            digests = gate.load_digests()[workload.name]
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"no recorded report digests for {workload.name}: {exc!r}") from exc
        if len(digests) != DIGEST_SLOTS:
            raise BenchError(f"{len(digests)} recorded digests for {workload.name}")
        info = provenance()
        os.makedirs(WORK_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            run = Runner(workdir, began + RUN_BUDGET_S)
            measure = measure_layers if args.trace else measure_end_to_end
            metrics, outcomes, notes = measure(run, workload, args.seed, digests, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(outcomes)
    failed = sum(1 for problems in outcomes if problems)
    for problems in outcomes:
        for problem in problems:
            print(f"perfbench: gate: {problem}", file=sys.stderr)
    if args.trace:
        metrics["fail_ratio"] = failed / attempted
        names = per_layer_metrics()
    else:
        names = END_TO_END
    info.update(
        workload=workload.name,
        seed=args.seed,
        first_argv=suite_argv(workload, slot_of(args.seed, 0)),
        fail_ratio=failed / attempted,
        elapsed_s=time.monotonic() - began,
        **notes,
    )
    print("# provenance " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
