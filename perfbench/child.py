"""One fresh benchmark process.  run.py starts it; it is not meant to be
run by hand.

    python3 perfbench/child.py OUT setup
    python3 perfbench/child.py OUT suite TRACE ALPHADET_ARGV...
    python3 perfbench/child.py OUT kernels SEED REPEATS

It imports alphadet from the checkout's src/ (never from an installed
copy), notes the monotonic time at which `alphadet.cli` is ready, does
the work of its mode and writes one JSON object to OUT at the end.

A setup probe and a suite process also measure the machine's current
speed with the reference unit of speed.py: a probe times PROBE_REF_UNITS
units right after the import, a suite process samples them on a side
thread while the suite runs.  run.py divides by that speed (see there).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import alphadet.cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

from speed import SpeedSampler, timed_units  # noqa: E402

PROBE_REF_UNITS = 8


def main(argv: list[str]) -> int:
    if not os.path.abspath(alphadet.cli.__file__).startswith(SRC + os.sep):
        print(f"alphadet imported from {alphadet.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    out_path, mode, *rest = argv
    result: dict = {"ready": READY}
    if mode == "suite":
        trace, cli_argv = rest[0] == "1", rest[1:]
        if trace:
            from tracer import LAYERS, SUITES, Tracer

            tracer = Tracer()
            tracer.install(SUITES + LAYERS)
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            result["exit_code"] = alphadet.cli.main(cli_argv)
            result["verdict_s"] = time.perf_counter() - t0
        result["ref_unit_s"] = speed.mean_s()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            tracer.uninstall()
            result["spans"] = tracer.spans
    elif mode == "setup":
        result["ref_unit_s"] = timed_units(PROBE_REF_UNITS)
    elif mode == "kernels":
        import kernels

        result["kernels"], result["problems"] = kernels.run(int(rest[0]), int(rest[1]))
    result.setdefault("maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
