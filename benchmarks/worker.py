"""One pass of a workload in a fresh interpreter, so every memo starts cold.

Usage: python worker.py SPEC_JSON

The spec names the workload, the item list, whether to trace, and a private
work directory.  The worker sets up, runs the items one at a time in list
order (a closed loop with one client), then writes per-item latencies and
output digests to ``result.json`` in the work directory.

Times are CPU seconds (this process plus its waited-for children) scaled to
a fixed host speed.  The host this was written on changes speed by up to
1.7x, within a second as well as in phases lasting minutes, and CPU time
changes with it, so the worker runs a fixed reference kernel every
REF_EVERY_S and divides each item's CPU time by the mean of the two readings
that bracket it.  A time is reported as ``cpu * NOMINAL_REF_S / reading``:
what the item takes on a host where the reference kernel takes
NOMINAL_REF_S.  The raw readings go out with the result, so the scaling can
be checked.
"""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

from pools import digest

REF_EVERY_S = 0.1  # wall seconds between reference readings
NOMINAL_REF_S = 0.0033  # reference kernel time at the nominal host speed


def reference_kernel():
    """Fixed pure-Python work like the library's: Fraction matrix products
    and a tuple-keyed dict.  Never changes with the program under test."""
    a = [[Fraction(i * 7 + j + 1, j + 2) for j in range(6)] for i in range(6)]
    for _ in range(2):
        a = [[sum(a[i][k] * a[k][j] for k in range(6)) / 97 for j in range(6)] for i in range(6)]
    memo = {}
    for i in range(1500):
        key = (i % 17, (i * 7) % 23, i % 5)
        memo[key] = memo.get(key, 0) + len(key)
    return a[0][0], len(memo)


def reference_s():
    """One reading of host speed: the faster of two kernel runs, CPU time."""
    best = None
    for _ in range(2):
        start = time.process_time()
        reference_kernel()
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return best


def cpu_s():
    """CPU seconds of this process and of its finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload, workdir = spec["workload"], spec["workdir"]
    recorder = None
    cache = None
    if workload == "cli-cache":
        import clirun

        cache = os.path.join(workdir, "cache.json")
        ctx = clirun.CliContext(
            env=clirun.package_env(spec["src"]),
            cache=cache,
            spans_dir=workdir if spec["trace"] else None,
        )
        # Set-up of a CLI item is its process start and package import;
        # time one such child so that setup_s covers the program.
        subprocess.run([sys.executable, "-c", "import ospkostka.cli"], env=ctx.env, check=True)

        def run(item):
            return clirun.cli_item(ctx, item["args"], item["cache"])

    else:
        if spec["trace"]:
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
        import items

        items.prepare(workload)

        def run(item):
            return items.run_item(workload, item)

    setup_cpu = cpu_s()

    readings = [reference_s()]
    last_reading = time.perf_counter()
    marks, cpu_times, outputs, errors = [], [], [], []
    wall_run_s = 0.0
    for idx, entry in enumerate(spec["items"]):
        if time.perf_counter() - last_reading > REF_EVERY_S:
            readings.append(reference_s())
            last_reading = time.perf_counter()
        marks.append(len(readings) - 1)
        start, wall_start = cpu_s(), time.perf_counter()
        try:
            outputs.append(run(entry["item"]))
        except Exception as exc:  # one failed item must not end the pass
            outputs.append(None)
            errors.append(f"item {idx}: {type(exc).__name__}: {exc}")
        cpu_times.append(cpu_s() - start)
        wall_run_s += time.perf_counter() - wall_start
    readings.append(reference_s())
    latencies = [
        t * NOMINAL_REF_S / ((readings[m] + readings[m + 1]) / 2) for t, m in zip(cpu_times, marks)
    ]

    # Children inherit the parent's high-water mark in ru_maxrss, so the
    # worker reads its own peak from /proc; a CLI child's maxrss includes the
    # small worker only, below the child's own peak.
    usage = max(own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_cpu * NOMINAL_REF_S / readings[0],
        "run_s": sum(latencies),
        "cpu_run_s": sum(cpu_times),
        "wall_run_s": wall_run_s,
        "latencies": latencies,
        "reference_s": readings,
        "digests": [None if out is None else digest(out) for out in outputs],
        "errors": errors,
        "peak_rss_mb": usage / 1024.0,
    }
    if cache is not None:
        result["cache_bytes"], result["cache_entries"] = cache_size(cache)
    if recorder is not None:
        recorder.dump(os.path.join(workdir, "spans.json"))
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def own_peak_rss_kb():
    """Peak resident set of this process image in KiB (VmHWM, Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cache_size(path):
    """Bytes and entry count of the CLI cache file (0, 0 when absent)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return 0, 0
    try:
        entries = json.loads(text).get("entries", {})
    except (ValueError, AttributeError):
        entries = {}
    return len(text.encode("utf-8")), len(entries) if isinstance(entries, dict) else 0


if __name__ == "__main__":
    main(sys.argv[1])
