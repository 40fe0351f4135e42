"""Benchmark of the ospkostka library and CLI, measured from outside.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

One run draws the workload's item list from the seed, then repeats passes
over that list until the time budget is spent.  Each pass is a fresh
interpreter (``worker.py``) with one closed-loop client: an item starts when
the previous one has finished.  Every item output is compared with its
golden digest; an item that raises, exits non-zero or mismatches is failed.
Times are CPU seconds scaled to a fixed host speed (see ``worker.py``).

With ``--trace 0`` the last line of stdout is the end-to-end metrics (medians
over the passes; item quantiles of each item's median over the passes).  With ``--trace 1`` untraced and traced passes alternate
and the last line holds the per-layer metrics of the traced passes,
``trace.overhead_frac`` and the source line counts.  The line before it
records the environment, the seed and how the tail percentile was taken.
``--workload all`` prints a table of every end-to-end metric, with
``fail_frac``, for every workload.
"""

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from clirun import package_env
from pools import WORKLOADS, sample
from tracer import LAYER_METRICS, MODULES, Totals, layer_metrics
from worker import NOMINAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ospkostka")
WORK_ROOT = os.path.join(HERE, ".work")

MIN_PASSES = 3
SETUP_SAMPLES = 9  # passes plus set-up-only workers, for a steadier setup_s median
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0  # a run must end well inside 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
LOC_METRICS = tuple((f"loc.{m}", "lines") for m in MODULES) + (("loc.total", "lines"),)


class PassFailed(RuntimeError):
    """A worker process crashed or ran past the deadline."""


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def run_pass(workload, items, traced, deadline):
    """Run one pass in a fresh worker; return its result dict with the
    per-layer metrics attached when traced."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=WORK_ROOT)
    try:
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"workload": workload, "items": items, "trace": traced, "workdir": workdir, "src": SRC},
                fh,
            )
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            cwd=ROOT, env=package_env(SRC), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed("worker ran past the deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise PassFailed(f"worker exit {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if traced:
            result["layers"], result["missing_targets"] = traced_layers(workload, workdir, result)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_layers(workload, workdir, result):
    totals = Totals()
    if workload == "cli-cache":
        for name in sorted(os.listdir(workdir)):
            if name.startswith("cli-") and name.endswith(".json"):
                totals.add_file(os.path.join(workdir, name))
        cli = {
            "wall_s": result["wall_run_s"],
            "cache_bytes": result["cache_bytes"],
            "cache_entries": result["cache_entries"],
        }
        return layer_metrics(totals, cli), sorted(totals.missing)
    totals.add_file(os.path.join(workdir, "spans.json"))
    return layer_metrics(totals), sorted(totals.missing)


def failures(result, items):
    """Items of one pass that raised, exited non-zero or mismatched golden."""
    return sum(
        1 for got, entry in zip(result["digests"], items) if got is None or got != entry["digest"]
    )


def tail_rank(n):
    """0-based rank of the highest percentile with TAIL_BEYOND samples beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def item_metrics(passes):
    """Quantiles of each item's median time over the passes.  Every pass
    runs the same items in the same order, so item k is one item throughout,
    and its median is steadier than any one pass's reading of it."""
    lat = sorted(statistics.median(times) for times in zip(*(r["latencies"] for r in passes)))
    n = len(lat)
    return {"item_p50_ms": 1e3 * lat[math.ceil(n / 2) - 1], "item_tail_ms": 1e3 * lat[tail_rank(n)]}


def median_metrics(per_pass, names):
    return {name: statistics.median(p[name] for p in per_pass) for name in names}


def loc_counts():
    counts = {}
    for module in MODULES:
        path = os.path.join(PACKAGE, f"{module}.py")
        counts[f"loc.{module}"] = line_count(path) if os.path.exists(path) else 0
    counts["loc.total"] = sum(
        line_count(os.path.join(PACKAGE, name))
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py")
    )
    return counts


def line_count(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def measure(workload, seed, seconds, trace):
    """Run passes for about `seconds`; return (result line, info dict)."""
    items = sample(workload, seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    attempted = failed = 0
    errors = []
    kinds = (False, True) if trace else (False,)
    needed = MIN_TRACED_PAIRS if trace else MIN_PASSES
    broken = False
    while not broken:
        for is_traced in kinds:
            attempted += len(items)
            try:
                result = run_pass(workload, items, is_traced, deadline)
            except PassFailed as exc:
                failed += len(items)
                errors.append(str(exc))
                broken = True
                break
            failed += failures(result, items)
            errors.extend(result["errors"][:3])
            (traced if is_traced else plain).append(result)
        rounds = len(plain)
        elapsed = time.monotonic() - start
        if rounds >= needed and elapsed * (rounds + 1) / rounds > seconds:
            break
    setups = [r["setup_s"] for r in plain]
    while plain and not broken and len(setups) < SETUP_SAMPLES:
        try:
            setups.append(run_pass(workload, [], False, deadline)["setup_s"])
        except PassFailed as exc:
            errors.append(str(exc))
            attempted += 1
            failed += 1
            broken = True

    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "pass_run_s": [round(r["run_s"], 4) for r in plain],
        "pass_cpu_run_s": [round(r["cpu_run_s"], 4) for r in plain],
        "pass_wall_run_s": [round(r["wall_run_s"], 4) for r in plain],
        "pass_reference_ms": [round(1e3 * statistics.median(r["reference_s"]), 3) for r in plain],
        "nominal_reference_ms": 1e3 * NOMINAL_REF_S,
        "items_per_pass": len(items),
        "item_tail_percentile": round(100.0 * (tail_rank(len(items)) + 1) / len(items), 2),
        "item_tail_samples_beyond": len(items) - tail_rank(len(items)) - 1,
        "fail_frac": failed / attempted if attempted else 1.0,
        "errors": errors[:5],
    }
    if trace:
        # Wrap targets the library lacks read as zero; a non-empty list
        # means the per-layer metrics under those names measure nothing.
        info["missing_targets"] = sorted({m for r in traced for m in r["missing_targets"]})
    metrics = {}
    if plain and (traced or not trace):
        plain_metrics = median_metrics(plain, ["run_s", "peak_rss_mb"])
        plain_metrics.update(item_metrics(plain))
        plain_metrics["setup_s"] = statistics.median(setups)
        if trace:
            layers = median_metrics([r["layers"] for r in traced], [n for n, _ in LAYER_METRICS])
            traced_run = statistics.median(r["run_s"] for r in traced)
            layers["trace.overhead_frac"] = traced_run / plain_metrics["run_s"] - 1.0
            layers.update(loc_counts())
            units = dict(LAYER_METRICS + (("trace.overhead_frac", "ratio"),) + LOC_METRICS)
            metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        else:
            units = dict(END_TO_END)
            metrics = {name: {"value": value, "unit": units[name]} for name, value in plain_metrics.items()}
    correct = failed == 0 and bool(metrics)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, info


def print_table(seed, seconds):
    """Every end-to-end metric for every workload, with fail_frac."""
    all_ok = True
    print(json.dumps({"environment": environment(), "seed": seed, "seconds": seconds}))
    names = [n for n, _ in END_TO_END]
    units = dict(END_TO_END)
    header = f"{'workload':<15}" + "".join(f"{n + ' [' + units[n] + ']':>20}" for n in names)
    print(header + f"{'fail_frac [ratio]':>20}")
    for workload in WORKLOADS:
        line, info = measure(workload, seed, seconds, trace=False)
        all_ok = all_ok and line["correct"]
        cells = "".join(
            f"{line['metrics'][n]['value']:>20.4f}" if n in line["metrics"] else f"{'-':>20}" for n in names
        )
        print(f"{workload:<15}{cells}{info['fail_frac']:>20.4f}")
        print(
            f"{'':<15}item_tail_ms is p{info['item_tail_percentile']} of {info['items_per_pass']} items "
            f"({info['item_tail_samples_beyond']} beyond), median over {info['passes']} passes"
        )
    return 0 if all_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through run_pass, which kills its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(PACKAGE, quiet=1) or not compileall.compile_dir(HERE, quiet=1, maxlevels=0):
        print("error: package source does not compile", file=sys.stderr)
        return 2
    if args.workload == "all":
        return print_table(args.seed, args.seconds)
    line, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
