"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_bench.py
"""

import importlib
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pools  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Recorder  # noqa: E402

# Cheap strata, so that each test pass stays within a few seconds.
SMALL_STRATA = {
    "stalk-table": {"N4", "N5"},
    "euler-series": {"N3"},
    "moment-trials": {"N3", "N4"},
    "cli-cache": set(pools.WORKLOADS["cli-cache"]),
}
EXACT_UNITS = {"count", "ratio", "bytes"}


def small_items(workload, seed=0, k=6):
    return [e for e in pools.sample(workload, seed) if e["stratum"] in SMALL_STRATA[workload]][:k]


def run_pass(workload, items, traced):
    return run.run_pass(workload, items, traced, time.monotonic() + 120)


@pytest.mark.parametrize("workload", list(pools.WORKLOADS))
def test_sample_is_a_function_of_the_seed(workload):
    first = pools.sample(workload, 11)
    assert first == pools.sample(workload, 11)
    assert first != pools.sample(workload, 12)
    spec = pools.WORKLOADS[workload]
    assert len(first) == sum(count * repeats for count, repeats in spec.values())
    for stratum, (count, repeats) in spec.items():
        drawn = [pools.canonical(e["item"]) for e in first if e["stratum"] == stratum]
        assert len(drawn) == count * repeats
        assert len(set(drawn)) == count


@pytest.mark.parametrize("workload", list(pools.WORKLOADS))
def test_traced_outputs_equal_untraced_and_golden(workload):
    items = small_items(workload)
    plain = run_pass(workload, items, traced=False)
    traced = run_pass(workload, items, traced=True)
    assert plain["errors"] == traced["errors"] == []
    assert plain["digests"] == traced["digests"] == [e["digest"] for e in items]


@pytest.mark.parametrize("workload", list(pools.WORKLOADS))
def test_layer_counts_repeat_across_traced_runs(workload):
    items = small_items(workload)
    exact = [name for name, unit in LAYER_METRICS if unit in EXACT_UNITS]
    first = run_pass(workload, items, traced=True)
    second = run_pass(workload, items, traced=True)
    assert first["missing_targets"] == second["missing_targets"] == []
    first, second = first["layers"], second["layers"]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_layer_isolation():
    moment = run_pass("moment-trials", small_items("moment-trials"), traced=True)["layers"]
    assert moment["oddroots.cone_calls"] == moment["kostka.weyl_pairs"] == 0
    assert moment["moment.mat_mul_calls"] > 0
    stalk = run_pass("stalk-table", small_items("stalk-table"), traced=True)["layers"]
    assert stalk["moment.mat_mul_calls"] == stalk["characters.irreducible_calls"] == 0
    assert stalk["kostka.weyl_pairs"] > 0


def test_wrappers_return_the_unwrapped_results_and_uninstall():
    import ospkostka
    from ospkostka import euler, oddroots, orbits

    kostka = importlib.import_module("ospkostka.kostka")  # the package attribute is the function
    data = oddroots.osp_root_data(4)
    lam, mu = ((1, 0), (1,)), ((0, 0), (0,))
    originals = (kostka.kostka, orbits.kostka, euler.kostka, ospkostka.kostka)
    expected = kostka.kostka(data, lam, mu)
    recorder = Recorder()
    recorder.install()
    try:
        assert recorder.missing == []
        assert orbits.kostka is not originals[1] and euler.kostka is not originals[2]
        assert ospkostka.kostka(data, lam, mu) == expected
        assert euler.verify_bryl(data, mu, 2).ok
        assert "kostka.kostka" in recorder.names
    finally:
        recorder.uninstall()
    assert (kostka.kostka, orbits.kostka, euler.kostka, ospkostka.kostka) == originals


def test_fails_without_the_package():
    """In a directory holding only the benchmark files the run must fail
    without printing a result."""
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "moment-trials", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
