"""Write the item pools and their golden output digests, golden/<workload>.json.

Usage (from the repository root):

    PYTHONPATH=src python3 benchmarks/make_golden.py [WORKLOAD ...]

Run it only to define new pools: the stored digests pin the outputs of the
library as it was when the pools were written, and every benchmark run is
checked against them.  Each entry is {"item", "weight", "digest"}; the
weight is a deterministic cost proxy used to balance the seeded samples:
the orbit-dimension gap for stalk pairs, the cone-label count for Euler
items, and the number of Python function calls the item makes for moment
batches and CLI commands (counted cold, in a fresh process for the CLI).
"""

import json
import os
import subprocess
import sys
import tempfile

import clirun
import items
from ospkostka import euler, kostka, oddroots, orbits, roots
from pools import GOLDEN_DIR, WORKLOADS, canonical, digest, pool_path
from run import SRC, WORK_ROOT

# stratum -> (N, box) of the orbit labels whose closure pairs form the pool
STALK_STRATA = {"N4": (4, 3), "N5": (5, 2), "N6": (6, 1), "N7": (7, 1)}
# stratum -> (N, box of mu, qmax)
EULER_STRATA = {"N3": (3, 2, 8), "N4": (4, 2, 4), "N5": (5, 2, 2)}
MOMENT_TRIALS = 6
MOMENT_SEEDS = 64

# Runs cli.main on argv under a call counter and writes the count to stderr.
COUNT_CLI_CALLS = """
import sys
from ospkostka import cli
calls = 0
def count(frame, event, arg):
    global calls
    calls += event == "call"
sys.setprofile(count)
try:
    cli.main(sys.argv[1:])
finally:
    sys.setprofile(None)
    sys.stderr.write(f"\\ncalls {calls}\\n")
"""


def fmt(vec):
    return ",".join(map(str, vec))


def spread(seq, k):
    """k entries evenly spaced through seq (deterministic)."""
    return [seq[i * len(seq) // k] for i in range(k)]


def stalk_pool():
    strata = {}
    for stratum, (N, box) in STALK_STRATA.items():
        data = oddroots.osp_root_data(N)
        labels = orbits.orbit_labels_in_box(data, box)
        entries = []
        for lam in labels:
            for mu in labels:
                if orbits.closure_le(data, mu, lam):
                    item = [N, list(lam.lam_s), list(lam.lam_b), list(mu.lam_s), list(mu.lam_b)]
                    weight = orbits.orbit_dim(data, lam) - orbits.orbit_dim(data, mu)
                    entries.append(library_entry("stalk-table", item, weight))
        strata[stratum] = entries
    return strata


def euler_pool():
    strata = {}
    for stratum, (N, box, qmax) in EULER_STRATA.items():
        data = oddroots.osp_root_data(N)
        entries = []
        for mu0 in roots.dominant_weights(data.type0, box):
            for mu1 in roots.dominant_weights(data.type1, box):
                weight = len(euler.dominant_cone_labels(data, (mu0, mu1), qmax))
                entries.append(library_entry("euler-series", [N, list(mu0), list(mu1), qmax], weight))
        strata[stratum] = entries
    return strata


def moment_pool():
    strata = {}
    for N in (3, 4, 5, 6):
        entries = []
        for seed in range(MOMENT_SEEDS):
            item = [N, MOMENT_TRIALS, seed]
            weight = call_count(items.run_item, "moment-trials", item)
            entries.append(library_entry("moment-trials", item, weight))
        strata[f"N{N}"] = entries
    return strata


def call_count(fn, *args):
    """Python function calls made by fn(*args): a cost proxy that does not
    depend on how fast the host runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def cli_call_count(args, uses_cache, cache):
    """call_count of one CLI command, cold, in a fresh process."""
    argv = list(args) + ([f"--cache={cache}"] if uses_cache else [])
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_CLI_CALLS, *argv],
        env=clirun.package_env(SRC), capture_output=True, text=True, check=True,
    )
    return int(proc.stderr.split()[-1])


def library_entry(workload, item, weight):
    return {"item": item, "weight": weight, "digest": digest(items.run_item(workload, item))}


def cli_commands():
    """Command kind -> argument lists.  Weights use --flag=value so that
    negative entries parse."""
    kinds = {k: [] for k in WORKLOADS["cli-cache"]}
    for N in (4, 5, 6):
        data = oddroots.osp_root_data(N)
        weights = [
            (lam0, lam1)
            for lam0 in roots.dominant_weights(data.type0, 1)
            for lam1 in roots.dominant_weights(data.type1, 1)
        ]
        pairs = [
            (l, m)
            for l in weights
            for m in weights
            if l != m and oddroots.dominance_ge(data, l, m) and kostka(data, l, m)
        ]
        for lam, mu in spread(pairs, 3):
            kinds["kostka"].append(
                ["kostka", "-N", str(N), f"--lambda={fmt(lam[0])};{fmt(lam[1])}", f"--mu={fmt(mu[0])};{fmt(mu[1])}"]
            )
        labels = orbits.orbit_labels_in_box(data, 1)
        closure = [(l, m) for l in labels for m in labels if l != m and orbits.closure_le(data, m, l)]
        for lam, mu in spread(closure, 2):
            kinds["stalk"].append(["stalk", "-N", str(N), f"--lambda={lam}", f"--mu={mu}"])
    for N, box in ((3, 2), (4, 1), (4, 2), (5, 1)):
        kinds["verify-positivity"].append(["verify-positivity", "-N", str(N), "--box", str(box)])
    for N, mu, qmax in ((3, "0;0", 4), (3, "0;0", 6), (3, "1;1", 4), (3, "1;1", 6), (4, "0,0;0", 3), (4, "1,0;1", 3)):
        kinds["verify-bryl"].append(["verify-bryl", "-N", str(N), f"--mu={mu}", "--qmax", str(qmax)])
    for N in (3, 4, 5):
        data = oddroots.osp_root_data(N)
        weights = [
            f"{fmt(lam0)};{fmt(lam1)}"
            for lam0 in roots.dominant_weights(data.type0, 2)
            for lam1 in roots.dominant_weights(data.type1, 2)
        ]
        for lam, mu in spread([(a, b) for a in weights for b in weights], 2):
            kinds["dominance"].append(["dominance", "-N", str(N), f"--lambda={lam}", f"--mu={mu}"])
    for family, rank, lam in (("C", 1, "3"), ("C", 2, "2,1"), ("C", 3, "1,1,0"), ("D", 2, "1,1"),
                              ("D", 3, "2,1,0"), ("D", 3, "1,1,-1")):
        kinds["char"].append(["char", "--type", family, "--rank", str(rank), f"--lambda={lam}"])
    for N, box in ((3, 1), (3, 2), (4, 1), (4, 2)):
        kinds["poset"].append(["poset", "-N", str(N), "--box", str(box)])
    for family, rank in (("C", 2), ("D", 3), ("C", 3)):
        kinds["roots"].append(["roots", "--family", family, "--rank", str(rank)])
    for N in (4, 5, 6):
        kinds["roots"].append(["roots", "-N", str(N), "--odd"])
    return kinds


def cli_pool():
    """Each command runs cold and then warm on one cache file; both runs
    must print the same thing, and that output is the golden one."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    strata = {}
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for kind, commands in cli_commands().items():
            uses_cache = WORKLOADS["cli-cache"][kind][1] > 1
            entries = []
            for n, args in enumerate(commands):
                weight = cli_call_count(args, uses_cache, os.path.join(tmp, f"{kind}-{n}-count.json"))
                ctx = clirun.CliContext(env=clirun.package_env(SRC), cache=os.path.join(tmp, f"{kind}-{n}.json"))
                cold = clirun.cli_item(ctx, args, uses_cache)
                warm = clirun.cli_item(ctx, args, uses_cache)
                if cold != warm:
                    raise SystemExit(f"cached output differs for {args}")
                entries.append({"item": {"args": args, "cache": uses_cache}, "weight": weight, "digest": digest(cold)})
            strata[kind] = entries
    return strata


BUILDERS = {
    "stalk-table": stalk_pool,
    "euler-series": euler_pool,
    "moment-trials": moment_pool,
    "cli-cache": cli_pool,
}


def main(names):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in names or list(BUILDERS):
        strata = BUILDERS[workload]()
        for stratum, entries in strata.items():
            entries.sort(key=lambda e: canonical(e["item"]))
        blocks = [
            f"{json.dumps(stratum)}: [\n" + ",\n".join(canonical(e) for e in entries) + "\n]"
            for stratum, entries in strata.items()
        ]
        with open(pool_path(workload), "w", encoding="utf-8") as fh:
            fh.write(f'{{"workload": {json.dumps(workload)}, "strata": {{\n' + ",\n".join(blocks) + "\n}}\n")
        print(workload, {s: len(e) for s, e in strata.items()})


if __name__ == "__main__":
    main(sys.argv[1:])
