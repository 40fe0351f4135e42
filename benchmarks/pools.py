"""Workload definitions and the seeded item lists drawn from the stored pools.

Each workload draws its items from a pool file, ``golden/<workload>.json``,
written by ``make_golden.py``.  A pool is split into strata (by N, or by CLI
command kind); every entry holds the item, a cost proxy ``weight`` and the
golden digest of the item's output.  This module imports nothing from the
library, so item lists can be drawn before the program under test loads.

Sampling is balanced: each stratum's entries are sorted by weight and cut
into as many contiguous bins as items are drawn, and the seed picks one
entry per bin.  Every seed therefore carries the same mix of small and large
items, which keeps run time comparable across seeds while the items differ.
The run order is one fixed shuffle of these (stratum, bin) slots per
workload, the same for every seed: items share memo state with the items
run before them, so a seed-dependent order would move item times too.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# stratum -> (items drawn per pass, times each drawn item is run)
WORKLOADS = {
    # Mostly N=4-5 closure pairs, with the median near the middle of the N=5
    # items; the N=6-7 share is large enough that the tail percentile (ten
    # samples beyond it) lands inside the N=7 items.
    "stalk-table": {"N4": (32, 1), "N5": (160, 1), "N6": (10, 1), "N7": (20, 1)},
    # One mu per item against every lambda of its cone.  N=5 draws 21, so the
    # tail (ten samples beyond it) is the median N=5 item, and the median item
    # is a mid-cost N=4 one, drawn from 20 of the 27 N=4 entries: a quantile
    # on the steep end of a stratum, or in a thinly drawn one, moves with the
    # seed.
    "euler-series": {"N3": (15, 1), "N4": (20, 1), "N5": (21, 1)},
    # Pure Fraction linear algebra; the median falls in N=5, the tail in N=6.
    "moment-trials": {"N3": (16, 1), "N4": (16, 1), "N5": (40, 1), "N6": (28, 1)},
    # Kostka-computing commands run twice each (a cache miss, then a hit on
    # the shared cache file); cache-free commands are interleaved once each.
    "cli-cache": {
        "kostka": (4, 2),
        "stalk": (3, 2),
        "verify-positivity": (2, 2),
        "verify-bryl": (3, 2),
        "dominance": (4, 1),
        "char": (4, 1),
        "poset": (4, 1),
        "roots": (4, 1),
    },
}

def digest(text: str) -> str:
    """Short content digest of one item's canonical output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pool_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_pool(workload: str) -> dict:
    with open(pool_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def sample(workload: str, seed: int, pool=None) -> list:
    """The item list of one pass: [{"stratum", "item", "digest"}, ...],
    a pure function of (workload, seed, pool)."""
    spec = WORKLOADS[workload]
    if pool is None:
        pool = load_pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for stratum, (count, repeats) in spec.items():
        entries = sorted(pool[stratum], key=lambda e: (e["weight"], canonical(e["item"])))
        if len(entries) < count:
            raise ValueError(f"{workload}/{stratum}: pool of {len(entries)} < {count} draws")
        for b in range(count):
            lo = b * len(entries) // count
            hi = (b + 1) * len(entries) // count
            entry = entries[rng.randrange(lo, hi)]
            drawn = {"stratum": stratum, "item": entry["item"], "digest": entry["digest"]}
            items.extend(dict(drawn) for _ in range(repeats))
    random.Random(workload).shuffle(items)
    return items
