"""Execution of one library-workload item through the package's public
functions.  ``run_item`` returns the item's canonical output text; its
digest is what the golden pools store.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see these calls too.
"""

import json

import ospkostka
from ospkostka import characters, euler, moment, oddroots, orbits, roots

# N values each library workload touches; set-up builds their root data.
WORKLOAD_NS = {
    "stalk-table": (4, 5, 6, 7),
    "euler-series": (3, 4, 5),
    "moment-trials": (3, 4, 5, 6),
}


class ItemError(RuntimeError):
    """An item ran but its output failed a check."""


def prepare(workload: str):
    """Set-up before the first item: root data and Weyl lists for the
    workload's N values (bilinear forms for the moment workload)."""
    for N in WORKLOAD_NS.get(workload, ()):
        if workload == "moment-trials":
            moment.FormsSpec(N).gram1()
            continue
        data = oddroots.osp_root_data(N)
        oddroots.odd_positive_roots(data)
        oddroots.simple_odd_roots(data)
        list(roots.weyl_elements(data.type0))
        list(roots.weyl_elements(data.type1))


def run_item(workload: str, item) -> str:
    if workload == "stalk-table":
        return stalk_item(*item)
    if workload == "euler-series":
        return euler_item(*item)
    if workload == "moment-trials":
        return json.dumps(moment.moment_check(*item), sort_keys=True)
    raise ValueError(f"unknown workload {workload!r}")


def stalk_item(N, lam_s, lam_b, mu_s, mu_b) -> str:
    data = oddroots.osp_root_data(N)
    lam = orbits.OrbitLabel(tuple(lam_s), tuple(lam_b))
    mu = orbits.OrbitLabel(tuple(mu_s), tuple(mu_b))
    return repr(orbits.stalk_poincare(data, lam, mu))


def euler_item(N, mu0, mu1, qmax) -> str:
    """verify_bryl, then the decomposition of every degree of the geometric
    side, which must equal the Kostka column K(., mu) at dual labels."""
    data = oddroots.osp_root_data(N)
    mu = (tuple(mu0), tuple(mu1))
    report = euler.verify_bryl(data, mu, qmax)
    if not report.ok:
        raise ItemError(f"Euler identity fails at degrees {report.failing_degrees()}")
    columns = [characters.decompose(ch) for ch in euler.bryl_lhs(data, mu, qmax)]
    labels = euler.dominant_cone_labels(data, mu, qmax)
    polys = [(lam, ospkostka.kostka(data, lam, mu)) for lam in labels]
    for d, column in enumerate(columns):
        expected = {
            (characters.dual_label(data.type0, lam[0]), characters.dual_label(data.type1, lam[1])): poly[d]
            for lam, poly in polys
            if poly[d]
        }
        if column != expected:
            raise ItemError(f"decompose of degree {d} differs from the Kostka column")
    return json.dumps(
        {
            "ok": report.ok,
            "columns": [[[list(a), list(b), m] for (a, b), m in column.items()] for column in columns],
        }
    )
