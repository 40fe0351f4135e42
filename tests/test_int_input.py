"""Non-int entries are refused by every public entry that reads a memo,
and by the orbit entries, which check labels through validate_label.

The Kostka memo, the counter's Weyl terms, the Euler tables, the
characters' memos (irreducibles, reflections, Sigma c.chi sums, dual
labels) and the orbit normal form compare their keys by value, so a 3.0
let through would read, or leave behind, the entry of 3.  Each entry
below must give the same outcome on a float input from cold memos and
after the integer call, and the integer calls made after a float call
must return what a fresh process returns.  Run this module as a script
(PYTHONPATH=src:tests) to print the fresh-process answers as JSON.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ospkostka
from ospkostka import characters, euler, roots
from ospkostka.characters import CharElt, decompose, irreducible_character, outer
from ospkostka.euler import bryl_lhs, bryl_rhs, dominant_cone_labels, euler_line, verify_bryl
from ospkostka.kostka import kostka
from ospkostka.oddroots import BiWeight, osp_root_data
from ospkostka.orbits import OrbitLabel, closure_le, embed_signatures, orbit_dim, stalk_poincare
from ospkostka.roots import dominant_conjugate

kostka_module = importlib.import_module("ospkostka.kostka")  # the package attribute is the function

DATA = osp_root_data(4)
LAM = ((3, 0), (3,))
# three mu below LAM, each with a nonzero Kostka polynomial; the float
# calls are made at the first
MUS = [((1, 0), (1,)), ((0, 0), (2,)), ((0, 0), (0,))]
QMAX = 2


def _orbit(pair):
    """The orbit label of an (eps, delta) pair at even N: (delta, eps)."""
    return OrbitLabel(pair[1], pair[0])


def _characters(chars):
    return [sorted(c.terms.items()) for c in chars]


def _report(report):
    return report.N, report.mu, report.qmax, report.ok, _characters(report.degree_diffs)


def _product_character(mu):
    """chi_mu0 (x) chi_mu1 on the product lattice."""
    return outer(*map(irreducible_character, (DATA.type0, DATA.type1), mu))


def _floated(mu, eps=int, delta=int, mult=int):
    """_product_character(mu) with eps, delta and mult applied to the
    eps coordinates, the delta coordinates and the multiplicities."""
    r = DATA.eps_rank
    return CharElt((DATA.type0, DATA.type1), {
        (*map(eps, w[:r]), *map(delta, w[r:])): mult(m)
        for w, m in _product_character(mu).terms.items()
    })


def _flipped(mu_t):
    """mu_t reversed and negated: off the dominant chamber for every mu_t
    with a nonzero entry."""
    return tuple(-x for x in reversed(mu_t))


# name -> the integer call at one mu, as a repr that compares across processes
INTEGER_CALLS = {
    "kostka": lambda mu: kostka(DATA, LAM, mu),
    "dominant_cone_labels": lambda mu: dominant_cone_labels(DATA, mu, QMAX),
    "verify_bryl": lambda mu: _report(verify_bryl(DATA, mu, QMAX)),
    "bryl_lhs": lambda mu: _characters(bryl_lhs(DATA, mu, QMAX)),
    "bryl_rhs": lambda mu: _characters(bryl_rhs(DATA, mu, QMAX)),
    "stalk_poincare": lambda mu: stalk_poincare(DATA, _orbit(LAM), _orbit(mu)),
    "orbit_dim": lambda mu: orbit_dim(DATA, _orbit(mu)),
    "embed_signatures": lambda mu: embed_signatures(DATA, _orbit(mu)),
    "closure_le": lambda mu: closure_le(DATA, _orbit(mu), _orbit(LAM)),
    "euler_line": lambda mu: _characters([euler_line(DATA, DATA.zero() - BiWeight(*mu))]),
    "irreducible_character": lambda mu: [
        sorted(irreducible_character(gtype, mu_t).terms.items())
        for gtype, mu_t in zip((DATA.type0, DATA.type1), mu)
    ],
    "decompose": lambda mu: decompose(_product_character(mu)),
    "dominant_conjugate": lambda mu: [
        dominant_conjugate(gtype, _flipped(mu_t))
        for gtype, mu_t in zip((DATA.type0, DATA.type1), mu)
    ],
}

LAM_FLOAT = ((3.0, 0), (3,))
MU_FLOAT = ((1.0, 0), (1,))

# (entry, what is a float, the float call)
FLOAT_CALLS = [
    ("kostka", "lambda", lambda: kostka(DATA, LAM_FLOAT, MUS[0])),
    ("kostka", "mu", lambda: kostka(DATA, LAM, MU_FLOAT)),
    ("stalk_poincare", "lambda", lambda: stalk_poincare(DATA, _orbit(LAM_FLOAT), _orbit(MUS[0]))),
    ("stalk_poincare", "mu", lambda: stalk_poincare(DATA, _orbit(LAM), _orbit(MU_FLOAT))),
    ("orbit_dim", "mu", lambda: orbit_dim(DATA, _orbit(MU_FLOAT))),
    ("orbit_dim", "bool", lambda: orbit_dim(DATA, OrbitLabel((True,), (1, 0)))),
    ("embed_signatures", "mu", lambda: embed_signatures(DATA, _orbit(MU_FLOAT))),
    ("closure_le", "lambda", lambda: closure_le(DATA, _orbit(MUS[0]), _orbit(LAM_FLOAT))),
    ("closure_le", "mu", lambda: closure_le(DATA, _orbit(MU_FLOAT), _orbit(LAM))),
    # -MU_FLOAT: the reflection memo entry that euler_line and bryl_lhs share
    ("euler_line", "nu", lambda: euler_line(DATA, BiWeight((-1.0, 0), (-1,)))),
    ("bryl_lhs", "euler_line nu", lambda: euler_line(DATA, BiWeight((-1.0, 0), (-1,)))),
    ("irreducible_character", "lambda", lambda: irreducible_character(DATA.type0, MU_FLOAT[0])),
    ("irreducible_character", "bool", lambda: irreducible_character(DATA.type1, (True,))),
    ("decompose", "eps", lambda: decompose(_floated(MUS[0], eps=float))),
    ("decompose", "delta", lambda: decompose(_floated(MUS[0], delta=float))),
    ("decompose", "multiplicity", lambda: decompose(_floated(MUS[0], mult=float))),
    ("dominant_conjugate", "weight", lambda: dominant_conjugate(DATA.type0, _flipped(MU_FLOAT[0]))),
] + [
    (name, what, call)
    for name, entry in [
        ("dominant_cone_labels", dominant_cone_labels),
        ("verify_bryl", verify_bryl),
        ("bryl_lhs", bryl_lhs),
        ("bryl_rhs", bryl_rhs),
    ]
    for what, call in [
        ("mu", lambda entry=entry: entry(DATA, MU_FLOAT, QMAX)),
        ("qmax", lambda entry=entry: entry(DATA, MUS[0], float(QMAX))),
    ]
]


def integer_answers():
    """{entry: [repr of its integer call at each mu]}."""
    return {name: [repr(call(mu)) for mu in MUS] for name, call in INTEGER_CALLS.items()}


def _clear_memos():
    kostka_module._kostka_memo.clear()
    kostka_module._counter.cache_clear()
    euler._lhs_table.cache_clear()
    euler._cone_labels.cache_clear()
    characters._irreducible_character.cache_clear()
    characters._rho_reflection.cache_clear()
    characters._character_sum.cache_clear()
    characters._dual_label.cache_clear()
    roots._dominant_conjugate.cache_clear()


def _outcome(call):
    try:
        return "returns", repr(call())
    except Exception as exc:  # the outcome is compared, whatever it is
        return "raises", type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def fresh_answers():
    """integer_answers() from a fresh interpreter, with this one's -O."""
    src = os.path.dirname(os.path.dirname(ospkostka.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    flags = ["-O"] if sys.flags.optimize else []
    out = subprocess.run(
        [sys.executable, *flags, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


@pytest.fixture
def cold_memos():
    _clear_memos()
    yield
    _clear_memos()


@pytest.mark.parametrize(
    "name, call", [(name, call) for name, _, call in FLOAT_CALLS],
    ids=[f"{name}-{what}" for name, what, _ in FLOAT_CALLS],
)
def test_float_input_same_cold_and_warm(name, call, fresh_answers, cold_memos):
    """A float input raises TypeError from cold memos and again after the
    integer calls, and it leaves no entry that the integer calls read."""
    cold = _outcome(call)
    assert cold[:2] == ("raises", "TypeError"), cold
    assert [repr(INTEGER_CALLS[name](mu)) for mu in MUS] == fresh_answers[name]
    assert _outcome(call) == cold
    assert [repr(INTEGER_CALLS[name](mu)) for mu in MUS] == fresh_answers[name]


def test_fresh_answers_are_nonzero(fresh_answers):
    """Each mu is below LAM, so every Kostka polynomial and stalk is
    nonzero, and the Euler identity holds at each."""
    assert set(fresh_answers) == set(INTEGER_CALLS)
    assert all(len(answers) == len(MUS) for answers in fresh_answers.values())
    assert "QPoly(coeffs=())" not in fresh_answers["kostka"]
    assert "()" not in fresh_answers["stalk_poincare"]
    assert all(", True, " in report for report in fresh_answers["verify_bryl"])


if __name__ == "__main__":
    print(json.dumps(integer_answers()))
