import importlib
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product as cartesian
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import ospkostka
from conftest import alternant_decompose, fraction_weyl_dimension
from ospkostka.characters import (
    _alternant,
    _convolve,
    _divide_by_alternant,
    _outer_sum,
    CharElt,
    decompose,
    dual_label,
    irreducible_character,
    is_weyl_invariant,
    outer,
    product,
    weyl_dimension,
)
from ospkostka.euler import _qmax_guard, bryl_lhs, dominant_cone_labels
from ospkostka.kostka import kostka
from ospkostka.oddroots import osp_root_data
from ospkostka.roots import (
    _dominant_conjugate,
    EnumerationTooLargeError,
    GroupType,
    act,
    dominant_conjugate,
    dominant_weights,
    rho,
    signed_weyl,
    weyl_elements,
)

characters_module = importlib.import_module("ospkostka.characters")

C1 = GroupType("C", 1)
C2 = GroupType("C", 2)
D1 = GroupType("D", 1)
D2 = GroupType("D", 2)
D3 = GroupType("D", 3)

ALL_SMALL = [C1, C2, GroupType("C", 3), D1, D2, D3]


def test_irreducible_examples():
    spin1 = irreducible_character(C1, (2,))
    assert spin1.terms == {(2,): 1, (0,): 1, (-2,): 1}
    assert irreducible_character(D1, (7,)).terms == {(7,): 1}
    vec = irreducible_character(D2, (1, 0))
    assert vec.terms == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert vec.dim() == 4


def test_irreducible_rejects_non_dominant():
    with pytest.raises(ValueError):
        irreducible_character(C2, (1, 2))


def test_product_examples():
    a = irreducible_character(C1, (3,))
    assert product(a, CharElt((C1,), {(0,): 1})) == a
    sq = product(irreducible_character(C1, (1,)), irreducible_character(C1, (1,)))
    assert sq.terms.get((0,)) == 2
    b = irreducible_character(C1, (2,))
    assert product(a, b) == product(b, a)


def test_product_context_mismatch():
    with pytest.raises(ValueError):
        product(irreducible_character(C1, (1,)), irreducible_character(D1, (1,)))


def test_decompose_examples():
    ch = irreducible_character(C2, (2, 1))
    assert decompose(ch) == {(2, 1): 1}
    sq = product(irreducible_character(C1, (1,)), irreducible_character(C1, (1,)))
    assert decompose(sq) == {(0,): 1, (2,): 1}
    assert decompose(CharElt((C1,), {})) == {}


def test_decompose_product_lattice():
    ch = outer(irreducible_character(D2, (1, 0)), irreducible_character(C1, (1,)))
    assert decompose(ch) == {((1, 0), (1,)): 1}


def test_decompose_rejects_non_invariant():
    """Also with the process-wide reflection memo warm."""
    assert decompose(irreducible_character(C1, (1,))) == {(1,): 1}
    assert characters_module._rho_reflection.cache_info().currsize > 0
    ch = CharElt((C1,), {(1,): 1})
    with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
        decompose(ch)


def test_dual_label_examples():
    assert dual_label(C2, (3, 1)) == (3, 1)
    assert dual_label(D1, (2,)) == (-2,)
    assert dual_label(D2, (2, 1)) == (2, 1)
    assert dual_label(D3, (2, 1, 1)) == (2, 1, -1)


@pytest.mark.parametrize("gtype", ALL_SMALL)
def test_dual_is_involution_and_negates_weights(gtype):
    for lam in dominant_weights(gtype, 2):
        star = dual_label(gtype, lam)
        assert dual_label(gtype, star) == lam
        ch = irreducible_character(gtype, lam)
        negated = {tuple(-x for x in w): m for w, m in ch.terms.items()}
        assert irreducible_character(gtype, star) == CharElt(ch.context, negated)


@pytest.mark.parametrize("gtype", ALL_SMALL)
def test_dimensions_match_weyl_formula(gtype):
    bound = 3 if gtype.rank <= 3 else 2
    for lam in dominant_weights(gtype, bound):
        ch = irreducible_character(gtype, lam)
        dim = ch.dim()
        assert dim > 0
        assert dim == weyl_dimension(gtype, lam)


@pytest.mark.parametrize("gtype", ALL_SMALL)
def test_weyl_dimension_matches_fraction_oracle(gtype):
    """Integer products and one exact division agree with the product of
    Fractions on every dominant label of sup-norm <= 3, ranks 1-3."""
    for lam in dominant_weights(gtype, 3):
        assert weyl_dimension(gtype, lam) == fraction_weyl_dimension(gtype, lam)


def test_weyl_dimension_remainder_raises(monkeypatch):
    """A wrong rho makes the ratio non-integral: (1+2)*2 / (2*2) = 3/2."""
    monkeypatch.setattr(characters_module, "rho", lambda gtype: (2,))
    with pytest.raises(ArithmeticError) as err:
        weyl_dimension(C1, (1,))
    assert str(err.value) == "Weyl dimension of (1,) for C_1 is not an integer: 3/2"


@pytest.mark.parametrize("gtype", [C2, D2, D3])
def test_characters_are_weyl_invariant(gtype):
    for lam in dominant_weights(gtype, 2):
        ch = irreducible_character(gtype, lam)
        assert is_weyl_invariant(ch)
        for w in weyl_elements(gtype):
            moved = {act(w, weight): m for weight, m in ch.terms.items()}
            assert moved == ch.terms


def test_highest_weight_has_multiplicity_one():
    for gtype in (C2, D2, D3):
        for lam in dominant_weights(gtype, 2):
            assert irreducible_character(gtype, lam).terms.get(lam) == 1


def test_tensor_decomposition_is_nonnegative():
    for gtype in (C1, C2, D2):
        labels = list(dominant_weights(gtype, 2))
        for lam in labels[:6]:
            for mu in labels[:6]:
                ch = product(
                    irreducible_character(gtype, lam),
                    irreducible_character(gtype, mu),
                )
                assert all(m >= 0 for m in decompose(ch).values())


def test_divide_by_alternant_rejects_non_monic_denominator():
    with pytest.raises(ValueError, match="coefficient 2"):
        _divide_by_alternant({(2,): 2}, {(1,): 2}, (1,))


@pytest.mark.parametrize("gtype", [GroupType(f, r) for f in "CD" for r in (1, 2, 3)])
def test_irreducible_times_rho_alternant_is_shifted_alternant(gtype):
    """The alternant division is exact: chi_lam * A_rho == A_{lam+rho}."""
    rho_t = rho(gtype)
    denom = _alternant(gtype, rho_t)
    for lam in dominant_weights(gtype, 3):
        product_terms = _convolve(irreducible_character(gtype, lam).terms, denom)
        assert product_terms == _alternant(gtype, tuple(map(add, lam, rho_t)))


OSP_CONTEXTS = [
    context
    for data in map(osp_root_data, range(3, 7))
    for context in ((data.type0,), (data.type1,), (data.type0, data.type1))
]


@st.composite
def virtual_characters(draw):
    """(sum of c_lam * chi_lam, its expected decomposition) on one factor
    or on the product lattice of some N in 3..6, with signed coefficients
    that may cancel."""
    context = draw(st.sampled_from(OSP_CONTEXTS))
    bound = 2 if len(context) == 1 else 1
    labels = list(cartesian(*(dominant_weights(t, bound) for t in context)))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.integers(-3, 3).filter(bool)),
            max_size=4,
        )
    )
    ch = CharElt(context, {})
    expected = {}
    for parts, c in terms:
        chars = [irreducible_character(t, lam) for t, lam in zip(context, parts)]
        ch.add_scaled(chars[0] if len(chars) == 1 else outer(*chars), c)
        label = parts[0] if len(parts) == 1 else parts
        expected[label] = expected.get(label, 0) + c
    return ch, {label: c for label, c in sorted(expected.items()) if c}


@settings(max_examples=80, deadline=None)
@given(virtual_characters())
def test_decompose_matches_alternant_oracle(case):
    ch, expected = case
    assert decompose(ch) == alternant_decompose(ch) == expected


def _outcome(fn, ch):
    try:
        return fn(ch)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(virtual_characters(), st.data())
def test_decompose_non_invariant_input_matches_oracle(case, data):
    ch, _ = case
    width = sum(t.rank for t in ch.context)
    x = data.draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
    ch.add_scaled(CharElt(ch.context, {tuple(x): 1}), data.draw(st.sampled_from([-1, 1])))
    got = _outcome(decompose, ch)
    assert got == _outcome(alternant_decompose, ch)
    if not is_weyl_invariant(ch):
        assert got == "character is not Weyl-invariant"


def test_decompose_label_outside_the_support():
    """chi_lam - chi_mu where the weight mu cancels: c_mu = -1 although mu
    is not a weight of the difference."""
    ch = irreducible_character(C1, (2,)) - irreducible_character(C1, (0,))
    assert (0,) not in ch.terms
    assert decompose(ch) == alternant_decompose(ch) == {(0,): -1, (2,): 1}
    ch = outer(irreducible_character(D1, (0,)), irreducible_character(C1, (2,))) - outer(
        irreducible_character(D1, (0,)), irreducible_character(C1, (0,))
    )
    assert (0, 0) not in ch.terms
    expected = {((0,), (0,)): -1, ((0,), (2,)): 1}
    assert decompose(ch) == alternant_decompose(ch) == expected


def test_decompose_reconstruction_mismatch_raises(monkeypatch):
    """With the reflection memo warm; the memo keeps the true reflections."""
    assert decompose(irreducible_character(C2, (1, 0))) == {(1, 0): 1}
    real = characters_module._rho_reflection

    def wrong_sign(gtype, x):
        rep = real(gtype, x)
        return rep and (-rep[0], rep[1])

    with monkeypatch.context() as patch:
        patch.setattr(characters_module, "_rho_reflection", wrong_sign)
        with pytest.raises(ValueError, match="^internal error: alternant reconstruction mismatch$"):
            decompose(irreducible_character(C2, (1, 0)))
    assert decompose(irreducible_character(C2, (1, 0))) == {(1, 0): 1}


def test_decompose_checks_survive_optimize():
    """Both decompose errors are raises, not asserts, so python -O keeps them."""
    code = (
        "import importlib, sys\n"
        "c = importlib.import_module('ospkostka.characters')\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "def message(ch):\n"
        "    try:\n"
        "        c.decompose(ch)\n"
        "    except ValueError as exc:\n"
        "        return str(exc)\n"
        "C1 = c.GroupType('C', 1)\n"
        "print(message(c.CharElt((C1,), {(1,): 1})))\n"
        "c._rho_reflection = lambda g, x: None\n"
        "print(message(c.irreducible_character(C1, (1,))))\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "character is not Weyl-invariant\n"
        "internal error: alternant reconstruction mismatch\n"
    )


@st.composite
def outer_sum_cases(draw):
    """(context, {parts: c}) on one factor or on the product lattice of
    some N in 3..6; coefficients may be zero, and on the product lattice
    several labels usually share their second part."""
    context = draw(st.sampled_from(OSP_CONTEXTS))
    bound = 2 if len(context) == 1 else 1
    labels = list(cartesian(*(dominant_weights(t, bound) for t in context)))
    coeffs = draw(st.dictionaries(st.sampled_from(labels), st.integers(-3, 3), max_size=8))
    return context, coeffs


@settings(max_examples=100, deadline=None)
@given(outer_sum_cases())
def test_outer_sum_matches_outer_and_add_scaled(case):
    """The factored kernel equals sum c * outer(chi_lam0, chi_lam1), one
    external product per label, accumulated with add_scaled."""
    context, coeffs = case
    expected = CharElt(context, {})
    for parts, c in coeffs.items():
        chars = [irreducible_character(t, lam) for t, lam in zip(context, parts)]
        expected.add_scaled(chars[0] if len(chars) == 1 else outer(*chars), c)
    assert _outer_sum(context, coeffs) == expected.terms


def test_outer_sum_cancellations():
    """Irreducible characters are linearly independent, so the sum cancels
    to {} exactly when every coefficient is zero; weights that cancel
    inside one lam1 group, or across groups, are dropped."""
    data = osp_root_data(4)
    context = (data.type0, data.type1)
    labels = list(cartesian(*(dominant_weights(t, 1) for t in context)))
    assert _outer_sum(context, dict.fromkeys(labels, 0)) == {}
    assert _outer_sum(context, {}) == {}
    assert _outer_sum(context[:1], {(lam0,): 0 for lam0, _ in labels}) == {}
    # chi_(1,1) - chi_(0,0) on D_2: the weight (0, 0) cancels within lam1 = (0,)
    within = {((1, 1), (0,)): 1, ((0, 0), (0,)): -1}
    assert _outer_sum(context, within) == {(1, 1, 0): 1, (-1, -1, 0): 1}
    # chi_(2) - chi_(0) on C_1: the weight (0, 0, 0) cancels across lam1 groups
    across = {((0, 0), (2,)): 1, ((0, 0), (0,)): -1}
    assert _outer_sum(context, across) == {(0, 0, 2): 1, (0, 0, -2): 1}


def test_outer_sum_first_writes_are_copies():
    """Each first write in _outer_sum is a copy: neither a later write nor
    a change to the returned dict reaches a cached irreducible character.
    One factor and two, coefficient 1, m1 = 1, a single lam1 and two lam1
    sharing a weight; in the cases marked, a first and a later write
    cancel, and the result drops the weight."""
    data = osp_root_data(4)
    context = (data.type0, data.type1)
    cases = [
        (context[:1], {((1, 1),): 1}),
        (context[:1], {((1, 1),): 1, ((0, 0),): -1}),  # (0, 0) cancels
        (context[1:], {((2,),): 1, ((0,),): -1}),  # (0,) cancels
        (context, {((1, 1), (0,)): 1}),
        (context, {((1, 0), (1,)): 1}),
        # (1, 1, 0) is written from lam1 = (2,) first, then cancels from (0,)
        (context, {((1, 1), (2,)): 1, ((1, -1), (2,)): 1, ((1, 1), (0,)): -1}),
    ]
    for ctx, coeffs in cases:
        used = {(t, lam) for parts in coeffs for t, lam in zip(ctx, parts)}
        before = {key: irreducible_character(*key).terms for key in used}
        expected = CharElt(ctx, {})
        for parts, c in coeffs.items():
            chars = [irreducible_character(t, lam) for t, lam in zip(ctx, parts)]
            expected.add_scaled(chars[0] if len(chars) == 1 else outer(*chars), c)
        result = _outer_sum(ctx, coeffs)
        assert result == expected.terms
        for w in result:
            result[w] += 7
        result[(9,) * sum(t.rank for t in ctx)] = 1
        for key, terms in before.items():
            assert characters_module._irreducible_character(*key).terms == terms
            assert irreducible_character(*key).terms == terms


@pytest.mark.parametrize("family", ["C", "D"])
def test_rank5_character_stores_no_signed_weyl_table(family, monkeypatch):
    """The alternants walk the Weyl elements: a cold rank-5 character adds
    no entry to roots.signed_weyl's cache, and its terms are the known
    ones."""
    gtype = GroupType(family, 5)
    cold = lru_cache(maxsize=None)(characters_module._irreducible_character.__wrapped__)
    monkeypatch.setattr(characters_module, "_irreducible_character", cold)
    stored = signed_weyl.cache_info().currsize
    assert irreducible_character(gtype, (0,) * 5).terms == {(0,) * 5: 1}
    units = [tuple(s * (i == j) for j in range(5)) for i in range(5) for s in (1, -1)]
    assert irreducible_character(gtype, (1, 0, 0, 0, 0)).terms == dict.fromkeys(units, 1)
    assert signed_weyl.cache_info().currsize == stored
    assert cold.cache_info().currsize == 2


def test_decompose_ignores_zero_multiplicity_weights():
    """A weight stored with multiplicity zero counts as absent, on one
    factor and on the product lattice; non-invariant input holding one
    still gets the invariance message."""
    ch = irreducible_character(C2, (1, 0))
    ch.terms[(3, 0)] = 0
    ch.terms[(0, 0)] = 0
    assert decompose(ch) == {(1, 0): 1}
    assert decompose(CharElt((C1,), {(1,): 0})) == {}
    ch = outer(irreducible_character(D2, (1, 0)), irreducible_character(C1, (1,)))
    ch.terms[(0, 0, 3)] = 0
    ch.terms[(2, 0, 0)] = 0
    assert decompose(ch) == {((1, 0), (1,)): 1}
    assert decompose(CharElt((D2, C1), {(1, 0, 1): 0})) == {}
    with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
        decompose(CharElt((C1,), {(1,): 1, (5,): 0}))



def test_decompose_drops_a_singular_second_block_whole():
    """On D_2 x C_1 the C_1 block (-1) sits on a wall after the rho shift,
    so decompose drops the whole group of weights sharing it, whatever
    their first block; a non-invariant weight inside that group still
    breaks the exact rebuild and gets the invariance message."""
    assert characters_module._rho_reflection(C1, (-1,)) is None
    ch = CharElt((D2, C1), {})
    ch.add_scaled(outer(irreducible_character(D2, (1, 0)), irreducible_character(C1, (1,))), 2)
    ch.add_scaled(outer(irreducible_character(D2, (1, 1)), irreducible_character(C1, (3,))), -1)
    group = {w[:2] for w in ch.terms if w[2:] == (-1,)}
    assert len(group) == 7
    expected = {((1, 0), (1,)): 2, ((1, 1), (3,)): -1}
    assert decompose(ch) == alternant_decompose(ch) == expected
    ch.terms[(5, 0, -1)] = 1
    for fn in (decompose, alternant_decompose):
        with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
            fn(ch)


def test_decompose_on_the_d1_torus():
    """At N = 3 the eps factor is the D_1 torus: every first block is its
    own label, and only the C_1 block reflects."""
    data = osp_root_data(3)
    context = (data.type0, data.type1)
    assert context == (D1, C1)
    coeffs = {((2,), (1,)): 1, ((-1,), (2,)): 3, ((0,), (0,)): -1, ((-1,), (0,)): 2}
    ch = CharElt(context, _outer_sum(context, coeffs))
    assert decompose(ch) == alternant_decompose(ch) == dict(sorted(coeffs.items()))
    ch.terms[(0, 1)] = 1
    for fn in (decompose, alternant_decompose):
        with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
            fn(ch)


def _product_character(context, coeffs):
    """sum c * outer(chi_lam0, chi_lam1), one label at a time, with no
    _outer_sum and no memo."""
    ch = CharElt(context, {})
    for parts, c in coeffs.items():
        ch.add_scaled(outer(*(irreducible_character(t, lam) for t, lam in zip(context, parts))), c)
    return ch


def _orbit_block_perturbations(ch):
    """Copies of ch, invariant on the product lattice, each changed in one
    second-factor block x1 off the walls whose W1-orbit has another such
    block: the block's first-factor group gains a weight, loses one, or
    is shifted by e_1; every copy is non-invariant."""
    t0, t1 = ch.context
    r = t0.rank
    blocks = {w[r:] for w in ch.terms}
    regular = [x1 for x1 in blocks if characters_module._rho_reflection(t1, x1)]
    orbit_sizes = {}
    for x1 in regular:
        key = dominant_conjugate(t1, x1)
        orbit_sizes[key] = orbit_sizes.get(key, 0) + 1
    for x1 in sorted(regular):
        if orbit_sizes[dominant_conjugate(t1, x1)] < 2:
            continue
        group = {w[:r]: m for w, m in ch.terms.items() if w[r:] == x1}
        x0 = max(group)
        gained = dict(ch.terms)
        gained[x0 + x1] += 1
        lost = dict(ch.terms)
        del lost[x0 + x1]
        moved = {w: m for w, m in ch.terms.items() if w[r:] != x1}
        moved.update({(y0[0] + 1,) + y0[1:] + x1: m for y0, m in group.items()})
        yield from (CharElt(ch.context, t) for t in (gained, lost, moved))


def _orbit_cases():
    """(invariant character, its decomposition) at N = 3, 4, 5, where the
    second factor is C_1, C_1, C_2."""
    for N, coeffs in (
        (3, {((1,), (1,)): 2, ((-2,), (2,)): -1}),
        (4, {((1, 0), (1,)): 1, ((1, 1), (2,)): 3, ((0, 0), (0,)): -2}),
        (5, {((1, 0), (1, 0)): 1, ((1, -1), (1, 1)): -1, ((2, 0), (0, 0)): 2}),
    ):
        data = osp_root_data(N)
        yield _product_character((data.type0, data.type1), coeffs), dict(sorted(coeffs.items()))


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_decompose_rejects_blocks_that_differ_within_an_orbit(memo):
    """The first-factor sums are read once per W1-orbit, so a block that
    differs from the first block of its orbit is not reflected; the exact
    rebuild still fails on it and the invariance message is raised, from
    cold memos and from memos warmed by the invariant character, whose
    memoised rebuild is the sum the perturbed copies read."""
    cases = 0
    for ch, expected in _orbit_cases():
        if memo == "cold":
            characters_module._character_sum.cache_clear()
            characters_module._rho_reflection.cache_clear()
            _dominant_conjugate.cache_clear()
        else:
            assert decompose(ch) == expected
        for bad in _orbit_block_perturbations(ch):
            cases += 1
            assert not is_weyl_invariant(bad)
            with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
                decompose(bad)
        assert decompose(ch) == alternant_decompose(ch) == expected
    assert cases == 18


def test_decompose_rejects_blocks_that_differ_within_an_orbit_under_optimize():
    """The same perturbed characters under python -O, in a fresh process:
    cold memos first, then warm ones."""
    code = (
        "import sys\n"
        "import test_characters as t\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "for _ in range(2):\n"
        "    for ch, expected in t._orbit_cases():\n"
        "        for bad in t._orbit_block_perturbations(ch):\n"
        "            try:\n"
        "                t.decompose(bad)\n"
        "            except ValueError as exc:\n"
        "                print(exc)\n"
        "            else:\n"
        "                sys.exit('accepted a non-invariant character')\n"
        "        if t.decompose(ch) != expected:\n"
        "            sys.exit('wrong decomposition')\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, here]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 36 and set(lines) == {"character is not Weyl-invariant"}


def _memo_entries_intact(context, keys):
    """Each memoised sum still equals a fresh build of its key."""
    build = characters_module._character_sum.__wrapped__
    return all(characters_module._character_sum(context, key) == build(context, key) for key in keys)


def _sum_key(coeffs):
    return frozenset((parts, c) for parts, c in coeffs.items() if c)


def _fresh_outcome(ch):
    """decompose of an equal, freshly built character with a cleared sum
    memo, and the alternant oracle's outcome on it."""
    fresh = CharElt(ch.context, dict(ch.terms))
    characters_module._character_sum.cache_clear()
    got = _outcome(decompose, fresh)
    assert got == _outcome(alternant_decompose, fresh)
    return got


@pytest.mark.parametrize("N, mu, qmax", [(4, ((1, 0), (1,)), 4), (5, ((0, 0), (1, 0)), 3)])
def test_changed_bryl_lhs_characters_decompose_as_fresh_ones(N, mu, qmax):
    """bryl_lhs leaves its degrees' sums in the memo, and decompose reads
    them; a degree changed afterwards, through add_scaled or through its
    terms, decomposes or raises exactly as an equal fresh character does,
    and no memoised sum is one of the characters' dicts or changes."""
    data = osp_root_data(N)
    context = (data.type0, data.type1)
    polys = {lam: kostka(data, lam, mu) for lam in dominant_cone_labels(data, mu, qmax)}
    columns = [
        {
            (dual_label(data.type0, lam[0]), dual_label(data.type1, lam[1])): poly[d]
            for lam, poly in polys.items()
            if poly[d]
        }
        for d in range(qmax + 1)
    ]
    keys = [_sum_key(column) for column in columns]
    for make_change in range(6):
        chars = bryl_lhs(data, mu, qmax)
        for d, ch in enumerate(chars):
            hits = characters_module._character_sum.cache_info().hits
            assert decompose(ch) == dict(sorted(columns[d].items()))
            assert characters_module._character_sum.cache_info().hits == hits + 1
            assert ch.terms is not characters_module._character_sum(context, keys[d])
        ch = chars[qmax]
        w = max(ch.terms)
        extra = outer(irreducible_character(data.type0, (1,) + (0,) * (data.type0.rank - 1)),
                      irreducible_character(data.type1, (0,) * data.type1.rank))
        if make_change == 0:
            ch.add_scaled(extra, 2)
        elif make_change == 1:
            ch.add_scaled(extra, 1).add_scaled(extra, -1)
        elif make_change == 2:
            ch.add_scaled(CharElt(context, {w: 1}), 1)
        elif make_change == 3:
            ch.terms[w] = 0
        elif make_change == 4:
            del ch.terms[w]
        else:
            for v in ch.terms:
                ch.terms[v] *= 3
        got = _outcome(decompose, ch)
        assert _memo_entries_intact(context, keys)
        assert got == _fresh_outcome(ch)
        if make_change in (2, 3, 4):
            assert got == "character is not Weyl-invariant"
        elif make_change == 1:
            assert got == dict(sorted(columns[qmax].items()))


def test_outer_sum_results_are_fresh_and_the_memo_is_bounded():
    """A mutated _outer_sum result changes no later decompose, and the
    memo holds at most one whole Euler expansion: the largest qmax the
    guard admits, plus one, characters."""
    memo = characters_module._character_sum
    data = osp_root_data(5)
    assert _qmax_guard(data, memo.cache_info().maxsize - 1) is None
    with pytest.raises(EnumerationTooLargeError):
        _qmax_guard(data, memo.cache_info().maxsize)
    context = (data.type0, data.type1)
    labels = list(cartesian(*(dominant_weights(t, 1) for t in context)))
    memo.cache_clear()
    for i, parts in enumerate(labels * 2):
        coeffs = {parts: 1 + i % 3, labels[0]: -1}
        expected = dict(sorted((p, c) for p, c in coeffs.items() if c))
        result = _outer_sum(context, coeffs)
        assert result == _product_character(context, coeffs).terms
        for w in result:
            result[w] += 1
        result[(9,) * 4] = 1
        assert decompose(CharElt(context, _outer_sum(context, coeffs))) == expected
        with pytest.raises(ValueError, match="^character is not Weyl-invariant$"):
            decompose(CharElt(context, result))
        assert memo.cache_info().currsize <= memo.cache_info().maxsize == 9
    assert memo.cache_info().currsize == 9


DUAL_RANKS = [GroupType(f, r) for f in "CD" for r in (1, 2, 3, 4)]


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_dual_label_values_and_int_rule(memo):
    """The memoised dual_label gives the rule's value on every dominant
    label of sup-norm <= 3 at ranks 1-4; floats and bools raise TypeError,
    and non-dominant labels ValueError, with a cold memo and a warm one."""
    characters_module._dual_label.cache_clear()
    if memo == "warm":
        for gtype in DUAL_RANKS:
            for lam in dominant_weights(gtype, 3):
                dual_label(gtype, lam)
        assert characters_module._dual_label.cache_info().currsize > 0
    for gtype in DUAL_RANKS:
        for lam in dominant_weights(gtype, 3):
            negate = gtype.family == "D" and gtype.rank % 2
            assert dual_label(gtype, list(lam)) == (lam[:-1] + (-lam[-1],) if negate else lam)
        for bad in ((1.0,) + (0,) * (gtype.rank - 1), (True,) + (0,) * (gtype.rank - 1)):
            with pytest.raises(TypeError, match="is not an int"):
                dual_label(gtype, bad)
        if gtype != D1:
            with pytest.raises(ValueError, match="-dominant"):
                dual_label(gtype, (-1,) * gtype.rank)


def test_charelt_add_and_context_mismatch():
    """+ adds two characters of one context into a fresh one; add_scaled
    across contexts raises and leaves the target unchanged."""
    c1, c2 = GroupType("C", 1), GroupType("C", 2)
    a, b = irreducible_character(c1, (1,)), irreducible_character(c1, (2,))
    total = a + b
    assert total.terms == {(2,): 1, (1,): 1, (0,): 1, (-1,): 1, (-2,): 1}
    assert a == irreducible_character(c1, (1,)) and total is not a
    with pytest.raises(ValueError, match="^lattice context mismatch$"):
        a.add_scaled(irreducible_character(c2, (0, 0)), 1)
    assert a == irreducible_character(c1, (1,))


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError, match=r"^\(0, 1\) is not C_2-dominant$"):
        weyl_dimension(GroupType("C", 2), (0, 1))
