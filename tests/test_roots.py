import re
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from conftest import is_dominant_index_loops

from ospkostka.roots import (
    _dominant_conjugate,
    WEYL_RANK_GUARD,
    EnumerationTooLargeError,
    GroupType,
    SignedPermutation,
    act,
    compose,
    dominant_conjugate,
    dominant_representative,
    dominant_weights,
    is_dominant,
    positive_roots,
    rho,
    sign,
    signed_weyl,
    weyl_elements,
    weyl_order,
)

C1 = GroupType("C", 1)
C2 = GroupType("C", 2)
D1 = GroupType("D", 1)
D2 = GroupType("D", 2)


def _identity(rank):
    return SignedPermutation(tuple(range(rank)), (1,) * rank)


def test_positive_roots_c2():
    assert positive_roots(C2) == ((1, -1), (1, 1), (2, 0), (0, 2))


def test_positive_roots_d1_empty():
    assert positive_roots(D1) == ()


def test_positive_roots_d2():
    assert positive_roots(D2) == ((1, -1), (1, 1))


def test_rho_examples():
    assert rho(C2) == (2, 1)
    assert rho(D2) == (1, 0)
    assert rho(D1) == (0,)


@pytest.mark.parametrize(
    "gtype,count",
    [(C2, 8), (D2, 4), (D1, 1), (C1, 2), (GroupType("D", 3), 24)],
)
def test_weyl_counts(gtype, count):
    elements = list(weyl_elements(gtype))
    assert len(elements) == count == weyl_order(gtype)
    assert len(set(elements)) == count


def test_weyl_rank_guard():
    with pytest.raises(EnumerationTooLargeError):
        list(weyl_elements(GroupType("C", 9)))


@pytest.mark.parametrize("family", ["C", "D"])
def test_weyl_rank_guard_refuses_rank_8(family):
    """Rank 8 raises before the first element: |W(C_8)| is 10,321,920."""
    assert WEYL_RANK_GUARD == 7
    message = "^enumeration too large: rank 8 exceeds guard 7$"
    for enumerate_all in (lambda g: next(weyl_elements(g)), signed_weyl):
        with pytest.raises(EnumerationTooLargeError, match=message):
            enumerate_all(GroupType(family, 8))


@pytest.mark.parametrize("family", ["C", "D"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_signed_weyl_is_the_literal_enumeration_with_signs(family, rank):
    """weyl_elements runs in (permutation lex, sign lex) order, and
    signed_weyl pairs each element with its determinant, in that order."""
    literal = [
        SignedPermutation(perm, signs)
        for perm in permutations(range(rank))
        for signs in product((1, -1), repeat=rank)
        if family == "C" or signs.count(-1) % 2 == 0
    ]
    gtype = GroupType(family, rank)
    assert list(weyl_elements(gtype)) == literal
    assert signed_weyl(gtype) == tuple((w, sign(w)) for w in literal)


def test_act_identity():
    w = _identity(3)
    assert act(w, (5, -2, 7)) == (5, -2, 7)


def test_act_c1_sign_flip():
    w = SignedPermutation((0,), (-1,))
    assert act(w, (3,)) == (-3,)


def test_act_d2_swap_with_double_flip():
    w = SignedPermutation((1, 0), (-1, -1))
    assert act(w, (2, 5)) == (-5, -2)


def test_act_rank_mismatch():
    with pytest.raises(ValueError):
        act(_identity(2), (1, 2, 3))


def test_sign_examples():
    assert sign(_identity(3)) == 1
    transposition = SignedPermutation((1, 0, 2), (1, 1, 1))
    assert sign(transposition) == -1
    flip = SignedPermutation((0,), (-1,))
    assert sign(flip) == -1


def test_is_dominant_examples():
    assert is_dominant(D2, (3, -2))
    assert not is_dominant(C2, (1, 2))
    assert is_dominant(D1, (-5,))
    assert not is_dominant(D2, (1, 2))
    assert not is_dominant(C2, (1, -1))


@pytest.mark.parametrize("family", ["C", "D"])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_is_dominant_matches_index_loops(family, rank):
    """The map-based test agrees with the index-loop definition on every
    vector in [-3, 3]^rank (D_1 and negative last entries included), and
    a rank mismatch raises the same message."""
    gtype = GroupType(family, rank)
    for x in product(range(-3, 4), repeat=rank):
        assert is_dominant(gtype, x) == is_dominant_index_loops(gtype, x), x
    # a negative last entry (all of the weight at rank 1) is D-dominant only
    assert is_dominant(gtype, (3,) * (rank - 1) + (-2,)) == (family == "D")
    for wrong in ((0,) * (rank + 1), (1,) * (rank - 1)):
        message = "^" + re.escape(f"rank mismatch: weight {wrong} vs {gtype}") + "$"
        for check in (is_dominant, is_dominant_index_loops):
            with pytest.raises(ValueError, match=message):
                check(gtype, wrong)


@pytest.mark.parametrize("gtype", [C1, C2, GroupType("C", 3), GroupType("C", 4),
                                   D1, D2, GroupType("D", 3), GroupType("D", 4)])
def test_positive_roots_sum_to_two_rho(gtype):
    total = [0] * gtype.rank
    for root in positive_roots(gtype):
        for i, c in enumerate(root):
            total[i] += c
    assert tuple(total) == tuple(2 * x for x in rho(gtype))


@pytest.mark.parametrize("gtype", [C2, D2, GroupType("D", 3)])
def test_group_action_and_sign_homomorphism(gtype):
    probe = tuple(range(3 * gtype.rank, 0, -3))[: gtype.rank]
    elements = list(weyl_elements(gtype))
    for w in elements:
        for v in elements:
            wv = compose(w, v)
            assert act(wv, probe) == act(w, act(v, probe))
            assert sign(wv) == sign(w) * sign(v)


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=2))
def test_action_composition_on_arbitrary_weights(coords):
    lam = tuple(coords)
    elements = list(weyl_elements(D2))
    for w in elements:
        for v in elements:
            assert act(compose(w, v), lam) == act(w, act(v, lam))


@pytest.mark.parametrize("gtype", [C1, C2, D2, GroupType("D", 3), GroupType("C", 3)])
def test_faithful_on_regular_weights(gtype):
    regular = tuple(range(5 * gtype.rank, 0, -5))[: gtype.rank]
    assert is_dominant(gtype, regular)
    ident = _identity(gtype.rank)
    for w in weyl_elements(gtype):
        if w != ident:
            assert act(w, regular) != regular


@pytest.mark.parametrize("gtype", [C2, D2, D1, GroupType("D", 3)])
def test_orbit_has_dominant_element(gtype):
    for lam in dominant_weights(gtype, 2):
        for w in weyl_elements(gtype):
            moved = act(w, lam)
            orbit = {act(v, moved) for v in weyl_elements(gtype)}
            assert any(is_dominant(gtype, x) for x in orbit)


@pytest.mark.parametrize("gtype", [C2, D2, GroupType("D", 3)])
def test_regular_orbit_has_unique_dominant_element(gtype):
    regular = tuple(range(2 * gtype.rank, 0, -2))[: gtype.rank]
    orbit = {act(w, regular) for w in weyl_elements(gtype)}
    dominant = [x for x in orbit if is_dominant(gtype, x)]
    assert dominant == [regular]


@pytest.mark.parametrize("gtype", [C1, C2, D1, D2, GroupType("D", 3), GroupType("C", 3)])
def test_dominant_representative_matches_enumeration(gtype):
    for lam in dominant_weights(gtype, 2):
        for w in weyl_elements(gtype):
            moved = act(w, lam)
            rep = dominant_representative(gtype, moved)
            if rep is None:
                # singular: some nontrivial element fixes the weight
                assert any(
                    act(v, moved) == moved and v != _identity(gtype.rank)
                    for v in weyl_elements(gtype)
                )
                continue
            s, dom = rep
            assert is_dominant(gtype, dom)
            carriers = [
                v for v in weyl_elements(gtype) if act(v, moved) == dom
            ]
            assert carriers and all(sign(v) == s for v in carriers)
    if gtype.rank >= 2:
        assert dominant_representative(gtype, (1,) * gtype.rank) is None


@pytest.mark.parametrize(
    "gtype", [GroupType(f, r) for f in "CD" for r in (1, 2, 3, 4)], ids=str
)
def test_dominant_conjugate_matches_brute_force_orbits(gtype):
    """Every point of the box [-2, 2]^rank lies in the orbit of exactly one
    dominant weight, found by acting with every Weyl element, and
    dominant_conjugate returns that weight: walls, zero entries and type
    D's sign parity included, from a cold memo and then a warm one."""
    box = set(product(range(-2, 3), repeat=gtype.rank))
    orbits = {}
    for lam in dominant_weights(gtype, 2):
        orbit = {act(w, lam) for w in weyl_elements(gtype)}
        assert [x for x in orbit if is_dominant(gtype, x)] == [lam]
        orbits.update(dict.fromkeys(orbit, lam))
    assert set(orbits) == box
    _dominant_conjugate.cache_clear()
    for _ in range(2):
        assert {x: dominant_conjugate(gtype, x) for x in box} == orbits
    with pytest.raises(ValueError, match="rank mismatch"):
        dominant_conjugate(gtype, (0,) * (gtype.rank + 1))


def test_compose_and_dominant_representative_reject_rank_mismatch():
    two = SignedPermutation((1, 0), (1, 1))
    three = SignedPermutation((0, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="^rank mismatch in composition$"):
        compose(two, three)
    with pytest.raises(ValueError, match="^rank mismatch$"):
        dominant_representative(C2, (2, 1, 0))
