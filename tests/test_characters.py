import pytest

from ospkostka.characters import (
    _divide_by_alternant,
    CharElt,
    decompose,
    dual_label,
    irreducible_character,
    is_weyl_invariant,
    outer,
    product,
    trivial_char,
    weyl_dimension,
    zero_char,
)
from ospkostka.roots import GroupType, act, dominant_weights, weyl_elements

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
    assert product(a, trivial_char((C1,))) == a
    sq = product(irreducible_character(C1, (1,)), irreducible_character(C1, (1,)))
    assert sq.mult((0,)) == 2
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
    assert decompose(zero_char((C1,))) == {}


def test_decompose_product_lattice():
    ch = outer(irreducible_character(D2, (1, 0)), irreducible_character(C1, (1,)))
    assert decompose(ch) == {((1, 0), (1,)): 1}


def test_decompose_rejects_non_invariant():
    ch = CharElt((C1,), {(1,): 1})
    with pytest.raises(ValueError, match="invariant"):
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
        assert irreducible_character(gtype, star) == ch.negated_weights()


@pytest.mark.parametrize("gtype", ALL_SMALL)
def test_dimensions_match_weyl_formula(gtype):
    bound = 3 if gtype.rank <= 3 else 2
    for lam in dominant_weights(gtype, bound):
        ch = irreducible_character(gtype, lam)
        dim = ch.dim()
        assert dim > 0
        assert dim == weyl_dimension(gtype, lam)


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
            assert irreducible_character(gtype, lam).mult(lam) == 1


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
