"""Contract of the value types: their repr and str text, immutability,
hashing by value and pickling.  Each case builds a fresh instance, so two
calls give two distinct objects with equal fields."""

import pickle

import pytest

from ospkostka.characters import CharElt
from ospkostka.euler import BrylReport, verify_bryl
from ospkostka.kostka import QPoly
from ospkostka.moment import FormsSpec
from ospkostka.oddroots import BiWeight, osp_root_data
from ospkostka.orbits import (
    LatticeModel,
    LatticeRow,
    OrbitLabel,
    SignatureSeq,
    StabilizerData,
    embed_signatures,
    lattice_representative,
    shuffled_alpha_beta,
)
from ospkostka.roots import GroupType, SignedPermutation


def _signatures():
    return embed_signatures(osp_root_data(5), OrbitLabel((1, 0), (1, 1)))


def _lattice():
    return lattice_representative(*_signatures())


# (class, factory, repr, str); str is None where it equals repr.
CASES = [
    (GroupType, lambda: GroupType("C", 2), "GroupType(family='C', rank=2)", "C_2"),
    (
        SignedPermutation,
        lambda: SignedPermutation((1, 0), (1, -1)),
        "SignedPermutation(perm=(1, 0), signs=(1, -1))",
        None,
    ),
    (BiWeight, lambda: BiWeight((1, 0), (-1,)), "BiWeight(eps=(1, 0), delta=(-1,))", "1,0;-1"),
    (QPoly, lambda: QPoly((0, 1, 2, 0, 0)), "QPoly(coeffs=(0, 1, 2))", "q + 2*q^2"),
    (FormsSpec, lambda: FormsSpec(5), "FormsSpec(N=5)", None),
    (
        OrbitLabel,
        lambda: OrbitLabel((1, 0), (1, 1)),
        "OrbitLabel(lam_s=(1, 0), lam_b=(1, 1))",
        "1,0;1,1",
    ),
    (
        SignatureSeq,
        lambda: _signatures()[1],
        "SignatureSeq(entries=(1, 1, 0, -1, -1), inverted=False)",
        None,
    ),
    (
        LatticeRow,
        lambda: _lattice().rows[0],
        "LatticeRow(terms=((1, -2), (5, -1)))",
        "t^{-2} e1 + t^{-1} e5",
    ),
    (
        LatticeModel,
        _lattice,
        "LatticeModel(rows=(LatticeRow(terms=((1, -2), (5, -1))), "
        "LatticeRow(terms=((2, -1), (5, -1))), LatticeRow(terms=((3, 0), (5, 0))), "
        "LatticeRow(terms=((4, 2), (5, 1))), LatticeRow(terms=((5, 1),))))",
        "t^{-2} e1 + t^{-1} e5\nt^{-1} e2 + t^{-1} e5\ne3 + e5\nt^{2} e4 + t^{1} e5\nt^{1} e5",
    ),
    (
        StabilizerData,
        lambda: shuffled_alpha_beta(osp_root_data(5), *_signatures()),
        "StabilizerData(alpha=(1, 1, 1, 0, 0, 0, -1, -1, -1), "
        "beta=(2, 2, 1, 0, 0, -1, -2, -2), n_mult={-2: 2, -1: 1, 0: 2, 1: 1, 2: 2}, "
        "m_mult={-2: 1, -1: 0, 0: 1, 1: 0, 2: 1}, reductive='SO_1 x GL_1')",
        None,
    ),
    (
        BrylReport,
        lambda: verify_bryl(osp_root_data(3), ((0,), (0,)), 1),
        "BrylReport(N=3, mu=((0,), (0,)), qmax=1, ok=True, degree_diffs=["
        "CharElt(context=(GroupType(family='D', rank=1), GroupType(family='C', rank=1)), "
        "terms={}), "
        "CharElt(context=(GroupType(family='D', rank=1), GroupType(family='C', rank=1)), "
        "terms={})])",
        None,
    ),
    (
        CharElt,
        lambda: CharElt((GroupType("C", 1),), {(1,): 1, (-1,): 1}),
        "CharElt(context=(GroupType(family='C', rank=1),), terms={(1,): 1, (-1,): 1})",
        None,
    ),
]

IDS = [cls.__name__ for cls, *_ in CASES]

# Fields that hold a dict or a list, or a mutable class: hashing raises.
UNHASHABLE = (StabilizerData, BrylReport, CharElt)


@pytest.mark.parametrize("cls, make, text, pretty", CASES, ids=IDS)
def test_repr_and_str(cls, make, text, pretty):
    value = make()
    assert type(value) is cls
    assert repr(value) == text
    assert str(value) == (text if pretty is None else pretty)


@pytest.mark.parametrize("cls, make, text, pretty", CASES, ids=IDS)
def test_attribute_assignment_raises(cls, make, text, pretty):
    value = make()
    if cls is CharElt:
        # mutable by design (add_scaled), but it has no per-instance dict
        with pytest.raises(AttributeError):
            value.weights = {}
        return
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, make, text, pretty", CASES, ids=IDS)
def test_equal_fields_hash_equal(cls, make, text, pretty):
    a, b = make(), make()
    assert a is not b
    assert a == b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    # named tuples: equal, with equal hashes, to the plain tuple of fields
    assert a == tuple(a)
    assert hash(a) == hash(tuple(a))


@pytest.mark.parametrize("cls, make, text, pretty", CASES, ids=IDS)
def test_pickle_round_trip(cls, make, text, pretty):
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    assert copy == value
    assert repr(copy) == text


def test_signature_seq_defaults_to_not_inverted():
    seq = SignatureSeq((2, 0, -2))
    assert seq.inverted is False
    assert seq == SignatureSeq((2, 0, -2), False)
    assert SignatureSeq((1, -1), True).inverted is True


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GroupType("B", 2), "unknown family 'B', expected 'D' or 'C'"),
        (lambda: GroupType("C", 0), "rank must be >= 1, got 0"),
        (lambda: FormsSpec(2), "N must be >= 3"),
    ],
    ids=["family", "rank", "forms-N"],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_qpoly_from_a_list_is_trimmed_to_a_tuple():
    assert QPoly([1, 0, 2, 0]).coeffs == (1, 0, 2)
    assert QPoly([0, 0]).coeffs == ()
