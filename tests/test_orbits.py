import importlib
import re
from itertools import product

import pytest

from conftest import dominant_in_box_oracle, orbit_oracle, orbit_side_types
from ospkostka import oddroots, orbits
from ospkostka.kostka import kostka
from ospkostka.oddroots import biweight, osp_root_data, simple_root_coordinates
from ospkostka.orbits import (
    OrbitLabel,
    SignatureSeq,
    closure_le,
    embed_signatures,
    gl_bisignature_ge,
    label_bisignature,
    lattice_representative,
    orbit_dim,
    orbit_labels_in_box,
    order_pair,
    shuffled_alpha_beta,
    stalk_poincare,
    theta_signature,
    validate_label,
)

# The package attribute `kostka` is the function; the memo lives in the module.
kostka_module = importlib.import_module("ospkostka.kostka")

D3 = osp_root_data(3)
D4 = osp_root_data(4)
D5 = osp_root_data(5)


def test_label_validation():
    validate_label(D3, OrbitLabel((-2,), (3,)))
    with pytest.raises(ValueError):
        validate_label(D3, OrbitLabel((0,), (-1,)))  # lam_b must be a partition
    with pytest.raises(ValueError):
        validate_label(D4, OrbitLabel((-1,), (1, 0)))  # even case: lam_s partition
    validate_label(D4, OrbitLabel((1,), (1, -1)))


@pytest.mark.parametrize("N", range(3, 10))
def test_orbits_match_family_oracle(N):
    data = osp_root_data(N)
    expected = orbit_oracle(N, 2)
    labels = orbit_labels_in_box(data, 2)
    assert [(o.lam_s, o.lam_b) for o in labels] == [rec["label"] for rec in expected]
    for o, rec in zip(labels, expected):
        assert order_pair(data, o) == rec["order_pair"]
        mu, nu = embed_signatures(data, o)
        assert (mu.entries, mu.inverted) == rec["mu"]
        assert (nu.entries, nu.inverted) == rec["nu"]
        assert theta_signature(data, mu, nu) == SignatureSeq(rec["theta"], False)
        assert label_bisignature(data, o) == rec["bisignature"]


@pytest.mark.parametrize("N", range(3, 10))
def test_validate_label_matches_family_oracle(N):
    """Each side on its own, against every vector in the box, with the
    other side held at zero."""
    data = osp_root_data(N)
    (fam_s, rank_s), (fam_b, rank_b) = orbit_side_types(N)
    zero_s, zero_b = (0,) * rank_s, (0,) * rank_b
    sides = [
        ("lam_s", fam_s, rank_s, lambda x: OrbitLabel(x, zero_b)),
        ("lam_b", fam_b, rank_b, lambda x: OrbitLabel(zero_s, x)),
    ]
    for name, family, rank, label in sides:
        good = set(dominant_in_box_oracle(family, rank, 2))
        for x in list(product(range(-2, 3), repeat=rank)) + [(0,) * (rank + 1)]:
            if x in good:
                validate_label(data, label(x))
            else:
                message = f"{name} {x} is not a dominant {family}_{rank} coweight"
                with pytest.raises(ValueError, match=re.escape(message)):
                    validate_label(data, label(x))


def test_orbit_dim_gap_is_the_odd_root_height():
    """orbit_dim and the simple odd-root coordinates share no code: on every
    pair of the box-2 labels at N=3..7, mu lies in the closure of lam iff
    lam - mu has coordinates, and then dim O_lam - dim O_mu is their sum."""
    closure_pairs = 0
    for N in range(3, 8):
        data = osp_root_data(N)
        labels = [
            (o, orbit_dim(data, o), biweight(*order_pair(data, o)))
            for o in orbit_labels_in_box(data, 2)
        ]
        for lam, dim_lam, weight_lam in labels:
            for mu, dim_mu, weight_mu in labels:
                coords = simple_root_coordinates(data, weight_lam - weight_mu)
                assert (coords is not None) == closure_le(data, mu, lam), (N, lam, mu)
                if coords is not None:
                    assert sum(coords) == dim_lam - dim_mu, (N, lam, mu)
                    closure_pairs += 1
    assert closure_pairs == 6331


def test_orbit_dim_examples():
    assert orbit_dim(D3, OrbitLabel((0,), (0,))) == 0
    assert orbit_dim(D3, OrbitLabel((0,), (1,))) == 1
    assert orbit_dim(D5, OrbitLabel((1, 0), (1, 0))) == 5
    # sign of the last D-coordinate is invisible to the dimension
    assert orbit_dim(D5, OrbitLabel((1, -1), (1, 0))) == orbit_dim(
        D5, OrbitLabel((1, 1), (1, 0))
    )


def test_closure_examples():
    o = OrbitLabel((1,), (1,))
    assert closure_le(D3, o, o)
    assert closure_le(D3, OrbitLabel((0,), (0,)), o)
    assert not closure_le(D3, OrbitLabel((0,), (0,)), OrbitLabel((1,), (0,)))


def test_stalk_examples():
    lam = OrbitLabel((1,), (1,))
    assert stalk_poincare(D3, lam, lam) == ((-orbit_dim(D3, lam), 1),)
    assert stalk_poincare(D3, lam, OrbitLabel((0,), (0,))) == ((-1, 1),)
    with pytest.raises(ValueError, match="closure"):
        stalk_poincare(D3, OrbitLabel((0,), (0,)), lam)


def test_embed_signatures_examples():
    mu, nu = embed_signatures(D3, OrbitLabel((0,), (0,)))
    assert mu.entries == (0, 0) and nu.entries == (0, 0, 0)
    mu, nu = embed_signatures(D3, OrbitLabel((1,), (1,)))
    assert mu == SignatureSeq((1, -1), False)
    assert nu == SignatureSeq((1, 0, -1), False)
    mu, nu = embed_signatures(D3, OrbitLabel((-1,), (1,)))
    assert mu == SignatureSeq((-1, 1), True)


def test_embed_signatures_even_case():
    mu, nu = embed_signatures(D4, OrbitLabel((2,), (1, -1)))
    assert mu == SignatureSeq((2, 0, -2), False)
    assert nu == SignatureSeq((1, -1, 1, -1), True)


def test_shuffled_alpha_beta_example():
    mu, nu = embed_signatures(D3, OrbitLabel((1,), (1,)))
    stab = shuffled_alpha_beta(D3, mu, nu)
    assert stab.alpha == (1, 1, 0, -1, -1)
    assert stab.beta == (2, 1, -1, -2)
    assert all(m == 0 for m in stab.m_mult.values())
    assert stab.reductive == "trivial"


def test_shuffled_alpha_beta_base_point():
    mu, nu = embed_signatures(D3, OrbitLabel((0,), (0,)))
    stab = shuffled_alpha_beta(D3, mu, nu)
    assert stab.beta == (0, 0, 0, 0)
    assert stab.n_mult == {0: 4}
    assert stab.m_mult == {0: 2}
    assert stab.reductive == "SO_2"


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 1)])
def test_stabilizer_symmetry_invariants(data, bound):
    for label in orbit_labels_in_box(data, bound):
        stab = shuffled_alpha_beta(data, *embed_signatures(data, label))
        assert sum(stab.n_mult.values()) == 2 * data.N - 2
        for i, m in stab.m_mult.items():
            assert stab.m_mult.get(-i, 0) == m


def test_theta_signature_examples():
    mu, nu = embed_signatures(D3, OrbitLabel((0,), (0,)))
    assert theta_signature(D3, mu, nu).entries == (0, 0, 0)
    mu, nu = embed_signatures(D3, OrbitLabel((1,), (1,)))
    assert theta_signature(D3, mu, nu).entries == (2, 0, -2)
    mu, nu = embed_signatures(D3, OrbitLabel((-1,), (1,)))
    assert theta_signature(D3, mu, nu).entries == (2, 0, -2)


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 1)])
def test_theta_is_antisymmetric(data, bound):
    for label in orbit_labels_in_box(data, bound):
        theta = theta_signature(data, *embed_signatures(data, label)).entries
        assert theta == tuple(-x for x in reversed(theta))
        assert all(theta[i] >= theta[i + 1] for i in range(len(theta) - 1))


def test_lattice_representative_example():
    mu, nu = embed_signatures(D3, OrbitLabel((1,), (1,)))
    model = lattice_representative(mu, nu)
    assert [r.terms for r in model.rows] == [
        ((1, -2), (3, -1)),
        ((2, 1), (3, 0)),
        ((3, 1),),
    ]
    assert str(model.rows[0]) == "t^{-2} e1 + t^{-1} e3"


def test_lattice_representative_standard():
    mu, nu = embed_signatures(D3, OrbitLabel((0,), (0,)))
    model = lattice_representative(mu, nu)
    assert [r.terms for r in model.rows] == [((1, 0), (3, 0)), ((2, 0), (3, 0)), ((3, 0),)]


def test_lattice_generator_exponent_matrix_is_triangular():
    # e_N only ever appears alongside a lone e_i term, never two e_i
    mu, nu = embed_signatures(D5, OrbitLabel((2, -1), (2, 1)))
    model = lattice_representative(mu, nu)
    for i, row in enumerate(model.rows[:-1]):
        indices = [idx for idx, _ in row.terms]
        assert indices == [i + 1, 5]
    assert model.rows[-1].terms[0][0] == 5


def test_lattice_representative_length_mismatch():
    with pytest.raises(ValueError):
        lattice_representative(SignatureSeq((0, 0)), SignatureSeq((0, 0)))


def test_sequence_length_validation():
    mu, nu = embed_signatures(D3, OrbitLabel((1,), (1,)))
    with pytest.raises(ValueError, match="length"):
        shuffled_alpha_beta(D3, nu, nu)
    with pytest.raises(ValueError, match="length"):
        theta_signature(D3, mu, mu)


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 2)])
def test_embed_signatures_round_trip(data, bound):
    # the embedded sequences (with the variant flag) determine the label
    n = data.n
    for label in orbit_labels_in_box(data, bound):
        mu, nu = embed_signatures(data, label)
        if data.parity == "odd":
            assert mu.entries[:n] == label.lam_s
            assert nu.entries[:n] == label.lam_b
            assert mu.inverted == (label.lam_s[-1] < 0)
        else:
            assert mu.entries[: n - 1] == label.lam_s
            assert nu.entries[:n] == label.lam_b
            assert nu.inverted == (label.lam_b[-1] < 0)
        # symmetric tails mirror the heads
        assert mu.entries == tuple(-x for x in reversed(mu.entries))
        assert nu.entries == tuple(-x for x in reversed(nu.entries))


def test_gl_bisignature_examples():
    pair = ((3, 1), (2, 1, 0))
    assert gl_bisignature_ge(pair, pair)
    # partial sums hold but the totals disagree, so the order fails
    assert not gl_bisignature_ge(((1,), (1, -1)), ((0,), (0, 0)))
    assert not gl_bisignature_ge(((2,), (1, -1)), ((0,), (0, 0)))
    # genuine comparable pair coming from orbit data
    top = label_bisignature(D3, OrbitLabel((1,), (1,)))
    bot = label_bisignature(D3, OrbitLabel((0,), (0,)))
    assert gl_bisignature_ge(top, bot)
    assert not gl_bisignature_ge(bot, top)


def test_gl_bisignature_rejects_malformed():
    with pytest.raises(ValueError):
        gl_bisignature_ge(((0, 1), (0, 0, 0)), ((0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        gl_bisignature_ge(((0,), (0, 0, 0)), ((0,), (0, 0, 0)))


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 1)])
def test_closure_is_partial_order(data, bound):
    labels = orbit_labels_in_box(data, bound)
    down = [0] * len(labels)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if closure_le(data, b, a):
                down[i] |= 1 << j
    for i in range(len(labels)):
        assert down[i] >> i & 1
        for j in range(len(labels)):
            if i != j and down[i] >> j & 1:
                assert not down[j] >> i & 1
                assert down[i] | down[j] == down[i]


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 1)])
def test_closure_implies_gl_order(data, bound):
    labels = orbit_labels_in_box(data, bound)
    for lam in labels:
        for mu in labels:
            if closure_le(data, mu, lam):
                assert gl_bisignature_ge(
                    label_bisignature(data, lam), label_bisignature(data, mu)
                )


@pytest.mark.parametrize("data,bound", [(D3, 2), (D4, 2), (D5, 1)])
def test_stalk_perversity_bounds(data, bound):
    labels = orbit_labels_in_box(data, bound)
    for lam in labels:
        dim_lam = orbit_dim(data, lam)
        for mu in labels:
            if not closure_le(data, mu, lam):
                continue
            dim_mu = orbit_dim(data, mu)
            table = stalk_poincare(data, lam, mu)
            for degree, m in table:
                assert m > 0
                i = -degree
                assert i <= dim_lam
                if lam != mu:
                    assert i > dim_mu
            if lam == mu:
                assert table == ((-dim_lam, 1),)


def reference_stalk(data, lam, mu):
    """stalk_poincare from the public calls alone."""
    if not closure_le(data, mu, lam):
        raise ValueError("orbit not in closure")
    poly = kostka(data, order_pair(data, lam), order_pair(data, mu))
    base = orbit_dim(data, mu)
    return tuple((-(base + d), c) for d, c in enumerate(poly.coeffs) if c)


def as_lists(o):
    return OrbitLabel(list(o.lam_s), list(o.lam_b))


@pytest.mark.parametrize("N, box", [(N, 1) for N in range(3, 9)] + [(4, 2), (5, 2)])
def test_stalk_matches_public_reference(N, box, monkeypatch):
    """Every closure pair of the box, labels as tuples and as lists, each
    side from a cold Kostka memo."""
    data = osp_root_data(N)
    labels = orbit_labels_in_box(data, box)
    pairs = [(lam, mu) for lam in labels for mu in labels if closure_le(data, mu, lam)]
    tables = []
    for wrap in (OrbitLabel._make, as_lists):
        monkeypatch.setattr(kostka_module, "_kostka_memo", {})
        tables.append([stalk_poincare(data, wrap(lam), wrap(mu)) for lam, mu in pairs])
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    expected = [reference_stalk(data, lam, mu) for lam, mu in pairs]
    assert tables == [expected, expected]


D10 = osp_root_data(10)
STALK_ERROR_CASES = {
    "bad-lambda": (D3, OrbitLabel((0,), (-1,)), OrbitLabel((0,), (0,))),
    "bad-mu": (D3, OrbitLabel((0,), (0,)), OrbitLabel((0,), (-1,))),
    "both-bad": (D3, OrbitLabel((0,), (-1,)), OrbitLabel((0,), (-2,))),
    "lambda-length": (D3, OrbitLabel((1, 0), (1,)), OrbitLabel((0,), (0,))),
    "float-lambda": (D3, OrbitLabel((1.0,), (1,)), OrbitLabel((0,), (0,))),
    "float-mu": (D3, OrbitLabel((1,), (1,)), OrbitLabel((0,), (0.0,))),
    "bool-lambda": (D3, OrbitLabel((1,), (True,)), OrbitLabel((0,), (0,))),
    "list-bad-mu": (D4, as_lists(OrbitLabel((1,), (1, 0))), as_lists(OrbitLabel((-1,), (0, 0)))),
    "not-in-closure": (D3, OrbitLabel((0,), (0,)), OrbitLabel((1,), (1,))),
    "rank-guard": (D10, OrbitLabel((1, 0, 0, 0), (1, 0, 0, 0, 0)),
                   OrbitLabel((0, 0, 0, 0), (0, 0, 0, 0, 0))),
}


@pytest.mark.parametrize("case", STALK_ERROR_CASES)
def test_stalk_errors_match_public_reference(case):
    data, lam, mu = STALK_ERROR_CASES[case]
    with pytest.raises(Exception) as expected:
        reference_stalk(data, lam, mu)
    with pytest.raises(Exception) as got:
        stalk_poincare(data, lam, mu)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_stalk_checks_each_label_once(monkeypatch):
    """One validate_label per label, labels as tuples and as lists, each
    from a cold Kostka memo; the order is read without re-checking the
    pairs through closure_le or dominance_ge, and K from the Kostka
    column, without kostka or a second _check_dominant_pair."""
    calls = []

    def counting(data, o):
        calls.append(o)
        return validate_label(data, o)

    def forbidden(*args):
        raise AssertionError("pair re-checked")

    lam, mu = OrbitLabel((1, 0), (1, 0)), OrbitLabel((0, 0), (0, 0))
    expected = reference_stalk(D5, lam, mu)
    monkeypatch.setattr(orbits, "validate_label", counting)
    monkeypatch.setattr(orbits, "closure_le", forbidden)
    monkeypatch.setattr(oddroots, "dominance_ge", forbidden)
    for module in (oddroots, kostka_module):
        monkeypatch.setattr(module, "_check_dominant_pair", forbidden)
    for module in (orbits, kostka_module):
        monkeypatch.setattr(module, "kostka", forbidden)
    for wrap in (OrbitLabel._make, as_lists):
        calls.clear()
        monkeypatch.setattr(kostka_module, "_kostka_memo", {})
        assert stalk_poincare(D5, wrap(lam), wrap(mu)) == expected
        assert calls == [wrap(lam), wrap(mu)]
        assert len(kostka_module._kostka_memo) == 1  # stored by the column
