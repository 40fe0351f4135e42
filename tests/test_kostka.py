import importlib
from collections import Counter
from itertools import combinations_with_replacement, product as iproduct

import pytest

from conftest import brute_force_l_coeffs, brute_force_partition_table
from ospkostka.kostka import (
    KOSTKA_RANK_GUARD,
    QPoly,
    RootSet,
    kostka,
    kostka_custom,
    kostka_defect,
    kostka_memo_export,
    kostka_memo_import,
    l_poly,
    partition_support_table,
)
from ospkostka.oddroots import (
    BiWeight,
    biweight,
    dominance_ge,
    odd_positive_roots,
    osp_root_data,
    simple_odd_roots,
)
from ospkostka.roots import (
    EnumerationTooLargeError,
    GroupType,
    act,
    dominant_weights,
    rho,
    sign,
    weyl_elements,
)

# The package attribute `kostka` is the function; the memo lives in the module.
kostka_module = importlib.import_module("ospkostka.kostka")


def test_qpoly_normalization_and_arithmetic():
    assert QPoly((0, 1, 0)).coeffs == (0, 1)
    assert not QPoly((0, 0))
    assert QPoly((1, 2)) + QPoly((0, -2, 3)) == QPoly((1, 0, 3))
    assert QPoly((1, 1)) - QPoly((1, 1)) == QPoly.zero()
    assert QPoly((1,)).shifted(2) == QPoly((0, 0, 1))
    assert QPoly((2, 1)).degree == 1 and QPoly.zero().degree is None
    assert str(QPoly((0, 1))) == "q"
    assert str(QPoly((1, 0, 3))) == "1 + 3*q^2"


def test_l_poly_examples_n3():
    d3 = osp_root_data(3)
    assert l_poly(d3, d3.zero()) == QPoly.one()
    assert l_poly(d3, biweight((1,), (1,))) == QPoly((0, 1))
    assert l_poly(d3, biweight((0,), (2,))) == QPoly((0, 0, 1))
    assert l_poly(d3, biweight((1,), (0,))) == QPoly.zero()


@pytest.mark.parametrize("N,box,dmax", [(3, 2, 4), (4, 2, 4)])
def test_l_poly_against_literal_enumeration(N, box, dmax):
    data = osp_root_data(N)
    r = data.eps_rank + data.delta_rank
    for flat in iproduct(range(-box, box + 1), repeat=r):
        alpha = BiWeight(flat[: data.eps_rank], flat[data.eps_rank :])
        poly = l_poly(data, alpha)
        assert tuple(poly[d] for d in range(dmax + 1)) == brute_force_l_coeffs(
            data, alpha, dmax
        )


def boxed_partition_counts(data, box, dmax):
    """The counts p_d(alpha) of partition_support_table for alpha inside
    the box, with zeros omitted: read with .get((alpha, d), 0)."""
    return {
        (BiWeight(flat[: data.eps_rank], flat[data.eps_rank :]), d): c
        for flat, counts in partition_support_table(data, dmax).items()
        if all(abs(x) <= box for x in flat)
        for d, c in enumerate(counts)
        if c
    }


def test_partition_support_table_examples():
    d3 = osp_root_data(3)
    table = boxed_partition_counts(d3, box=2, dmax=3)
    assert table[(d3.zero(), 0)] == 1
    for beta in odd_positive_roots(d3):
        assert table.get((beta, 1), 0) == 1
    assert table.get((biweight((1,), (0,)), 1), 0) == 0
    assert table[(biweight((0,), (2,)), 2)] == 1


@pytest.mark.parametrize("N", [3, 4])
def test_partition_support_table_matches_l_poly(N):
    data = osp_root_data(N)
    table = boxed_partition_counts(data, box=2, dmax=4)
    r = data.eps_rank + data.delta_rank
    for flat in iproduct(range(-2, 3), repeat=r):
        alpha = BiWeight(flat[: data.eps_rank], flat[data.eps_rank :])
        poly = l_poly(data, alpha)
        for d in range(5):
            assert table.get((alpha, d), 0) == poly[d]


def test_kostka_examples_n3():
    d3 = osp_root_data(3)
    assert kostka(d3, ((1,), (1,)), ((0,), (0,))) == QPoly((0, 1))
    assert kostka(d3, ((0,), (2,)), ((0,), (0,))) == QPoly((0, 0, 1))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kostka_diagonal_is_one(N):
    data = osp_root_data(N)
    for lam0 in dominant_weights(data.type0, 2):
        for lam1 in dominant_weights(data.type1, 2):
            lam = (lam0, lam1)
            assert kostka(data, lam, lam) == QPoly.one()


def test_kostka_diagonal_only_identity_term_contributes():
    # every non-identity Weyl pair pushes the L argument out of the cone
    from ospkostka.roots import act, weyl_elements, identity_element

    data = osp_root_data(4)
    for lam0 in dominant_weights(data.type0, 2):
        for lam1 in dominant_weights(data.type1, 2):
            shift0 = tuple(a + b for a, b in zip(lam0, data.rho0))
            shift1 = tuple(a + b for a, b in zip(lam1, data.rho1))
            for w0 in weyl_elements(data.type0):
                for w1 in weyl_elements(data.type1):
                    if (w0, w1) == (
                        identity_element(data.eps_rank),
                        identity_element(data.delta_rank),
                    ):
                        continue
                    arg = BiWeight(
                        tuple(a - b - c for a, b, c in zip(act(w0, shift0), data.rho0, lam0)),
                        tuple(a - b - c for a, b, c in zip(act(w1, shift1), data.rho1, lam1)),
                    )
                    assert l_poly(data, arg) == QPoly.zero()


def test_kostka_rejects_bad_input():
    d3 = osp_root_data(3)
    with pytest.raises(ValueError):
        kostka(d3, ((0,), (-1,)), ((0,), (0,)))
    with pytest.raises(EnumerationTooLargeError):
        kostka(osp_root_data(11), ((0,) * 5, (0,) * 5), ((0,) * 5, (0,) * 5))


@pytest.mark.parametrize("N", [3, 4])
def test_kostka_truncated_brute_force(N):
    """Cross-check the Weyl sum against literally enumerated L-tables."""
    data = osp_root_data(N)
    dmax = 5
    table = brute_force_partition_table(data, dmax)
    for lam0 in dominant_weights(data.type0, 1):
        for lam1 in dominant_weights(data.type1, 1):
            for mu0 in dominant_weights(data.type0, 1):
                for mu1 in dominant_weights(data.type1, 1):
                    expected = [0] * (dmax + 1)
                    shift0 = tuple(a + b for a, b in zip(lam0, data.rho0))
                    shift1 = tuple(a + b for a, b in zip(lam1, data.rho1))
                    for w0 in weyl_elements(data.type0):
                        arg0 = tuple(
                            a - b - c
                            for a, b, c in zip(act(w0, shift0), data.rho0, mu0)
                        )
                        for w1 in weyl_elements(data.type1):
                            arg1 = tuple(
                                a - b - c
                                for a, b, c in zip(act(w1, shift1), data.rho1, mu1)
                            )
                            s = sign(w0) * sign(w1)
                            for d in range(dmax + 1):
                                expected[d] += s * table.get(
                                    (BiWeight(arg0, arg1), d), 0
                                )
                    got = kostka(data, (lam0, lam1), (mu0, mu1))
                    # degrees above dmax cannot appear for these tiny weights
                    assert got.degree is None or got.degree <= dmax
                    assert tuple(got[d] for d in range(dmax + 1)) == tuple(expected)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_triangularity_and_cone_nonvanishing(N):
    data = osp_root_data(N)
    box = 2
    labels = [
        (l0, l1)
        for l0 in dominant_weights(data.type0, box)
        for l1 in dominant_weights(data.type1, box)
    ]
    for lam in labels:
        for mu in labels:
            poly = kostka(data, lam, mu)
            ge = dominance_ge(data, lam, mu)
            if ge:
                assert poly, (lam, mu)
            else:
                assert not poly, (lam, mu)


def test_kostka_custom_agrees_with_builtin():
    for N in (3, 4):
        data = osp_root_data(N)
        roots = RootSet(odd_positive_roots(data))
        simples = simple_odd_roots(data)
        for lam1 in dominant_weights(data.type1, 1):
            lam = (tuple([1] + [0] * (data.eps_rank - 1)), lam1)
            mu = ((0,) * data.eps_rank, (0,) * data.delta_rank)
            assert kostka_custom(
                roots, simples, data.type0, data.type1,
                (data.rho0, data.rho1), lam, mu,
            ) == kostka(data, lam, mu)


def test_kostka_custom_single_root():
    # one root eps_1 with trivial D_1 factor and a C_1 reflection whose
    # term dies: lam - mu = 2*eps_1 decomposes once, in 2 parts
    v = biweight((2,), (0,))
    root = biweight((1,), (0,))
    out = kostka_custom(
        RootSet((root,)),
        [root],
        GroupType("D", 1),
        GroupType("C", 1),
        ((0,), (1,)),
        ((2,), (0,)),
        ((0,), (0,)),
    )
    assert out == QPoly((0, 0, 1))


def test_kostka_custom_empty_reach():
    root = biweight((1,), (1,))
    out = kostka_custom(
        RootSet((root,)),
        [root],
        GroupType("D", 1),
        GroupType("C", 1),
        ((0,), (1,)),
        ((1,), (0,)),
        ((0,), (0,)),
    )
    assert out == QPoly.zero()


def test_kostka_custom_non_square_simple_set():
    """Two simple roots spanning a rank-2 sublattice of a rank-3 lattice,
    so many Weyl-sum arguments fail the cone solver's consistency rows.
    Checked against a literal signed sum over enumerated multisets."""
    s1, s2 = biweight((1, 0), (1,)), biweight((0, 1), (1,))
    roots = RootSet((s1, s2, s1 + s2))
    type0, type1 = GroupType("D", 2), GroupType("C", 1)
    rho_pair = (rho(type0), rho(type1))
    dmax = 8
    table = Counter()
    for d in range(dmax + 1):
        for combo in combinations_with_replacement(roots.roots, d):
            total = tuple(sum(col) for col in zip((0, 0, 0), *(b.flat() for b in combo)))
            table[(total, d)] += 1

    rho_flat = rho_pair[0] + rho_pair[1]

    def literal(lam, mu):
        shift0 = tuple(x + r for x, r in zip(lam[0], rho_pair[0]))
        shift1 = tuple(x + r for x, r in zip(lam[1], rho_pair[1]))
        out = [0] * (dmax + 1)
        for w0, w1 in iproduct(weyl_elements(type0), weyl_elements(type1)):
            moved = act(w0, shift0) + act(w1, shift1)
            arg = tuple(a - r - m for a, r, m in zip(moved, rho_flat, mu[0] + mu[1]))
            for d in range(dmax + 1):
                out[d] += sign(w0) * sign(w1) * table[(arg, d)]
        return QPoly(tuple(out))

    nonzero = 0
    for lam in iproduct(dominant_weights(type0, 2), dominant_weights(type1, 3)):
        for mu in iproduct(dominant_weights(type0, 1), dominant_weights(type1, 1)):
            got = kostka_custom(roots, [s1, s2], type0, type1, rho_pair, lam, mu)
            assert got.degree is None or got.degree < dmax
            assert got == literal(lam, mu), (lam, mu)
            nonzero += bool(got)
    assert nonzero > 10
    assert kostka_custom(
        roots, [s1, s2], type0, type1, rho_pair, ((3, 1), (4,)), ((1, -1), (0,))
    ) == QPoly((0, 0, 1, 1, 1))


def test_kostka_n9_cold_example():
    """At N=9 the Weyl sum visits |W(D_4)| * |W(C_4)| = 73,728 pairs."""
    data = osp_root_data(9)
    poly = kostka(data, ((1, 0, 0, 0), (1, 0, 0, 0)), ((0,) * 4, (0,) * 4))
    assert str(poly) == "q + q^3 + q^5 + 2*q^7 + q^9 + q^11 + q^13"


def test_kostka_custom_rejects_bad_root_set():
    good = biweight((1,), (1,))
    bad = biweight((-1,), (-1,))
    with pytest.raises(ValueError):
        kostka_custom(
            RootSet((good, bad)),
            [good],
            GroupType("D", 1),
            GroupType("C", 1),
            ((0,), (1,)),
            ((0,), (0,)),
            ((0,), (0,)),
        )


PAST_GUARD = KOSTKA_RANK_GUARD + 1


@pytest.mark.parametrize("rank0, rank1", [(PAST_GUARD, 1), (1, PAST_GUARD)])
def test_kostka_custom_rank_guard(rank0, rank1):
    """The guard on kostka applies to either Weyl factor of kostka_custom."""
    root = biweight((1,) * rank0, (1,) * rank1)
    zero = ((0,) * rank0, (0,) * rank1)
    type0, type1 = GroupType("D", rank0), GroupType("C", rank1)
    with pytest.raises(EnumerationTooLargeError, match=f"rank {PAST_GUARD} exceeds guard {KOSTKA_RANK_GUARD}"):
        kostka_custom(RootSet((root,)), [root], type0, type1,
                      (rho(type0), rho(type1)), zero, zero)


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh process-wide Kostka memo for one test, restored afterwards."""
    memo = {}
    monkeypatch.setattr(kostka_module, "_kostka_memo", memo)
    return memo


def test_memo_export_import_round_trip(empty_memo):
    data = osp_root_data(4)
    labels = [(l0, l1) for l0 in dominant_weights(data.type0, 1)
              for l1 in dominant_weights(data.type1, 1)]
    polys = {(lam, mu): kostka(data, lam, mu) for lam in labels for mu in labels}
    assert any(polys.values()) and not all(polys.values())
    exported = kostka_memo_export()
    assert len(exported) == len(polys)
    assert exported["4|K|1,0|1|0,0|0"] == list(polys[(((1, 0), (1,)), ((0, 0), (0,)))].coeffs)
    empty_memo.clear()
    kostka_memo_import(exported)
    assert kostka_memo_export() == exported
    assert {(lam, mu): kostka(data, lam, mu) for lam in labels for mu in labels} == polys


@pytest.mark.parametrize(
    "key, coeffs",
    [
        ("3|K|1|1|0", [0, 1]),  # five parts
        ("3|K|1|1|0|0|0", [0, 1]),  # seven parts
        ("3|L|1|1|0|0", [0, 1]),  # tag other than K
        ("3|K|x|1|0|0", [0, 1]),  # non-integer vector entry
        ("three|K|1|1|0|0", [0, 1]),  # non-integer N
        ("3|K|1|1|0|0", "q"),  # coefficients not a list
        ("3|K|1|1|0|0", [0, 1.0]),  # non-int coefficient
        ("3|K|1|1|0|0", [0, "1"]),  # non-int coefficient
    ],
)
def test_memo_import_skips_malformed_entries(empty_memo, key, coeffs):
    kostka_memo_import({key: coeffs})
    assert empty_memo == {}


@pytest.mark.parametrize(
    "key, coeffs",
    [
        ("2|K|1|1|0|0", [0, 1]),  # N below 3
        ("3|K|1,0|1|0|0", [0, 1]),  # eps part too long
        ("4|K|1,0||0,0|0", [0, 1]),  # delta part too short
        ("3|K|1|-1|0|0", []),  # lambda not dominant
        ("4|K|1,0|1|0,2|0", []),  # mu not dominant
        ("3|K|1|0|0|0", [1]),  # lambda >= mu fails, yet nonzero
        ("3|K|1|1|0|0", [7, 7, 7]),  # constant term off the diagonal
        ("3|K|1|1|0|0", [0, -1]),  # negative coefficient
        ("3|K|1|1|0|0", []),  # zero on the dominance cone
        ("3|K|1|1|1|1", [2]),  # diagonal value not 1
        ("3|K|1|1|1|1", [1, 1]),  # diagonal value not 1
    ],
)
def test_memo_import_drops_impossible_entries(empty_memo, key, coeffs):
    kostka_memo_import({key: coeffs})
    assert empty_memo == {}


def test_memo_import_keeps_possible_entries(empty_memo):
    kostka_memo_import({"3|K|1|1|0|0": [0, 1], "3|K|1|0|0|0": [], "3|K|1|1|1|1": [1]})
    assert empty_memo == {
        (3, (1,), (1,), (0,), (0,)): QPoly((0, 1)),
        (3, (1,), (0,), (0,), (0,)): QPoly(()),
        (3, (1,), (1,), (1,), (1,)): QPoly((1,)),
    }


def test_memo_import_checks_n_before_building_root_data(empty_memo, monkeypatch):
    built = []
    monkeypatch.setattr(kostka_module, "osp_root_data", lambda N: built.append(N))
    n_guard = 2 * KOSTKA_RANK_GUARD + 2
    kostka_memo_import({f"{n_guard}|K|0|0|0|0": [1], f"{10**9}|K|0|0|0|0": [1]})
    assert built == [] and empty_memo == {}


@pytest.mark.parametrize(
    "lam, mu, coeffs, reason",
    [
        ("a", "b", (0, 1), None),
        ("a", "a", (1,), None),
        ("a", "b", (0, -1, 2), "negative coefficient"),
        ("a", "b", (), "vanishes on the dominance cone"),
        ("a", "b", (1, 1), "nonzero constant term off the diagonal"),
        ("a", "a", (0, 1), "diagonal value is not 1"),
    ],
)
def test_kostka_defect(lam, mu, coeffs, reason):
    assert kostka_defect(lam, mu, QPoly(coeffs)) == reason
