import importlib
from collections import Counter
from itertools import combinations_with_replacement, product as iproduct
from operator import add

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (
    brute_force_l_coeffs,
    brute_force_partition_table,
    fraction_rank,
    per_pair_lusztig_kato_sum,
    unpruned_l_coeffs,
)
from ospkostka.euler import _qmax_guard, dominant_cone_labels
from ospkostka.orbits import closure_le, orbit_labels_in_box, order_pair
from ospkostka.kostka import (
    KOSTKA_RANK_GUARD,
    PartitionCounter,
    QPoly,
    kostka,
    kostka_custom,
    kostka_defect,
    kostka_degree,
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
    simple_root_coordinates,
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
    assert QPoly((1, 1)) - QPoly((1, 1)) == QPoly(())
    assert QPoly((2, 1)).degree == 1 and QPoly(()).degree is None
    assert str(QPoly((0, 1))) == "q"
    assert str(QPoly((1, 0, 3))) == "1 + 3*q^2"


def test_l_poly_examples_n3():
    d3 = osp_root_data(3)
    assert l_poly(d3, d3.zero()) == QPoly((1,))
    assert l_poly(d3, biweight((1,), (1,))) == QPoly((0, 1))
    assert l_poly(d3, biweight((0,), (2,))) == QPoly((0, 0, 1))
    assert l_poly(d3, biweight((1,), (0,))) == QPoly(())


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_l_poly_flat_against_unpruned_recursion(data):
    """The sorted, cut counter agrees with the plain recursion on sums of
    odd roots, on their negatives (off the cone) and on those sums plus a
    unit vector (odd coordinate sum, so non-integral coordinates)."""
    N = data.draw(st.integers(min_value=3, max_value=8), label="N")
    rd = osp_root_data(N)
    roots, simples = odd_positive_roots(rd), simple_odd_roots(rd)
    # fewer parts at larger N: the plain recursion's state count grows
    # steeply (10^4 states for one part at N=8, 2*10^6 for three)
    parts = data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=9 - N))
    flat = [sum(col) for col in zip(*(b.flat() for b in parts))]
    kind = data.draw(st.sampled_from(["in-cone", "off-cone", "non-integral"]))
    event(kind)
    if kind == "off-cone":
        flat = [-x for x in flat]
    elif kind == "non-integral":
        flat[data.draw(st.integers(min_value=0, max_value=len(flat) - 1))] += 1
    flat = tuple(flat)
    expected = unpruned_l_coeffs(roots, simples, flat)
    assert bool(expected) == (kind == "in-cone")
    assert PartitionCounter(roots, simples).l_poly_flat(flat).coeffs == expected


def _split(flat, rank0):
    return BiWeight(tuple(flat[:rank0]), tuple(flat[rank0:]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_custom_counter_against_unpruned_recursion(data):
    """Random simple sets (square or not, so some carry consistency rows)
    and random roots over them, many zero in some simple coordinate, and
    mostly one more root, 17 or 40 times simple root i; goals are sums of
    roots, simple-root combinations (reachable or not, some with 8..15
    times simple root i) and arbitrary vectors."""
    rank0 = data.draw(st.integers(min_value=1, max_value=2))
    dim = rank0 + data.draw(st.integers(min_value=1, max_value=2))
    k = data.draw(st.integers(min_value=1, max_value=dim), label="simples")
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    columns = data.draw(st.lists(vector, min_size=k, max_size=k))
    if fraction_rank(columns) < k:
        columns = [[int(i == j) for i in range(dim)] for j in range(k)]
    event("non-square" if k < dim else "square")
    simples = [_split(c, rank0) for c in columns]

    def combination(coeffs):
        return tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))

    coeffs = st.lists(st.integers(min_value=0, max_value=2), min_size=k, max_size=k)
    # sparse, with one coefficient raised by 1 so that no root is zero
    sparse = st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=k, max_size=k)
    nonzero = st.tuples(sparse, st.integers(min_value=0, max_value=k - 1)).map(
        lambda t: [c + (i == t[1]) for i, c in enumerate(t[0])]
    )
    roots = [
        _split(combination(c), rank0)
        for c in data.draw(st.lists(nonzero, min_size=1, max_size=5))
    ]
    # sometimes one root that is a wide multiple of simple root i, so the
    # packed fields must cover it and root-sum goals widen them
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    wide = data.draw(st.sampled_from([0, 17, 40]), label="wide")
    if wide:
        roots.append(_split(combination([wide * (j == i) for j in range(k)]), rank0))
    event(f"wide root: {bool(wide)}")
    counter = PartitionCounter(roots, simples)
    root_sums = st.lists(st.sampled_from(roots), min_size=1, max_size=4).map(
        lambda parts: tuple(sum(col) for col in zip(*(b.flat() for b in parts)))
    )
    # coordinate i up to 15: under the initial field width and short of
    # the wide root
    tall = st.tuples(coeffs, st.integers(8, 15)).map(
        lambda t: combination([c + t[1] * (j == i) for j, c in enumerate(t[0])])
    )
    goal = st.one_of(root_sums, coeffs.map(combination), tall, vector.map(tuple))
    goals = data.draw(st.lists(goal, min_size=1, max_size=4))
    for flat in goals:
        expected = unpruned_l_coeffs(roots, simples, flat)
        event("reached" if expected else "not reached")
        assert counter.l_poly_flat(flat).coeffs == expected


WIDE_ROOTS = (biweight((20,), (0,)), biweight((1,), (0,)), biweight((0,), (1,)))
UNIT_SIMPLES = (biweight((1,), (0,)), biweight((0,), (1,)))


@pytest.mark.parametrize("flat", [(0, 5), (1, 3), (2, 2), (3, 9), (21, 1), (40, 2)])
def test_counter_fields_cover_the_roots(flat):
    """A root coordinate (20) wider than any small goal's: the packed
    fields must hold it, or subtracting that root borrows across fields
    ((0;5) then reads q^5 + q^17 in place of q^5)."""
    expected = unpruned_l_coeffs(WIDE_ROOTS, UNIT_SIMPLES, flat)
    assert PartitionCounter(WIDE_ROOTS, UNIT_SIMPLES).l_poly_flat(flat).coeffs == expected


def test_counter_widens_across_goals():
    """One counter, goals small, then past the field width twice (the
    fields widen and the memo is dropped), then small again: every answer
    matches a fresh counter and the unpruned recursion."""
    counter = PartitionCounter(WIDE_ROOTS, UNIT_SIMPLES)
    goals = [(2, 2), (0, 5), (21, 40), (3, 9), (300, 3), (1, 3), (40, 2), (2, 2)]
    for flat in goals:
        expected = unpruned_l_coeffs(WIDE_ROOTS, UNIT_SIMPLES, flat)
        assert PartitionCounter(WIDE_ROOTS, UNIT_SIMPLES).l_poly_flat(flat).coeffs == expected
        assert counter.l_poly_flat(flat).coeffs == expected


def test_l_poly_flat_solves_each_argument_once(monkeypatch):
    """l_poly_flat keeps L per argument: a repeated argument, in the cone
    or not, is answered from that memo without a second cone solve."""
    counter = PartitionCounter(WIDE_ROOTS, UNIT_SIMPLES)
    goals = [(2, 2), (-1, 3), (21, 40)]
    first = [counter.l_poly_flat(flat) for flat in goals]
    assert [p.coeffs for p in first] == [unpruned_l_coeffs(WIDE_ROOTS, UNIT_SIMPLES, f) for f in goals]

    def refuse(flat):
        raise AssertionError(f"second cone solve of {flat}")

    monkeypatch.setattr(counter._solver, "coordinates", refuse)
    assert [counter.l_poly_flat(flat) for flat in goals] == first


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
            assert kostka(data, lam, lam) == QPoly((1,))


def test_kostka_diagonal_only_identity_term_contributes():
    # every non-identity Weyl pair pushes the L argument out of the cone
    from ospkostka.roots import SignedPermutation, act, weyl_elements

    data = osp_root_data(4)
    for lam0 in dominant_weights(data.type0, 2):
        for lam1 in dominant_weights(data.type1, 2):
            shift0 = tuple(a + b for a, b in zip(lam0, data.rho0))
            shift1 = tuple(a + b for a, b in zip(lam1, data.rho1))
            for w0 in weyl_elements(data.type0):
                for w1 in weyl_elements(data.type1):
                    if (w0, w1) == (
                        SignedPermutation(tuple(range(data.eps_rank)), (1,) * data.eps_rank),
                        SignedPermutation(tuple(range(data.delta_rank)), (1,) * data.delta_rank),
                    ):
                        continue
                    arg = BiWeight(
                        tuple(a - b - c for a, b, c in zip(act(w0, shift0), data.rho0, lam0)),
                        tuple(a - b - c for a, b, c in zip(act(w1, shift1), data.rho1, lam1)),
                    )
                    assert l_poly(data, arg) == QPoly(())


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
        roots = odd_positive_roots(data)
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
    # term dies: lam - mu = 2*eps_1 decomposes once, in 2 parts; the roots
    # may come as any iterable
    v = biweight((2,), (0,))
    root = biweight((1,), (0,))
    out = kostka_custom(
        iter([root]),
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
        (root,),
        [root],
        GroupType("D", 1),
        GroupType("C", 1),
        ((0,), (1,)),
        ((1,), (0,)),
        ((0,), (0,)),
    )
    assert out == QPoly(())


def test_kostka_custom_non_square_simple_set():
    """Two simple roots spanning a rank-2 sublattice of a rank-3 lattice,
    so many Weyl-sum arguments fail the cone solver's consistency rows.
    Checked against a literal signed sum over enumerated multisets."""
    s1, s2 = biweight((1, 0), (1,)), biweight((0, 1), (1,))
    roots = (s1, s2, s1 + s2)
    type0, type1 = GroupType("D", 2), GroupType("C", 1)
    rho_pair = (rho(type0), rho(type1))
    dmax = 8
    table = Counter()
    for d in range(dmax + 1):
        for combo in combinations_with_replacement(roots, d):
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kostka_matches_per_pair_sum(data):
    """kostka, past its memo, against one cone solve per Weyl pair at
    N=3..8 on the box-2 labels; the counter keeps its Weyl terms across
    examples, so later draws also run on reused terms."""
    N = data.draw(st.integers(min_value=3, max_value=8), label="N")
    rd = osp_root_data(N)
    labels = list(iproduct(dominant_weights(rd.type0, 2), dominant_weights(rd.type1, 2)))
    lam = data.draw(st.sampled_from(labels), label="lambda")
    mu = data.draw(st.sampled_from(labels), label="mu")
    expected = per_pair_lusztig_kato_sum(
        kostka_module._counter(rd), rd.type0, rd.rho0, rd.type1, rd.rho1, *lam, *mu
    )
    event(f"N={N}, " + ("nonzero" if expected else "zero"))
    kostka_module._kostka_memo.pop((N, *lam, *mu), None)
    assert kostka(rd, lam, mu) == expected


def _qmax_limit(data):
    """The largest qmax that the Euler guard lets through at data."""
    for qmax in range(8, -1, -1):
        try:
            _qmax_guard(data, qmax)
        except EnumerationTooLargeError:
            continue
        return qmax


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kostka_column_matches_per_pair_sum(data):
    """The column entry over every cone label of a drawn mu and qmax, at
    N=3..8, against one cone solve per Weyl pair and label.  A drawn
    subset of the labels is warmed in the memo by per-label kostka calls
    first, so the column mixes hits with the misses it joins and stores."""
    N = data.draw(st.integers(min_value=3, max_value=8), label="N")
    rd = osp_root_data(N)
    mu = data.draw(
        st.sampled_from(list(iproduct(dominant_weights(rd.type0, 1), dominant_weights(rd.type1, 1)))),
        label="mu",
    )
    qmax = data.draw(st.integers(min_value=0, max_value=_qmax_limit(rd)), label="qmax")
    labels = dominant_cone_labels(rd, mu, qmax)
    expected = {
        lam: per_pair_lusztig_kato_sum(
            kostka_module._counter(rd), rd.type0, rd.rho0, rd.type1, rd.rho1, *lam, *mu
        )
        for lam in labels
    }
    for lam in labels:
        kostka_module._kostka_memo.pop((N, *lam, *mu), None)
    warm = data.draw(st.sets(st.sampled_from(labels)), label="warm")
    for lam in warm:
        kostka(rd, lam, mu)
    event(f"N={N}, " + ("all cold" if not warm else "mixed" if len(warm) < len(labels) else "all warm"))
    column = kostka_module._kostka_column(rd, labels, mu)
    assert list(column) == labels
    assert column == expected
    assert all(kostka_module._kostka_memo[(N, *lam, *mu)] == expected[lam] for lam in labels)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_weyl_terms_shared_across_mu_match_per_pair_sum(data):
    """One counter and a drawn sequence of distinct mu at N=3..8, with the
    Weyl terms never cleared between columns: every cone-label column
    equals one cone solve per Weyl pair and label, and the counter holds
    one term list per distinct (factor, lam_t) of the labels so far,
    whatever mu the columns were taken at."""
    N = data.draw(st.integers(min_value=3, max_value=8), label="N")
    rd = osp_root_data(N)
    box1 = list(iproduct(dominant_weights(rd.type0, 1), dominant_weights(rd.type1, 1)))
    mus = data.draw(st.lists(st.sampled_from(box1), min_size=2, max_size=3, unique=True), label="mus")
    qmax = data.draw(st.integers(min_value=0, max_value=_qmax_limit(rd)), label="qmax")
    kostka_module._counter.cache_clear()
    counter = kostka_module._counter(rd)
    seen = set()
    for mu in mus:
        labels = dominant_cone_labels(rd, mu, qmax)
        for lam in labels:
            kostka_module._kostka_memo.pop((N, *lam, *mu), None)
        column = kostka_module._kostka_column(rd, labels, mu)
        assert column == {
            lam: per_pair_lusztig_kato_sum(counter, rd.type0, rd.rho0, rd.type1, rd.rho1, *lam, *mu)
            for lam in labels
        }
        seen |= {(0, lam0) for lam0, _ in labels} | {(1, lam1) for _, lam1 in labels}
        assert set(counter._weyl_terms) == seen
    event(f"N={N}, {len(seen)} term lists over {len(mus)} mu")


def _closure_columns(rd, box):
    """{mu: [lam, ...]} over the closure pairs of the orbit labels in the
    box, as (eps, delta) pairs of tuples, mu in the order of the box."""
    labels = orbit_labels_in_box(rd, box)
    return {
        order_pair(rd, mu): [order_pair(rd, lam) for lam in labels if closure_le(rd, mu, lam)]
        for mu in labels
    }


@pytest.mark.parametrize("N, box", [(N, 1) for N in range(3, 8)] + [(4, 2), (5, 2)])
def test_base_sums_memo_matches_fresh_counters(N, box):
    """The Kostka columns of every closure pair of the box, from one
    counter whose base-sum memo was filled by the earlier mu (and, on the
    second pass, by every mu), equal the columns from a fresh counter per
    mu, one cone solve per Weyl pair and label, and kostka_custom
    on the same roots.  The memo keeps one entry per rho + mu, whatever
    the labels and passes."""
    rd = osp_root_data(N)
    roots, simples = odd_positive_roots(rd), simple_odd_roots(rd)
    weyl = (rd.type0, rd.rho0, rd.type1, rd.rho1)
    columns = _closure_columns(rd, box)
    shared = PartitionCounter(roots, simples)
    expected = {}
    for mu, labels in columns.items():
        expected[mu] = kostka_module._lusztig_kato_sum(
            PartitionCounter(roots, simples), *weyl, labels, *mu
        )
        assert expected[mu] == {
            lam: per_pair_lusztig_kato_sum(shared, *weyl, *lam, *mu) for lam in labels
        }
    for mus in (list(columns), list(reversed(columns))):
        for mu in mus:
            assert kostka_module._lusztig_kato_sum(shared, *weyl, columns[mu], *mu) == expected[mu]
    bases = {tuple(map(add, rd.rho0 + rd.rho1, mu0 + mu1)) for mu0, mu1 in columns}
    assert set(shared._base_sums) == bases
    for mu, labels in columns.items():
        for lam in labels:
            got = kostka_custom(roots, simples, rd.type0, rd.type1, (rd.rho0, rd.rho1), lam, mu)
            assert got == expected[mu][lam]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kostka_custom_matches_per_pair_sum(data):
    """kostka_custom against one cone solve per Weyl pair, with simple
    sets that span a proper sublattice (so the solver has check rows),
    arbitrary rho, and lambda either arbitrary or mu plus a few roots."""
    rank0 = data.draw(st.integers(min_value=1, max_value=2))
    rank1 = data.draw(st.integers(min_value=1, max_value=2))
    dim = rank0 + rank1
    k = data.draw(st.integers(min_value=1, max_value=dim - 1), label="simples")
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    columns = data.draw(st.lists(vector, min_size=k, max_size=k))
    if fraction_rank(columns) < k:
        columns = [[int(i == j) for i in range(dim)] for j in range(k)]
    simples = [_split(c, rank0) for c in columns]

    def combination(coeffs):
        return tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))

    # one coefficient raised by 1, so that no root is zero
    nonzero = st.tuples(
        st.lists(st.integers(min_value=0, max_value=1), min_size=k, max_size=k),
        st.integers(min_value=0, max_value=k - 1),
    ).map(lambda t: [c + (i == t[1]) for i, c in enumerate(t[0])])
    drawn = data.draw(st.lists(nonzero, min_size=1, max_size=4))
    roots = [_split(combination(c), rank0) for c in drawn]
    family = st.sampled_from("CD")
    type0 = GroupType(data.draw(family), rank0)
    type1 = GroupType(data.draw(family), rank1)
    entry = st.integers(min_value=-2, max_value=3)
    rho_flat = tuple(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
    mu_flat = tuple(data.draw(vector))
    if data.draw(st.booleans(), label="lambda above mu"):
        parts = data.draw(st.lists(st.sampled_from(roots), max_size=3))
        lam_flat = tuple(map(sum, zip(mu_flat, *(b.flat() for b in parts))))
    else:
        lam_flat = tuple(data.draw(vector))
    rho_pair, lam, mu = (_split(v, rank0) for v in (rho_flat, lam_flat, mu_flat))
    expected = per_pair_lusztig_kato_sum(
        PartitionCounter(roots, simples), type0, rho_pair.eps, type1, rho_pair.delta, *lam, *mu
    )
    event("nonzero" if expected else "zero")
    got = kostka_custom(roots, simples, type0, type1, rho_pair, lam, mu)
    assert got == expected


def test_kostka_custom_calls_do_not_share_weyl_terms():
    """Two root sets over different simple sets, with the same lambda, mu
    and rho: each call gets its own counter and its own Weyl terms, whose
    row sums depend on the simple set, so neither call may see the other
    call's terms, in either order.  lambda - mu = eps_1 is off the
    sublattice, so the sublattice's check sums would cut the pair that
    gives q over the full lattice."""
    s1, s2 = biweight((1, 0), (1,)), biweight((0, 1), (1,))
    e1, e2, e3 = biweight((1, 0), (0,)), biweight((0, 1), (0,)), biweight((0, 0), (1,))
    type0, type1 = GroupType("D", 2), GroupType("C", 1)
    rho_pair = (rho(type0), rho(type1))
    lam, mu = ((1, 0), (0,)), ((0, 0), (0,))
    cases = {
        "sublattice": ((s1, s2, s1 + s2), [s1, s2], QPoly(())),
        "full": ((e1, e2, e3, s1, s2), [e1, e2, e3], QPoly((0, 1))),
    }
    for roots, simples, expected in cases.values():
        assert expected == per_pair_lusztig_kato_sum(
            PartitionCounter(roots, simples), type0, rho_pair[0], type1, rho_pair[1], *lam, *mu
        )
    for order in (("sublattice", "full"), ("full", "sublattice")):
        for name in order:
            roots, simples, expected = cases[name]
            got = kostka_custom(roots, simples, type0, type1, rho_pair, lam, mu)
            assert got == expected, order


def test_kostka_n9_cold_example():
    """At N=9 the Weyl sum has |W(D_4)| * |W(C_4)| = 73,728 pairs; the
    sorted cut leaves only the 33 in the cone for the partition count."""
    data = osp_root_data(9)
    poly = kostka(data, ((1, 0, 0, 0), (1, 0, 0, 0)), ((0,) * 4, (0,) * 4))
    assert str(poly) == "q + q^3 + q^5 + 2*q^7 + q^9 + q^11 + q^13"


@pytest.mark.parametrize("N", range(3, 10))
def test_first_fundamental_label_closed_form(N):
    """K_{lam,0} for lam = (1,0,...;1,0,...) is q + q^3 + ... + q^(2N-5),
    one term per degree, plus a second q^(N-2) for odd N; at N = 3 it is
    q, where the formula would give 2q."""
    data = osp_root_data(N)
    lam = tuple((1,) + (0,) * (rank - 1) for rank in (data.eps_rank, data.delta_rank))
    mu = ((0,) * data.eps_rank, (0,) * data.delta_rank)
    coeffs = [0] * (2 * N - 4)
    for k in range(N - 2):
        coeffs[2 * k + 1] += 1
    if N % 2:
        coeffs[N - 2] += 1
    expected = QPoly((0, 1)) if N == 3 else QPoly(coeffs)
    assert kostka(data, lam, mu) == expected


def test_kostka_n9_partition_memo_stays_small(monkeypatch):
    """Cold, the N=9 example stores fewer than 5,000 partition states (the
    sum over the per-level memos); it stored 41,325 when the roots were
    unsorted and dead states were kept."""
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    kostka_module._counter.cache_clear()
    data = osp_root_data(9)
    kostka(data, ((1, 0, 0, 0), (1, 0, 0, 0)), ((0,) * 4, (0,) * 4))
    states = sum(map(len, kostka_module._counter(data)._memos))
    assert 0 < states < 5000


def test_kostka_custom_rejects_bad_root_set():
    good = biweight((1,), (1,))
    bad = biweight((-1,), (-1,))
    with pytest.raises(ValueError):
        kostka_custom(
            (good, bad),
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
        kostka_custom((root,), [root], type0, type1,
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
        ("3|K|1|1|0|0", [False, True]),  # bool coefficients, though bool subclasses int
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
        ("3|K|1|1|0|0", [0, 2]),  # not monic
        ("3|K|1|1|0|0", [0, 1, 0, 1]),  # degree 3, not ht(lam - mu) = 1
        ("3|K|2|2|0|0", [0, 1, 1]),  # a power of the wrong parity
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


def comparable_box_pairs():
    """(data, lam, mu, simple odd-root coordinates of lam - mu) for every
    comparable pair of the box-2 labels at N=3..6 and of the box-1 labels
    at N=7."""
    for N, box in ((3, 2), (4, 2), (5, 2), (6, 2), (7, 1)):
        data = osp_root_data(N)
        labels = list(iproduct(dominant_weights(data.type0, box), dominant_weights(data.type1, box)))
        for lam in labels:
            for mu in labels:
                coords = simple_root_coordinates(data, biweight(*lam) - biweight(*mu))
                assert (coords is not None) == dominance_ge(data, lam, mu)
                if coords is not None:
                    yield data, lam, mu, coords


def test_kostka_degree_is_the_odd_root_height():
    """For dominant lam >= mu, K_{lam,mu} is monic of degree ht(lam - mu),
    the sum of the simple odd-root coordinates, and only powers of that
    parity occur; kostka_degree returns that height."""
    pairs = 0
    for data, lam, mu, coords in comparable_box_pairs():
        ht = sum(coords)
        poly = kostka(data, lam, mu)
        assert kostka_degree(data, lam, mu) == ht == poly.degree, (data.N, lam, mu)
        coeffs = poly.coeffs
        assert len(coeffs) == ht + 1 and coeffs[ht] == 1, (data.N, lam, mu)
        assert not any(coeffs[(ht + 1) % 2 :: 2]), (data.N, lam, mu)
        pairs += 1
    assert pairs == 2371


def test_kostka_degree_off_the_cone_is_none():
    d3 = osp_root_data(3)
    assert kostka_degree(d3, N3_LABELS["c"], N3_LABELS["b"]) == 2
    assert kostka_degree(d3, N3_LABELS["b"], N3_LABELS["a"]) is None
    assert kostka_degree(d3, ((1,), (0,)), N3_LABELS["b"]) is None
    assert kostka(d3, ((1,), (0,)), N3_LABELS["b"]) == QPoly(())


def test_cone_labels_reach_the_lowest_kostka_degree():
    """On the same pairs, with low the lowest degree of K_{lam,mu}, lam is
    among dominant_cone_labels(data, mu, low): the label bounds drop no
    label that contributes.  The bounds are sharp on 1,946 of the 2,371
    pairs, where lam is absent at low - 1."""
    absent = 0
    for data, lam, mu, _ in comparable_box_pairs():
        low = next(d for d, c in enumerate(kostka(data, lam, mu).coeffs) if c)
        assert lam in dominant_cone_labels(data, mu, low), (data.N, lam, mu)
        absent += lam not in dominant_cone_labels(data, mu, low - 1)
    assert absent == 1946


def test_warm_memo_keeps_the_input_checks(empty_memo):
    """kostka reads the memo before checking its input.  Both memo writers
    store only checked pairs within the rank guard, so with the memo warm
    a non-dominant lambda or mu, a malformed pair and a rank past the
    guard still raise as before, and a repeat call returns the stored
    polynomial itself."""
    d4 = osp_root_data(4)
    lam, mu = ((1, 0), (1,)), ((0, 0), (0,))
    first = kostka(d4, lam, mu)
    kostka_memo_import({"3|K|1|1|0|0": [0, 1], "10|K|0,0,0,0,0|0,0,0,0|0,0,0,0,0|0,0,0,0": [1]})
    assert set(empty_memo) == {(4, (1, 0), (1,), (0, 0), (0,)), (3, (1,), (1,), (0,), (0,))}
    assert empty_memo[(4, (1, 0), (1,), (0, 0), (0,))] is first
    assert kostka(d4, lam, mu) is first
    assert kostka(d4, [[1, 0], [1]], [[0, 0], [0]]) is first
    stored = empty_memo[(3, (1,), (1,), (0,), (0,))]
    assert kostka(osp_root_data(3), ((1,), (1,)), ((0,), (0,))) is stored
    with pytest.raises(ValueError, match=r"^lambda eps-part \(0, 1\) is not D_2-dominant$"):
        kostka(d4, ((0, 1), (1,)), mu)
    with pytest.raises(ValueError, match=r"^mu delta-part \(-1,\) is not C_1-dominant$"):
        kostka(d4, lam, ((0, 0), (-1,)))
    # the flattened parts match a stored key, but the pairs are malformed
    with pytest.raises(ValueError, match="not enough values to unpack"):
        kostka(d4, ((1, 0),), ((1,), (0, 0), (0,)))
    zero10 = ((0,) * 5, (0,) * 4)
    with pytest.raises(EnumerationTooLargeError, match=r"^enumeration too large: n=5 exceeds guard 4$"):
        kostka(osp_root_data(10), zero10, zero10)
    assert len(empty_memo) == 2


def test_memo_import_checks_n_before_building_root_data(empty_memo, monkeypatch):
    built = []
    monkeypatch.setattr(kostka_module, "osp_root_data", lambda N: built.append(N))
    n_guard = 2 * KOSTKA_RANK_GUARD + 2
    kostka_memo_import({f"{n_guard}|K|0|0|0|0": [1], f"{10**9}|K|0|0|0|0": [1]})
    assert built == [] and empty_memo == {}


# N=3 labels: a lies one simple odd root above b = 0, c two (K_cb = q^2);
# a-lists is a as a list of lists, the same label
N3_LABELS = {"a": ((1,), (1,)), "b": ((0,), (0,)), "c": ((2,), (2,)), "a-lists": [[1], [1]]}


@pytest.mark.parametrize(
    "lam, mu, coeffs, reason",
    [
        ("a", "b", (0, 1), None),
        ("a", "a", (1,), None),
        ("a", "b", (0, -1, 2), "negative coefficient"),
        ("a", "b", (), "vanishes on the dominance cone"),
        ("a", "b", (1, 1), "nonzero constant term off the diagonal"),
        ("a", "a", (0, 1), "diagonal value is not 1"),
        ("b", "a", (), None),
        ("b", "a", (0, 1), "nonzero off the dominance cone"),
        ("a", "b", (0, 2), "not monic of degree ht(lambda - mu)"),
        ("c", "b", (0, 0, 1, 1), "not monic of degree ht(lambda - mu)"),
        ("c", "b", (0, 1, 1), "a power of the wrong parity"),
        ("a-lists", "a", (1,), None),
        ("a", "a-lists", (0, 1), "diagonal value is not 1"),
    ],
)
def test_kostka_defect(lam, mu, coeffs, reason):
    data = osp_root_data(3)
    assert kostka_defect(data, N3_LABELS[lam], N3_LABELS[mu], QPoly(coeffs)) == reason

