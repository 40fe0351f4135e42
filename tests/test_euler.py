import importlib
from itertools import product

import pytest

import conftest
from conftest import dual_pair_char, euler_line_sum_lhs, kostka_label_sum_rhs, sup_norm_box
from ospkostka import euler
from ospkostka.characters import CharElt, decompose, weyl_dimension
from ospkostka.euler import (
    bryl_lhs,
    bryl_rhs,
    dominant_cone_labels,
    euler_line,
    verify_bryl,
)
from ospkostka.kostka import QPoly, kostka, kostka_memo_export, kostka_memo_import
from ospkostka.oddroots import biweight, dominance_ge, dominance_ge_cone, osp_root_data
from ospkostka.roots import EnumerationTooLargeError, dominant_weights

kostka_module = importlib.import_module("ospkostka.kostka")


def test_euler_line_trivial():
    d3 = osp_root_data(3)
    assert euler_line(d3, d3.zero()) == CharElt((d3.type0, d3.type1), {(0, 0): 1})


@pytest.mark.parametrize("N", [3, 4, 5])
def test_euler_line_normalization(N):
    data = osp_root_data(N)
    for mu0 in dominant_weights(data.type0, 2):
        for mu1 in dominant_weights(data.type1, 2):
            mu = biweight(mu0, mu1)
            ch = euler_line(data, -mu)
            assert ch == dual_pair_char(data, mu0, mu1)
            assert ch.dim() == weyl_dimension(data.type0, mu0) * weyl_dimension(
                data.type1, mu1
            )


def test_euler_line_singular_shift_vanishes():
    d4 = osp_root_data(4)
    # eps block (0, 1): rho - nu = (1, -1) has equal absolute entries
    assert euler_line(d4, biweight((0, 1), (0,))).is_zero


def test_bryl_lhs_degree_zero_is_dual_section_character():
    for N in (3, 4):
        data = osp_root_data(N)
        for mu0 in dominant_weights(data.type0, 1):
            for mu1 in dominant_weights(data.type1, 1):
                series = bryl_lhs(data, (mu0, mu1), 0)
                assert series[0] == dual_pair_char(data, mu0, mu1)


def test_bryl_lhs_degree_one_n3():
    d3 = osp_root_data(3)
    series = bryl_lhs(d3, ((0,), (0,)), 1)
    assert decompose(series[1]) == {((-1,), (1,)): 1, ((1,), (1,)): 1}


def test_bryl_lhs_guard():
    with pytest.raises(EnumerationTooLargeError):
        bryl_lhs(osp_root_data(5), ((0, 0), (0, 0)), 9)
    with pytest.raises(EnumerationTooLargeError):
        bryl_lhs(osp_root_data(7), ((0,) * 3, (0,) * 3), 5)
    with pytest.raises(EnumerationTooLargeError, match="^qmax=3 exceeds guard 2 at rank 4$"):
        verify_bryl(osp_root_data(9), ((0,) * 4, (0,) * 4), 3)


@pytest.mark.parametrize("N", [8, 9])
@pytest.mark.parametrize("mu0", [(0, 0, 0, 0), (1, 0, 0, 0)], ids=["zero", "first_fundamental"])
def test_verify_bryl_rank4_at_the_guard(N, mu0):
    """At rank 4 the guard allows qmax 2, for mu = 0 and for the first
    fundamental weight of the eps factor."""
    data = osp_root_data(N)
    report = verify_bryl(data, (mu0, (0,) * data.delta_rank), 2)
    assert report.ok and report.failing_degrees() == []


@pytest.mark.parametrize("N", [10, 11])
@pytest.mark.parametrize("side", [verify_bryl, bryl_rhs])
def test_rank5_euler_stops_at_the_kostka_guard(N, side):
    """At rank 5 the qmax guard lets qmax 1 through, and the Kostka column
    of the combinatorial side refuses, before anything is memoised."""
    data = osp_root_data(N)
    mu = ((0,) * data.eps_rank, (0,) * data.delta_rank)
    before = dict(kostka_module._kostka_memo)
    message = "^enumeration too large: n=5 exceeds guard 4$"
    with pytest.raises(EnumerationTooLargeError, match=message):
        side(data, mu, 1)
    assert kostka_module._kostka_memo == before


@pytest.mark.parametrize(
    "N, mu, qmax",
    [(3, ((1,), (0,)), 8), (4, ((1, 0), (1,)), 4), (5, ((0, 0), (0, 0)), 3), (7, ((1, 0, 0), (0, 0, 0)), 2)],
)
def test_verify_bryl_leaves_the_per_label_memo(monkeypatch, N, mu, qmax):
    """From an empty memo, verify_bryl stores the same entries, in the
    same order, as one kostka call per cone label."""
    data = osp_root_data(N)
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    assert verify_bryl(data, mu, qmax).ok
    column = kostka_module._kostka_memo
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    for lam in dominant_cone_labels(data, mu, qmax):
        kostka(data, lam, mu)
    assert list(column.items()) == list(kostka_module._kostka_memo.items())


@pytest.mark.parametrize("warmed_by", ["run", "cache import"])
def test_warm_verify_bryl_runs_no_weyl_sum(monkeypatch, warmed_by):
    """After one verify_bryl, or after loading the export of its memo, a
    second verify_bryl reads every label from the memo: with the Weyl sum
    patched to raise it still passes.  At rank 5 the rank guard still
    refuses first, with its own message."""
    data, mu, qmax = osp_root_data(5), ((1, 0), (0, 0)), 4
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    first = verify_bryl(data, mu, qmax)
    assert first.ok
    if warmed_by == "cache import":
        exported = kostka_memo_export()
        monkeypatch.setattr(kostka_module, "_kostka_memo", {})
        kostka_memo_import(exported)

    def refuse(*args):
        raise AssertionError("the Weyl sum ran on a warm memo")

    monkeypatch.setattr(kostka_module, "_lusztig_kato_sum", refuse)
    assert verify_bryl(data, mu, qmax) == first
    rank5 = osp_root_data(10)
    with pytest.raises(EnumerationTooLargeError, match="^enumeration too large: n=5 exceeds guard 4$"):
        verify_bryl(rank5, ((0,) * 5, (0,) * 4), 1)


def test_rhs_contributors_n3_qmax2():
    d3 = osp_root_data(3)
    labels = dominant_cone_labels(d3, ((0,), (0,)), 2)
    contributing = [
        lam for lam in labels if any(kostka(d3, lam, ((0,), (0,))).coeffs[:3])
    ]
    assert sorted(contributing) == sorted(
        [
            ((0,), (0,)),
            ((1,), (1,)),
            ((-1,), (1,)),
            ((0,), (2,)),
            ((2,), (2,)),
            ((-2,), (2,)),
        ]
    )


def test_bryl_rhs_degree_zero():
    for N in (3, 4):
        data = osp_root_data(N)
        for mu0 in dominant_weights(data.type0, 1):
            for mu1 in dominant_weights(data.type1, 1):
                series = bryl_rhs(data, (mu0, mu1), 0)
                assert series[0] == dual_pair_char(data, mu0, mu1)


def test_verify_bryl_qmax_zero():
    for N in (3, 4, 5):
        data = osp_root_data(N)
        mu = ((0,) * data.eps_rank, (0,) * data.delta_rank)
        report = verify_bryl(data, mu, 0)
        assert report.ok and report.failing_degrees() == []


def test_verify_bryl_examples():
    d3 = osp_root_data(3)
    assert verify_bryl(d3, ((0,), (0,)), 6).ok
    d4 = osp_root_data(4)
    assert verify_bryl(d4, ((1, 0), (1,)), 4).ok


def test_verify_bryl_nontrivial_duality_rank():
    # N=6 brings in a D_3 factor whose longest Weyl element is not -1,
    # so dual labels and alternant signs are exercised nontrivially
    d6 = osp_root_data(6)
    assert verify_bryl(d6, ((1, 0, 0), (0, 0)), 2).ok
    assert verify_bryl(d6, ((1, 1, -1), (1, 0)), 2).ok


def test_lhs_degrees_decompose_nonnegatively():
    # Euler characteristics here are genuine module characters
    d4 = osp_root_data(4)
    for series in (bryl_lhs(d4, ((1, 0), (1,)), 3), bryl_lhs(d4, ((0, 0), (0,)), 3)):
        for ch in series:
            assert all(m >= 0 for m in decompose(ch).values())


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_cone_label_candidates_dominance_matches_cone(N):
    """The partial-sum order agrees with cone membership on every label of
    the sup-norm box, and the labels are the box's cone labels within the
    l1 bound."""
    data = osp_root_data(N)
    qmax = 2
    for mu in product(dominant_weights(data.type0, 1), dominant_weights(data.type1, 1)):
        expected = []
        for lam in sup_norm_box(data, mu, qmax):
            in_cone = dominance_ge_cone(data, lam, mu)
            assert dominance_ge(data, lam, mu) == in_cone
            in_ball = all(
                sum(map(abs, lam_t)) <= sum(map(abs, mu_t)) + qmax for lam_t, mu_t in zip(lam, mu)
            )
            if in_cone and in_ball:
                expected.append(lam)
        assert dominant_cone_labels(data, mu, qmax) == expected


@pytest.mark.parametrize("N", range(3, 10))
def test_cone_labels_match_dominance_product(N):
    """For mu with entries at most 1 and qmax 0..3, the labels, order
    included, are the product of the per-factor weights in the sup-norm
    and l1 bounds filtered pair by pair with dominance_ge, and
    dominance_ge agrees with dominance_ge_cone on every pair."""
    data = osp_root_data(N)
    for mu in product(dominant_weights(data.type0, 1), dominant_weights(data.type1, 1)):
        for qmax in range(4):
            factors = [
                [
                    lam_t
                    for lam_t in dominant_weights(gtype, max(map(abs, mu_t)) + qmax)
                    if sum(map(abs, lam_t)) <= sum(map(abs, mu_t)) + qmax
                ]
                for gtype, mu_t in zip((data.type0, data.type1), mu)
            ]
            expected = []
            for lam in product(*factors):
                in_order = dominance_ge(data, lam, mu)
                assert in_order == dominance_ge_cone(data, lam, mu)
                if in_order:
                    expected.append(lam)
            assert dominant_cone_labels(data, mu, qmax) == expected


def _small_box(N):
    """Dominant mu with entries at most 1; at N >= 5 only mu = 0 and the
    first fundamental weight of the eps factor, because the oracles take
    2-5 s per mu there at qmax 8."""
    data = osp_root_data(N)
    box = product(dominant_weights(data.type0, 1), dominant_weights(data.type1, 1))
    if N >= 5:
        box = [mu for mu in box if not any(mu[0][1:] + mu[1])]
    return [(N, mu) for mu in box]


@pytest.mark.parametrize("N, mu", [case for N in (3, 4, 5, 6) for case in _small_box(N)])
def test_label_tables_match_character_sums(N, mu):
    """Both sides, expanded from their label tables, equal the per-alpha
    Euler-line sum and the per-label character sum on every degree, at
    the largest qmax the guard allows."""
    data = osp_root_data(N)
    qmax = 8 if N <= 5 else 4
    report = verify_bryl(data, mu, qmax)
    assert report.ok and report.failing_degrees() == []
    lhs = euler_line_sum_lhs(data, mu, qmax)
    assert bryl_lhs(data, mu, qmax) == lhs
    assert bryl_rhs(data, mu, qmax) == kostka_label_sum_rhs(data, mu, qmax) == lhs


def _planted_report(data, mu, qmax, degree):
    """verify_bryl and the oracles' character difference, rhs minus lhs;
    both read whatever the test has patched."""
    report = verify_bryl(data, mu, qmax)
    lhs = euler_line_sum_lhs(data, mu, qmax)
    rhs = kostka_label_sum_rhs(data, mu, qmax)
    assert not report.ok and report.failing_degrees() == [degree]
    assert report.degree_diffs == [r - l for l, r in zip(lhs, rhs)]
    return report


def test_planted_kostka_coefficient_fails_at_its_degree(monkeypatch):
    """One coefficient planted in the Kostka column that verify_bryl reads
    (and in the per-label kostka that the oracle reads) fails at its
    degree, with the dual character of its label as the difference."""
    data = osp_root_data(4)
    mu, qmax, degree = ((1, 0), (1,)), 4, 3
    label = ((3, 0), (3,))
    assert kostka(data, label, mu) == QPoly((0, 0, 1, 0, 1, 0, 1))

    def plant(poly):
        coeffs = list(poly.coeffs)
        coeffs[degree] += 1
        return QPoly(coeffs)

    real_column, real_kostka = euler._kostka_column, conftest.kostka

    def planted_column(data_, labels, mu_):
        column = real_column(data_, labels, mu_)
        if label in column:
            column[label] = plant(column[label])
        return column

    def planted_kostka(data_, lam, mu_):
        poly = real_kostka(data_, lam, mu_)
        return plant(poly) if lam == label else poly

    monkeypatch.setattr(euler, "_kostka_column", planted_column)
    monkeypatch.setattr(conftest, "kostka", planted_kostka)
    report = _planted_report(data, mu, qmax, degree)
    assert report.degree_diffs[degree] == dual_pair_char(data, *label)


def test_planted_partition_count_fails_at_its_degree(monkeypatch):
    data = osp_root_data(4)
    mu, qmax, degree = ((1, 0), (1,)), 4, 2
    real = euler.partition_support_table(data, qmax)
    # one sum of two positive odd roots, whose Euler line does not vanish
    alpha = next(
        a for a, counts in real.items()
        if counts[2] and not euler_line(data, -(biweight(*mu) + biweight(a[:2], a[2:]))).is_zero
    )
    table = dict(real)
    counts = list(table[alpha])
    counts[degree] += 1
    table[alpha] = tuple(counts)

    def planted(data_, dmax):
        return table if (data_, dmax) == (data, qmax) else real

    monkeypatch.setattr(euler, "partition_support_table", planted)
    monkeypatch.setattr(conftest, "partition_support_table", planted)
    report = _planted_report(data, mu, qmax, degree)
    line = euler_line(data, -(biweight(*mu) + biweight(alpha[:2], alpha[2:])))
    assert report.degree_diffs[degree] == CharElt(
        line.context, {w: -m for w, m in line.terms.items()}
    )
