"""Acceptance suite: every criterion is exact (integer or rational
arithmetic, no tolerances).  Run with `pytest -s tests/test_acceptance.py`
to see one PASS line per criterion; a pytest failure is the FAIL line.
"""

from itertools import product as iproduct

from conftest import brute_force_partition_table
from ospkostka.euler import verify_bryl
from ospkostka.kostka import QPoly, kostka, l_poly
from ospkostka.moment import moment_check
from ospkostka.oddroots import (
    BiWeight,
    biweight,
    dominance_ge,
    dominance_ge_cone,
    odd_positive_roots,
    osp_root_data,
    simple_odd_roots,
    simple_root_coordinates,
)
from ospkostka.orbits import (
    closure_le,
    gl_bisignature_ge,
    label_bisignature,
    orbit_dim,
    orbit_labels_in_box,
    stalk_poincare,
)
from ospkostka.roots import dominant_weights


def dominant_pairs(data, bound):
    return [
        (lam0, lam1)
        for lam0 in dominant_weights(data.type0, bound)
        for lam1 in dominant_weights(data.type1, bound)
    ]


def report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


def test_criterion_1_graded_euler_identity():
    checked = 0
    for N, bound, qmax in ((3, 2, 6), (4, 2, 6), (5, 1, 4)):
        data = osp_root_data(N)
        for mu in dominant_pairs(data, bound):
            result = verify_bryl(data, mu, qmax)
            assert result.ok, (N, mu, result.failing_degrees())
            checked += 1
    report(f"1 PASS: graded Euler identity, {checked} (N, mu) runs, exact")


def test_criterion_2_positivity_on_the_cone():
    checked = 0
    for N in (3, 4, 5):
        data = osp_root_data(N)
        labels = dominant_pairs(data, 3)
        for lam in labels:
            for mu in labels:
                if not dominance_ge(data, lam, mu):
                    continue
                poly = kostka(data, lam, mu)
                assert poly, ("vanishes on cone", N, lam, mu)
                assert all(c >= 0 for c in poly.coeffs), (N, lam, mu, poly)
                if lam == mu:
                    assert poly == QPoly((1,)), (N, lam)
                else:
                    assert poly[0] == 0, ("constant term", N, lam, mu, poly)
                checked += 1
    report(f"2 PASS: positivity/nonvanishing/constant term, {checked} cone pairs")


def test_criterion_3_dominance_equivalence():
    checked = 0
    for N in (3, 4, 5):
        data = osp_root_data(N)
        labels = dominant_pairs(data, 3)
        for lam in labels:
            for mu in labels:
                assert dominance_ge(data, lam, mu) == dominance_ge_cone(
                    data, lam, mu
                ), (N, lam, mu)
                checked += 1
    report(f"3 PASS: inequality form == cone membership, {checked} ordered pairs")


def test_criterion_4_root_set_structure():
    for N in range(3, 11):
        data = osp_root_data(N)
        roots = odd_positive_roots(data)
        assert len(roots) == data.dim_v0 * data.dim_v1 // 2, N
        total = data.zero()
        for beta in roots:
            total = total + beta
        assert total == biweight(
            tuple(2 * x for x in data.rho0), tuple(2 * x for x in data.rho1)
        ), N
        for beta in roots:
            coords = simple_root_coordinates(data, beta)
            assert coords is not None and all(c >= 0 for c in coords), (N, beta)
        assert len(simple_odd_roots(data)) == data.eps_rank + data.delta_rank
    report("4 PASS: root-set structure for N = 3..10")


def test_criterion_5_l_polynomial_oracle():
    checked = 0
    for N in (3, 4, 5):
        data = osp_root_data(N)
        table = brute_force_partition_table(data, 5)
        r = data.eps_rank + data.delta_rank
        for flat in iproduct(range(-3, 4), repeat=r):
            alpha = BiWeight(flat[: data.eps_rank], flat[data.eps_rank :])
            poly = l_poly(data, alpha)
            for d in range(6):
                assert poly[d] == table.get((alpha, d), 0), (N, alpha, d)
            checked += 1
    report(f"5 PASS: l_poly matches literal multiset enumeration, {checked} alphas")


def test_criterion_6_stalk_tables():
    checked = 0
    for N in (3, 4, 5):
        data = osp_root_data(N)
        labels = orbit_labels_in_box(data, 3)
        for lam in labels:
            dim_lam = orbit_dim(data, lam)
            for mu in labels:
                if not closure_le(data, mu, lam):
                    continue
                table = stalk_poincare(data, lam, mu)
                dim_mu = orbit_dim(data, mu)
                if lam == mu:
                    assert table == ((-dim_lam, 1),), (N, lam)
                # K is monic of degree dim O_lam - dim O_mu
                assert table[-1] == (-dim_lam, 1), (N, lam, mu, table)
                for degree, m in table:
                    i = -degree
                    assert m > 0 and i <= dim_lam, (N, lam, mu, table)
                    if lam != mu:
                        assert i > dim_mu, (N, lam, mu, table)
                checked += 1
    report(f"6 PASS: stalk strict support and degree bound, {checked} closure pairs")


def test_criterion_7_closure_vs_gl_order():
    checked = 0
    for N in (3, 4, 5):
        data = osp_root_data(N)
        labels = orbit_labels_in_box(data, 3)
        for lam in labels:
            big = label_bisignature(data, lam)
            for mu in labels:
                if closure_le(data, mu, lam):
                    assert gl_bisignature_ge(big, label_bisignature(data, mu)), (
                        N,
                        lam,
                        mu,
                    )
                    checked += 1
    report(f"7 PASS: closure order implies GL adjacency order, {checked} pairs")


def test_criterion_8_moment_map_identities():
    for N in (3, 4, 5, 6):
        result = moment_check(N, 1000, seed=42)
        assert result["ok"], result
        assert result["char_identity"] == 1000, result
        if N % 2 == 0:
            assert result["pfaffian_vanishing"] == 1000, result
        else:
            assert result["fft_generators"] == 1000, result
        assert result["equivariance"] == 1, result
    report("8 PASS: moment-map identities, 1000 seeded trials per N in 3..6")


def test_criterion_9_n3_closed_form():
    data = osp_root_data(3)

    def closed_form(lam, mu):
        # Derived from the criterion-5 oracle: both odd roots have delta
        # coordinate +1 and eps coordinate +-1, so a difference (a; b)
        # decomposes exactly when b >= |a| with b = a (mod 2), uniquely,
        # into b parts; the reflected Weyl term needs delta part
        # -lam1-mu1-2 < 0 and never contributes on dominant data.
        a = lam[0][0] - mu[0][0]
        b = lam[1][0] - mu[1][0]
        if b >= abs(a) and (b - a) % 2 == 0:
            return QPoly((0,) * b + (1,))
        return QPoly(())

    # derivation record: the closed form reproduces the literal oracle
    table = brute_force_partition_table(data, 5)
    for flat in iproduct(range(-5, 6), range(0, 6)):
        alpha = biweight((flat[0],), (flat[1],))
        expected = closed_form(((flat[0],), (flat[1],)), ((0,), (0,)))
        for d in range(6):
            assert expected[d] == table.get((alpha, d), 0), (alpha, d)

    checked = 0
    for l0 in range(-5, 6):
        for l1 in range(6):
            for m0 in range(-5, 6):
                for m1 in range(6):
                    lam, mu = ((l0,), (l1,)), ((m0,), (m1,))
                    assert kostka(data, lam, mu) == closed_form(lam, mu), (lam, mu)
                    checked += 1
    report(f"9 PASS: N=3 closed form q^(lam1-mu1) on {checked} label pairs")
