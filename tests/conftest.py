"""Shared brute-force oracles, deliberately independent of the library's
DP code paths: literal multiset enumeration, literal signed sums, a
plain Fraction linear solve, and the odd root system written out family
by family.  Also an autouse fixture that hides the caller's
OSP_KOSTKA_CACHE."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ospkostka.oddroots import BiWeight, odd_positive_roots


@pytest.fixture(autouse=True)
def _no_caller_cache(monkeypatch):
    """Keep every test off a cache it did not name: the CLI reads
    OSP_KOSTKA_CACHE, and child processes inherit it from the caller."""
    monkeypatch.delenv("OSP_KOSTKA_CACHE", raising=False)


def brute_force_partition_table(data, dmax):
    """Counter {(BiWeight, d): count} by enumerating every multiset of at
    most dmax positive odd roots.  O(|roots|^d); test use only."""
    table = Counter()
    roots = odd_positive_roots(data)
    for d in range(dmax + 1):
        for combo in combinations_with_replacement(roots, d):
            total = data.zero()
            for beta in combo:
                total = total + beta
            table[(total, d)] += 1
    return table


def brute_force_l_coeffs(data, alpha, dmax):
    """Coefficients of L_alpha up to degree dmax, via the literal table."""
    table = brute_force_partition_table(data, dmax)
    return tuple(table.get((alpha, d), 0) for d in range(dmax + 1))


def fraction_solve(columns, vector):
    """The rational c with sum_j c[j] * columns[j] == vector, or None when
    there is none.  Gauss-Jordan on [S | vector] in Fraction arithmetic;
    the columns must be linearly independent."""
    k, dim = len(columns), len(vector)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(vector[i])] for i in range(dim)]
    for c in range(k):
        piv = next(i for i in range(c, dim) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(dim):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return tuple(row[k] for row in rows[:k])


def fraction_rank(columns):
    """Rank of the column set, by the same Fraction elimination."""
    rows = [list(map(Fraction, col)) for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cone_coordinates_oracle(columns, vector):
    """What ConeSolver(columns).coordinates(vector) must return: the
    solution as ints when it exists and is a nonnegative integer vector,
    else None."""
    c = fraction_solve(columns, vector)
    if c is None or any(x < 0 or x.denominator != 1 for x in c):
        return None
    return tuple(int(x) for x in c)


def _unit_eps(data, i):
    eps = [0] * data.eps_rank
    eps[i] = 1
    return BiWeight(tuple(eps), (0,) * data.delta_rank)


def _unit_delta(data, j):
    delta = [0] * data.delta_rank
    delta[j] = 1
    return BiWeight((0,) * data.eps_rank, tuple(delta))


def odd_positive_roots_oracle(data):
    """The positive odd roots, family by family, (i, j) lexicographic
    inside each family.

    odd N:  {eps_i+delta_j | i,j <= n} u {eps_i-delta_j | i<j<=n}
            u {delta_i-eps_j | i<=j<=n}
    even N: {eps_i+delta_j | i<=n, j<n} u {eps_i-delta_j | i<=j<n}
            u {delta_i-eps_j | i<j<=n}
    """
    e, d = (lambda i: _unit_eps(data, i)), (lambda j: _unit_delta(data, j))
    n = data.n
    if data.parity == "odd":
        return tuple(
            [e(i) + d(j) for i in range(n) for j in range(n)]
            + [e(i) - d(j) for i in range(n) for j in range(i + 1, n)]
            + [d(i) - e(j) for i in range(n) for j in range(i, n)]
        )
    return tuple(
        [e(i) + d(j) for i in range(n) for j in range(n - 1)]
        + [e(i) - d(j) for i in range(n - 1) for j in range(i, n - 1)]
        + [d(i) - e(j) for i in range(n - 1) for j in range(i + 1, n)]
    )


def simple_odd_roots_oracle(data):
    """The simple odd roots in their standard order.

    odd N:  delta_1-eps_1, eps_1-delta_2, delta_2-eps_2, ...,
            delta_n-eps_n, delta_n+eps_n
    even N: eps_1-delta_1, delta_1-eps_2, eps_2-delta_2, ...,
            delta_{n-1}-eps_n, delta_{n-1}+eps_n
    """
    e, d = (lambda i: _unit_eps(data, i)), (lambda j: _unit_delta(data, j))
    n = data.n
    simples = []
    if data.parity == "odd":
        for k in range(n - 1):
            simples += [d(k) - e(k), e(k) - d(k + 1)]
        simples += [d(n - 1) - e(n - 1), d(n - 1) + e(n - 1)]
    else:
        for k in range(n - 2):
            simples += [e(k) - d(k), d(k) - e(k + 1)]
        simples += [e(n - 2) - d(n - 2), d(n - 2) - e(n - 1), d(n - 2) + e(n - 1)]
    return tuple(simples)
