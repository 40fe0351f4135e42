"""Shared brute-force oracles, deliberately independent of the library's
DP code paths: literal multiset enumeration, literal signed sums, a
plain Fraction linear solve, the partition recursion with no root sort
and no dead-state cut, the Lusztig-Kato sum with one cone solve per Weyl
pair, the odd root system and the orbit labels
written out family by family, the dominance test of one factor as index
loops, the moment-map battery in Fraction
arithmetic with the explicit symplectic Gram, the Pfaffian as its
full expansion, character
decomposition by multiplying with A_rho (alternant and convolution summed
literally here, not by the library's kernels), the Weyl dimension formula
as a product of Fractions, and both Euler series summed as whole
characters (one Euler line per alpha, one dual character per Kostka
label).  Also an autouse fixture that hides the caller's
OSP_KOSTKA_CACHE."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from ospkostka import moment
from ospkostka.characters import CharElt, irreducible_character, is_weyl_invariant, outer
from ospkostka.euler import euler_line
from ospkostka.kostka import QPoly, _weyl_arguments, kostka, partition_support_table
from ospkostka.oddroots import BiWeight, dominance_ge_cone, odd_positive_roots
from ospkostka.roots import act, dominant_weights, positive_roots, rho, sign, weyl_elements


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


_unpruned_memos = {}


def unpruned_partition_counts(root_coords, coords):
    """Counts by multiset size for partitions of the coordinate vector
    coords into the root coordinate vectors root_coords, taken in the
    given order: the memoized (k, residual) recursion with no root sort
    and no dead-state cut, so every state down to k = 0 is visited.  One
    memo per root list, kept across calls."""
    memo = _unpruned_memos.setdefault(tuple(root_coords), {})
    goal = (len(root_coords), coords)
    stack = [goal]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        kk, cc = key
        if not any(cc):
            memo[key] = (1,)
            stack.pop()
            continue
        if kk == 0:
            memo[key] = ()
            stack.pop()
            continue
        rc = root_coords[kk - 1]
        skip_key = (kk - 1, cc)
        use_key = None
        residual = tuple(a - b for a, b in zip(cc, rc))
        if all(x >= 0 for x in residual):
            use_key = (kk, residual)
        missing = [K for K in (skip_key, use_key) if K is not None and K not in memo]
        if missing:
            stack.extend(missing)
            continue
        skip = memo[skip_key]
        use = memo[use_key] if use_key is not None else ()
        n = max(len(skip), len(use) + 1 if use else 0)
        out = [0] * n
        for d, c in enumerate(skip):
            out[d] += c
        for d, c in enumerate(use):
            out[d + 1] += c
        memo[key] = tuple(out)
        stack.pop()
    return memo[goal]


def unpruned_l_coeffs(roots, simples, flat):
    """What PartitionCounter(roots, simples).l_poly_flat(flat).coeffs must
    be: coordinates from the Fraction solve, then the unpruned recursion
    over the roots in their given order."""
    columns = [s.flat() for s in simples]
    coords = cone_coordinates_oracle(columns, flat)
    if coords is None:
        return ()
    root_coords = [cone_coordinates_oracle(columns, b.flat()) for b in roots]
    return unpruned_partition_counts(root_coords, coords)


def per_pair_lusztig_kato_sum(counter, type0, rho0, type1, rho1, lam0, lam1, mu0, mu1):
    """What kostka._lusztig_kato_sum must return for the label (lam0,
    lam1): the signed sum of L over every pair of Weyl arguments, so each
    of the |W0| * |W1| pairs gets its own cone solve, past the counter's
    per-argument memo of l_poly_flat, and nothing is cut."""
    acc = []
    side1 = _weyl_arguments(type1, rho1, lam1, mu1)
    for arg0, s0 in _weyl_arguments(type0, rho0, lam0, mu0):
        for arg1, s1 in side1:
            coords = counter._solver.coordinates(arg0 + arg1)
            part = () if coords is None else counter._counts(len(counter.root_coords), coords)
            acc.extend([0] * (len(part) - len(acc)))
            for d, c in enumerate(part):
                acc[d] += s0 * s1 * c
    return QPoly(tuple(acc))


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


def dominant_in_box_oracle(family, rank, bound):
    """Every integer vector with entries in [-bound, bound] that passes
    the literal dominance test, in descending lexicographic order.
    C: x_1 >= ... >= x_m >= 0.  D: x_1 >= ... >= x_{n-1} >= |x_n|."""

    def dominant(x):
        seq = x + (0,) if family == "C" else x[:-1] + (abs(x[-1]),)
        return all(a >= b for a, b in zip(seq, seq[1:]))

    box = product(range(-bound, bound + 1), repeat=rank)
    return sorted(filter(dominant, box), reverse=True)


def is_dominant_index_loops(gtype, weight):
    """The dominance test as index loops over adjacent entries.  Type D:
    weakly decreasing with the last entry dominated in absolute value
    (vacuous at rank 1).  Type C: weakly decreasing and nonnegative."""
    if len(weight) != gtype.rank:
        raise ValueError(f"rank mismatch: weight {weight} vs {gtype}")
    n = gtype.rank
    if gtype.family == "C":
        return all(weight[i] >= weight[i + 1] for i in range(n - 1)) and weight[-1] >= 0
    if n == 1:
        return True
    head_sorted = all(weight[i] >= weight[i + 1] for i in range(n - 2))
    return head_sorted and weight[n - 2] >= abs(weight[n - 1])


def orbit_side_types(N):
    """(family, rank) of lam_s, then of lam_b."""
    n = N // 2
    return (("D", n), ("C", n)) if N % 2 else (("C", n - 1), ("D", n))


def orbit_oracle(N, bound):
    """Every orbit label with entries bounded by `bound`, in the library's
    order, with what the library must derive from it:
    {"label": (lam_s, lam_b), "order_pair", "mu", "nu" (SignatureSeq
    field pairs (entries, inverted)), "theta", "bisignature"}.

    odd N = 2n+1:  lam_s is D_n-dominant (eps side), lam_b is a length-n
        partition (delta side); order_pair = (lam_s, lam_b);
        mu = (lam_s, -lam_s reversed), inverted iff lam_s[n-1] < 0;
        nu = (lam_b, 0, -lam_b reversed);
        theta_k = lam_s[k] + lam_b[k] for k < n-1,
        theta_{n-1} = |lam_s[n-1]| + lam_b[n-1], then 0, then -theta
        reversed (length N).
    even N = 2n:   lam_s is a length-(n-1) partition (delta side), lam_b is
        D_n-dominant (eps side); order_pair = (lam_b, lam_s);
        mu = (lam_s, 0, -lam_s reversed);
        nu = (lam_b, -lam_b reversed), inverted iff lam_b[n-1] < 0;
        theta_k = lam_s[k] + lam_b[k] for k < n-1,
        theta_{n-1} = |lam_b[n-1]|, then -theta reversed (length N).
    """
    n = N // 2
    neg_rev = lambda seq: tuple(-x for x in reversed(seq))
    out = []
    if N % 2:
        for lam_s in dominant_in_box_oracle("D", n, bound):
            for lam_b in dominant_in_box_oracle("C", n, bound):
                head = tuple(lam_s[k] + lam_b[k] for k in range(n - 1))
                head += (abs(lam_s[n - 1]) + lam_b[n - 1],)
                out.append({
                    "label": (lam_s, lam_b),
                    "order_pair": (lam_s, lam_b),
                    "mu": (lam_s + neg_rev(lam_s), lam_s[n - 1] < 0),
                    "nu": (lam_b + (0,) + neg_rev(lam_b), False),
                    "theta": head + (0,) + neg_rev(head),
                })
    else:
        for lam_s in dominant_in_box_oracle("C", n - 1, bound):
            for lam_b in dominant_in_box_oracle("D", n, bound):
                head = tuple(lam_s[k] + lam_b[k] for k in range(n - 1))
                head += (abs(lam_b[n - 1]),)
                out.append({
                    "label": (lam_s, lam_b),
                    "order_pair": (lam_b, lam_s),
                    "mu": (lam_s + (0,) + neg_rev(lam_s), False),
                    "nu": (lam_b + neg_rev(lam_b), lam_b[n - 1] < 0),
                    "theta": head + neg_rev(head),
                })
    for rec in out:
        rec["bisignature"] = tuple(
            tuple(sorted(rec[key][0], reverse=True)) for key in ("mu", "nu")
        )
    return out


def fraction_mat_mul(a, b):
    return [
        [sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def fraction_inverse(a):
    """Inverse of an invertible square matrix, column by column with
    fraction_solve."""
    n = len(a)
    columns = [[a[i][j] for i in range(n)] for j in range(n)]
    inverse_columns = [fraction_solve(columns, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[col[i] for col in inverse_columns] for i in range(n)]


def faddeev_char_poly(M):
    """det(zI - M) as (1, c_1, ..., c_k), by Faddeev-LeVerrier in Fraction
    arithmetic."""
    k = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    coeffs = [Fraction(1)]
    B = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(1, k + 1):
        MB = fraction_mat_mul(M, B)
        c = -sum(MB[j][j] for j in range(k)) / i
        coeffs.append(c)
        B = [[x + c * (r == j) for j, x in enumerate(row)] for r, row in enumerate(MB)]
    return tuple(coeffs)


def pfaffian_expansion(M):
    """Pfaffian of an antisymmetric even-dimensional matrix, by recursive
    expansion along the first remaining row: (k - 1)!! terms."""

    def rec(indices):
        if not indices:
            return 1
        i = indices[0]
        rest = indices[1:]
        total = 0
        for pos, j in enumerate(rest):
            x = M[i][j]
            if x:
                remaining = rest[:pos] + rest[pos + 1 :]
                term = x * rec(remaining)
                total += term if pos % 2 == 0 else -term
        return total

    return rec(tuple(range(len(M))))


def gram_q0(spec, A):
    """A^T J A with the symplectic Gram J written out."""
    At = [list(col) for col in zip(*A)]
    return fraction_mat_mul(fraction_mat_mul(At, spec.gram1()), A)


def gram_q1(spec, A):
    """A A^T J with the symplectic Gram J written out."""
    At = [list(col) for col in zip(*A)]
    return fraction_mat_mul(A, fraction_mat_mul(At, spec.gram1()))


def fraction_group_element(draw):
    """The Fraction matrix G / d of a (d, G) group-element draw."""
    d, G = draw
    return [[Fraction(x, d) for x in row] for row in G]


def fraction_equivariance_holds(spec, seed):
    """The equivariance spot check on the same draws as Fraction group
    elements g = G / d, with true inverses: g1 A g0^{-1} has
    q0 = g0 q0(A) g0^{-1} and q1 = g1 q1(A) g1^{-1}."""
    rng = random.Random(f"{seed}:equivariance")
    A = moment.random_hom(spec, rng)
    g0 = fraction_group_element(moment.random_special_orthogonal(spec, rng))
    g1 = fraction_group_element(moment.random_symplectic(spec, rng))
    mm = fraction_mat_mul
    g0_inv = fraction_inverse(g0)
    moved = mm(g1, mm(A, g0_inv))
    eq0 = gram_q0(spec, moved) == mm(g0, mm(gram_q0(spec, A), g0_inv))
    eq1 = gram_q1(spec, moved) == mm(g1, mm(gram_q1(spec, A), fraction_inverse(g1)))
    return eq0 and eq1


def moment_report_oracle(N, trials, seed, start=0):
    """What moment.moment_check(N, trials, seed, start) must return, from
    the same draws checked in Fraction arithmetic: Faddeev characteristic
    polynomials, a vanishing determinant for the Pfaffian (Pf^2 = det), and
    the generators as the literal double sum over the Gram."""
    spec = moment.FormsSpec(N)
    J = spec.gram1()
    report = dict.fromkeys(
        ("char_identity", "pfaffian_vanishing", "fft_generators", "failures"), 0
    )
    for t in range(start, start + trials):
        A = moment.random_hom(spec, random.Random(f"{seed}:{t}"))
        M0 = gram_q0(spec, A)
        p0, p1 = faddeev_char_poly(M0), faddeev_char_poly(gram_q1(spec, A))
        ok = p0 == (p1 if spec.parity == "odd" else p1 + (0, 0))
        report["char_identity"] += ok
        if spec.parity == "even":
            okp = p0[-1] == 0
            report["pfaffian_vanishing"] += okp
            ok = ok and okp
        else:
            okf = all(
                M0[i][j]
                == sum(A[a][i] * J[a][b] * A[b][j] for a in range(spec.dim1) for b in range(spec.dim1))
                for i in range(spec.dim0)
                for j in range(i + 1, spec.dim0)
            )
            report["fft_generators"] += okf
            ok = ok and okf
        report["failures"] += not ok
    report["equivariance"] = int(start != 0 or fraction_equivariance_holds(spec, seed))
    report["failures"] += not report["equivariance"]
    report.update(N=N, trials=trials, ok=report["failures"] == 0)
    return report


def _nonzero(terms):
    return {w: m for w, m in terms.items() if m}


def _alternant(gtype, x):
    """A_x = sum of sign(w) e^{w x} over the Weyl group, summed literally."""
    terms = Counter()
    for w in weyl_elements(gtype):
        terms[act(w, x)] += sign(w)
    return _nonzero(terms)


def _convolve(a, b):
    """Group-ring product by the double loop over both supports."""
    terms = Counter()
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            terms[tuple(x + y for x, y in zip(w1, w2))] += m1 * m2
    return _nonzero(terms)


def _product_alternant(context, parts):
    """The alternant of each part on its factor's lattice; for two factors,
    their outer product on the concatenated lattice."""
    blocks = [_alternant(t, x) for t, x in zip(context, parts)]
    if len(blocks) == 1:
        return blocks[0]
    first, second = blocks
    return {w0 + w1: c0 * c1 for w0, c0 in first.items() for w1, c1 in second.items()}


def _strictly_dominant(gtype, x):
    n = gtype.rank
    if gtype.family == "C":
        return all(x[i] > x[i + 1] for i in range(n - 1)) and x[-1] > 0
    if n == 1:
        return True
    return all(x[i] > x[i + 1] for i in range(n - 2)) and x[n - 2] > abs(x[n - 1])


def alternant_decompose(ch):
    """What characters.decompose(ch) must return: multiply by A_rho, read
    the coefficients at strictly dominant weights lam + rho, and check that
    the sum of c * A_{lam+rho} rebuilds the product exactly."""
    if ch.is_zero:
        return {}
    if not is_weyl_invariant(ch):
        raise ValueError("character is not Weyl-invariant")
    context = ch.context
    rhos = [rho(t) for t in context]
    prod = _convolve(ch.terms, _product_alternant(context, rhos))
    rho_cat = sum(rhos, ())
    result = {}
    reconstruction = Counter()
    for w, c in prod.items():
        parts = []
        start = 0
        for t in context:
            parts.append(w[start : start + t.rank])
            start += t.rank
        if not all(_strictly_dominant(t, x) for t, x in zip(context, parts)):
            continue
        lam_cat = tuple(a - b for a, b in zip(w, rho_cat))
        if len(context) == 1:
            label = lam_cat
        else:
            r0 = context[0].rank
            label = (lam_cat[:r0], lam_cat[r0:])
        result[label] = c
        for v, m in _product_alternant(context, parts).items():
            reconstruction[v] += c * m
    if _nonzero(reconstruction) != prod:
        raise ValueError("internal error: alternant reconstruction mismatch")
    return {label: c for label, c in sorted(result.items()) if c}


def fraction_weyl_dimension(gtype, lam):
    """Weyl dimension formula, one Fraction factor per positive root."""
    rho_t = rho(gtype)
    value = Fraction(1)
    for alpha in positive_roots(gtype):
        num = sum((a + r) * b for a, r, b in zip(lam, rho_t, alpha))
        den = sum(r * b for r, b in zip(rho_t, alpha))
        value *= Fraction(num, den)
    return value


def dual_pair_char(data, lam0, lam1):
    """Dual of the outer product of the two irreducible characters: every
    weight negated."""
    ch = outer(
        irreducible_character(data.type0, lam0),
        irreducible_character(data.type1, lam1),
    )
    return CharElt(ch.context, {tuple(-x for x in w): m for w, m in ch.terms.items()})


def euler_line_sum_lhs(data, mu, qmax):
    """What euler.bryl_lhs must return: for each alpha of the support
    table, the whole Euler-line character of -(mu + alpha), added once per
    degree with its partition count."""
    out = [CharElt((data.type0, data.type1), {}) for _ in range(qmax + 1)]
    mu = BiWeight(*mu)
    for flat, counts in partition_support_table(data, qmax).items():
        alpha = BiWeight(flat[: data.eps_rank], flat[data.eps_rank :])
        line = euler_line(data, -(mu + alpha))
        for d, c in enumerate(counts):
            if c:
                out[d].add_scaled(line, c)
    return out


def sup_norm_box(data, mu, qmax):
    """Every dominant pair whose sup-norm on each factor is at most that of
    mu plus qmax: a superset of the labels that contribute to K_{lam,mu}
    at degree <= qmax, with no l1 bound."""
    return product(
        *(
            dominant_weights(gtype, max(map(abs, mu_t)) + qmax)
            for gtype, mu_t in zip((data.type0, data.type1), mu)
        )
    )


def kostka_label_sum_rhs(data, mu, qmax):
    """What euler.bryl_rhs must return: for each label of the sup-norm box
    in the dominance cone above mu, its dual character added once per
    degree with the Kostka coefficient."""
    out = [CharElt((data.type0, data.type1), {}) for _ in range(qmax + 1)]
    for lam0, lam1 in sup_norm_box(data, mu, qmax):
        if not dominance_ge_cone(data, (lam0, lam1), mu):
            continue
        coeffs = kostka(data, (lam0, lam1), mu).coeffs[: qmax + 1]
        if any(coeffs):
            ch = dual_pair_char(data, lam0, lam1)
            for d, c in enumerate(coeffs):
                if c:
                    out[d].add_scaled(ch, c)
    return out
