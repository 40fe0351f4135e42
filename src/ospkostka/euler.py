"""Two independent evaluations of the graded equivariant Euler series.

Each side is a label table {(lam0, lam1): [m_0, ..., m_qmax]}, where m_d
is the degree-d multiplicity of the dual irreducible character with
highest weights lam0, lam1 on the two factors.

The geometric side expands Sym^d of the dual odd space over the product
flag variety: degree d collects p_d(alpha) copies of the Euler
characteristic of the line bundle twisted by -mu-alpha.  By Bott that is
zero when mu+alpha+rho is singular, and otherwise sign(w) times the dual
irreducible labelled w(mu+alpha+rho)-rho, factor by factor, as read from
characters._rho_reflection, the reflection memo that decompose shares.

The combinatorial side reads K_{lam,mu}(q) from the Lusztig-Kato Weyl sum
over the dominance cone above mu.  Every odd root has sup-norm and l1
norm one on each factor, and signed permutations preserve both norms, so
a lambda that contributes at degree <= qmax has, on each factor, both
norms at most those of mu plus qmax.  dominant_cone_labels enumerates the
cone labels inside both bounds, so the enumeration is provably complete,
and every label it lists is read from one Kostka column
(kostka._kostka_column): the memo's hits as they are, the rest from one
Weyl-sum join over the column.  The dominance test is split by factor
(oddroots._dominance_share), so a label pair costs one elementwise
comparison and two integer checks.  Reindexed by alpha
instead of by w, the Weyl sum is the geometric table term for term, so
this side keeps the Weyl sum: the comparison would otherwise be a
tautology.

verify_bryl compares the tables in exact integers, label by label and
degree by degree.  Irreducible characters are linearly independent, so
this decides the identity of characters, and it is at least as strong:
it also catches a character layer that gave two labels one character.
A table becomes characters through characters._outer_sum, one call per
degree: the dual lam0 characters are summed per dual lam1 first, so
there is one external product per distinct lam1 and degree, not one per
label, accumulated in one eps-lattice dict per delta weight.  Only
labels with a nonzero row take part, so a passing comparison builds no
character.
"""

from collections import namedtuple
from operator import add, sub

from .characters import CharElt, _outer_sum, _rho_reflection, dual_label
# kostka is not called here; it stays bound as euler.kostka, which the
# benchmark's tracer self-test (benchmarks/test_bench.py) reads
from .kostka import _kostka_column, kostka, partition_support_table
from .oddroots import BiWeight, OspRootData, _check_dominant_pair
from .oddroots import _dominance_share, _shares_dominate
from .roots import EnumerationTooLargeError, dominant_weights


def _qmax_guard(data: OspRootData, qmax: int):
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    rank = max(data.eps_rank, data.delta_rank)
    limit = 8 if rank <= 2 else (4 if rank == 3 else 2)
    if qmax > limit:
        raise EnumerationTooLargeError(
            f"qmax={qmax} exceeds guard {limit} at rank {rank}"
        )


def _expand(data: OspRootData, table, qmax: int):
    """The characters of a label table, degree by degree.  The labels of
    nonzero rows are mapped to their duals once; each degree is then one
    _outer_sum, the kernel of decompose's rebuild, which reads the
    irreducibles from the shared cache and takes one external product per
    distinct dual lam1, not one per label."""
    context = (data.type0, data.type1)
    duals = {
        (dual_label(data.type0, lam0), dual_label(data.type1, lam1)): row
        for (lam0, lam1), row in table.items()
        if any(row)
    }
    return [
        CharElt(context, _outer_sum(context, {parts: row[d] for parts, row in duals.items()}))
        for d in range(qmax + 1)
    ]


def euler_line(data: OspRootData, nu: BiWeight) -> CharElt:
    """Euler characteristic character of the line bundle attached to the
    fiber character nu on the product flag variety.  Normalized so that a
    dominant mu gives euler_line(-mu) = dual character of the irreducible
    with highest weight mu."""
    rep0 = _rho_reflection(data.type0, tuple(-x for x in nu.eps))
    rep1 = _rho_reflection(data.type1, tuple(-x for x in nu.delta))
    table = {(rep0[1], rep1[1]): [rep0[0] * rep1[0]]} if rep0 and rep1 else {}
    return _expand(data, table, 0)[0]


def _lhs_table(data: OspRootData, mu, qmax: int):
    """Geometric side as a label table: each alpha of the support table
    adds sign(w) * p_d(alpha) to the row of the label that mu + alpha
    reflects to, factor by factor, through the reflection memo."""
    r, (mu0, mu1) = data.eps_rank, mu
    zero = (0,) * (qmax + 1)
    table = {}
    for flat, counts in partition_support_table(data, qmax).items():
        rep0 = _rho_reflection(data.type0, tuple(map(add, mu0, flat[:r])))
        rep1 = rep0 and _rho_reflection(data.type1, tuple(map(add, mu1, flat[r:])))
        if rep1:
            label = rep0[1], rep1[1]
            # the sign of w is +1 iff the factors' signs agree
            step = add if rep0[0] == rep1[0] else sub
            table[label] = list(map(step, table.get(label, zero), counts))
    return table


def bryl_lhs(data: OspRootData, mu_pair, qmax: int):
    """Geometric side: graded character of the Euler characteristic of
    Sym(dual odd space) twisted by O(mu), degrees 0..qmax."""
    mu = _check_dominant_pair(data, mu_pair, "mu")
    _qmax_guard(data, qmax)
    return _expand(data, _lhs_table(data, mu, qmax), qmax)


def dominant_cone_labels(data: OspRootData, mu_pair, qmax: int):
    """Dominant pairs lam >= mu that can contribute to degrees <= qmax, in
    deterministic order: on each factor, sup-norm at most max|mu_t| + qmax
    and l1 norm at most |mu_t|_1 + qmax.  Both bounds are exact: a Weyl
    term at degree d has |w(lam_t+rho_t)| <= |mu_t+rho_t| + d in both
    norms (d odd roots of norm one per factor; w keeps both norms), and
    rho_t cancels.  On a dominant weight the first entry of lam_t+rho_t is
    the largest in absolute value, and every entry is nonnegative but D's
    last, where rho is 0, so |lam_t+rho_t|_1 = |lam_t|_1 + |rho_t|_1.
    Each lam_t gets its share of the dominance test once; each pair, in
    product order, adds the two shares and checks them."""
    mu = _check_dominant_pair(data, mu_pair, "mu")
    shares0, shares1 = (
        [
            (lam_t, _dominance_share(data, t, tuple(map(sub, lam_t, mu_t))))
            for lam_t in dominant_weights(gtype, max(map(abs, mu_t)) + qmax)
            if sum(map(abs, lam_t)) <= sum(map(abs, mu_t)) + qmax
        ]
        for t, gtype, mu_t in zip((0, 1), (data.type0, data.type1), mu)
    )
    return [
        (lam0, lam1) for lam0, s0 in shares0 for lam1, s1 in shares1 if _shares_dominate(s0, s1)
    ]


def _rhs_table(data: OspRootData, mu, qmax: int):
    """Combinatorial side as a label table: the Weyl-sum K_{lam,mu}
    truncated at qmax, for each cone label where that is nonzero, read
    from one Kostka column."""
    table = {}
    for lam, poly in _kostka_column(data, dominant_cone_labels(data, mu, qmax), mu).items():
        coeffs = poly.coeffs[: qmax + 1]
        if any(coeffs):
            table[lam] = list(coeffs) + [0] * (qmax + 1 - len(coeffs))
    return table


def bryl_rhs(data: OspRootData, mu_pair, qmax: int):
    """Combinatorial side: sum of Kostka polynomials against dual
    irreducible characters, truncated at degree qmax."""
    mu = _check_dominant_pair(data, mu_pair, "mu")
    _qmax_guard(data, qmax)
    return _expand(data, _rhs_table(data, mu, qmax), qmax)


class BrylReport(namedtuple("BrylReport", "N mu qmax ok degree_diffs")):
    """Outcome of comparing the two series: ok iff their label tables
    agree; degree_diffs are the characters of the difference, rhs minus
    lhs, degree by degree."""

    __slots__ = ()

    def failing_degrees(self):
        return [d for d, diff in enumerate(self.degree_diffs) if not diff.is_zero]


def verify_bryl(data: OspRootData, mu_pair, qmax: int) -> BrylReport:
    """Compare the two label tables exactly, label by label and degree by
    degree; only a mismatch builds characters."""
    mu = _check_dominant_pair(data, mu_pair, "mu")
    _qmax_guard(data, qmax)
    diff = _rhs_table(data, mu, qmax)
    for lam, row in _lhs_table(data, mu, qmax).items():
        diff[lam] = list(map(sub, diff.get(lam, [0] * (qmax + 1)), row))
    ok = not any(map(any, diff.values()))
    return BrylReport(data.N, mu, qmax, ok, _expand(data, diff, qmax))
