"""Two independent evaluations of the graded equivariant Euler series.

The geometric side expands Sym^d of the dual odd space over the product
flag variety: degree d collects p_d(alpha) copies of the Euler
characteristic of the line bundle twisted by -mu-alpha, each evaluated by
the Weyl alternant (Bott: zero at singular shifts, a signed irreducible
character otherwise).

The combinatorial side sums Kostka polynomials against dual irreducible
characters over the dominance cone above mu.  Every odd root has sup-norm
one and signed permutations preserve the sup-norm, so a contributing
lambda at degree <= qmax satisfies lam[0] <= mu[0] + qmax on each factor;
that bound makes the enumeration provably complete.

Agreement of the two sides, degree by degree and in exact integers, is
the main verification target of the package.
"""

from dataclasses import dataclass
from functools import lru_cache

from .characters import CharElt, _rho_reflection, irreducible_character, outer, zero_char
from .kostka import kostka, partition_support_table
from .oddroots import BiWeight, OspRootData, _check_dominant_pair, _dominates
from .roots import EnumerationTooLargeError, GroupType, dominant_weights, rho


def _qmax_guard(data: OspRootData, qmax: int):
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    rank = max(data.eps_rank, data.delta_rank)
    limit = 8 if rank <= 2 else (4 if rank == 3 else 0)
    if qmax > limit:
        raise EnumerationTooLargeError(
            f"qmax={qmax} exceeds guard {limit} at rank {rank}"
        )


@lru_cache(maxsize=256)
def _dual_character(gtype: GroupType, lam) -> CharElt:
    """Dual of the irreducible character with highest weight lam.  Shared
    between callers, so it must not be mutated."""
    return irreducible_character(gtype, lam).negated_weights()


@lru_cache(maxsize=None)
def _euler_factor(gtype: GroupType, nu) -> CharElt:
    """Euler characteristic of the line bundle on one flag-variety factor
    whose fiber carries the Borel character nu.  Normalized so that a
    dominant mu gives euler(-mu) = dual character of the irreducible with
    highest weight mu."""
    rep = _rho_reflection(gtype, rho(gtype), tuple(-x for x in nu))
    if rep is None:
        return zero_char((gtype,))
    s, lam = rep
    return _dual_character(gtype, lam).scaled(s)


def euler_line(data: OspRootData, nu: BiWeight) -> CharElt:
    """Euler characteristic character of the line bundle attached to the
    fiber character nu on the product flag variety."""
    return outer(
        _euler_factor(data.type0, nu.eps),
        _euler_factor(data.type1, nu.delta),
    )


def bryl_lhs(data: OspRootData, mu_pair, qmax: int):
    """Geometric side: graded character of the Euler characteristic of
    Sym(dual odd space) twisted by O(mu), degrees 0..qmax."""
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    _qmax_guard(data, qmax)
    mu = BiWeight(mu0, mu1)
    table = partition_support_table(data, qmax)
    context = (data.type0, data.type1)
    out = [zero_char(context) for _ in range(qmax + 1)]
    for flat, counts in table.items():
        alpha = BiWeight(flat[: data.eps_rank], flat[data.eps_rank :])
        line = None
        for d, c in enumerate(counts):
            if c:
                if line is None:
                    line = euler_line(data, -(mu + alpha))
                out[d].add_scaled(line, c)
    return out


def dominant_cone_labels(data: OspRootData, mu_pair, qmax: int):
    """Dominant pairs lam >= mu that can contribute to degrees <= qmax,
    in deterministic order."""
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    bound0 = mu0[0] + qmax if data.eps_rank > 1 else abs(mu0[0]) + qmax
    bound1 = mu1[0] + qmax
    mu_flat = mu0 + mu1
    return [
        (lam0, lam1)
        for lam0 in dominant_weights(data.type0, bound0)
        for lam1 in dominant_weights(data.type1, bound1)
        if _dominates(data, lam0 + lam1, mu_flat)
    ]


def bryl_rhs(data: OspRootData, mu_pair, qmax: int):
    """Combinatorial side: sum of Kostka polynomials against dual
    irreducible characters, truncated at degree qmax."""
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    _qmax_guard(data, qmax)
    context = (data.type0, data.type1)
    out = [zero_char(context) for _ in range(qmax + 1)]
    for lam0, lam1 in dominant_cone_labels(data, (mu0, mu1), qmax):
        poly = kostka(data, (lam0, lam1), (mu0, mu1))
        if not poly:
            continue
        nonzero = [(d, c) for d, c in enumerate(poly.coeffs) if c and d <= qmax]
        if not nonzero:
            continue
        ch = outer(_dual_character(data.type0, lam0), _dual_character(data.type1, lam1))
        for d, c in nonzero:
            out[d].add_scaled(ch, c)
    return out


@dataclass
class BrylReport:
    """Outcome of comparing the two series: ok iff every per-degree
    difference (rhs minus lhs) vanishes identically."""

    N: int
    mu: tuple
    qmax: int
    ok: bool
    degree_diffs: list

    def failing_degrees(self):
        return [d for d, diff in enumerate(self.degree_diffs) if not diff.is_zero]


def verify_bryl(data: OspRootData, mu_pair, qmax: int) -> BrylReport:
    """Run both evaluations and compare exactly, degree by degree."""
    lhs = bryl_lhs(data, mu_pair, qmax)
    rhs = bryl_rhs(data, mu_pair, qmax)
    diffs = [r - l for l, r in zip(lhs, rhs)]
    ok = all(diff.is_zero for diff in diffs)
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    return BrylReport(data.N, (mu0, mu1), qmax, ok, diffs)
