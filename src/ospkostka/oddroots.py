"""Odd root combinatorics of the mixed Borel for osp(V_0|V_1), N >= 3.

Two parity regimes, both with dim V_0 = 2n:

* odd  (N = 2n+1): V_1 has dimension 2n, so the lattice is
  Z<eps_1..eps_n> + Z<delta_1..delta_n>;
* even (N = 2n):   V_1 has dimension 2n-2, so the delta block has rank n-1.

The module fixes one distinguished shuffle (of type D), the resulting set
of positive odd roots, its simple roots, and the dominance order on
dominant weight pairs in both of its equivalent forms: membership of the
difference in the nonnegative span of the odd roots, and an explicit list
of interleaved partial-sum inequalities with a parity constraint.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .roots import GroupType, is_dominant, rho


@dataclass(frozen=True)
class BiWeight:
    """Integer vector on the combined eps/delta lattice."""

    eps: tuple
    delta: tuple

    def __add__(self, other):
        return BiWeight(
            tuple(a + b for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(a + b for a, b in zip(self.delta, other.delta, strict=True)),
        )

    def __sub__(self, other):
        return BiWeight(
            tuple(a - b for a, b in zip(self.eps, other.eps, strict=True)),
            tuple(a - b for a, b in zip(self.delta, other.delta, strict=True)),
        )

    def __neg__(self):
        return BiWeight(tuple(-a for a in self.eps), tuple(-a for a in self.delta))

    def flat(self):
        return self.eps + self.delta

    @property
    def is_zero(self):
        return not any(self.eps) and not any(self.delta)

    def __str__(self):
        return ",".join(map(str, self.eps)) + ";" + ",".join(map(str, self.delta))


def biweight(eps, delta) -> BiWeight:
    return BiWeight(tuple(eps), tuple(delta))


class OspRootData:
    """Rank bookkeeping for a given N plus the derived root-system data."""

    def __init__(self, N: int):
        if N < 3:
            raise ValueError(f"N must be >= 3, got {N}")
        self.N = N
        self.parity = "odd" if N % 2 == 1 else "even"
        self.n = N // 2
        self.eps_rank = self.n
        self.delta_rank = self.n if self.parity == "odd" else self.n - 1
        self.dim_v0 = 2 * self.n
        self.dim_v1 = 2 * self.delta_rank
        self.type0 = GroupType("D", self.eps_rank)
        self.type1 = GroupType("C", self.delta_rank)
        self.rho0 = rho(self.type0)
        self.rho1 = rho(self.type1)

    def __repr__(self):
        return f"OspRootData(N={self.N})"

    def __eq__(self, other):
        return isinstance(other, OspRootData) and other.N == self.N

    def __hash__(self):
        return hash(("OspRootData", self.N))

    def zero(self) -> BiWeight:
        return BiWeight((0,) * self.eps_rank, (0,) * self.delta_rank)

    def unit_eps(self, i) -> BiWeight:
        eps = [0] * self.eps_rank
        eps[i] = 1
        return BiWeight(tuple(eps), (0,) * self.delta_rank)

    def unit_delta(self, j) -> BiWeight:
        delta = [0] * self.delta_rank
        delta[j] = 1
        return BiWeight((0,) * self.eps_rank, tuple(delta))


@lru_cache(maxsize=None)
def osp_root_data(N: int) -> OspRootData:
    return OspRootData(N)


def shuffle(data: OspRootData) -> tuple:
    """The distinguished type-D shuffle: (n+1,1,n+2,2,...,2n,n) for odd N,
    (1,n+1,2,n+2,...,n-1,2n-1,n) for even N."""
    n = data.n
    if data.parity == "odd":
        out = []
        for k in range(1, n + 1):
            out.extend((n + k, k))
        return tuple(out)
    out = []
    for k in range(1, n):
        out.extend((k, n + k))
    out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def odd_positive_roots(data: OspRootData) -> tuple:
    """Positive odd roots, listed family by family with (i, j) lexicographic
    inside each family.

    odd N:  {eps_i+delta_j | i,j <= n} u {eps_i-delta_j | i<j<=n}
            u {delta_i-eps_j | i<=j<=n}
    even N: {eps_i+delta_j | i<=n, j<n} u {eps_i-delta_j | i<=j<n}
            u {delta_i-eps_j | i<j<=n}
    """
    n = data.n
    roots = []
    if data.parity == "odd":
        for i in range(n):
            for j in range(n):
                roots.append(data.unit_eps(i) + data.unit_delta(j))
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(data.unit_eps(i) - data.unit_delta(j))
        for i in range(n):
            for j in range(i, n):
                roots.append(data.unit_delta(i) - data.unit_eps(j))
    else:
        for i in range(n):
            for j in range(n - 1):
                roots.append(data.unit_eps(i) + data.unit_delta(j))
        for i in range(n - 1):
            for j in range(i, n - 1):
                roots.append(data.unit_eps(i) - data.unit_delta(j))
        for i in range(n - 1):
            for j in range(i + 1, n):
                roots.append(data.unit_delta(i) - data.unit_eps(j))
    return tuple(roots)


@lru_cache(maxsize=None)
def simple_odd_roots(data: OspRootData) -> tuple:
    """Simple roots of the odd positive system, in their standard order.

    odd N:  delta_1-eps_1, eps_1-delta_2, delta_2-eps_2, ...,
            delta_n-eps_n, delta_n+eps_n              (length 2n)
    even N: eps_1-delta_1, delta_1-eps_2, eps_2-delta_2, ...,
            delta_{n-1}-eps_n, delta_{n-1}+eps_n      (length 2n-1)

    The list is a basis of the full eps/delta lattice over Q.
    """
    n = data.n
    simples = []
    if data.parity == "odd":
        for k in range(n - 1):
            simples.append(data.unit_delta(k) - data.unit_eps(k))
            simples.append(data.unit_eps(k) - data.unit_delta(k + 1))
        simples.append(data.unit_delta(n - 1) - data.unit_eps(n - 1))
        simples.append(data.unit_delta(n - 1) + data.unit_eps(n - 1))
    else:
        for k in range(n - 1):
            simples.append(data.unit_eps(k) - data.unit_delta(k))
            if k < n - 2:
                simples.append(data.unit_delta(k) - data.unit_eps(k + 1))
        simples.append(data.unit_delta(n - 2) - data.unit_eps(n - 1))
        simples.append(data.unit_delta(n - 2) + data.unit_eps(n - 1))
    return tuple(simples)


class ConeSolver:
    """Exact solver for S c = alpha with a fixed full-column-rank integer
    matrix S; reports None unless c is a nonnegative integer vector.

    The left inverse of S is found once, by Fraction row reduction, and
    kept as the integer matrix D * S^+ with D the lcm of its denominators.
    A query is then integer dot products and one divmod by D per
    coordinate, with no Fraction arithmetic.
    """

    def __init__(self, columns):
        k = len(columns)
        dim = len(columns[0])
        if any(len(col) != dim for col in columns):
            raise ValueError("simple roots have inconsistent lengths")
        # Row-reduce [S | I]: afterwards rows 0..k-1 of the right block
        # read off coordinates and the remaining rows test consistency.
        mat = [
            [Fraction(columns[j][i]) for j in range(k)]
            + [Fraction(1) if t == i else Fraction(0) for t in range(dim)]
            for i in range(dim)
        ]
        row = 0
        for col in range(k):
            piv = next((i for i in range(row, dim) if mat[i][col] != 0), None)
            if piv is None:
                raise ValueError("simple roots are linearly dependent")
            mat[row], mat[piv] = mat[piv], mat[row]
            pivot = mat[row][col]
            mat[row] = [x / pivot for x in mat[row]]
            for i in range(dim):
                if i != row and mat[i][col] != 0:
                    f = mat[i][col]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
            row += 1
        elim = [r[k:] for r in mat]
        self.dim = dim
        self.scale, self._rows = _clear_denominators(elim[:k])
        # A consistency row only has to vanish, so each is cleared of
        # denominators on its own.
        self._checks = [_clear_denominators([r])[1][0] for r in elim[k:]]

    def coordinates(self, flat):
        if len(flat) != self.dim:
            raise ValueError("vector length does not match the lattice rank")
        for row in self._checks:
            if sum(map(mul, row, flat)):
                return None
        scale = self.scale
        out = []
        for row in self._rows:
            c, rem = divmod(sum(map(mul, row, flat)), scale)
            if rem or c < 0:
                return None
            out.append(c)
        return tuple(out)


def _clear_denominators(rows):
    """(D, D * rows as ints), with D the lcm of the denominators in rows."""
    scale = lcm(*(x.denominator for r in rows for x in r))
    return scale, [[int(x * scale) for x in r] for r in rows]


@lru_cache(maxsize=None)
def _simple_solver(data: OspRootData) -> ConeSolver:
    return ConeSolver([s.flat() for s in simple_odd_roots(data)])


def simple_root_coordinates(data: OspRootData, alpha: BiWeight):
    """Coordinates of alpha over the simple odd roots, as a tuple of
    nonnegative integers, or None when the unique rational solution is
    not a nonnegative integer vector."""
    return _simple_solver(data).coordinates(alpha.flat())


def _check_dominant_pair(data: OspRootData, pair, name: str):
    lam0, lam1 = pair
    if not is_dominant(data.type0, tuple(lam0)):
        raise ValueError(f"{name} eps-part {tuple(lam0)} is not {data.type0}-dominant")
    if not is_dominant(data.type1, tuple(lam1)):
        raise ValueError(f"{name} delta-part {tuple(lam1)} is not {data.type1}-dominant")
    return tuple(lam0), tuple(lam1)


def _shuffled_sequence(data: OspRootData, lam0, lam1):
    """Interleaving used by the concrete form of the dominance order.
    odd N starts with the delta side, even N with the eps side; the
    final entry is always the last eps coordinate."""
    n = data.n
    if data.parity == "odd":
        seq = []
        for k in range(n):
            seq.append(lam1[k])
            seq.append(lam0[k])
        return seq
    seq = []
    for k in range(n - 1):
        seq.append(lam0[k])
        seq.append(lam1[k])
    seq.append(lam0[n - 1])
    return seq


def dominance_ge(data: OspRootData, lam_pair, mu_pair) -> bool:
    """Dominance order on dominant pairs via partial-sum inequalities.

    All proper partial sums of the interleaved sequences must weakly
    decrease from lam to mu, the difference of the totals must be a
    nonnegative even integer, and the inequality must also hold with the
    final eps coordinate negated on both sides.

    Equivalent to (lam - mu) lying in the nonnegative integer span of the
    positive odd roots.
    """
    lam0, lam1 = _check_dominant_pair(data, lam_pair, "lambda")
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    seq_l = _shuffled_sequence(data, lam0, lam1)
    seq_m = _shuffled_sequence(data, mu0, mu1)
    total_l = total_m = 0
    for k in range(len(seq_l) - 1):
        total_l += seq_l[k]
        total_m += seq_m[k]
        if total_l < total_m:
            return False
    gap = (total_l + seq_l[-1]) - (total_m + seq_m[-1])
    if gap < 0 or gap % 2 != 0:
        return False
    # Same comparison with the sign of the last eps coordinate reversed.
    return (total_l - seq_l[-1]) >= (total_m - seq_m[-1])


def dominance_ge_cone(data: OspRootData, lam_pair, mu_pair) -> bool:
    """Cone-membership form of the order: lam - mu expands nonnegatively
    and integrally over the simple odd roots."""
    lam0, lam1 = _check_dominant_pair(data, lam_pair, "lambda")
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    diff = BiWeight(lam0, lam1) - BiWeight(mu0, mu1)
    return simple_root_coordinates(data, diff) is not None
