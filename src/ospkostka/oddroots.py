"""Odd root combinatorics of the mixed Borel for osp(V_0|V_1), N >= 3.

Two parity regimes, both with dim V_0 = 2n:

* odd  (N = 2n+1): V_1 has dimension 2n, so the lattice is
  Z<eps_1..eps_n> + Z<delta_1..delta_n>;
* even (N = 2n):   V_1 has dimension 2n-2, so the delta block has rank n-1.

The module fixes one distinguished shuffle (of type D): an ordering of
the coordinates of the flat eps||delta lattice.  Past the rank bookkeeping
it is the only place the parity of N enters.  The positive odd roots, the
simple odd roots and the sequence the dominance order compares are all
read off from it.  The dominance order on dominant weight pairs comes in
both of its equivalent forms: membership of the difference in the
nonnegative span of the odd roots, and partial-sum inequalities along the
shuffle with a parity constraint, stated once on the two factors' shares
of lam - mu (_dominance_share, checked by _shares_dominate for one checked
pair by _pair_ge and for many labels at once by _labels_above).
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd
from itertools import accumulate, repeat
from operator import add, itemgetter, mul, sub

from .moment import row_reduce
from .roots import GroupType, _check_integers, is_dominant, rho


class BiWeight(namedtuple("BiWeight", "eps delta")):
    """Integer vector on the combined eps/delta lattice."""

    __slots__ = ()

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

    def flat(self):
        return self.eps + self.delta

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


@lru_cache(maxsize=None)
def osp_root_data(N: int) -> OspRootData:
    return OspRootData(N)


def shuffle(data: OspRootData) -> tuple:
    """The distinguished type-D shuffle: (n+1,1,n+2,2,...,2n,n) for odd N,
    (1,n+1,2,n+2,...,n-1,2n-1,n) for even N.  Entry k is a 1-based position
    in the flat eps||delta vector (1..n are eps, n+1.. are delta); the last
    entry is always the last eps coordinate."""
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


def _unit_pair(data: OspRootData, a: int, b: int, sign: int) -> BiWeight:
    """e_a + sign * e_b, for 0-based positions a != b of the flat lattice."""
    flat = [0] * (data.eps_rank + data.delta_rank)
    flat[a] = 1
    flat[b] = sign
    return BiWeight(tuple(flat[: data.eps_rank]), tuple(flat[data.eps_rank :]))


@lru_cache(maxsize=None)
def odd_positive_roots(data: OspRootData) -> tuple:
    """Positive odd roots: every eps_i+delta_j, then eps_i-delta_j and
    delta_i-eps_j wherever the first coordinate comes earlier in the
    shuffle; (i, j) lexicographic inside each of the three families.

    odd N:  {eps_i+delta_j | i,j <= n} u {eps_i-delta_j | i<j<=n}
            u {delta_i-eps_j | i<=j<=n}
    even N: {eps_i+delta_j | i<=n, j<n} u {eps_i-delta_j | i<=j<n}
            u {delta_i-eps_j | i<j<=n}
    """
    rank = {s - 1: k for k, s in enumerate(shuffle(data))}
    eps = range(data.eps_rank)
    delta = range(data.eps_rank, data.eps_rank + data.delta_rank)
    return tuple(
        [_unit_pair(data, i, j, 1) for i in eps for j in delta]
        + [_unit_pair(data, i, j, -1) for i in eps for j in delta if rank[i] < rank[j]]
        + [_unit_pair(data, i, j, -1) for i in delta for j in eps if rank[i] < rank[j]]
    )


@lru_cache(maxsize=None)
def simple_odd_roots(data: OspRootData) -> tuple:
    """Simple roots of the odd positive system: the differences of
    consecutive unit vectors in shuffle order, then the sum of the last two.

    odd N:  delta_1-eps_1, eps_1-delta_2, delta_2-eps_2, ...,
            delta_n-eps_n, delta_n+eps_n              (length 2n)
    even N: eps_1-delta_1, delta_1-eps_2, eps_2-delta_2, ...,
            delta_{n-1}-eps_n, delta_{n-1}+eps_n      (length 2n-1)

    The list is a basis of the full eps/delta lattice over Q.
    """
    order = [s - 1 for s in shuffle(data)]
    return tuple(
        [_unit_pair(data, a, b, -1) for a, b in zip(order, order[1:])]
        + [_unit_pair(data, order[-2], order[-1], 1)]
    )


class ConeSolver:
    """Exact solver for S c = alpha with a fixed full-column-rank integer
    matrix S; reports None unless c is a nonnegative integer vector.

    The left inverse of S is found once, by fraction-free row reduction
    (`moment.row_reduce`), and kept as the integer matrix D * S^+ with D
    the lcm of its denominators.  A query is then integer dot products and
    one divmod by D per coordinate, with no Fraction arithmetic.
    """

    def __init__(self, columns):
        if not columns:
            raise ValueError("simple root set is empty")
        k = len(columns)
        dim = len(columns[0])
        if any(len(col) != dim for col in columns):
            raise ValueError("simple roots have inconsistent lengths")
        # E S = d [I; 0]: rows 0..k-1 of E read off d times the coordinates
        # and the remaining rows test consistency.  More roots than
        # coordinates (dim 0 included) are always dependent.
        reduced = row_reduce([list(row) for row in zip(*columns)]) if k <= dim else None
        if reduced is None:
            raise ValueError("simple roots are linearly dependent")
        d, elim = reduced
        self.dim = dim
        # Dividing out the common factor leaves scale = the lcm of the
        # denominators of the left inverse E[:k] / d.
        g = gcd(d, *(x for row in elim[:k] for x in row))
        self.scale = d // g
        self._rows = [[x // g for x in row] for row in elim[:k]]
        # A consistency row only has to vanish, so it keeps its own scale.
        self._checks = elim[k:]

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

    def part_sums(self, parts, offset):
        """[(check-row sums, row sums)], one pair per part: the sums of the
        vector that equals the part from position `offset` on and is zero
        elsewhere, with no divmod.  Both are linear, so the sums of two
        parts placed side by side add up to those of the whole vector: it
        has coordinates exactly when its check sums vanish and its row sums
        are nonnegative multiples of `scale`, the coordinates times
        `scale`.  Each row is sliced once for all the parts."""
        end = offset + max(map(len, parts), default=0)
        if offset < 0 or end > self.dim:
            raise ValueError("part does not fit the lattice rank at this offset")
        checks, rows = (
            [[sum(map(mul, cut, p)) for p in parts] for cut in [r[offset:end] for r in matrix]]
            for matrix in (self._checks, self._rows)
        )
        return list(zip(zip(*checks) if checks else repeat(()), zip(*rows)))


@lru_cache(maxsize=None)
def _simple_solver(data: OspRootData) -> ConeSolver:
    return ConeSolver([s.flat() for s in simple_odd_roots(data)])


def simple_root_coordinates(data: OspRootData, alpha: BiWeight):
    """Coordinates of alpha over the simple odd roots, as a tuple of
    nonnegative integers, or None when the unique rational solution is
    not a nonnegative integer vector."""
    return _simple_solver(data).coordinates(alpha.flat())


def _check_dominant_pair(data: OspRootData, pair, name: str):
    lam0, lam1 = map(tuple, pair)
    _check_integers(name, lam0 + lam1)
    if not is_dominant(data.type0, lam0):
        raise ValueError(f"{name} eps-part {lam0} is not {data.type0}-dominant")
    if not is_dominant(data.type1, lam1):
        raise ValueError(f"{name} delta-part {lam1} is not {data.type1}-dominant")
    return lam0, lam1


def interleave(first, second):
    """[first[0], second[0], first[1], second[1], ...]; `first` has the same
    length as `second` or one more."""
    out = [None] * (len(first) + len(second))
    out[::2] = first
    out[1::2] = second
    return out


def prefix_sums_ge(a, b) -> bool:
    """Every proper prefix sum of a is at least the matching one of b."""
    total_a = total_b = 0
    for k in range(len(a) - 1):
        total_a += a[k]
        total_b += b[k]
        if total_a < total_b:
            return False
    return True


@lru_cache(maxsize=None)
def _shuffle_order(data: OspRootData):
    """Reads a flat eps||delta vector in shuffle order.  The shuffle has at
    least two entries (N >= 3), so the result is always a tuple."""
    return itemgetter(*(s - 1 for s in shuffle(data)))


def dominance_ge(data: OspRootData, lam_pair, mu_pair) -> bool:
    """Dominance order on dominant pairs via partial-sum inequalities.

    All proper partial sums of the pairs read in shuffle order must weakly
    decrease from lam to mu, the difference of the totals must be a
    nonnegative even integer, and the inequality must also hold with the
    final eps coordinate negated on both sides.

    Equivalent to (lam - mu) lying in the nonnegative integer span of the
    positive odd roots.
    """
    lam = _check_dominant_pair(data, lam_pair, "lambda")
    return _pair_ge(data, lam, _check_dominant_pair(data, mu_pair, "mu"))


def _pair_ge(data: OspRootData, lam, mu) -> bool:
    """lam >= mu for checked dominant pairs, from one share per factor."""
    (lam0, lam1), (mu0, mu1) = lam, mu
    share0 = _dominance_share(data, 0, tuple(map(sub, lam0, mu0)))
    return _shares_dominate(share0, _dominance_share(data, 1, tuple(map(sub, lam1, mu1))))


def _dominance_share(data: OspRootData, t: int, x) -> tuple:
    """Factor t's share of what the dominance order reads: for the flat
    vector that is x on factor t (0 the eps block, 1 the delta block) and
    zero on the other, its proper prefix sums in shuffle order, its total
    and its last eps coordinate (the last shuffle entry).  All three are
    linear, so the shares of the two blocks of a vector add up to its own."""
    rest = (0,) * (data.delta_rank if t == 0 else data.eps_rank)
    seq = _shuffle_order(data)(tuple(x) + rest if t == 0 else rest + tuple(x))
    return tuple(accumulate(seq[:-1])), sum(seq), seq[-1]


def _shares_dominate(share0, share1) -> bool:
    """lam >= mu, read from the shares of lam - mu on the two factors: every
    proper prefix sum of the difference in shuffle order is nonnegative,
    its total is a nonnegative even integer, and the total also bounds
    twice the last eps coordinate (the same prefix test with that
    coordinate negated on both sides)."""
    prefix0, total0, last0 = share0
    prefix1, total1, last1 = share1
    total = total0 + total1
    return (
        total % 2 == 0
        and total >= max(0, 2 * (last0 + last1))
        and min(map(add, prefix0, prefix1)) >= 0
    )


def _labels_above(data: OspRootData, mu, lams0, lams1) -> list:
    """The pairs of lams0 x lams1, dominant weights of the two factors, that
    are >= the checked pair mu, in product order, from one share per lam_t."""
    shares0, shares1 = (
        [(lam_t, _dominance_share(data, t, tuple(map(sub, lam_t, mu_t)))) for lam_t in lams_t]
        for t, lams_t, mu_t in zip((0, 1), (lams0, lams1), mu)
    )
    return [(lam0, lam1) for lam0, s0 in shares0 for lam1, s1 in shares1
            if _shares_dominate(s0, s1)]


def dominance_ge_cone(data: OspRootData, lam_pair, mu_pair) -> bool:
    """Cone-membership form of the order: lam - mu expands nonnegatively
    and integrally over the simple odd roots."""
    lam0, lam1 = _check_dominant_pair(data, lam_pair, "lambda")
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    diff = BiWeight(lam0, lam1) - BiWeight(mu0, mu1)
    return simple_root_coordinates(data, diff) is not None
