"""Partition polynomials and orthosymplectic Kostka polynomials.

L_alpha(q) counts unordered multisets of positive odd roots summing to
alpha, graded by multiset size.  The Kostka polynomial is the signed sum
of L over the product Weyl group W(D_n) x W(C_m), in the Lusztig-Kato
shape: each factor contributes w(lam+rho)-rho-mu.

Counting runs over simple-root coordinates: every positive odd root has a
strictly positive coordinate height there, so the multiset recursion
terminates even though several roots have zero coordinate sum on the raw
eps/delta basis.
"""

from dataclasses import dataclass
from functools import lru_cache

from .oddroots import (
    BiWeight,
    ConeSolver,
    OspRootData,
    _check_dominant_pair,
    dominance_ge,
    odd_positive_roots,
    osp_root_data,
    simple_odd_roots,
)
from .roots import EnumerationTooLargeError, GroupType, act, sign, weyl_elements

KOSTKA_RANK_GUARD = 4


@dataclass(frozen=True)
class QPoly:
    """Polynomial in q with integer coefficients; () is the zero polynomial."""

    coeffs: tuple

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @staticmethod
    def zero():
        return QPoly(())

    @staticmethod
    def one():
        return QPoly((1,))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(tuple(self[d] + other[d] for d in range(n)))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(tuple(self[d] - other[d] for d in range(n)))

    def scaled(self, c: int):
        return QPoly(tuple(c * a for a in self.coeffs))

    def shifted(self, k: int):
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def truncated(self, dmax: int):
        return QPoly(self.coeffs[: dmax + 1])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("q" if c == 1 else f"{c}*q")
            else:
                parts.append(f"q^{d}" if c == 1 else f"{c}*q^{d}")
        return " + ".join(parts)


# Shared result for the many Weyl-sum arguments outside the cone.
_ZERO = QPoly(())


@dataclass(frozen=True)
class RootSet:
    """A positive root set for the generic Kostka mode.  No positivity or
    geometric meaning is guaranteed for sets other than the built-in one."""

    roots: tuple


class PartitionCounter:
    """Multiset-partition counter over a fixed list of roots.

    Roots are converted to coordinates over a linearly independent simple
    set; all roots must expand nonnegatively and integrally there.  State
    of the memoized recursion is (number of usable roots, residual
    coordinate vector).
    """

    def __init__(self, roots, simples):
        if not roots:
            raise ValueError("root set must be nonempty")
        self._solver = ConeSolver([s.flat() for s in simples])
        self.roots = tuple(roots)
        self.root_coords = []
        for beta in roots:
            c = self._solver.coordinates(beta.flat())
            if c is None or not any(c):
                raise ValueError(
                    f"root {beta} has no nonnegative integral expansion "
                    "over the simple set"
                )
            self.root_coords.append(c)
        self._memo = {}

    def l_poly_flat(self, flat) -> QPoly:
        coords = self._solver.coordinates(flat)
        if coords is None:
            return _ZERO
        return QPoly(self._counts(len(self.root_coords), coords))

    def _counts(self, k, coords):
        """Counts by multiset size for partitions of `coords` using the
        first k roots, computed with an explicit stack (inputs from the
        Weyl sum can be deep)."""
        memo = self._memo
        goal = (k, coords)
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
            rc = self.root_coords[kk - 1]
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


@lru_cache(maxsize=None)
def _counter(data: OspRootData) -> PartitionCounter:
    return PartitionCounter(odd_positive_roots(data), simple_odd_roots(data))


@lru_cache(maxsize=None)
def _signed_weyl(gtype: GroupType):
    return tuple((w, sign(w)) for w in weyl_elements(gtype))


def l_poly(data: OspRootData, alpha: BiWeight) -> QPoly:
    """Generating polynomial of multiset partitions of alpha into positive
    odd roots, graded by the number of parts.  Zero when alpha is not in
    the cone."""
    return _counter(data).l_poly_flat(alpha.flat())


_kostka_memo = {}


def kostka(data: OspRootData, lam_pair, mu_pair) -> QPoly:
    """Orthosymplectic Kostka polynomial: the alternating Weyl-group sum
    of L at the arguments (w0(lam0+rho0)-rho0-mu0, w1(lam1+rho1)-rho1-mu1).
    """
    lam0, lam1 = _check_dominant_pair(data, lam_pair, "lambda")
    mu0, mu1 = _check_dominant_pair(data, mu_pair, "mu")
    if data.n > KOSTKA_RANK_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: n={data.n} exceeds guard {KOSTKA_RANK_GUARD}"
        )
    key = (data.N, lam0, lam1, mu0, mu1)
    hit = _kostka_memo.get(key)
    if hit is not None:
        return hit
    counter = _counter(data)
    poly = _lusztig_kato_sum(
        counter, data.type0, data.rho0, data.type1, data.rho1, lam0, lam1, mu0, mu1
    )
    _kostka_memo[key] = poly
    return poly


def kostka_custom(
    root_set: RootSet,
    simples,
    type0: GroupType,
    type1: GroupType,
    rho_pair,
    lam_pair,
    mu_pair,
) -> QPoly:
    """Kostka polynomial for a user-supplied odd root set.

    Experimental: the alternating sum is computed verbatim with the given
    roots, simple set, Weyl factors and rho shift; positivity of the
    result is not guaranteed.  The simple list must be linearly
    independent and every root must expand nonnegatively over it.
    """
    rank = max(type0.rank, type1.rank)
    if rank > KOSTKA_RANK_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: rank {rank} exceeds guard {KOSTKA_RANK_GUARD}"
        )
    counter = PartitionCounter(root_set.roots, tuple(simples))
    lam0, lam1 = tuple(lam_pair[0]), tuple(lam_pair[1])
    mu0, mu1 = tuple(mu_pair[0]), tuple(mu_pair[1])
    rho0, rho1 = tuple(rho_pair[0]), tuple(rho_pair[1])
    return _lusztig_kato_sum(counter, type0, rho0, type1, rho1, lam0, lam1, mu0, mu1)


def _weyl_arguments(gtype, rho_t, lam, mu):
    """(w(lam+rho)-rho-mu, sign w) for every w in W(gtype)."""
    shift = tuple(a + b for a, b in zip(lam, rho_t))
    base = tuple(a + b for a, b in zip(rho_t, mu))
    return [
        (tuple(a - b for a, b in zip(act(w, shift), base)), s)
        for w, s in _signed_weyl(gtype)
    ]


def _lusztig_kato_sum(counter, type0, rho0, type1, rho1, lam0, lam1, mu0, mu1):
    l_poly_flat = counter.l_poly_flat
    side1 = _weyl_arguments(type1, rho1, lam1, mu1)
    acc = []
    for arg0, s0 in _weyl_arguments(type0, rho0, lam0, mu0):
        for arg1, s1 in side1:
            part = l_poly_flat(arg0 + arg1).coeffs
            if len(part) > len(acc):
                acc.extend([0] * (len(part) - len(acc)))
            s = s0 * s1
            for d, c in enumerate(part):
                acc[d] += s * c
    return QPoly(tuple(acc))


@lru_cache(maxsize=None)
def partition_support_table(data: OspRootData, dmax: int):
    """All multiset sums of at most dmax positive odd roots, as a map from
    flat lattice vectors to count-by-size tuples of length dmax+1."""
    roots_flat = [b.flat() for b in odd_positive_roots(data)]
    zero = (0,) * (data.eps_rank + data.delta_rank)
    table = {zero: [1] + [0] * dmax}
    for root in roots_flat:
        for d in range(1, dmax + 1):
            for alpha, counts in list(table.items()):
                c = counts[d - 1]
                if c:
                    target = tuple(a + b for a, b in zip(alpha, root))
                    if target not in table:
                        table[target] = [0] * (dmax + 1)
                    table[target][d] += c
    return {alpha: tuple(counts) for alpha, counts in table.items()}


def kostka_defect(lam_pair, mu_pair, poly: QPoly):
    """Why poly cannot be K_{lam,mu} for lam >= mu, or None if it can."""
    if any(c < 0 for c in poly.coeffs):
        return "negative coefficient"
    if not poly:
        return "vanishes on the dominance cone"
    if lam_pair != mu_pair and poly[0] != 0:
        return "nonzero constant term off the diagonal"
    if lam_pair == mu_pair and poly.coeffs != (1,):
        return "diagonal value is not 1"
    return None


def kostka_memo_export():
    """The cross-call Kostka memo as cache entries: the key
    "N|K|lam0|lam1|mu0|mu1" (comma-separated vectors) maps to the
    coefficient list."""
    return {
        "|".join([str(N), "K", *(",".join(map(str, v)) for v in vecs)]): list(poly.coeffs)
        for (N, *vecs), poly in _kostka_memo.items()
    }


def kostka_memo_import(entries):
    """Load entries in the kostka_memo_export format into the memo,
    skipping any that is malformed or cannot be a Kostka polynomial."""
    for key, coeffs in entries.items():
        parts = key.split("|")
        if len(parts) != 6 or parts[1] != "K":
            continue
        if not isinstance(coeffs, list) or not all(isinstance(c, int) for c in coeffs):
            continue
        try:
            N = int(parts[0])
            lam0, lam1, mu0, mu1 = (
                tuple(int(x) for x in p.split(",")) if p else () for p in parts[2:]
            )
            # before any root data is built, so a corrupt N costs nothing
            if N < 3 or N // 2 > KOSTKA_RANK_GUARD:
                continue
            # raises unless both pairs are dominant with the ranks of N
            ge = dominance_ge(osp_root_data(N), (lam0, lam1), (mu0, mu1))
        except ValueError:
            continue
        poly = QPoly(tuple(coeffs))
        # K vanishes unless lam >= mu, and then has no defect
        if kostka_defect((lam0, lam1), (mu0, mu1), poly) if ge else poly:
            continue
        _kostka_memo[(N, lam0, lam1, mu0, mu1)] = poly
