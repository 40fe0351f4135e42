"""Root data for the classical families D_n and C_m in coordinates.

Weights are integer tuples on the orthonormal coordinate basis
(eps_1..eps_n for type D, delta_1..delta_m for type C).  The Weyl group
acts by signed permutations of coordinates: all sign patterns for type C,
evenly many sign changes for type D.  D_1 is the degenerate rank-1 torus:
no roots, trivial Weyl group, every weight dominant.

>>> positive_roots(GroupType("C", 2))
((1, -1), (1, 1), (2, 0), (0, 2))
>>> rho(GroupType("C", 2))
(2, 1)
"""

from dataclasses import dataclass
from itertools import permutations, product

Weight = tuple

# Enumerating past this rank is never needed here and gets expensive fast.
WEYL_RANK_GUARD = 8


class EnumerationTooLargeError(ValueError):
    """Raised when a Weyl-group enumeration would exceed the rank guard."""


@dataclass(frozen=True)
class GroupType:
    family: str  # "D" or "C"
    rank: int

    def __post_init__(self):
        if self.family not in ("D", "C"):
            raise ValueError(f"unknown family {self.family!r}, expected 'D' or 'C'")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    def __str__(self):
        return f"{self.family}_{self.rank}"


@dataclass(frozen=True)
class SignedPermutation:
    """Signed permutation w: coordinate j is sent to slot perm[j] with sign
    signs[perm[j]], so (w.l)_i = signs_i * l_{perm^{-1}(i)}."""

    perm: tuple
    signs: tuple

    @property
    def rank(self):
        return len(self.perm)


def identity_element(rank: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(rank)), (1,) * rank)


def positive_roots(gtype: GroupType) -> tuple:
    """Positive roots in a fixed order: e_i-e_j then e_i+e_j over pairs i<j
    (lexicographic), followed by 2e_i for type C."""
    n = gtype.rank
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            roots.append(tuple(minus))
            roots.append(tuple(plus))
    if gtype.family == "C":
        for i in range(n):
            long = [0] * n
            long[i] = 2
            roots.append(tuple(long))
    return tuple(roots)


def rho(gtype: GroupType) -> Weight:
    """Half-sum of the positive roots; integral for both families."""
    n = gtype.rank
    total = [0] * n
    for root in positive_roots(gtype):
        for i, c in enumerate(root):
            total[i] += c
    if any(c % 2 for c in total):
        raise ArithmeticError(f"positive roots of {gtype} have an odd coordinate sum {total}")
    return tuple(c // 2 for c in total)


def weyl_order(gtype: GroupType) -> int:
    n = gtype.rank
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    if gtype.family == "C":
        return fact << n
    return fact << (n - 1)


def weyl_elements(gtype: GroupType):
    """Yield every Weyl element once, ordered by (permutation lex, sign lex).

    Type C takes all sign vectors, type D only those with an even number
    of -1 entries (so D_1 yields just the identity).
    """
    n = gtype.rank
    if n > WEYL_RANK_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: rank {n} exceeds guard {WEYL_RANK_GUARD}"
        )
    even_only = gtype.family == "D"
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if even_only and signs.count(-1) % 2 != 0:
                continue
            yield SignedPermutation(perm, signs)


def act(w: SignedPermutation, weight: Weight) -> Weight:
    """Apply w to a weight: (w.l)_i = signs_i * l_{perm^{-1}(i)}."""
    if len(weight) != w.rank:
        raise ValueError(f"rank mismatch: weight {weight} vs rank {w.rank}")
    out = [0] * w.rank
    for j, x in enumerate(weight):
        i = w.perm[j]
        out[i] = w.signs[i] * x
    return tuple(out)


def compose(w: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
    """The element w o v, i.e. act(compose(w, v), l) == act(w, act(v, l))."""
    if w.rank != v.rank:
        raise ValueError("rank mismatch in composition")
    perm = tuple(w.perm[v.perm[j]] for j in range(w.rank))
    inv_w = [0] * w.rank
    for j, i in enumerate(w.perm):
        inv_w[i] = j
    signs = tuple(w.signs[i] * v.signs[inv_w[i]] for i in range(w.rank))
    return SignedPermutation(perm, signs)


def sign(w: SignedPermutation) -> int:
    """Determinant of the signed permutation matrix of w."""
    parity = _perm_parity(w.perm)
    for s in w.signs:
        parity *= s
    return parity


def is_dominant(gtype: GroupType, weight: Weight) -> bool:
    """Type D: weakly decreasing with the last entry dominated in absolute
    value (vacuous at rank 1).  Type C: weakly decreasing and nonnegative."""
    if len(weight) != gtype.rank:
        raise ValueError(f"rank mismatch: weight {weight} vs {gtype}")
    n = gtype.rank
    if gtype.family == "C":
        return all(weight[i] >= weight[i + 1] for i in range(n - 1)) and weight[-1] >= 0
    if n == 1:
        return True
    head_sorted = all(weight[i] >= weight[i + 1] for i in range(n - 2))
    return head_sorted and weight[n - 2] >= abs(weight[n - 1])


def dominant_weights(gtype: GroupType, bound: int):
    """All dominant weights with sup-norm at most `bound`, largest first
    in each slot (deterministic order)."""
    n = gtype.rank

    def descending(k, hi):
        if k == 0:
            yield ()
            return
        for first in range(hi, -1, -1):
            for rest in descending(k - 1, first):
                yield (first,) + rest

    if gtype.family == "C":
        yield from descending(n, bound)
        return
    if n == 1:
        for x in range(bound, -bound - 1, -1):
            yield (x,)
        return
    for head in descending(n - 1, bound):
        cap = head[-1]
        for last in range(cap, -cap - 1, -1):
            yield head + (last,)


def dominant_representative(gtype: GroupType, weight: Weight):
    """Return (w_sign, dominant weight) for the regular orbit of `weight`,
    or None when the weight is singular (fixed by a reflection).

    The sign is the determinant of the Weyl element carrying `weight` to
    the dominant chamber, so alternants satisfy A_weight = sign * A_dom.
    """
    if len(weight) != gtype.rank:
        raise ValueError("rank mismatch")
    mags = sorted((abs(x) for x in weight), reverse=True)
    is_c = gtype.family == "C"
    # walls: |x_i| = |x_j| for both families, x_i = 0 for type C
    walls = mags + [0] if is_c else mags
    if any(walls[i] == walls[i + 1] for i in range(len(walls) - 1)):
        return None
    odd_flips = sum(1 for x in weight if x < 0) % 2
    s = _sort_parity([abs(x) for x in weight])
    if is_c:
        s = -s if odd_flips else s
    elif odd_flips:
        # W(D_n) changes evenly many signs, so one minus stays on the last
        # entry; the determinant reduces to the permutation parity.
        mags[-1] = -mags[-1]
    return (s, tuple(mags))


def _sort_parity(values) -> int:
    """Parity of the permutation sorting `values` into descending order.
    Values must be pairwise distinct."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    return _perm_parity(order)


def _perm_parity(perm) -> int:
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity
