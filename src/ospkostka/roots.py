"""Root data for the classical families D_n and C_m in coordinates.

Weights are integer tuples on the orthonormal coordinate basis
(eps_1..eps_n for type D, delta_1..delta_m for type C).  The Weyl group
acts by signed permutations of coordinates: all sign patterns for type C,
evenly many sign changes for type D.  D_1 is the degenerate rank-1 torus:
no roots, trivial Weyl group, every weight dominant.

The integer rule (_all_ints, _check_integers) and the Weyl-orbit normal
form (_orbit_point) are written once, here, for every module.

>>> positive_roots(GroupType("C", 2))
((1, -1), (1, 1), (2, 0), (0, 2))
>>> rho(GroupType("C", 2))
(2, 1)
"""

from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product
from operator import eq, ge

Weight = tuple

_INT_ONLY = frozenset((int,))

# A cold C_7 character costs seconds and 100s of MB; |W(C_8)| = 16 |W(C_7)|.
WEYL_RANK_GUARD = 7


class EnumerationTooLargeError(ValueError):
    """Raised when a Weyl-group enumeration would exceed the rank guard."""


def _all_ints(values) -> bool:
    """Whether every value is an int; bool is not.  The memos compare keys
    by value, so a 3.0 let through would read or write the entry of 3."""
    return _INT_ONLY.issuperset(map(type, values))


def _check_integers(name: str, values: tuple):
    """Raise TypeError unless _all_ints(values)."""
    if not _all_ints(values):
        bad = next(x for x in values if type(x) is not int)
        raise TypeError(f"{name}: {bad!r} is not an int")


class GroupType(namedtuple("GroupType", "family rank")):
    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in ("D", "C"):
            raise ValueError(f"unknown family {family!r}, expected 'D' or 'C'")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self):
        return f"{self.family}_{self.rank}"


class SignedPermutation(namedtuple("SignedPermutation", "perm signs")):
    """Signed permutation w: coordinate j is sent to slot perm[j] with sign
    signs[perm[j]], so (w.l)_i = signs_i * l_{perm^{-1}(i)}."""

    __slots__ = ()

    @property
    def rank(self):
        return len(self.perm)


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
    vectors = [s for s in product((1, -1), repeat=n) if not even_only or s.count(-1) % 2 == 0]
    for perm in permutations(range(n)):
        for signs in vectors:
            yield SignedPermutation(perm, signs)


@lru_cache(maxsize=None)
def signed_weyl(gtype: GroupType) -> tuple:
    """(w, sign w) for every Weyl element, in weyl_elements order, once per type."""
    return tuple((w, sign(w)) for w in weyl_elements(gtype))


def act(w: SignedPermutation, weight: Weight) -> Weight:
    """Apply w to a weight: (w.l)_i = signs_i * l_{perm^{-1}(i)}."""
    perm, signs = w
    rank = len(perm)
    if len(weight) != rank:
        raise ValueError(f"rank mismatch: weight {weight} vs rank {rank}")
    out = [0] * rank
    for j, x in enumerate(weight):
        i = perm[j]
        out[i] = signs[i] * x
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
    # on type D the last comparison is implied by the absolute-value one
    if not all(map(ge, weight, weight[1:])):
        return False
    if gtype.family == "C":
        return weight[-1] >= 0
    return gtype.rank == 1 or weight[-2] >= abs(weight[-1])


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
    W(D_n) changes evenly many signs, so on type D it is the permutation
    parity alone.
    """
    if len(weight) != gtype.rank:
        raise ValueError("rank mismatch")
    dom = _orbit_point(gtype, weight)
    is_c = gtype.family == "C"
    # walls: |x_i| = |x_j| for both families, x_i = 0 for type C
    walls = dom + (0,) if is_c else tuple(map(abs, dom))
    if any(map(eq, walls, walls[1:])):
        return None
    s = _sort_parity([abs(x) for x in weight])
    return (-s if is_c and sum(x < 0 for x in weight) % 2 else s), dom


def dominant_conjugate(gtype: GroupType, weight: Weight) -> Weight:
    """_orbit_point, memoised; a non-int entry raises TypeError before the
    memo is read."""
    _check_integers("weight", weight)
    return _dominant_conjugate(gtype, weight)


def _orbit_point(gtype: GroupType, weight: Weight) -> Weight:
    """The dominant point of the orbit W.weight, for any weight: on a wall
    and with zero entries too.  On type D an odd number of negative
    entries leaves one minus, on the smallest magnitude (on a zero that is
    no minus at all); on D_1 the orbit is the weight itself."""
    if len(weight) != gtype.rank:
        raise ValueError(f"rank mismatch: weight {weight} vs {gtype}")
    mags = sorted(map(abs, weight), reverse=True)
    if gtype.family == "D" and sum(x < 0 for x in weight) % 2:
        mags[-1] = -mags[-1]
    return tuple(mags)


_dominant_conjugate = lru_cache(maxsize=None)(_orbit_point)


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
