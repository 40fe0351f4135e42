"""Partition polynomials and orthosymplectic Kostka polynomials.

L_alpha(q) counts unordered multisets of positive odd roots summing to
alpha, graded by multiset size.  The Kostka polynomial is the signed sum
of L over the product Weyl group W(D_n) x W(C_m), in the Lusztig-Kato
shape: each factor contributes w(lam+rho)-rho-mu.

Counting runs over simple-root coordinates: every positive odd root has a
strictly positive coordinate height there, so the multiset recursion
terminates even though several roots have zero coordinate sum on the raw
eps/delta basis.

The counter keeps the root coordinate vectors in ascending lexicographic
order and peels them from the end, so the roots with a positive first
coordinate are used up first, then those that lead with the second, and
so on.  A state (k, residual) is dead when the residual is positive in a
coordinate that none of the first k roots touches; such a state is
answered () without being stored.  The cut is exact: every multiset of
the first k roots is zero in each coordinate they all leave at zero, and
residuals never go negative because every root expands nonnegatively
(checked on construction).  The order makes the cut bite early: once the
roots with a positive first coordinate are peeled, any residual still
positive there is dead.  L_alpha(q) does not depend on the root order.

The residual is packed into one int, one field per coordinate with a
guard bit above it (PartitionCounter gives the layout): subtracting a
root is one integer subtraction, a negative coordinate shows as a
cleared guard bit, the dead test is one mask per k, and fields too
narrow for a goal are widened, never narrower than any root's.

The Weyl sum is joined over a Kostka column: all labels lam of one mu.
The argument of a pair is x0 + x1 - base, where x_t = w_t(lam_t + rho_t)
is an orbit point and base = (rho0 + mu0 || rho1 + mu1).  Each counter
keeps, per (factor, lam_t), that factor's orbit points with their signs
and their raw row and check sums (the coordinates times the solver's
scale), sorted by each row's sum, built once and shared by every mu.
mu enters only through base: the sums are linear, so those of an
argument are the sums of x0 at offset 0, plus those of x1 after it,
minus those of base.  The counter keeps base's sums per rho + mu, next
to the per-(factor, lam_t) orbit points, so a column at a mu seen
before reads them.  A column merges the side-1 lists over its lam1 into
one row index.  A side-0 point whose row-i sum is below base_rows[i]
minus the largest side-1 sum there pairs with nothing, so one bisection
per row drops those, on the row that drops most (at N = 8 most points
go).  Each remaining (lam0, w0) is visited once: a bisection at
base_rows[i] - raw0[i] finds, on every row i, the side-1 points whose
argument has a nonnegative row-i sum; the first row that keeps the
fewest is walked, skipping each lam1 that makes no label with lam0.
The cut is exact: a pair it drops has a negative coordinate or fails a
check row, so L is zero there.  A walked pair whose check sums equal
base's minus side 0's and whose row sums all reach their thresholds
goes to l_poly_flat on x0 + x1 - base, whose exact solve stays the only
test of divisibility and of cone membership.  The labels of a column
share most of their arguments, so the counter keeps L per argument and
solves each distinct one once.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import add, lshift, sub

from .oddroots import (
    BiWeight,
    ConeSolver,
    OspRootData,
    _check_dominant_pair,
    odd_positive_roots,
    osp_root_data,
    simple_odd_roots,
    simple_root_coordinates,
)
from .roots import EnumerationTooLargeError, GroupType, _all_ints, act, signed_weyl

KOSTKA_RANK_GUARD = 4


class QPoly(namedtuple("QPoly", "coeffs")):
    """Polynomial in q with integer coefficients; () is the zero polynomial."""

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return tuple.__new__(cls, (coeffs[:end],))

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


# Shared result for an l_poly argument outside the cone.
_ZERO = QPoly(())


class PartitionCounter:
    """Multiset-partition counter over a fixed list of roots.

    Roots are converted to coordinates over a linearly independent simple
    set; all roots must expand nonnegatively and integrally there.  State
    of the memoized recursion is (number of usable roots, residual
    coordinate vector); the module docstring gives the root order and the
    dead-state cut.  l_poly_flat keeps its answer per lattice vector,
    weyl_terms its orbit points per (factor, lam), and the Weyl sum the
    check and row sums of each base rho + mu in _base_sums.

    A residual is packed into one int: coordinate i sits in a field of
    `bits` value bits at shift i * (bits + 1), with a guard bit set just
    above it, and the guard bits together make the mask G, so the zero
    residual is G.  Subtracting a root's packed code borrows only inside
    a field whose value is too small, and such a borrow clears that
    field's guard bit, so r - code is a residual iff its guard bits are
    still all set.  That holds while every coordinate of every root and
    of every goal fits in `bits` bits; a goal that does not fit widens
    the fields (at least doubling `bits`) and drops the memo.  The
    dead-state cut is r & dead[k], the value bits of the coordinates
    that none of the first k roots touches.  The memo is one dict per k,
    keyed by the packed residual.
    """

    def __init__(self, roots, simples):
        if not roots:
            raise ValueError("root set must be nonempty")
        self._solver = ConeSolver([s.flat() for s in simples])
        coords = []
        for beta in roots:
            c = self._solver.coordinates(beta.flat())
            if c is None or not any(c):
                raise ValueError(
                    f"root {beta} has no nonnegative integral expansion "
                    "over the simple set"
                )
            coords.append(c)
        self.root_coords = sorted(coords)
        # at least 4 value bits, so that the small goals of the Weyl sum
        # fit from the start
        self._widen(max(4, max(map(max, coords)).bit_length()))
        self._weyl_terms = {}
        self._base_sums = {}
        self._l_polys = {}

    def _widen(self, bits):
        """Lay out fields of `bits` value bits and start an empty memo."""
        self._bits = bits
        roots = self.root_coords
        self._shifts = shifts = [i * (bits + 1) for i in range(len(roots[0]))]
        ones = (1 << bits) - 1
        self._guard = sum(1 << (s + bits) for s in shifts)
        self._codes = [sum(map(lshift, r, shifts)) for r in roots]
        # dead[k]: value bits of the coordinates that none of the first k
        # roots touches
        self._dead = [
            sum(ones << s for i, s in enumerate(shifts) if not any(r[i] for r in roots[:k]))
            for k in range(len(roots) + 1)
        ]
        self._memos = [{} for _ in self._dead]

    def weyl_terms(self, factor, gtype, rho_t, lam):
        """One factor's Weyl orbit of lam + rho_t as the _row_index of
        its terms (x, sign w, check sums, row sums, lam), x = w(lam +
        rho_t), built once per (factor, lam) and read at every mu; gtype
        and rho_t are fixed for one counter.  The sums place x at offset 0
        for factor 0 and at the end of the lattice for factor 1; the join
        shifts them by the sums of rho + mu."""
        key = (factor, lam)
        terms = self._weyl_terms.get(key)
        if terms is not None:
            return terms
        solver = self._solver
        offset = solver.dim - len(lam) if factor else 0
        shifted = tuple(map(add, lam, rho_t))
        orbit = [(act(w, shifted), s) for w, s in signed_weyl(gtype)]
        sums = solver.part_sums([x for x, _ in orbit], offset)
        terms = [(x, s, checks, rows, lam) for (x, s), (checks, rows) in zip(orbit, sums)]
        terms = self._weyl_terms[key] = _row_index([terms] * len(terms[0][3]))
        return terms

    def l_poly_flat(self, flat) -> QPoly:
        poly = self._l_polys.get(flat)
        if poly is None:
            coords = self._solver.coordinates(flat)
            poly = _ZERO if coords is None else QPoly(self._counts(len(self.root_coords), coords))
            self._l_polys[flat] = poly
        return poly

    def _counts(self, k, coords):
        """Counts by multiset size for partitions of `coords` using the
        first k roots, computed with an explicit stack (inputs from the
        Weyl sum can be deep)."""
        need = max(coords).bit_length()
        if need > self._bits:
            self._widen(max(2 * self._bits, need))
        G = self._guard
        goal = G + sum(map(lshift, coords, self._shifts))
        dead = self._dead
        if goal & dead[k]:
            return ()
        memos = self._memos
        hit = memos[k].get(goal)
        if hit is not None:
            return hit
        codes = self._codes
        stack = [(k, goal)]
        while stack:
            kk, r = stack[-1]
            memo = memos[kk]
            if r == G:
                memo[r] = (1,)
                stack.pop()
                continue
            # Every stacked state is live (r is zero on dead[kk]), so a
            # nonzero r has kk >= 1 and its residual is live too: only the
            # skip can die.  A state stacked twice is recomputed from its
            # stored children.
            skip = () if r & dead[kk - 1] else memos[kk - 1].get(r)
            u = r - codes[kk - 1]
            use = memo.get(u) if u & G == G else ()
            if skip is None or use is None:
                if skip is None:
                    stack.append((kk - 1, r))
                if use is None:
                    stack.append((kk, u))
                continue
            stack.pop()
            if not use:
                memo[r] = skip
                continue
            use = (0, *use)
            if len(skip) < len(use):
                skip, use = use, skip
            memo[r] = (*map(add, skip, use), *skip[len(use) :])
        return memos[k][goal]


@lru_cache(maxsize=None)
def _counter(data: OspRootData) -> PartitionCounter:
    return PartitionCounter(odd_positive_roots(data), simple_odd_roots(data))


def l_poly(data: OspRootData, alpha: BiWeight) -> QPoly:
    """Generating polynomial of multiset partitions of alpha into positive
    odd roots, graded by the number of parts.  Zero when alpha is not in
    the cone."""
    return _counter(data).l_poly_flat(alpha.flat())


_kostka_memo = {}


def kostka(data: OspRootData, lam_pair, mu_pair) -> QPoly:
    """Orthosymplectic Kostka polynomial: the alternating Weyl-group sum
    of L at the arguments (w0(lam0+rho0)-rho0-mu0, w1(lam1+rho1)-rho1-mu1).

    The memo is read first: its writers (_kostka_column and
    kostka_memo_import) store only checked dominant pairs within the rank
    guard, so a hit needs no other check than the int rule of
    _check_dominant_pair (a key compares by value, so 3.0 would hit the
    entry of 3); input that fails it goes on to the checks, which raise.
    A miss is a one-label column.
    """
    try:
        (lam0, lam1), (mu0, mu1) = lam_pair, mu_pair
        key = (data.N, tuple(lam0), tuple(lam1), tuple(mu0), tuple(mu1))
        hit = _kostka_memo.get(key)
    except (TypeError, ValueError):  # malformed input: the checks below report it
        hit = None
    if hit is not None and _all_ints(key[1] + key[2] + key[3] + key[4]):
        return hit
    lam = _check_dominant_pair(data, lam_pair, "lambda")
    mu = _check_dominant_pair(data, mu_pair, "mu")
    return _kostka_column(data, [lam], mu)[lam]


def _kostka_column(data: OspRootData, labels, mu):
    """{lam: K_{lam,mu}} in the order of labels, for checked dominant
    pairs: memo hits as they are, and the misses, past the rank guard,
    from one Weyl-sum join, stored under the keys kostka uses."""
    N, (mu0, mu1) = data.N, mu
    column = {lam: _kostka_memo.get((N, *lam, mu0, mu1)) for lam in labels}
    missing = [lam for lam, poly in column.items() if poly is None]
    if not missing:
        return column
    if data.n > KOSTKA_RANK_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: n={data.n} exceeds guard {KOSTKA_RANK_GUARD}"
        )
    polys = _lusztig_kato_sum(
        _counter(data), data.type0, data.rho0, data.type1, data.rho1, missing, mu0, mu1
    )
    for lam in missing:
        column[lam] = _kostka_memo[(N, *lam, mu0, mu1)] = polys[lam]
    return column


def kostka_custom(
    roots,
    simples,
    type0: GroupType,
    type1: GroupType,
    rho_pair,
    lam_pair,
    mu_pair,
) -> QPoly:
    """Kostka polynomial for a user-supplied odd root set, any iterable of
    BiWeight.

    Experimental: the alternating sum is computed verbatim with the given
    roots, simple set, Weyl factors and rho shift; positivity of the
    result is not guaranteed.  The simple list must be linearly
    independent and every root must expand nonnegatively over it.
    """
    ranks = (type0.rank, type1.rank)
    if max(ranks) > KOSTKA_RANK_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: rank {max(ranks)} exceeds guard {KOSTKA_RANK_GUARD}"
        )
    roots, simples = tuple(roots), tuple(simples)
    named = [("lambda", lam_pair), ("mu", mu_pair), ("rho", rho_pair)]
    for what, pair in named + [(f"root {beta}", beta) for beta in roots]:
        _check_ranks(what, pair, ranks)
    # after the counter, which reports an empty or dependent simple set
    counter = PartitionCounter(roots, simples)
    for s in simples:
        _check_ranks(f"simple root {s}", s, ranks)
    lam = tuple(lam_pair[0]), tuple(lam_pair[1])
    mu0, mu1 = tuple(mu_pair[0]), tuple(mu_pair[1])
    rho0, rho1 = tuple(rho_pair[0]), tuple(rho_pair[1])
    return _lusztig_kato_sum(counter, type0, rho0, type1, rho1, [lam], mu0, mu1)[lam]


def _check_ranks(what, pair, ranks):
    """Raise ValueError unless the (eps, delta) parts of pair have lengths ranks."""
    for side, part, rank in zip(("eps", "delta"), pair, ranks):
        if len(part) != rank:
            raise ValueError(
                f"{what} {side} part {tuple(part)} has length {len(part)}, expected {rank}"
            )


def _row_index(row_lists):
    """(row_sums, row_terms) for bisection: row_terms[i] is the terms of
    row_lists[i] sorted by their row-i sum, row_sums[i] those sums."""
    row_terms = [sorted(terms, key=lambda t: t[3][i]) for i, terms in enumerate(row_lists)]
    return [[t[3][i] for t in terms] for i, terms in enumerate(row_terms)], row_terms


def _fewest_at_least(index, floors):
    """The terms of index = _row_index(...) whose row-i sum is at least
    floors[i], on the first row i that keeps the fewest: a suffix of that
    row's sorted list, and a superset of the terms that reach every
    floor."""
    row_sums, row_terms = index
    starts = list(map(bisect_left, row_sums, floors))
    start = max(starts)
    return row_terms[starts.index(start)][start:]


def _lusztig_kato_sum(counter, type0, rho0, type1, rho1, labels, mu0, mu1):
    """{(lam0, lam1): K} for the labels against one mu: the signed sums
    of L(x0 + x1 - base) over W0 x W1, in the one join of the module
    docstring."""
    accs, index = {}, {}  # lam0 -> {lam1: coefficients}; lam1 -> side-1 terms
    for lam0, lam1 in labels:
        accs.setdefault(lam0, {})[lam1] = []
        if lam1 not in index:
            index[lam1] = counter.weyl_terms(1, type1, rho1, lam1)
    if len(index) == 1:
        [side1] = index.values()
    else:
        # each lam1's rows are sorted runs, which the sort merges
        side1 = _row_index(
            [list(chain.from_iterable(rows)) for rows in zip(*(t for _, t in index.values()))]
        )
    base = (*map(add, rho0, mu0), *map(add, rho1, mu1))
    base_sums = counter._base_sums.get(base)
    if base_sums is None:
        [base_sums] = counter._solver.part_sums([base], 0)
        counter._base_sums[base] = base_sums
    base_checks, base_rows = base_sums
    # a side-0 term below floors[i] on row i needs more there than any
    # side-1 term has
    floors = [b - sums[-1] for b, sums in zip(base_rows, side1[0])]
    l_poly_flat = counter.l_poly_flat
    for lam0, by1 in accs.items():
        side0 = counter.weyl_terms(0, type0, rho0, lam0)
        for x0, s0, checks0, raw0, _ in _fewest_at_least(side0, floors):
            # side 1 must reach need on every row and match want on the checks
            need = tuple(map(sub, base_rows, raw0))
            want = tuple(map(sub, base_checks, checks0))
            for x1, s1, checks1, raw1, lam1 in _fewest_at_least(side1, need):
                acc = by1.get(lam1)
                if acc is None or checks1 != want or min(map(sub, raw1, need)) < 0:
                    continue
                part = l_poly_flat(tuple(map(sub, x0 + x1, base))).coeffs
                if len(part) > len(acc):
                    acc.extend([0] * (len(part) - len(acc)))
                s = s0 * s1
                for d, c in enumerate(part):
                    acc[d] += s * c
    return {(lam0, lam1): QPoly(acc) for lam0, by1 in accs.items() for lam1, acc in by1.items()}


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


def kostka_degree(data: OspRootData, lam_pair, mu_pair):
    """The degree of K_{lam,mu}: ht(lam - mu), the sum of the simple
    odd-root coordinates of lam - mu, or None off the dominance cone
    (lam >= mu iff those coordinates exist, and K vanishes otherwise)."""
    coords = simple_root_coordinates(data, BiWeight(*lam_pair) - BiWeight(*mu_pair))
    return None if coords is None else sum(coords)


def kostka_defect(data: OspRootData, lam_pair, mu_pair, poly: QPoly):
    """Why poly cannot be K_{lam,mu}, or None if it can.  K vanishes off
    the dominance cone; on it, K is monic of degree ht(lam - mu)
    (kostka_degree) with only powers of that parity.  On the cone
    ht = 0 exactly when lam = mu, whatever sequence types the pairs use."""
    ht = kostka_degree(data, lam_pair, mu_pair)
    if ht is None:
        return "nonzero off the dominance cone" if poly else None
    if any(c < 0 for c in poly.coeffs):
        return "negative coefficient"
    if not poly:
        return "vanishes on the dominance cone"
    if ht and poly[0] != 0:
        return "nonzero constant term off the diagonal"
    if not ht and poly.coeffs != (1,):
        return "diagonal value is not 1"
    if poly.degree != ht or poly[ht] != 1:
        return "not monic of degree ht(lambda - mu)"
    if any(poly.coeffs[(ht + 1) % 2 :: 2]):
        return "a power of the wrong parity"
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
        if not isinstance(coeffs, list) or not _all_ints(coeffs):
            continue
        try:
            N = int(parts[0])
            lam0, lam1, mu0, mu1 = (
                tuple(int(x) for x in p.split(",")) if p else () for p in parts[2:]
            )
            # before any root data is built, so a corrupt N costs nothing
            if N < 3 or N // 2 > KOSTKA_RANK_GUARD:
                continue
            data = osp_root_data(N)
            # raise unless both pairs are dominant with the ranks of N
            _check_dominant_pair(data, (lam0, lam1), "lambda")
            _check_dominant_pair(data, (mu0, mu1), "mu")
        except ValueError:
            continue
        poly = QPoly(tuple(coeffs))
        if kostka_defect(data, (lam0, lam1), (mu0, mu1), poly):
            continue
        _kostka_memo[(N, lam0, lam1, mu0, mu1)] = poly
