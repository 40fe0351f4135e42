"""Exact characters of irreducible SO(V_0)- and Sp(V_1)-modules.

A character element is a finitely supported integer-valued function on
the weight lattice of one factor (context of length 1) or of the product
of both factors (context of length 2, weights concatenated eps||delta).

Irreducible characters come from exact alternant division: the quotient
A_{lam+rho} / A_rho is computed by highest-term peeling in the group ring
of the lattice, and a nonzero remainder aborts (it would mean corrupted
input, never rounding); the alternants walk the Weyl elements, so no
signed Weyl table is kept for them.  Decomposition of a Weyl-invariant
element goes the other way, by Racah-Speiser reflection: each weight x
is moved by the Weyl element that carries x + rho to the dominant
chamber, and its multiplicity, times the sign of that element, lands on
the label lam = w(x + rho) - rho (weights with x + rho on a wall drop
out).  This goes per block: each distinct second-factor block is
reflected once (on a wall it drops its whole group of weights), and the
first-factor reflections are summed once per W1-orbit of blocks, keyed
by roots.dominant_conjugate (on invariant input the blocks of one orbit
hold the same weights), all through _rho_reflection, the one reflection
memo, which the Euler side shares.  The labels are then checked exactly:
sum c_lam * chi_lam must rebuild the input term for term, so input
whose blocks differ within an orbit fails there.

Every such sum is built by _character_sum.  On the product lattice it
is factored on the second label: the c * chi_lam0 with one lam1 are
summed in the small eps lattice first, so each distinct lam1 costs one
external product, accumulated in one eps-lattice dict per second-factor
weight.  Its inner loop is the only one that accumulates inline, not
through _add_into (a quarter faster there).  It is memoised on the
frozenset of nonzero (labels, coefficient) pairs, for one whole Euler
expansion (degrees 0..8): the Euler tables expand through _outer_sum,
which hands out a fresh copy, and decompose compares its input with the
shared sum, so decomposing a degree the expansion just built builds no
sum again.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import add, itemgetter, mul, sub

from .roots import (
    GroupType,
    SignedPermutation,
    _all_ints,
    _check_integers,
    _dominant_conjugate,
    act,
    dominant_representative,
    is_dominant,
    positive_roots,
    rho,
    sign,
    weyl_elements,
)


class CharElt:
    """Virtual character: finitely supported map weight -> multiplicity."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context  # (GroupType,) or (GroupType, GroupType)
        self.terms = terms

    def __repr__(self):
        return f"CharElt(context={self.context!r}, terms={self.terms!r})"

    def copy(self):
        return CharElt(self.context, dict(self.terms))

    @property
    def is_zero(self):
        return not self.terms

    def dim(self):
        """Sum of the weight multiplicities (graded dimension at q=1)."""
        return sum(self.terms.values())

    def add_scaled(self, other, c: int):
        if self.context != other.context:
            raise ValueError("lattice context mismatch")
        _add_into(self.terms, other.terms.items(), c)
        return self

    def __add__(self, other):
        return self.copy().add_scaled(other, 1)

    def __sub__(self, other):
        return self.copy().add_scaled(other, -1)

    def __eq__(self, other):
        return (
            isinstance(other, CharElt)
            and self.context == other.context
            and self.terms == other.terms
        )


def _add_into(acc: dict, terms, c: int) -> dict:
    """acc += c * terms in the group ring, in place, dropping zeros;
    `terms` is an iterable of (weight, multiplicity) pairs."""
    for w, m in terms:
        new = acc.get(w, 0) + c * m
        if new:
            acc[w] = new
        else:
            acc.pop(w, None)
    return acc


def _convolve(a: dict, b: dict) -> dict:
    """Product of two group-ring elements, accumulated through _add_into."""
    acc = {}
    for w1, m1 in a.items():
        _add_into(acc, ((tuple(map(add, w1, w2)), m2) for w2, m2 in b.items()), m1)
    return acc


def product(a: CharElt, b: CharElt) -> CharElt:
    """Tensor-product character: convolution of supports, same context."""
    if a.context != b.context:
        raise ValueError("lattice context mismatch")
    return CharElt(a.context, _convolve(a.terms, b.terms))


def outer(a: CharElt, b: CharElt) -> CharElt:
    """External product: a character of the product lattice."""
    terms = {}
    for w1, m1 in a.terms.items():
        for w2, m2 in b.terms.items():
            terms[w1 + w2] = m1 * m2
    return CharElt(a.context + b.context, terms)


def _alternant(gtype: GroupType, x) -> dict:
    """A_x = sum of sign(w) e^{w x}."""
    return _add_into({}, ((act(w, x), sign(w)) for w in weyl_elements(gtype)), 1)


def _divide_by_alternant(numer: dict, denom: dict, lead) -> dict:
    """Exact division in the lattice group ring; `lead` is the unique
    lexicographically maximal weight of denom and must carry coefficient 1."""
    if denom.get(lead) != 1:
        raise ValueError(
            f"alternant leading weight {lead} has coefficient {denom.get(lead)}, not 1"
        )
    numer = dict(numer)
    quotient = {}
    while numer:
        top = max(numer)
        c = numer[top]
        qw = tuple(a - b for a, b in zip(top, lead))
        quotient[qw] = quotient.get(qw, 0) + c
        _add_into(numer, ((tuple(map(add, qw, w)), m) for w, m in denom.items()), -c)
    return quotient


def irreducible_character(gtype: GroupType, lam) -> CharElt:
    """Character of the irreducible module with highest weight lam, via
    exact division of alternants.  Returns a fresh copy (CharElt is
    mutable through add_scaled) of a memo that a non-int entry of lam
    does not reach: it raises TypeError first."""
    lam = tuple(lam)
    _check_integers("lambda", lam)
    return _irreducible_character(gtype, lam).copy()


@lru_cache(maxsize=None)
def _irreducible_character(gtype: GroupType, lam) -> CharElt:
    if not is_dominant(gtype, lam):
        raise ValueError(f"{lam} is not {gtype}-dominant")
    rho_t = rho(gtype)
    shifted = tuple(a + b for a, b in zip(lam, rho_t))
    numer = _alternant(gtype, shifted)
    denom = _alternant(gtype, rho_t)
    quotient = _divide_by_alternant(numer, denom, rho_t)
    return CharElt((gtype,), quotient)


def _outer_sum(context, coeffs) -> dict:
    """Terms of sum c * chi_parts over coeffs = {parts: c}, with one label
    per factor of context in parts; zero coefficients are skipped.  A
    fresh dict, copied from the _character_sum memo."""
    return dict(_character_sum(context, frozenset(filter(itemgetter(1), coeffs.items()))))


# one whole Euler expansion: degrees 0..8, the largest qmax euler admits
@lru_cache(maxsize=9)
def _character_sum(context, key) -> dict:
    """Terms of sum c * chi_parts over key, a frozenset of the nonzero
    (parts, c); memoised, and shared: no caller may mutate the dict.  The
    c * chi_lam0 are summed per lam1 first.  Then, for each distinct lam1
    and each weight w1 of chi_lam1, m1 times that sum is added into one
    eps-lattice dict per w1, so the inner loop keys on w0 alone; the
    weights w0||w1 are concatenated once, at the end, dropping zeros.
    The first write of each per-lam1 and per-w1 dict is a copy (scaled
    unless the factor is 1), never a cached character's dict or a shared
    per-lam1 sum; only later writes accumulate."""
    t0 = context[0]
    by_tail = {}
    for parts, c in key:
        terms = _irreducible_character(t0, parts[0]).terms
        acc = by_tail.get(parts[1:])
        if acc is None:
            by_tail[parts[1:]] = (
                dict(terms) if c == 1 else {w: c * m for w, m in terms.items()}
            )
        else:
            _add_into(acc, terms.items(), c)
    if len(context) == 1:
        return by_tail.get((), {})
    by_w1 = {}
    for (lam1,), inner in by_tail.items():
        for w1, m1 in _irreducible_character(context[1], lam1).terms.items():
            acc = by_w1.get(w1)
            if acc is None:
                by_w1[w1] = dict(inner) if m1 == 1 else {w0: m0 * m1 for w0, m0 in inner.items()}
                continue
            for w0, m0 in inner.items():
                acc[w0] = acc.get(w0, 0) + m0 * m1
    return {w0 + w1: m for w1, acc in by_w1.items() for w0, m in acc.items() if m}


def dual_label(gtype: GroupType, lam):
    """Highest weight of the dual module: identity for type C and for D
    with even rank; negate the last coordinate for D with odd rank (so
    the rank-1 torus gives -lam).  Memoised; a non-int entry raises
    TypeError before the memo is read."""
    lam = tuple(lam)
    _check_integers("label", lam)
    return _dual_label(gtype, lam)


@lru_cache(maxsize=None)
def _dual_label(gtype: GroupType, lam):
    if not is_dominant(gtype, lam):
        raise ValueError(f"{lam} is not {gtype}-dominant")
    if gtype.family == "C" or gtype.rank % 2 == 0:
        return lam
    return lam[:-1] + (-lam[-1],)


def _generators(gtype: GroupType):
    """A generating set of the Weyl group (adjacent transpositions plus
    the family's sign-change generator)."""
    n = gtype.rank
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPermutation(tuple(perm), (1,) * n))
    ident = tuple(range(n))
    if gtype.family == "C":
        signs = [1] * n
        signs[-1] = -1
        gens.append(SignedPermutation(ident, tuple(signs)))
    elif n >= 2:
        signs = [1] * n
        signs[-1] = -1
        signs[-2] = -1
        gens.append(SignedPermutation(ident, tuple(signs)))
    return gens


def is_weyl_invariant(ch: CharElt) -> bool:
    hi = 0
    for gtype in ch.context:
        lo, hi = hi, hi + gtype.rank
        for g in _generators(gtype):
            for w, m in ch.terms.items():
                moved = w[:lo] + act(g, w[lo:hi]) + w[hi:]
                if ch.terms.get(moved, 0) != m:
                    return False
    return True


@lru_cache(maxsize=None)
def _rho_reflection(gtype: GroupType, x):
    """(sign w, lam) with w(x + rho) = lam + rho strictly dominant, or None
    when x + rho lies on a wall: the one reflection memo, keyed by what it
    reads (rho is read on a miss)."""
    rho_t = rho(gtype)
    rep = dominant_representative(gtype, tuple(map(add, x, rho_t)))
    if rep is None:
        return None
    s, dom = rep
    return s, tuple(map(sub, dom, rho_t))


def decompose(ch: CharElt) -> dict:
    """Decompose a Weyl-invariant virtual character into irreducibles.

    Returns {label: multiplicity} with label a weight for a single factor
    and a (weight, weight) pair for the product lattice.

    Racah-Speiser: for invariant ch, the coefficient of e^{lam+rho} in
    ch * A_rho is the sum of sign(w) * ch[x] over the weights x with
    w(x + rho) = lam + rho, factor by factor; so blocks are reflected
    instead of multiplying by A_rho.  The weights are grouped by their
    second-factor block x1, and each block is reflected once (on a wall
    it drops its whole group).  The first-factor reflections, {lam0:
    sum sign * m}, are summed once per W1-orbit of blocks (keyed by
    roots.dominant_conjugate), as on invariant ch the blocks of an orbit
    hold the same weights; each block adds them with its own sign and lam1.
    The labels are checked exactly: sum c_lam * chi_lam, read from the
    _character_sum memo (so a degree _outer_sum just expanded is not
    built again), must equal ch term for term; a weight of multiplicity
    zero in ch counts as absent.  The rebuild is Weyl-invariant, so
    equality implies that ch is invariant, and then the per-orbit sums
    are the per-block ones; input whose blocks differ within an orbit
    fails the comparison.  Invariance is tested only on a mismatch, to
    tell non-invariant input from an internal error.  A non-int entry
    that would reach a memo (a block, a first-factor part that is
    reflected, a sum of multiplicities) raises TypeError before it does.

    The rebuild reads chi_lam from the cache of alternant divisions.
    Cold, those divisions dominate from rank 4 on (a cold C_5 decompose
    of chi_w1 chi_w1 chi_w2 takes 12 to 16 s of CPU time on a 2-CPU
    shared host, Python 3.11.7, by the host's speed phase), and
    non-invariant input pays them for spurious labels before the
    invariance test.
    """
    if ch.is_zero:
        return {}
    context = ch.context
    t0 = context[0]
    r = t0.rank
    # one group per second-factor block; on one factor, one group keyed ()
    terms = ch.terms
    groups = defaultdict(list)
    for w in terms:
        groups[w[r:]].append(w)
    # the int rule on what reaches a memo: the distinct blocks here, the
    # weights of each reflected group and the coefficient sums
    _check_integers("character", [*chain.from_iterable(groups)])
    coeffs = {}
    by_orbit = {}
    for x1, group in groups.items():
        if len(context) == 1:
            s1, tail, orbit = 1, (), ()
        else:
            rep1 = _rho_reflection(context[1], x1)
            if rep1 is None:
                continue
            s1, tail = rep1[0], (rep1[1],)
            orbit = _dominant_conjugate(context[1], x1)
        sums = by_orbit.get(orbit)
        if sums is None:
            if not _all_ints(chain.from_iterable(group)):
                _check_integers("character", [*chain.from_iterable(group)])
            sums = by_orbit[orbit] = {}
            for w in group:
                rep0 = _rho_reflection(t0, w[:r])
                if rep0:
                    sums[rep0[1]] = sums.get(rep0[1], 0) + rep0[0] * terms[w]
        for lam0, c in sums.items():
            parts = (lam0,) + tail
            coeffs[parts] = coeffs.get(parts, 0) + s1 * c
    _check_integers("character", [*coeffs.values()])
    rebuilt = _character_sum(context, frozenset(filter(itemgetter(1), coeffs.items())))
    # a zero multiplicity in ch is no weight
    if rebuilt != ch.terms and rebuilt != {w: m for w, m in ch.terms.items() if m}:
        if not is_weyl_invariant(ch):
            raise ValueError("character is not Weyl-invariant")
        raise ValueError("internal error: alternant reconstruction mismatch")
    if len(context) == 1:
        coeffs = {parts[0]: c for parts, c in coeffs.items()}
    return {label: c for label, c in sorted(coeffs.items()) if c}


def weyl_dimension(gtype: GroupType, lam) -> int:
    """Weyl dimension formula with the coordinate dot product, in integers:
    the product of the numerators over that of the (positive) denominators."""
    lam = tuple(lam)
    if not is_dominant(gtype, lam):
        raise ValueError(f"{lam} is not {gtype}-dominant")
    rho_t = rho(gtype)
    shifted = tuple(a + b for a, b in zip(lam, rho_t))
    num = den = 1
    for alpha in positive_roots(gtype):
        num *= sum(map(mul, shifted, alpha))
        den *= sum(map(mul, rho_t, alpha))
    value, rem = divmod(num, den)
    if rem:
        g = gcd(num, den)
        raise ArithmeticError(
            f"Weyl dimension of {lam} for {gtype} is not an integer: {num // g}/{den // g}"
        )
    return value
