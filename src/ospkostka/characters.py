"""Exact characters of irreducible SO(V_0)- and Sp(V_1)-modules.

A character element is a finitely supported integer-valued function on
the weight lattice of one factor (context of length 1) or of the product
of both factors (context of length 2, weights concatenated eps||delta).

Irreducible characters come from exact alternant division: the quotient
A_{lam+rho} / A_rho is computed by highest-term peeling in the group ring
of the lattice, and a nonzero remainder aborts (it would mean corrupted
input, never rounding).  Decomposition of a Weyl-invariant element goes
the other way: multiply by A_rho and read off coefficients at strictly
dominant translates of rho.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .roots import (
    GroupType,
    SignedPermutation,
    act,
    is_dominant,
    positive_roots,
    rho,
    sign,
    weyl_elements,
)


@dataclass
class CharElt:
    """Virtual character: finitely supported map weight -> multiplicity."""

    context: tuple  # (GroupType,) or (GroupType, GroupType)
    terms: dict

    def copy(self):
        return CharElt(self.context, dict(self.terms))

    @property
    def is_zero(self):
        return not self.terms

    def dim(self):
        """Sum of the weight multiplicities (graded dimension at q=1)."""
        return sum(self.terms.values())

    def mult(self, weight):
        return self.terms.get(tuple(weight), 0)

    def add_scaled(self, other, c: int):
        if self.context != other.context:
            raise ValueError("lattice context mismatch")
        for w, m in other.terms.items():
            new = self.terms.get(w, 0) + c * m
            if new:
                self.terms[w] = new
            else:
                self.terms.pop(w, None)
        return self

    def scaled(self, c: int):
        if c == 0:
            return CharElt(self.context, {})
        return CharElt(self.context, {w: c * m for w, m in self.terms.items()})

    def negated_weights(self):
        """The dual virtual character (every weight negated)."""
        return CharElt(
            self.context,
            {tuple(-x for x in w): m for w, m in self.terms.items()},
        )

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

    def sorted_items(self):
        return sorted(self.terms.items())


def zero_char(context) -> CharElt:
    return CharElt(tuple(context), {})


def trivial_char(context) -> CharElt:
    context = tuple(context)
    width = sum(t.rank for t in context)
    return CharElt(context, {(0,) * width: 1})


def product(a: CharElt, b: CharElt) -> CharElt:
    """Tensor-product character: convolution of supports, same context."""
    if a.context != b.context:
        raise ValueError("lattice context mismatch")
    terms = {}
    for w1, m1 in a.terms.items():
        for w2, m2 in b.terms.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            new = terms.get(w, 0) + m1 * m2
            if new:
                terms[w] = new
            else:
                terms.pop(w, None)
    return CharElt(a.context, terms)


def outer(a: CharElt, b: CharElt) -> CharElt:
    """External product: a character of the product lattice."""
    terms = {}
    for w1, m1 in a.terms.items():
        for w2, m2 in b.terms.items():
            terms[w1 + w2] = m1 * m2
    return CharElt(a.context + b.context, terms)


def _alternant(gtype: GroupType, x) -> dict:
    acc = {}
    for w in weyl_elements(gtype):
        wx = act(w, x)
        s = sign(w)
        new = acc.get(wx, 0) + s
        if new:
            acc[wx] = new
        else:
            acc.pop(wx, None)
    return acc


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
        for t, ct in denom.items():
            w = tuple(a + b for a, b in zip(qw, t))
            new = numer.get(w, 0) - c * ct
            if new:
                numer[w] = new
            else:
                numer.pop(w, None)
    return quotient


def irreducible_character(gtype: GroupType, lam) -> CharElt:
    """Character of the irreducible module with highest weight lam, via
    exact division of alternants.  Returns a fresh copy (CharElt is
    mutable through add_scaled)."""
    return _irreducible_character(gtype, tuple(lam)).copy()


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


def irreducible_pair_character(type0, lam0, type1, lam1) -> CharElt:
    return outer(
        irreducible_character(type0, tuple(lam0)),
        irreducible_character(type1, tuple(lam1)),
    )


def dual_label(gtype: GroupType, lam):
    """Highest weight of the dual module: identity for type C and for D
    with even rank; negate the last coordinate for D with odd rank (so
    the rank-1 torus gives -lam)."""
    lam = tuple(lam)
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
    offsets = []
    start = 0
    for t in ch.context:
        offsets.append((start, start + t.rank))
        start += t.rank
    for (lo, hi), gtype in zip(offsets, ch.context):
        for g in _generators(gtype):
            for w, m in ch.terms.items():
                moved = w[:lo] + act(g, w[lo:hi]) + w[hi:]
                if ch.terms.get(moved, 0) != m:
                    return False
    return True


def _strictly_dominant(gtype: GroupType, x) -> bool:
    n = gtype.rank
    if gtype.family == "C":
        return all(x[i] > x[i + 1] for i in range(n - 1)) and x[-1] > 0
    if n == 1:
        return True
    return all(x[i] > x[i + 1] for i in range(n - 2)) and x[n - 2] > abs(x[n - 1])


def decompose(ch: CharElt) -> dict:
    """Decompose a Weyl-invariant virtual character into irreducibles.

    Returns {label: multiplicity} with label a weight for a single factor
    and a (weight, weight) pair for the product lattice.  Multiplies by
    A_rho, reads coefficients at strictly dominant weights, and checks the
    reconstruction exactly.
    """
    if ch.is_zero:
        return {}
    if not is_weyl_invariant(ch):
        raise ValueError("character is not Weyl-invariant")
    context = ch.context
    rhos = [rho(t) for t in context]
    alternants = [_alternant(t, r) for t, r in zip(context, rhos)]
    a_rho = alternants[0]
    if len(context) == 2:
        a_rho = {
            w0 + w1: c0 * c1
            for w0, c0 in alternants[0].items()
            for w1, c1 in alternants[1].items()
        }
    prod = {}
    for w, m in ch.terms.items():
        for t, ct in a_rho.items():
            key = tuple(a + b for a, b in zip(w, t))
            new = prod.get(key, 0) + m * ct
            if new:
                prod[key] = new
            else:
                prod.pop(key, None)
    rho_cat = sum(rhos, ())
    result = {}
    reconstruction = {}
    for w, c in prod.items():
        parts = []
        start = 0
        ok = True
        for t in context:
            block = w[start : start + t.rank]
            start += t.rank
            if not _strictly_dominant(t, block):
                ok = False
                break
            parts.append(block)
        if not ok:
            continue
        lam_cat = tuple(a - b for a, b in zip(w, rho_cat))
        if len(context) == 1:
            label = lam_cat
        else:
            r0 = context[0].rank
            label = (lam_cat[:r0], lam_cat[r0:])
        result[label] = c
        # rebuild c * A_{lam+rho}; parts already carry the rho shift
        blocks = [_alternant(t, part) for t, part in zip(context, parts)]
        combined = blocks[0]
        if len(blocks) == 2:
            combined = {
                w0 + w1: c0 * c1
                for w0, c0 in blocks[0].items()
                for w1, c1 in blocks[1].items()
            }
        for t, ct in combined.items():
            new = reconstruction.get(t, 0) + c * ct
            if new:
                reconstruction[t] = new
            else:
                reconstruction.pop(t, None)
    if reconstruction != prod:
        raise ValueError("internal error: alternant reconstruction mismatch")
    return {label: c for label, c in sorted(result.items()) if c}


def weyl_dimension(gtype: GroupType, lam) -> int:
    """Weyl dimension formula, evaluated in exact rational arithmetic with
    the coordinate dot product (normalizations cancel in the ratio)."""
    lam = tuple(lam)
    if not is_dominant(gtype, lam):
        raise ValueError(f"{lam} is not {gtype}-dominant")
    rho_t = rho(gtype)
    shifted = tuple(a + b for a, b in zip(lam, rho_t))
    value = Fraction(1)
    for alpha in positive_roots(gtype):
        num = sum(a * b for a, b in zip(shifted, alpha))
        den = sum(a * b for a, b in zip(rho_t, alpha))
        value *= Fraction(num, den)
    if value.denominator != 1:
        raise ArithmeticError(
            f"Weyl dimension of {lam} for {gtype} is not an integer: {value}"
        )
    return int(value)
