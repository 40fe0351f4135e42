"""Orbit bookkeeping for SO(N-1,O) acting on the affine Grassmannian of
SO_N: labels by pairs of dominant coweights, the closure order, orbit
dimensions, IC-stalk Poincare tables, lattice representatives, stabilizer
reductive quotients, and the ambient GL adjacency order on bisignatures.

Label conventions (always (lam_s, lam_b) with s the smaller group):

* odd N = 2n+1: lam_s is a D_n-dominant coweight of SO_{2n}, lam_b a
  length-n partition (coweight of SO_{2n+1});
* even N = 2n:  lam_s is a length-(n-1) partition (coweight of
  SO_{2n-1}), lam_b a D_n-dominant coweight of SO_{2n}.

The dominance order of the odd root system compares the pair written in
(eps side, delta side) order, which is (lam_s, lam_b) for odd N and
(lam_b, lam_s) for even N.  One involution, `_swap_sides`, converts
between the two orders, and it is the only place that tells odd N from
even N: the label types, the (eps, delta) pair, the signature embedding
and the theta signature are all read off from it.

Each public function that reads a label checks it once, on entry (`validate_label`,
or `order_pair`, which also repackages the label), and works on the
checked values from there: `closure_le` and `stalk_poincare` read the
order through `oddroots._pair_ge`, the one two-share test that
`dominance_ge` also runs after its own checks, so the order is stated
once, in `oddroots`.
"""

from collections import Counter, namedtuple
from functools import lru_cache

# kept bound, as in euler, for the benchmark tracer (see stalk_poincare)
from .kostka import _kostka_column, kostka
from .oddroots import OspRootData, _pair_ge, interleave, prefix_sums_ge
from .roots import _check_integers, dominant_weights, is_dominant


class OrbitLabel(namedtuple("OrbitLabel", "lam_s lam_b")):
    __slots__ = ()

    def __str__(self):
        return ",".join(map(str, self.lam_s)) + ";" + ",".join(map(str, self.lam_b))


class SignatureSeq(namedtuple("SignatureSeq", "entries inverted", defaults=(False,))):
    """Weakly decreasing integer sequence, except that `inverted` marks
    the one allowed non-signature pattern (..., -m, m, ...) used when a
    D-type coweight has negative last coordinate."""

    __slots__ = ()

    def sorted_signature(self):
        return tuple(sorted(self.entries, reverse=True))


class LatticeRow(namedtuple("LatticeRow", "terms")):
    """One O-module generator: a sum of t^{exp} e_{index} terms; `terms`
    is ((index, exponent), ...) with 1-based basis indices."""

    __slots__ = ()

    def __str__(self):
        def monomial(idx, e):
            if e == 0:
                return f"e{idx}"
            return f"t^{{{e}}} e{idx}"

        return " + ".join(monomial(i, e) for i, e in self.terms)


class LatticeModel(namedtuple("LatticeModel", "rows")):
    __slots__ = ()

    def __str__(self):
        return "\n".join(str(r) for r in self.rows)


class StabilizerData(namedtuple("StabilizerData", "alpha beta n_mult m_mult reductive")):
    __slots__ = ()


def _swap_sides(data: OspRootData, pair):
    """(SO_{N-1} side, SO_N side) <-> (eps side, delta side): the identity
    for odd N, the swap for even N.  It is its own inverse."""
    first, second = pair
    return (first, second) if data.parity == "odd" else (second, first)


def _label_types(data: OspRootData):
    """(type of lam_s, type of lam_b): D for the eps side, C for delta."""
    return _swap_sides(data, (data.type0, data.type1))


def validate_label(data: OspRootData, o: OrbitLabel):
    _check_integers("orbit label", (*o.lam_s, *o.lam_b))
    type_s, type_b = _label_types(data)
    if len(o.lam_s) != type_s.rank or not is_dominant(type_s, o.lam_s):
        raise ValueError(f"lam_s {o.lam_s} is not a dominant {type_s} coweight")
    if len(o.lam_b) != type_b.rank or not is_dominant(type_b, o.lam_b):
        raise ValueError(f"lam_b {o.lam_b} is not a dominant {type_b} coweight")


def order_pair(data: OspRootData, o: OrbitLabel):
    """Repackage a label as the (eps, delta) pair the dominance order and
    the Kostka polynomial expect."""
    validate_label(data, o)
    return _swap_sides(data, (o.lam_s, o.lam_b))


def _two_rho_so(M: int):
    """Coordinates of 2*rho for SO_M on its coweight lattice."""
    m = M // 2
    if M % 2 == 1:
        return tuple(range(2 * m - 1, 0, -2))
    return tuple(range(2 * m - 2, -2, -2))


def orbit_dim(data: OspRootData, o: OrbitLabel) -> int:
    """Dimension of the orbit: <lam_s, 2 rho_{SO_{N-1}}> + <lam_b, 2 rho_{SO_N}>.

    The convolution of the two spherical Schubert varieties maps
    birationally onto the orbit closure, so the dimensions add.  The last
    D-coordinate pairs with 0, making the sign of that entry irrelevant.
    """
    validate_label(data, o)
    return _label_dim(data, o)


@lru_cache(maxsize=None)
def _two_rhos(N: int):
    """(2 rho of SO_{N-1}, 2 rho of SO_N), the weights of orbit_dim."""
    return _two_rho_so(N - 1), _two_rho_so(N)


def _label_dim(data: OspRootData, o: OrbitLabel) -> int:
    """orbit_dim of a checked label."""
    rho_s, rho_b = _two_rhos(data.N)
    return sum(a * b for a, b in zip(o.lam_s, rho_s)) + sum(
        a * b for a, b in zip(o.lam_b, rho_b)
    )


def closure_le(data: OspRootData, o1: OrbitLabel, o2: OrbitLabel) -> bool:
    """Whether the orbit of o1 lies in the closure of the orbit of o2."""
    return _pair_ge(data, order_pair(data, o2), order_pair(data, o1))


def stalk_poincare(data: OspRootData, lam: OrbitLabel, mu: OrbitLabel):
    """IC-stalk Poincare data of the lam-orbit sheaf at the mu-orbit:
    entries (-(dim O_mu + d), K[d]) for each nonzero Kostka coefficient.

    K is read from the one-label Kostka column of the checked pairs, past
    kostka's memo probe and its second check of both pairs; the column
    raises the rank guard on a memo miss, after the label and closure
    errors here, as kostka would.  orbits.kostka is not called but stays
    bound: the benchmark tracer's self-test wraps it."""
    lam_pair = tuple(map(tuple, order_pair(data, lam)))
    mu_pair = tuple(map(tuple, order_pair(data, mu)))
    if not _pair_ge(data, lam_pair, mu_pair):
        raise ValueError("orbit not in closure")
    poly = _kostka_column(data, [lam_pair], mu_pair)[lam_pair]
    base = _label_dim(data, mu)
    return tuple(
        (-(base + d), c) for d, c in enumerate(poly.coeffs) if c
    )


def _symmetrized(seq, inner_zero: bool):
    """(a_1..a_k, -a_k..-a_1), with a central 0 when inner_zero is set."""
    head = tuple(seq)
    tail = tuple(-x for x in reversed(head))
    return head + ((0,) + tail if inner_zero else tail)


def embed_signatures(data: OspRootData, o: OrbitLabel):
    """Symmetric sequences (mu of length N-1, nu of length N) realizing
    the orbit as a pair of lattices.  The partition-type coweight gets a
    central zero; the D-type coweight is reflected without one, and when
    its last coordinate is negative the middle pair comes out inverted
    (flagged, still a valid representative)."""
    validate_label(data, o)
    # a partition never ends negative, so only the D-type half can invert
    return tuple(
        SignatureSeq(_symmetrized(lam, t.family == "C"), lam[-1] < 0)
        for t, lam in zip(_label_types(data), (o.lam_s, o.lam_b))
    )


def _expect_lengths(data: OspRootData, mu: SignatureSeq, nu: SignatureSeq):
    if len(mu.entries) != data.N - 1:
        raise ValueError(f"mu must have length N-1={data.N - 1}")
    if len(nu.entries) != data.N:
        raise ValueError(f"nu must have length N={data.N}")


def shuffled_alpha_beta(data: OspRootData, mu: SignatureSeq, nu: SignatureSeq):
    """Stabilizer data of the orbit representative.

    alpha interleaves the sorted nu and mu sequences (nu first), beta
    takes sums of consecutive alpha entries, n_i counts occurrences of i
    in beta, m_i = floor(n_i/2), and the reductive quotient of the
    stabilizer is SO_{m_0} x prod_{i>0} GL_{m_i}.
    """
    _expect_lengths(data, mu, nu)
    alpha = interleave(nu.sorted_signature(), mu.sorted_signature())
    beta = tuple(alpha[k] + alpha[k + 1] for k in range(2 * data.N - 2))
    counts = Counter(beta)
    n_mult = dict(sorted(counts.items()))
    m_mult = {i: c // 2 for i, c in n_mult.items()}
    factors = []
    m0 = m_mult.get(0, 0)
    if m0:
        factors.append(f"SO_{m0}")
    for i in sorted(k for k in m_mult if k > 0):
        if m_mult[i]:
            factors.append(f"GL_{m_mult[i]}")
    reductive = " x ".join(factors) if factors else "trivial"
    return StabilizerData(tuple(alpha), beta, n_mult, m_mult, reductive)


def theta_signature(data: OspRootData, mu: SignatureSeq, nu: SignatureSeq) -> SignatureSeq:
    """Signature of the ambient GL(N,F)-orbit of the representative pair."""
    _expect_lengths(data, mu, nu)
    n = data.n
    d_side, c_side = _swap_sides(data, (mu.entries, nu.entries))
    head = [mu.entries[k] + nu.entries[k] for k in range(n - 1)]
    head.append(abs(d_side[n - 1]) + c_side[n - 1])
    # length N, with a central zero exactly when nu is the C-type half
    return SignatureSeq(_symmetrized(head, _label_types(data)[1].family == "C"), False)


def lattice_representative(mu: SignatureSeq, nu: SignatureSeq) -> LatticeModel:
    """Lattice with generators t^{-mu_i-nu_i} e_i + t^{-nu_i} e_N for
    i < N and t^{-nu_N} e_N."""
    N = len(nu.entries)
    if len(mu.entries) != N - 1:
        raise ValueError("mu must be one entry shorter than nu")
    rows = []
    for i in range(N - 1):
        rows.append(
            LatticeRow(((i + 1, -mu.entries[i] - nu.entries[i]), (N, -nu.entries[i])))
        )
    rows.append(LatticeRow(((N, -nu.entries[N - 1]),)))
    return LatticeModel(tuple(rows))


def gl_bisignature_ge(theta_pair, zeta_pair) -> bool:
    """Adjacency order on GL bisignatures (theta0 of length N-1, theta1 of
    length N): the 2N-2 partial sums of the interleaved sequence weakly
    dominate and the totals agree."""
    theta0, theta1 = _checked_bisignature(theta_pair)
    zeta0, zeta1 = _checked_bisignature(zeta_pair)
    if len(theta0) != len(zeta0) or len(theta1) != len(zeta1):
        raise ValueError("bisignature length mismatch")
    inter_t = interleave(theta1, theta0)
    inter_z = interleave(zeta1, zeta0)
    return prefix_sums_ge(inter_t, inter_z) and sum(inter_t) == sum(inter_z)


def _checked_bisignature(pair):
    first, second = tuple(pair[0]), tuple(pair[1])
    if len(second) != len(first) + 1:
        raise ValueError("bisignature parts must have lengths (N-1, N)")
    for seq in (first, second):
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"{seq} is not weakly decreasing")
    return first, second


def label_bisignature(data: OspRootData, o: OrbitLabel):
    """Bisignature of the ambient GL(N-1,O)-orbit through the
    representative of o (depends only on absolute values on the D side)."""
    mu, nu = embed_signatures(data, o)
    return (mu.sorted_signature(), nu.sorted_signature())


def orbit_labels_in_box(data: OspRootData, bound: int):
    """All orbit labels with coweight entries bounded by `bound` in
    absolute value, in deterministic order."""
    type_s, type_b = _label_types(data)
    return [
        OrbitLabel(lam_s, lam_b)
        for lam_s in dominant_weights(type_s, bound)
        for lam_b in dominant_weights(type_b, bound)
    ]
