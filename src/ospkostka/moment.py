"""Exact verification of the quadratic moment-map identities.

V_0 carries the standard symmetric form in an orthonormal basis (Gram =
identity, so so(V_0) is the usual skew matrices and the Pfaffian is the
classical one); V_1 carries the standard symplectic form with Gram
J = [[0, I], [-I, 0]].  The adjoint of X: V_a -> V_b is
X^t = G_a^{-1} X^T G_b, i.e. (v, X^t w)_a = (X v, w)_b, and the double
adjoint of a map out of V_0 is -X because exactly one Gram is skew.

The matrix kernels (`mat_mul`, `adjoint`, `q0`, `q1`, the Berkowitz
`char_poly`) never divide: on int matrices they return ints, on Fraction
matrices Fractions.  `q0` and `q1` read -J A straight off A's rows and
take dot products of its columns or rows with A's, with no adjoint
matrix and no `mat_mul`.  `row_reduce` is fraction-free Bareiss
elimination on integers, shared with `oddroots.ConeSolver` and the Cayley
transform that draws the group elements; its rows drop each column once
the column is cleared.  `mat_inverse` clears denominators, calls it and
divides once.  `pfaffian` is the same elimination on the skew form, so
its divisions are exact too.  Both read `roots._all_ints`, the integer
rule and the module's one import from the package.

The battery draws integer matrices, and each group element g as (d, G)
with g = G / d.  Every identity is polynomial and homogeneous, so an
integer draw tests it exactly as a rational one would.  `random_hom`
reads 5-bit words from getrandbits and keeps those below 19, word for
word the `_randbelow(19)` draw of randint(-9, 9).  The two group draws
share one loop, `_draw_form` (a skew matrix for SO(V_0), a symmetric one
for Sp(V_1)), which uses randrange(7) - 3, the `_randbelow(7)` draw of
randint(-3, 3), and one transform, `_cayley`, which reads G straight off
the elimination E (I + S) = d I as 2 E - d I, with no matrix product.  So
a seed gives the same matrices and the same (d, G) as it always did.

One trial computes M0 = q0(A) once and hands it, as the keyword M0, to the
characteristic-polynomial check and to the Pfaffian (even N) or generator
(odd N) check; called as (spec, A) alone, each `verify_*` computes q0
itself.  `FormsSpec` stores parity, dim0 and dim1 when it is built.
"""

import random
from collections import namedtuple
from itertools import chain
from math import lcm
from operator import mul

from .roots import _all_ints


class FormsSpec(namedtuple("FormsSpec", "N parity dim0 dim1")):
    """The pair of forms at one N, built from N alone: dim0 = 2 floor(N/2),
    and dim1 = dim0 at odd N, dim0 - 2 at even N.  The derived fields are
    stored once here, so the battery reads them as tuple slots."""

    __slots__ = ()

    def __new__(cls, N):
        if N < 3:
            raise ValueError("N must be >= 3")
        dim0 = 2 * (N // 2)
        if N % 2 == 1:
            return tuple.__new__(cls, (N, "odd", dim0, dim0))
        return tuple.__new__(cls, (N, "even", dim0, dim0 - 2))

    def __getnewargs__(self):
        return (self.N,)

    def __repr__(self):
        return f"FormsSpec(N={self.N})"

    def gram1(self):
        m = self.dim1 // 2
        J = zeros(self.dim1, self.dim1)
        for i in range(m):
            J[i][m + i] = 1
            J[m + i][i] = -1
        return J


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def mat_mul(a, b):
    rows, inner = len(a), len(b)
    if not a or not b or any(map(inner.__ne__, map(len, a))):
        raise ValueError(
            f"cannot multiply a {rows}x{len(a[0]) if a else 0} matrix"
            f" by a {inner}x{len(b[0]) if b else 0} matrix"
        )
    cols = list(zip(*b, strict=True))
    return [[sum(map(mul, ai, col)) for col in cols] for ai in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def clear_denominators(a):
    """(d, d a) with d the lcm of the denominators of a's entries and d a
    as an int matrix.  Ints have denominator 1, so d = 1 on int input."""
    d = lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def row_reduce(a):
    """Fraction-free Gauss-Jordan (Bareiss) on [a | I] for an r x k integer
    matrix a: returns (d, E) with d > 0 and E an integer r x r matrix such
    that E a = d [I; 0], or None when the columns of a are linearly
    dependent.  The first k rows of E / d are a left inverse of a; the other
    r - k rows vanish exactly on the column space of a.  Each step divides
    by the previous pivot, and that division is exact because every entry
    is a minor of [a | I] (Bareiss 1968).

    A step leaves its column as the pivot on the diagonal and 0 elsewhere,
    and a later step only turns that diagonal entry into the later pivot,
    so the rows drop each column once it is cleared: step col reads and
    rewrites columns col + 1 onwards alone.

    The floor divisions are exact on integers only, so any other entry
    (a bool or a Fraction too) raises TypeError, and rows of different
    lengths raise ValueError, before any step."""
    rows, cols = len(a), len(a[0]) if a else 0
    if any(map(cols.__ne__, map(len, a))):
        raise ValueError("matrix rows differ in length")
    if not _all_ints(chain.from_iterable(a)):
        bad = next(x for row in a for x in row if type(x) is not int)
        raise TypeError(f"row_reduce needs an integer matrix, got {bad!r}")
    work = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    prev = 1
    for col in range(cols):
        # work[i][0] is column col of row i
        piv = next((i for i in range(col, rows) if work[i][0]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        p, *top = work[col]
        work[col] = top
        for i, row in enumerate(work):
            if i != col:
                f = row[0]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in row] for row in work]


def mat_inverse(a):
    from fractions import Fraction  # kept off the package's import path
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix is not square")
    scale, ints = clear_denominators(a)
    reduced = row_reduce(ints)
    if reduced is None:
        raise ValueError("matrix is singular")
    d, E = reduced
    # E (scale a) = d I
    return [[Fraction(x * scale, d) for x in row] for row in E]


def _minus_j(X):
    """-J X = J^{-1} X, with J applied as an index map on the rows of X."""
    m = len(X) // 2
    return [[-x for x in row] for row in X[m:]] + [list(row) for row in X[:m]]


def adjoint(spec: FormsSpec, A, source: int = 0):
    """Adjoint with respect to the two forms.  source=0 treats A as a map
    V_0 -> V_1 (a dim1 x dim0 matrix) and returns the dim0 x dim1 adjoint;
    source=1 goes the other way.  Every row's length is checked."""
    if source == 0:
        _check_hom(spec, A)
        # G0 = identity, so G0^{-1} A^T J = A^T J = (-J A)^T
        return mat_transpose(_minus_j(A))
    if len(A) != spec.dim0 or any(map(spec.dim1.__ne__, map(len, A))):
        raise ValueError("expected a dim0 x dim1 matrix")
    return _minus_j(mat_transpose(A))


def _check_hom(spec: FormsSpec, A):
    """Raise unless A is a dim1 x dim0 matrix, row by row."""
    if len(A) != spec.dim1 or any(map(spec.dim0.__ne__, map(len, A))):
        raise ValueError("expected a dim1 x dim0 matrix")


def q0(spec: FormsSpec, A):
    """Moment map to so(V_0): A -> A^t A (skew-symmetric).  A^t = (-J A)^T,
    so entry (i, j) is column i of -J A against column j of A; every entry
    is computed, the skew half too."""
    _check_hom(spec, A)
    cols = list(zip(*A))
    return [[sum(map(mul, u, c)) for c in cols] for u in zip(*_minus_j(A))]


def q1(spec: FormsSpec, A):
    """Moment map to sp(V_1): A -> A A^t, entry (i, j) row i of A against
    row j of -J A."""
    _check_hom(spec, A)
    minus_ja = _minus_j(A)
    return [[sum(map(mul, row, r)) for r in minus_ja] for row in A]


def char_poly(M):
    """Exact characteristic polynomial det(zI - M), division-free
    (Berkowitz 1984).  Returns coefficients (c_0=1, c_1, ..., c_k) for
    z^k + c_1 z^{k-1} + ...

    Step n borders the leading n x n block A with column C, row R and
    corner a: p_{n+1}(z) = (z - a) p_n(z) - R adj(zI - A) C, and the
    adjugate expands in powers of A with the coefficients of p_n, so
    coefficient t of p_{n+1} takes sum_j s[j] c[t - 2 - j] with
    s[j] = R A^j C.  Row n of M and row n of its transpose, read over
    their first n entries, are R and C."""
    k = len(M)
    if any(map(k.__ne__, map(len, M))):
        raise ValueError("matrix is not square")
    coeffs = [1]
    for n, (R, col) in enumerate(zip(M, zip(*M))):
        a, block, v = R[n], M[:n], col[:n]
        # map(mul, ...) stops at v's n entries, so R and the rows of
        # block act as their leading n x n parts
        s = [sum(map(mul, R, v))] if n else []
        for _ in range(n - 1):
            v = [sum(map(mul, row, v)) for row in block]
            s.append(sum(map(mul, R, v)))
        c = coeffs + [0]
        coeffs = [1, c[1] - a] + [
            c[t] - a * c[t - 1] - sum(map(mul, s, c[t - 2 :: -1])) for t in range(2, n + 2)
        ]
    return tuple(coeffs)


def pfaffian(M):
    """Pfaffian of an antisymmetric even-dimensional matrix, by fraction-free
    elimination on the skew form.  Each step pivots on p = a_01, after
    swapping index 1 with the first j where a_0j != 0 (row and column,
    flipping the sign; with none, Pf = 0), and sets each remaining entry to
    a_ij = (p a_ij - a_0i a_1j + a_1i a_0j) / prev, the Pfaffian of a principal
    submatrix: the division is exact, as in `row_reduce`, and the last pivot
    times the sign is Pf.  Non-int input is cleared of its denominators once."""
    k = len(M)
    if any(map(k.__ne__, map(len, M))):
        raise ValueError("matrix is not square")
    if k % 2 != 0:
        raise ValueError("Pfaffian needs even dimension")
    a = [list(row) for row in M]
    # row i against column i negated: a_ij = -a_ji for every i, j
    if a != [[-x for x in col] for col in zip(*a)]:
        raise ValueError("matrix is not antisymmetric")
    if _all_ints(chain.from_iterable(a)):
        d = 1
    else:
        d, a = clear_denominators(M)
    sign = prev = 1
    while a:
        if not a[0][1]:
            j = next((j for j, x in enumerate(a[0]) if x), None)
            if j is None:
                return 0
            a[1], a[j] = a[j], a[1]
            for row in a:
                row[1], row[j] = row[j], row[1]
            sign = -sign
        top, second = a[0][2:], a[1][2:]
        p = a[0][1]
        a = [
            [(p * x - f * y + g * z) // prev for x, y, z in zip(row[2:], second, top)]
            for f, g, row in zip(top, second, a[2:])
        ]
        prev = p
    if d == 1:
        return sign * prev
    from fractions import Fraction
    return Fraction(sign * prev, d ** (k // 2))


def determinant(M):
    poly = char_poly(M)
    k = len(M)
    return poly[-1] * (1 if k % 2 == 0 else -1)


def verify_char_identity(spec: FormsSpec, A, *, M0=None) -> bool:
    """Char_{A^t A} = Char_{A A^t} for odd N, and equals z^2 Char_{A A^t}
    for even N.  M0, when given, is q0(spec, A) already computed."""
    p0 = char_poly(q0(spec, A) if M0 is None else M0)
    p1 = char_poly(q1(spec, A))
    if spec.parity == "odd":
        return p0 == p1
    return p0 == p1 + (0, 0)


def verify_pfaffian_vanishing(spec: FormsSpec, A, *, M0=None) -> bool:
    """Even N only: A^t A factors through the smaller V_1, so its Pfaffian
    vanishes identically.  M0, when given, is q0(spec, A) already computed."""
    if spec.parity != "even":
        raise ValueError("Pfaffian vanishing is an even-N statement")
    return pfaffian(q0(spec, A) if M0 is None else M0) == 0


def fft_generator(spec: FormsSpec, A, i: int, j: int):
    """Q_{ij}(A) = <p_i(A), p_j(A)>, the symplectic pairing of columns i
    and j of A; J pairs row x with row h + x."""
    h = spec.dim1 // 2
    return sum(
        A[x][i] * A[h + x][j] - A[h + x][i] * A[x][j] for x in range(h)
    )


def verify_fft_generators(spec: FormsSpec, A, *, M0=None) -> bool:
    """The (i,j) entry of q0(A) agrees with the invariant-theory generator
    Q_{ij} for all i < j (odd N, orthonormal realization).  M0, when given,
    is q0(spec, A) already computed."""
    if spec.parity != "odd":
        raise ValueError("generator check is stated in the odd case")
    M = q0(spec, A) if M0 is None else M0
    for i in range(spec.dim0):
        for j in range(i + 1, spec.dim0):
            if M[i][j] != fft_generator(spec, A, i, j):
                return False
    return True


def random_hom(spec: FormsSpec, rng: random.Random):
    """Random integer A in Hom(V_0, V_1), entries in -9..9.  Each entry
    reads 5-bit words from rng.getrandbits until one is below 19: exactly
    the draw randrange(19) and randint(-9, 9) make (`_randbelow`), word
    for word, without their two Python frames per entry."""
    getrandbits = rng.getrandbits
    n = spec.dim0
    A = []
    for _ in range(spec.dim1):
        row = []
        while len(row) < n:
            w = getrandbits(5)
            if w < 19:
                row.append(w - 9)
        A.append(row)
    return A


def _cayley(S):
    """Cayley transform (I - S)(I + S)^{-1} of an integer matrix S as
    (d, G) with the transform G / d, or None when I + S is singular.
    `row_reduce` gives E (I + S) = d I, and (I - S)(I + S)^{-1} =
    2 (I + S)^{-1} - I, so G = 2 E - d I."""
    reduced = row_reduce([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(S)])
    if reduced is None:
        return None
    d, E = reduced
    return d, [[2 * x - d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(E)]


def _draw_form(rng: random.Random, n: int, sign: int):
    """The n x n integer matrix S[j][i] = sign * S[i][j], skew (sign -1, zero
    diagonal) or symmetric (sign 1), whose upper entries, row by row, are
    randrange(7) - 3: the `_randbelow(7)` draw randint(-3, 3) makes."""
    randrange = rng.randrange
    S = zeros(n, n)
    for i in range(n):
        for j in range(i + (sign < 0), n):
            x = randrange(7) - 3
            S[i][j] = x
            S[j][i] = sign * x
    return S


def random_special_orthogonal(spec: FormsSpec, rng: random.Random):
    """(d, G) with G / d in SO(dim0): the Cayley transform of a random
    integer skew matrix, which has no eigenvalue -1."""
    return _cayley(_draw_form(rng, spec.dim0, -1))


def random_symplectic(spec: FormsSpec, rng: random.Random):
    """(d, G) with G / d in Sp(V_1): the Cayley transform of S = J^{-1} P
    for a random integer symmetric P, resampled while I + S is singular."""
    while True:
        g = _cayley(_minus_j(_draw_form(rng, spec.dim1, 1)))
        if g is not None:
            return g


def moment_check(N: int, trials: int, seed: int, start: int = 0):
    """Run the full battery on trials start..start+trials-1, trial i on an
    integer matrix from an RNG seeded by (seed, i) alone.  The run from
    trial 0 adds one equivariance spot check; other runs count it as
    passed, so runs over a split range add up to the whole.  Returns a
    dict of counters; all checks are exact so any failure is structural.
    A negative trials or start raises ValueError before any draw."""
    spec = FormsSpec(N)
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if start < 0:
        raise ValueError("start must be >= 0")
    report = {
        "N": N,
        "trials": trials,
        "char_identity": 0,
        "pfaffian_vanishing": 0,
        "fft_generators": 0,
        "equivariance": 0,
        "failures": 0,
    }
    for i in range(start, start + trials):
        A = random_hom(spec, random.Random(f"{seed}:{i}"))
        M0 = q0(spec, A)
        ok = verify_char_identity(spec, A, M0=M0)
        report["char_identity"] += ok
        if spec.parity == "even":
            okp = verify_pfaffian_vanishing(spec, A, M0=M0)
            report["pfaffian_vanishing"] += okp
            ok = ok and okp
        else:
            okf = verify_fft_generators(spec, A, M0=M0)
            report["fft_generators"] += okf
            ok = ok and okf
        if not ok:
            report["failures"] += 1
    report["equivariance"] = int(start != 0 or _equivariance_holds(spec, seed))
    if not report["equivariance"]:
        report["failures"] += 1
    report["ok"] = report["failures"] == 0
    return report


def _equivariance_holds(spec: FormsSpec, seed: int) -> bool:
    """q0 and q1 intertwine the SO(V_0) x Sp(V_1) action, on one random
    matrix and group element drawn from an RNG of their own.

    With A = C g0 the identities q0(g1 A g0^{-1}) = g0 q0(A) g0^{-1} and
    q1(g1 A g0^{-1}) = g1 q1(A) g1^{-1} read q0(g1 C) g0 = g0 q0(C g0) and
    q1(g1 C) g1 = g1 q1(C g0), with no inverse.  With g0 = G0 / d0 and
    g1 = G1 / d1, and q0, q1 quadratic, clearing the scalars leaves
        q0(G1 d0 C) G0 = G0 q0(d1 C G0),
        q1(G1 d0 C) G1 = G1 q1(d1 C G0),
    so C is scaled once on each side and no product is."""
    rng = random.Random(f"{seed}:equivariance")
    C = random_hom(spec, rng)
    d0, G0 = random_special_orthogonal(spec, rng)
    d1, G1 = random_symplectic(spec, rng)
    moved, pulled = mat_mul(G1, mat_scale(C, d0)), mat_mul(mat_scale(C, d1), G0)
    eq0 = mat_mul(q0(spec, moved), G0) == mat_mul(G0, q0(spec, pulled))
    eq1 = mat_mul(q1(spec, moved), G1) == mat_mul(G1, q1(spec, pulled))
    return eq0 and eq1
