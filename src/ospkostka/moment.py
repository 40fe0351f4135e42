"""Exact verification of the quadratic moment-map identities.

V_0 carries the standard symmetric form in an orthonormal basis (Gram =
identity, so so(V_0) is the usual skew matrices and the Pfaffian is the
classical one); V_1 carries the standard symplectic form with Gram
J = [[0, I], [-I, 0]].  The adjoint of X: V_a -> V_b is
X^t = G_a^{-1} X^T G_b, i.e. (v, X^t w)_a = (X v, w)_b, and the double
adjoint of a map out of V_0 is -X because exactly one Gram is skew.

The matrix kernels (`mat_mul`, `adjoint`, `q0`, `q1`, the Berkowitz
`char_poly`, `pfaffian`) never divide: on int matrices they return ints,
on Fraction matrices Fractions.  `row_reduce` is fraction-free Bareiss
elimination on integers, shared with `oddroots.ConeSolver`;
`mat_inverse` clears denominators, calls it and divides once.

The random draws are rational.  `moment_check` clears their denominators
once and checks every identity on integers.  Each identity is
homogeneous in A (and in the group elements, once their scalar
denominators are cross-multiplied), so the integer check is exact and
equivalent to the rational one.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .roots import EnumerationTooLargeError

# Largest even N accepted.  One even trial costs about 21 ms at N=12 and
# 0.25 s at N=14: the Pfaffian expands (dim0 - 1)!! terms, about 12x per
# even step, so the default 1,000 trials would take 4 minutes at N=14 and
# an hour at N=16.  Odd N has no Pfaffian and no guard (under 5 ms per
# trial up to N=15).
MOMENT_N_GUARD = 12

@dataclass(frozen=True)
class FormsSpec:
    N: int

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N must be >= 3")

    @property
    def parity(self):
        return "odd" if self.N % 2 == 1 else "even"

    @property
    def dim0(self):
        return 2 * (self.N // 2)

    @property
    def dim1(self):
        return self.dim0 if self.parity == "odd" else self.dim0 - 2

    def gram0(self):
        return identity(self.dim0)

    def gram1(self):
        m = self.dim1 // 2
        J = zeros(self.dim1, self.dim1)
        for i in range(m):
            J[i][m + i] = 1
            J[m + i][i] = -1
        return J


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a, b):
    rows, inner = len(a), len(b)
    if not a or not b or any(len(row) != inner for row in a):
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


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


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
    is a minor of [a | I] (Bareiss 1968)."""
    rows, cols = len(a), len(a[0]) if a else 0
    work = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    prev = 1
    for col in range(cols):
        piv = next((i for i in range(col, rows) if work[i][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        top = work[col]
        p = top[col]
        for i in range(rows):
            if i != col:
                f = work[i][col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in row[cols:]] for row in work]


def mat_inverse(a):
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
    source=1 goes the other way."""
    if source == 0:
        if len(A) != spec.dim1 or len(A[0]) != spec.dim0:
            raise ValueError("expected a dim1 x dim0 matrix")
        # G0 = identity, so G0^{-1} A^T J = A^T J = (-J A)^T
        return mat_transpose(_minus_j(A))
    if len(A) != spec.dim0 or len(A[0]) != spec.dim1:
        raise ValueError("expected a dim0 x dim1 matrix")
    return _minus_j(mat_transpose(A))


def q0(spec: FormsSpec, A):
    """Moment map to so(V_0): A -> A^t A (skew-symmetric)."""
    return mat_mul(adjoint(spec, A), A)


def q1(spec: FormsSpec, A):
    """Moment map to sp(V_1): A -> A A^t."""
    return mat_mul(A, adjoint(spec, A))


def char_poly(M):
    """Exact characteristic polynomial det(zI - M), division-free
    (Berkowitz 1984).  Returns coefficients (c_0=1, c_1, ..., c_k) for
    z^k + c_1 z^{k-1} + ...

    Step k borders the leading k x k block A with column C, row R and
    corner a: p_{k+1}(z) = (z - a) p_k(z) - R adj(zI - A) C, and the
    adjugate expands in powers of A with the coefficients of p_k."""
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("matrix is not square")
    coeffs = [1]
    for n in range(k):
        A = [row[:n] for row in M[:n]]
        R, v, a = M[n][:n], [row[n] for row in M[:n]], M[n][n]
        s = []  # s[l] = R A^l C
        for _ in range(n):
            s.append(sum(map(mul, R, v)))
            v = [sum(map(mul, row, v)) for row in A]
        c = coeffs + [0]
        coeffs = [1] + [
            c[t] - a * c[t - 1] - sum(c[i] * s[t - 2 - i] for i in range(t - 1))
            for t in range(1, n + 2)
        ]
    return tuple(coeffs)


def pfaffian(M):
    """Pfaffian of an antisymmetric even-dimensional matrix, by recursive
    expansion along the first remaining row."""
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("matrix is not square")
    if k % 2 != 0:
        raise ValueError("Pfaffian needs even dimension")
    for i in range(k):
        for j in range(k):
            if M[i][j] != -M[j][i]:
                raise ValueError("matrix is not antisymmetric")

    def rec(indices):
        if not indices:
            return 1
        i = indices[0]
        rest = indices[1:]
        total = 0
        for pos, j in enumerate(rest):
            x = M[i][j]
            if x:
                remaining = rest[:pos] + rest[pos + 1 :]
                term = x * rec(remaining)
                total += term if pos % 2 == 0 else -term
        return total

    return rec(tuple(range(k)))


def determinant(M):
    poly = char_poly(M)
    k = len(M)
    return poly[-1] * (1 if k % 2 == 0 else -1)


def verify_char_identity(spec: FormsSpec, A) -> bool:
    """Char_{A^t A} = Char_{A A^t} for odd N, and equals z^2 Char_{A A^t}
    for even N."""
    p0 = char_poly(q0(spec, A))
    p1 = char_poly(q1(spec, A))
    if spec.parity == "odd":
        return p0 == p1
    return p0 == p1 + (0, 0)


def verify_pfaffian_vanishing(spec: FormsSpec, A) -> bool:
    """Even N only: A^t A factors through the smaller V_1, so its Pfaffian
    vanishes identically."""
    if spec.parity != "even":
        raise ValueError("Pfaffian vanishing is an even-N statement")
    return pfaffian(q0(spec, A)) == 0


def fft_generator(spec: FormsSpec, A, i: int, j: int):
    """Q_{ij}(A) = <p_i(A), p_j(A)>, the symplectic pairing of columns i
    and j of A; J pairs row x with row h + x."""
    h = spec.dim1 // 2
    return sum(
        A[x][i] * A[h + x][j] - A[h + x][i] * A[x][j] for x in range(h)
    )


def verify_fft_generators(spec: FormsSpec, A) -> bool:
    """The (i,j) entry of q0(A) agrees with the invariant-theory generator
    Q_{ij} for all i < j (odd N, orthonormal realization)."""
    if spec.parity != "odd":
        raise ValueError("generator check is stated in the odd case")
    M = q0(spec, A)
    for i in range(spec.dim0):
        for j in range(i + 1, spec.dim0):
            if M[i][j] != fft_generator(spec, A, i, j):
                return False
    return True


def random_rational_matrix(rng: random.Random, rows: int, cols: int):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_hom(spec: FormsSpec, rng: random.Random):
    """Random rational A in Hom(V_0, V_1)."""
    return random_rational_matrix(rng, spec.dim1, spec.dim0)


def random_special_orthogonal(spec: FormsSpec, rng: random.Random):
    """Cayley transform of a random rational skew matrix: lands in
    SO(dim0) because real skew matrices have no eigenvalue -1 and the
    transform preserves the form with determinant one."""
    n = spec.dim0
    S = zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            S[i][j] = x
            S[j][i] = -x
    eye = identity(n)
    return mat_mul(mat_sub(eye, S), mat_inverse(mat_add(eye, S)))


def random_symplectic(spec: FormsSpec, rng: random.Random):
    """Cayley transform of a random element of sp(V_1); resamples until
    I + S is invertible (sp elements can have real spectrum)."""
    n = spec.dim1
    while True:
        P = zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                P[i][j] = x
                P[j][i] = x
        S = _minus_j(P)  # J^{-1} P
        eye = identity(n)
        try:
            inverse = mat_inverse(mat_add(eye, S))
        except ValueError:  # I + S is singular
            continue
        return mat_mul(mat_sub(eye, S), inverse)


def moment_check(N: int, trials: int, seed: int, start: int = 0):
    """Run the full battery on trials start..start+trials-1, trial i on a
    matrix drawn from an RNG seeded by (seed, i) alone and cleared of its
    denominators.  The run that starts at trial 0 adds one equivariance
    spot check; other runs count it as passed, so runs over a split range
    add up to the whole.  Returns a dict of counters; all checks are exact
    so any failure is structural."""
    spec = FormsSpec(N)
    if spec.parity == "even" and N > MOMENT_N_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration too large: even N={N} exceeds guard {MOMENT_N_GUARD}"
        )
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
        _, A = clear_denominators(random_hom(spec, random.Random(f"{seed}:{i}")))
        ok = verify_char_identity(spec, A)
        report["char_identity"] += ok
        if spec.parity == "even":
            okp = verify_pfaffian_vanishing(spec, A)
            report["pfaffian_vanishing"] += okp
            ok = ok and okp
        else:
            okf = verify_fft_generators(spec, A)
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

    In integers: A = X / a, g0 = G0 / d0, g1 = G1 / d1, and E G = e I
    gives g^{-1} = d E / e.  So g1 A g0^{-1} = s Y with Y = G1 X E0 and
    s = d0 / (d1 a e0); both identities are quadratic in A, and clearing
    the scalars leaves
        d0^2 q0(Y) = d1^2 e0 G0 q0(X) E0,
        d0^2 e1 q1(Y) = d1^2 e0^2 G1 q1(X) E1."""
    rng = random.Random(f"{seed}:equivariance")
    _, X = clear_denominators(random_hom(spec, rng))
    d0, G0 = clear_denominators(random_special_orthogonal(spec, rng))
    d1, G1 = clear_denominators(random_symplectic(spec, rng))
    e0, E0 = row_reduce(G0)
    e1, E1 = row_reduce(G1)
    Y = mat_mul(G1, mat_mul(X, E0))
    eq0 = mat_eq(
        mat_scale(q0(spec, Y), d0 * d0),
        mat_scale(mat_mul(G0, mat_mul(q0(spec, X), E0)), d1 * d1 * e0),
    )
    eq1 = mat_eq(
        mat_scale(q1(spec, Y), d0 * d0 * e1),
        mat_scale(mat_mul(G1, mat_mul(q1(spec, X), E1)), d1 * d1 * e0 * e0),
    )
    return eq0 and eq1
