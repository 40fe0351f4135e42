"""Exact rational verification of the quadratic moment-map identities.

V_0 carries the standard symmetric form in an orthonormal basis (Gram =
identity, so so(V_0) is the usual skew matrices and the Pfaffian is the
classical one); V_1 carries the standard symplectic form with Gram
J = [[0, I], [-I, 0]].  The adjoint of X: V_a -> V_b is
X^t = G_a^{-1} X^T G_b, i.e. (v, X^t w)_a = (X v, w)_b, and the double
adjoint of a map out of V_0 is -X because exactly one Gram is skew.

Everything is Fraction arithmetic; every identity is checked exactly.
"""

import random
from dataclasses import dataclass
from fractions import Fraction


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
            J[i][m + i] = Fraction(1)
            J[m + i][i] = Fraction(-1)
        return J


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError(
            f"cannot multiply a {rows}x{len(a[0])} matrix by a {inner}x{cols} matrix"
        )
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


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


def mat_inverse(a):
    n = len(a)
    work = [list(map(Fraction, row)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def is_invertible(a):
    try:
        mat_inverse(a)
        return True
    except ValueError:
        return False


def adjoint(spec: FormsSpec, A, source: int = 0):
    """Adjoint with respect to the two forms.  source=0 treats A as a map
    V_0 -> V_1 (a dim1 x dim0 matrix) and returns the dim0 x dim1 adjoint;
    source=1 goes the other way."""
    if source == 0:
        if len(A) != spec.dim1 or len(A[0]) != spec.dim0:
            raise ValueError("expected a dim1 x dim0 matrix")
        # G0 = identity, so G0^{-1} A^T J1 = A^T J1
        return mat_mul(mat_transpose(A), spec.gram1())
    if len(A) != spec.dim0 or len(A[0]) != spec.dim1:
        raise ValueError("expected a dim0 x dim1 matrix")
    return mat_mul(mat_inverse(spec.gram1()), mat_transpose(A))


def q0(spec: FormsSpec, A):
    """Moment map to so(V_0): A -> A^t A (skew-symmetric)."""
    return mat_mul(adjoint(spec, A), A)


def q1(spec: FormsSpec, A):
    """Moment map to sp(V_1): A -> A A^t."""
    return mat_mul(A, adjoint(spec, A))


def char_poly(M):
    """Exact characteristic polynomial det(zI - M) by Faddeev-LeVerrier.
    Returns coefficients (c_0=1, c_1, ..., c_k) for z^k + c_1 z^{k-1} + ...
    """
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("matrix is not square")
    coeffs = [Fraction(1)]
    B = identity(k)
    for i in range(1, k + 1):
        MB = mat_mul(M, B)
        trace = sum(MB[j][j] for j in range(k))
        c = -trace / i
        coeffs.append(c)
        B = mat_add(MB, mat_scale(identity(k), c))
    return tuple(coeffs)


def pfaffian(M):
    """Pfaffian of an antisymmetric even-dimensional matrix, by recursive
    expansion along the first remaining row."""
    k = len(M)
    if k % 2 != 0:
        raise ValueError("Pfaffian needs even dimension")
    for i in range(k):
        for j in range(k):
            if M[i][j] != -M[j][i]:
                raise ValueError("matrix is not antisymmetric")

    def rec(indices):
        if not indices:
            return Fraction(1)
        i = indices[0]
        rest = indices[1:]
        total = Fraction(0)
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
    return p0 == p1 + (Fraction(0), Fraction(0))


def verify_pfaffian_vanishing(spec: FormsSpec, A) -> bool:
    """Even N only: A^t A factors through the smaller V_1, so its Pfaffian
    vanishes identically."""
    if spec.parity != "even":
        raise ValueError("Pfaffian vanishing is an even-N statement")
    return pfaffian(q0(spec, A)) == 0


def fft_generator(spec: FormsSpec, A, i: int, j: int):
    """Q_{ij}(A) evaluated directly from the bilinear definition
    <p_i(A), p_j(A)> as a double sum over the symplectic Gram."""
    J = spec.gram1()
    total = Fraction(0)
    for a in range(spec.dim1):
        for b in range(spec.dim1):
            if J[a][b]:
                total += A[a][i] * J[a][b] * A[b][j]
    return total


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
    J = spec.gram1()
    J_inv = mat_inverse(J)
    while True:
        P = zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                P[i][j] = x
                P[j][i] = x
        S = mat_mul(J_inv, P)
        eye = identity(n)
        if is_invertible(mat_add(eye, S)):
            return mat_mul(mat_sub(eye, S), mat_inverse(mat_add(eye, S)))


def moment_check(N: int, trials: int, seed: int):
    """Run the full battery on `trials` seeded random matrices.  Returns a
    dict of counters; all checks are exact so any failure is structural."""
    spec = FormsSpec(N)
    rng = random.Random(seed)
    report = {
        "N": N,
        "trials": trials,
        "char_identity": 0,
        "pfaffian_vanishing": 0,
        "fft_generators": 0,
        "equivariance": 0,
        "failures": 0,
    }
    for _ in range(trials):
        A = random_hom(spec, rng)
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
    # one seeded equivariance spot check per call
    A = random_hom(spec, rng)
    g0 = random_special_orthogonal(spec, rng)
    g1 = random_symplectic(spec, rng)
    moved = mat_mul(g1, mat_mul(A, mat_inverse(g0)))
    eq0 = mat_eq(q0(spec, moved), mat_mul(g0, mat_mul(q0(spec, A), mat_inverse(g0))))
    eq1 = mat_eq(q1(spec, moved), mat_mul(g1, mat_mul(q1(spec, A), mat_inverse(g1))))
    report["equivariance"] = int(eq0 and eq1)
    if not (eq0 and eq1):
        report["failures"] += 1
    report["ok"] = report["failures"] == 0
    return report
