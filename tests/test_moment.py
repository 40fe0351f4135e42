import copy
import fractions
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import ospkostka
from conftest import (
    bareiss_full_width,
    faddeev_char_poly,
    fraction_equivariance_holds,
    fraction_rank,
    fraction_solve,
    identity,
    mat_add,
    mat_sub,
    moment_report_oracle,
    pfaffian_expansion,
    randint_special_orthogonal,
    randint_symplectic,
    randrange_hom,
)
from ospkostka import moment as moment_module
from ospkostka.moment import (
    FormsSpec,
    adjoint,
    char_poly,
    determinant,
    fft_generator,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_transpose,
    moment_check,
    pfaffian,
    q0,
    q1,
    random_hom,
    random_special_orthogonal,
    random_symplectic,
    row_reduce,
    verify_char_identity,
    verify_fft_generators,
    verify_pfaffian_vanishing,
    zeros,
)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_dimensions():
    assert (FormsSpec(3).dim0, FormsSpec(3).dim1) == (2, 2)
    assert (FormsSpec(4).dim0, FormsSpec(4).dim1) == (4, 2)
    assert (FormsSpec(5).dim0, FormsSpec(5).dim1) == (4, 4)
    assert (FormsSpec(6).dim0, FormsSpec(6).dim1) == (6, 4)


def test_gram_matrices():
    spec = FormsSpec(5)
    J = spec.gram1()
    assert mat_transpose(J) == mat_scale(J, Fraction(-1))
    assert determinant(J) == 1


def test_adjoint_of_zero():
    spec = FormsSpec(4)
    Z = zeros(spec.dim1, spec.dim0)
    assert adjoint(spec, Z) == zeros(spec.dim0, spec.dim1)


def test_adjoint_defining_identity_on_basis_pairs():
    # (v, A^t w) on V_0 equals <A v, w> on V_1
    spec = FormsSpec(5)
    rng = random.Random(11)
    A = random_hom(spec, rng)
    At = adjoint(spec, A)
    J = spec.gram1()
    for i in range(spec.dim0):
        for j in range(spec.dim1):
            lhs = At[i][j]  # (e_i, A^t f_j) with orthonormal e's
            rhs = sum(A[a][i] * J[a][b] for a in range(spec.dim1) for b in range(spec.dim1) if b == j)
            assert lhs == rhs


def test_double_adjoint_is_minus_identity():
    for N in (3, 4, 5, 6):
        spec = FormsSpec(N)
        rng = random.Random(N)
        A = random_hom(spec, rng)
        back = adjoint(spec, adjoint(spec, A), source=1)
        assert back == mat_scale(A, Fraction(-1))


def test_q_maps_land_in_the_right_lie_algebras():
    for N in (3, 4, 5, 6):
        spec = FormsSpec(N)
        rng = random.Random(100 + N)
        for _ in range(25):
            A = random_hom(spec, rng)
            M0 = q0(spec, A)
            assert mat_transpose(M0) == mat_scale(M0, Fraction(-1))
            M1 = q1(spec, A)
            J = spec.gram1()
            lhs = mat_mul(mat_transpose(M1), J)
            rhs = mat_scale(mat_mul(J, M1), Fraction(-1))
            assert lhs == rhs


def test_q0_is_quadratic():
    spec = FormsSpec(4)
    rng = random.Random(3)
    A = random_hom(spec, rng)
    c = Fraction(3, 2)
    assert q0(spec, mat_scale(A, c)) == mat_scale(q0(spec, A), c * c)


def test_char_poly_examples():
    assert char_poly(zeros(3, 3)) == (Fraction(1), 0, 0, 0)
    assert char_poly(identity(2)) == (Fraction(1), Fraction(-2), Fraction(1))
    with pytest.raises(ValueError):
        char_poly([[Fraction(1), Fraction(2)]])


def test_char_poly_cayley_hamilton():
    rng = random.Random(17)
    M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
    coeffs = char_poly(M)
    acc = zeros(4, 4)
    power = identity(4)
    for c in reversed(coeffs):
        acc = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, power)]
        power = mat_mul(power, M)
    assert acc == zeros(4, 4)


def test_pfaffian_examples():
    a = Fraction(7, 3)
    assert pfaffian([[Fraction(0), a], [-a, Fraction(0)]]) == a
    assert pfaffian(zeros(4, 4)) == 0
    with pytest.raises(ValueError):
        pfaffian(zeros(3, 3))
    with pytest.raises(ValueError):
        pfaffian(identity(2))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(23)
    for k in (2, 4, 6):
        M = zeros(k, k)
        for i in range(k):
            for j in range(i + 1, k):
                x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                M[i][j] = x
                M[j][i] = -x
        assert pfaffian(M) ** 2 == determinant(M)


@pytest.mark.parametrize("k", [12, 14, 16])
def test_pfaffian_squares_to_determinant_past_the_expansion(k):
    """Sizes the expansion oracle cannot reach; sparse rows force pivot
    swaps, and a zero row makes both sides 0."""
    rng = random.Random(k)
    for density in (0.15, 0.3, 1.0):
        M = zeros(k, k)
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < density:
                    x = rng.randint(-9, 9)
                    M[i][j] = x
                    M[j][i] = -x
        pf = pfaffian(M)
        assert type(pf) is int and pf**2 == determinant(M)


@st.composite
def skew_matrices(draw, entries):
    """Antisymmetric matrices of even dimension 0..10; mostly-zero entries
    force the pivot swaps and the early zero."""
    k = draw(st.sampled_from(range(0, 11, 2)))
    M = zeros(k, k)
    for i in range(k):
        for j in range(i + 1, k):
            x = draw(st.one_of(st.just(0), entries))
            M[i][j] = x
            M[j][i] = -x
    return M


@given(skew_matrices(st.integers(-4, 4)))
def test_pfaffian_matches_expansion_on_ints(M):
    pf = pfaffian(M)
    assert type(pf) is int and pf == pfaffian_expansion(M)


@given(skew_matrices(st.fractions(-4, 4, max_denominator=6)))
def test_pfaffian_matches_expansion_on_fractions(M):
    assert pfaffian(M) == pfaffian_expansion(M)


def test_char_identity_zero_matrix():
    for N in (3, 4):
        spec = FormsSpec(N)
        assert verify_char_identity(spec, zeros(spec.dim1, spec.dim0))


def test_char_identity_even_degree_bookkeeping():
    spec = FormsSpec(4)
    rng = random.Random(5)
    A = random_hom(spec, rng)
    p0 = char_poly(q0(spec, A))
    p1 = char_poly(q1(spec, A))
    assert len(p0) == 5 and len(p1) == 3  # degrees 4 = 2 + 2


def test_fft_generator_rank_one():
    spec = FormsSpec(3)
    # A = e_1 tensor w: only the first column is nonzero
    A = zeros(spec.dim1, spec.dim0)
    A[0][0] = Fraction(2)
    A[1][0] = Fraction(3)
    for i in range(spec.dim0):
        for j in range(i + 1, spec.dim0):
            val = fft_generator(spec, A, i, j)
            if i != 0:
                assert val == 0
    assert verify_fft_generators(spec, A)


def test_parity_restrictions():
    with pytest.raises(ValueError):
        verify_pfaffian_vanishing(FormsSpec(5), zeros(4, 4))
    with pytest.raises(ValueError):
        verify_fft_generators(FormsSpec(4), zeros(2, 4))


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_identity_battery_small(N):
    report = moment_check(N, 60, seed=2024)
    assert report["ok"]
    assert report["char_identity"] == 60
    if N % 2 == 0:
        assert report["pfaffian_vanishing"] == 60
    else:
        assert report["fft_generators"] == 60


def test_group_element_generators_preserve_forms():
    spec = FormsSpec(6)
    rng = random.Random(9)
    d0, G0 = random_special_orthogonal(spec, rng)
    assert mat_mul(mat_transpose(G0), G0) == mat_scale(identity(spec.dim0), d0 * d0)
    assert determinant(G0) == d0**spec.dim0
    d1, G1 = random_symplectic(spec, rng)
    J = spec.gram1()
    assert mat_mul(mat_transpose(G1), mat_mul(J, G1)) == mat_scale(J, d1 * d1)


def test_equivariance_spot_check():
    for N in (3, 4):
        spec = FormsSpec(N)
        rng = random.Random(31 + N)
        for _ in range(5):
            A = random_hom(spec, rng)
            d0, G0 = random_special_orthogonal(spec, rng)
            d1, G1 = random_symplectic(spec, rng)
            g0, g1 = mat_scale(G0, Fraction(1, d0)), mat_scale(G1, Fraction(1, d1))
            moved = mat_mul(g1, mat_mul(A, mat_inverse(g0)))
            assert q0(spec, moved) == mat_mul(g0, mat_mul(q0(spec, A), mat_inverse(g0)))
            assert q1(spec, moved) == mat_mul(g1, mat_mul(q1(spec, A), mat_inverse(g1)))


@pytest.mark.parametrize("N", [14, 16])
def test_moment_check_runs_even_n_past_twelve(N):
    """Even N follows the same rule as odd N: no size guard, and the
    Pfaffian vanishes on every trial."""
    report = moment_check(N, 2, seed=14)
    assert report["ok"] and report["pfaffian_vanishing"] == report["trials"]


def test_mat_mul_shape_check():
    with pytest.raises(ValueError, match="1x2 matrix by a 1x2"):
        mat_mul([[1, 2]], [[1, 2]])


def test_mat_mul_shape_check_survives_optimize():
    """The check is a raise, not an assert, so python -O keeps it."""
    code = (
        "import sys\n"
        "from ospkostka.moment import mat_mul\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    mat_mul([[1, 2]], [[1, 2]])\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit('mat_mul accepted mismatched shapes')\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def square_matrices(entries, min_n=1, max_n=5):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def square_integer_matrices(max_n=5):
    return square_matrices(st.integers(-6, 6), max_n=max_n)


@given(
    square_matrices(st.integers(-9, 9), 0, 7)
    | square_matrices(st.fractions(-9, 9, max_denominator=4), 0, 7)
)
@example([])
@example([[7]])
@example([[Fraction(-5, 3)]])
@example([[Fraction(1, 2), Fraction(-3)], [Fraction(2, 3), Fraction(5, 4)]])
def test_char_poly_matches_faddeev_oracle(M):
    assert char_poly(M) == faddeev_char_poly(M)


@given(square_integer_matrices(max_n=6))
def test_cayley_transform_solves_its_defining_equation(S):
    """(I + S) G = d (I - S), so G / d = (I - S)(I + S)^{-1}; None exactly
    when I + S is singular."""
    n = len(S)
    eye = identity(n)
    plus = mat_add(eye, S)
    cayley = moment_module._cayley(S)
    if fraction_rank([[plus[i][j] for i in range(n)] for j in range(n)]) < n:
        assert cayley is None
        return
    d, G = cayley
    assert d > 0 and mat_mul(plus, G) == mat_scale(mat_sub(eye, S), d)


@given(square_integer_matrices())
def test_mat_inverse_matches_fraction_solve(a):
    n = len(a)
    columns = [[a[i][j] for i in range(n)] for j in range(n)]
    assume(fraction_rank(columns) == n)
    inverse = mat_inverse(a)
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        assert tuple(row[j] for row in inverse) == fraction_solve(columns, unit)


def test_mat_inverse_rejects_non_square_and_singular():
    with pytest.raises(ValueError, match="not square"):
        mat_inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="not square"):
        mat_inverse([[1, 2], [3]])
    with pytest.raises(ValueError, match="matrix is singular"):
        mat_inverse([[1, 2], [2, 4]])


def test_row_reduce_left_inverse_and_relations():
    a = [[2, 0], [0, 1], [1, 0]]
    d, e = row_reduce(a)
    assert mat_mul(e, a) == [[d, 0], [0, d], [0, 0]]
    assert row_reduce([[1, 2], [2, 4], [0, 0]]) is None
    assert row_reduce([[1, 0]]) is None  # more columns than rows
    assert row_reduce([]) == (1, [])
    assert mat_inverse([]) == []


@given(st.data())
def test_row_reduce_matches_fraction_elimination(data):
    r, k = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
    row = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    a = data.draw(st.lists(row, min_size=r, max_size=r))
    columns = [[row[j] for row in a] for j in range(k)]
    reduced = row_reduce(a)
    assert reduced == bareiss_full_width(a)
    if fraction_rank(columns) < k:
        assert reduced is None
        return
    d, E = reduced
    assert d > 0 and all(type(x) is int for row in E for x in row)
    # E a = d [I; 0]: a left inverse on top, relation rows below that
    # vanish on the column space
    assert mat_mul(E, a) == [[d * (i == j) for j in range(k)] for i in range(r)]
    # the relation rows are independent, so they cut out exactly the span
    assert fraction_rank(E) == r
    x = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    v = [sum(c * y for c, y in zip(row, x)) for row in a]
    left = tuple(Fraction(sum(e * y for e, y in zip(row, v)), d) for row in E[:k])
    assert left == fraction_solve(columns, v) == tuple(x)


ROW_REDUCE_CASES = {
    "square": [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    "tall": [[1, 2], [3, 4], [5, 6], [0, 1], [2, -1]],
    "singular": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    "zero_leading_pivot": [[0, 1, 2], [3, 0, 1], [1, 1, 0]],
    "negative_determinant": [[2, 1], [1, -1]],
    "tall_swap_at_the_last_column": [[1, 0], [0, 0], [2, 0], [0, 3]],
}


@pytest.mark.parametrize("case", ROW_REDUCE_CASES)
def test_row_reduce_matches_full_width_bareiss(case):
    a = ROW_REDUCE_CASES[case]
    assert row_reduce(a) == bareiss_full_width(a)
    if case == "singular":
        assert row_reduce(a) is None
    elif case == "negative_determinant":
        assert row_reduce(a) == (3, [[1, 1], [1, -2]])  # the last pivot is -3


def product_q0(spec, A):
    return mat_mul(adjoint(spec, A), A)


def product_q1(spec, A):
    return mat_mul(A, adjoint(spec, A))


@pytest.mark.parametrize("N", range(3, 10))
def test_q_maps_match_the_adjoint_products(N):
    spec = FormsSpec(N)
    rng = random.Random(N)
    for _ in range(20):
        A = random_hom(spec, rng)
        assert q0(spec, A) == product_q0(spec, A)
        assert q1(spec, A) == product_q1(spec, A)
    A = [[Fraction(x, 1 + abs(x) % 4) for x in row] for row in A]
    assert q0(spec, A) == product_q0(spec, A)
    assert q1(spec, A) == product_q1(spec, A)


def shape_errors(rows, cols):
    """Malformed rows x cols matrices: wrong row count, wrong first-row
    length, and rows that differ in length after a well-formed first row."""
    A = [[1] * cols for _ in range(rows)]
    yield A[:-1]
    yield [[]]
    yield [row + [1] for row in A]
    yield [[1] * (cols - 1)] + A[1:]
    for i in range(1, rows):
        yield A[:i] + [A[i][:-1]] + A[i + 1 :]
        yield A[:i] + [A[i] + [1]] + A[i + 1 :]
        yield A[:i] + [[]] + A[i + 1 :]
    yield [A[0]] + [row[:1] for row in A[1:]]


def q_map_shape_errors(spec):
    """Malformed A for q0 and q1."""
    return shape_errors(spec.dim1, spec.dim0)


def raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize("N", range(3, 10))
def test_q_maps_raise_what_the_adjoint_products_raise(N):
    spec = FormsSpec(N)
    for A in q_map_shape_errors(spec):
        assert raised(q0, spec, A) == raised(product_q0, spec, A), A
        assert raised(q1, spec, A) == raised(product_q1, spec, A), A


@pytest.mark.parametrize("N", range(3, 10))
def test_adjoint_checks_every_row(N):
    """Both sources check every row's length, so a short or long row
    after a well-formed first row raises the documented message, from
    adjoint, q0 and q1 alike."""
    spec = FormsSpec(N)
    for A in shape_errors(spec.dim1, spec.dim0):
        for f in (adjoint, q0, q1):
            assert raised(f, spec, A) == "expected a dim1 x dim0 matrix", (f, A)
    for B in shape_errors(spec.dim0, spec.dim1):
        assert raised(adjoint, spec, B, 1) == "expected a dim0 x dim1 matrix", B
    short_row = [[1] * 4, [1] * 4, [1] * 3, [1] * 4]
    assert raised(adjoint, FormsSpec(5), short_row) == "expected a dim1 x dim0 matrix"


ROW_REDUCE_NON_INT = {
    "fractions": ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], "Fraction(1, 2)"),
    "integral_fraction": ([[1, 0], [0, Fraction(2)]], "Fraction(2, 1)"),
    "bool": ([[2, 1], [1, True]], "True"),
    "float": ([[1.0]], "1.0"),
    # column 0 is zero, so elimination would return None at its first step
    "behind_a_zero_column": ([[0, 1], [0, 2.5]], "2.5"),
}


@pytest.mark.parametrize("case", ROW_REDUCE_NON_INT)
def test_row_reduce_rejects_non_int_entries(case):
    """The floor divisions are exact on ints alone: any other entry raises
    TypeError before any step, instead of a wrong (d, E)."""
    a, bad = ROW_REDUCE_NON_INT[case]
    with pytest.raises(TypeError, match=rf"^row_reduce needs an integer matrix, got {re.escape(bad)}$"):
        row_reduce(a)


def test_row_reduce_rejects_ragged_rows():
    for a in ([[1, 2], [3]], [[1], [2, 3]], [[0, 1], [0]], [[], [1]], [[1, 2], [3, 4], [5, 6, 7]]):
        with pytest.raises(ValueError, match="^matrix rows differ in length$"):
            row_reduce(a)
    # ragged and non-int: the shape is checked first
    with pytest.raises(ValueError, match="^matrix rows differ in length$"):
        row_reduce([[Fraction(1, 2), 1], [1]])


def test_moment_check_rejects_negative_counts_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("moment_check drew a matrix")

    monkeypatch.setattr(moment_module, "random_hom", no_draw)
    for N, trials, start in ((5, -3, 0), (4, -1, 2), (3, 0, -1), (6, 2, -4)):
        with pytest.raises(ValueError, match="must be >= 0"):
            moment_check(N, trials, seed=1, start=start)
    report = moment_check(5, 0, seed=1, start=3)
    assert report["trials"] == 0 and report["ok"]


def test_trial_matrices_do_not_depend_on_chunking(monkeypatch):
    drawn = []

    def recording_hom(spec, rng):
        A = random_hom(spec, rng)
        drawn.append(A)
        return A

    monkeypatch.setattr(moment_module, "random_hom", recording_hom)
    whole = moment_check(4, 6, seed=11)
    one_chunk, drawn[:] = list(drawn), []
    parts = [moment_check(4, 2, seed=11, start=start) for start in (0, 2, 4)]
    assert len(one_chunk) == 7  # six trials, then the spot check
    # the first chunk runs its two trials and then the spot check
    assert drawn == one_chunk[:2] + one_chunk[6:] + one_chunk[2:6]
    for key in ("trials", "char_identity", "pfaffian_vanishing", "failures"):
        assert sum(p[key] for p in parts) == whole[key]
    assert [p["equivariance"] for p in parts] == [1, 1, 1] and whole["equivariance"] == 1


def test_pfaffian_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        pfaffian([[0, 1, 2], [-1, 0, 3]])
    with pytest.raises(ValueError, match="not square"):
        pfaffian([[0, 1], [-1, 0, 5]])


def test_mat_mul_rejects_empty_and_ragged_operands():
    with pytest.raises(ValueError, match="cannot multiply a 0x0 matrix by a 0x0 matrix"):
        mat_mul([], [])
    with pytest.raises(ValueError, match="cannot multiply a 1x0 matrix by a 0x0 matrix"):
        mat_mul([[]], [])
    with pytest.raises(ValueError, match="cannot multiply"):
        mat_mul([[1, 2], [3]], [[1], [2]])
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2], [3]])


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_integer_spot_check_matches_fraction_oracle(N):
    spec = FormsSpec(N)
    for seed in range(40):
        assert moment_module._equivariance_holds(spec, seed) == fraction_equivariance_holds(
            spec, seed
        )


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_moment_check_matches_fraction_oracle(N):
    for seed in (0, 1, 2):
        assert moment_check(N, 6, seed) == moment_report_oracle(N, 6, seed)
    assert moment_check(N, 4, 9, start=3) == moment_report_oracle(N, 4, 9, start=3)


def test_battery_runs_on_integers(monkeypatch):
    """The draws, the trials and the spot check see only ints."""
    seen = []

    def integer_only(fn):
        def wrapped(*args):
            seen.append(fn.__name__)
            matrices = [m for m in args if isinstance(m, list)]
            assert matrices and all(type(x) is int for m in matrices for row in m for x in row)
            return fn(*args)

        return wrapped

    for name in ("mat_mul", "char_poly", "pfaffian", "row_reduce"):
        monkeypatch.setattr(moment_module, name, integer_only(getattr(moment_module, name)))
    assert moment_check(6, 3, seed=8)["ok"]
    assert {"mat_mul", "char_poly", "pfaffian", "row_reduce"} <= set(seen)


def breaks_check(monkeypatch, name, replacement):
    original = getattr(moment_module, name)
    monkeypatch.setattr(moment_module, name, lambda *args: replacement(original, *args))


def test_char_identity_catches_a_scaled_q1(monkeypatch):
    # q1 off by 2 while q0 is not: the cleared check must still see it
    breaks_check(monkeypatch, "q1", lambda q1, spec, A: mat_scale(q1(spec, A), 2))
    report = moment_check(5, 5, seed=4)
    assert report["char_identity"] == 0 and report["failures"] == 5 and not report["ok"]


def test_pfaffian_check_catches_a_nonvanishing_pfaffian(monkeypatch):
    def shifted(q0, spec, A):
        # q0 - K, with K block diagonal in [[0, 1], [-1, 0]] (Pf K = 1)
        K = zeros(spec.dim0, spec.dim0)
        for i in range(0, spec.dim0, 2):
            K[i][i + 1], K[i + 1][i] = 1, -1
        return mat_sub(q0(spec, A), K)

    breaks_check(monkeypatch, "q0", shifted)
    report = moment_check(4, 5, seed=4)
    assert report["pfaffian_vanishing"] == 0 and not report["ok"]


def test_generator_check_catches_a_wrong_entry(monkeypatch):
    breaks_check(
        monkeypatch,
        "fft_generator",
        lambda fft, spec, A, i, j: fft(spec, A, i, j) + ((i, j) == (0, 1)),
    )
    report = moment_check(5, 5, seed=4)
    assert report["fft_generators"] == 0 and report["failures"] == 5
    assert report["char_identity"] == 5 and report["equivariance"] == 1


def test_spot_check_catches_a_non_symplectic_g1(monkeypatch):
    def stretched(spec, rng):
        # diag(3/2, 1, ..., 1) is invertible but does not preserve J
        G1 = mat_scale(identity(spec.dim1), 2)
        G1[0][0] = 3
        return 2, G1

    monkeypatch.setattr(moment_module, "random_symplectic", stretched)
    for N in (3, 4, 5, 6):
        report = moment_check(N, 2, seed=4)
        assert report["equivariance"] == 0 and report["failures"] == 1, N


def test_spot_check_catches_a_non_orthogonal_g0(monkeypatch):
    def sheared(spec, rng):
        # I + E_01 has determinant one but does not preserve the form
        G0 = identity(spec.dim0)
        G0[0][1] = 1
        return 1, G0

    monkeypatch.setattr(moment_module, "random_special_orthogonal", sheared)
    for N in (3, 4, 5, 6):
        report = moment_check(N, 2, seed=4)
        assert report["equivariance"] == 0 and report["failures"] == 1, N


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_battery_builds_no_fraction(monkeypatch, N):
    def no_fraction(*args):
        raise AssertionError("the battery built a Fraction")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    assert moment_check(N, 6, seed=N)["ok"]


def test_battery_never_imports_fractions():
    """moment_check at N = 3..6 runs in a process where fractions is never
    loaded: moment imports it only inside mat_inverse and pfaffian's
    rational branch."""
    code = (
        "import sys\n"
        "from ospkostka.moment import moment_check\n"
        "assert all(moment_check(N, 6, seed=N)['ok'] for N in (3, 4, 5, 6))\n"
        "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


@pytest.mark.parametrize("N", range(3, 10))
def test_draws_match_literal_randint_enumeration(monkeypatch, N):
    """The spot check's three draws, and so every trial matrix, are the
    ones randrange(19) - 9 (or randint(-9, 9)) and randint(-3, 3) make,
    word for word, and leave the generator in the same state: over 200
    seeds, including seeds where random_symplectic resamples."""
    cayley, singular = moment_module._cayley, []

    def recording_cayley(S):
        g = cayley(S)
        singular.append(g is None)
        return g

    spec = FormsSpec(N)
    for seed in range(200):
        rng = random.Random(f"{seed}:equivariance")
        drawn = (random_hom(spec, rng), random_special_orthogonal(spec, rng))
        with monkeypatch.context() as patch:
            patch.setattr(moment_module, "_cayley", recording_cayley)
            drawn += (random_symplectic(spec, rng),)
        oracle = random.Random(f"{seed}:equivariance")
        assert drawn == (
            randrange_hom(spec, oracle),
            randint_special_orthogonal(spec, oracle),
            randint_symplectic(spec, oracle),
        )
        assert rng.getstate() == oracle.getstate()
        literal = random.Random(f"{seed}:equivariance")
        assert drawn[0] == [[literal.randint(-9, 9) for _ in range(spec.dim0)] for _ in range(spec.dim1)]
    # seeds 24 at N = 7 and 9 at N = 8 resample; at N = 9 none of these does
    assert any(singular) or N == 9, "no seed made random_symplectic resample"


@pytest.mark.parametrize("N", [4, 5])
def test_moment_check_computes_q0_once_per_trial(monkeypatch, N):
    calls = []

    def counted(*args):
        calls.append(args)
        return q0(*args)

    monkeypatch.setattr(moment_module, "q0", counted)
    for trials in (1, 3, 6):
        calls.clear()
        assert moment_check(N, trials, seed=trials)["ok"]
        assert len(calls) == trials + 2  # the spot check adds two
        calls.clear()
        assert moment_check(N, trials, seed=trials, start=1)["ok"]
        assert len(calls) == trials


def verifiers(spec):
    if spec.parity == "even":
        return verify_char_identity, verify_pfaffian_vanishing
    return verify_char_identity, verify_fft_generators


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_verify_keyword_path_matches_spec_a_path(monkeypatch, N):
    """Passing q0(spec, A) as M0 gives what (spec, A) gives; passing another
    matrix gives what (spec, A) gives when q0 returns that matrix."""
    spec = FormsSpec(N)
    rng = random.Random(N)
    # K, block diagonal in [[0, 1], [-1, 0]], moves q0 off both identities
    K = zeros(spec.dim0, spec.dim0)
    for i in range(0, spec.dim0, 2):
        K[i][i + 1], K[i + 1][i] = 1, -1
    for _ in range(50):
        A = random_hom(spec, rng)
        M0 = q0(spec, A)
        for verify in verifiers(spec):
            assert verify(spec, A, M0=M0) == verify(spec, A) is True
        for other in (mat_sub(M0, K), mat_scale(M0, 2)):
            with monkeypatch.context() as patch:
                patch.setattr(moment_module, "q0", lambda *args: other)
                expected = [verify(spec, A) for verify in verifiers(spec)]
            assert [verify(spec, A, M0=other) for verify in verifiers(spec)] == expected


@pytest.mark.parametrize("N", range(3, 17))
def test_forms_spec_stores_the_old_formulas(N):
    spec = FormsSpec(N)
    parity = "odd" if N % 2 == 1 else "even"
    dim0 = 2 * (N // 2)
    dim1 = dim0 if parity == "odd" else dim0 - 2
    assert (spec.N, spec.parity, spec.dim0, spec.dim1) == (N, parity, dim0, dim1)
    assert tuple(spec) == (N, parity, dim0, dim1)


def test_forms_spec_pickle_and_copy_round_trips():
    for N in (3, 4, 15, 16):
        spec = FormsSpec(N)
        for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert type(twin) is FormsSpec and twin == spec and repr(twin) == f"FormsSpec(N={N})"
    with pytest.raises(ValueError, match="^N must be >= 3$"):
        FormsSpec(2)


# (function, matrix, message) for each guard that must raise, not assert
GUARD_CASES = {
    "pfaffian_pair_off": (
        "pfaffian",
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -7, 0]],
        "not antisymmetric",
    ),
    "pfaffian_diagonal": (
        "pfaffian",
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 1, 6], [-3, -5, -6, 0]],
        "not antisymmetric",
    ),
    "char_poly_ragged": ("char_poly", [[1, 2, 3], [4, 5], [6, 7, 8]], "not square"),
    "char_poly_wide": ("char_poly", [[1, 2, 3], [4, 5, 6]], "not square"),
}


@pytest.mark.parametrize("case", GUARD_CASES)
def test_matrix_guard_raises(case):
    name, M, message = GUARD_CASES[case]
    with pytest.raises(ValueError, match=message):
        getattr(moment_module, name)(M)


def test_matrix_guards_survive_optimize():
    code = (
        "import sys\n"
        "from ospkostka import moment\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        f"for name, M, message in {list(GUARD_CASES.values())!r}:\n"
        "    try:\n"
        "        getattr(moment, name)(M)\n"
        "    except ValueError as err:\n"
        "        if message not in str(err):\n"
        "            sys.exit(f'{name}: {err}')\n"
        "    else:\n"
        "        sys.exit(f'{name} accepted {M}')\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
