import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ospkostka
from ospkostka.moment import (
    FormsSpec,
    adjoint,
    char_poly,
    determinant,
    fft_generator,
    identity,
    mat_eq,
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
    assert mat_eq(spec.gram0(), identity(4))
    J = spec.gram1()
    assert mat_eq(mat_transpose(J), mat_scale(J, Fraction(-1)))
    assert determinant(J) == 1


def test_adjoint_of_zero():
    spec = FormsSpec(4)
    Z = zeros(spec.dim1, spec.dim0)
    assert mat_eq(adjoint(spec, Z), zeros(spec.dim0, spec.dim1))


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
        assert mat_eq(back, mat_scale(A, Fraction(-1)))


def test_q_maps_land_in_the_right_lie_algebras():
    for N in (3, 4, 5, 6):
        spec = FormsSpec(N)
        rng = random.Random(100 + N)
        for _ in range(25):
            A = random_hom(spec, rng)
            M0 = q0(spec, A)
            assert mat_eq(mat_transpose(M0), mat_scale(M0, Fraction(-1)))
            M1 = q1(spec, A)
            J = spec.gram1()
            lhs = mat_mul(mat_transpose(M1), J)
            rhs = mat_scale(mat_mul(J, M1), Fraction(-1))
            assert mat_eq(lhs, rhs)


def test_q0_is_quadratic():
    spec = FormsSpec(4)
    rng = random.Random(3)
    A = random_hom(spec, rng)
    c = Fraction(3, 2)
    assert mat_eq(q0(spec, mat_scale(A, c)), mat_scale(q0(spec, A), c * c))


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
    assert mat_eq(acc, zeros(4, 4))


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
    g0 = random_special_orthogonal(spec, rng)
    assert mat_eq(mat_mul(mat_transpose(g0), g0), identity(spec.dim0))
    assert determinant(g0) == 1
    g1 = random_symplectic(spec, rng)
    J = spec.gram1()
    assert mat_eq(mat_mul(mat_transpose(g1), mat_mul(J, g1)), J)


def test_equivariance_spot_check():
    from ospkostka.moment import mat_inverse

    for N in (3, 4):
        spec = FormsSpec(N)
        rng = random.Random(31 + N)
        for _ in range(5):
            A = random_hom(spec, rng)
            g0 = random_special_orthogonal(spec, rng)
            g1 = random_symplectic(spec, rng)
            moved = mat_mul(g1, mat_mul(A, mat_inverse(g0)))
            assert mat_eq(
                q0(spec, moved), mat_mul(g0, mat_mul(q0(spec, A), mat_inverse(g0)))
            )
            assert mat_eq(
                q1(spec, moved), mat_mul(g1, mat_mul(q1(spec, A), mat_inverse(g1)))
            )


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
