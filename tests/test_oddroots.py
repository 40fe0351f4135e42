from operator import add

import pytest
from hypothesis import assume, event, given, strategies as st

from conftest import (
    cone_coordinates_oracle,
    fraction_rank,
    odd_positive_roots_oracle,
    simple_odd_roots_oracle,
)
from ospkostka.kostka import kostka
from ospkostka.oddroots import (
    ConeSolver,
    OspRootData,
    biweight,
    dominance_ge,
    dominance_ge_cone,
    interleave,
    odd_positive_roots,
    osp_root_data,
    prefix_sums_ge,
    shuffle,
    simple_odd_roots,
    simple_root_coordinates,
)
from ospkostka.roots import dominant_weights


def labels_in_box(data, bound):
    return [
        (lam0, lam1)
        for lam0 in dominant_weights(data.type0, bound)
        for lam1 in dominant_weights(data.type1, bound)
    ]


def test_rank_bookkeeping():
    d5 = osp_root_data(5)
    assert (d5.parity, d5.n, d5.eps_rank, d5.delta_rank) == ("odd", 2, 2, 2)
    assert (d5.dim_v0, d5.dim_v1) == (4, 4)
    d4 = osp_root_data(4)
    assert (d4.parity, d4.n, d4.eps_rank, d4.delta_rank) == ("even", 2, 2, 1)
    assert (d4.dim_v0, d4.dim_v1) == (4, 2)
    with pytest.raises(ValueError):
        osp_root_data(2)


def test_shuffle_examples():
    assert shuffle(osp_root_data(5)) == (3, 1, 4, 2)
    assert shuffle(osp_root_data(4)) == (1, 3, 2)
    assert shuffle(osp_root_data(3)) == (2, 1)
    assert shuffle(osp_root_data(7)) == (4, 1, 5, 2, 6, 3)
    assert shuffle(osp_root_data(6)) == (1, 4, 2, 5, 3)


def test_odd_positive_roots_n3():
    d = osp_root_data(3)
    assert odd_positive_roots(d) == (biweight((1,), (1,)), biweight((-1,), (1,)))


def test_odd_positive_roots_sizes():
    assert len(odd_positive_roots(osp_root_data(5))) == 8
    assert len(odd_positive_roots(osp_root_data(4))) == 4


def test_simple_odd_roots_examples():
    d3 = osp_root_data(3)
    assert simple_odd_roots(d3) == (biweight((-1,), (1,)), biweight((1,), (1,)))
    d4 = osp_root_data(4)
    assert simple_odd_roots(d4) == (
        biweight((1, 0), (-1,)),
        biweight((0, -1), (1,)),
        biweight((0, 1), (1,)),
    )
    assert len(simple_odd_roots(osp_root_data(5))) == 4


@pytest.mark.parametrize("N", range(3, 11))
def test_roots_match_family_oracle(N):
    data = osp_root_data(N)
    assert odd_positive_roots(data) == odd_positive_roots_oracle(data)
    assert simple_odd_roots(data) == simple_odd_roots_oracle(data)


@pytest.mark.parametrize("N", range(3, 11))
def test_lagrangian_count_and_root_sum(N):
    data = osp_root_data(N)
    roots = odd_positive_roots(data)
    assert len(roots) == data.dim_v0 * data.dim_v1 // 2
    total = data.zero()
    for beta in roots:
        total = total + beta
    expected = biweight(
        tuple(2 * x for x in data.rho0), tuple(2 * x for x in data.rho1)
    )
    assert total == expected


@pytest.mark.parametrize("N", range(3, 11))
def test_simple_roots_form_positive_basis(N):
    data = osp_root_data(N)
    simples = simple_odd_roots(data)
    assert len(simples) == data.eps_rank + data.delta_rank
    for k, s in enumerate(simples):
        coords = simple_root_coordinates(data, s)
        basis_vector = tuple(1 if i == k else 0 for i in range(len(simples)))
        assert coords == basis_vector
    for beta in odd_positive_roots(data):
        coords = simple_root_coordinates(data, beta)
        assert coords is not None
        assert all(c >= 0 for c in coords)


@given(
    st.sampled_from([3, 4, 5]),
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
)
def test_coordinates_invert_nonnegative_combinations(N, coeffs):
    data = osp_root_data(N)
    simples = simple_odd_roots(data)
    coeffs = tuple(coeffs[: len(simples)])
    total = data.zero()
    for c, s in zip(coeffs, simples):
        for _ in range(c):
            total = total + s
    assert simple_root_coordinates(data, total) == coeffs


def test_simple_root_coordinates_examples():
    d3 = osp_root_data(3)
    assert simple_root_coordinates(d3, d3.zero()) == (0, 0)
    assert simple_root_coordinates(d3, biweight((1,), (1,))) == (0, 1)
    assert simple_root_coordinates(d3, biweight((1,), (0,))) is None


@pytest.mark.parametrize("N", range(3, 11))
def test_builtin_cone_scale_is_two(N):
    simples = [s.flat() for s in simple_odd_roots(osp_root_data(N))]
    assert ConeSolver(simples).scale == 2


def _combination(columns, coeffs, dim):
    return tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))


@st.composite
def query_vectors(draw, columns, dim):
    """A vector to solve for: a random lattice point, or an integer
    combination of the columns (a hit when the coefficients are
    nonnegative), or such a combination pushed off by one unit vector."""
    kind = draw(st.sampled_from(("random", "combination", "shifted")))
    if kind == "random":
        return tuple(draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)))
    coeffs = draw(st.lists(st.integers(-3, 5), min_size=len(columns), max_size=len(columns)))
    vector = list(_combination(columns, coeffs, dim))
    if kind == "shifted":
        vector[draw(st.integers(0, dim - 1))] += draw(st.sampled_from((-1, 1)))
    return tuple(vector)


@given(st.data())
def test_cone_solver_matches_oracle_on_builtin_simples(data):
    N = data.draw(st.integers(3, 10))
    columns = [s.flat() for s in simple_odd_roots(osp_root_data(N))]
    dim = len(columns[0])
    vector = data.draw(query_vectors(columns, dim))
    assert ConeSolver(columns).coordinates(vector) == cone_coordinates_oracle(columns, vector)


@st.composite
def full_rank_columns(draw):
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(1, dim))
    entry = st.integers(-4, 4)
    column = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    columns = draw(st.lists(column, min_size=k, max_size=k))
    assume(fraction_rank(columns) == k)
    return columns


@given(st.data())
def test_cone_solver_matches_oracle_on_random_columns(data):
    columns = data.draw(full_rank_columns())
    dim = len(columns[0])
    vector = data.draw(query_vectors(columns, dim))
    solver = ConeSolver(columns)
    expected = cone_coordinates_oracle(columns, vector)
    event(f"scale > 2: {solver.scale > 2}; square: {len(columns) == dim}")
    event(f"hit: {expected is not None}")
    assert solver.coordinates(vector) == expected


@given(st.data())
def test_part_sums_add_up_to_scaled_coordinates(data):
    """Split vectors at any one position: the part sums of the two pieces
    add up to check sums that vanish and row sums that are scale times the
    coordinates when the vector has coordinates; otherwise a check sum is
    nonzero or a row sum is negative or not a multiple of scale.  All the
    heads go in one call, and all the tails in another."""
    columns = data.draw(full_rank_columns())
    dim = len(columns[0])
    vectors = data.draw(st.lists(query_vectors(columns, dim), min_size=1, max_size=4))
    cut = data.draw(st.integers(0, dim))
    solver = ConeSolver(columns)
    heads = solver.part_sums([v[:cut] for v in vectors], 0)
    tails = solver.part_sums([v[cut:] for v in vectors], cut)
    assert len(heads) == len(tails) == len(vectors)
    for vector, (checks0, rows0), (checks1, rows1) in zip(vectors, heads, tails):
        checks = tuple(map(add, checks0, checks1))
        rows = tuple(map(add, rows0, rows1))
        coords = solver.coordinates(vector)
        event(f"hit: {coords is not None}; square: {len(columns) == dim}")
        if coords is not None:
            assert not any(checks) and rows == tuple(solver.scale * c for c in coords)
        else:
            assert any(checks) or any(r < 0 or r % solver.scale for r in rows)


def test_part_sums_rejects_a_part_past_the_lattice():
    solver = ConeSolver([(1, 0, 0), (0, 1, 0)])
    assert solver.part_sums([(5,)], 2) == [((5,), (0, 0))]
    assert solver.part_sums([], 0) == solver.part_sums([], 3) == []
    for part, offset in (((1, 1), 2), ((1,), -1)):
        with pytest.raises(ValueError, match="does not fit"):
            solver.part_sums([part], offset)
        with pytest.raises(ValueError, match="does not fit"):
            solver.part_sums([(0,), part], offset)


@pytest.mark.parametrize(
    "columns, vector, expected",
    [
        # square, scale 3
        ([(3, 0), (0, 1)], (3, 5), (1, 5)),
        ([(3, 0), (0, 1)], (0, 0), (0, 0)),
        ([(3, 0), (0, 1)], (1, 0), None),  # solution (1/3, 0)
        ([(3, 0), (0, 1)], (-3, 0), None),  # solution (-1, 0)
        # square, scale 5
        ([(2, 1), (1, 3)], (3, 4), (1, 1)),
        ([(2, 1), (1, 3)], (1, 0), None),  # solution (3/5, -1/5)
        # non-square: consistency row (-1/2, 0, 1) cleared to (-1, 0, 2)
        ([(2, 0, 1)], (4, 0, 2), (2,)),
        ([(2, 0, 1)], (0, 0, 0), (0,)),
        ([(2, 0, 1)], (1, 0, 1), None),  # inconsistent
        ([(2, 0, 1)], (2, 1, 1), None),  # inconsistent
        ([(2, 0, 1)], (-2, 0, -1), None),  # solution (-1,)
        # non-square, two columns in rank 3
        ([(1, 1, 0), (0, 1, 2)], (2, 5, 6), (2, 3)),
        ([(1, 1, 0), (0, 1, 2)], (1, 0, 0), None),  # inconsistent
        ([(1, 1, 0), (0, 1, 2)], (0, 1, 2), (0, 1)),
    ],
)
def test_cone_solver_examples(columns, vector, expected):
    assert cone_coordinates_oracle(columns, vector) == expected
    assert ConeSolver(columns).coordinates(vector) == expected


def test_cone_solver_scale_and_errors():
    assert ConeSolver([(3, 0), (0, 1)]).scale == 3
    assert ConeSolver([(2, 1), (1, 3)]).scale == 5
    assert ConeSolver([(1, 0), (0, 1)]).scale == 1
    for columns in ([(1, 2), (2, 4)], [(1,), (2,)], [()]):
        with pytest.raises(ValueError, match="simple roots are linearly dependent"):
            ConeSolver(columns)
    with pytest.raises(ValueError, match="inconsistent"):
        ConeSolver([(1, 2), (2,)])
    with pytest.raises(ValueError, match="rank"):
        ConeSolver([(1, 0), (0, 1)]).coordinates((1, 2, 3))


def test_dominance_examples():
    d3 = osp_root_data(3)
    lam = ((1,), (1,))
    assert dominance_ge(d3, lam, lam)
    assert dominance_ge(d3, lam, ((0,), (0,)))
    assert not dominance_ge(d3, ((1,), (0,)), ((0,), (0,)))


def test_dominance_rejects_non_dominant_input():
    d4 = osp_root_data(4)
    with pytest.raises(ValueError, match="eps"):
        dominance_ge(d4, ((0, 1), (0,)), ((0, 0), (0,)))
    with pytest.raises(ValueError, match="delta"):
        dominance_ge(d4, ((0, 0), (-1,)), ((0, 0), (0,)))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_order_characterizations_agree(N):
    data = osp_root_data(N)
    labels = labels_in_box(data, 3)
    for lam in labels:
        for mu in labels:
            assert dominance_ge(data, lam, mu) == dominance_ge_cone(data, lam, mu)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_dominance_is_partial_order(N):
    data = osp_root_data(N)
    labels = labels_in_box(data, 3)
    index = {lab: i for i, lab in enumerate(labels)}
    down = [0] * len(labels)
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            if dominance_ge(data, lam, mu):
                down[i] |= 1 << j
    for i in range(len(labels)):
        assert down[i] >> i & 1  # reflexive
        for j in range(len(labels)):
            if i != j and down[i] >> j & 1:
                assert not down[j] >> i & 1  # antisymmetric
                assert down[i] | down[j] == down[i]  # transitive


def test_cone_solver_rejects_empty_simple_set():
    with pytest.raises(ValueError, match="empty"):
        ConeSolver([])


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ((1, 3), (2, 4), [1, 2, 3, 4]),
        ((1, 3, 5), (2, 4), [1, 2, 3, 4, 5]),
        ((7,), (), [7]),
        ((), (), []),
    ],
)
def test_interleave(first, second, expected):
    assert interleave(first, second) == expected


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((3, 1, 0), (2, 2, 9), True),
        ((3, 1, 0), (2, 3, 0), False),  # second prefix 4 < 5
        ((1, 5), (2, 0), False),  # first prefix 1 < 2
        ((1, 5), (1, 9), True),  # the full sum is not compared
        ((4,), (9,), True),
    ],
)
def test_prefix_sums_ge(a, b, expected):
    assert prefix_sums_ge(a, b) is expected


def test_osp_root_data_repr_and_equality_across_instances():
    """A fresh OspRootData equals the memoised one of the same N, hashes
    like it and so reads the same memos; another N differs."""
    fresh, shared = OspRootData(4), osp_root_data(4)
    assert fresh is not shared and fresh == shared and hash(fresh) == hash(shared)
    assert repr(fresh) == "OspRootData(N=4)"
    assert fresh != OspRootData(5) and fresh != 4
    lam, mu = ((1, 0), (1,)), ((0, 0), (0,))
    assert kostka(fresh, lam, mu) == kostka(shared, lam, mu)
