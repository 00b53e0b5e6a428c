import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imprimlab.errors import (
    AmbientMismatch,
    ModulusMismatch,
    ShapeMismatch,
    Singular,
    ValidationError,
    ZeroInverse,
)
from imprimlab.linalg import (
    Matrix,
    Subspace,
    all_subspaces,
    direct_sum_check,
    ff_inv,
    gaussian_binomial,
    is_prime,
    mul_mod,
    rref,
    rref_batch,
    subspace_array,
    subspace_layout,
    subspace_tables,
)

from conftest import (
    basis_row,
    fixed_by,
    fixed_space,
    intersect,
    matrix_groups,
    subspace_sum,
)


def test_ff_inv_examples():
    for p in (2, 3, 5, 7, 13):
        assert ff_inv(1, p) == 1
    assert ff_inv(2, 7) == 4
    assert ff_inv(5, 13) == 8
    with pytest.raises(ZeroInverse):
        ff_inv(0, 7)


def test_ff_inv_is_inverse_everywhere():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert a * ff_inv(a, p) % p == 1


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(49)


def test_mat_mul_identity():
    m = Matrix([[1, 2], [0, 1]], 5)
    assert Matrix.identity(2, 5) * m == m


def test_mat_mul_diagonal_inverses():
    assert Matrix.diagonal([2], 7) * Matrix.diagonal([4], 7) == Matrix.diagonal([1], 7)


def test_mat_mul_square_of_order_six_generator():
    # hand multiplication: [[-1,1],[0,-1]]^2 = [[1,-2],[0,1]] = [[1,1],[0,1]] mod 3
    y = Matrix([[-1, 1], [0, -1]], 3)
    assert y * y == Matrix([[1, 1], [0, 1]], 3)


def test_mat_mul_errors():
    with pytest.raises(ShapeMismatch):
        Matrix([[1, 0]], 3) * Matrix([[1, 0]], 3)
    with pytest.raises(ModulusMismatch):
        Matrix([[1]], 3) * Matrix([[1]], 5)


def test_mat_inv_examples():
    assert Matrix.identity(3, 7).inv() == Matrix.identity(3, 7)
    assert Matrix.diagonal([2, 3], 7).inv() == Matrix.diagonal([4, 5], 7)
    with pytest.raises(Singular):
        Matrix([[1, 2], [2, 4]], 5).inv()


def test_mat_inv_random_matrices():
    rng = random.Random(20240229)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 13])
        n = rng.randint(1, 4)
        while True:
            m = Matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            if m.is_invertible():
                break
        assert (m * m.inv()).is_identity()
        assert (m.inv() * m).is_identity()


def test_rref_examples():
    eye = np.eye(3, dtype=np.int64)
    r, rank, pivots = rref(eye, 5)
    assert np.array_equal(r, eye) and rank == 3 and pivots == (0, 1, 2)

    r, rank, _ = rref(np.zeros((2, 4), dtype=np.int64), 5)
    assert rank == 0 and not r.any()

    r, rank, _ = rref(np.array([[1, 2], [2, 4]]), 5)
    assert np.array_equal(r, [[1, 2], [0, 0]]) and rank == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rref_idempotent(p, m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    a = np.array(rows, dtype=np.int64)
    r1, rank1, piv1 = rref(a, p)
    r2, rank2, piv2 = rref(r1, p)
    assert np.array_equal(r1, r2)
    assert rank1 == rank2 and piv1 == piv2


@given(
    st.sampled_from([2, 3, 5, 7, 131, 2147483647]),
    st.integers(1, 4),
    st.integers(1, 8),
    st.data(),
)
def test_rref_batch_matches_rref(p, m, n, data):
    stack = data.draw(
        st.lists(
            st.lists(
                st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ),
            min_size=1,
            max_size=6,
        )
    )
    batch = rref_batch(np.array(stack, dtype=np.int64), p)
    for a, r in zip(stack, batch):
        assert np.array_equal(r, rref(np.array(a), p)[0])


def test_rref_batch_does_not_overflow_for_large_moduli():
    # the last row drops the three earlier rows in one product, whose entry
    # in column 3 sums three times (p - 1)^2: past the int64 range
    p = 2**31 - 1
    a = np.array([[1, 0, 0, p - 1, 1], [0, 1, 0, p - 1, 0], [0, 0, 1, p - 1, 0],
                  [p - 1, p - 1, p - 1, 0, 0]])
    assert np.array_equal(rref_batch(a[None], p)[0], rref(a, p)[0])


def test_rref_constant_on_row_equivalent_inputs():
    # random row operations must not change the canonical form
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)])
        b = a.copy()
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                b[i] = (b[i] + rng.randrange(1, p) * b[j]) % p
            else:
                b[i] = (b[i] * rng.randrange(1, p)) % p
        assert np.array_equal(rref(a, p)[0], rref(b, p)[0])


def test_subspace_span_examples():
    zero = Subspace.span([], 3, 5)
    assert zero.rank == 0

    w = Subspace.span([basis_row(0, 3), 2 * basis_row(0, 3)], 3, 5)
    assert w.rank == 1
    assert np.array_equal(w.basis, [[1, 0, 0]])

    w = Subspace.span([[1, 1, 0, 0], [1, -1, 0, 0]], 4, 7)
    assert w.rank == 2
    assert np.array_equal(w.basis, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_subspace_span_of_own_basis_is_identity():
    rng = random.Random(99)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 5)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        w = Subspace.span(rows, n, p)
        assert Subspace.span(w.basis, n, p) == w


def test_subspace_ordering_key():
    # rank first, then flattened entries: [[0,1]] precedes [[1,0]]
    a = Subspace.span([basis_row(0, 2)], 2, 3)
    b = Subspace.span([basis_row(1, 2)], 2, 3)
    full = Subspace.full(2, 3)
    assert sorted([full, a, b]) == [b, a, full]


def test_direct_sum_check_examples():
    e1 = Subspace.span([basis_row(0, 2)], 2, 3)
    e2 = Subspace.span([basis_row(1, 2)], 2, 3)
    mixed = Subspace.span([[1, 1]], 2, 3)
    assert direct_sum_check([e1, e2])
    assert not direct_sum_check([e1, mixed, e2])

    plus = Subspace.span([[1, 1]], 2, 7)
    minus = Subspace.span([[1, -1]], 2, 7)
    assert direct_sum_check([plus, minus])

    with pytest.raises(AmbientMismatch):
        direct_sum_check([e1, Subspace.span([[1, 0, 0]], 3, 3)])


def test_subspace_intersect_examples():
    w = Subspace.span([[1, 2, 0], [0, 0, 1]], 3, 5)
    assert intersect(w, w) == w

    e1 = Subspace.span([basis_row(0, 3)], 3, 5)
    e2 = Subspace.span([basis_row(1, 3)], 3, 5)
    assert intersect(e1, e2).rank == 0

    w12 = Subspace.span([basis_row(0, 3), basis_row(1, 3)], 3, 5)
    w23 = Subspace.span([basis_row(1, 3), basis_row(2, 3)], 3, 5)
    assert intersect(w12, w23) == e2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.data())
def test_dimension_formula(p, n, data):
    def draw_subspace():
        m = data.draw(st.integers(0, n))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        return Subspace.span(rows, n, p)

    w1, w2 = draw_subspace(), draw_subspace()
    total = subspace_sum(w1, w2)
    meet = intersect(w1, w2)
    assert total.rank + meet.rank == w1.rank + w2.rank
    assert total.contains(w1) and total.contains(w2)
    assert w1.contains(meet) and w2.contains(meet)


def test_fixed_space_examples():
    assert fixed_space(Matrix.identity(3, 5)) == Subspace.full(3, 5)

    g = Matrix.diagonal([-1, 1, 1, 1], 7)
    fixed = fixed_space(g)
    assert fixed.rank == 3
    assert fixed == Subspace.span(
        [basis_row(1, 4), basis_row(2, 4), basis_row(3, 4)], 4, 7
    )

    assert fixed_space(Matrix.diagonal([2, 2, 2], 7)).rank == 0


def test_fixed_space_rows_are_fixed():
    rng = random.Random(4)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 4)
        while True:
            g = Matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
            if g.is_invertible():
                break
        fixed = fixed_space(g)
        for row in fixed.basis:
            assert np.array_equal(row @ g.a % p, row)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 2, 7) == 2850
    assert gaussian_binomial(6, 3, 3) == 33880
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 4, 5) == 0


@pytest.mark.parametrize(
    "n,d,p",
    [(2, 1, 3), (3, 1, 5), (3, 2, 3), (4, 2, 3), (4, 1, 7), (4, 3, 3)],
)
def test_all_subspaces_complete_and_distinct(n, d, p):
    subs = list(all_subspaces(n, d, p))
    assert len(subs) == gaussian_binomial(n, d, p)
    assert len({s.key for s in subs}) == len(subs)
    for s in subs:
        assert s.rank == d


def reference_subspaces(n, d, p):
    """The echelon bases of all d-subspaces, one at a time, in scan order."""
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_cells = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            mat = np.zeros((d, n), dtype=np.int64)
            mat[range(d), pivots] = 1
            for (i, j), v in zip(free_cells, values):
                mat[i, j] = v
            out.append(mat)
    return out


@pytest.mark.parametrize(
    "n,d,p",
    [(1, 1, 2), (2, 1, 3), (3, 0, 5), (3, 2, 5), (4, 2, 3), (4, 3, 2), (2, 3, 3)],
)
def test_subspace_array_order_and_all_subspaces_agree(n, d, p):
    subs = subspace_array(n, d, p)
    expected = reference_subspaces(n, d, p)
    assert subs.shape == (len(expected), d, n)
    assert all(np.array_equal(a, b) for a, b in zip(subs, expected))
    yielded = list(all_subspaces(n, d, p))
    assert [w.basis.tolist() for w in yielded] == [b.tolist() for b in expected]
    assert all(w == Subspace.span(w.basis, n, p) for w in yielded)


def test_subspace_tables_are_the_generator_actions():
    p = 3
    gens = [Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], p), Matrix.diagonal([2, 1, 1], p)]
    subs = subspace_array(3, 2, p)
    tables = subspace_tables(gens, subs, p)
    assert tables.dtype == np.int32 and tables.shape == (2, len(subs))
    for table, g in zip(tables, gens):
        assert sorted(table) == list(range(len(subs)))
        for i, j in enumerate(table):
            image = Subspace.span(subs[i].astype(np.int64) @ g.a, 3, p)
            assert np.array_equal(subs[j], image.basis)
    with pytest.raises(Singular):
        subspace_tables([Matrix.diagonal([1, 1, 0], p)], subs, p)


def test_subspace_layout_is_built_once_and_read_only():
    combos, offsets, weights = layout = subspace_layout(4, 2, 3)
    assert subspace_layout(4, 2, 3) is layout
    assert isinstance(combos, tuple) and offsets.tolist() == [0, 81, 108, 117, 126, 129, 130]
    for array in (offsets, weights):
        with pytest.raises(ValueError):
            array[0] = 1


@st.composite
def layouts(draw):
    """(n, d, p) with n <= 5, p in {2, 3, 5, 7, 13} and 1 <= d <= n, except
    the two shapes with 5.3 million subspaces (n = 5, d in {2, 3}, p = 13)."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, n))
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    assume(gaussian_binomial(n, d, p) <= 200_000)
    return n, d, p


@example((5, 2, 7))  # the largest included shape: 140 050 planes
@given(layouts())
def test_every_subspace_ranks_to_its_own_index(layout):
    n, d, p = layout
    subs = subspace_array(n, d, p)
    assert len(subs) == gaussian_binomial(n, d, p)
    # the documented order: pivot columns lexicographically, then the
    # entries row by row with the last cell fastest, each subspace once
    keys = np.concatenate([(subs != 0).argmax(axis=2), subs.reshape(len(subs), -1)], axis=1)
    assert np.array_equal(np.lexsort(keys.T[::-1]), np.arange(len(subs)))
    assert len(np.unique(keys, axis=0)) == len(subs)
    tables = subspace_tables([Matrix.identity(n, p)], subs, p)
    assert np.array_equal(tables[0], np.arange(len(subs)))


@given(matrix_groups(max_n=4, primes=(2, 3, 5, 7, 13)), st.data())
def test_subspace_tables_match_the_span_oracle(gens, data):
    n, p = gens[0].rows, gens[0].p
    d = data.draw(st.integers(1, n))
    assume(gaussian_binomial(n, d, p) <= 3000)
    subs = subspace_array(n, d, p)
    index = {tuple(rows.ravel().tolist()): i for i, rows in enumerate(subs)}
    tables = subspace_tables(gens, subs, p)
    for table, g in zip(tables, gens):
        oracle = [
            index[tuple(Subspace.span(rows.astype(np.int64) @ g.a, n, p).basis.ravel().tolist())]
            for rows in subs
        ]
        assert table.tolist() == oracle


@given(matrix_groups(max_n=4, primes=(2, 3, 5, 7, 13)), st.data())
def test_rank_deficient_generator_raises_singular(gens, data):
    n, p = gens[0].rows, gens[0].p
    d = data.draw(st.integers(1, n))
    assume(gaussian_binomial(n, d, p) <= 3000)
    # dropping one row of an invertible matrix leaves rank n - 1, so some
    # d-subspace meets the kernel and maps onto a smaller one
    keep = np.ones(n, dtype=np.int64)
    keep[data.draw(st.integers(0, n - 1))] = 0
    singular = Matrix(keep[:, None] * gens[-1].a, p)
    with pytest.raises(Singular):
        subspace_tables([*gens[:-1], singular], subspace_array(n, d, p), p)


def test_containment_does_not_overflow_for_large_moduli():
    # pivot coordinates near p times basis entries near p: one int64 sum of
    # three such products overflows
    p = 2**31 - 1
    w = Subspace.span([[1, 0, 0, p - 1], [0, 1, 0, p - 2], [0, 0, 1, p - 3]], 4, p)
    minus_sum = [p - 1, p - 1, p - 1, 6]  # -(sum of the basis rows)
    assert w.contains_rows([minus_sum])
    assert not w.contains_rows([[p - 1, p - 1, p - 1, 7]])
    # maps every basis row to minus_sum, so maps w into itself
    g = np.array([minus_sum] * 3 + [[0, 0, 0, 0]], dtype=np.int64)
    assert fixed_by(w, g[None]).tolist() == [True]
    assert mul_mod(np.array([[p - 1] * 3]), w.basis, p).tolist() == [minus_sum]


def test_matrix_rejects_nonprime_modulus():
    with pytest.raises(ValidationError):
        Matrix([[1]], 6)


def test_negative_entries_are_reduced():
    m = Matrix([[-1, -3]], 7)
    assert np.array_equal(m.a, [[6, 4]])
