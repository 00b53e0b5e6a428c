import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imprimlab import reprs
from imprimlab.errors import (
    InconsistentCharacter,
    LengthMismatch,
    ModulusMismatch,
    NotASubgroup,
    NotStabilized,
    PhaseCapExceeded,
    ShapeMismatch,
    ValidationError,
    ZeroVector,
    limits,
)
from imprimlab.groups import MatrixGroup, cyclic_group, general_linear_group, symmetric_group
from imprimlab.imprim import is_primitive_linear
from imprimlab.linalg import Matrix, Subspace, mul_mod, subspace_array, subspace_layout
from imprimlab.reprs import (
    Character,
    algebra_dimension,
    hom_dimension,
    induced_module,
    invariant_subspaces,
    is_irreducible,
    restrict_matrix,
    restrict_to_block,
    spin,
)
from imprimlab.verify import induced_example_report
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import (
    basis_row,
    block_diagonal_product,
    contains_vector,
    count_calls,
    elements,
    is_monomial,
    matrix_groups,
    sign_group,
    transpose,
)


def diag_group():
    return MatrixGroup([Matrix.diagonal([1, -1], 3)])


def sign_wreath(k_group, p):
    return wreath_product(WreathSpec(sign_group(p), k_group))


def test_spin_examples():
    g = diag_group()
    assert spin(g, basis_row(0, 2)) == Subspace.span([basis_row(0, 2)], 2, 3)
    assert spin(g, [1, 1]).rank == 2

    gl = general_linear_group(2, 3)
    for v in ([1, 0], [1, 2], [0, 1]):
        assert spin(gl, v).rank == 2

    with pytest.raises(ZeroVector):
        spin(g, [0, 0])


def test_spin_minimality_witness():
    g = sign_wreath(symmetric_group(3), 3)
    sub = spin(g, [1, 2, 0])
    assert contains_vector(sub, [1, 2, 0])
    for gen in g.gens:
        assert sub.contains_rows(sub.basis @ gen.a % 3)
    for row in sub.basis:
        assert spin(g, row) == sub


def test_projective_representatives_count():
    reps = subspace_array(3, 1, 3)[:, 0]
    assert len(reps) == (3**3 - 1) // (3 - 1) == 13
    assert all(tuple(v)[: list(v).index(1)] == () or v[0] in (0, 1) for v in reps)


def test_is_irreducible_examples():
    assert not is_irreducible(diag_group())
    assert is_irreducible(sign_wreath(symmetric_group(3), 3))
    assert is_irreducible(general_linear_group(2, 3))
    assert is_irreducible(sign_group(7))  # degree 1


def test_irreducible_matches_full_vector_scan():
    groups = [
        diag_group(),
        general_linear_group(2, 3),
        sign_wreath(cyclic_group(2), 3),
        sign_wreath(symmetric_group(3), 3),
        MatrixGroup([Matrix([[2]], 7)]),
    ]
    for g in groups:
        full = all(
            spin(g, np.array(v)).rank == g.n
            for v in itertools.product(range(g.p), repeat=g.n)
            if any(v)
        )
        assert is_irreducible(g) == full


def spin_reference(g, v):
    """Smallest g-invariant subspace containing v, grown one image at a time."""
    sub = Subspace.span([v], g.n, g.p)
    grown = True
    while grown:
        grown = False
        for gen in g.gens:
            for row in sub.basis @ gen.a % g.p:
                if not contains_vector(sub, row):
                    sub = Subspace.span([*sub.basis, row], g.n, g.p)
                    grown = True
    return sub


def spin_oracle(g):
    """Irreducibility by spinning one vector per projective point."""
    return all(
        spin_reference(g, v).rank == g.n for v in subspace_array(g.n, 1, g.p)[:, 0]
    )


@given(matrix_groups(max_n=4), st.data())
def test_spin_matches_reference(gens, data):
    g = MatrixGroup(gens)
    v = data.draw(st.lists(st.integers(0, g.p - 1), min_size=g.n, max_size=g.n)
                  .filter(any))
    assert spin(g, v) == spin_reference(g, v)


def companion_matrix(coefficients, p):
    """The companion matrix of x^n - sum c_i x^i, for the row action."""
    n = len(coefficients)
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n - 1), np.arange(1, n)] = 1
    a[n - 1] = coefficients
    return a % p


def companion_group(coefficients, p):
    """The cyclic group of the companion matrix of x^n - sum c_i x^i."""
    return MatrixGroup([Matrix(companion_matrix(coefficients, p), p)])


def is_irreducible_polynomial(coefficients, p):
    """x^n - sum c_i x^i has no monic factor of degree 1..n/2 over GF(p), by
    trial division; coefficients run from x^0 up."""
    n = len(coefficients)
    f = [-c % p for c in coefficients] + [1]
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rest, factor = list(f), [*low, 1]
            for shift in range(n - d, -1, -1):
                lead = rest[shift + d]
                for i, c in enumerate(factor):
                    rest[shift + i] = (rest[shift + i] - lead * c) % p
            if not any(rest):
                return False
    return True


@st.composite
def irreducible_companions(draw, max_n=4):
    """(A, p): the companion matrix of an irreducible polynomial of degree
    1..max_n over GF(p).  For degree >= 2 its group is irreducible but not
    absolutely irreducible: the commutant is GF(p^n)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, max_n))
    coefficients = draw(st.tuples(st.integers(1, p - 1),
                                  *[st.integers(0, p - 1)] * (n - 1))
                        .filter(lambda c: is_irreducible_polynomial(c, p)))
    return companion_matrix(coefficients, p), p


@st.composite
def constructed_groups(draw):
    """Generators of four families the random strategy rarely meets:
    - a power of an irreducible companion matrix, a subgroup of a Singer
      cycle, often irreducible but not absolutely irreducible;
    - U + ... + U, k >= 2 copies of one irreducible companion block A on
      the diagonal;
    - a uniserial group: k >= 2 copies of one irreducible companion block A
      on the diagonal, identities just above it, [[A, I], [0, A]] for k = 2;
    - a random group with a trivial summand, diag(g, I).
    Every group has degree at most 4."""
    family = draw(st.sampled_from(["singer", "repeated", "uniserial", "trivial-summand"]))
    if family == "trivial-summand":
        g = MatrixGroup(draw(matrix_groups(max_n=3)))
        trivial = MatrixGroup([Matrix.identity(draw(st.integers(1, 4 - g.n)), g.p)])
        return list(block_diagonal_product([g, trivial])[0].gens)
    a, p = draw(irreducible_companions(max_n=4 if family == "singer" else 2))
    d = len(a)
    if family == "singer":
        power = np.eye(d, dtype=np.int64)
        for _ in range(draw(st.integers(1, p ** d - 1))):
            power = power @ a % p
        return [Matrix(power, p)]
    k = draw(st.integers(2, 4 // d))
    m = np.kron(np.eye(k, dtype=np.int64), a)
    if family == "uniserial":
        m += np.kron(np.eye(k, k=1, dtype=np.int64), np.eye(d, dtype=np.int64))
    return [Matrix(m, p)]


@given(st.one_of(matrix_groups(max_n=4), constructed_groups()))
def test_irreducible_matches_spin_oracle(gens):
    g = MatrixGroup(gens)
    assert is_irreducible(g) == spin_oracle(g)


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(matrix_groups(max_n=2, primes=(p,)), min_size=2, max_size=2)),
    st.data())
def test_block_triangular_groups_are_reducible(factor_gens, data):
    # block-diagonal products, then random entries above the diagonal blocks;
    # either way the last block's coordinates span an invariant subspace
    product, dims, _ = block_diagonal_product([MatrixGroup(gens) for gens in factor_gens])
    a, n, p = dims[0], product.n, product.p
    above = st.lists(st.integers(0, p - 1), min_size=a * (n - a), max_size=a * (n - a))
    gens = []
    for m in product.gens:
        glued = m.a.copy()
        glued[:a, a:] = np.reshape(data.draw(above), (a, n - a))
        gens.append(Matrix(glued, p))
    g = MatrixGroup(gens)
    assert is_irreducible(g) is spin_oracle(g) is False


@pytest.mark.parametrize(
    "g,irreducible",
    [
        (companion_group([2, 0], 3), True),  # x^2 + 1 over GF(3)
        (companion_group([1, 1, 0], 3), True),  # x^3 - x - 1 over GF(3)
        (diag_group(), False),
        (MatrixGroup([Matrix([[1, 1], [0, 1]], 3)]), False),
        # order 72, with one invariant subspace, of dimension 2
        (MatrixGroup([Matrix([[0, 0, 1, 1], [2, 2, 1, 2], [2, 2, 0, 0], [2, 1, 2, 2]], 3),
                      Matrix([[0, 2, 1, 0], [1, 1, 2, 2], [0, 1, 2, 2], [1, 0, 1, 0]], 3)]),
         False),
    ],
    ids=["x2+1", "x3-x-1", "diagonal", "jordan-block", "noncommutative-commutant"],
)
def test_uncertified_groups_are_decided_without_a_spin(monkeypatch, g, irreducible):
    # irreducible but not absolutely irreducible, or reducible: the
    # enveloping algebra is smaller than M_n, and the commutant, of dimension
    # n in each case, decides.  It is GF(p^n); or the diagonal matrices, no
    # field, as x -> x^p fixes each one; or the polynomials in the Jordan
    # block J, where (J - I)^p = 0; or, for the group of order 72, a
    # local ring with 72 units that is not commutative.  The p-th powers of
    # that ring's basis happen to be independent, so only the commutativity
    # check rejects it.
    assert algebra_dimension(g) == g.n < g.n * g.n
    assert hom_dimension(g.gens, g.gens, g.p) == g.n
    spins = count_calls(monkeypatch, spin)
    assert is_irreducible(g) is irreducible
    assert spins == []


def test_algebra_products_do_not_overflow_for_large_moduli():
    # sixteen products (p-1)^2 ~ 2^60 overflow one int64 sum; mod p each is 1
    p = 1_073_741_789
    rows = np.full((2, 16), p - 1, dtype=np.int64)
    assert (mul_mod(rows, rows.T, p) == 16).all()


def test_uncertified_groups_are_decided_under_any_subspace_cap():
    # the criterion loops over no subspaces, so the smallest cap does not
    # stop it; a spin over the 4, 13 and 9 841 projective points would
    singer = wreath_product(WreathSpec(companion_group([2, 1, 0], 3), symmetric_group(3)))
    assert algebra_dimension(singer) == 27 < 81
    with limits(subspaces=1):
        assert is_irreducible(companion_group([2, 0], 3))
        assert is_irreducible(companion_group([1, 1, 0], 3))
        assert is_irreducible(singer)
        assert is_irreducible(general_linear_group(2, 3))


def test_large_groups_are_certified_without_a_spin(monkeypatch):
    irreducible = count_calls(monkeypatch, is_irreducible)
    spins = count_calls(monkeypatch, spin)
    assert reprs.is_irreducible(sign_wreath(symmetric_group(6), 3))
    assert induced_example_report(13).passed
    # the wreath, the induced group, its restrictions to summands and to the
    # planes of its plane systems (line systems need no restriction)
    assert {args[0].n for args in irreducible} == {6, 4, 2}
    assert spins == []


def test_is_primitive_linear():
    assert is_primitive_linear(general_linear_group(2, 3))
    assert not is_primitive_linear(sign_wreath(cyclic_group(2), 3))
    assert is_primitive_linear(sign_group(7))
    assert not is_primitive_linear(diag_group())  # reducible


def test_hom_dimension_trivial_group():
    eye = Matrix.identity(2, 5)
    assert hom_dimension([eye], [eye], 5) == 4


def test_hom_dimension_self_hom_contains_identity():
    gl = general_linear_group(2, 3)
    assert hom_dimension(list(gl.gens), list(gl.gens), 3) >= 1


def test_hom_dimension_length_mismatch():
    eye = Matrix.identity(2, 5)
    with pytest.raises(LengthMismatch):
        hom_dimension([eye], [eye, eye], 5)


def test_hom_dimension_transpose_symmetry():
    # X -> X^T swaps the two sides of the intertwining equation
    import random

    rng = random.Random(11)
    for _ in range(15):
        p = rng.choice([3, 5, 7])
        na, nb = rng.randint(1, 3), rng.randint(1, 3)

        def draw(n):
            while True:
                m = Matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
                if m.is_invertible():
                    return m

        gens_a = [draw(na) for _ in range(2)]
        gens_b = [draw(nb) for _ in range(2)]
        forward = hom_dimension(gens_a, gens_b, p)
        backward = hom_dimension(
            [transpose(b) for b in gens_b], [transpose(a) for a in gens_a], p
        )
        assert forward == backward


def test_character_consistency():
    d12 = MatrixGroup(
        [Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)]
    )
    theta = Character(d12, [1, 6], 7)
    x, y = d12.gens
    assert theta(x) == 1 and theta(y) == 6
    assert theta(y * y) == 1
    assert theta(x * y) == 6

    # the generator has order 2, so a value of order 6 cannot extend
    c2 = MatrixGroup([Matrix([[-1]], 3)])
    with pytest.raises(InconsistentCharacter):
        Character(c2, [3], 7)
    with pytest.raises(ValidationError):
        Character(c2, [0], 7)


def test_induced_module_index_one():
    g = MatrixGroup([Matrix([[-1]], 3)])
    rep = induced_module(g, g, Character(g, [1], 7))
    assert rep.degree == 1
    assert rep.group.order == 1  # trivial character kills the group


def test_induced_module_index_two_trivial_character():
    gl = general_linear_group(2, 3)
    upper = Matrix([[1, 1], [0, 1]], 3)
    lower = Matrix([[1, 0], [1, 1]], 3)
    special = MatrixGroup([upper, lower])
    assert special.order == 24
    rep = induced_module(gl, special, Character(special, [1, 1], 7))
    assert rep.degree == 2
    for g in elements(gl):
        image = rep.image(g)
        assert is_monomial(image)
        assert set(image.a.ravel().tolist()) <= {0, 1}


def test_induced_module_monomial_and_homomorphism():
    gl = general_linear_group(2, 3)
    d12 = MatrixGroup(
        [Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)]
    )
    rep = induced_module(gl, d12, Character(d12, [1, 6], 7))
    assert rep.degree == 4
    for g in gl.gens:
        assert is_monomial(rep.image(g))
    # homomorphism on a sample beyond the generator pairs checked at build
    elems = elements(gl)
    for a, b in zip(elems[::7], elems[5::7]):
        assert rep.image(a) * rep.image(b) == rep.image(a * b)


def induced_image_oracle(source, subgroup, character):
    """image(x) from a coset table keyed by Matrix.key tuples.

    Each coset H x is represented by its first element in the ambient
    group's enumeration order; the entry (i, j) of image(x) is the
    character's value at t_i x t_j^-1, where t_i x lies in H t_j.
    """
    reps, index = [], {}
    for x in elements(source):
        if x.key not in index:
            for h in elements(subgroup):
                index[(h * x).key] = len(reps)
            reps.append(x)
    rep_invs = [t.inv() for t in reps]

    def image(x):
        out = np.zeros((len(reps), len(reps)), dtype=np.int64)
        for i, t in enumerate(reps):
            u = t * x
            j = index[u.key]
            out[i, j] = character(u * rep_invs[j])
        return Matrix(out, character.modulus)

    return image


@pytest.mark.parametrize("q", [7, 13])
@pytest.mark.parametrize("name", ["dihedral12", "sl23", "gl23"])
def test_induced_images_match_the_coset_table_oracle(q, name):
    gl = general_linear_group(2, 3)
    omega = next(w for w in range(2, q) if pow(w, 3, q) == 1)  # a cube root of 1
    sub, values = {
        "dihedral12": (MatrixGroup([Matrix([[1, 0], [0, -1]], 3),
                                    Matrix([[-1, 1], [0, -1]], 3)]), [1, q - 1]),
        "sl23": (MatrixGroup([Matrix([[1, 1], [0, 1]], 3), Matrix([[1, 0], [1, 1]], 3)]),
                 [omega, omega * omega % q]),
        "gl23": (gl, [q - 1, q - 1, 1]),  # the sign of the determinant
    }[name]
    character = Character(sub, values, q)
    rep = induced_module(gl, sub, character)
    oracle = induced_image_oracle(gl, sub, character)
    assert rep.degree == 48 // sub.order
    for g in elements(gl):
        assert rep.image(g) == oracle(g)


def test_induced_module_rejects_non_subgroup():
    d12 = MatrixGroup(
        [Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)]
    )
    lower = MatrixGroup([Matrix([[1, 0], [1, 1]], 3)])
    with pytest.raises(NotASubgroup):
        induced_module(d12, lower, Character(lower, [1], 7))


def test_restrict_to_block_examples():
    gl = general_linear_group(2, 3)
    full = Subspace.full(2, 3)
    same = restrict_to_block(list(gl.gens), full)
    assert {m.key for m in same.gens} == {m.key for m in gl.gens}

    wr = sign_wreath(cyclic_group(2), 3)
    e1 = Subspace.span([basis_row(0, 2)], 2, 3)
    base_gens = [g for g in wr.gens if e1.contains_rows(e1.basis @ g.a % 3)]
    restricted = restrict_to_block(base_gens, e1)
    assert restricted.n == 1
    assert restricted.order == 2

    swap = Matrix([[0, 1], [1, 0]], 3)
    with pytest.raises(NotStabilized):
        restrict_matrix(swap, e1)


def test_restricted_group_lists_under_the_element_cap():
    gl = general_linear_group(2, 3)
    with limits(elements=10):
        same = restrict_to_block(list(gl.gens), Subspace.full(2, 3))
        with pytest.raises(PhaseCapExceeded, match="^group closure: .* the cap of 10$"):
            same.element_array


@pytest.mark.parametrize("call, error", [
    # two GF(3) lines were found for a GF(5) generator
    (lambda: invariant_subspaces([Matrix([[0, 1], [4, 0]], 5)], 2, 3), ModulusMismatch),
    (lambda: invariant_subspaces([Matrix.identity(3, 3)], 2, 3), ShapeMismatch),
    # a GF(3) group came back
    (lambda: restrict_to_block([Matrix.diagonal([1, 4], 5)],
                               Subspace.span([[1, 0]], 2, 3)), ModulusMismatch),
    (lambda: restrict_to_block([Matrix.identity(3, 3)], Subspace.span([[1, 0]], 2, 3)),
     ShapeMismatch),
    (lambda: restrict_to_block(np.eye(4, dtype=np.int64)[None],
                               Subspace.span([[1, 0]], 2, 3)), ShapeMismatch),
    # a GF(3) matrix came back
    (lambda: restrict_matrix(Matrix.diagonal([1, 4], 5), Subspace.span([[1, 0]], 2, 3)),
     ModulusMismatch),
    # 1, where over GF(5) the answer is 0
    (lambda: hom_dimension([Matrix([[3]], 5)], [Matrix([[0]], 5)], 3), ModulusMismatch),
    (lambda: hom_dimension([Matrix.identity(2, 3)], [Matrix.identity(2, 3), Matrix.identity(1, 3)],
                           3), LengthMismatch),
    (lambda: hom_dimension([Matrix.identity(2, 3), Matrix.identity(1, 3)],
                           [Matrix.identity(2, 3)] * 2, 3), ShapeMismatch),
    (lambda: hom_dimension([], [], 3), LengthMismatch),
    # a subspace of GF(3)^1, and a numpy ValueError
    (lambda: spin(general_linear_group(2, 3), [1]), ShapeMismatch),
    (lambda: spin(general_linear_group(2, 3), [1, 0, 0]), ShapeMismatch),
    # a ZeroDivisionError, and a character "into" Z/4
    (lambda: Character(MatrixGroup([Matrix([[2]], 3)]), [1], 0), ValidationError),
    (lambda: Character(MatrixGroup([Matrix([[2]], 3)]), [2], 4), ValidationError),
])
def test_representation_functions_refuse_another_field_or_shape(call, error):
    # the exact class: an InconsistentCharacter over Z/4 is no answer about
    # the modulus, though it is a ValidationError too
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error
    assert issubclass(error, ValidationError)


def test_hom_dimension_over_the_generators_field():
    assert hom_dimension([Matrix([[3]], 5)], [Matrix([[0]], 5)], 5) == 0


def test_invariant_subspaces_of_diagonal_group():
    found = invariant_subspaces(diag_group().gens, 2, 3)
    assert sorted(s.basis.tolist() for s in found) == [[[0, 1]], [[1, 0]]]


@pytest.mark.parametrize("dims", [[2], [0], [3], [1, 2], [-1]])
def test_invariant_subspaces_rejects_dimensions_outside_the_proper_range(dims):
    # only 1..n-1: dims=[2] used to return the full space, [0] a numpy
    # ValueError, and [3] an empty list
    gens = diag_group().gens
    with pytest.raises(ValidationError, match=r"not all in 1\.\.1"):
        invariant_subspaces(gens, 2, 3, dims=dims)
    assert len(invariant_subspaces(gens, 2, 3, dims=[1])) == 2


@pytest.mark.parametrize("p", [4, 1, 0])
def test_subspace_scans_refuse_a_modulus_that_is_not_prime(p):
    # with no generator to carry a field, the scan ran over Z/4 (5
    # "subspaces"), divided by zero for 1 and warned for 0
    for call in (lambda: invariant_subspaces([], 2, p), lambda: subspace_layout(2, 1, p)):
        with pytest.raises(ValidationError, match=f"^modulus {p} is not prime$"):
            call()


def test_invariant_subspace_scan_counts_against_the_subspace_cap():
    gens = general_linear_group(4, 5).gens
    with limits(elements=10, subspaces=10):
        with pytest.raises(PhaseCapExceeded, match="^subspace scan: 806 subspaces of "
                           "dimension 2 exceed the cap of 10$"):
            invariant_subspaces(gens, 4, 5, dims=[2])
    with limits(subspaces=806):
        assert invariant_subspaces(gens, 4, 5, dims=[2]) == []
