import itertools

import numpy as np
import pytest

from imprimlab.errors import (
    InconsistentCharacter,
    LengthMismatch,
    NotASubgroup,
    NotStabilized,
    ValidationError,
    ZeroVector,
)
from imprimlab.groups import MatrixGroup, cyclic_group, general_linear_group, symmetric_group
from imprimlab.linalg import Matrix, Subspace
from imprimlab.reprs import (
    Character,
    hom_dimension,
    induced_module,
    invariant_subspaces,
    is_irreducible,
    is_monomial,
    is_primitive_linear,
    projective_representatives,
    restrict_matrix,
    restrict_to_block,
    spin,
)
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import basis_row, sign_group


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
    assert sub.contains_vector([1, 2, 0])
    for gen in g.gens:
        assert sub.contains_rows(sub.basis @ gen.a % 3)
    for row in sub.basis:
        assert spin(g, row) == sub


def test_projective_representatives_count():
    reps = list(projective_representatives(3, 3))
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
            [b.transpose() for b in gens_b], [a.transpose() for a in gens_a], p
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
    for g in gl.elements:
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
    elems = gl.elements
    for a, b in zip(elems[::7], elems[5::7]):
        assert rep.image(a) * rep.image(b) == rep.image(a * b)


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


def test_invariant_subspaces_of_diagonal_group():
    found = invariant_subspaces(diag_group().gens, 2, 3)
    assert sorted(s.basis.tolist() for s in found) == [[[0, 1]], [[1, 0]]]
