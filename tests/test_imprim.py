import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imprimlab.errors import (
    AmbientMismatch,
    NotTransitiveOnParts,
    PhaseCapExceeded,
    ValidationError,
    limits,
)
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    cyclic_group,
    first_occurrences,
    general_linear_group,
    symmetric_group,
)
from imprimlab.imprim import (
    ImprimitivitySystem,
    all_systems,
    coordinate_system,
    image_table,
    is_primitive_linear,
    is_refinement,
    is_system,
    nonrefinable,
    nonrefinable_systems,
    nonrefinable_via_stabilizer,
    part_stabilizer_elements,
    part_table,
    subspace_orbit,
)
from imprimlab.linalg import Matrix, Subspace, echelon_subspace
from imprimlab.reprs import Character, induced_module, invariant_subspaces, restrict_to_block
from imprimlab.verify import regression_theorem_instances
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import (
    basis_row,
    block_diagonal_product,
    count_calls,
    fixed_by,
    matrix_groups,
    perm,
    sign_group,
    subspace_array,
    subspace_sum,
    summand_subspaces,
)


def sign_wreath(k_group, p):
    return wreath_product(WreathSpec(sign_group(p), k_group))


def line(coeffs, n, p):
    return Subspace.span([coeffs], n, p)


def test_subspace_orbit_examples():
    wr = sign_wreath(cyclic_group(2), 3)
    e1 = line(basis_row(0, 2), 2, 3)
    orbit = subspace_orbit(wr, e1)
    assert sorted(orbit) == sorted(
        [e1, line(basis_row(1, 2), 2, 3)]
    )

    diag = MatrixGroup([Matrix.diagonal([1, -1], 3)])
    assert subspace_orbit(diag, e1) == [e1]

    gl = general_linear_group(2, 3)
    assert len(subspace_orbit(gl, e1)) == 4  # transitive on the projective line


def test_is_system_examples():
    wr = sign_wreath(cyclic_group(2), 3)
    lines = [line(basis_row(i, 2), 2, 3) for i in range(2)]
    assert is_system(wr, lines)

    gl = general_linear_group(2, 3)
    assert not is_system(gl, lines)
    assert not is_system(gl, [Subspace.full(2, 3)])


def test_zero_parts_are_rejected():
    # V + 0 is a direct sum, but 0 is no part of a system of imprimitivity
    full, zero = Subspace.full(2, 3), Subspace.span([], 2, 3)
    swap = MatrixGroup([Matrix([[0, 1], [1, 0]], 3)])
    with pytest.raises(ValidationError, match="nonzero"):
        ImprimitivitySystem([full, zero])
    assert not is_system(swap, [full, zero])
    assert not is_system(swap, [zero])
    assert not is_system(swap, [])


# the swap and diag(2, 1) over GF(3)
SWAP_AND_SCALE = [Matrix([[0, 1], [1, 0]], 3), Matrix.diagonal([2, 1], 3)]


def test_part_table_pads_parts_to_their_rank(monkeypatch):
    # a line system of GF(3)^4 maps 1-row bases, not 4 x 4 ones with 3 zero rows
    tables = count_calls(monkeypatch, image_table)
    group = sign_wreath(symmetric_group(4), 3)
    system = coordinate_system(4, 1, 3)
    assert is_system(group, system.parts)
    assert [args[1].shape for args in tables] == [(4, 1, 4)]
    assert not is_system(group, [])
    assert tables[-1][1].shape == (0, 0, 4)


def test_the_scan_multiplies_no_matrix(monkeypatch):
    # the word of the generators and its powers are products of the stack
    group = sign_wreath(symmetric_group(4), 3)
    products = count_calls(monkeypatch, Matrix.__mul__)
    assert all_systems(group) == [coordinate_system(4, 1, 3)]
    assert products == []


def test_part_table_refuses_parts_over_another_field():
    g = MatrixGroup(SWAP_AND_SCALE)
    parts = [line([1, 4], 2, 5), line([1, 1], 2, 5)]
    for check in (part_table, part_stabilizer_elements, is_system):
        with pytest.raises(AmbientMismatch):
            check(g, parts)
    # refused before the parts are validated: one line is no system
    with pytest.raises(AmbientMismatch):
        is_system(g, parts[:1])


def test_stabilizer_criterion_refuses_a_system_over_another_field():
    g = MatrixGroup(SWAP_AND_SCALE)
    with pytest.raises(AmbientMismatch):
        nonrefinable_via_stabilizer(g, coordinate_system(2, 1, 5))


def test_part_table_refuses_parts_of_another_dimension():
    g = MatrixGroup(SWAP_AND_SCALE)
    parts = coordinate_system(3, 1, 3).parts
    for check in (part_table, part_stabilizer_elements, is_system):
        with pytest.raises(AmbientMismatch):
            check(g, parts)


@pytest.mark.parametrize("n, p", [(8, 5), (16, 2)])
def test_part_table_has_no_subspace_count_bound(n, p):
    # GF(5)^8 has 2.0e11 4-subspaces, past int32; GF(2)^16 has more 8-subspaces than int64
    half = n // 2
    swap = MatrixGroup([Matrix(np.roll(np.eye(n, dtype=np.int64), half, axis=0), p)])
    parts = coordinate_system(n, half, p).parts
    assert is_system(swap, parts)
    assert part_table(swap, parts).tolist() == [[1, 0]]
    assert part_stabilizer_elements(swap, parts)._generator_stack.tolist() == [np.eye(n, dtype=int).tolist()]
    assert not nonrefinable_via_stabilizer(swap, coordinate_system(n, half, p))


def test_all_systems_of_primitive_group_is_empty():
    assert all_systems(general_linear_group(2, 3)) == []


def test_all_systems_sign_wreath_c4_frozen():
    """Full scan of the 40 lines and 130 planes of GF(3)^4.

    The scan finds three systems: the coordinate lines, the paired-sign
    lines over the invariant pair partition {{1,3},{2,4}}, and the coarser
    pair of planes spanned by those blocks (refinable, hence dropped by
    nonrefinable_systems).
    """
    g = sign_wreath(cyclic_group(4), 3)
    systems = all_systems(g)

    coord = coordinate_system(4, 1, 3)
    lam_lines = ImprimitivitySystem(
        [
            line([1, 0, 1, 0], 4, 3),
            line([1, 0, -1, 0], 4, 3),
            line([0, 1, 0, 1], 4, 3),
            line([0, 1, 0, -1], 4, 3),
        ]
    )
    pair_planes = ImprimitivitySystem(
        [
            Subspace.span([basis_row(0, 4), basis_row(2, 4)], 4, 3),
            Subspace.span([basis_row(1, 4), basis_row(3, 4)], 4, 3),
        ]
    )
    assert sorted(systems) == sorted([coord, lam_lines, pair_planes])

    nonref = nonrefinable_systems(g)
    assert sorted(nonref) == sorted([coord, lam_lines])


def test_all_systems_cap():
    g = general_linear_group(2, 7)
    with (limits(subspaces=5),
          pytest.raises(PhaseCapExceeded,
                        match="^subspace scan: 8 subspaces of dimension 1 exceed the cap of 5$")
          as err):
        all_systems(g)
    assert (err.value.phase, err.value.count, err.value.cap) == ("subspace scan", 8, 5)


def test_all_systems_members_pass_is_system():
    for g in (
        sign_wreath(cyclic_group(4), 3),
        sign_wreath(symmetric_group(3), 3),
        wreath_product(WreathSpec(general_linear_group(2, 3), cyclic_group(2))),
    ):
        for system in all_systems(g):
            assert is_system(g, system.parts)
            # part action is a single orbit
            orbit = subspace_orbit(g, system.parts[0])
            assert {s.key for s in orbit} == {w.key for w in system.parts}


def test_is_refinement_examples():
    lines = coordinate_system(4, 1, 3)
    planes = coordinate_system(4, 2, 3)
    assert is_refinement(lines, lines)
    assert is_refinement(lines, planes)
    assert not is_refinement(planes, lines)

    skew = ImprimitivitySystem(
        [
            line([1, 0, 1, 0], 4, 3),
            line([1, 0, -1, 0], 4, 3),
            line([0, 1, 0, 1], 4, 3),
            line([0, 1, 0, -1], 4, 3),
        ]
    )
    assert not is_refinement(skew, planes)


def test_refinement_is_partial_order():
    g = sign_wreath(cyclic_group(4), 5)
    systems = all_systems(g)
    assert len(systems) >= 3
    for a in systems:
        assert is_refinement(a, a)
    for a, b in itertools.permutations(systems, 2):
        if is_refinement(a, b) and is_refinement(b, a):
            assert a == b
    for a, b, c in itertools.product(systems, repeat=3):
        if is_refinement(a, b) and is_refinement(b, c):
            assert is_refinement(a, c)


def test_nonrefinable_systems_examples():
    s3 = sign_wreath(symmetric_group(3), 3)
    assert nonrefinable_systems(s3) == [coordinate_system(3, 1, 3)]

    c4 = sign_wreath(cyclic_group(4), 3)
    assert len(nonrefinable_systems(c4)) == 2


def test_nonrefinable_keeps_unrefined_systems_in_order():
    lines = coordinate_system(4, 1, 3)
    planes = coordinate_system(4, 2, 3)
    skew = ImprimitivitySystem(
        [
            line([1, 0, 1, 0], 4, 3),
            line([1, 0, -1, 0], 4, 3),
            line([0, 1, 0, 1], 4, 3),
            line([0, 1, 0, -1], 4, 3),
        ]
    )
    assert nonrefinable([planes, skew, lines]) == [skew, lines]
    assert nonrefinable([planes]) == [planes]
    assert nonrefinable([]) == []


def test_nonrefinable_refuses_systems_from_different_spaces():
    # equal part counts, so no pair of them is ever compared
    for other in (coordinate_system(2, 1, 5), coordinate_system(4, 2, 3)):
        with pytest.raises(AmbientMismatch):
            nonrefinable([coordinate_system(2, 1, 3), other])


def all_pairs_nonrefinable(systems):
    """nonrefinable as it compared every ordered pair of distinct systems."""
    return [
        gamma
        for gamma in systems
        if not any(delta != gamma and is_refinement(delta, gamma) for delta in systems)
    ]


def schreier_criterion(g, parts):
    """The stabilizer criterion by restriction to parts[0], at every rank."""
    return is_primitive_linear(restrict_to_block(part_stabilizer_elements(g, parts), parts[0]))


def outcome(call, *args):
    """The value of call(*args), or the type and message of its error."""
    try:
        return call(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def check_nonrefinability_against_the_old_routes(g):
    systems = all_systems(g)
    assert nonrefinable(systems) == all_pairs_nonrefinable(systems)
    for delta, gamma in itertools.product(systems, repeat=2):
        assert ((delta.component_count > gamma.component_count and is_refinement(delta, gamma))
                == (delta != gamma and is_refinement(delta, gamma)))
    # the scan's line systems, and coordinate lines the group may not permute
    # or that live over another field
    lines = [s for s in systems if s.component_dim == 1]
    if g.n > 1:
        lines += [coordinate_system(g.n, 1, q) for q in (g.p, 3 if g.p != 3 else 5)]
    for system in lines:
        assert (outcome(nonrefinable_via_stabilizer, g, system)
                == outcome(schreier_criterion, g, list(system.parts)))


@given(matrix_groups(max_n=4))
def test_nonrefinability_matches_the_old_routes(gens):
    check_nonrefinability_against_the_old_routes(MatrixGroup(gens))


def example21_image(q):
    dihedral = MatrixGroup([Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)])
    return induced_module(general_linear_group(2, 3), dihedral,
                          Character(dihedral, [1, q - 1], q)).group


@pytest.mark.parametrize("name", ["sign-wr-klein-p5", "sign-wr-c4-p5", "example21-q7"])
def test_nonrefinability_matches_the_old_routes_on_regression_groups(name):
    specs = dict(regression_theorem_instances())
    g = example21_image(7) if name == "example21-q7" else wreath_product(specs[name])
    check_nonrefinability_against_the_old_routes(g)


def test_the_schreier_route_still_decides_both_ways(monkeypatch):
    # criteria_agreement is not vacuous on systems of planes: the stabilizer
    # criterion restricts to a part there and answers True and False
    specs = dict(regression_theorem_instances())
    schreier = count_calls(monkeypatch, part_stabilizer_elements)
    gl = wreath_product(specs["gl23-wr-c2-p3"])
    planes = coordinate_system(4, 2, 3)
    assert planes in all_systems(gl)
    assert nonrefinable_via_stabilizer(gl, planes)
    c4 = wreath_product(specs["sign-wr-c4-p3"])
    pairs = ImprimitivitySystem(
        [Subspace.span([basis_row(i, 4), basis_row(i + 2, 4)], 4, 3) for i in (0, 1)]
    )
    assert pairs in all_systems(c4)
    assert not nonrefinable_via_stabilizer(c4, pairs)
    assert len(schreier) == 2


def test_the_stabilizer_criterion_inverts_no_matrix(monkeypatch):
    # the Schreier generators are formed with their inverses, and the
    # restriction to a plane restricts both stacks
    gl = wreath_product(dict(regression_theorem_instances())["gl23-wr-c2-p3"])
    inversions = count_calls(monkeypatch, Matrix.inv)
    assert nonrefinable_via_stabilizer(gl, coordinate_system(4, 2, 3))
    assert inversions == []


def schreier_stack_oracle(g, parts):
    """The Schreier generators u_x s u_(x s)^-1 of the stabilizer of
    parts[0] as one stack, formed one part and generator at a time: parts
    in breadth-first order and generators within a part, identities dropped
    unless nothing else is left, then repeats."""
    table = part_table(g, parts)
    p, n = g.p, g.n
    gens, eye = g._generator_stack.astype(np.int64), np.eye(n, dtype=np.int64)
    trans, trans_inv = {0: eye}, {0: eye}
    reached = [0]
    for x in reached:
        for s, y in enumerate(table[:, x]):
            if y not in trans:
                reached.append(y)
                trans[y] = trans[x] @ gens[s] % p
                trans_inv[y] = g.inverse_stack[s] @ trans_inv[x] % p
    stack = np.array([trans[x] @ gens[s] % p @ trans_inv[table[s, x]] % p
                      for x in reached for s in range(len(gens))])
    moving = (stack != eye).any(axis=(1, 2))
    stack = stack[moving] if moving.any() else stack[:1]
    return stack[first_occurrences(stack, p)]


@given(matrix_groups(), st.data())
def test_part_stabilizer_keeps_the_schreier_generators(gens, data):
    g = MatrixGroup(gens)
    subs = subspace_array(g.n, data.draw(st.integers(1, g.n)), g.p)
    orbit = subspace_orbit(g, echelon_subspace(subs[data.draw(st.integers(0, len(subs) - 1))], g.p))
    stab = part_stabilizer_elements(g, orbit)
    assert np.array_equal(stab._generator_stack, schreier_stack_oracle(g, orbit))


def test_nonrefinable_via_stabilizer_examples():
    s3 = sign_wreath(symmetric_group(3), 3)
    assert nonrefinable_via_stabilizer(s3, coordinate_system(3, 1, 3))

    # pair-of-planes system of a sign wreath: the block stabilizer acts
    # monomially (imprimitively) on its plane, so the system is refinable
    d8 = wreath_product(
        WreathSpec(
            sign_group(3),
            PermGroup([perm(2, 1, 3, 4), perm(1, 2, 4, 3), perm(3, 4, 1, 2)]),
        )
    )
    planes = coordinate_system(4, 2, 3)
    assert is_system(d8, planes.parts)
    assert not nonrefinable_via_stabilizer(d8, planes)


def test_subspace_cap_reaches_the_stabilizer_criterion():
    # the stabilizer of a coordinate plane of GL(2,3) wr S_2 acts on it as
    # GL(2,3): certified irreducible, then scanned for systems over its 4 lines
    group = wreath_product(WreathSpec(general_linear_group(2, 3), symmetric_group(2)))
    planes = coordinate_system(4, 2, 3)
    assert nonrefinable_via_stabilizer(group, planes)
    with (limits(subspaces=3),
          pytest.raises(PhaseCapExceeded,
                        match="^subspace scan: 4 subspaces of dimension 1 exceed the cap of 3$")):
        nonrefinable_via_stabilizer(group, planes)


def test_nonrefinable_via_stabilizer_rejects_intransitive_parts():
    g = MatrixGroup([Matrix.diagonal([-1, 1], 3), Matrix.diagonal([1, -1], 3)])
    system = ImprimitivitySystem(
        [line(basis_row(0, 2), 2, 3), line(basis_row(1, 2), 2, 3)]
    )
    assert is_system(g, system.parts)
    with pytest.raises(NotTransitiveOnParts):
        nonrefinable_via_stabilizer(g, system)
    # GL(2,3) does not permute the coordinate lines: it sends them to other lines
    gl = general_linear_group(2, 3)
    assert not is_system(gl, system.parts)
    with pytest.raises(NotTransitiveOnParts):
        nonrefinable_via_stabilizer(gl, system)


def test_criteria_agreement():
    for g in (
        sign_wreath(cyclic_group(4), 3),
        sign_wreath(cyclic_group(4), 5),
        sign_wreath(symmetric_group(3), 3),
    ):
        systems = all_systems(g)
        nonref_keys = {s.key for s in nonrefinable_systems(g)}
        for system in systems:
            assert (system.key in nonref_keys) == nonrefinable_via_stabilizer(
                g, system
            )


def test_part_stabilizer_rejects_an_empty_part_list():
    with pytest.raises(NotTransitiveOnParts, match="no parts"):
        part_stabilizer_elements(general_linear_group(2, 3), [])


def test_part_stabilizer_is_a_subgroup_slice():
    g = sign_wreath(cyclic_group(4), 3)
    w = coordinate_system(4, 1, 3).parts[0]
    orbit = subspace_orbit(g, w)
    stab = part_stabilizer_elements(g, orbit)
    slice_ = g.element_array[fixed_by(w, g.element_array)]
    assert {Matrix(a, 3) for a in stab.element_array} == {Matrix(a, 3) for a in slice_}
    assert stab.order * len(orbit) == g.order


SUMMAND_FAMILIES = [
    ([lambda: sign_group(3), lambda: sign_group(3)], 3),
    ([lambda: MatrixGroup([Matrix([[2]], 5)]), lambda: sign_group(5)], 5),
    ([lambda: general_linear_group(2, 3), lambda: sign_group(3)], 3),
    (
        [
            lambda: MatrixGroup([Matrix([[3]], 7)]),
            lambda: MatrixGroup([Matrix([[2]], 7)]),
            lambda: sign_group(7),
        ],
        7,
    ),
    ([lambda: general_linear_group(2, 3), lambda: general_linear_group(2, 3)], 3),
]


@pytest.mark.parametrize("factories,p", SUMMAND_FAMILIES)
def test_invariant_subspaces_are_sums_of_summands(factories, p):
    """With nontrivial irreducible blockwise factors, the only invariant
    subspaces of the direct product are sums of the defining summands."""
    factors = [make() for make in factories]
    group, dims, offsets = block_diagonal_product(factors)
    n = int(offsets[-1])
    summands = summand_subspaces(dims, offsets, n, p)
    expected = set()
    for r in range(1, len(summands)):
        for combo in itertools.combinations(summands, r):
            total = combo[0]
            for extra in combo[1:]:
                total = subspace_sum(total, extra)
            expected.add(total.key)
    found = {s.key for s in invariant_subspaces(group)}
    assert found == expected


@pytest.mark.parametrize("factories,p", SUMMAND_FAMILIES)
def test_permuted_decompositions_have_at_most_k_parts(factories, p):
    factors = [make() for make in factories]
    group, dims, offsets = block_diagonal_product(factors)
    n = int(offsets[-1])
    k = len(factors)
    summands = summand_subspaces(dims, offsets, n, p)
    if k >= 2:
        assert is_system(group, summands)
    for system in all_systems(group):
        assert system.component_count <= k


def test_permuted_decomposition_bound_is_attained():
    # two order-2 factors over GF(5): the scan finds paired-sign systems
    # with exactly k = 2 parts
    group, dims, offsets = block_diagonal_product([sign_group(5), sign_group(5)])
    systems = all_systems(group)
    assert systems and {s.component_count for s in systems} == {2}


def test_coordinate_system_rejects_a_bad_modulus():
    # the blocks are built as echelon bases, with no row reduction to check p
    for p in (1, 4):
        with pytest.raises(ValidationError, match="modulus"):
            coordinate_system(4, 2, p)


def test_coordinate_system_validation():
    with pytest.raises(ValidationError):
        coordinate_system(4, 3, 3)
    with pytest.raises(ValidationError):
        coordinate_system(4, 4, 3)
    for d in (0, -1, -2):  # no block dimension below 1, not even 0
        with pytest.raises(ValidationError, match="does not split"):
            coordinate_system(4, d, 3)
    sys2 = coordinate_system(4, 2, 3)
    assert sys2.component_count == 2 and sys2.component_dim == 2
