"""Group closure, orbits, block systems and permutation wreath products.

orbit_oracle (breadth-first search over the generators) and
stabilizer_block_action_oracle (one Permutation per element) are the
per-point and per-element routes the array versions replaced; they are kept
here as the references those are checked against.
"""

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from imprimlab.errors import CapError, OddDegree, PhaseCapExceeded, ValidationError, limits
from imprimlab.groups import (
    BlockSystem,
    MatrixGroup,
    PermGroup,
    Permutation,
    _block_systems_exhaustive,
    _block_systems_seeded,
    _equal_partitions,
    block_systems,
    cyclic_group,
    general_linear_group,
    has_pair_partition,
    orbit_labels,
    perm_wreath,
    primitive_root,
    symmetric_group,
)
from imprimlab.linalg import Matrix

from conftest import element_keys, elements, general_linear_order, perm


def dihedral12():
    # order-12 dihedral subgroup of GL2(3): the full upper-triangular group
    return MatrixGroup([Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)])


def test_trivial_group_order():
    g = MatrixGroup([Matrix.identity(2, 3)])
    assert g.order == 1


def test_general_linear_orders_match_formula():
    assert general_linear_group(2, 3).order == general_linear_order(2, 3) == 48
    assert general_linear_group(2, 5).order == general_linear_order(2, 5) == 480
    assert general_linear_group(1, 7).order == 6
    assert general_linear_group(3, 2).order == general_linear_order(3, 2) == 168


def test_dihedral_subgroup_order():
    assert dihedral12().order == 12


def test_enumeration_cap():
    with (limits(elements=100),
          pytest.raises(PhaseCapExceeded, match="^group closure: .* the cap of 100$")):
        MatrixGroup(general_linear_group(2, 5).gens).order


@pytest.mark.parametrize(
    "make",
    [
        dihedral12,
        lambda: general_linear_group(2, 3),
        lambda: MatrixGroup(
            [Matrix([[2, 0], [0, 1]], 3), Matrix([[1, 0], [0, 2]], 3),
             Matrix([[0, 1], [1, 0]], 3)]
        ),
    ],
)
def test_closure_axioms(make):
    g = make()
    elems = elements(g)
    assert g.order <= 200
    keys = set(element_keys(g))
    assert g.identity.key in keys
    for a, b in itertools.product(elems, repeat=2):
        assert (a * b).key in keys
    for a in elems:
        assert a.inv().key in keys


def test_group_contains():
    d12 = dihedral12()
    assert d12.contains(Matrix.identity(2, 3))
    x, y = d12.gens
    assert d12.contains(x * y)
    # [[1,1],[0,1]] is the square of the order-6 generator, hence inside
    assert d12.contains(Matrix([[1, 1], [0, 1]], 3))
    # every element is upper triangular, so the lower transvection is outside
    assert not d12.contains(Matrix([[1, 0], [1, 1]], 3))


def test_is_subgroup():
    gl23 = general_linear_group(2, 3)
    monomial = MatrixGroup(
        [Matrix([[2, 0], [0, 1]], 3), Matrix([[1, 0], [0, 2]], 3),
         Matrix([[0, 1], [1, 0]], 3)]
    )
    assert gl23.is_subgroup_of(gl23)
    assert monomial.is_subgroup_of(gl23)
    assert not gl23.is_subgroup_of(monomial)


def test_derived_series_and_solvability():
    assert general_linear_group(2, 3).derived_series_orders() == [48, 24, 8, 2, 1]
    assert general_linear_group(2, 3).is_solvable()

    gl25 = general_linear_group(2, 5)
    series = gl25.derived_series_orders()
    assert series[0] == 480 and series[-1] == 120
    assert not gl25.is_solvable()

    assert MatrixGroup([Matrix.identity(1, 3)]).is_solvable()


def test_derived_subgroup_of_abelian_group_is_trivial():
    diag = MatrixGroup([Matrix.diagonal([2, 1], 7), Matrix.diagonal([1, 3], 7)])
    assert diag.order == 18
    assert diag.derived_subgroup().order == 1


def test_primitive_roots():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2


def test_permutation_composition_left_to_right():
    s = perm(2, 1, 3)
    t = perm(1, 3, 2)
    assert (s * t)(0) == t(s(0))
    assert (s * t).images == (2, 0, 1)
    assert (s * s.inv()) == Permutation.identity(3)


def test_permutation_relabel():
    g = perm(2, 3, 4, 1)
    sigma = perm(1, 3, 2, 4)
    relabeled = g.relabel(sigma)
    for i in range(4):
        assert relabeled(sigma(i)) == sigma(g(i))


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation([0, 0, 1])


def test_transitivity():
    assert cyclic_group(4).is_transitive()
    assert symmetric_group(3).is_transitive()
    assert not PermGroup([perm(2, 1, 3)]).is_transitive()


def test_block_systems_examples(klein_group):
    c4 = cyclic_group(4)
    assert [b.blocks for b in block_systems(c4, 2)] == [((0, 2), (1, 3))]
    assert block_systems(symmetric_group(4), 2) == []
    assert len(block_systems(klein_group, 2)) == 3


def test_block_systems_are_preserved(dihedral8_group):
    for group in (cyclic_group(6), dihedral8_group, symmetric_group(4)):
        for size in (2, 3):
            if group.degree % size:
                continue
            for system in block_systems(group, size):
                for g in elements(group):
                    assert system.preserved_by(g)


def test_block_systems_degenerate_sizes():
    c4 = cyclic_group(4)
    singles = block_systems(c4, 1)
    assert singles == [BlockSystem([(i,) for i in range(4)], 4)]
    whole = block_systems(c4, 4)
    assert whole == [BlockSystem([tuple(range(4))], 4)]
    with pytest.raises(ValidationError):
        block_systems(c4, 3)


def test_seeded_matches_exhaustive(klein_group, dihedral8_group):
    groups = [
        cyclic_group(4),
        cyclic_group(6),
        cyclic_group(12),
        symmetric_group(4),
        symmetric_group(6),
        klein_group,
        dihedral8_group,
    ]
    for group in groups:
        for size in range(2, group.degree):
            if group.degree % size:
                continue
            assert _block_systems_seeded(group, size) == _block_systems_exhaustive(
                group, size
            )


@pytest.mark.parametrize("k,b", [(6, 2), (6, 3), (8, 2), (8, 4)])
def test_exhaustive_block_systems_count_partitions_against_the_cap(monkeypatch, k, b):
    from imprimlab import groups

    trivial = PermGroup([Permutation.identity(k)])  # every partition is a system
    count = len(list(_equal_partitions(range(k), b)))
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", count)
    assert len(block_systems(trivial, b)) == count
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", count - 1)
    with pytest.raises(CapError, match=f"block systems: {count} equal partitions"):
        block_systems(trivial, b)


def test_block_systems_large_degree_uses_seeding():
    c14 = cyclic_group(14)
    systems = block_systems(c14, 2)
    # the only invariant pair partition of a 14-cycle pairs opposite points
    expected = tuple(sorted((i, i + 7) for i in range(7)))
    assert [b.blocks for b in systems] == [expected]
    assert len(block_systems(c14, 7)) == 1


def test_has_pair_partition():
    assert has_pair_partition(cyclic_group(4))
    assert not has_pair_partition(symmetric_group(4))
    assert has_pair_partition(PermGroup([perm(2, 1)]))
    with pytest.raises(OddDegree):
        has_pair_partition(symmetric_group(3))


def test_perm_wreath_order():
    w = perm_wreath(symmetric_group(2), symmetric_group(2))
    assert w.degree == 4
    assert w.order == 8
    assert w.contains(perm(2, 1, 4, 3))
    assert not w.contains(perm(2, 3, 4, 1))

    w2 = perm_wreath(cyclic_group(3), symmetric_group(2))
    assert w2.order == 3 * 3 * 2


def test_setwise_stabilizer_and_actions(dihedral8_group):
    stab = dihedral8_group.setwise_stabilizer((0, 1))
    assert len(stab) == 4
    inner = dihedral8_group.stabilizer_block_action((0, 1))
    assert inner.order == 2 and inner.degree == 2
    outer = dihedral8_group.block_action(
        block_systems(dihedral8_group, 2)[0]
    )
    assert outer.degree == 2 and outer.order == 2


def orbit_oracle(group, point):
    """The orbit of a point, by breadth-first search over the generators."""
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.gens:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@st.composite
def perm_group_gens(draw, max_degree=8):
    """1-3 permutations of one degree <= max_degree.  Half the draws keep the
    points below a random cut apart from the rest, so the group is
    intransitive."""
    degree = draw(st.integers(1, max_degree))
    cut = draw(st.integers(1, degree - 1)) if degree > 1 and draw(st.booleans()) else 0
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.permutations(range(cut)))
        high = draw(st.permutations(range(cut, degree)))
        gens.append(Permutation([*low, *high]))
    return gens


@given(perm_group_gens())
@example([perm(2, 3, 1, 4, 5, 6, 7, 8), perm(1, 2, 3, 4, 6, 7, 8, 5)])
def test_orbit_routines_match_the_breadth_first_oracle(gens):
    group = PermGroup(gens)
    smallest = [min(orbit_oracle(group, x)) for x in range(group.degree)]
    event("transitive" if max(smallest) == 0 else "intransitive")
    stack = np.array([g.images for g in gens])
    assert orbit_labels(stack).tolist() == smallest
    assert group.orbit_representatives() == sorted(set(smallest))
    assert group.is_transitive() == (max(smallest) == 0)


def stabilizer_block_action_oracle(group, block):
    """Generators of the block stabilizer's action on the block: every
    element's restriction, once each, in the order of the elements."""
    points = sorted(block)
    position = {x: i for i, x in enumerate(points)}
    restrictions = {}
    for g in elements(group):
        if sorted(g(x) for x in points) == points:
            r = Permutation([position[g(x)] for x in points])
            restrictions.setdefault(r.key, r)
    return list(restrictions.values())


def test_stabilizer_block_action_matches_oracle(klein_group, dihedral8_group):
    groups = [
        cyclic_group(4),
        cyclic_group(6),
        symmetric_group(4),
        symmetric_group(6),
        klein_group,
        dihedral8_group,
        PermGroup([perm(2, 1, 3, 4)]),
        PermGroup([perm(2, 3, 1, 4, 5, 6), perm(1, 2, 3, 5, 6, 4)]),
        perm_wreath(symmetric_group(3), symmetric_group(2)),
        perm_wreath(cyclic_group(2), symmetric_group(3)),
    ]
    blocks_checked = 0
    for group in groups:
        for size in range(1, group.degree + 1):
            if group.degree % size:
                continue
            for system in block_systems(group, size):
                for block in system.blocks:
                    action = group.stabilizer_block_action(block)
                    expected = stabilizer_block_action_oracle(group, block)
                    assert [g.images for g in action.gens] == [g.images for g in expected]
                    blocks_checked += 1
    assert blocks_checked == 84
