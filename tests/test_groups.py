"""Group closure, orbits, block systems and permutation wreath products.

orbit_oracle (breadth-first search over the generators) and
stabilizer_block_action_oracle (one Permutation per element) are the
per-point and per-element routes the array versions replaced;
_block_systems_exhaustive (every equal partition, each tested against the
generators) is the route the block-system search replaced, and
primitive_root_oracle the order-by-multiplication loop.  They are kept
here as the references those are checked against.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from imprimlab.errors import (
    CapError,
    OddDegree,
    PhaseCapExceeded,
    ShapeMismatch,
    ValidationError,
    limits,
)
from imprimlab.groups import (
    BlockSystem,
    MatrixGroup,
    PermGroup,
    Permutation,
    block_systems,
    cyclic_group,
    general_linear_group,
    has_pair_partition,
    orbit_labels,
    perm_wreath,
    primitive_root,
    symmetric_group,
)
from imprimlab.linalg import Matrix, gaussian_binomial, is_prime

from conftest import count_calls, element_keys, elements, general_linear_order, perm


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


@pytest.mark.parametrize("gens, message", [
    ([], "at least one generator"),
    ([Matrix([[1, 2], [2, 4]], 5)], "invertible"),  # singular
    ([Matrix.identity(2, 3), Matrix.identity(2, 5)], "share modulus and degree"),
    ([Matrix.identity(2, 3), Matrix.identity(3, 3)], "share modulus and degree"),
])
def test_matrix_group_rejects_bad_generator_lists(gens, message):
    with pytest.raises(ValidationError, match=message):
        MatrixGroup(gens)


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


def test_derived_series_is_computed_once(monkeypatch):
    derived = []
    original = MatrixGroup.derived_subgroup

    def derived_subgroup(self):
        derived.append(self)
        return original(self)

    monkeypatch.setattr(MatrixGroup, "derived_subgroup", derived_subgroup)
    gl23 = general_linear_group(2, 3)
    series = gl23.derived_series_orders()
    assert series == [48, 24, 8, 2, 1]
    assert len(derived) == 4
    series.append(7)
    assert gl23.derived_series_orders() == [48, 24, 8, 2, 1]
    assert gl23.is_solvable()
    gl25 = general_linear_group(2, 5)
    assert not gl25.is_solvable()
    calls = len(derived)
    assert gl25.derived_series_orders() == [480, 120]
    assert not gl25.is_solvable()
    assert len(derived) == calls


def test_derived_series_inverts_and_multiplies_no_matrix(monkeypatch):
    # commutators and conjugates are stack products of stored generators
    # and stored inverses
    gl25 = general_linear_group(2, 5)
    inversions = count_calls(monkeypatch, Matrix.inv)
    products = count_calls(monkeypatch, Matrix.__mul__)
    assert gl25.derived_series_orders() == [480, 120]
    assert inversions == [] and products == []


def test_derived_subgroup_of_abelian_group_is_trivial():
    diag = MatrixGroup([Matrix.diagonal([2, 1], 7), Matrix.diagonal([1, 3], 7)])
    assert diag.order == 18
    assert diag.derived_subgroup().order == 1


def primitive_root_oracle(p):
    """The smallest g whose order, found by repeated multiplication, is p - 1."""
    if p == 2:
        return 1
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g


def test_primitive_roots():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    for p in filter(is_prime, range(500)):
        assert primitive_root(p) == primitive_root_oracle(p)


def test_primitive_roots_of_large_primes():
    # 7 generates the multiplicative group of 2^31 - 1 (16807 = 7^5 is the
    # Park-Miller multiplier)
    assert primitive_root(2147483647) == 7
    assert primitive_root(1000000009) == 13


def test_permutation_composition_left_to_right():
    s = perm(2, 1, 3)
    t = perm(1, 3, 2)
    assert (s * t)(0) == t(s(0))
    assert (s * t).images == (2, 0, 1)
    assert (s * s.inv()) == Permutation.identity(3)


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation([0, 0, 1])


@pytest.mark.parametrize("images, error, message", [
    (np.empty((0, 3), dtype=np.int64), ValidationError, "at least one generator"),
    (np.arange(3), ShapeMismatch, r"shape \(3,\)"),
    (np.arange(6).reshape(1, 2, 3), ShapeMismatch, r"shape \(1, 2, 3\)"),
    ([[0, 1, 2], [1, 1, 0]], ValidationError, r"not a permutation of 0\.\.2"),
    ([[0, 1, 3]], ValidationError, r"not a permutation of 0\.\.2"),
    (np.empty((2, 0), dtype=np.int64), ValidationError, "one point"),
])
def test_perm_group_from_stack_refuses_what_is_no_permutation_stack(images, error, message):
    with pytest.raises(error, match=message):
        PermGroup.from_stack(images)


def test_perm_group_from_stack_keeps_the_rows_as_generators():
    group = PermGroup.from_stack([[1, 2, 0], [1, 0, 2]])
    assert group.degree == 3 and group.order == 6
    assert group.gens == (Permutation([1, 2, 0]), Permutation([1, 0, 2]))
    assert group._generator_stack.dtype == np.int8


def test_library_permutation_groups_construct_no_permutation(monkeypatch, dihedral8_group):
    # block actions, stabilizer actions and wreath products are built from
    # generator stacks; Permutation objects appear only when gens is read
    system = block_systems(dihedral8_group, 2)[0]
    created = count_calls(monkeypatch, Permutation.__init__)
    s3, c2 = symmetric_group(3), cyclic_group(2)
    wreath = perm_wreath(s3, c2)
    assert wreath.order == 6**2 * 2
    assert dihedral8_group.block_action(system).order == 2
    assert dihedral8_group.stabilizer_block_action(system.blocks[0]).order == 2
    assert wreath.stabilizer_block_action([0, 1, 2]).degree == 3
    assert created == []
    assert len(wreath.gens) == len(wreath._generator_stack) and created


@pytest.mark.parametrize("call, message", [
    (lambda: symmetric_group(3).setwise_stabilizer([5]), r"point 5 is not in 0\.\.2"),
    (lambda: symmetric_group(3).stabilizer_block_action([-1]), r"point -1 is not in 0\.\.2"),
    (lambda: symmetric_group(2).block_action(BlockSystem([[0, 1], [2, 3]], 4)),
     "partition has degree 4, not 2"),
])
def test_perm_group_methods_refuse_points_of_another_degree(call, message):
    # they raised a numpy IndexError, or wrapped -1 to the last point
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("build, message", [
    (lambda: general_linear_group(0, 3), "degree 0 must be positive"),
    (lambda: general_linear_group(-1, 3), "degree -1 must be positive"),
    (lambda: symmetric_group(0), "at least one generator and one point"),
    (lambda: cyclic_group(0), "at least one generator and one point"),
    (lambda: cyclic_group(-2), "at least one generator and one point"),
])
def test_constructors_refuse_degrees_below_one(build, message):
    # an IndexError, or for cyclic_group(0) a group of no points
    with pytest.raises(ValidationError, match=message):
        build()


def test_transitivity():
    assert cyclic_group(4).is_transitive()
    assert symmetric_group(3).is_transitive()
    assert not PermGroup([perm(2, 1, 3)]).is_transitive()


def test_block_systems_examples(klein_group):
    c4 = cyclic_group(4)
    assert [b.blocks for b in block_systems(c4, 2)] == [((0, 2), (1, 3))]
    assert block_systems(symmetric_group(4), 2) == []
    assert len(block_systems(klein_group, 2)) == 3


def preserves(g, system):
    """True iff the permutation maps every block of the system to a block."""
    blocks = set(system.blocks)
    return all(tuple(sorted(g(x) for x in b)) in blocks for b in system.blocks)


def test_block_systems_are_preserved(dihedral8_group):
    for group in (cyclic_group(6), dihedral8_group, symmetric_group(4)):
        for size in (2, 3):
            if group.degree % size:
                continue
            for system in block_systems(group, size):
                for g in elements(group):
                    assert preserves(g, system)


def test_block_systems_degenerate_sizes():
    c4 = cyclic_group(4)
    singles = block_systems(c4, 1)
    assert singles == [BlockSystem([(i,) for i in range(4)], 4)]
    whole = block_systems(c4, 4)
    assert whole == [BlockSystem([tuple(range(4))], 4)]
    with pytest.raises(ValidationError):
        block_systems(c4, 3)


def _equal_partitions(points, block_size):
    """All partitions of the points into blocks of the given size."""
    points = list(points)
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for companions in itertools.combinations(rest, block_size - 1):
        block = (first,) + companions
        remaining = [x for x in rest if x not in companions]
        for tail in _equal_partitions(remaining, block_size):
            yield [block] + tail


def _block_systems_exhaustive(group, block_size):
    """Every equal partition the generators preserve, sorted."""
    out = []
    for blocks in _equal_partitions(range(group.degree), block_size):
        system = BlockSystem(blocks, group.degree)
        if all(preserves(g, system) for g in group.gens):
            out.append(system)
    return sorted(out)


def regular_elementary_abelian(r):
    """(C_2)^r acting on itself: the points are the vectors of GF(2)^r, read
    as integers, and generator i adds the i-th basis vector."""
    return PermGroup([Permutation([x ^ (1 << i) for x in range(2**r)]) for i in range(r)])


def test_block_systems_match_the_exhaustive_oracle(klein_group, dihedral8_group):
    groups = [
        cyclic_group(4),
        cyclic_group(6),
        cyclic_group(12),
        symmetric_group(4),
        symmetric_group(6),
        klein_group,
        dihedral8_group,
        PermGroup([perm(2, 1, 3, 4, 5, 6)]),
        PermGroup([perm(2, 3, 1, 4, 5, 6), perm(1, 2, 3, 5, 6, 4)]),
    ]
    for group in groups:
        for size in range(1, group.degree + 1):
            if group.degree % size == 0:
                assert block_systems(group, size) == _block_systems_exhaustive(group, size)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_regular_elementary_abelian_systems_are_its_subgroups(r):
    # the blocks through 0 of a regular abelian group are its subgroups, and
    # the subgroups of order 2^j of (C_2)^r are the j-subspaces of GF(2)^r
    group = regular_elementary_abelian(r)
    for j in range(r + 1):
        assert len(block_systems(group, 2**j)) == gaussian_binomial(r, j, 2)


@pytest.mark.parametrize("k,b", [(6, 2), (6, 3), (8, 2), (8, 4)])
def test_exhaustive_block_systems_count_partitions_against_the_cap(monkeypatch, k, b):
    from imprimlab import groups

    # every partition is a system of the trivial group, and the search
    # builds each of them one class at a time
    nodes = {(6, 2): 36, (6, 3): 46, (8, 2): 253, (8, 4): 309}[k, b]
    trivial = PermGroup([Permutation.identity(k)])
    count = len(list(_equal_partitions(range(k), b)))
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes)
    assert len(block_systems(trivial, b)) == count
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes - 1)
    with pytest.raises(CapError, match=f"^block systems: {nodes} search nodes"):
        block_systems(trivial, b)


@pytest.mark.parametrize("r,b,nodes", [(3, 2, 8), (4, 4, 51)])
def test_transitive_block_search_counts_nodes_against_the_cap(monkeypatch, r, b, nodes):
    from imprimlab import groups

    group = regular_elementary_abelian(r)
    assert group.is_transitive()
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes)
    assert len(block_systems(group, b)) == gaussian_binomial(r, int(math.log2(b)), 2)
    monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes - 1)
    with pytest.raises(PhaseCapExceeded, match=f"^block systems: {nodes} search nodes"):
        block_systems(group, b)


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
def cut_perm_group_gens(draw, max_degree=8):
    """1-3 permutations of one degree <= max_degree.  Half the draws keep the
    points below a random cut apart from the rest, so the group is
    intransitive and, unlike conftest.perm_group_gens, may move both sides."""
    degree = draw(st.integers(1, max_degree))
    cut = draw(st.integers(1, degree - 1)) if degree > 1 and draw(st.booleans()) else 0
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.permutations(range(cut)))
        high = draw(st.permutations(range(cut, degree)))
        gens.append(Permutation([*low, *high]))
    return gens


@given(cut_perm_group_gens())
@example([perm(2, 3, 1, 4, 5, 6, 7, 8), perm(1, 2, 3, 4, 6, 7, 8, 5)])
def test_orbit_routines_match_the_breadth_first_oracle(gens):
    group = PermGroup(gens)
    smallest = [min(orbit_oracle(group, x)) for x in range(group.degree)]
    event("transitive" if max(smallest) == 0 else "intransitive")
    stack = np.array([g.images for g in gens])
    assert orbit_labels(stack).tolist() == smallest
    assert group.orbit_representatives() == sorted(set(smallest))
    assert group.is_transitive() == (max(smallest) == 0)


@st.composite
def imprimitive_gens(draw, max_degree=8):
    """1-3 permutations that preserve one random partition of the points into
    equal blocks: each permutes the blocks and the points inside them."""
    degree = draw(st.integers(1, max_degree))
    size = draw(st.sampled_from([b for b in range(1, degree + 1) if degree % b == 0]))
    count = degree // size
    points = draw(st.permutations(range(degree)))  # block i: points[i*size:(i+1)*size]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        outer = draw(st.permutations(range(count)))
        images = [0] * degree
        for i in range(count):
            inner = draw(st.permutations(range(size)))
            for t in range(size):
                images[points[i * size + t]] = points[outer[i] * size + inner[t]]
        gens.append(Permutation(images))
    return gens


@given(st.one_of(cut_perm_group_gens(), imprimitive_gens()))
@settings(max_examples=150)
def test_block_systems_match_the_oracle_on_generated_groups(gens):
    group = PermGroup(gens)
    event("transitive" if group.is_transitive() else "intransitive")
    for size in range(1, group.degree + 1):
        if group.degree % size == 0:
            expected = _block_systems_exhaustive(group, size)
            if 1 < size < group.degree:
                event("a proper size with systems" if expected else "a proper size without")
            assert block_systems(group, size) == expected


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
