"""The stabilizer chain against the closure.

Order, membership and containment read from a group's stabilizer chain are
checked against the listed elements of the same group (groups.mulclose),
on generated matrix groups (reducible ones included) and permutation
groups of degree <= 8 (intransitive ones included).  Groups in a small
ambient group are listed rather than sifted (groups.LIST_AMBIENT), so the
property tests route every group through its chain.  Beyond the closure's
reach the chain is checked against orders known in closed form.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from imprimlab import groups
from imprimlab.errors import DEFAULT_CAP_ELEMENTS, PhaseCapExceeded, limits
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    Permutation,
    StabilizerChain,
    general_linear_group,
    mulclose,
    symmetric_group,
)
from imprimlab.linalg import Matrix
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import (
    general_linear_order,
    matrix_groups,
    perm_group_gens,
    reducible_matrix_groups,
    sign_group,
)

CAP = 3000  # bounds the closure; larger groups are skipped


def closed_twin(group, cap=CAP):
    """The same group from the same generators, with its elements listed."""
    twin = type(group)(group.gens)
    with limits(elements=cap):
        twin.element_array
    return twin


@contextlib.contextmanager
def chains_only():
    """Order and membership of every group from its chain, none listed."""
    saved, groups.LIST_AMBIENT = groups.LIST_AMBIENT, 0
    try:
        yield
    finally:
        groups.LIST_AMBIENT = saved


def multiplicative_order(a, p):
    k, x = 1, a % p
    while x != 1:
        x, k = x * a % p, k + 1
    return k


@given(st.one_of(matrix_groups(), reducible_matrix_groups()), st.data())
def test_matrix_chain_matches_the_closure(gens, data):
    p, n = gens[0].p, gens[0].rows
    group = MatrixGroup(gens)
    try:
        twin = closed_twin(group)
    except PhaseCapExceeded:
        event("over the cap")
        return
    elements = twin.element_array
    # probes: random matrices, members, and products with a random matrix
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    probes = np.array([np.reshape(data.draw(entries), (n, n)) for _ in range(6)])
    members = elements[:: max(1, len(elements) // 6)].astype(np.int64)
    stack = np.concatenate([probes, members, members @ probes[0] % p])
    subset = MatrixGroup(gens[: data.draw(st.integers(1, len(gens)))])
    probe = Matrix(probes[0], p)
    with chains_only():
        assert group.order == len(mulclose(group._generator_stack, p)) == len(elements)
        assert np.array_equal(group.member_mask(stack), twin.member_mask(stack))
        assert all(group.contains(Matrix(a, p)) == twin.contains(Matrix(a, p)) for a in stack)
        # containment: a subgroup from a generator subset, an overgroup with a probe
        assert subset.is_subgroup_of(group)
        if probe.is_invertible():
            bigger = MatrixGroup(list(gens) + [probe])
            assert bigger.is_subgroup_of(group) == bool(twin.member_mask(probes[:1])[0])
            assert group.is_subgroup_of(bigger)
    assert "element_array" not in group.__dict__


@given(perm_group_gens(), st.data())
def test_perm_chain_matches_the_closure(gens, data):
    degree = gens[0].degree
    group = PermGroup(gens)
    twin = closed_twin(group, cap=math.factorial(8))
    event("transitive" if group.is_transitive() else "intransitive")
    probes = [Permutation(data.draw(st.permutations(range(degree)))) for _ in range(6)]
    probes += [Permutation(a) for a in twin.element_array[:: max(1, twin.order // 6)]]
    stack = np.array([q.images for q in probes])
    bigger = PermGroup(list(gens) + probes[:1])
    with chains_only():
        assert group.order == len(mulclose(group._generator_stack, None)) == twin.order
        assert np.array_equal(group.member_mask(stack), twin.member_mask(stack))
        assert all(group.contains(q) == twin.contains(q) for q in probes)
        assert bigger.is_subgroup_of(group) == twin.contains(probes[0])
        assert group.is_subgroup_of(bigger)
    assert "element_array" not in group.__dict__


@given(st.one_of(matrix_groups(), reducible_matrix_groups()))
def test_chain_points_are_counted_against_the_cap(gens):
    # the chain of a group that the closure can list always fits its cap
    p = gens[0].p
    stack = np.stack([g.a for g in gens])
    chain = StabilizerChain(stack, p)
    assert chain.points <= chain.order - 1
    with limits(elements=chain.points):
        assert StabilizerChain(stack, p).order == chain.order
    if chain.points:
        with (limits(elements=chain.points - 1),
              pytest.raises(PhaseCapExceeded, match="^stabilizer chain: ")):
            StabilizerChain(stack, p)


def test_long_cycle_orders_in_a_few_steps():
    # one breadth-first level per element took 35 s to close this group
    p = 100003
    group = MatrixGroup([Matrix([[2, 0], [0, 3]], p)])
    start = time.process_time()
    order = group.order
    assert time.process_time() - start < 1
    assert order == math.lcm(multiplicative_order(2, p), multiplicative_order(3, p))
    power = pow(2, 12345, p), pow(3, 12345, p)
    assert group.contains(Matrix([[power[0], 0], [0, power[1]]], p))
    assert not group.contains(Matrix([[2, 0], [0, 1]], p))
    assert not group.contains(Matrix([[0, 1], [1, 0]], p))
    assert "element_array" not in group.__dict__


def test_order_above_the_element_cap():
    # |sign wr S_9| = 2^9 * 9! = 185 794 560 is far above the 2^20 elements
    # the closure may list; the chain needs 81 orbit points
    group = wreath_product(WreathSpec(sign_group(3), symmetric_group(9)))
    assert group.order == 2**9 * math.factorial(9) > DEFAULT_CAP_ELEMENTS
    flip = np.eye(9, dtype=np.int64)
    flip[[0, 4]] = flip[[4, 0]]
    flip[4] *= -1
    assert group.contains(Matrix(flip, 3))  # monomial with entries +-1
    flip[4, 0] = 1
    flip[4, 1] = 1
    assert not group.contains(Matrix(flip, 3))  # invertible, not monomial
    assert "element_array" not in group.__dict__


def test_chain_orders_of_known_groups():
    assert general_linear_group(3, 3).chain.order == general_linear_order(3, 3)
    assert general_linear_group(4, 5).chain.order == general_linear_order(4, 5)
    assert symmetric_group(9).chain.order == math.factorial(9)
    assert MatrixGroup([Matrix.identity(3, 5)]).chain.order == 1
    # the generator's cycle through the first base point is shorter than its
    # order, so the one non-identity Schreier generator (g^3, g^2) carries
    # the rest of the group
    assert MatrixGroup([Matrix([[2, 0], [0, 3]], 7)]).chain.order == 6
    assert PermGroup([Permutation([1, 0, 3, 4, 2])]).chain.order == 6
    # 65537^4 > 2^63: no orbit vector fits one 64-bit integer; 2 has order 32
    # mod 65537 and 2^16 = -1, while 3 generates the whole unit group
    for a, order, outside in ((-1, 2, 2), (2, 32, 3)):
        group = MatrixGroup([Matrix.diagonal([a, 1, 1, 1], 65537)])
        assert group.chain.order == order
        assert group.contains(Matrix.diagonal([-1, 1, 1, 1], 65537))
        assert not group.contains(Matrix.diagonal([outside, 1, 1, 1], 65537))


def test_small_ambient_groups_are_listed_and_large_ones_sifted():
    # S_7 and GL_2(7) have at most LIST_AMBIENT elements, S_8 and GL_3(3) more
    small = [symmetric_group(7), general_linear_group(2, 7)]
    large = [symmetric_group(8), general_linear_group(3, 3)]
    for group in small + large:
        assert group.contains(group.gens[0])
    assert all("element_array" in g.__dict__ and "chain" not in g.__dict__ for g in small)
    assert all("chain" in g.__dict__ and "element_array" not in g.__dict__ for g in large)


@pytest.mark.parametrize("kind", ["matrix", "perm"])
def test_stacks_with_leading_axes_get_one_flat_answer_on_both_routes(kind):
    # a (3, 4, ...) stack of six members and six elements of the ambient
    # group: the chain, the listed elements and positions all flatten it
    if kind == "matrix":
        ambient = general_linear_group(2, 5)
        group = MatrixGroup([Matrix([[2, 0], [0, 1]], 5), Matrix([[0, 1], [1, 0]], 5)])
    else:
        ambient = symmetric_group(4)
        group = PermGroup([Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])
    twin = closed_twin(group)
    flat = np.concatenate([twin.element_array[:6], ambient.element_array[-6:]])
    stack = flat.reshape(3, 4, *flat.shape[1:])
    expected = np.array([twin.member_mask(a[None])[0] for a in flat])
    assert expected.any() and not expected.all()
    with chains_only():
        assert np.array_equal(group.member_mask(stack), expected)
    assert "element_array" not in group.__dict__
    assert np.array_equal(twin.member_mask(stack), expected)
    positions = twin.positions(stack)
    assert np.array_equal(positions, twin.positions(flat))
    assert np.array_equal(twin.element_array[positions[expected]], flat[expected])
    assert (positions[~expected] == -1).all()
