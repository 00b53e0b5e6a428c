"""Wreath products, their hypotheses and the exceptional census.

The library generates H wr K from one copy of H per K-orbit of blocks.
wreath_product_oracle and perm_wreath_oracle are the constructions it
replaced, with a copy of H at every block; they are kept here, and only
here, as the references the reduced generator sets are checked against.
block_permutation_matrix, the oracle's block permutations built entry by
entry, checks the one product (kron of K's permutation matrices with I_d)
the library forms them with.
lambda_classes_oracle is the linear search for a square root of -1 that a
power of the primitive root replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from imprimlab import verify
from imprimlab.errors import HypothesisViolation, NotExceptional
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    Permutation,
    block_systems,
    cyclic_group,
    general_linear_group,
    perm_wreath,
    symmetric_group,
)
from imprimlab.imprim import all_systems, is_system, nonrefinable_systems
from imprimlab.linalg import Matrix, is_prime
from imprimlab.reprs import is_irreducible
from imprimlab.verify import (
    _structural_conditions,
    wreath_inclusion_report,
    wreath_uniqueness_report,
)
from imprimlab.wreath import (
    WreathSpec,
    _lambda_classes,
    check_hypotheses,
    embed_at_block,
    expected_exceptional_systems,
    is_exceptional,
    wreath_product,
)

from conftest import count_calls, matrix_groups, perm, sign_group

# Largest group the oracle tests close: |H|^k * k! stays under it.
ORACLE_ORDER = 2**13


def block_permutation_matrix(perm: Permutation, d: int, p: int) -> Matrix:
    """Matrix sending block-coordinate slot i to slot perm(i), row action."""
    k = perm.degree
    n = d * k
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        j = perm(i)
        for s in range(d):
            out[i * d + s, j * d + s] = 1
    return Matrix(out, p)


def wreath_product_oracle(spec):
    """H wr K with every generator of H embedded at every block."""
    d, k = spec.block_dim, spec.block_count
    gens = [Matrix(a, spec.p) for i in range(k)
            for a in embed_at_block(spec.h._generator_stack, i, k)]
    gens += [block_permutation_matrix(g, d, spec.p) for g in spec.k.gens]
    return MatrixGroup(gens)


def perm_wreath_oracle(x, y):
    """The imprimitive wreath action with x's generators in every block."""
    s, ell = x.degree, y.degree
    degree = s * ell
    gens = []
    for g in x.gens:
        for j in range(ell):
            images = list(range(degree))
            for t in range(s):
                images[j * s + t] = j * s + g(t)
            gens.append(Permutation(images))
    for g in y.gens:
        gens.append(Permutation([g(i // s) * s + (i % s) for i in range(degree)]))
    return PermGroup(gens)


@st.composite
def perm_groups(draw, max_degree=4):
    """1-2 random permutations of one degree <= max_degree; often intransitive."""
    degree = draw(st.integers(1, max_degree))
    images = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    return PermGroup([Permutation(g) for g in images])


@given(perm_groups(max_degree=6))
def test_perm_group_from_its_stack_has_the_same_generators(k):
    assert PermGroup.from_stack(k._generator_stack).gens == k.gens


def max_block_count(block_order):
    """Largest k <= 4 with block_order^k * k! within ORACLE_ORDER."""
    return max(k for k in range(1, 5)
               if block_order**k * math.factorial(k) <= ORACLE_ORDER)


def transitivity_event(k):
    event("K transitive" if k.is_transitive() else "K intransitive")


def test_block_permutation_row_convention():
    # slot i moves to slot pi(i): e_1 @ P = e_2 for the 4-cycle, blocks of size 1
    p4 = block_permutation_matrix(perm(2, 3, 4, 1), 1, 3)
    for i in range(4):
        e = np.zeros(4, dtype=np.int64)
        e[i] = 1
        image = e @ p4.a % 3
        assert image[(i + 1) % 4] == 1 and image.sum() == 1

    # with 2-dimensional blocks the inner coordinate is preserved
    p2 = block_permutation_matrix(perm(2, 1), 2, 3)
    e = np.zeros(4, dtype=np.int64)
    e[1] = 1  # second coordinate of block 1
    assert (e @ p2.a % 3).tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize(
    "h_factory,k_factory,expected",
    [
        (lambda: sign_group(3), lambda: cyclic_group(2), 2**2 * 2),
        (lambda: sign_group(3), lambda: symmetric_group(3), 2**3 * 6),
        (lambda: general_linear_group(2, 3), lambda: cyclic_group(2), 48**2 * 2),
        (lambda: MatrixGroup([Matrix([[2]], 7)]), lambda: cyclic_group(4), 3**4 * 4),
    ],
)
def test_wreath_order_formula(h_factory, k_factory, expected):
    spec = WreathSpec(h_factory(), k_factory())
    assert wreath_product(spec).order == expected


def test_wreath_of_primitive_and_transitive_is_irreducible():
    for spec in (
        WreathSpec(sign_group(3), symmetric_group(3)),
        WreathSpec(sign_group(5), cyclic_group(4)),
        WreathSpec(general_linear_group(2, 3), cyclic_group(2)),
    ):
        check_hypotheses(spec)
        assert is_irreducible(wreath_product(spec))


def test_is_exceptional_examples(klein_group):
    assert is_exceptional(WreathSpec(sign_group(3), cyclic_group(4)))
    assert not is_exceptional(WreathSpec(sign_group(3), symmetric_group(3)))
    assert not is_exceptional(WreathSpec(sign_group(5), symmetric_group(4)))
    assert is_exceptional(WreathSpec(sign_group(5), klein_group))
    # block dimension 2 is never exceptional
    assert not is_exceptional(
        WreathSpec(general_linear_group(2, 3), cyclic_group(2))
    )


def test_hypothesis_violations_are_named():
    trivial = MatrixGroup([Matrix.identity(1, 3)])
    with pytest.raises(HypothesisViolation, match="nontrivial"):
        is_exceptional(WreathSpec(trivial, cyclic_group(2)))

    reducible = MatrixGroup([Matrix.diagonal([1, -1], 3)])
    with pytest.raises(HypothesisViolation, match="irreducible"):
        is_exceptional(WreathSpec(reducible, cyclic_group(2)))

    imprimitive = wreath_product(WreathSpec(sign_group(3), cyclic_group(2)))
    with pytest.raises(HypothesisViolation, match="primitive"):
        is_exceptional(WreathSpec(imprimitive, cyclic_group(2)))

    intransitive = PermGroup([perm(2, 1, 3)])
    with pytest.raises(HypothesisViolation, match="transitive"):
        is_exceptional(WreathSpec(sign_group(3), intransitive))

    with pytest.raises(HypothesisViolation, match="k > 1"):
        is_exceptional(WreathSpec(sign_group(3), PermGroup([perm(1)])))


def test_census_counts(klein_group, dihedral8_group):
    census = expected_exceptional_systems(WreathSpec(sign_group(3), cyclic_group(4)))
    assert census.count == 2 and census.lambdas == [1]

    census = expected_exceptional_systems(WreathSpec(sign_group(5), cyclic_group(4)))
    assert census.count == 3 and census.lambdas == [1, 2]

    census = expected_exceptional_systems(WreathSpec(sign_group(5), klein_group))
    assert census.count == 7 and len(census.pair_systems) == 3

    census = expected_exceptional_systems(WreathSpec(sign_group(3), dihedral8_group))
    assert census.count == 2 and len(census.pair_systems) == 1


def lambda_classes_oracle(p):
    """1, and for p = 1 mod 4 the smaller square root of -1, found by trying
    every residue."""
    out = [1]
    if p % 4 == 1:
        root = next(x for x in range(2, p) if x * x % p == p - 1)
        out.append(min(root, p - root))
    return out


def test_census_scalars_match_the_linear_search():
    for p in filter(is_prime, range(3, 500)):
        assert _lambda_classes(p) == lambda_classes_oracle(p)
    p, root = 1000000009, 430477711
    assert root * root % p == p - 1 and root < p - root
    census = expected_exceptional_systems(WreathSpec(sign_group(p), cyclic_group(4)))
    assert census.lambdas == [1, root] and census.count == 3


def test_census_rejects_non_exceptional():
    with pytest.raises(NotExceptional):
        expected_exceptional_systems(WreathSpec(sign_group(3), symmetric_group(3)))


def test_census_systems_pass_is_system(klein_group):
    for spec in (
        WreathSpec(sign_group(3), cyclic_group(4)),
        WreathSpec(sign_group(5), klein_group),
        WreathSpec(sign_group(5), cyclic_group(2)),
    ):
        group = wreath_product(spec)
        for system in expected_exceptional_systems(spec).systems:
            assert is_system(group, system.parts)


def test_census_matches_nonrefinable_scan_degree_two():
    # smallest exceptional shape: one pair block, lambda in {1, 2} mod 5
    spec = WreathSpec(sign_group(5), cyclic_group(2))
    census = expected_exceptional_systems(spec)
    assert census.count == 3
    group = wreath_product(spec)
    scan = nonrefinable_systems(group)
    assert sorted(s.key for s in scan) == sorted(s.key for s in census.systems)
    # in degree 2 every system is a line system, so the scan is the census
    assert sorted(s.key for s in all_systems(group)) == sorted(
        s.key for s in census.systems
    )


def test_hypotheses_are_decided_once_per_report(monkeypatch):
    spins = count_calls(monkeypatch, is_irreducible)
    pairings = count_calls(monkeypatch, block_systems)

    def spins_of(h):
        return sum(args[0] is h for args in spins)

    exceptional = WreathSpec(sign_group(3), cyclic_group(4))
    assert wreath_uniqueness_report(exceptional).instance["exceptional"] is True
    assert spins_of(exceptional.h) == 1
    assert sum(args == (exceptional.k, 2) for args in pairings) == 1

    plain = WreathSpec(sign_group(3), symmetric_group(3))
    assert wreath_uniqueness_report(plain).instance["exceptional"] is False
    assert spins_of(plain.h) == 1

    c3 = MatrixGroup([Matrix([[2]], 7)])
    outer = wreath_product(WreathSpec(c3, cyclic_group(2)))
    report = wreath_inclusion_report(c3, PermGroup([perm(3, 4, 2, 1)]), outer,
                                     cyclic_group(2))
    assert report.passed
    assert spins_of(c3) == 1


@settings(max_examples=100)
@given(st.data())
def test_reduced_wreath_generators_close_to_the_full_group(data):
    h = MatrixGroup(data.draw(matrix_groups(max_n=2, primes=(2, 3, 5))))
    k = data.draw(perm_groups(max_degree=max_block_count(h.order)))
    transitivity_event(k)
    spec = WreathSpec(h, k)
    reduced = wreath_product(spec)
    orbits = len(k.orbit_representatives())
    assert len(reduced.gens) == orbits * len(h.gens) + len(k.gens)
    assert np.array_equal(reduced.sorted_keys, wreath_product_oracle(spec).sorted_keys)


@settings(max_examples=100)
@given(st.data())
def test_reduced_perm_wreath_generators_close_to_the_full_group(data):
    x = data.draw(perm_groups(max_degree=3))
    y = data.draw(perm_groups(max_degree=max_block_count(x.order)))
    transitivity_event(y)
    reduced = perm_wreath(x, y)
    assert np.array_equal(reduced.sorted_keys, perm_wreath_oracle(x, y).sorted_keys)


def test_wreath_generators_are_one_copy_of_h_per_orbit():
    # sign wr S6: one sign plus two generators of S6
    spec = WreathSpec(sign_group(3), symmetric_group(6))
    assert len(wreath_product(spec).gens) == 3
    # GL(2,3) wr S3: three generators of GL(2,3) plus two of S3
    spec = WreathSpec(general_linear_group(2, 3), symmetric_group(3))
    assert len(wreath_product(spec).gens) == 5
    # an intransitive K with orbits {1, 2} and {3}: one copy of H per orbit
    spec = WreathSpec(sign_group(3), PermGroup([perm(2, 1, 3)]))
    assert len(wreath_product(spec).gens) == 3
    assert wreath_product(spec).order == 2**3 * 2


def test_structural_conditions_with_intransitive_stabilizer_action(monkeypatch):
    # K = <(1 2)> on 6 points is intransitive.  Each of its block systems
    # with blocks of size 3 puts 1 and 2 in the first block, whose
    # stabilizer acts on it as <(1 2)>: intransitive, fixing the third point.
    spec1 = WreathSpec(sign_group(3), PermGroup([perm(2, 1, 3, 4, 5, 6)]))
    built = []

    def record(build, oracle):
        def wrapper(*args):
            group = build(*args)
            built.append((args, group, oracle(*args)))
            return group
        return wrapper

    monkeypatch.setattr(verify, "wreath_product", record(wreath_product, wreath_product_oracle))
    monkeypatch.setattr(verify, "perm_wreath", record(perm_wreath, perm_wreath_oracle))
    signs = wreath_product_oracle(WreathSpec(sign_group(3), symmetric_group(3)))
    holds, witness = _structural_conditions(spec1, signs, cyclic_group(2))
    assert holds and witness.blocks[0] == (0, 1, 2)
    # the inner wreath product has signs at all three points, so it is not
    # in the group with signs at points 1 and 2 only
    short = MatrixGroup([Matrix.diagonal([2, 1, 1], 3),
                         block_permutation_matrix(perm(2, 1, 3), 1, 3)])
    assert short.order == 8
    assert _structural_conditions(spec1, short, cyclic_group(2)) == (False, None)
    specs = [args[0] for args, _, _ in built if len(args) == 1]
    stab_actions = [args[0] for args, _, _ in built if len(args) == 2]
    assert specs and not any(spec.k.is_transitive() for spec in specs)
    assert stab_actions and not any(x.is_transitive() for x in stab_actions)
    for _, group, oracle in built:
        assert np.array_equal(group.sorted_keys, oracle.sorted_keys)


def test_structural_conditions_relabel_blocks_out_of_order(monkeypatch):
    # K = <(1 2 3)(4 5 6), (1 4)(2 5)(3 6)> is regular C6; its one system of
    # pairs is {1,4},{2,5},{3,6}.  Moving each block to consecutive points is
    # sigma: 1,4,2,5,3,6 -> 1..6, which is not its own inverse, so only the
    # right relabeling puts K's generators in C2 wr C3.
    k = PermGroup([perm(2, 3, 1, 5, 6, 4), perm(4, 5, 6, 1, 2, 3)])
    sigma = np.array([0, 2, 4, 1, 3, 5])
    wreaths, tested = [], []

    def record(*args):
        wreaths.append(perm_wreath(*args))
        return wreaths[-1]

    member_mask = PermGroup.member_mask

    def spy(self, stack):
        if any(self is w for w in wreaths):
            tested.append(np.array(stack))
        return member_mask(self, stack)

    monkeypatch.setattr(verify, "perm_wreath", record)
    monkeypatch.setattr(PermGroup, "member_mask", spy)
    h2 = wreath_product_oracle(WreathSpec(sign_group(3), symmetric_group(2)))
    holds, witness = _structural_conditions(WreathSpec(sign_group(3), k), h2, cyclic_group(3))
    assert holds and witness.blocks == ((0, 3), (1, 4), (2, 5))
    # the stack tested is K's generators relabeled: g^sigma(sigma(i)) = sigma(g(i))
    [relabeled] = tested
    gens = k._generator_stack
    assert np.array_equal(relabeled[:, sigma], sigma[gens])
    for g, r in zip(k.gens, relabeled):
        for i in range(6):
            assert r[sigma[i]] == sigma[g(i)]
