import numpy as np
import pytest

from imprimlab.errors import HypothesisViolation, NotExceptional
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    block_systems,
    cyclic_group,
    general_linear_group,
    symmetric_group,
)
from imprimlab.imprim import all_systems, is_system, nonrefinable_systems
from imprimlab.linalg import Matrix
from imprimlab.reprs import is_irreducible
from imprimlab.verify import wreath_inclusion_report, wreath_uniqueness_report
from imprimlab.wreath import (
    WreathSpec,
    block_permutation_matrix,
    check_hypotheses,
    expected_exceptional_systems,
    is_exceptional,
    wreath_product,
)

from conftest import count_calls, perm, sign_group


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
