"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline; under a plain `pytest -v` run the test names carry the
criterion numbers and the prints surface on failure.
"""

import itertools
import random

import numpy as np
import pytest

from imprimlab.groups import (
    MatrixGroup,
    cyclic_group,
    general_linear_group,
    symmetric_group,
)
from imprimlab.imprim import all_systems, is_system
from imprimlab.linalg import Matrix, Subspace, rref
from imprimlab.reprs import Character, induced_module, invariant_subspaces
from imprimlab.verify import (
    induced_example_report,
    maximal_solvable_witness,
    regression_theorem_instances,
    wreath_inclusion_report,
    wreath_uniqueness_report,
)
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import (
    block_diagonal_product,
    element_keys,
    elements,
    general_linear_order,
    intersect,
    is_monomial,
    regression_inclusion_instances,
    sign_group,
    subspace_sum,
    summand_subspaces,
)


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def regression_reports():
    return {
        name: wreath_uniqueness_report(spec)
        for name, spec in regression_theorem_instances()
    }


def test_criterion_1_induced_example_reproduction():
    details = []
    ok = True
    required = [
        "faithful_order",
        "irreducible",
        "nonrefinable_line_system",
        "nonrefinable_plane_system",
        "systems_incomparable",
        "restriction_splits",
        "summands_nonisomorphic_hom_dim",
    ]
    for q in (7, 13):
        report = induced_example_report(q)
        claim_ok = report.passed and all(
            report.claim(cid).passed for cid in required
        )
        ok = ok and claim_ok
        details.append(f"q={q}: {report.wall_time_ms:.0f} ms")
        assert report.claim("faithful_order").expected == 48
    report_line(1, "induced degree-4 reproduction", ok, ", ".join(details))


def test_criterion_2_unique_nonrefinable_instances(regression_reports):
    expected_unique = ["sign-wr-s3-p3", "gl23-wr-c2-p3", "c3-wr-c4-p7"]
    ok = True
    for name in expected_unique:
        report = regression_reports[name]
        good = (
            report.passed
            and not report.instance["exceptional"]
            and report.claim("nonrefinable_count").observed == 1
            and report.claim("unique_nonrefinable_is_standard").passed
        )
        ok = ok and good
    report_line(2, "unique nonrefinable system", ok, ", ".join(expected_unique))


def test_criterion_3_exceptional_census(regression_reports):
    expected_counts = {
        "sign-wr-c4-p3": 2,
        "sign-wr-c4-p5": 3,
        "sign-wr-klein-p5": 7,
        "sign-wr-d8-p3": 2,
    }
    ok = True
    details = []
    for name, count in expected_counts.items():
        report = regression_reports[name]
        good = (
            report.passed
            and report.instance["exceptional"]
            and report.claim("census_matches_scan").passed
            and report.claim("nonrefinable_count").observed == count
            and report.stats["census_count"] == count
        )
        ok = ok and good
        details.append(f"{name}={report.claim('nonrefinable_count').observed}")
    report_line(3, "exceptional census", ok, ", ".join(details))


def test_criterion_4_criteria_agreement(regression_reports):
    ok = all(
        report.claim("criteria_agreement").passed
        for report in regression_reports.values()
    )
    report_line(4, "refinement vs stabilizer criteria", ok,
                f"{len(regression_reports)} instances")


def test_criterion_5_submodule_and_part_count_bounds():
    families = [
        ([lambda: sign_group(3), lambda: sign_group(3)], 3),
        ([lambda: sign_group(5), lambda: sign_group(5)], 5),
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
        (
            [lambda: general_linear_group(2, 3)] * 3,
            3,
        ),
    ]
    ok = True
    checked = 0
    for factories, p in families:
        factors = [make() for make in factories]
        group, dims, offsets = block_diagonal_product(factors)
        n = int(offsets[-1])
        k = len(factors)
        summands = summand_subspaces(dims, offsets, n, p)
        expected = set()
        for r in range(1, k):
            for combo in itertools.combinations(summands, r):
                total = combo[0]
                for extra in combo[1:]:
                    total = subspace_sum(total, extra)
                expected.add(total.key)
        found = {s.key for s in invariant_subspaces(group.gens, n, p)}
        ok = ok and found == expected
        ok = ok and is_system(group, summands)
        for system in all_systems(group):
            ok = ok and system.component_count <= k
        checked += 1
    report_line(5, "submodule sums and part-count bound", ok,
                f"{checked} direct products, p in (3,5,7)")


def test_criterion_6_solvable_overgroup_witnesses():
    ok = True
    details = []
    for q in (3, 5):
        report = maximal_solvable_witness(q)
        good = report.passed and report.claim("witness_found").passed
        if q == 3:
            good = good and report.claim("ambient_group_solvable").observed is True
        else:
            good = good and report.claim("ambient_group_solvable").observed is False
            good = good and report.stats["witness_order"] < report.stats["ambient_order"]
        ok = ok and good
        details.append(
            f"q={q}: |M|={report.stats['base_order']} < "
            f"|S|={report.stats['witness_order']}"
        )
    report_line(6, "solvable overgroup witnesses", ok, ", ".join(details))


def test_criterion_7_inclusion_equivalence():
    ok = True
    details = []
    for name, h1, k1, h2, k2, expected in regression_inclusion_instances():
        report = wreath_inclusion_report(h1, k1, h2, k2)
        good = (
            report.passed
            and report.stats["containment"] == expected
            and report.stats["conditions"] == expected
        )
        ok = ok and good
        details.append(f"{name}: lhs=rhs={report.stats['containment']}")
    report_line(7, "containment iff structural conditions", ok, "; ".join(details))


def test_criterion_8_infrastructure_properties():
    ok = True
    rng = random.Random(1234)

    # echelon form is idempotent
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)])
        r1 = rref(a, p)[0]
        ok = ok and np.array_equal(r1, rref(r1, p)[0])

    # dimension formula for sums and intersections
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        n = rng.randint(2, 5)

        def draw():
            rows = [
                [rng.randrange(p) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            return Subspace.span(rows, n, p)

        w1, w2 = draw(), draw()
        ok = ok and (
            subspace_sum(w1, w2).rank + intersect(w1, w2).rank == w1.rank + w2.rank
        )

    # closure axioms on enumerated groups
    for group in (
        general_linear_group(2, 3),
        wreath_product(WreathSpec(sign_group(3), cyclic_group(2))),
    ):
        keys = set(element_keys(group))
        ok = ok and group.identity.key in keys
        for a, b in itertools.product(elements(group), repeat=2):
            ok = ok and (a * b).key in keys
        for a in elements(group):
            ok = ok and a.inv().key in keys

    # induced images are monomial and multiplicative
    ambient = general_linear_group(2, 3)
    dihedral = MatrixGroup(
        [Matrix([[1, 0], [0, -1]], 3), Matrix([[-1, 1], [0, -1]], 3)]
    )
    rep = induced_module(ambient, dihedral, Character(dihedral, [1, 6], 7))
    for g in elements(ambient):
        ok = ok and is_monomial(rep.image(g))
    pairs = list(itertools.product(ambient.gens, repeat=2))
    ok = ok and all(
        rep.image(a) * rep.image(b) == rep.image(a * b) for a, b in pairs
    )

    # wreath order formula |H|^k * |K|
    for h, k in (
        (sign_group(3), symmetric_group(3)),
        (general_linear_group(2, 3), cyclic_group(2)),
        (MatrixGroup([Matrix([[2]], 7)]), cyclic_group(4)),
    ):
        spec = WreathSpec(h, k)
        ok = ok and wreath_product(spec).order == h.order**k.degree * k.order

    ok = ok and general_linear_order(2, 3) == 48
    report_line(8, "infrastructure property suites", ok)
