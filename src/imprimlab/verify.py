"""End-to-end verification scenarios producing structured reports.

Each scenario builds its groups from scratch, checks a fixed list of claims
with two independent routes wherever possible (exhaustive scan against
census, brute-force refinement against the stabilizer criterion, literal
membership against structural conditions), and returns a deterministic
VerificationReport.  Wall time is measured but kept out of the canonical
JSON payload so reports are bit-for-bit reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

import numpy as np

from .descriptions import matrix_group_description, parse_group
from .errors import BadModulus, ExceptionalInstance, ValidationError
from .groups import (
    MatrixGroup,
    PermGroup,
    block_systems,
    general_linear_group,
    perm_wreath,
    primitive_root,
)
from .imprim import (
    all_systems,
    coordinate_system,
    is_refinement,
    nonrefinable,
    nonrefinable_via_stabilizer,
)
from .linalg import Matrix, direct_sum_check, is_prime
from .reprs import (
    Character,
    hom_dimension,
    induced_module,
    invariant_subspaces,
    is_irreducible,
    restrict_matrix,
)
from .wreath import WreathSpec, check_hypotheses, wreath_product

REPORT_SCHEMA = "imprimlab-report/1"


@dataclass(frozen=True)
class Claim:
    claim_id: str
    expected: Any
    observed: Any

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


@dataclass
class VerificationReport:
    scenario: str
    instance: dict
    claims: list[Claim]
    stats: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def claim(self, claim_id: str) -> Claim:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "instance": self.instance,
            "claims": [
                {
                    "id": c.claim_id,
                    "expected": c.expected,
                    "observed": c.observed,
                    "pass": c.passed,
                }
                for c in self.claims
            ],
            "stats": self.stats,
            "pass": self.passed,
        }

    def summary_lines(self) -> list[str]:
        ok = sum(c.passed for c in self.claims)
        lines = [
            f"{self.scenario}: {'PASS' if self.passed else 'FAIL'} "
            f"({ok}/{len(self.claims)} claims, {self.wall_time_ms:.0f} ms)"
        ]
        for c in self.claims:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{mark}] {c.claim_id}: expected={c.expected!r} observed={c.observed!r}"
            )
        return lines


def _criteria_agree(group, systems, nonref: set) -> bool:
    return all(
        (system in nonref) == nonrefinable_via_stabilizer(group, system)
        for system in systems
    )


def wreath_uniqueness_report(spec: WreathSpec) -> VerificationReport:
    """Unique nonrefinable system, or the full census in the exceptional case.

    Claims: the wreath product is irreducible; outside the exceptional
    shape its only nonrefinable system is the defining coordinate one;
    inside it the nonrefinable systems found by exhaustive scan equal the
    pair-partition census; and on every enumerated system the brute-force
    and stabilizer nonrefinability criteria agree.
    """
    t0 = time.perf_counter()
    census = check_hypotheses(spec)
    exceptional = census is not None
    group = wreath_product(spec)
    stats = {"group_order": group.order}
    instance = {
        "p": spec.p,
        "block_dim": spec.block_dim,
        "block_count": spec.block_count,
        "degree": spec.degree,
        "block_group_order": spec.h.order,
        "point_group_order": spec.k.order,
        "exceptional": exceptional,
    }
    claims = [
        Claim("order_formula", spec.h.order ** spec.block_count * spec.k.order,
              group.order),
        Claim("irreducible", True, is_irreducible(group)),
    ]
    systems = all_systems(group, stats=stats)
    nonref = set(nonrefinable(systems))
    stats["nonrefinable_count"] = len(nonref)
    coord = coordinate_system(spec.degree, spec.block_dim, spec.p)
    if exceptional:
        stats["census_count"] = census.count
        stats["pair_partition_count"] = len(census.pair_systems)
        claims.append(
            Claim("nonrefinable_count", census.count, len(nonref))
        )
        claims.append(
            Claim("census_matches_scan", True, set(census.systems) == nonref)
        )
        claims.append(Claim("standard_system_nonrefinable", True, coord in nonref))
    else:
        claims.append(Claim("nonrefinable_count", 1, len(nonref)))
        claims.append(
            Claim("unique_nonrefinable_is_standard", True, nonref == {coord})
        )
    claims.append(
        Claim("criteria_agreement", True, _criteria_agree(group, systems, nonref))
    )
    report = VerificationReport(
        scenario="wreath-uniqueness", instance=instance, claims=claims, stats=stats
    )
    report.wall_time_ms = (time.perf_counter() - t0) * 1000
    return report


def _dihedral12_gens():
    flip = Matrix([[1, 0], [0, -1]], 3)
    rot = Matrix([[-1, 1], [0, -1]], 3)
    return flip, rot


def _special_linear_2_3():
    upper = Matrix([[1, 1], [0, 1]], 3)
    lower = Matrix([[1, 0], [1, 1]], 3)
    return MatrixGroup([upper, lower])


def induced_example_report(q: int) -> VerificationReport:
    """Degree-4 induced monomial group with two incomparable nonrefinable
    systems of different component counts.

    Induces a sign character of an order-12 dihedral subgroup of GL2(3) up
    to the full group, landing in GL4(q).  Requires q prime with
    q = 1 mod 6 so the target field has a primitive cube root of unity and
    the index-2 restriction splits into non-isomorphic halves.
    """
    t0 = time.perf_counter()
    if not is_prime(q):
        raise BadModulus(f"{q} is not prime")
    if q % 6 != 1:
        raise BadModulus(f"{q} is not congruent to 1 mod 6")
    ambient = general_linear_group(2, 3)
    flip, rot = _dihedral12_gens()
    dihedral = MatrixGroup([flip, rot])
    theta = Character(dihedral, [1, q - 1], q)
    rep = induced_module(ambient, dihedral, theta)
    image = rep.group
    stats = {"ambient_order": ambient.order, "subgroup_order": dihedral.order}
    instance = {"q": q, "degree": rep.degree, "source_p": 3}
    claims = [
        Claim("subgroup_order", 12, dihedral.order),
        Claim("index", 4, rep.degree),
        Claim("faithful_order", ambient.order, image.order),
        Claim("irreducible", True, is_irreducible(image)),
    ]
    systems = all_systems(image, stats=stats)
    nonref = set(nonrefinable(systems))
    lines = [s for s in systems if s.component_dim == 1 and s.component_count == 4]
    planes = [s for s in systems if s.component_dim == 2 and s.component_count == 2]
    stats["line_system_count"] = len(lines)
    stats["plane_system_count"] = len(planes)
    stats["nonrefinable_count"] = len(nonref)
    claims.append(
        Claim("nonrefinable_line_system", True,
              any(s in nonref for s in lines))
    )
    claims.append(
        Claim("nonrefinable_plane_system", True,
              any(s in nonref for s in planes))
    )
    claims.append(
        Claim(
            "systems_incomparable",
            True,
            bool(lines)
            and bool(planes)
            and all(
                not is_refinement(a, b) and not is_refinement(b, a)
                for a in lines
                for b in planes
            ),
        )
    )
    claims.append(
        Claim("criteria_agreement", True, _criteria_agree(image, systems, nonref))
    )
    # restriction to the index-2 subgroup of the source
    special = _special_linear_2_3()
    claims.append(Claim("index_two_subgroup", 2, ambient.order // special.order))
    restricted_gens = [rep.image(g) for g in special.gens]
    inv_planes = invariant_subspaces(restricted_gens, rep.degree, q, dims=[2])
    claims.append(Claim("restriction_invariant_planes", 2, len(inv_planes)))
    splits = len(inv_planes) == 2 and direct_sum_check(inv_planes)
    claims.append(Claim("restriction_splits", True, splits))
    if splits:
        w1, w2 = inv_planes
        rest1 = [restrict_matrix(m, w1) for m in restricted_gens]
        rest2 = [restrict_matrix(m, w2) for m in restricted_gens]
        claims.append(
            Claim("restriction_summands_irreducible", True,
                  is_irreducible(MatrixGroup(rest1))
                  and is_irreducible(MatrixGroup(rest2)))
        )
        claims.append(
            Claim("summands_nonisomorphic_hom_dim", 0,
                  hom_dimension(rest1, rest2, q))
        )
        claims.append(
            Claim("splitting_field_endomorphism_dim", 1,
                  hom_dimension(rest1, rest1, q))
        )
    report = VerificationReport(
        scenario="induced-example", instance=instance, claims=claims, stats=stats
    )
    report.wall_time_ms = (time.perf_counter() - t0) * 1000
    return report


def _structural_conditions(spec1: WreathSpec, h2: MatrixGroup, k2: PermGroup):
    """Search the block systems of the point group for a witness to the
    structural containment conditions; returns (holds, witness_blocks).
    sigma, the argsort of the blocks' concatenation, relabels the point
    group's generator stack so that each block's points are consecutive."""
    k = spec1.block_count
    n = spec1.degree
    e, ell = h2.n, k2.degree
    if not (ell > 1 and k % ell == 0 and n == e * ell):
        return False, None
    block_size = k // ell
    for partition in block_systems(spec1.k, block_size):
        stab_action = spec1.k.stabilizer_block_action(partition.blocks[0])
        point_action = spec1.k.block_action(partition)
        if not point_action.is_subgroup_of(k2):
            continue
        sigma = np.argsort(np.concatenate(partition.blocks))
        stack = spec1.k._generator_stack
        relabeled = np.empty_like(stack)
        relabeled[:, sigma] = sigma[stack]
        if not perm_wreath(stab_action, point_action).member_mask(relabeled).all():
            continue
        if block_size == 1:
            inner = spec1.h
        else:
            inner = wreath_product(WreathSpec(spec1.h, stab_action))
        if inner.is_subgroup_of(h2):
            return True, partition
    return False, None


def wreath_inclusion_report(
    h1: MatrixGroup,
    k1: PermGroup,
    h2: MatrixGroup,
    k2: PermGroup,
) -> VerificationReport:
    """Literal containment of one wreath product in another, checked against
    the structural conditions (divisor shape, block systems, inner inclusion).

    Both wreath products are built on consecutive coordinate blocks of one
    shared basis; conjugate embeddings are out of scope, so instances whose
    block systems are not basis-aligned can genuinely fail the equivalence.
    """
    t0 = time.perf_counter()
    spec1 = WreathSpec(h1, k1)
    if check_hypotheses(spec1) is not None:
        raise ExceptionalInstance(
            "inclusion conditions exclude the exceptional shape"
        )
    if h1.p != h2.p:
        raise ValidationError("the two wreath products must share a field")
    if spec1.degree != h2.n * k2.degree:
        raise ValidationError("degrees do not match")
    group1 = wreath_product(spec1)
    group2 = wreath_product(WreathSpec(h2, k2))
    lhs = group1.is_subgroup_of(group2)
    rhs, witness = _structural_conditions(spec1, h2, k2)
    instance = {
        "p": h1.p,
        "inner_degree": (h1.n, k1.degree),
        "outer_degree": (h2.n, k2.degree),
    }
    stats = {
        "group_order": group1.order,
        "ambient_order": group2.order,
        "containment": lhs,
        "conditions": rhs,
        "witness_blocks": witness.one_based() if witness is not None else None,
    }
    claims = [Claim("containment_iff_conditions", True, lhs == rhs)]
    report = VerificationReport(
        scenario="wreath-inclusion", instance=instance, claims=claims, stats=stats
    )
    report.wall_time_ms = (time.perf_counter() - t0) * 1000
    return report


def maximal_solvable_witness(q: int) -> VerificationReport:
    """A solvable group strictly between the degree-2 monomial group M and
    GL2(q), found by a scan over the double cosets of M; defined for q in
    {3, 5}.

    The witness is <M, a> for the first a in the ambient group's listing
    order that lies outside M and makes <M, a> solvable.  Each a tried marks
    its double coset MaM, and marked elements are skipped: for b, c in M,
    <M, bac> = <M, a>, since bac lies in <M, a> and a = b^-1 (bac) c^-1 in
    <M, bac>.  A skipped element therefore gives a group an earlier element
    gave, which was no witness, so the scan finds the witness that trying
    every element would.  For q = 5, 3 of the 448 elements outside M are
    tried.

    For q = 3 the ambient group is itself solvable so the first element
    outside the monomial group already yields a witness; for q = 5 the
    ambient group is not solvable and the scan must find a proper solvable
    overgroup.  A candidate's generators are M's with a appended, their
    inverses M's stored ones with a^-1: a is the one matrix inverted.
    """
    t0 = time.perf_counter()
    if q not in (3, 5):
        raise BadModulus(f"no witness claim is made for q={q}")
    ambient = general_linear_group(2, q)
    zeta = primitive_root(q)
    monomial_gens = [
        Matrix([[zeta, 0], [0, 1]], q),
        Matrix([[1, 0], [0, zeta]], q),
        Matrix([[0, 1], [1, 0]], q),
    ]
    base = MatrixGroup(monomial_gens)
    elements = ambient.element_array
    tried = base.member_mask(elements)
    monomials = base.element_array.astype(np.int64)
    # listed now, so the derived series reads the ambient order off the list
    ambient_solvable = ambient.is_solvable()
    witness = None
    while not tried.all():
        a = elements[tried.argmin()]
        tried[ambient.positions((monomials[:, None] @ a % q) @ monomials % q)] = True
        candidate = MatrixGroup.from_stacks(
            np.concatenate([base._generator_stack, a[None]]),
            np.concatenate([base.inverse_stack, Matrix(a, q).inv().a[None]]), q)
        if candidate.order == ambient.order:  # the ambient group itself
            solvable = ambient_solvable
        else:
            solvable = candidate.is_solvable()
        if solvable:
            witness = candidate
            break
    instance = {"q": q, "base_order": base.order, "ambient_order": ambient.order}
    stats = {
        "base_order": base.order,
        "ambient_order": ambient.order,
        "witness_order": witness.order if witness is not None else None,
    }
    claims = [
        Claim("witness_found", True, witness is not None),
        Claim("ambient_group_solvable", q == 3, ambient_solvable),
    ]
    if witness is not None:
        stats["witness_generators"] = matrix_group_description(witness).to_dict()
        claims.append(Claim("witness_solvable", True, witness.is_solvable()))
        claims.append(
            Claim(
                "witness_properly_contains_base",
                True,
                base.is_subgroup_of(witness) and witness.order > base.order,
            )
        )
        claims.append(
            Claim("witness_inside_ambient", True, witness.is_subgroup_of(ambient))
        )
    report = VerificationReport(
        scenario="maximal-solvable-witness",
        instance=instance,
        claims=claims,
        stats=stats,
    )
    report.wall_time_ms = (time.perf_counter() - t0) * 1000
    return report


def load_regression_manifest() -> dict:
    text = resources.files("imprimlab.data").joinpath("regression.json").read_text()
    return json.loads(text)


def regression_theorem_instances():
    """(name, WreathSpec) pairs for the built-in uniqueness instances."""
    manifest = load_regression_manifest()
    out = []
    for entry in manifest["theorem_instances"]:
        h = parse_group(entry["h"], f"{entry['name']}.h").build()
        k = parse_group(entry["k"], f"{entry['name']}.k").build()
        out.append((entry["name"], WreathSpec(h, k)))
    return out
