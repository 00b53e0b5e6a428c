import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imprimlab.cli import main
from imprimlab.descriptions import matrix_group_description
from imprimlab.errors import (
    BadModulus,
    ExceptionalInstance,
    HypothesisViolation,
    ValidationError,
)
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    cyclic_group,
    general_linear_group,
    mulclose,
    symmetric_group,
)
from imprimlab.linalg import Matrix
from imprimlab.verify import (
    REPORT_SCHEMA,
    induced_example_report,
    maximal_solvable_witness,
    regression_theorem_instances,
    wreath_inclusion_report,
    wreath_uniqueness_report,
)
from imprimlab.wreath import WreathSpec

from conftest import (
    count_calls,
    matrix_groups,
    maximal_solvable_oracle,
    perm,
    regression_inclusion_instances,
    sign_group,
)


def c3_mod7():
    return MatrixGroup([Matrix([[2]], 7)])


def test_uniqueness_report_structure_and_determinism():
    spec = WreathSpec(sign_group(3), symmetric_group(3))
    first = wreath_uniqueness_report(spec)
    second = wreath_uniqueness_report(spec)
    assert first.passed
    assert first.to_dict() == second.to_dict()
    payload = first.to_dict()
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["pass"] is True
    assert "wall_time_ms" not in payload
    assert payload["instance"]["exceptional"] is False


def test_uniqueness_report_claims_nonexceptional():
    spec = WreathSpec(sign_group(3), symmetric_group(3))
    report = wreath_uniqueness_report(spec)
    assert report.claim("nonrefinable_count").observed == 1
    assert report.claim("unique_nonrefinable_is_standard").passed
    assert report.claim("criteria_agreement").passed


def test_uniqueness_report_claims_exceptional():
    spec = WreathSpec(sign_group(3), cyclic_group(4))
    report = wreath_uniqueness_report(spec)
    assert report.instance["exceptional"] is True
    assert report.claim("nonrefinable_count").observed == 2
    assert report.claim("census_matches_scan").passed
    assert report.passed


def test_uniqueness_report_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolation):
        wreath_uniqueness_report(
            WreathSpec(MatrixGroup([Matrix.identity(1, 3)]), cyclic_group(2))
        )


def test_induced_example_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        induced_example_report(5)
    with pytest.raises(BadModulus):
        induced_example_report(25)
    with pytest.raises(BadModulus):
        induced_example_report(11)


def test_maximal_solvable_witness_small_field():
    report = maximal_solvable_witness(3)
    assert report.passed
    assert report.claim("witness_found").passed
    assert report.claim("witness_solvable").passed
    assert report.claim("ambient_group_solvable").observed is True
    assert report.stats["base_order"] == 8
    assert report.stats["witness_order"] > 8


@pytest.mark.parametrize("q", [3, 5])
def test_double_coset_scan_finds_the_oracle_witness(q):
    report = maximal_solvable_witness(q)
    witness = maximal_solvable_oracle(q)
    assert report.stats["witness_generators"] == matrix_group_description(witness).to_dict()
    assert report.stats["witness_order"] == witness.order


@given(matrix_groups(max_n=2), st.data())
def test_a_double_coset_generates_one_overgroup(gens, data):
    # <B, a> = <B, b a c> for b, c in B: the fact the scan skips by
    p, n = gens[0].p, gens[0].rows
    base = MatrixGroup(gens).element_array.astype(np.int64)
    ambient = general_linear_group(n, p).element_array.astype(np.int64)
    a = ambient[data.draw(st.integers(0, len(ambient) - 1))]
    b, c = (base[data.draw(st.integers(0, len(base) - 1))] for _ in range(2))
    keys = [MatrixGroup(gens + [Matrix(x, p)]).sorted_keys.tobytes() for x in (a, b @ a @ c)]
    assert keys[0] == keys[1]


def test_maxsolv_q5_closes_one_candidate_per_double_coset(monkeypatch, capsys):
    # the ambient group, M, the ambient's and the witness's derived series
    # and 3 candidates, where the element-by-element scan closed 51
    closures = count_calls(monkeypatch, mulclose)
    assert main(["maxsolv", "--q", "5", "--json-only"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(closures) <= 11


def test_maxsolv_q5_inverts_one_matrix_per_candidate(monkeypatch, capsys):
    # the three generators of M, then a alone for each of the 3 candidates:
    # GL_2(5) has its inverses in closed form, and the derived series invert
    # and multiply no Matrix
    inversions = count_calls(monkeypatch, Matrix.inv)
    products = count_calls(monkeypatch, Matrix.__mul__)
    assert main(["maxsolv", "--q", "5", "--json-only"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(inversions) <= 3 + 3
    assert products == []


def test_induced_example_multiplies_no_matrix(monkeypatch):
    # the induced images, their homomorphism check and the scan's word are
    # products of stacks
    products = count_calls(monkeypatch, Matrix.__mul__)
    assert induced_example_report(7).passed
    assert products == []


def test_maximal_solvable_witness_rejects_other_fields():
    with pytest.raises(BadModulus):
        maximal_solvable_witness(7)


def test_inclusion_rejects_exceptional_instance():
    with pytest.raises(ExceptionalInstance):
        wreath_inclusion_report(
            sign_group(3), cyclic_group(4), sign_group(3), cyclic_group(4)
        )


def test_inclusion_rejects_degree_mismatch():
    with pytest.raises(ValidationError):
        wreath_inclusion_report(
            c3_mod7(), cyclic_group(4), c3_mod7(), cyclic_group(3)
        )


def test_inclusion_alignment_sensitivity():
    """The literal membership route needs the pair blocks of the point group
    to sit on consecutive coordinates.

    With the 4-cycle written as (1 3 2 4) its pair partition is {{1,2},{3,4}}
    and containment in the nested wreath product holds; with the standard
    (1 2 3 4) labeling the partition is {{1,3},{2,4}}, the conditions still
    hold abstractly, and the literal containment fails, so the equivalence
    claim honestly fails.  Conjugate embeddings are intentionally not
    searched.
    """
    from imprimlab.wreath import wreath_product

    h2 = wreath_product(WreathSpec(c3_mod7(), cyclic_group(2)))

    aligned_k1 = PermGroup([perm(3, 4, 2, 1)])
    aligned = wreath_inclusion_report(c3_mod7(), aligned_k1, h2, cyclic_group(2))
    assert aligned.passed
    assert aligned.stats["containment"] is True
    assert aligned.stats["conditions"] is True

    misaligned = wreath_inclusion_report(
        c3_mod7(), cyclic_group(4), h2, cyclic_group(2)
    )
    assert not misaligned.passed
    assert misaligned.stats["containment"] is False
    assert misaligned.stats["conditions"] is True


def test_regression_manifest_loads():
    theorem = regression_theorem_instances()
    assert len(theorem) == 7
    names = [name for name, _ in theorem]
    assert len(set(names)) == 7
    for _, spec in theorem:
        assert spec.degree in (3, 4)

    inclusions = regression_inclusion_instances()
    assert len(inclusions) == 3
    assert [expected for *_, expected in inclusions] == [True, False, True]
