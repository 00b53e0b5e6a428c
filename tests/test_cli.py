import importlib.util
import json
from pathlib import Path

import pytest

from imprimlab.cli import main
from imprimlab.descriptions import matrix_group_description, parse_group
from imprimlab.errors import ParseError, ValidationError
from imprimlab.groups import MatrixGroup, StabilizerChain
from imprimlab.linalg import Matrix
from imprimlab.wreath import WreathSpec

from conftest import count_calls

DATA = Path(__file__).parent / "data"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SIGN_P3 = {"kind": "matrix", "p": 3, "n": 1, "generators": [[[2]]]}
C4 = {"kind": "perm", "degree": 4, "generators": [[2, 3, 4, 1]]}
C2 = {"kind": "perm", "degree": 2, "generators": [[2, 1]]}
S3 = {"kind": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
MONOMIAL_23 = {
    "kind": "matrix",
    "p": 3,
    "n": 2,
    "generators": [[[2, 0], [0, 1]], [[1, 0], [0, 2]], [[0, 1], [1, 0]]],
}
GL23 = {
    "kind": "matrix",
    "p": 3,
    "n": 2,
    "generators": [[[2, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]]],
}
# the sign character of D_12 inside GL(2,3), induced up to GL_4(7)
INDUCED_D12_Q7 = {
    "kind": "induced",
    "ambient": GL23,
    "subgroup": {
        "kind": "matrix",
        "p": 3,
        "n": 2,
        "generators": [[[1, 0], [0, -1]], [[-1, 1], [0, -1]]],
    },
    "character": [1, -1],
    "target_p": 7,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_parse_matrix_description():
    desc = parse_group({"kind": "matrix", "p": 3, "n": 2, "generators": [[[1, 0], [0, 2]]]})
    group = desc.build()
    assert isinstance(group, MatrixGroup)
    assert group.order == 2


def test_parse_negative_entries_reduced():
    desc = parse_group({"kind": "matrix", "p": 3, "n": 1, "generators": [[[-1]]]})
    assert desc.to_dict()["generators"] == [[[2]]]


def test_parse_perm_description():
    group = parse_group(C4).build()
    assert group.degree == 4 and group.order == 4


def test_parse_wreath_description():
    spec = parse_group({"kind": "wreath", "h": SIGN_P3, "k": S3}).build()
    assert isinstance(spec, WreathSpec)
    assert spec.degree == 3


def test_parse_induced_description():
    rep = parse_group(INDUCED_D12_Q7).build()
    assert rep.degree == 4
    assert rep.group.order == 48


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_group({"p": 3})
    with pytest.raises(ParseError):
        parse_group({"kind": "matrix", "p": 3, "n": 2, "generators": [[[1, 0]]]})
    with pytest.raises(ParseError):
        parse_group("not json {")
    with pytest.raises(ValidationError):
        parse_group({"kind": "matrix", "p": 4, "n": 1, "generators": [[[1]]]})
    with pytest.raises(ValidationError):
        parse_group({"kind": "matrix", "p": 3, "n": 1, "generators": [[[0]]]})
    with pytest.raises(ValidationError):
        parse_group({"kind": "perm", "degree": 3, "generators": [[1, 1, 2]]})


@pytest.mark.parametrize(
    "doc",
    [
        SIGN_P3,
        C4,
        {"kind": "wreath", "h": SIGN_P3, "k": C4},
        {
            "kind": "induced",
            "ambient": GL23,
            "subgroup": {
                "kind": "matrix",
                "p": 3,
                "n": 2,
                "generators": [[[1, 0], [0, 2]], [[2, 1], [0, 2]]],
            },
            "character": [1, 6],
            "target_p": 7,
        },
    ],
)
def test_description_round_trip(doc):
    desc = parse_group(doc)
    assert parse_group(desc.to_dict()) == desc


def test_description_holds_its_normalized_document():
    desc = parse_group({
        "kind": "induced",
        "ambient": dict(GL23, note="extra fields are dropped"),
        "subgroup": {"generator_indices": [0, 2]},
        "character": [-1, 8],
        "target_p": 7,
    })
    doc = desc.to_dict()
    assert doc == {
        "kind": "induced",
        "ambient": GL23,
        "subgroup": {"kind": "matrix", "p": 3, "n": 2,
                     "generators": [GL23["generators"][0], GL23["generators"][2]]},
        "character": [6, 1],
        "target_p": 7,
    }
    doc["subgroup"]["generators"][0][0][0] = 0  # a copy: desc is unchanged
    assert desc.to_dict()["subgroup"]["generators"][0] == [[2, 0], [0, 1]]
    assert desc.build().degree == 8


def test_systems_command(tmp_path, capsys):
    group_file = write(tmp_path, "g.json", {"kind": "wreath", "h": SIGN_P3, "k": C4})
    code, payload, err = run(capsys, "systems", "--group", group_file)
    assert code == 0
    assert payload["schema"] == "imprimlab-query/1"
    assert len(payload["systems"]) == 3
    flags = sorted(s["nonrefinable"] for s in payload["systems"])
    assert flags == [False, True, True]
    assert "3 system(s)" in err


def test_nonrefinable_command(tmp_path, capsys):
    group_file = write(tmp_path, "g.json", {"kind": "wreath", "h": SIGN_P3, "k": C4})
    code, payload, _ = run(capsys, "nonrefinable", "--group", group_file)
    assert code == 0
    assert len(payload["systems"]) == 2
    assert all(s["nonrefinable"] for s in payload["systems"])


@pytest.mark.parametrize("command", ["systems", "nonrefinable"])
def test_induced_group_systems(tmp_path, capsys, command):
    # the systems that example21 --q 7 counts: one of planes, two of lines
    group_file = write(tmp_path, "g.json", INDUCED_D12_Q7)
    code, payload, _ = run(capsys, command, "--group", group_file, "--json-only")
    assert code == 0
    assert "complete" not in payload
    shapes = sorted((s["component_count"], s["component_dim"]) for s in payload["systems"])
    assert shapes == [(2, 2), (4, 1), (4, 1)]
    assert all(s["nonrefinable"] for s in payload["systems"])


def test_reducible_group_systems_are_labelled_incomplete(tmp_path, capsys):
    # <diag(-1,1), diag(1,-1)> over GF(3): {<e1>, <e2>} is a system whose
    # parts are two orbits, which the single-orbit scan does not list
    diagonal = {"kind": "matrix", "p": 3, "n": 2,
                "generators": [[[2, 0], [0, 1]], [[1, 0], [0, 2]]]}
    group_file = write(tmp_path, "g.json", diagonal)
    for command in ("systems", "nonrefinable"):
        code, payload, err = run(capsys, command, "--group", group_file)
        assert code == 0
        assert payload["complete"] is False
        assert [s["parts"] for s in payload["systems"]] == [[[[1, 1]], [[1, 2]]]]
        assert "incomplete" in err
    irreducible = write(tmp_path, "w.json", {"kind": "wreath", "h": SIGN_P3, "k": C4})
    _, payload, _ = run(capsys, "systems", "--group", irreducible)
    assert "complete" not in payload


def test_theorem_command(tmp_path, capsys):
    h = write(tmp_path, "h.json", SIGN_P3)
    k = write(tmp_path, "k.json", S3)
    code, payload, err = run(capsys, "theorem", "--h", h, "--k", k)
    assert code == 0
    assert payload["pass"] is True
    assert payload["schema"] == "imprimlab-report/1"
    assert "wreath-uniqueness: PASS" in err


def test_theorem_regression_command(capsys):
    code, payload, _ = run(capsys, "theorem", "--regression", "--json-only")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["reports"]) == 7


@pytest.mark.parametrize("extra,named", [
    (["--h", "h", "--k", "k"], "--h, --k"),
], ids=["h-and-k"])
def test_theorem_regression_rejects_instance_flags(tmp_path, capsys, extra, named):
    # H = <diag(1, -1)> is reducible: on its own it violates the hypotheses,
    # so the flags must not be dropped silently in favour of the regression
    files = {
        "h": write(tmp_path, "h.json", {"kind": "matrix", "p": 3, "n": 2,
                                        "generators": [[[1, 0], [0, 2]]]}),
        "k": write(tmp_path, "k.json", C2),
    }
    argv = [files.get(a, a) for a in extra]
    code, payload, err = run(capsys, "theorem", "--regression", *argv)
    assert code == 2
    assert payload is None
    assert f"takes no {named}" in err


def test_example21_command(capsys):
    code, payload, _ = run(capsys, "example21", "--q", "7", "--json-only")
    assert code == 0
    assert payload["pass"] is True

    code, payload, err = run(capsys, "example21", "--q", "5")
    assert code == 2
    assert "mod 6" in err


def test_census_command(tmp_path, capsys):
    h = write(tmp_path, "h.json", SIGN_P3)
    k = write(tmp_path, "k.json", C4)
    code, payload, _ = run(capsys, "census", "--h", h, "--k", k)
    assert code == 0
    assert payload["count"] == 2
    assert payload["pair_systems"] == [[[1, 3], [2, 4]]]
    assert payload["lambdas"] == [1]

    s3 = write(tmp_path, "s3.json", S3)
    code, _, err = run(capsys, "census", "--h", h, "--k", s3)
    assert code == 2
    assert "exceptional" in err


def test_inclusion_command_claim_failure(tmp_path, capsys):
    # misaligned labeling: conditions hold but literal containment fails
    c3 = {"kind": "matrix", "p": 7, "n": 1, "generators": [[[2]]]}
    h1 = write(tmp_path, "h1.json", c3)
    k1 = write(tmp_path, "k1.json", C4)
    h2 = write(tmp_path, "h2.json", {"kind": "wreath", "h": c3, "k": C2})
    k2 = write(tmp_path, "k2.json", C2)
    code, payload, _ = run(
        capsys, "inclusion", "--h1", h1, "--k1", k1, "--h2", h2, "--k2", k2,
        "--json-only",
    )
    assert code == 1
    assert payload["pass"] is False
    assert payload["stats"]["containment"] is False
    assert payload["stats"]["conditions"] is True


def test_inclusion_command_aligned(tmp_path, capsys):
    c3 = {"kind": "matrix", "p": 7, "n": 1, "generators": [[[2]]]}
    aligned_c4 = {"kind": "perm", "degree": 4, "generators": [[3, 4, 2, 1]]}
    h1 = write(tmp_path, "h1.json", c3)
    k1 = write(tmp_path, "k1.json", aligned_c4)
    h2 = write(tmp_path, "h2.json", {"kind": "wreath", "h": c3, "k": C2})
    k2 = write(tmp_path, "k2.json", C2)
    code, payload, _ = run(
        capsys, "inclusion", "--h1", h1, "--k1", k1, "--h2", h2, "--k2", k2,
        "--json-only",
    )
    assert code == 0
    assert payload["stats"]["witness_blocks"] == [[1, 2], [3, 4]]


def test_maxsolv_command(capsys):
    code, payload, _ = run(capsys, "maxsolv", "--q", "3", "--json-only")
    assert code == 0
    assert payload["pass"] is True
    certificate = payload["stats"]["witness_generators"]
    rebuilt = parse_group(certificate).build()
    assert rebuilt.order == payload["stats"]["witness_order"]


def test_blocks_command(tmp_path, capsys):
    k = write(tmp_path, "k.json", C4)
    code, payload, _ = run(capsys, "blocks", "--group", k, "--size", "2")
    assert code == 0
    assert payload["systems"] == [[[1, 3], [2, 4]]]


@pytest.mark.parametrize(
    "argv,wrong",
    [
        (["blocks", "--group", "{m}", "--size", "2"], "group"),
        (["theorem", "--h", "{p}", "--k", "{p}"], "h"),
        (["theorem", "--h", "{m}", "--k", "{m}"], "k"),
        (["census", "--h", "{p}", "--k", "{p}"], "h"),
        (["census", "--h", "{m}", "--k", "{m}"], "k"),
        (["inclusion", "--h1", "{p}", "--k1", "{p}", "--h2", "{m}", "--k2", "{p}"], "h1"),
    ],
    ids=["blocks-matrix", "theorem-h-perm", "theorem-k-matrix", "census-h-perm",
         "census-k-matrix", "inclusion-h1-perm"],
)
def test_description_of_wrong_kind_is_usage_error(tmp_path, capsys, argv, wrong):
    files = {"{m}": write(tmp_path, "m.json", SIGN_P3), "{p}": write(tmp_path, "p.json", C4)}
    code, payload, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert payload is None
    assert err.startswith(f"error: {wrong}: expected a")


@pytest.mark.parametrize(
    "argv,recorded",
    [
        (["theorem", "--regression", "--json-only"], "theorem_regression.json"),
        (["example21", "--q", "7", "--json-only"], "example21_q7.json"),
        (["example21", "--q", "13", "--json-only"], "example21_q13.json"),
        (["maxsolv", "--q", "3", "--json-only"], "maxsolv_q3.json"),
        (["maxsolv", "--q", "5", "--json-only"], "maxsolv_q5.json"),
        (["theorem", "--h", str(DATA / "sign_p3.json"), "--k", str(DATA / "s6.json"),
          "--json-only"], "theorem_sign_wr_s6_p3.json"),
        (["systems", "--group", str(DATA / "sign_wr_c4_p3.json"), "--json-only"],
         "systems_sign_wr_c4_p3.json"),
        (["theorem", "--h", str(DATA / "gl23_p3.json"), "--k", str(DATA / "s3.json"),
          "--json-only"], "theorem_gl23_wr_s3_p3.json"),
        (["theorem", "--h", str(DATA / "sign_p3.json"), "--k", str(DATA / "s7.json"),
          "--json-only"], "theorem_sign_wr_s7_p3.json"),
        # H = C_26, a Singer cycle of GF(27) in GL(3, 3): irreducible, but not
        # absolutely, so its commutant GF(27) decides the hypothesis
        (["theorem", "--h", str(DATA / "singer26_p3.json"), "--k", str(DATA / "s2.json"),
          "--json-only"], "theorem_singer26_wr_s2_p3.json"),
    ],
    ids=["theorem-regression", "example21-q7", "example21-q13", "maxsolv-q3", "maxsolv-q5",
         "theorem-sign-wr-s6-p3", "systems-sign-wr-c4-p3", "theorem-gl23-wr-s3-p3",
         "theorem-sign-wr-s7-p3", "theorem-singer26-wr-s2-p3"],
)
def test_report_matches_recorded_output(capsys, argv, recorded):
    # the canonical reports must stay byte-identical to these recordings
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / recorded).read_text()


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these (module, attribute path) pairs, so
    # deleting or renaming one breaks every traced run
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, path, _ in tracer.LAYERS:
        owner = importlib.import_module(f"imprimlab.{module}")
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert tracer.LAYERS and missing == []


def test_cap_exceeded_exit_code(tmp_path, capsys):
    h = write(tmp_path, "h.json", GL23)
    k = write(tmp_path, "k.json", C2)
    code, payload, err = run(
        capsys, "theorem", "--h", h, "--k", k, "--cap-elements", "10"
    )
    assert code == 3
    assert payload is None
    assert err.startswith("error: group closure:")
    assert "exceed the cap of 10\n" in err


@pytest.mark.parametrize("flag,value", [("--cap-elements", "0"), ("--cap-subspaces", "-1")])
def test_cap_below_one_is_usage_error(tmp_path, capsys, flag, value):
    # a cap of 0 would otherwise stop the first scan and exit 3 as a resource cap
    h = write(tmp_path, "h.json", SIGN_P3)
    k = write(tmp_path, "k.json", S3)
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--h", h, "--k", k, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: a cap must be at least 1, got {value}" in captured.err


def test_chain_over_the_cap_exit_code(tmp_path, capsys):
    # sign wr C_7 over GF(3) has 2^7 * 7 = 896 elements, past LIST_AMBIENT, so
    # it is chained, and its chain has 19 orbit points: a cap of 18 stops the
    # chain itself, and a cap of 19 lets the report run (C_7 and the sign
    # group are listed, 7 and 2 elements)
    k = write(tmp_path, "c7.json", {"kind": "perm", "degree": 7,
                                    "generators": [[2, 3, 4, 5, 6, 7, 1]]})
    argv = ["theorem", "--h", str(DATA / "sign_p3.json"), "--k", k]
    code, payload, err = run(capsys, *argv, "--cap-elements", "18")
    assert code == 3
    assert payload is None
    assert err.startswith("error: stabilizer chain: 19 orbit points exceed the cap of 18")
    assert main([*argv, "--cap-elements", "19", "--json-only"]) == 0


def test_reports_chain_only_the_groups_past_the_listing_bound(monkeypatch, capsys):
    # by their order bounds the regression wreath products and the induced
    # images have at most LIST_AMBIENT elements and are listed; GL(2, 3) wr
    # C_2, with 4 608, is the one group chained
    chains = count_calls(monkeypatch, StabilizerChain.__init__)
    assert main(["theorem", "--regression", "--json-only"]) == 0
    assert len(chains) == 1
    for q in ("7", "13"):
        assert main(["example21", "--q", q, "--json-only"]) == 0
    assert len(chains) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [["theorem", "--h", "{h}", "--k", "{k}"],
     ["census", "--h", "{h}", "--k", "{k}"],
     ["inclusion", "--h1", "{h}", "--k1", "{k}", "--h2", "{h}", "--k2", "{k}"]],
    ids=["theorem", "census", "inclusion"],
)
@pytest.mark.parametrize(
    "p,generator,cap,code,message",
    [
        (1000003, [[1000002, 0], [0, 1]], [], 2, "error: hypothesis violated: H irreducible"),
        (1000003, [[1000002, 0], [0, 1]], ["--cap-subspaces", "2000000"], 2,
         "error: hypothesis violated: H irreducible"),
        (7, [[0, 1], [6, 0]], ["--cap-subspaces", "7"], 3,
         "error: subspace scan: 8 subspaces of dimension 1 exceed the cap of 7"),
        (7, [[0, 1], [6, 0]], ["--cap-subspaces", "8"], 2,
         "error: hypothesis violated: H primitive"),
    ],
    ids=["default-cap", "raised-cap", "primitivity-at-cap", "primitivity-above-cap"],
)
def test_cap_subspaces_reaches_the_hypothesis_checks(tmp_path, capsys, command, p, generator,
                                                     cap, code, message):
    # <diag(-1, 1)> over GF(1000003) is reducible, and its commutant (the
    # diagonal matrices, no field) says so under any cap.  <[[0, 1], [-1, 0]]>
    # over GF(7) is irreducible, as x^2 + 1 is, and permutes the lines <e_1>
    # and <e_2>; the scan for that system runs over the 8 lines of GF(7)^2,
    # so only a cap of 8 lets it find H imprimitive
    files = {
        "{h}": write(tmp_path, "h.json", {"kind": "matrix", "p": p, "n": 2,
                                          "generators": [generator]}),
        "{k}": write(tmp_path, "k.json", C2),
    }
    argv = [files.get(a, a) for a in command]
    got, payload, err = run(capsys, *argv, *cap)
    assert got == code
    assert payload is None
    assert err.startswith(message)


def test_block_systems_over_the_cap_exit_code(tmp_path, capsys, monkeypatch):
    from imprimlab import groups

    cases = [
        # the fixed points make the group intransitive: the search pairs 1
        # with 2 (pairing 1 with a fixed point would put 2 in its class as
        # well), then pairs the four fixed points in each of 3 ways
        ([[2, 1, 3, 4, 5, 6]], 8),
        # (C_2)^3 acting regularly on itself, with its 7 pair systems
        ([[2, 1, 4, 3, 6, 5, 8, 7], [3, 4, 1, 2, 7, 8, 5, 6], [5, 6, 7, 8, 1, 2, 3, 4]], 8),
    ]
    for generators, nodes in cases:
        group = {"kind": "perm", "degree": len(generators[0]), "generators": generators}
        k = write(tmp_path, "k.json", group)
        monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes)
        code, _, _ = run(capsys, "blocks", "--group", k, "--size", "2")
        assert code == 0
        monkeypatch.setattr(groups, "DEFAULT_CAP_PARTITIONS", nodes - 1)
        code, payload, err = run(capsys, "blocks", "--group", k, "--size", "2")
        assert code == 3
        assert payload is None
        assert f"block systems: {nodes} search nodes" in err


def test_json_only_suppresses_summary(tmp_path, capsys):
    # GL1(3) wr C2 is the smallest exceptional shape: coordinate lines plus
    # the paired-sign line system
    group_file = write(tmp_path, "g.json", MONOMIAL_23)
    code, payload, err = run(capsys, "systems", "--group", group_file, "--json-only")
    assert code == 0
    assert err == ""
    assert len(payload["systems"]) == 2


def test_missing_file_is_usage_error(capsys):
    code, payload, err = run(capsys, "systems", "--group", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_witness_certificate_round_trip():
    g = MatrixGroup([Matrix([[2, 0], [0, 1]], 3), Matrix([[0, 1], [1, 0]], 3)])
    desc = matrix_group_description(g)
    rebuilt = parse_group(desc.to_dict())
    assert rebuilt == desc
    assert rebuilt.build().order == g.order
