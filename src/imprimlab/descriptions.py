"""Parsing and validation of group-description documents.

A description is a JSON object with a "kind" of matrix, perm, wreath, or
induced.  Matrix entries may be negative and are reduced mod p on
ingestion; permutations are 1-based in documents (and 0-based internally).
Parsing validates structure eagerly with positional messages; group-level
facts that need enumeration (subgroup membership, character consistency)
are checked when the description is built into an actual group.

A parsed description holds its normalized document: only the fields of its
kind, matrix entries and character values reduced into [0, p), and an
induced subgroup given by generator_indices resolved to its matrices.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any

from .errors import ParseError, ValidationError
from .groups import MatrixGroup, PermGroup
from .linalg import Matrix, is_prime
from .reprs import Character, InducedRep, induced_module
from .wreath import WreathSpec, wreath_product

KINDS = ("matrix", "perm", "wreath", "induced")


@dataclass(frozen=True)
class GroupDescription:
    document: dict

    @property
    def kind(self) -> str:
        return self.document["kind"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.document)

    def build(self):
        """Construct the described object (enumeration-level checks happen here)."""
        return _build(self.document)

    def build_matrix_group(self) -> MatrixGroup:
        built = self.build()
        if isinstance(built, MatrixGroup):
            return built
        if isinstance(built, WreathSpec):
            return wreath_product(built)
        if isinstance(built, InducedRep):
            return built.group
        raise ValidationError(f"{self.kind} description is not a matrix group")


def _need(doc: dict, field: str, where: str):
    if field not in doc:
        raise ParseError(f"{where}: missing field '{field}'")
    return doc[field]


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_group(document: Any, where: str = "group") -> GroupDescription:
    """Parse a dict (or JSON text) into a validated GroupDescription."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ParseError(f"{where}: expected a JSON object")
    kind = _need(document, "kind", where)
    if kind not in KINDS:
        raise ParseError(f"{where}: unknown kind {kind!r}")
    parser = {
        "matrix": _parse_matrix,
        "perm": _parse_perm,
        "wreath": _parse_wreath,
        "induced": _parse_induced,
    }[kind]
    return parser(document, where)


def _parse_matrix(doc, where):
    p = _int(_need(doc, "p", where), f"{where}.p")
    if not is_prime(p):
        raise ValidationError(f"{where}.p: {p} is not prime")
    n = _int(_need(doc, "n", where), f"{where}.n")
    if n < 1:
        raise ValidationError(f"{where}.n: degree must be positive")
    gens_doc = _need(doc, "generators", where)
    if not isinstance(gens_doc, list) or not gens_doc:
        raise ParseError(f"{where}.generators: expected a nonempty list")
    gens = []
    for idx, rows in enumerate(gens_doc):
        label = f"{where}.generators[{idx}]"
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f"{label}: expected {n} rows")
        reduced = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"{label}[{r}]: expected {n} entries")
            reduced.append([_int(x, f"{label}[{r}]") % p for x in row])
        if not Matrix(reduced, p).is_invertible():
            raise ValidationError(f"{label}: generator is singular")
        gens.append(reduced)
    return GroupDescription({"kind": "matrix", "p": p, "n": n, "generators": gens})


def _parse_perm(doc, where):
    degree = _int(_need(doc, "degree", where), f"{where}.degree")
    if degree < 1:
        raise ValidationError(f"{where}.degree: must be positive")
    gens_doc = _need(doc, "generators", where)
    if not isinstance(gens_doc, list) or not gens_doc:
        raise ParseError(f"{where}.generators: expected a nonempty list")
    gens = []
    for idx, images in enumerate(gens_doc):
        label = f"{where}.generators[{idx}]"
        if not isinstance(images, list) or len(images) != degree:
            raise ParseError(f"{label}: expected {degree} images")
        one_based = [_int(x, label) for x in images]
        if sorted(one_based) != list(range(1, degree + 1)):
            raise ValidationError(f"{label}: not a bijection of 1..{degree}")
        gens.append(one_based)
    return GroupDescription({"kind": "perm", "degree": degree, "generators": gens})


def _parse_wreath(doc, where):
    h = parse_group(_need(doc, "h", where), f"{where}.h")
    if h.kind != "matrix":
        raise ParseError(f"{where}.h: block group must have kind 'matrix'")
    k = parse_group(_need(doc, "k", where), f"{where}.k")
    if k.kind != "perm":
        raise ParseError(f"{where}.k: point group must have kind 'perm'")
    return GroupDescription({"kind": "wreath", "h": h.document, "k": k.document})


def _parse_induced(doc, where):
    ambient = parse_group(_need(doc, "ambient", where), f"{where}.ambient")
    if ambient.kind != "matrix":
        raise ParseError(f"{where}.ambient: must have kind 'matrix'")
    sub_doc = _need(doc, "subgroup", where)
    sub_where = f"{where}.subgroup"
    p, n = ambient.document["p"], ambient.document["n"]
    ambient_gens = ambient.document["generators"]
    if isinstance(sub_doc, dict) and "generator_indices" in sub_doc:
        indices = sub_doc["generator_indices"]
        if not isinstance(indices, list) or not indices:
            raise ParseError(f"{sub_where}.generator_indices: expected a nonempty list")
        picked = []
        for i in indices:
            i = _int(i, f"{sub_where}.generator_indices")
            if not 0 <= i < len(ambient_gens):
                raise ValidationError(
                    f"{sub_where}.generator_indices: index {i} out of range"
                )
            picked.append(ambient_gens[i])
        subgroup = _parse_matrix(
            {"p": p, "n": n, "generators": picked}, sub_where
        )
    else:
        subgroup = parse_group(sub_doc, sub_where)
        if subgroup.kind != "matrix":
            raise ParseError(f"{sub_where}: must have kind 'matrix'")
        if subgroup.document["p"] != p or subgroup.document["n"] != n:
            raise ValidationError(f"{sub_where}: modulus or degree differs from ambient")
    target_p = _int(_need(doc, "target_p", where), f"{where}.target_p")
    if not is_prime(target_p):
        raise ValidationError(f"{where}.target_p: {target_p} is not prime")
    values_doc = _need(doc, "character", where)
    if not isinstance(values_doc, list):
        raise ParseError(f"{where}.character: expected a list of values")
    if len(values_doc) != len(subgroup.document["generators"]):
        raise ValidationError(
            f"{where}.character: expected one value per subgroup generator"
        )
    values = [_int(v, f"{where}.character") % target_p for v in values_doc]
    if any(v == 0 for v in values):
        raise ValidationError(f"{where}.character: values must be nonzero mod {target_p}")
    return GroupDescription({
        "kind": "induced",
        "ambient": ambient.document,
        "subgroup": subgroup.document,
        "character": values,
        "target_p": target_p,
    })


def _build(doc: dict):
    kind = doc["kind"]
    if kind == "matrix":
        return MatrixGroup([Matrix(g, doc["p"]) for g in doc["generators"]])
    if kind == "perm":
        return PermGroup.from_stack([[i - 1 for i in g] for g in doc["generators"]])
    if kind == "wreath":
        return WreathSpec(h=_build(doc["h"]), k=_build(doc["k"]))
    source = _build(doc["ambient"])
    sub = _build(doc["subgroup"])
    character = Character(sub, doc["character"], doc["target_p"])
    return induced_module(source, sub, character)


def matrix_group_description(g: MatrixGroup) -> GroupDescription:
    """Describe a matrix group by its generators (for report certificates)."""
    return GroupDescription(
        {"kind": "matrix", "p": g.p, "n": g.n, "generators": g._generator_stack.tolist()}
    )
