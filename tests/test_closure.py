"""The array closure against the per-element closure it replaced.

mulclose_oracle is the breadth-first closure the library ran before group
elements became one array: one Matrix or Permutation object per product,
deduplicated in a dict.  commutator_oracle, stabilizer_oracle and
character_oracle are the per-element routes of the derived subgroup's
generators, the part stabilizer and the character table.  They are kept
here, and only here, as the references the library is checked against.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from imprimlab.errors import InconsistentCharacter, PhaseCapExceeded, limits
from imprimlab.groups import (
    MatrixGroup,
    PermGroup,
    Permutation,
    general_linear_group,
    packed_keys,
    primitive_root,
)
from imprimlab.imprim import part_stabilizer_elements, subspace_orbit
from imprimlab.linalg import Matrix, echelon_subspace, entry_dtype, subspace_array
from imprimlab.reprs import Character, restrict_matrix, restrict_to_block

from conftest import element_keys, elements, general_linear_order, matrix_groups


def mulclose_oracle(gens, identity, cap):
    """Breadth-first closure of the generators, identity first, as a dict."""
    elems = {identity.key: identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = g * a
                if b.key not in elems:
                    elems[b.key] = b
                    if len(elems) > cap:
                        raise PhaseCapExceeded("group closure", len(elems), "elements", cap)
                    new.append(b)
        frontier = new
    return elems


def commutator_oracle(elements, p):
    """Distinct non-identity commutators a^-1 b^-1 a b, a outer, b inner."""
    seen = {}
    for a in elements:
        for b in elements:
            c = a.inv() * b.inv() * a * b
            if not np.array_equal(c.a, np.eye(c.rows, dtype=np.int64)):
                seen.setdefault(c.key, c)
    return list(seen.values())


def stabilizer_oracle(g, w):
    return [e for e in elements(g) if w.contains_rows((w.basis @ e.a) % g.p)]


def character_oracle(group, values, modulus):
    """Character values by a per-element BFS over the Cayley graph."""
    identity = group.identity
    table = {identity.key: 1}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g, vg in zip(group.gens, values):
                b = g * a
                vb = vg * table[a.key] % modulus
                known = table.get(b.key)
                if known is None:
                    table[b.key] = vb
                    new.append(b)
                elif known != vb:
                    raise InconsistentCharacter("inconsistent")
        frontier = new
    return table


@st.composite
def perm_gens(draw):
    degree = draw(st.integers(1, 6))
    count = draw(st.integers(1, 3))
    return [Permutation(draw(st.permutations(range(degree)))) for _ in range(count)]


CAP = 3000  # bounds the oracle's time; larger groups must raise in both


@given(matrix_groups(), st.data())
def test_matrix_closure_matches_oracle(gens, data):
    p, n = gens[0].p, gens[0].rows
    group = MatrixGroup(gens)
    try:
        oracle = mulclose_oracle(gens, Matrix.identity(n, p), CAP)
    except PhaseCapExceeded:
        event("over the cap")
        with limits(elements=CAP), pytest.raises(PhaseCapExceeded, match="^group closure: "):
            group.element_array
        return
    event("closed")
    assert group.order == len(oracle)
    assert element_keys(group) == tuple(oracle)
    assert [e.key for e in elements(group)] == list(oracle)
    assert group.element_array.dtype == np.int8
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    probes = [np.reshape(data.draw(entries), (n, n)) for _ in range(5)]
    probes += [e.a for e in list(oracle.values())[:: max(1, len(oracle) // 5)]]
    for a in probes:
        m = Matrix(a, p)
        assert group.contains(m) == (m.key in oracle)
    # the cap is exceeded exactly when the group outgrows it
    cap = data.draw(st.integers(1, len(oracle) + 1))
    capped = MatrixGroup(gens)
    with limits(elements=cap):
        if len(oracle) > cap:
            with pytest.raises(PhaseCapExceeded, match=f"^group closure: .* the cap of {cap}$"):
                capped.element_array
        else:
            assert capped.order == len(oracle)


@given(perm_gens(), st.data())
def test_perm_closure_matches_oracle(gens, data):
    degree = gens[0].degree
    oracle = mulclose_oracle(gens, Permutation.identity(degree), 10**4)
    group = PermGroup(gens)
    assert group.order == len(oracle)
    assert [e.key for e in elements(group)] == list(oracle)
    for _ in range(5):
        probe = Permutation(data.draw(st.permutations(range(degree))))
        assert group.contains(probe) == (probe.key in oracle)
    cap = data.draw(st.integers(1, len(oracle) + 1))
    capped = PermGroup(gens)
    with limits(elements=cap):
        if len(oracle) > cap:
            with pytest.raises(PhaseCapExceeded, match=f"^group closure: .* the cap of {cap}$"):
                capped.element_array
        else:
            assert capped.order == len(oracle)


@st.composite
def digit_stacks(draw):
    """A stack of rows of digits in [0, base) and its base, with repeated
    rows, rows one digit apart and rows with two digits swapped.  The
    shapes cover one-word keys, keys of several words (8 x 8 over GF(3),
    2 x 2 over GF(2^31 - 1)), degree-1 permutations (base 1) and empty
    stacks."""
    base, shape = draw(st.sampled_from([
        (1, (1,)), (2, (5,)), (6, (6,)), (16, (16,)), (5, (2, 2)), (3, (6, 6)),
        (7, (4, 4)), (131, (3, 3)), (3, (8, 8)), (2**31 - 1, (2, 2)),
    ]))
    width = math.prod(shape)
    digit = st.integers(0, max(base, 1) - 1)
    rows = [draw(st.lists(digit, min_size=width, max_size=width))]
    for _ in range(draw(st.integers(0, 5))):
        row = list(draw(st.sampled_from(rows)))
        i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        change = draw(st.sampled_from(["digit", "swap", "fresh"]))
        if change == "digit":
            row[i] = draw(digit)
        elif change == "swap":
            row[i], row[j] = row[j], row[i]
        else:
            row = draw(st.lists(digit, min_size=width, max_size=width))
        rows.append(row)
    picks = draw(st.lists(st.sampled_from(rows), max_size=12))
    if picks:
        picks += rows
    stack = np.array(picks, dtype=entry_dtype(max(base, 2))).reshape(len(picks), *shape)
    return stack, base


def _units(width, base, at):
    """The zero row and every nonzero multiple of each unit row e_i, i in at."""
    rows = np.zeros((1 + len(at) * (base - 1), width), dtype=np.int8)
    for k, (i, c) in enumerate(itertools.product(at, range(1, base))):
        rows[1 + k, i] = c
    return rows


@given(digit_stacks())
# every 2 x 2 matrix over GF(3); units on both sides of the first word's
# end for 8 x 8 over GF(3), whose words hold 39 and 25 digits; rows of the
# largest digits in two words
@example((np.array(list(itertools.product(range(3), repeat=4)), np.int8).reshape(-1, 2, 2), 3))
@example((_units(64, 3, [0, 1, 37, 38, 39, 40, 63]).reshape(-1, 8, 8), 3))
@example((np.full((2, 8, 8), 2, dtype=np.int8), 3))
@example((np.full((2, 2, 2), 2**31 - 2, dtype=np.int32), 2**31 - 1))
def test_packed_keys_are_injective(drawn):
    stack, base = drawn
    keys = packed_keys(stack, base)
    event("one word" if keys.dtype == np.int64 else "several words")
    assert keys.shape == (len(stack),)
    # no word wraps, not even for a row of the largest digits
    assert (np.frombuffer(keys.tobytes(), dtype=np.int64) >= 0).all()
    raw = [row.tobytes() for row in stack]
    for i, j in itertools.product(range(len(stack)), repeat=2):
        assert (keys[i] == keys[j]) == (raw[i] == raw[j])
    # np.unique groups the keys exactly as the raw bytes group the rows
    _, first = np.unique(keys, return_index=True)
    assert sorted(first) == sorted({row: i for i, row in reversed(list(enumerate(raw)))}.values())


def test_wide_entries_close_like_the_oracle():
    # p = 131: entries need int16 and p^(n^2) >= 2^63, so an element's
    # packed key takes two int64 words, viewed as one np.void scalar
    p, n = 131, 3
    assert p ** (n * n) >= 2**63
    x = pow(primitive_root(p), 26, p)  # order 5
    gens = [
        Matrix([[x, 0, 0], [0, 1, 0], [0, 0, 1]], p),
        Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], p),
        Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], p),
    ]
    group = MatrixGroup(gens)
    oracle = mulclose_oracle(gens, Matrix.identity(n, p), 10**4)
    assert len(oracle) == 10**3 * 3
    assert group.element_array.dtype == np.int16
    assert int(group.element_array.max()) > 127
    assert element_keys(group) == tuple(oracle)
    assert all(group.contains(e) for e in list(oracle.values())[::97])
    assert not group.contains(Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]], p))


def test_closing_gl33_builds_no_matrix_per_element(monkeypatch):
    calls = []
    init = Matrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    group = general_linear_group(3, 3)
    assert group.order == general_linear_order(3, 3) == 11232
    assert group.contains(Matrix.identity(3, 3))
    assert len(calls) < 50


@given(matrix_groups(max_n=2))
def test_derived_subgroup_matches_oracle(gens):
    # [G, G] is generated by the commutators of all pairs of elements
    group = MatrixGroup(gens)
    try:
        with limits(elements=200):
            group.element_array
    except PhaseCapExceeded:
        return
    n, p = group.n, group.p
    expected = mulclose_oracle(
        commutator_oracle(elements(group), p), Matrix.identity(n, p), group.order
    )
    assert set(element_keys(group.derived_subgroup())) == set(expected)


def test_derived_subgroup_of_gl33_is_sl33():
    # beyond the oracle's reach: |G|^2 = 1.3e8 commutators
    assert general_linear_group(3, 3).derived_series_orders() == [11232, 5616]


@given(matrix_groups(), st.data())
def test_part_stabilizer_and_restriction_match_oracle(gens, data):
    group = MatrixGroup(gens)
    try:
        with limits(elements=CAP):
            group.element_array
    except PhaseCapExceeded:
        return
    n, p = group.n, group.p
    d = data.draw(st.integers(1, n))
    subs = subspace_array(n, d, p)
    w = echelon_subspace(subs[data.draw(st.integers(0, len(subs) - 1))], p)
    expected = stabilizer_oracle(group, w)
    orbit = subspace_orbit(group, w)
    stab = part_stabilizer_elements(group, orbit)
    generated = MatrixGroup([Matrix(a, p) for a in stab])
    assert set(element_keys(generated)) == {e.key for e in expected}
    assert generated.order * len(orbit) == group.order
    restricted = {restrict_matrix(e, w).key for e in expected}
    assert set(element_keys(restrict_to_block(stab, w))) == restricted


@given(matrix_groups(max_n=2), st.data())
def test_character_matches_oracle(gens, data):
    group = MatrixGroup(gens)
    try:
        with limits(elements=200):
            group.element_array
    except PhaseCapExceeded:
        return
    values = [data.draw(st.integers(1, 6)) for _ in gens]
    try:
        expected = character_oracle(group, values, 7)
    except InconsistentCharacter:
        with pytest.raises(InconsistentCharacter):
            Character(group, values, 7)
        return
    chi = Character(group, values, 7)
    assert [chi(e) for e in elements(group)] == [expected[e.key] for e in elements(group)]
