"""The array-native subspace scan against the per-subspace loops it replaced.

scan_oracle and invariant_oracle are the exhaustive loops that all_systems
and invariant_subspaces ran before the scan became table-based: one
subspace_orbit (or one containment test) per enumerated subspace.  They are
kept here, and only here, as the reference the library is checked against.
The invariance kernel both scans share is checked against
Subspace.contains_rows, and the short-cycle mask against the word's full
permutation table.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from imprimlab import imprim
from imprimlab.errors import CapError, check_cap, current_limits, limits
from imprimlab.groups import MatrixGroup, PermGroup, orbit_labels
from imprimlab.imprim import (
    ImprimitivitySystem,
    all_systems,
    subspace_orbit,
)
from imprimlab.linalg import (
    SCAN_CHUNK,
    Matrix,
    all_subspaces,
    direct_sum_check,
    divisors,
    echelon_subspace,
    gaussian_binomial,
    invariance_table,
    subspace_array,
    subspace_layout,
    subspace_tables,
)
from imprimlab.reprs import invariant_subspaces
from imprimlab.wreath import WreathSpec, wreath_product

from conftest import block_diagonal_product, perm, sign_group


def scan_oracle(g, stats=None):
    """all_systems as one subspace_orbit per unvisited subspace."""
    n = g.n
    candidate_dims = [d for d in divisors(n) if d < n]
    for d in candidate_dims:
        count = gaussian_binomial(n, d, g.p)
        check_cap("subspace scan", count, f"subspaces of dimension {d}",
                  current_limits().subspaces)
    scanned = 0
    systems = []
    for d in candidate_dims:
        target = n // d
        visited = set()
        for w in all_subspaces(n, d, g.p):
            scanned += 1
            if w.key in visited:
                continue
            orbit = subspace_orbit(g, w)
            visited.update(s.key for s in orbit)
            if len(orbit) == target and direct_sum_check(orbit):
                systems.append(ImprimitivitySystem(orbit))
    if stats is not None:
        stats["subspaces_scanned"] = stats.get("subspaces_scanned", 0) + scanned
        stats["systems_found"] = len(systems)
    return sorted(systems)


def invariant_oracle(gens, n, p, dims=None):
    """invariant_subspaces as one containment test per subspace."""
    gens = list(gens)
    if dims is None:
        dims = range(1, n)
    found = []
    for d in dims:
        for sub in all_subspaces(n, d, p):
            if all(sub.contains_rows((sub.basis @ g.a) % p) for g in gens):
                found.append(sub)
    return found


def assert_scan_matches_oracle(g):
    stats, oracle_stats = {}, {}
    systems = all_systems(g, stats=stats)
    assert [s.key for s in systems] == [
        s.key for s in scan_oracle(g, stats=oracle_stats)
    ]
    assert stats == oracle_stats
    assert [w.key for w in invariant_subspaces(g.gens, g.n, g.p)] == [
        w.key for w in invariant_oracle(g.gens, g.n, g.p)
    ]


@st.composite
def invertible_matrices(draw, n, p):
    entries = st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    return Matrix(draw(entries.filter(lambda a: Matrix(a, p).is_invertible())), p)


@st.composite
def monomial_matrices(draw, n, p):
    images = draw(st.permutations(range(n)))
    scalars = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    a = np.zeros((n, n), dtype=np.int64)
    a[range(n), images] = scalars
    return Matrix(a, p)


def generator_lists(n, p):
    """1-3 generators, each a random invertible or a monomial matrix.

    Monomial generators permute the coordinate lines, so the groups they
    make often have systems; random ones mostly do not.
    """
    one = st.one_of(invertible_matrices(n, p), monomial_matrices(n, p))
    return st.lists(one, min_size=1, max_size=3)


def word(gens):
    """The product gens[0] * ... * gens[-1] all_systems ranks first."""
    return functools.reduce(operator.mul, gens)


@st.composite
def small_groups(draw):
    """Groups of n <= 4; in half the draws the last generator is the inverse
    of the product of the others, so the word all_systems ranks first is the
    identity and drops nothing."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    gens = draw(generator_lists(n, p))
    if draw(st.booleans()):
        gens.append(word(gens).inv())
    return MatrixGroup(gens)


@st.composite
def block_diagonal_groups(draw):
    """Reducible direct products of 2-3 factors, total dimension <= 4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dims = draw(
        st.lists(st.integers(1, 2), min_size=2, max_size=3).filter(
            lambda ds: sum(ds) <= 4
        )
    )
    factors = [MatrixGroup(draw(generator_lists(d, p))) for d in dims]
    return block_diagonal_product(factors)[0]


def sign_wreath(p, *points):
    return wreath_product(WreathSpec(sign_group(p), PermGroup(list(points))))


CYCLE = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3)
CYCLE_4 = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 3)
TWIST = Matrix([[0, 1, 0], [0, 0, 2], [1, 0, 0]], 3)


@example(MatrixGroup([TWIST, TWIST.inv()]))  # the word is the identity
@example(MatrixGroup([Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]], 3)]))  # one generator
@example(sign_wreath(5, perm(2, 1, 4, 3), perm(3, 4, 1, 2)))  # 10 systems
@given(small_groups())
def test_scan_matches_oracle_on_generated_groups(g):
    assert_scan_matches_oracle(g)


# products of equal factors that permute skew summands, so have systems
@example(block_diagonal_product([sign_group(7)] * 2)[0])
@example(block_diagonal_product([MatrixGroup([Matrix.diagonal([2, 2], 3)])] * 2)[0])
@given(block_diagonal_groups())
def test_scan_matches_oracle_on_block_diagonal_products(g):
    assert_scan_matches_oracle(g)


def word_keeps_part_of_an_orbit_past_one_drop(g):
    """True iff for some candidate d the word's cycles of at most n/d members
    hold some but not all members of an orbit, and one of the members they
    hold has every generator image held too: dropping the members with an
    image outside once is not enough."""
    for d in divisors(g.n)[:-1]:
        subs = subspace_array(g.n, d, g.p)
        cycles = orbit_labels(subspace_tables([word(g.gens)], subs, g.p))
        kept = np.bincount(cycles)[cycles] <= g.n // d
        images = subspace_tables(g.gens, subs, g.p)
        orbits = orbit_labels(images)
        kept_count = np.bincount(orbits, weights=kept)
        partly = ((kept_count > 0) & (kept_count < np.bincount(orbits)))[orbits]
        if (partly & kept & kept[images].all(axis=0)).any():
            return True
    return False


def test_orbits_the_word_keeps_in_part_drain_away():
    g = MatrixGroup([
        Matrix([[6, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 2], [0, 0, 5, 0]], 7),
        Matrix([[0, 4, 0, 0], [0, 0, 5, 0], [0, 0, 0, 3], [5, 0, 0, 0]], 7),
    ])
    assert word_keeps_part_of_an_orbit_past_one_drop(g)
    assert_scan_matches_oracle(g)


def short_cycle_oracle(w, subs, p, target):
    """The subspaces on w-cycles of at most target members, read off w's
    full permutation table of subs."""
    cycles = orbit_labels(subspace_tables([w], subs, p))
    return np.bincount(cycles)[cycles] <= target


@example(MatrixGroup([CYCLE, CYCLE]))  # the word has order 3 = n/1: every line is kept
@example(MatrixGroup([Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]], 3)]))  # one generator
@example(sign_wreath(5, perm(2, 1, 4, 3), perm(3, 4, 1, 2)))  # 10 systems
@given(small_groups())
def test_short_cycle_mask_matches_the_word_table(g):
    w = word(g.gens)
    for d in divisors(g.n)[:-1]:
        subs = subspace_array(g.n, d, g.p)
        mask = imprim._short_cycles(w, subs, g.p, g.n // d)
        assert np.array_equal(mask, short_cycle_oracle(w, subs, g.p, g.n // d))


def test_generators_rank_only_what_the_word_keeps(monkeypatch):
    g = sign_wreath(3, perm(2, 1, 3, 4, 5, 6), perm(2, 3, 4, 5, 6, 1))
    survivors = sum(
        int(short_cycle_oracle(word(g.gens), subspace_array(6, d, 3), 3, 6 // d).sum())
        for d in (1, 2, 3)
    )
    ranked = []

    def counting_tables(gens, subs, p):
        ranked.append(len(gens) * len(subs))
        return subspace_tables(gens, subs, p)

    monkeypatch.setattr(imprim, "subspace_tables", counting_tables)
    stats = {}
    all_systems(g, stats=stats)
    # the word is never ranked: its short cycles come from the invariance
    # kernel, and only the generators rank, each on the survivors alone
    assert sum(ranked) == len(g.gens) * survivors < 1000
    assert stats["subspaces_scanned"] == 45255


# (n, d, p) shapes with more than SCAN_CHUNK subspaces
PAST_A_CHUNK = [(6, 3, 2), (5, 2, 3), (3, 1, 131), (3, 2, 131)]


def matrices(n, p):
    """Random invertible, monomial, or diagonal matrices with at most two
    distinct entries; the last leave many subspaces invariant."""
    values = st.lists(st.integers(1, p - 1), min_size=2, max_size=2)
    picks = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    diagonal = st.builds(lambda v, i: Matrix.diagonal([v[k] for k in i], p), values, picks)
    return st.one_of(invertible_matrices(n, p), monomial_matrices(n, p), diagonal)


@st.composite
def kernel_cases(draw):
    """(n, d, p, mats, rows): 1-3 matrices and one of five row sets of the
    d-subspaces of GF(p)^n: all of them, none, a run inside one pivot block,
    a strided run across blocks, or a run of more than SCAN_CHUNK rows."""
    kind = draw(st.sampled_from(["all", "none", "one block", "across blocks", "past a chunk"]))
    if kind == "past a chunk":
        n, d, p = draw(st.sampled_from(PAST_A_CHUNK))
    else:
        p = draw(st.sampled_from([2, 3, 5, 131]))
        n = draw(st.integers(1 if kind != "across blocks" else 2, {2: 5, 3: 4, 5: 3, 131: 2}[p]))
        d = draw(st.integers(1, n if kind != "across blocks" else n - 1))
    mats = draw(st.lists(matrices(n, p), min_size=1, max_size=3))
    _, offsets, _ = subspace_layout(n, d, p)
    count = int(offsets[-1])
    if kind == "all":
        return n, d, p, mats, None
    if kind == "none":
        return n, d, p, mats, np.array([], dtype=np.intp)
    if kind == "past a chunk":
        start = draw(st.integers(0, count - SCAN_CHUNK - 1))
        stop = draw(st.integers(start + SCAN_CHUNK + 1, min(count, start + SCAN_CHUNK + 300)))
        return n, d, p, mats, np.arange(start, stop)
    step = draw(st.integers(1, 7))
    if kind == "one block":
        block = draw(st.integers(0, len(offsets) - 2))
        start = draw(st.integers(int(offsets[block]), int(offsets[block + 1]) - 1))
        return n, d, p, mats, np.arange(start, int(offsets[block + 1]), step)[:300]
    # from a row before the last block to the last row of a later block
    start = draw(st.integers(0, int(offsets[-2]) - 1))
    later = int(np.searchsorted(offsets, start, side="right")) + 1
    stop = int(offsets[draw(st.integers(later, len(offsets) - 1))])
    return n, d, p, mats, np.union1d(np.arange(start, stop, step)[:299], [stop - 1])


@example((3, 1, 131, [Matrix.diagonal([1, 1, 2], 131)], np.arange(17000, 17293)))
@example((3, 2, 131, [Matrix.diagonal([1, 2, 2], 131)], np.arange(100, 1300)))
@example((2, 1, 2, [Matrix.identity(2, 2)], np.array([], dtype=np.intp)))
@example((4, 2, 3, [Matrix.diagonal([1, 2, 2, 1], 3), CYCLE_4], np.arange(3, 130, 3)))
@example((5, 2, 3, [Matrix.diagonal([2, 2, 1, 1, 1], 3)], np.arange(0, 1100)))
@given(kernel_cases())
def test_invariance_table_matches_contains_rows(case):
    n, d, p, mats, rows = case
    subs = subspace_array(n, d, p)
    table = invariance_table(subs, mats, p, rows)
    rows = np.arange(len(subs)) if rows is None else rows
    assert table.shape == (len(mats), len(rows)) and table.dtype == bool
    for i, row in enumerate(rows):
        w = echelon_subspace(subs[row], p)
        for k, m in enumerate(mats):
            assert table[k, i] == w.contains_rows(w.basis @ m.a % p)


@pytest.mark.parametrize("p,dtype", [(127, np.int8), (131, np.int16)])
def test_scan_across_the_int8_storage_boundary(p, dtype):
    subs = subspace_array(2, 1, p)
    assert subs.dtype == dtype and subs.max() == p - 1
    swap = Matrix([[0, 1], [1, 0]], p)
    for gens in (
        [swap, Matrix.diagonal([p - 1, 1], p)],
        [swap, Matrix.diagonal([3, 5], p)],
        [Matrix([[1, 1], [0, 1]], p)],
        [Matrix([[p - 2, 7], [5, 1]], p)],
    ):
        assert_scan_matches_oracle(MatrixGroup(gens))


def test_key_width_guard_fires_before_allocation(monkeypatch):
    # the line count p^2 + p + 1 ~ 4.4e12 is under the cap but past int32
    p = 2097169
    cycle = MatrixGroup([Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], p)])

    def no_allocation(*args):
        raise AssertionError("the scan allocated its subspace stack")

    monkeypatch.setattr(imprim, "subspace_array", no_allocation)
    with limits(subspaces=10**13), pytest.raises(CapError) as err:
        all_systems(cycle)
    message = str(err.value)
    assert message.startswith(f"subspace scan: {gaussian_binomial(3, 1, p)} subspaces of ")
    assert "dimension 1" in message
    assert "int32" in message
