import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from imprimlab import Matrix, MatrixGroup, PermGroup, Permutation, Subspace
from imprimlab.descriptions import parse_group
from imprimlab.errors import ShapeMismatch
from imprimlab.groups import general_linear_group, primitive_root
from imprimlab.linalg import mul_mod, rref

DATA = Path(__file__).resolve().parent / "data"

# The host's speed can change twofold from one moment to the next, so no
# example may fail for running long; max_examples bounds the suite's time.
# CI runs every test again under imprimlab-ci, with many more draws.
settings.register_profile("imprimlab", deadline=None, max_examples=40)
settings.register_profile("imprimlab-ci", deadline=None, max_examples=200)
settings.load_profile("imprimlab")


def sign_group(p):
    """{1, -1} inside GL_1(p)."""
    return MatrixGroup([Matrix([[p - 1]], p)])


def general_linear_order(n, q):
    """|GL_n(q)| by the product formula."""
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def element_keys(group):
    """The Matrix.key of every element of a matrix group, in discovery order."""
    shape = (group.n, group.n)
    return tuple(
        (group.p, shape, a.tobytes()) for a in group.element_array.astype(np.int64)
    )


def elements(group):
    """Every element of a matrix or permutation group as a Matrix or
    Permutation object, in discovery order."""
    if isinstance(group, PermGroup):
        return tuple(Permutation(a) for a in group.element_array)
    return tuple(Matrix(a, group.p) for a in group.element_array)


def is_monomial(m):
    """True iff the Matrix has exactly one nonzero entry in each row and column."""
    nz = m.a != 0
    return bool((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all())


def transpose(m):
    return Matrix(m.a.T, m.p)


def contains_vector(w, v):
    """True iff the Subspace w contains the row vector v."""
    return w.contains_rows(np.asarray(v)[None])


def nullspace_rows(a, p):
    """Basis (as rows) of {x : a @ x = 0} for an m x n matrix a."""
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    r, rank, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    rows = np.zeros((len(free), n), dtype=np.int64)
    for idx, f in enumerate(free):
        rows[idx, f] = 1
        for i, c in enumerate(pivots):
            rows[idx, c] = (-r[i, f]) % p
    return rows


def fixed_space(g):
    """Subspace of row vectors fixed by the Matrix g, i.e. the kernel of (g - I)."""
    if g.rows != g.cols:
        raise ShapeMismatch("fixed space needs a square matrix")
    n = g.rows
    delta = (g.a - np.eye(n, dtype=np.int64)) % g.p
    # v @ (g - I) = 0  <=>  (g - I)^T @ v^T = 0
    rows = nullspace_rows(delta.T, g.p)
    return Subspace.span(rows, n, g.p)


def fixed_by(w, stack):
    """Which matrices of an (s, n, n) stack map the Subspace w into itself."""
    images = mul_mod(w.basis, np.asarray(stack), w.p)
    return np.array([w.contains_rows(rows) for rows in images], dtype=bool)


def subspace_sum(w1, w2):
    return Subspace.span(np.concatenate([w1.basis, w2.basis]), w1.ambient, w1.p)


def intersect(w1, w2):
    """Canonical intersection of two subspaces via the kernel of the stacked bases."""
    if w1.rank == 0 or w2.rank == 0:
        return Subspace.span([], w1.ambient, w1.p)
    stacked = np.concatenate([w1.basis, (-w2.basis) % w1.p])
    # u @ stacked = 0  <=>  u[:r1] @ B1 = u[r1:] @ B2
    kernel = nullspace_rows(stacked.T, w1.p)
    return Subspace.span(kernel[:, : w1.rank] @ w1.basis % w1.p, w1.ambient, w1.p)


def maximal_solvable_oracle(q):
    """The first <M, a> that is solvable, a outside the monomial group M of
    GL_2(q), taking every such a in the ambient group's listing order (the
    candidate-by-candidate scan the double-coset scan replaced); None if
    there is none."""
    ambient = general_linear_group(2, q)
    zeta = primitive_root(q)
    monomial_gens = [
        Matrix([[zeta, 0], [0, 1]], q),
        Matrix([[1, 0], [0, zeta]], q),
        Matrix([[0, 1], [1, 0]], q),
    ]
    base = MatrixGroup(monomial_gens)
    outside = ambient.element_array[~base.member_mask(ambient.element_array)]
    ambient_solvable = ambient.is_solvable()
    cache = {}
    for a in outside:
        candidate = MatrixGroup(monomial_gens + [Matrix(a, q)])
        key = candidate.sorted_keys.tobytes()
        if key not in cache:
            if candidate.order == ambient.order and not ambient_solvable:
                cache[key] = False
            else:
                cache[key] = candidate.is_solvable()
        if cache[key]:
            return candidate
    return None


def regression_inclusion_instances():
    """(name, h1, k1, h2, k2, expected_containment) for the inclusion
    instances recorded in data/inclusion_instances.json."""
    manifest = json.loads((DATA / "inclusion_instances.json").read_text())
    out = []
    for entry in manifest["inclusion_instances"]:
        h1, k1, h2, k2 = (
            parse_group(entry[part], f"{entry['name']}.{part}")
            for part in ("h1", "k1", "h2", "k2")
        )
        out.append((entry["name"], h1.build(), k1.build(), h2.build_matrix_group(),
                    k2.build(), entry["expected_containment"]))
    return out


def block_diagonal_product(factors):
    """Direct product of matrix groups acting block-diagonally.

    Returns (group, dims, offsets) where offsets delimit each factor's
    coordinate block.
    """
    dims = [f.n for f in factors]
    offsets = np.cumsum([0] + dims)
    n = int(offsets[-1])
    p = factors[0].p
    gens = []
    for i, f in enumerate(factors):
        for a in f.gens:
            m = np.eye(n, dtype=np.int64)
            m[offsets[i] : offsets[i + 1], offsets[i] : offsets[i + 1]] = a.a
            gens.append(Matrix(m, p))
    return MatrixGroup(gens), dims, offsets


def summand_subspaces(dims, offsets, n, p):
    eye = np.eye(n, dtype=np.int64)
    return [
        Subspace.span(eye[offsets[i] : offsets[i + 1]], n, p)
        for i in range(len(dims))
    ]


def perm(*one_based):
    return Permutation([i - 1 for i in one_based])


@pytest.fixture
def klein_group():
    return PermGroup([perm(2, 1, 4, 3), perm(3, 4, 1, 2)])


@pytest.fixture
def dihedral8_group():
    # C2 wr C2 on 4 points: swaps inside {1,2} and {3,4}, plus the block swap
    return PermGroup([perm(2, 1, 3, 4), perm(1, 2, 4, 3), perm(3, 4, 1, 2)])


def basis_row(i, n):
    row = np.zeros(n, dtype=np.int64)
    row[i] = 1
    return row


@st.composite
def matrix_groups(draw, max_n=3, primes=(2, 3, 5, 7)):
    """1-3 random invertible or monomial generators, n <= max_n, p in primes."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            perm = draw(st.permutations(range(n)))
            diag = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
            a = np.zeros((n, n), dtype=np.int64)
            a[np.arange(n), perm] = diag
        else:  # P L U: permutation, unitriangular, invertible triangular
            lower = np.eye(n, dtype=np.int64)
            upper = np.diag(
                draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
            )
            for i, j in zip(*np.tril_indices(n, -1)):
                lower[i, j] = draw(st.integers(0, p - 1))
                upper[j, i] = draw(st.integers(0, p - 1))
            perm = draw(st.permutations(range(n)))
            a = np.eye(n, dtype=np.int64)[list(perm)] @ lower @ upper
        gens.append(Matrix(a, p))
    return gens


@st.composite
def reducible_matrix_groups(draw, max_n=4, primes=(2, 3, 5, 7)):
    """1-3 block upper-triangular generators [[A, B], [0, C]], n <= max_n:
    the last n - a coordinates span an invariant subspace."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(2, max_n))
    a = draw(st.integers(1, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        m = np.zeros((n, n), dtype=np.int64)
        for lo, hi in ((0, a), (a, n)):
            perm = draw(st.permutations(range(hi - lo)))
            diag = draw(st.lists(st.integers(1, p - 1), min_size=hi - lo, max_size=hi - lo))
            m[np.arange(lo, hi), np.array(perm, dtype=np.intp) + lo] = diag
        cells = st.lists(st.integers(0, p - 1), min_size=a * (n - a), max_size=a * (n - a))
        m[:a, a:] = np.reshape(draw(cells), (a, n - a))
        gens.append(Matrix(m, p))
    return gens


@st.composite
def perm_group_gens(draw, max_degree=8):
    """1-3 permutations of one degree <= max_degree; in half the draws they
    move only the first r < degree points, so the group is intransitive."""
    degree = draw(st.integers(1, max_degree))
    moved = degree
    if degree > 1 and draw(st.booleans()):
        moved = draw(st.integers(1, degree - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        images = list(draw(st.permutations(range(moved)))) + list(range(moved, degree))
        gens.append(Permutation(images))
    return gens


def count_calls(monkeypatch, original):
    """Wrap a library function in every imprimlab module that holds it, or
    a method (Matrix.inv) on its class, and return the list the wrapper
    appends each call's arguments to."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    owner, _, name = original.__qualname__.rpartition(".")
    if owner:
        monkeypatch.setattr(getattr(sys.modules[original.__module__], owner), name, wrapper)
        return calls
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "imprimlab":
            continue
        if getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)
    return calls
