import numpy as np
import pytest
from hypothesis import settings

from imprimlab import Matrix, MatrixGroup, PermGroup, Permutation

# The host's speed can change twofold from one moment to the next, so no
# example may fail for running long; max_examples bounds the suite's time.
settings.register_profile("imprimlab", deadline=None, max_examples=40)
settings.load_profile("imprimlab")


def sign_group(p):
    """{1, -1} inside GL_1(p)."""
    return MatrixGroup([Matrix([[p - 1]], p)])


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
    from imprimlab import Subspace

    eye = np.eye(n, dtype=np.int64)
    return [
        Subspace.span(eye[offsets[i] : offsets[i + 1]], n, p)
        for i in range(len(dims))
    ]


def perm(*one_based):
    return Permutation.from_one_based(one_based)


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
