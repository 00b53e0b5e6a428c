"""Exact linear algebra over prime fields GF(p).

Conventions used by the whole package:

  * scalars are plain Python ints fully reduced into [0, p);
  * vectors are rows and groups act on the right (v -> v @ g);
  * a subspace is identified with the unique reduced row echelon basis of
    its row space, which makes subspace equality an entrywise comparison.

Matrices are small dense numpy int64 arrays.  Intermediate products must fit
in 64 bits, so construction rejects moduli where n * (p-1)^2 would overflow;
in practice every instance here has p < 100.  Subspaces take any p < 2^31,
so their containment tests use the overflow-safe mul_mod.  A scan over the
subspaces of one dimension works on one stack of RREF bases, subspace_array,
in the order subspace_layout defines (built once per (n, d, p)).
invariance_table tests which subspaces of a stack some matrices map into
themselves, one pivot block at a time, with products and no row reduction.
subspace_tables ranks the images of a stack instead: rref_batch row-reduces
them all at once by a sweep over their rows, so a d-subspace costs d steps
however large the ambient dimension n is; its products of earlier rows go
through mul_mod, since several of them can overflow int64 for p near 2^31.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    AmbientMismatch,
    ModulusMismatch,
    ShapeMismatch,
    Singular,
    ValidationError,
    ZeroInverse,
)

MAX_MODULUS = 2**31 - 1


_PRIME_CACHE: dict[int, bool] = {}


def is_prime(n: int) -> bool:
    cached = _PRIME_CACHE.get(n)
    if cached is not None:
        return cached
    if n < 2:
        result = False
    elif n % 2 == 0:
        result = n == 2
    else:
        result = True
        d = 3
        while d * d <= n:
            if n % d == 0:
                result = False
                break
            d += 2
    _PRIME_CACHE[n] = result
    return result


def ff_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p (p prime)."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def _check_modulus(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise ValidationError(f"modulus {p} is not prime")
    if p > MAX_MODULUS:
        raise ValidationError(f"modulus {p} exceeds 2^31 - 1")
    return p


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Reduced row echelon form over GF(p).

    Returns (R, rank, pivot_columns).  R is a fresh array with pivot entries
    1, pivots the only nonzero entries in their columns, and pivot columns
    strictly increasing; zero rows sink to the bottom.  The result is the
    unique RREF of the row space, hence idempotent and constant on
    row-equivalent inputs.
    """
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    row = 0
    pivots = []
    for col in range(n):
        if row >= m:
            break
        hit = None
        for r in range(row, m):
            if a[r, col]:
                hit = r
                break
        if hit is None:
            continue
        if hit != row:
            a[[row, hit]] = a[[hit, row]]
        a[row] = (a[row] * ff_inv(int(a[row, col]), p)) % p
        for r in range(m):
            if r != row and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[row]) % p
        pivots.append(col)
        row += 1
    return a, row, tuple(pivots)


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p), broadcast as matmul; the inner index
    runs in slices short enough that no partial sum overflows int64."""
    step = 2**62 // (p - 1) ** 2  # at least 1, as p < 2^31
    if a.shape[-1] <= step:
        return a @ b % p
    out = 0
    for start in range(0, a.shape[-1], step):
        out = (out + a[..., start : start + step] @ b[..., start : start + step, :]) % p
    return out


class Matrix:
    """An exact matrix over GF(p), hashable by its reduced entries."""

    __slots__ = ("p", "a", "_key", "_hash")

    def __init__(self, entries, p: int):
        p = _check_modulus(p)
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeMismatch("matrix entries must be two-dimensional")
        if a.shape[1] * (p - 1) ** 2 >= 2**62:
            raise ValidationError("modulus too large for 64-bit products")
        self.p = p
        self.a = a % p
        self.a.flags.writeable = False
        self._key = (p, self.a.shape, self.a.tobytes())
        self._hash = hash(self._key)

    @classmethod
    def identity(cls, n: int, p: int) -> "Matrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @classmethod
    def diagonal(cls, diag, p: int) -> "Matrix":
        return cls(np.diag(np.array(diag, dtype=np.int64)), p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._key == other._key

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.a.shape} by {other.a.shape}"
            )
        return Matrix(self.a @ other.a, self.p)

    def inv(self) -> "Matrix":
        """Gauss-Jordan inverse; raises Singular when rank < n."""
        if self.rows != self.cols:
            raise Singular("only square matrices can be inverted")
        n = self.rows
        aug = np.concatenate(
            [self.a, np.eye(n, dtype=np.int64)], axis=1
        )
        r, rank, _ = rref(aug, self.p)
        if rank < n or not np.array_equal(r[:, :n], np.eye(n, dtype=np.int64)):
            raise Singular("matrix is singular")
        return Matrix(r[:, n:], self.p)

    def is_identity(self) -> bool:
        return self.rows == self.cols and np.array_equal(
            self.a, np.eye(self.rows, dtype=np.int64)
        )

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            return False
        return rref(self.a, self.p)[1] == self.rows

    def __repr__(self):
        return f"Matrix({self.a.tolist()}, p={self.p})"


class Subspace:
    """A subspace of GF(p)^n in canonical reduced-row-echelon form.

    Equality, hashing, and ordering all go through the (rank, flattened
    basis entries) key, so subspaces can serve as set members and sort
    deterministically.
    """

    __slots__ = ("p", "ambient", "basis", "rank", "pivots", "_pivot_arr", "_key", "_hash")

    def __init__(self, basis: np.ndarray, pivots: tuple[int, ...], p: int, ambient: int):
        # trusted constructor: basis must already be RREF with no zero rows
        self.p = p
        self.ambient = ambient
        self.basis = basis
        self.basis.flags.writeable = False
        self.rank = basis.shape[0]
        self.pivots = pivots
        self._pivot_arr = np.array(pivots, dtype=np.intp)
        self._key = None
        self._hash = None

    @classmethod
    def span(cls, rows, ambient: int, p: int) -> "Subspace":
        """Canonical subspace spanned by the given row vectors."""
        p = _check_modulus(p)
        arr = np.array(list(rows), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, ambient)
        if arr.shape[1] != ambient:
            raise ShapeMismatch(
                f"rows of length {arr.shape[1]} in ambient dimension {ambient}"
            )
        r, rank, pivots = rref(arr, p)
        return cls(r[:rank].copy(), pivots, p, ambient)

    @classmethod
    def full(cls, ambient: int, p: int) -> "Subspace":
        return cls.span(np.eye(ambient, dtype=np.int64), ambient, p)

    @property
    def key(self):
        # computed lazily: enumeration scans build many short-lived subspaces
        if self._key is None:
            self._key = (self.rank,) + tuple(int(x) for x in self.basis.ravel())
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.ambient, self.key))
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.rank == other.rank
            and np.array_equal(self.basis, other.basis)
        )

    def __lt__(self, other):
        return self.key < other.key

    def contains_rows(self, rows) -> bool:
        """Vectorized membership test for a stack of row vectors: each row
        must equal its pivot entries times the basis."""
        rows = np.asarray(rows, dtype=np.int64) % self.p
        return bool((rows == mul_mod(rows[..., self._pivot_arr], self.basis, self.p)).all())

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.basis)

    def apply(self, g: Matrix) -> "Subspace":
        """Image subspace under the right action v -> v @ g."""
        if g.p != self.p:
            raise ModulusMismatch("matrix modulus differs from subspace modulus")
        return Subspace.span((self.basis @ g.a) % self.p, self.ambient, self.p)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient or self.p != other.p:
            raise AmbientMismatch(
                f"subspaces live in GF({self.p})^{self.ambient} "
                f"and GF({other.p})^{other.ambient}"
            )

    def __repr__(self):
        return f"Subspace({self.basis.tolist()}, p={self.p}, ambient={self.ambient})"


def direct_sum_check(parts) -> bool:
    """True iff the parts are independent and together decompose GF(p)^n."""
    parts = list(parts)
    if not parts:
        return False
    ambient, p = parts[0].ambient, parts[0].p
    for w in parts:
        if w.ambient != ambient or w.p != p:
            raise AmbientMismatch("parts live in different ambient spaces")
    total = sum(w.rank for w in parts)
    if total != ambient:
        return False
    stacked = np.concatenate([w.basis for w in parts])
    return rref(stacked, p)[1] == total


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n, exactly."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def entry_dtype(m: int):
    """Smallest signed integer dtype that holds every integer in [0, m).

    That is every residue mod a modulus m, or every point of a permutation
    of degree m.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if m - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


@functools.lru_cache(maxsize=64)
def subspace_layout(n: int, d: int, p: int):
    """The order of subspace_array, as (combos, offsets, weights).

    combos are the pivot combinations in lexicographic order; subspaces
    offsets[c] to offsets[c + 1] - 1 have pivots combos[c], and weights[c]
    holds the base-p place values of their free cells (right of each pivot,
    outside pivot columns, row by row, the last cell 1), 0 elsewhere.  RREF
    rows with pivots combos[c] are subspace offsets[c] + sum(rows * weights[c]).
    Built once per (n, d, p) and shared: combos is a tuple, and offsets and
    weights are read-only int64 arrays."""
    combos = tuple(itertools.combinations(range(n), d))
    weights = np.zeros((len(combos), d, n), dtype=np.int64)
    offsets = [0]
    for c, pivots in enumerate(combos):
        free_cells = [
            (i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivots
        ]
        for k, (i, j) in enumerate(reversed(free_cells)):
            weights[c, i, j] = p**k
        offsets.append(offsets[-1] + p ** len(free_cells))
    offsets = np.array(offsets, dtype=np.int64)
    offsets.flags.writeable = weights.flags.writeable = False
    return combos, offsets, weights


def subspace_array(n: int, d: int, p: int) -> np.ndarray:
    """Every d-dimensional subspace of GF(p)^n as an (N, d, n) RREF stack, in
    subspace_layout order; entries in entry_dtype(p) keep large scans small."""
    p = _check_modulus(p)
    combos, offsets, weights = subspace_layout(n, d, p)
    subs = np.zeros((offsets[-1], d, n), dtype=entry_dtype(p))
    for pivots, start, stop, weight in zip(combos, offsets, offsets[1:], weights):
        block = subs[start:stop]
        block[:, np.arange(d), list(pivots)] = 1
        index = np.arange(stop - start, dtype=np.int64)
        for i, j in zip(*np.nonzero(weight)):
            block[:, i, j] = index // weight[i, j] % p
    return subs


def echelon_subspace(rows: np.ndarray, p: int) -> Subspace:
    """The Subspace whose RREF basis is rows (one entry of subspace_array)."""
    basis = rows.astype(np.int64)
    pivots = tuple(int(j) for j in (basis != 0).argmax(axis=1))
    return Subspace(basis, pivots, p, basis.shape[1])


def all_subspaces(n: int, d: int, p: int):
    """Yield every d-dimensional subspace of GF(p)^n in subspace_array order."""
    p = _check_modulus(p)
    for rows in subspace_array(n, d, p):
        yield echelon_subspace(rows, p)


# Rows per chunk of a subspace scan: only a chunk and its images are int64.
SCAN_CHUNK = 1024


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise x^(p-2) mod p, the inverse of every nonzero entry."""
    result = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def rref_batch(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over GF(p) of every matrix in an (N, m, n) stack.

    Row for row the same canonical form as rref, for all N matrices at once.
    The sweep runs over the m rows: row k drops every earlier row times its
    own entry in that row's leading column, is scaled to a leading 1, and
    clears its leading column from the earlier rows.  A stable sort by
    leading column, zero rows last, then puts the rows in echelon order.
    """
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape[1:]
    every = np.arange(len(a))
    leads = np.zeros((len(a), m), dtype=np.intp)  # 0 for a zero row
    for k in range(m if n else 0):  # rows without columns are already reduced
        row = a[:, k]
        if k:
            # the earlier rows are reduced, so their leading columns clear at once
            factors = np.take_along_axis(row, leads[:, :k], axis=1)
            row = (row - mul_mod(factors[:, None], a[:, :k], p)[:, 0]) % p
        lead = (row != 0).argmax(axis=1)
        row = row * _inverse_mod(row[every, lead], p)[:, None] % p
        if k:
            above = a[every, :k, lead]
            a[:, :k] = (a[:, :k] - above[:, :, None] * row[:, None]) % p
        a[:, k], leads[:, k] = row, lead
    order = np.argsort(np.where(a.any(axis=2), leads, n), axis=1, kind="stable")
    return a[every[:, None], order]


def invariance_table(subs: np.ndarray, mats, p: int, rows=None) -> np.ndarray:
    """Which subspaces of a subspace_array stack each matrix maps into itself.

    mats is a sequence of Matrix.  table[k, i] is True when the row space W
    of subs[rows[i]] satisfies W @ mats[k] <= W; rows, increasing, defaults
    to the whole stack.  The rows go one pivot block of subspace_layout at a
    time, so every basis B of a block is the identity on the same pivot
    columns P.  An image row v lies in W exactly when v agrees with v[P] @ B
    outside P.  The columns are reordered with P first, so v[P] is a slice
    and only the n - d other entries are compared.
    """
    _, d, n = subs.shape
    combos, offsets, _ = subspace_layout(n, d, p)
    stack = np.stack([g.a for g in mats])
    bounds = offsets if rows is None else np.searchsorted(rows, offsets)
    table = np.empty((len(stack), bounds[-1]), dtype=bool)
    for pivots, lo, hi in zip(combos, bounds, bounds[1:]):
        order = list(pivots) + [j for j in range(n) if j not in pivots]
        moved = stack[:, order][:, :, order]
        for start in range(lo, hi, SCAN_CHUNK):
            stop = min(start + SCAN_CHUNK, hi)
            chunk = subs[start:stop] if rows is None else subs[rows[start:stop]]
            basis = chunk[..., order].astype(np.int64)
            image = mul_mod(basis.reshape(-1, n), moved, p).reshape(len(stack), -1, d, n)
            inside = mul_mod(image[..., :d], basis[..., d:], p) == image[..., d:]
            table[:, start:stop] = inside.all(axis=(2, 3))
    return table


def subspace_tables(gens, subs: np.ndarray, p: int) -> np.ndarray:
    """Permutation tables of invertible generators on a subspace_array stack.

    tables[k, i] is the rank of the image of subs[i] under gens[k] in
    subspace_layout order, an int32: its index in the whole subspace_array
    stack of that (n, d, p), also when subs holds only some of its rows.  A
    chunk's images under all generators are row-reduced in one batch, and
    each is ranked from the layout: the offset of its pivot combination plus
    its free cells as base-p digits.
    """
    _, d, n = subs.shape
    combos, offsets, weights = subspace_layout(n, d, p)
    weights = weights.reshape(len(combos), d * n)
    # lexicographic rank of pivots c: C(n, d) - 1 - sum_i C(n - 1 - c_i, d - i)
    place = np.array([math.comb(n - 1 - j, d - i) for i in range(d) for j in range(n)])
    row_starts = np.arange(0, d * n, n)
    # a product with ones sums a short last axis faster than sum() does
    ones_d, ones_n = np.ones(d, dtype=np.int64), np.ones(n, dtype=np.int64)
    stack = np.stack([g.a for g in gens])
    tables = np.empty((len(gens), len(subs)), dtype=np.int32)
    for start in range(0, len(subs), SCAN_CHUNK):
        chunk = subs[start : start + SCAN_CHUNK].astype(np.int64)
        reduced = rref_batch((chunk.reshape(-1, n) @ stack % p).reshape(-1, d, n), p)
        if not (reduced[:, -1] @ ones_n).all():  # a zero last row
            raise Singular("a generator maps a subspace to a smaller one")
        pivots = (reduced != 0).argmax(axis=2)
        combo = len(combos) - 1 - np.take(place, pivots + row_starts) @ ones_d
        flat = reduced.reshape(len(reduced), -1)
        ranks = offsets[combo] + np.einsum("kj,kj->k", flat, np.take(weights, combo, axis=0))
        tables[:, start : start + len(chunk)] = ranks.reshape(len(gens), -1)
    return tables


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]
