"""Exact linear algebra over prime fields GF(p).

Conventions used by the whole package:

  * scalars are plain Python ints fully reduced into [0, p);
  * vectors are rows and groups act on the right (v -> v @ g);
  * a subspace is identified with the unique reduced row echelon basis of
    its row space, which makes subspace equality an entrywise comparison.

Matrices are small dense numpy int64 arrays.  Intermediate products must fit
in 64 bits, so construction rejects moduli where n * (p-1)^2 would overflow;
in practice every instance here has p < 100.  Subspaces take any p < 2^31,
so their containment tests use the overflow-safe mul_mod.  A d-subspace is
named by its index in the order subspace_layout(n, d, p) defines (unrank
turns indices into RREF bases), and a scan works on indices, unranking only
the subspaces it keeps.  invariant_indices lists the subspaces a matrix maps
into themselves without building the others: within one pivot block the
test on the first basis row is linear in the free cells of the other rows,
so it is solved per first row, and only the subspaces that pass are
unranked and have their other rows tested, with products and no row
reduction.  Where a scan needs the images themselves (imprim.image_table),
rref_batch row-reduces them all at once by a sweep over their rows, so a
d-subspace costs d steps however large the ambient dimension n is; its
products of earlier rows go through mul_mod, since several of them can
overflow int64 for p near 2^31.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    AmbientMismatch,
    CapError,
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


def check_product_modulus(p: int, cols: int) -> int:
    """p as an int, checked as the modulus of matrices with cols columns:
    a prime below 2^31 for which a row times a column, entries in [0, p),
    fits in int64."""
    p = _check_modulus(p)
    if cols * (p - 1) ** 2 >= 2**62:
        raise ValidationError("modulus too large for 64-bit products")
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
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeMismatch("matrix entries must be two-dimensional")
        p = check_product_modulus(p, a.shape[1])
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
        if arr.ndim != 2 or arr.shape[1] != ambient:
            raise ShapeMismatch(
                f"rows of shape {arr.shape} in ambient dimension {ambient}"
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
            self._key = (self.rank, *self.basis.ravel().tolist())
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


class SubspaceLayout:
    """The order of the d-subspaces of GF(p)^n, which names each by an index;
    unrank turns indices into RREF bases.

    combos are the pivot combinations in lexicographic order; subspaces
    offsets[c] to offsets[c + 1] - 1 have pivots combos[c], and weights[c]
    holds the base-p place values of their free cells (right of each pivot,
    outside pivot columns, row by row, the last cell 1), 0 elsewhere: RREF
    rows with pivots combos[c] are subspace offsets[c] + sum(rows * weights[c]).
    combos is a tuple, pivot_array the same combinations as a (C(n, d), d)
    array, digit_cells[c, k] the flat cell (i * n + j) of block c's base-p
    digit k, and offsets, weights, pivot_array and digit_cells are read-only
    int64 arrays.  heads and columns, which invariant_indices reads, are
    built on first use.  A modulus that is not a prime below 2^31 raises
    ValidationError, so no scan runs over Z/m for composite m.
    """

    def __init__(self, n: int, d: int, p: int):
        p = _check_modulus(p)
        if gaussian_binomial(n, d, p) >= 2**63:
            raise CapError(f"the {d}-subspaces of GF({p})^{n} are too many to index in int64")
        self.p, self.combos = p, tuple(itertools.combinations(range(n), d))
        self.weights = np.zeros((len(self.combos), d, n), dtype=np.int64)
        for c, pivots in enumerate(self.combos):
            free_cells = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                          if j not in pivots]
            for k, (i, j) in enumerate(reversed(free_cells)):
                self.weights[c, i, j] = p**k
        self.offsets = np.cumsum([0] + [p ** np.count_nonzero(w) for w in self.weights])
        self.pivot_array = np.array(self.combos, dtype=np.int64).reshape(len(self.combos), d)
        # digit k (place p^k) of a block's free cells, in the flat d * n cell
        # order; past the block's last free cell, row 0's pivot, set to 1 later
        flat = self.weights.reshape(len(self.combos), d * n)
        order = np.argsort(np.where(flat == 0, np.iinfo(np.int64).max, flat), axis=1)
        digit = np.arange(max(d * (n - d), 0))
        self.digit_cells = np.where(digit < np.count_nonzero(flat, axis=1)[:, None],
                                    order[:, : len(digit)], self.pivot_array[:, :1])
        for array in (self.offsets, self.weights, self.pivot_array, self.digit_cells):
            array.flags.writeable = False

    @functools.cached_property
    def heads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, index, block): every first basis row of every pivot block.

        Block c is a grid, first rows times the rest: its subspace with row 0
        digits t (row 0's free cells, read in base p) is offsets[c] + t * p^F
        + (the digits of rows 1..d-1), F the free cells of those rows.  rows
        is the (R, n) stack of the R first rows in index order, in
        entry_dtype(p); index[k] the index of the subspace of rows[k] whose
        other free cells are 0, and block[k] its block.  Read-only.
        """
        free = np.count_nonzero(self.weights, axis=2)
        grid = self.p ** free[:, 0]
        block = np.repeat(np.arange(len(self.combos)), grid)
        digits = np.arange(len(block)) - np.repeat(np.cumsum(grid) - grid, grid)
        index = self.offsets[block] + digits * (self.p ** free[:, 1:].sum(axis=1))[block]
        rows = self.unrank(index)[:, 0]
        for array in (rows, index, block):
            array.flags.writeable = False
        return rows, index, block

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, cells): the n - d non-pivot columns of every block, and the
        (C(n, d), n - d, d - 1) place values of rows 1..d-1 in them; row i is
        active in column j (it has a free cell there) where cells is nonzero.
        Read-only.
        """
        count, d, n = self.weights.shape
        outside = np.ones((count, n), dtype=bool)
        outside[np.arange(count)[:, None], self.pivot_array] = False
        cols = np.nonzero(outside)[1].reshape(count, n - d)
        cells = np.take_along_axis(self.weights[:, 1:], cols[:, None], axis=2).transpose(0, 2, 1)
        for array in (cols, cells):
            array.flags.writeable = False
        return cols, cells

    def pivots(self, indices) -> np.ndarray:
        """The (N, d) pivot columns of the subspaces at N indices."""
        block = np.searchsorted(self.offsets, indices, side="right") - 1
        return np.take(self.pivot_array, block, axis=0)

    def unrank(self, indices) -> np.ndarray:
        """The RREF bases of any indices, SCAN_CHUNK at a time: the base-p
        digits of an index within its block fill the block's free cells
        (digit_cells), and its pivots are set to 1."""
        indices = np.asarray(indices, dtype=np.int64)
        _, d, n = self.weights.shape
        subs = np.zeros(len(indices) * d * n, dtype=entry_dtype(self.p))
        powers = self.p ** np.arange(self.digit_cells.shape[1], dtype=np.int64)
        for start in range(0, len(indices), SCAN_CHUNK):
            at = indices[start : start + SCAN_CHUNK]
            block = np.searchsorted(self.offsets, at, side="right") - 1
            first = np.arange(start, start + len(at))[:, None] * (d * n)
            subs[first + self.digit_cells[block]] = (at - self.offsets[block])[:, None] // powers % self.p
            subs[first + self.pivot_array[block] + np.arange(0, d * n, n)] = 1
        return subs.reshape(len(indices), d, n)


subspace_layout = functools.lru_cache(maxsize=64)(SubspaceLayout)


def echelon_subspace(rows: np.ndarray, p: int) -> Subspace:
    """The Subspace whose RREF basis is rows (one unranked layout entry)."""
    basis = rows.astype(np.int64)
    pivots = tuple((basis != 0).argmax(axis=1).tolist())
    return Subspace(basis, pivots, p, basis.shape[1])


def all_subspaces(n: int, d: int, p: int):
    """Yield every d-dimensional subspace of GF(p)^n in subspace_layout order."""
    layout = subspace_layout(n, d, p)
    for rows in layout.unrank(np.arange(layout.offsets[-1])):
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


def invariant_indices(layout: SubspaceLayout, a: np.ndarray, among=None) -> np.ndarray:
    """The increasing indices of the layout's d-subspaces W with W @ a <= W,
    for an (n, n) array a with entries in [0, p).

    among, increasing indices, restricts the test to those subspaces: each is
    unranked and every basis row mapped and tested (_rows_inside).  Without it
    the first basis row is solved for per pivot block.  For a first row v with
    u = v @ a and r = u - u[P_0] v, v @ a lies in W exactly when
    r = sum_(i >= 1) u[P_i] row_i.  That holds on the pivot columns by
    construction; on any other column j it is one equation,
    sum u[P_i] x_ij = r_j, in the free cells x_ij of the rows i >= 1 with
    P_i < j (SubspaceLayout.columns).  So the subspaces whose first row
    passes are, per first row, a product over the columns of nothing (every
    coefficient 0 and r_j != 0), every value (every coefficient 0 and
    r_j = 0) or a hyperplane, whose first cell with a nonzero coefficient is
    solved for by a modular inverse.  One product maps the first rows of
    every block (SubspaceLayout.heads), the passing subspaces are listed in
    SCAN_CHUNK pieces without the rest being built, and only they have rows
    1..d-1 mapped and tested.  A scalar matrix keeps every subspace with no
    product.
    """
    p, a = layout.p, np.asarray(a, dtype=np.int64)
    _, d, n = layout.weights.shape
    if not (a - a[0, 0] * np.eye(n, dtype=np.int64)).any():
        return np.arange(layout.offsets[-1]) if among is None else np.asarray(among, np.int64)
    if among is not None:
        return _rows_inside(layout, a, np.asarray(among, dtype=np.int64), 0)
    rows, index, block = layout.heads
    pivots = layout.pivot_array[block]
    image = mul_mod(rows, a, p)
    rest = (image - np.take_along_axis(image, pivots[:, :1], axis=1) * rows % p) % p
    if d == 1:
        return index[~rest.any(axis=1)]
    cols, cells = (part[block] for part in layout.columns)
    target = np.take_along_axis(rest, cols, axis=1)
    coef = np.where(cells != 0, np.take_along_axis(image, pivots[:, 1:], axis=1)[:, None], 0)
    solvable = coef.any(axis=2)
    alive = np.flatnonzero(~(target.astype(bool) & ~solvable).any(axis=1))
    index, target, coef, cells, solvable = (x[alive] for x in (index, target, coef, cells, solvable))
    solved = (np.arange(d - 1) == (coef != 0).argmax(axis=2)[..., None]) & solvable[..., None]
    inverse = _inverse_mod((coef * solved).sum(axis=2), p)
    solved_place = (cells * solved).sum(axis=2)
    # a first row's survivors are numbered in mixed radix over its cells:
    # p values for a free cell, 1 (no digit) for a solved or inactive one
    radix = np.where((cells != 0) & ~solved, p, 1).reshape(len(alive), -1)
    place, counts = np.cumprod(radix, axis=1) // radix, radix.prod(axis=1)
    coef, cells = coef.reshape(len(alive), -1), cells.reshape(len(alive), -1)
    ends = np.cumsum(counts)
    found = [np.zeros(0, dtype=np.int64)]
    for start in range(0, int(ends[-1]) if len(ends) else 0, SCAN_CHUNK):
        at = np.arange(start, min(start + SCAN_CHUNK, int(ends[-1])))
        k = np.searchsorted(ends, at, side="right")
        x = (at - ends[k] + counts[k])[:, None] // place[k] % radix[k]
        given = (coef[k] * x % p).reshape(len(at), n - d, d - 1).sum(axis=2)
        x_solved = (target[k] - given) % p * inverse[k] % p
        chunk = index[k] + (x * cells[k]).sum(axis=1) + (x_solved * solved_place[k]).sum(axis=1)
        found.append(_rows_inside(layout, a, chunk, 1))
    return np.sort(np.concatenate(found))


def _rows_inside(layout: SubspaceLayout, a: np.ndarray, indices: np.ndarray,
                 first: int) -> np.ndarray:
    """The indices, in their order, whose subspaces a maps basis rows
    first..d-1 of into themselves, unranked and tested SCAN_CHUNK at a time:
    an image row lies in a subspace iff it is its pivot-column entries times
    the RREF basis."""
    p, (_, d, n) = layout.p, layout.weights.shape
    r = d - first
    inside = np.empty(len(indices), dtype=bool)
    for start in range(0, len(indices), SCAN_CHUNK):
        at = indices[start : start + SCAN_CHUNK]
        basis = layout.unrank(at).astype(np.int64)
        image = mul_mod(basis[:, first:].reshape(-1, n), a, p).reshape(len(at), r, n)
        cells = (np.arange(len(at) * r) * n).reshape(len(at), r, 1) + layout.pivots(at)[:, None]
        outside = mul_mod(np.take(image, cells), basis, p) != image
        # a bool product with ones is any() over a short last axis, and faster
        inside[start : start + len(at)] = ~(outside.reshape(len(at), r * n) @ np.ones(r * n, bool))
    return indices[inside]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]
