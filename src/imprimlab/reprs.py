"""Representation-theoretic operations on matrix groups.

Irreducibility is decided from two linear systems, never by a loop over
vectors or subspaces.  The enveloping algebra A is the span of the
generators' products; the commutant E = End_G(V) is the kernel of the
intertwining system of the generators against themselves.  G is
irreducible iff E is a field and dim A * dim E = n^2: then A is all of
End_E(V), and conversely Schur's lemma, Wedderburn's theorem and the
density theorem give both.  E is a field iff it is commutative and its
Frobenius map x -> x^p is injective with a 1-dimensional fixed space (the
Berlekamp subalgebra argument).  The case dim E = 1 is Burnside's
certificate (dim A = n^2, as in Holt & Rees's irreducibility test, without
its random choices), and only below it is E computed.

Induced modules are built from a linear character of a subgroup via an
explicit coset table; the images are monomial matrices over the (possibly
different) target field, formed for whole stacks of ambient elements at
once.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InconsistentCharacter,
    LengthMismatch,
    ModulusMismatch,
    NotASubgroup,
    NotStabilized,
    ShapeMismatch,
    ValidationError,
    ZeroVector,
    check_cap,
    current_limits,
)
from .groups import MatrixGroup, first_occurrences
from .linalg import (
    Matrix,
    Subspace,
    _check_modulus,
    echelon_subspace,
    gaussian_binomial,
    invariant_indices,
    mul_mod,
    rref,
    subspace_layout,
)


def spin(g: MatrixGroup, v) -> Subspace:
    """Smallest g-invariant subspace containing the vector v; its spanning
    rows, sorted by leading column, are its RREF basis."""
    v = np.asarray(v, dtype=np.int64) % g.p
    if v.shape != (g.n,):
        raise ShapeMismatch(f"a vector of shape {v.shape} is not in GF({g.p})^{g.n}")
    if not v.any():
        raise ZeroVector("cannot spin the zero vector")
    rows = _invariant_span(v[None], g._generator_stack, g.p)
    return echelon_subspace(rows[np.argsort((rows != 0).argmax(axis=1))], g.p)


def _invariant_span(start: np.ndarray, gens: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the smallest subspace that contains the nonzero
    (1, width) row start and is mapped into itself by every matrix of the
    (m, n, n) stack gens; a row of width r * n is read as an (r, n) matrix
    and multiplied on the right.

    Each round multiplies the rows the last round added by every generator
    at once and keeps what the images add beyond the span, until they add
    nothing.  The rows are kept reduced (each has a pivot column where it
    has its leading 1 and every other row is 0), so an image's remainder
    modulo the span is the image minus its pivot-column entries times the
    rows, and the rows sorted by pivot are the span's RREF basis.
    """
    n, width = gens.shape[1], start.shape[1]
    rows, _, pivots = rref(start, p)
    pivots = np.array(pivots)
    fresh = rows
    while len(rows) < width:
        images = (fresh.reshape(-1, 1, width // n, n) @ gens % p).reshape(-1, width)
        remainder = (images - mul_mod(images[:, pivots], rows, p)) % p
        if not remainder.any():
            break
        fresh, rank, fresh_pivots = rref(remainder[remainder.any(axis=1)], p)
        fresh = fresh[:rank]
        rows = np.concatenate([(rows - mul_mod(rows[:, fresh_pivots], fresh, p)) % p, fresh])
        pivots = np.concatenate([pivots, fresh_pivots])
    return rows


def algebra_dimension(g: MatrixGroup) -> int:
    """Dimension of g's enveloping algebra: the span of all generator products.

    It is the span of the identity matrix, read as one row of GF(p)^(n^2),
    under right multiplication by the generators.
    """
    identity = np.eye(g.n, dtype=np.int64).reshape(1, -1)
    return len(_invariant_span(identity, g._generator_stack, g.p))


def is_irreducible(g: MatrixGroup) -> bool:
    """True iff no proper nonzero subspace is invariant under g.

    An enveloping algebra A of dimension n^2 certifies irreducibility.
    Below that, g is irreducible iff its commutant E, of dimension e, is a
    field and dim A * e = n^2.  A field's dimension divides n, since V is a
    vector space over it, so e <= n bounds the e^2 products that decide
    commutativity.  E is then a field iff the matrix F of its Frobenius map
    (row i: the coordinates of the p-th power of basis element i, formed
    by repeated squaring) is invertible and F - I has rank e - 1.
    """
    n, p = g.n, g.p
    dim = algebra_dimension(g)
    if dim == n * n:
        return True
    basis, columns = _intertwiners(g._generator_stack, g._generator_stack, p)
    e = len(basis)
    if dim * e != n * n or n % e:
        return False
    x = basis.reshape(e, n, n)
    products = mul_mod(x[:, None], x, p)
    if not np.array_equal(products, products.swapaxes(0, 1)):
        return False
    power = x
    for bit in bin(p)[3:]:  # the binary digits of p after the leading 1
        power = mul_mod(power, power, p)
        if bit == "1":
            power = mul_mod(power, x, p)
    frobenius = power.reshape(e, -1)[:, columns]
    return (rref(frobenius, p)[1] == e
            and rref(frobenius - np.eye(e, dtype=np.int64), p)[1] == e - 1)


def _matrix_stack(gens, n: int, p: int) -> np.ndarray:
    """Matrix generators over GF(p) as an (m, n, n) int64 stack; ModulusMismatch
    or ShapeMismatch for one over another field or not n x n."""
    gens = list(gens)
    for g in gens:
        if g.p != p:
            raise ModulusMismatch(f"a generator over GF({g.p}) is not over GF({p})")
        if g.a.shape != (n, n):
            raise ShapeMismatch(f"a {g.rows} x {g.cols} generator is not {n} x {n}")
    return np.array([g.a for g in gens], dtype=np.int64).reshape(len(gens), n, n)


def _intertwiners(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrices X with a_i @ X = X @ b_i for the matched (m, na, na) and
    (m, nb, nb) stacks, as (basis, columns): a kernel basis of the stacked
    row-major system, one row of length na * nb per free column of its
    RREF, and those columns.  Each row is 1 in its own column and 0 in the
    others, so a solution's coordinates are its entries in the columns."""
    na, nb = a.shape[1], b.shape[1]
    # row-major vec: vec(A X) = (A kron I) x, vec(X B) = (I kron B^T) x
    left = np.kron(a, np.eye(nb, dtype=np.int64))
    right = np.kron(np.eye(na, dtype=np.int64), b.transpose(0, 2, 1))
    reduced, rank, pivots = rref(((left - right) % p).reshape(-1, na * nb), p)
    free = np.ones(na * nb, dtype=bool)
    free[list(pivots)] = False
    columns = np.flatnonzero(free)
    basis = np.zeros((len(columns), na * nb), dtype=np.int64)
    basis[np.arange(len(columns)), columns] = 1
    basis[:, list(pivots)] = -reduced[:rank, columns].T % p
    return basis, columns


def hom_dimension(gens_a, gens_b, p: int) -> int:
    """Dimension of the space of matrices intertwining two matched actions.

    The generator lists describe the same abstract generators in two
    representations over GF(p); counts X with a_i @ X = X @ b_i for every
    i, via the kernel of the stacked row-major linear system.  Raises
    LengthMismatch unless the lists are nonempty and matched.
    """
    gens_a, gens_b = list(gens_a), list(gens_b)
    if len(gens_a) != len(gens_b) or not gens_a:
        raise LengthMismatch("generator lists must be nonempty and matched")
    a = _matrix_stack(gens_a, gens_a[0].rows, p)
    b = _matrix_stack(gens_b, gens_b[0].rows, p)
    return len(_intertwiners(a, b, p)[0])


class Character:
    """A multiplicative character of a matrix group into GF(q)^x.

    Values are assigned on the generators and extended along the Cayley
    graph; every (element, generator) edge is checked, so construction
    fails with InconsistentCharacter unless the extension is well defined.
    A modulus that is not a prime below 2^31 raises ValidationError.
    """

    def __init__(self, group: MatrixGroup, values, modulus: int):
        modulus = _check_modulus(modulus)
        values = [int(v) % modulus for v in values]
        if len(values) != len(group._generator_stack):
            raise LengthMismatch("one value per generator required")
        if any(v == 0 for v in values):
            raise ValidationError("character values must be nonzero units")
        self.group = group
        self.values = tuple(values)
        self.modulus = modulus
        self._table = self._extend()

    def _extend(self) -> np.ndarray:
        """The value of every element of the group, in element_array order.

        Values spread breadth-first from the identity along each generator's
        table of left multiplication (value(g a) = value(g) value(a)); then
        every edge of every table is checked.
        """
        group, q = self.group, self.modulus
        elements = group.element_array
        tables = [group.positions(a @ elements) for a in group._generator_stack.astype(np.int64)]
        table = np.zeros(group.order, dtype=np.int64)
        table[0] = 1
        known = np.zeros(group.order, dtype=bool)
        known[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while len(frontier):
            reached = []
            for images, v in zip(tables, self.values):
                dst = images[frontier]
                fresh = ~known[dst]
                table[dst[fresh]] = table[frontier[fresh]] * v % q
                known[dst[fresh]] = True
                reached.append(dst[fresh])
            frontier = np.concatenate(reached)
        for images, v in zip(tables, self.values):
            if not np.array_equal(table[images], table * v % q):
                raise InconsistentCharacter(
                    "generator values do not extend to the group"
                )
        return table

    def __call__(self, element: Matrix) -> int:
        group = self.group
        if element.p != group.p or element.a.shape != (group.n, group.n):
            raise ValidationError("element is not in the character's group")
        index = group.positions(element.a[None])[0]
        if index < 0:
            raise ValidationError("element is not in the character's group")
        return int(self._table[index])


class InducedRep:
    """A monomial representation induced from a linear subgroup character.

    The cosets H x are taken in the ambient group's enumeration order, each
    represented by its first element, so the identity represents H itself.
    Every ambient element u is recorded with its coset j and the index in
    H's element array of the h with u = h t_j, so the entry of image(x) in
    row i is the character's value at the h of t_i x.  image(x) is defined
    for every element of the ambient group.  The images of the generator and
    inverse stacks form a MatrixGroup.from_stacks, so no image is inverted;
    the image group is a homomorphic image of the source, so |source| bounds
    its order.
    """

    def __init__(self, source: MatrixGroup, subgroup: MatrixGroup, character: Character):
        if character.group is not subgroup:
            raise ValidationError("character must be defined on the subgroup")
        if subgroup.p != source.p or subgroup.n != source.n:
            raise NotASubgroup("subgroup lives in a different ambient group")
        # looked up among the listed elements: the coset table reads them anyway
        if (source.positions(subgroup.element_array) < 0).any():
            raise NotASubgroup("subgroup element outside the ambient group")
        self.source = source
        self.subgroup = subgroup
        self.character = character
        self.modulus = character.modulus
        self._reps, self._coset, self._inner = self._coset_table()
        self.degree = len(self._reps)
        images = self._images(source._generator_stack)
        self._check_homomorphism(images)
        self.group = MatrixGroup.from_stacks(images, self._images(source.inverse_stack),
                                             self.modulus, order_bound=lambda: source.order)

    def _coset_table(self):
        """(reps, coset, inner): the representatives as an (m, n, n) stack,
        and for every ambient element u its coset j and the index of the h
        in H with u = h t_j."""
        source = self.source
        sub = self.subgroup.element_array.astype(np.int64)
        coset = np.full(source.order, -1, dtype=np.intp)
        inner = np.empty(source.order, dtype=np.intp)
        reps = []
        while (coset < 0).any():
            x = int(np.argmax(coset < 0))  # the first element in no coset yet
            members = source.positions(sub @ source.element_array[x])
            coset[members] = len(reps)
            inner[members] = np.arange(len(sub))
            reps.append(x)
        return source.element_array[reps].astype(np.int64), coset, inner

    def image(self, x: Matrix) -> Matrix:
        """Monomial image of any ambient element over the target field."""
        source = self.source
        if x.p != source.p or x.a.shape != (source.n, source.n):
            raise ValidationError("element is not in the ambient group")
        return Matrix(self._images(x.a[None])[0], self.modulus)

    def _images(self, stack: np.ndarray) -> np.ndarray:
        """The monomial images of an (s, n, n) stack of ambient elements,
        as an (s, degree, degree) int64 stack over the target field."""
        u = self.source.positions(self._reps @ stack[:, None].astype(np.int64))
        if (u < 0).any():
            raise ValidationError("element is not in the ambient group")
        u = u.reshape(len(stack), self.degree)
        out = np.zeros((len(stack), self.degree, self.degree), dtype=np.int64)
        element = np.arange(len(stack))[:, None]
        out[element, np.arange(self.degree), self._coset[u]] = self.character._table[self._inner[u]]
        return out

    def _check_homomorphism(self, images: np.ndarray):
        """image(a) image(b) = image(a b) for every pair of generators, all
        pairs in one batched product."""
        gens, p = self.source._generator_stack.astype(np.int64), self.source.p
        expected = self._images((gens[:, None] @ gens % p).reshape(-1, *gens.shape[1:]))
        found = mul_mod(images[:, None], images, self.modulus).reshape(expected.shape)
        if not np.array_equal(found, expected):
            raise InconsistentCharacter("induced map is not a homomorphism")


def induced_module(source: MatrixGroup, subgroup: MatrixGroup,
                   character: Character) -> InducedRep:
    return InducedRep(source, subgroup, character)


def restrict_matrix(g: Matrix, w: Subspace) -> Matrix:
    """The action of one stabilizing matrix over w's space on w, in w's echelon coordinates."""
    images = w.basis @ _matrix_stack([g], w.ambient, w.p)[0] % w.p
    if not w.contains_rows(images):
        raise NotStabilized("the matrix moves the subspace")
    # RREF coordinates of a member are its pivot-column entries
    return Matrix(images[:, list(w.pivots)], w.p)


def restrict_to_block(stab_gens, w: Subspace) -> MatrixGroup:
    """Action of stabilizing matrices on w, as a rank(w)-degree group.

    stab_gens is an (s, n, n) stack or a list of Matrix over w's space.  The
    restrictions are the pivot-column coordinates of the images of w's basis,
    taken for all matrices at once and kept once each, in first-occurrence order.
    """
    if not isinstance(stab_gens, np.ndarray):
        stab_gens = _matrix_stack(stab_gens, w.ambient, w.p)
    elif stab_gens.shape[1:] != (w.ambient, w.ambient):
        raise ShapeMismatch(f"a stack of shape {stab_gens.shape} does not act on GF(p)^{w.ambient}")
    images = mul_mod(w.basis, stab_gens, w.p)
    if not w.contains_rows(images):
        raise NotStabilized("a matrix moves the subspace")
    coords = images[:, :, list(w.pivots)]
    return MatrixGroup([Matrix(c, w.p) for c in coords[first_occurrences(coords, w.p)]])


def invariant_subspaces(gens, n: int, p: int, dims=None) -> list[Subspace]:
    """All proper nonzero invariant subspaces of n x n Matrix generators
    over GF(p), by exhaustive scan.

    dims restricts the scan to some of the dimensions 1..n-1 (all by default).
    Each dimension is scanned by linalg.invariant_indices, one generator at
    a time: the first solves for the subspaces it keeps over the whole
    layout, each later one tests only the subspaces the earlier ones left
    invariant (among), and only the survivors of all are unranked.  A
    dimension with more subspaces than the subspace cap raises
    PhaseCapExceeded ("subspace scan") before anything is allocated.  A
    modulus that is not a prime below 2^31 raises ValidationError, with or
    without generators.
    """
    gens = _matrix_stack(gens, n, _check_modulus(p))
    dims = range(1, n) if dims is None else list(dims)
    if not all(0 < d < n for d in dims):
        raise ValidationError(f"dims {list(dims)} are not all in 1..{n - 1}")
    found = []
    for d in dims:
        check_cap("subspace scan", gaussian_binomial(n, d, p), f"subspaces of dimension {d}",
                  current_limits().subspaces)
        layout = subspace_layout(n, d, p)
        kept = np.arange(layout.offsets[-1]) if not len(gens) else None
        for a in gens:
            kept = invariant_indices(layout, a, kept)
        found.extend(echelon_subspace(rows, p) for rows in layout.unrank(kept))
    return found
