"""Representation-theoretic operations on matrix groups.

Irreducibility is first decided by a certificate (Burnside's theorem, as
in Holt & Rees's irreducibility test, without its random choices): if the
products of the generators span all of M_n(GF(p)), every invariant
subspace is invariant under every matrix, so the group is irreducible.
The certificate multiplies only generators, never the group's elements.
When the span is smaller, the group is reducible or irreducible but not
absolutely irreducible, and irreducibility is decided by spinning: a
group is irreducible iff every nonzero vector generates the full space,
and it suffices to spin one representative per 1-dimensional subspace.
That spin counts against the subspace cap (errors.limits, phase
"irreducibility spin").  Induced modules are built from
a linear character of a subgroup via an explicit coset table; the images
are monomial matrices over the (possibly different) target field.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    InconsistentCharacter,
    LengthMismatch,
    NotASubgroup,
    NotStabilized,
    ValidationError,
    ZeroVector,
    check_cap,
    current_limits,
)
from .groups import MatrixGroup, byte_keys
from .linalg import (
    Matrix,
    Subspace,
    echelon_subspace,
    gaussian_binomial,
    invariance_table,
    mul_mod,
    rref,
    subspace_array,
)


def spin(g: MatrixGroup, v) -> Subspace:
    """Smallest g-invariant subspace containing the vector v."""
    v = np.asarray(v, dtype=np.int64) % g.p
    if not v.any():
        raise ZeroVector("cannot spin the zero vector")
    rows = _invariant_span(v[None], g._generator_stack, g.p)
    return Subspace.span(rows, g.n, g.p)


def _invariant_span(start: np.ndarray, gens: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the smallest subspace that contains the nonzero
    (1, width) row start and is mapped into itself by every matrix of the
    (m, n, n) stack gens; a row of width r * n is read as an (r, n) matrix
    and multiplied on the right.

    Each round multiplies the rows the last round added by every generator
    at once and keeps what the images add beyond the span, until they add
    nothing.  The rows are kept reduced (each has a pivot column where it
    is 1 and every other row is 0), so an image's remainder modulo the span
    is the image minus its pivot-column entries times the rows.
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

    An enveloping algebra of dimension n^2 certifies irreducibility.  Below
    that, one vector per projective point is spun, which raises
    PhaseCapExceeded ("irreducibility spin") when the points outnumber the
    subspace cap.
    """
    if algebra_dimension(g) == g.n * g.n:
        return True
    points = gaussian_binomial(g.n, 1, g.p)
    check_cap("irreducibility spin", points, "projective points", current_limits().subspaces)
    for v in subspace_array(g.n, 1, g.p)[:, 0]:
        if spin(g, v).rank < g.n:
            return False
    return True


def hom_dimension(gens_a, gens_b, p: int) -> int:
    """Dimension of the space of matrices intertwining two matched actions.

    The generator lists describe the same abstract generators in two
    representations; counts X with a_i @ X = X @ b_i for every i, via the
    kernel of the stacked row-major linear system.
    """
    gens_a, gens_b = list(gens_a), list(gens_b)
    if len(gens_a) != len(gens_b):
        raise LengthMismatch("generator lists must be matched")
    na = gens_a[0].rows
    nb = gens_b[0].rows
    blocks = []
    for a, b in zip(gens_a, gens_b):
        # row-major vec: vec(A X) = (A kron I) x, vec(X B) = (I kron B^T) x
        left = np.kron(a.a, np.eye(nb, dtype=np.int64))
        right = np.kron(np.eye(na, dtype=np.int64), b.a.T)
        blocks.append((left - right) % p)
    stacked = np.concatenate(blocks)
    rank = rref(stacked, p)[1]
    return na * nb - rank


class Character:
    """A multiplicative character of a matrix group into GF(q)^x.

    Values are assigned on the generators and extended along the Cayley
    graph; every (element, generator) edge is checked, so construction
    fails with InconsistentCharacter unless the extension is well defined.
    """

    def __init__(self, group: MatrixGroup, values, modulus: int):
        values = [int(v) % modulus for v in values]
        if len(values) != len(group.gens):
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
        tables = [group.positions(g.a @ elements) for g in group.gens]
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
    for every element of the ambient group, and the generator images are
    packaged as a MatrixGroup over the target field.
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
        images = [self.image(g) for g in source.gens]
        self.group = MatrixGroup(images)
        self._check_homomorphism()

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
        u = source.positions(self._reps @ x.a)
        if (u < 0).any():
            raise ValidationError("element is not in the ambient group")
        out = np.zeros((self.degree, self.degree), dtype=np.int64)
        out[np.arange(self.degree), self._coset[u]] = self.character._table[self._inner[u]]
        return Matrix(out, self.modulus)

    def _check_homomorphism(self):
        for a, b in itertools.product(self.source.gens, repeat=2):
            if self.image(a) * self.image(b) != self.image(a * b):
                raise InconsistentCharacter("induced map is not a homomorphism")


def induced_module(source: MatrixGroup, subgroup: MatrixGroup,
                   character: Character) -> InducedRep:
    return InducedRep(source, subgroup, character)


def restrict_matrix(g: Matrix, w: Subspace) -> Matrix:
    """The action of one stabilizing matrix on w, in w's echelon coordinates."""
    images = (w.basis @ g.a) % w.p
    if not w.contains_rows(images):
        raise NotStabilized("the matrix moves the subspace")
    # RREF coordinates of a member are its pivot-column entries
    return Matrix(images[:, list(w.pivots)], w.p)


def restrict_to_block(stab_gens, w: Subspace) -> MatrixGroup:
    """Action of stabilizing matrices on w, as a rank(w)-degree group.

    stab_gens is an (s, n, n) stack or a list of Matrix.  The restrictions
    are the pivot-column coordinates of the images of w's basis, taken for
    all matrices at once and kept once each, in first-occurrence order.
    """
    if not isinstance(stab_gens, np.ndarray):
        stab_gens = np.array([g.a for g in stab_gens]).reshape(-1, w.ambient, w.ambient)
    images = mul_mod(w.basis, stab_gens, w.p)
    if not w.contains_rows(images):
        raise NotStabilized("a matrix moves the subspace")
    coords = images[:, :, list(w.pivots)]
    _, first = np.unique(byte_keys(coords), return_index=True)
    return MatrixGroup([Matrix(c, w.p) for c in coords[np.sort(first)]])


def invariant_subspaces(gens, n: int, p: int, dims=None) -> list[Subspace]:
    """All proper nonzero invariant subspaces, by exhaustive scan.

    dims restricts the scan to the given dimensions; default is 1..n-1.
    Each dimension is scanned as one subspace_array stack by
    linalg.invariance_table, one generator at a time: the first tests every
    subspace, and each later one only the subspaces the earlier ones left
    invariant.  A dimension with more subspaces than the subspace cap raises
    PhaseCapExceeded ("subspace scan") before its stack is allocated.
    """
    gens = list(gens)
    if dims is None:
        dims = range(1, n)
    found = []
    for d in dims:
        check_cap("subspace scan", gaussian_binomial(n, d, p), f"subspaces of dimension {d}",
                  current_limits().subspaces)
        subs = subspace_array(n, d, p)
        rows = np.arange(len(subs))
        for g in gens:
            rows = rows[invariance_table(subs, [g], p, rows)[0]]
        found.extend(echelon_subspace(subs[i], p) for i in rows)
    return found
