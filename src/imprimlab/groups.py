"""Finite matrix groups and permutation groups given by generators.

Two descriptions of a group serve different questions.  The stabilizer
chain (StabilizerChain: deterministic Schreier-Sims with the standard basis
vectors as base, or the points for a permutation group) answers the order,
as the product of its orbit lengths, and membership and containment, by
sifting; it never lists the group.  The closure (mulclose) lists every
element.  It is built where elements are read (the GL(2, q) double-coset
scan of the maximal-solvable report, sorted_keys, positions, characters,
induced modules, setwise stabilizers of permutation groups) and for groups
inside an ambient GL_n(p) or S_k of at most LIST_AMBIENT elements, which
it lists at least as fast as their chain is built.  Once a group's elements
are listed, its order is their count and membership a lookup among them,
so no group pays for both descriptions unless both are read.  Both count
against the element cap that errors.limits sets for the run: the closure
its elements (phase "group closure"), the chain its orbit points beyond
the base points, which never exceed |G| - 1 (phase "stabilizer chain").
Solvability follows the derived series, each derived subgroup the normal
closure of its group's generator commutators, with membership and orders
read as above; only generators are multiplied as Matrix objects.  A
group computes its derived series once, the first time it is asked for
the series or its solvability.

The closure works on arrays.  A group's elements are one (|G|, n, n) stack
of matrices (or (|G|, k) stack of permutation images) in the smallest
integer dtype that holds every entry, in discovery order: identity first,
then level by level, each level's products frontier-major and
generator-minor.  Each step multiplies a chunk of the frontier by every
generator at once, CLOSE_PRODUCTS products in all (1024 frontier elements
for eight generators).  The chunk bounds the int64 product block
(CLOSE_PRODUCTS x n^2 entries, 2.4 MB at degree 6), and so the closure's
peak memory, whatever the number of generators; larger chunks were no
faster.  Every product is identified by its byte key: its entries in the
stored dtype viewed as one np.void scalar.  Byte keys need no packing, so
no modulus or degree is too wide for them.  A chunk's new elements are its
first occurrences (np.unique) that a searchsorted lookup does not find
among the sorted keys seen so far; the cap is checked before they are
appended.  Once listed, the elements' keys are sorted once, and lookups
among them are searchsorted.  No Matrix or Permutation object is built per
element.  Orbits of points are min-label propagation over permutation
tables (orbit_labels), the routine the subspace scan uses as well.

Permutations are stored 0-based and compose left to right:
(s * t)(i) = t(s(i)), matching the row-vector right action used elsewhere.
The chain of a permutation group acts with the permutation matrices, whose
row i is the basis vector of the image of i.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import (
    DEFAULT_CAP_PARTITIONS,
    OddDegree,
    ValidationError,
    check_cap,
    current_limits,
)
from .linalg import Matrix, entry_dtype, is_prime

# Products formed in one step of a closure (a chunk of the frontier times
# every generator), and the most images, Schreier generators or sifted
# matrices a stabilizer chain handles in one step.
CLOSE_PRODUCTS = 8192
# A group inside GL_n(p) or S_k with at most this many elements is listed
# for its order and membership as well: on a 2-vCPU x86 host with Python
# 3.11, closing S_5 took 0.7 ms against 2.6 ms for its stabilizer chain and
# S_7 6.1 ms against 6.1 ms, but GL_2(11) (13 200 elements) 22 ms against
# 2.3 ms.
LIST_AMBIENT = 5040


def byte_keys(stack: np.ndarray) -> np.ndarray:
    """One np.void key per entry of a stack: the entry's raw bytes."""
    flat = np.ascontiguousarray(stack).reshape(len(stack), math.prod(stack.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()


def first_new(keys: np.ndarray, seen: np.ndarray):
    """The keys absent from the sorted array seen, once each.

    Returns (indices, seen'): the index in keys of the first occurrence of
    every such key, in increasing order, and seen with those keys merged in.
    """
    uniq, first = np.unique(keys, return_index=True)
    pos = np.searchsorted(seen, uniq)
    found = seen[np.minimum(pos, len(seen) - 1)] == uniq
    return np.sort(first[~found]), np.insert(seen, pos[~found], uniq[~found])


def orbit_labels(tables: np.ndarray) -> np.ndarray:
    """The smallest point of every point's orbit under permutation tables.

    tables is an (m, k) stack: tables[g, x] is the image of the point x
    under the g-th permutation.
    """
    labels = np.arange(tables.shape[1], dtype=tables.dtype)
    while True:
        new = labels
        for table in tables:
            new = np.minimum(new, new[table])
        new = new[new]  # every label lies in its point's orbit: jump ahead
        if np.array_equal(new, labels):
            return labels
        labels = new


def mulclose(gens: np.ndarray, p: int | None = None) -> np.ndarray:
    """Breadth-first closure of a generator stack, identity first.

    gens is an (m, n, n) stack of matrices over GF(p), or, with p None, an
    (m, k) stack of permutation images.  The product g * a is g @ a mod p
    for matrices and a[g] for permutations ((g * a)(i) = a(g(i))).  Returns
    every element as one stack in the dtype of gens, in discovery order.
    Raises PhaseCapExceeded ("group closure") as soon as the closure
    outgrows the element cap.
    """
    if p is None:
        identity = np.arange(gens.shape[1], dtype=gens.dtype)

        def products(frontier):
            return frontier[:, gens]
    else:
        identity = np.eye(gens.shape[1], dtype=gens.dtype)
        wide = gens.astype(np.int64)

        def products(frontier):
            return (wide @ frontier[:, None].astype(np.int64) % p).astype(gens.dtype)

    step = max(1, CLOSE_PRODUCTS // len(gens))
    frontier = identity[None]
    levels = [frontier]
    seen = byte_keys(frontier)
    while len(frontier):
        found = []
        for start in range(0, len(frontier), step):
            block = products(frontier[start : start + step])
            block = block.reshape(-1, *identity.shape)
            fresh, seen = first_new(byte_keys(block), seen)
            check_cap("group closure", len(seen), "elements", current_limits().elements)
            found.append(block[fresh])
        frontier = np.concatenate(found)
        levels.append(frontier)
    return np.concatenate(levels)


class StabilizerChain:
    """A base and strong generating set, found by deterministic Schreier-Sims.

    gens is an (m, n, n) stack of invertible matrices over GF(p) acting on
    row vectors from the right.  The base is e_0 ... e_(n-1): a matrix that
    fixes every standard basis vector is the identity, so the base never
    needs extending.  Level l holds generators fixing e_0 ... e_(l-1) and
    the orbit of e_l under them.  Each orbit point x = e_l u_x is stored as
    its transversal element u_x and u_x^-1, in the smallest dtype that
    holds p - 1, and is found in a dict by its byte key: the bytes of its
    entries in that dtype, as the closure keys elements.

    Sims' algorithm (Sims 1970; Seress, Permutation Group Algorithms,
    ch. 4) works up from the last level.  Every Schreier generator
    u_x s u_(x s)^-1 of a level is sifted through the levels below it; the
    first that does not sift to the identity joins the generators of every
    level from the next one down to the level it stopped at, whose orbits
    are then extended (never recomputed), and the work resumes at that
    level.  Transversals never change once set, so a Schreier generator
    that has passed keeps passing and is not sifted again.  When every one
    has passed, the order is the product of the orbit lengths, and a matrix
    lies in the group iff it sifts through every level.

    Orbit points beyond the base points count against the element cap,
    read from errors.limits when they are entered.  Their number, the sum
    of (|orbit| - 1) over the levels, is at most |G| - 1, so the chain of
    every group that the closure can list fits; PhaseCapExceeded
    ("stabilizer chain") is raised otherwise.  After two breadth-first
    steps in a row from one point to one point, an orbit is extended along
    the powers of the generator that took the last step, in blocks that
    double, so a long cycle costs a logarithmic number of array steps.
    """

    def __init__(self, gens: np.ndarray, p: int):
        gens = np.asarray(gens, dtype=np.int64) % p
        n = gens.shape[1]
        self.p, self.n = p, n
        self.points = 0
        self._dtype = entry_dtype(p)
        eye = np.eye(n, dtype=np.int64)
        self._gens = [eye[None][:0]] * n
        self._gen_inv = self._gens[:]
        self._trans = [eye[None].astype(self._dtype)] * n
        self._trans_inv = self._trans[:]
        self._index = [{key: 0} for key in self._key(eye).tolist()]
        self._passed = [np.zeros((0, 1), dtype=bool)] * n
        moved = (gens != eye).any(axis=2)
        keep = moved.any(axis=1)
        if keep.any():
            gens, moved = gens[keep], moved[keep]
            inverses = np.stack([Matrix(g, p).inv().a for g in gens])
            depth = moved.argmax(axis=1)
            for level in range(n):
                fixing = depth >= level
                if fixing.any():
                    self._add_generators(level, gens[fixing], inverses[fixing])
        self._complete()

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self._trans)

    def sifts(self, stack: np.ndarray) -> np.ndarray:
        """Which matrices of an (s, n, n) stack lie in the group."""
        stack = np.asarray(stack, dtype=np.int64).reshape(-1, self.n, self.n)
        return np.concatenate(
            [self._sift(stack[i : i + CLOSE_PRODUCTS] % self.p, 0)[0] == self.n
             for i in range(0, len(stack), CLOSE_PRODUCTS)] or [np.zeros(0, dtype=bool)])

    def _key(self, vectors: np.ndarray) -> np.ndarray:
        return byte_keys(vectors.astype(self._dtype))

    def _lookup(self, level: int, vectors: np.ndarray) -> np.ndarray:
        """Orbit index of every vector at the level, -1 if absent."""
        index = self._index[level]
        return np.array([index.get(k, -1) for k in self._key(vectors).tolist()],
                        dtype=np.intp)

    def _enter(self, level: int, keys) -> None:
        """Index new orbit points of a level, counting them against the cap."""
        self.points += len(keys)
        check_cap("stabilizer chain", self.points, "orbit points", current_limits().elements)
        index = self._index[level]
        index.update(zip(keys, range(len(index), len(index) + len(keys))))

    def _add_generators(self, level, gens, inverses):
        """Give a level more generators and extend its orbit under them."""
        fresh = len(self._gens[level])
        self._gens[level] = np.concatenate([self._gens[level], gens])
        self._gen_inv[level] = np.concatenate([self._gen_inv[level], inverses])
        passed = self._passed[level]
        passed = np.concatenate([passed, np.zeros((len(gens), passed.shape[1]), dtype=bool)])
        found = self._grow(level, fresh)
        if found:
            for stored, new in ((self._trans, found[0::2]), (self._trans_inv, found[1::2])):
                stored[level] = np.concatenate([stored[level], *new])
            width = len(self._index[level]) - passed.shape[1]
            passed = np.concatenate([passed, np.zeros((len(passed), width), dtype=bool)], axis=1)
        self._passed[level] = passed

    def _grow(self, level, fresh) -> list:
        """Breadth-first extension of a level's orbit.

        Every orbit point is mapped by the generators from index fresh on,
        and every point found is then mapped by all of them, until no new
        point appears; each step maps the frontier in chunks of at most
        CLOSE_PRODUCTS images.  Returns the transversal elements of the new
        points and their inverses, in the stored dtype, alternating.
        """
        p, gens, gen_inv = self.p, self._gens[level], self._gen_inv[level]
        index = self._index[level]
        u, u_inv = self._trans[level], self._trans_inv[level]
        found, single = [], False
        while len(u):
            width = len(gens) - fresh
            step = max(1, CLOSE_PRODUCTS // width)
            reached = []
            for start in range(0, len(u), step):
                chunk, chunk_inv = u[start : start + step], u_inv[start : start + step]
                images = chunk[:, level] @ gens[fresh:] % p  # (generators, chunk, n)
                new = {}
                for i, key in enumerate(self._key(images.reshape(-1, self.n)).tolist()):
                    if key not in index and key not in new:
                        new[key] = i
                if new:
                    self._enter(level, list(new))
                    s, x = np.divmod(np.fromiter(new.values(), np.intp, len(new)), len(chunk))
                    s += fresh
                    reached += [chunk[x] @ gens[s] % p, gen_inv[s] @ chunk_inv[x] % p]
            # a second step from one point to one point: follow the cycle
            single, repeat = len(u) == 1 and len(reached) == 2 and len(reached[0]) == 1, single
            if single and repeat:
                reached += self._cycle(level, *reached, gens[s[0]], gen_inv[s[0]])
            found += [a.astype(self._dtype) for a in reached]
            if single and repeat and len(gens) == 1:  # the cycle is the whole orbit
                break
            u = np.concatenate([np.empty((0, self.n, self.n), np.int64), *reached[0::2]])
            u_inv = np.concatenate([u[:0], *reached[1::2]])
            fresh = 0
        return found

    def _cycle(self, level, u, u_inv, g, g_inv) -> list:
        """The points x g, x g^2, ... of a level's orbit before the first
        known one, for the point x of the single transversal element u.

        The powers are taken in blocks that double: the block after the
        first m powers is those m powers times g^m.  A block is cut short
        where it would take the points past the cap, which they would
        exceed anyway unless a known point came first.  Returns the new
        transversal elements and their inverses, alternating, per block.
        """
        p, index = self.p, self._index[level]
        block, block_inv = u @ g % p, g_inv @ u_inv % p
        chain, chain_inv, step, step_inv = block, block_inv, g, g_inv
        found = []
        while True:
            keys = self._key(block[:, level]).tolist()
            cut = next((i for i, key in enumerate(keys) if key in index), len(keys))
            if cut:
                self._enter(level, keys[:cut])
                found += [block[:cut], block_inv[:cut]]
            if cut < len(keys):
                return found
            if block is not chain:
                chain = np.concatenate([chain, block])
                chain_inv = np.concatenate([chain_inv, block_inv])
            size = min(len(chain), current_limits().elements - self.points + 1)
            block, block_inv = chain[:size] @ step % p, step_inv @ chain_inv[:size] % p
            step, step_inv = step @ step % p, step_inv @ step_inv % p

    def _sift(self, stack: np.ndarray, start: int):
        """Strip a stack of int64 matrices, in place, through the levels from
        start on.

        Returns (depth, residue): the level at which each matrix's image of
        the base point left the orbit (n if it never did), and what was left
        of it there.
        """
        residue = stack
        depth = np.full(len(stack), self.n)
        alive = np.arange(len(stack))
        for level in range(start, self.n):
            x = self._lookup(level, residue[alive, level])
            inside = x >= 0
            depth[alive[~inside]] = level
            alive, x = alive[inside], x[inside]
            if not len(alive):
                break
            residue[alive] = residue[alive] @ self._trans_inv[level][x] % self.p
        return depth, residue

    def _complete(self):
        """Run Sims' algorithm until every Schreier generator has passed.

        Each pass takes the untested Schreier generators of one level, at
        most CLOSE_PRODUCTS of them.  The last level needs none: its
        Schreier generators fix every base point, so they are the identity.
        """
        p, n = self.p, self.n
        eye = np.eye(n, dtype=np.int64)
        level = n - 2
        while level >= 0:
            s, x = np.nonzero(~self._passed[level])
            if not len(s):
                level -= 1
                continue
            s, x = s[:CLOSE_PRODUCTS], x[:CLOSE_PRODUCTS]
            us = self._trans[level][x] @ self._gens[level][s] % p
            y = self._lookup(level, us[:, level])
            schreier = us @ self._trans_inv[level][y] % p
            moving = np.flatnonzero((schreier != eye).any(axis=(1, 2)))
            depth, residue = self._sift(schreier[moving], level + 1)
            passed = np.ones(len(s), dtype=bool)
            passed[moving] = depth == n
            self._passed[level][s[passed], x[passed]] = True
            if passed.all():
                continue
            bad = int((depth == n).argmin())
            deeper, h = int(depth[bad]), residue[bad]
            h_inv = Matrix(h, p).inv().a
            for below in range(level + 1, deeper + 1):
                self._add_generators(below, h[None], h_inv[None])
            level = min(deeper, n - 2)


class _ElementArray:
    """A group's elements, listed by the closure or described by a chain.

    Subclasses provide _generator_stack (built once), _modulus (p, or None
    for permutations), _ambient_order (of GL_n(p) or S_k), chain and
    _matrices, which turns a stack of group-shaped arrays into the matrices
    the chain acts with.  The order and membership read the listed elements
    when element_array has been built or the ambient group has at most
    LIST_AMBIENT elements, and the stabilizer chain otherwise, so no group
    pays for both unless both are read.
    """

    @cached_property
    def element_array(self) -> np.ndarray:
        """Every element, in discovery order, as one stack."""
        return mulclose(self._generator_stack, self._modulus)

    @property
    def _listed(self) -> bool:
        return "element_array" in self.__dict__ or self._ambient_order <= LIST_AMBIENT

    @cached_property
    def _key_index(self):
        keys = byte_keys(self.element_array)
        order = np.argsort(keys)
        return keys[order], order

    @property
    def sorted_keys(self) -> np.ndarray:
        """The byte keys of the elements, sorted: one per element."""
        return self._key_index[0]

    @property
    def order(self) -> int:
        return len(self.element_array) if self._listed else self.chain.order

    def positions(self, stack) -> np.ndarray:
        """Index in element_array of every entry of a stack, -1 if absent.

        Leading axes are flattened, as the chain's sift flattens them: an
        (s, t, n, n) stack gives s * t positions.
        """
        stack = np.asarray(stack).reshape(-1, *self.element_array.shape[1:])
        if self._modulus is not None:
            stack = stack % self._modulus
        keys = byte_keys(stack.astype(self.element_array.dtype))
        sorted_keys, order = self._key_index
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
        return np.where(sorted_keys[pos] == keys, order[pos], -1)

    def member_mask(self, stack) -> np.ndarray:
        """Which entries of a stack of group-shaped arrays lie in the group,
        as one flat mask: leading axes are flattened on either route."""
        if self._listed:
            return self.positions(stack) >= 0
        return self.chain.sifts(self._matrices(stack))


class MatrixGroup(_ElementArray):
    """A subgroup of GL_n(p) given by invertible generators."""

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise ValidationError("a matrix group needs at least one generator")
        p, n = gens[0].p, gens[0].rows
        for g in gens:
            if g.p != p or g.rows != n or g.cols != n:
                raise ValidationError("generators must share modulus and degree")
            if not g.is_invertible():
                raise ValidationError("generators must be invertible")
        self.gens = tuple(gens)
        self.p = p
        self.n = n

    @property
    def identity(self) -> Matrix:
        return Matrix.identity(self.n, self.p)

    @property
    def _modulus(self):
        return self.p

    @cached_property
    def _generator_stack(self) -> np.ndarray:
        """The generators as one (m, n, n) stack, in the dtype of p - 1."""
        return np.stack([g.a for g in self.gens]).astype(entry_dtype(self.p))

    @property
    def _ambient_order(self) -> int:
        return math.prod(self.p**self.n - self.p**i for i in range(self.n))

    @cached_property
    def inverse_stack(self) -> np.ndarray:
        """The generators' inverses, as one (m, n, n) int64 stack."""
        return np.stack([g.inv().a for g in self.gens])

    @cached_property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain of the generators."""
        return StabilizerChain(self._generator_stack, self.p)

    def _matrices(self, stack) -> np.ndarray:
        return np.asarray(stack, dtype=np.int64) % self.p

    def contains(self, m: Matrix) -> bool:
        if m.p != self.p or m.rows != self.n or m.cols != self.n:
            raise ValidationError("element has the wrong modulus or degree")
        return bool(self.member_mask(m.a[None])[0])

    def is_subgroup_of(self, other: "MatrixGroup") -> bool:
        """True iff every generator of self lies in other's element set."""
        if self.p != other.p or self.n != other.n:
            return False
        return bool(other.member_mask(self._generator_stack).all())

    def derived_subgroup(self) -> "MatrixGroup":
        """[G, G] as the normal closure of the generators' commutators.

        The commutators x^-1 y^-1 x y of pairs of generators generate a
        subgroup N.  Conjugates of N's generators by G's generators that
        fall outside N join its generators until none do; N is then
        normal, G/N is abelian because the generators commute mod N, and
        N holds no element outside [G, G].
        """
        pairs = [(g, g.inv()) for g in self.gens]
        gens = [
            x_inv * y_inv * x * y
            for (x, x_inv), (y, y_inv) in itertools.combinations(pairs, 2)
        ]
        while True:
            gens = _dedupe(g for g in gens if not g.is_identity())
            subgroup = MatrixGroup(gens or [self.identity])
            conjugates = [x_inv * g * x for g in subgroup.gens for x, x_inv in pairs]
            outside = ~subgroup.member_mask(np.stack([c.a for c in conjugates]))
            if not outside.any():
                return subgroup
            gens += itertools.compress(conjugates, outside)

    @cached_property
    def _derived_series_orders(self) -> tuple[int, ...]:
        orders = [self.order]
        current = self
        while True:
            nxt = current.derived_subgroup()
            if nxt.order == current.order:
                break
            orders.append(nxt.order)
            current = nxt
            if current.order == 1:
                break
        return tuple(orders)

    def derived_series_orders(self) -> list[int]:
        """Orders along the derived series, computed until stabilization.

        The series is computed once per group; each call returns a new list.
        """
        return list(self._derived_series_orders)

    def is_solvable(self) -> bool:
        return self.derived_series_orders()[-1] == 1

    def __repr__(self):
        return f"MatrixGroup(degree={self.n}, p={self.p}, gens={len(self.gens)})"


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if p == 2:
        return 1
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValidationError(f"no primitive root found mod {p}")


def general_linear_group(n: int, p: int) -> MatrixGroup:
    """GL_n(p) from a diagonal unit, a coordinate cycle, and a transvection."""
    zeta = primitive_root(p)
    diag = np.eye(n, dtype=np.int64)
    diag[0, 0] = zeta
    gens = [Matrix(diag, p)]
    if n > 1:
        cycle = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            cycle[i, (i + 1) % n] = 1
        trans = np.eye(n, dtype=np.int64)
        trans[0, 1] = 1
        gens += [Matrix(cycle, p), Matrix(trans, p)]
    return MatrixGroup(gens)


class Permutation:
    """A permutation of {0..k-1}; composition is left to right."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"{images} is not a permutation of 0..{len(images)-1}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_one_based(cls, images) -> "Permutation":
        return cls([i - 1 for i in images])

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def key(self):
        return self.images

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValidationError("degrees differ")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inv(self) -> "Permutation":
        out = [0] * self.degree
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    def relabel(self, sigma: "Permutation") -> "Permutation":
        """Conjugate by a point relabeling: new(sigma(i)) = sigma(self(i))."""
        out = [0] * self.degree
        for i in range(self.degree):
            out[sigma.images[i]] = sigma.images[self.images[i]]
        return Permutation(out)

    def one_based(self) -> list[int]:
        return [i + 1 for i in self.images]

    def __hash__(self):
        return hash(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"


class PermGroup(_ElementArray):
    """A permutation group on {0..k-1} given by generators."""

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise ValidationError("a permutation group needs at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValidationError("generators must share degree")
        self.gens = tuple(gens)
        self.degree = degree

    _modulus = None

    @cached_property
    def _generator_stack(self) -> np.ndarray:
        """The generators' images as one (m, k) stack."""
        return np.array([g.images for g in self.gens], dtype=entry_dtype(self.degree))

    @property
    def _ambient_order(self) -> int:
        return math.factorial(self.degree)

    @cached_property
    def chain(self) -> StabilizerChain:
        """The chain of the permutation matrices, over GF(2) since their
        entries are 0 and 1."""
        return StabilizerChain(self._matrices(self._generator_stack), 2)

    def _matrices(self, stack) -> np.ndarray:
        """Permutation matrices: row i is the basis vector of i's image."""
        return np.eye(self.degree, dtype=np.int64)[np.asarray(stack)]

    def contains(self, perm: Permutation) -> bool:
        return perm.degree == self.degree and bool(self.member_mask([perm.images])[0])

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            return False
        return bool(other.member_mask(self._generator_stack).all())

    def is_transitive(self) -> bool:
        return not orbit_labels(self._generator_stack).any()

    def orbit_representatives(self) -> list[int]:
        """The smallest point of every orbit, in increasing order."""
        labels = orbit_labels(self._generator_stack)
        return np.flatnonzero(labels == np.arange(self.degree)).tolist()

    def setwise_stabilizer(self, block) -> np.ndarray:
        """The elements mapping the block to itself as a set, as one (s, k)
        stack in discovery order."""
        points = np.array(sorted(set(block)), dtype=np.intp)
        images = np.sort(self.element_array[:, points], axis=1)
        return self.element_array[(images == points).all(axis=1)]

    def block_action(self, partition: "BlockSystem") -> "PermGroup":
        """Induced action of the generators on the sorted blocks."""
        blocks = partition.blocks
        index = {b: i for i, b in enumerate(blocks)}
        gens = []
        for g in self.gens:
            images = [index[_image_block(g, b, blocks)] for b in blocks]
            gens.append(Permutation(images))
        return PermGroup(_dedupe(gens) or [Permutation.identity(len(blocks))])

    def stabilizer_block_action(self, block) -> "PermGroup":
        """Action of the setwise stabilizer of a block on that block.

        Each stabilizing element becomes the positions, in the sorted block,
        of the images of the block's points; the restrictions are kept once
        each, in first-occurrence order.  The identity comes first, so the
        generator list is never empty.
        """
        points = np.array(sorted(set(block)), dtype=np.intp)
        local = np.searchsorted(points, self.setwise_stabilizer(block)[:, points])
        _, first = np.unique(byte_keys(local), return_index=True)
        return PermGroup([Permutation(a) for a in local[np.sort(first)]])

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.gens)})"


def _dedupe(elements):
    """The elements in order, each key once."""
    seen = {}
    for g in elements:
        seen.setdefault(g.key, g)
    return list(seen.values())


def _image_block(g: Permutation, block, blocks):
    member = g(block[0])
    for b in blocks:
        if member in b:
            return b
    raise ValidationError("generator does not permute the blocks")


class BlockSystem:
    """A partition of {0..k-1} into equal-size blocks, canonically sorted."""

    __slots__ = ("degree", "blocks", "block_size")

    def __init__(self, blocks, degree: int):
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        covered = [x for b in blocks for x in b]
        if sorted(covered) != list(range(degree)):
            raise ValidationError("blocks must partition the point set")
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise ValidationError("blocks must have equal size")
        self.degree = degree
        self.blocks = blocks
        self.block_size = len(blocks[0])

    @property
    def count(self) -> int:
        return len(self.blocks)

    def preserved_by(self, g: Permutation) -> bool:
        block_set = set(self.blocks)
        return all(
            tuple(sorted(g(x) for x in b)) in block_set for b in self.blocks
        )

    def one_based(self) -> list[list[int]]:
        return [[x + 1 for x in b] for b in self.blocks]

    def __eq__(self, other):
        return isinstance(other, BlockSystem) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __repr__(self):
        return f"BlockSystem({[list(b) for b in self.blocks]})"


def _equal_partitions(points, block_size):
    """All partitions of the points into blocks of the given size."""
    points = list(points)
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for companions in itertools.combinations(rest, block_size - 1):
        block = (first,) + companions
        remaining = [x for x in rest if x not in companions]
        for tail in _equal_partitions(remaining, block_size):
            yield [block] + tail


def _block_systems_exhaustive(group: PermGroup, block_size: int) -> list[BlockSystem]:
    k, b = group.degree, block_size
    count = math.factorial(k) // (math.factorial(b) ** (k // b) * math.factorial(k // b))
    check_cap("block systems", count, "equal partitions", DEFAULT_CAP_PARTITIONS)
    out = []
    for blocks in _equal_partitions(range(group.degree), block_size):
        system = BlockSystem(blocks, group.degree)
        if all(system.preserved_by(g) for g in group.gens):
            out.append(system)
    return sorted(out)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def partition(self, degree):
        classes = {}
        for x in range(degree):
            classes.setdefault(self.find(x), []).append(x)
        return tuple(sorted(tuple(c) for c in classes.values()))


def _minimal_congruence(group: PermGroup, a: int, b: int):
    """Finest generator-invariant partition merging a and b (Atkinson)."""
    uf = _UnionFind(group.degree)
    uf.union(a, b)
    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        for g in group.gens:
            gx, gy = g(x), g(y)
            if uf.union(gx, gy):
                queue.append((gx, gy))
    return uf.partition(group.degree)


def _join_partitions(p1, p2, degree):
    uf = _UnionFind(degree)
    for part in itertools.chain(p1, p2):
        for x in part[1:]:
            uf.union(part[0], x)
    return uf.partition(degree)


def _block_systems_seeded(group: PermGroup, block_size: int) -> list[BlockSystem]:
    """Pair-seeded minimal congruences closed under joins, then filtered.

    For a transitive group every invariant partition is a join of the
    partitions generated by merging point 0 with another point, so the join
    closure of those seeds is the complete congruence lattice.
    """
    seeds = set()
    for j in range(1, group.degree):
        seeds.add(_minimal_congruence(group, 0, j))
    closure = set(seeds)
    frontier = set(seeds)
    while frontier:
        new = set()
        for a in frontier:
            for b in closure:
                joined = _join_partitions(a, b, group.degree)
                if joined not in closure:
                    new.add(joined)
        closure |= new
        frontier = new
    out = []
    for partition in closure:
        sizes = {len(b) for b in partition}
        if sizes == {block_size}:
            out.append(BlockSystem(partition, group.degree))
    return sorted(out)


def block_systems(group: PermGroup, block_size: int) -> list[BlockSystem]:
    """All equal-size block systems of the group with the given block size.

    Transitive groups take the pair-seeded congruence closure; the seeded
    route requires transitivity, so intransitive groups are exhausted over
    every partition (the brute-force oracle), once their number is known
    not to exceed DEFAULT_CAP_PARTITIONS (PhaseCapExceeded otherwise).
    """
    k = group.degree
    if block_size < 1 or k % block_size != 0:
        raise ValidationError(
            f"block size {block_size} does not divide degree {k}"
        )
    if block_size == 1:
        return [BlockSystem([(i,) for i in range(k)], k)]
    if block_size == k:
        return [BlockSystem([tuple(range(k))], k)]
    if not group.is_transitive():
        return _block_systems_exhaustive(group, block_size)
    return _block_systems_seeded(group, block_size)


def has_pair_partition(group: PermGroup) -> bool:
    """True iff the points admit an invariant partition into pairs."""
    if group.degree % 2 != 0:
        raise OddDegree(f"degree {group.degree} is odd")
    return bool(block_systems(group, 2))


def cyclic_group(k: int) -> PermGroup:
    return PermGroup([Permutation([(i + 1) % k for i in range(k)])])


def symmetric_group(k: int) -> PermGroup:
    if k == 1:
        return PermGroup([Permutation.identity(1)])
    swap = list(range(k))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % k for i in range(k)]
    return PermGroup([Permutation(swap), Permutation(cycle)])


def perm_wreath(x: PermGroup, y: PermGroup) -> PermGroup:
    """Imprimitive wreath action on x.degree * y.degree points.

    Points are grouped into consecutive blocks of size x.degree; the y
    generators permute the blocks, and the x generators act inside the
    smallest block of each y-orbit only.  Conjugating a block's copy of x
    by the block permutations moves it to every block of that orbit, so
    these generators still give the whole base group x^y.degree.
    """
    s, ell = x.degree, y.degree
    degree = s * ell
    blocks = y.orbit_representatives()
    gens = []
    for g in x.gens:
        for j in blocks:
            images = list(range(degree))
            for t in range(s):
                images[j * s + t] = j * s + g(t)
            gens.append(Permutation(images))
    for g in y.gens:
        images = [g(i // s) * s + (i % s) for i in range(degree)]
        gens.append(Permutation(images))
    return PermGroup(_dedupe(gens))
