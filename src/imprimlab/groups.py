"""Finite matrix groups and permutation groups given by generators.

Two descriptions of a group serve different questions.  The stabilizer
chain (StabilizerChain: deterministic Schreier-Sims with the standard basis
vectors as base, or the points for a permutation group) answers the order,
as the product of its orbit lengths, and membership and containment, by
sifting; it never lists the group.  The closure (mulclose) lists every
element.  It is built where elements are read (the GL(2, q) double-coset
scan of the maximal-solvable report, sorted_keys, positions, characters,
induced modules, setwise stabilizers of permutation groups) and for groups
whose order_bound is at most LIST_AMBIENT, which it lists at least as fast
as their chain is built.  The bound is known before any work: the order of
the ambient GL_n(p) or S_k, or a smaller one the constructor supplies,
|H|^k * |K| for a wreath product H wr K (wreath.wreath_product) and
|source| for an induced image (reprs.InducedRep), so a small group in a
large GL_n(p) is listed too.  The bound only picks the route: the order is
still the count of the listed elements or the chain's product.  Once a
group's elements are listed, its order is their count and membership a
lookup among them, so no group pays for both descriptions unless both are
read.  Both count against the element cap that errors.limits sets for the
run: the closure its elements (phase "group closure"), the chain its orbit
points beyond the base points, which never exceed |G| - 1 (phase
"stabilizer chain").
Solvability follows the derived series, each derived subgroup the normal
closure of its group's generator commutators, with membership and orders
read as above.  A group is its generator stack, which the library
computes on: (m, n, n) matrices with their inverses, or (m, k) images of
permutations; gens, as Matrix or Permutation objects, is built when read.
Given Matrix generators, a matrix group inverts each once, to validate it;
one built from stacks (MatrixGroup.from_stacks) is given the inverses and
checks them with one batched product.  The commutators, the conjugates of
a subgroup's generators and the inverses of both are stack products of
stored generators and inverses, so the derived series inverts and
multiplies no Matrix, and the chain reads the same inverses.  A group
computes its derived series once, when its series or solvability is first
asked for.  Membership takes stacks of group-shaped arrays only, and a
permutation row with a point outside [0, k) is no element on either route.

The closure works on arrays.  A group's elements are one (|G|, n, n) stack
of matrices (or (|G|, k) stack of permutation images) in the smallest
integer dtype that holds every entry, in discovery order: identity first,
then level by level, each level's products frontier-major and
generator-minor.  Each step multiplies a chunk of the frontier by every
generator at once, CLOSE_PRODUCTS products in all (1024 frontier elements
for eight generators).  The chunk bounds the int64 product block
(CLOSE_PRODUCTS x n^2 entries, 2.4 MB at degree 6), and so the closure's
peak memory, whatever the number of generators; larger chunks were no
faster.  Every product is identified by its packed key (packed_keys): its
entries read as digits in [0, p) for a matrix, or in [0, k) for a
permutation of degree k, packed into int64 words.  One word holds every
element of GL_n(p) with p^(n^2) <= 2^63 (6 x 6 over GF(3), 4 x 4 over
GF(7)) and of S_k for k <= 15, and its keys are a plain int64 array, which
numpy sorts and searches several times faster than raw bytes; wider
elements take several words, viewed as one np.void scalar, so no modulus
or degree is too wide.  The same keys index the chain's orbit points,
dedupe stacks (first_occurrences) and match subspace images by RREF bases
(imprim.image_table).  A chunk's new elements are its first occurrences
(np.unique) that a searchsorted lookup does not find among the sorted keys
seen so far, merged in by one scatter; the cap is checked before they are
appended.  Once listed, the elements' keys are sorted once, and lookups
among them are searchsorted (key_positions, which image_table shares).
No Matrix or Permutation object is built per element.  Orbits of points
are min-label propagation over permutation tables (orbit_labels), the
routine the subspace scan uses as well.

Block systems of a permutation group, transitive or not, come from one
backtracking search (block_systems): each node is a generator-invariant
partition held as a label array, and each child joins two of its classes
by Atkinson's merge.  Its nodes count against DEFAULT_CAP_PARTITIONS
(phase "block systems").

Permutations are stored 0-based and compose left to right:
(s * t)(i) = t(s(i)), matching the row-vector right action used elsewhere.
The chain of a permutation group acts with the permutation matrices, whose
row i is the basis vector of the image of i.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DEFAULT_CAP_PARTITIONS,
    OddDegree,
    ShapeMismatch,
    Singular,
    ValidationError,
    check_cap,
    current_limits,
)
from .linalg import Matrix, check_product_modulus, entry_dtype, is_prime, mul_mod

# Products formed in one step of a closure (a chunk of the frontier times
# every generator), and the most images, Schreier generators or sifted
# matrices a stabilizer chain handles in one step.
CLOSE_PRODUCTS = 8192
# A group whose order_bound (an upper bound on its order: its ambient
# GL_n(p) or S_k, or a smaller bound from its constructor) is at most this
# is listed for its order and membership as well.  On a 2-vCPU x86 host
# with Python 3.11 (best of 25), listing S_6 with its sorted keys took
# 1.3 ms against 1.8 ms for its stabilizer chain and GL_2(5) 1.0 ms against
# 1.0 ms, but S_7 5.4 ms against 2.6 ms and GL_2(7) 2.9 ms against 1.2 ms.
# Wreath products in GL_3(3) or GL_4(p) went the same way: sign wr S_3 (48
# elements) 0.31 ms against 0.99 ms, C_3 wr C_4 over GF(7) (324) 0.83 ms
# against 1.29 ms and (C_3 wr C_2) wr C_2 (648) 1.30 ms against 1.91 ms,
# but GL(2, 3) wr C_2 (4 608) 7.7 ms against 2.7 ms.
LIST_AMBIENT = 720


@lru_cache(maxsize=64)
def _place_values(base: int, width: int) -> np.ndarray:
    """The place value of every digit of a row of width digits in [0, base).

    Each int64 word packs as many digits as base^digits <= 2^63 allows, so
    no word overflows.  Returns a (width,) vector when one word holds the
    row, and a (width, words) matrix otherwise, read-only since it is shared.
    """
    digits = 1
    while base ** (digits + 1) <= 2**63:
        digits += 1
    words = max(1, -(-width // digits))  # a row of no digits still has a key, 0
    places = np.zeros((width, words), dtype=np.int64)
    for i in range(width):
        places[i, i // digits] = base ** (i % digits)
    places = places[:, 0] if words == 1 else places
    places.flags.writeable = False
    return places


def packed_keys(stack: np.ndarray, base: int) -> np.ndarray:
    """One key per entry of a stack whose entries are digits in [0, base).

    The digits are packed into int64 words (at least base 2, so that a
    degree-1 permutation packs too).  Equal keys mean equal entries.  One
    word gives a plain int64 key; several are viewed as one np.void scalar.
    """
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    keys = flat @ _place_values(max(int(base), 2), flat.shape[1])
    if keys.ndim == 1:
        return keys
    return np.ascontiguousarray(keys).view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


def key_positions(sorted_keys: np.ndarray, order: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """order[k] for every key found at sorted_keys[k], -1 for every other key:
    sorted_keys is nonempty and sorted, and order the argsort that sorted it."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
    return np.where(sorted_keys[pos] == keys, order[pos], -1)


def first_new(keys: np.ndarray, seen: np.ndarray):
    """The keys absent from the sorted array seen, once each.

    Returns (indices, seen'): the index in keys of the first occurrence of
    every such key, in increasing order, and seen with those keys merged in
    by one scatter.
    """
    uniq, first = np.unique(keys, return_index=True)
    pos = np.searchsorted(seen, uniq)
    new = seen[np.minimum(pos, len(seen) - 1)] != uniq
    at = pos[new] + np.arange(np.count_nonzero(new))  # increasing: uniq is sorted
    merged = np.empty(len(seen) + len(at), dtype=seen.dtype)
    kept = np.ones(len(merged), dtype=bool)
    kept[at] = False
    merged[at] = uniq[new]
    merged[kept] = seen
    return np.sort(first[new]), merged


def first_occurrences(stack: np.ndarray, base: int) -> np.ndarray:
    """The increasing indices of the first occurrence of every distinct
    entry of a stack of digits in [0, base), matched by packed key."""
    _, first = np.unique(packed_keys(stack, base), return_index=True)
    return np.sort(first)


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
        base = gens.shape[1]

        def products(frontier):
            return frontier[:, gens]
    else:
        identity = np.eye(gens.shape[1], dtype=gens.dtype)
        base = p
        wide = gens.astype(np.int64)

        def products(frontier):
            return wide @ frontier[:, None].astype(np.int64) % p

    step = max(1, CLOSE_PRODUCTS // len(gens))
    frontier = identity[None]
    levels = [frontier]
    seen = packed_keys(frontier, base)
    while len(frontier):
        found = []
        for start in range(0, len(frontier), step):
            block = products(frontier[start : start + step])
            block = block.reshape(-1, *identity.shape)
            fresh, seen = first_new(packed_keys(block, base), seen)
            check_cap("group closure", len(seen), "elements", current_limits().elements)
            found.append(block[fresh].astype(gens.dtype, copy=False))
        frontier = np.concatenate(found)
        levels.append(frontier)
    return np.concatenate(levels)


class StabilizerChain:
    """A base and strong generating set, found by deterministic Schreier-Sims.

    gens is an (m, n, n) stack of invertible matrices over GF(p) acting on
    row vectors from the right, and inverses their inverses, in the same
    order (the chain inverts no matrix).  The base is e_0 ... e_(n-1): a
    matrix that fixes every standard basis vector is the identity, so the
    base never needs extending.  Level l holds generators fixing e_0 ... e_(l-1) and
    the orbit of e_l under them.  Each orbit point x = e_l u_x is stored as
    its transversal element u_x and u_x^-1, in the smallest dtype that
    holds p - 1, and is found in a dict by its packed key (its entries as
    digits in [0, p)), as the closure keys elements.

    Sims' algorithm (Sims 1970; Seress, Permutation Group Algorithms,
    ch. 4) works up from the last level.  Every Schreier generator
    u_x s u_(x s)^-1 of a level is sifted through the levels below it.  Of
    those that do not sift to the identity, the first to stop at each level
    joins the generators of every level from the next one down to the level
    it stopped at, with its inverse multiplied out of stored elements.  The
    orbits of those levels are then extended (never recomputed), and the
    work resumes at the deepest of them.  Transversals never change once
    set, so a Schreier generator that has passed keeps passing and is not
    sifted again.  When every one has passed, the order is the product of
    the orbit lengths, and a matrix lies in the group iff it sifts through
    every level.

    Orbit points beyond the base points count against the element cap,
    read from errors.limits when they are entered.  Their number, the sum
    of (|orbit| - 1) over the levels, is at most |G| - 1, so the chain of
    every group that the closure can list fits; PhaseCapExceeded
    ("stabilizer chain") is raised otherwise.  After two breadth-first
    steps in a row from one point to one point, an orbit is extended along
    the powers of the generator that took the last step, in blocks that
    double, so a long cycle costs a logarithmic number of array steps.
    """

    def __init__(self, gens: np.ndarray, inverses: np.ndarray, p: int):
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
            inverses = np.asarray(inverses, dtype=np.int64)[keep] % p
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
        return packed_keys(vectors, self.p)

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

        Returns (depth, residue, path): the level at which each matrix's
        image of the base point left the orbit (n if it never did), what was
        left of it there, and path[l - start, i], the index of the
        transversal element that stripped matrix i at level l, for every
        level l before its depth.  The residue is the matrix times the
        inverses of those elements, level by level.
        """
        residue = stack
        depth = np.full(len(stack), self.n)
        path = np.zeros((self.n - start, len(stack)), dtype=np.intp)
        alive = np.arange(len(stack))
        for level in range(start, self.n):
            x = self._lookup(level, residue[alive, level])
            inside = x >= 0
            depth[alive[~inside]] = level
            alive, x = alive[inside], x[inside]
            if not len(alive):
                break
            path[level - start, alive] = x
            residue[alive] = residue[alive] @ self._trans_inv[level][x] % self.p
        return depth, residue, path

    def _complete(self):
        """Run Sims' algorithm until every Schreier generator has passed.

        Each pass takes the untested Schreier generators of one level, at
        most CLOSE_PRODUCTS of them, and sifts them through the levels
        below.  Of those that fail, the first at each distinct depth joins
        the generators of every level from the next one down to its depth:
        its residue fixes the base points before that depth.  The work
        resumes at the deepest level that changed.  A residue's inverse is
        the product of stored elements that undoes its sift and its
        Schreier generator, u_k ... u_1 u_(x s) s^-1 u_x^-1, so no matrix
        is inverted.  The last level needs no pass: its Schreier
        generators fix every base point, so they are the identity.
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
            depth, residue, path = self._sift(schreier[moving], level + 1)
            passed = np.ones(len(s), dtype=bool)
            passed[moving] = depth == n
            self._passed[level][s[passed], x[passed]] = True
            if passed.all():
                continue
            depths, first = np.unique(depth, return_index=True)
            first, depths = first[depths < n], depths[depths < n]
            h, j = residue[first], moving[first]
            # h = u_x s u_(x s)^-1 u_1^-1 ... u_k^-1, read backwards
            h_inv = self._trans[level][y[j]] @ self._gen_inv[level][s[j]] % p
            h_inv = h_inv @ self._trans_inv[level][x[j]] % p
            deepest = int(depths[-1])
            for below in range(level + 1, deepest):
                on = depths > below
                h_inv[on] = self._trans[below][path[below - level - 1, first[on]]] @ h_inv[on] % p
            for below in range(level + 1, deepest + 1):
                on = depths >= below
                self._add_generators(below, h[on], h_inv[on])
            level = min(deepest, n - 2)


class _ElementArray:
    """A group's elements, listed by the closure or described by a chain.

    Subclasses provide _generator_stack (built once), _modulus (p, or None
    for permutations), _ambient_order (of GL_n(p) or S_k), chain and
    _matrices, which turns a stack of group-shaped arrays into the matrices
    the chain acts with.  The order and membership read the listed elements
    when element_array has been built or order_bound is at most
    LIST_AMBIENT, and the stabilizer chain otherwise, so no group pays for
    both unless both are read.
    """

    # a zero-argument callable a constructor may set: an upper bound on |G|
    _bound = None

    @cached_property
    def element_array(self) -> np.ndarray:
        """Every element, in discovery order, as one stack."""
        return mulclose(self._generator_stack, self._modulus)

    @cached_property
    def order_bound(self) -> int:
        """An upper bound on |G|, known before G is listed or chained: the
        ambient group's order, or the smaller bound its constructor
        supplied, which is read the first time it is asked for."""
        ambient = self._ambient_order
        return ambient if self._bound is None else min(ambient, self._bound())

    @property
    def _listed(self) -> bool:
        return "element_array" in self.__dict__ or self.order_bound <= LIST_AMBIENT

    @property
    def _key_base(self) -> int:
        """Every entry of an element is a digit below this: p, or the degree."""
        return self._modulus or self._generator_stack.shape[1]

    @cached_property
    def _key_index(self):
        keys = packed_keys(self.element_array, self._key_base)
        order = np.argsort(keys)
        return keys[order], order

    @property
    def sorted_keys(self) -> np.ndarray:
        """The packed keys of the elements, sorted: one per element."""
        return self._key_index[0]

    @property
    def order(self) -> int:
        return len(self.element_array) if self._listed else self.chain.order

    def _rows(self, stack):
        """A stack of group-shaped arrays with its leading axes flattened,
        as digits in [0, _key_base), and which of its rows can be elements.

        Matrices are reduced mod p.  A permutation row with a point outside
        [0, k) is no element, and is zeroed so that its digits stay in
        range.  Raises ShapeMismatch when the trailing axes do not have an
        element's shape.
        """
        stack = np.asarray(stack)
        shape = self._generator_stack.shape[1:]
        if stack.shape[max(0, stack.ndim - len(shape)):] != shape:
            raise ShapeMismatch(f"a stack of shape {stack.shape} does not hold "
                                f"elements of shape {shape}")
        stack = stack.reshape(-1, *shape)
        if self._modulus is not None:
            return stack % self._modulus, np.ones(len(stack), dtype=bool)
        valid = ((stack >= 0) & (stack < shape[0])).all(axis=1)
        return np.where(valid[:, None], stack, 0), valid

    def positions(self, stack) -> np.ndarray:
        """Index in element_array of every entry of a stack, -1 if absent.

        Leading axes are flattened, as the chain's sift flattens them: an
        (s, t, n, n) stack gives s * t positions.
        """
        rows, valid = self._rows(stack)
        found = key_positions(*self._key_index, packed_keys(rows, self._key_base))
        return np.where(valid, found, -1)

    def member_mask(self, stack) -> np.ndarray:
        """Which entries of a stack of group-shaped arrays lie in the group,
        as one flat mask: leading axes are flattened on either route."""
        if self._listed:
            return self.positions(stack) >= 0
        rows, valid = self._rows(stack)
        return valid & self.chain.sifts(self._matrices(rows))


class MatrixGroup(_ElementArray):
    """A subgroup of GL_n(p) given by invertible generators.

    The group is its two (m, n, n) stacks: _generator_stack, in the dtype of
    p - 1, and inverse_stack, the generators' inverses in the same order as
    int64.  MatrixGroup(matrices) checks user-given generators by inverting
    them; from_stacks takes inverses already known and checks them with one
    batched product.  gens, the generators as Matrix objects, is built from
    the stack the first time it is read.
    """

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise ValidationError("a matrix group needs at least one generator")
        p, n = gens[0].p, gens[0].rows
        inverses = []
        for g in gens:
            if g.p != p or g.rows != n or g.cols != n:
                raise ValidationError("generators must share modulus and degree")
            try:
                inverses.append(g.inv().a)
            except Singular:
                raise ValidationError("generators must be invertible") from None
        self._set_stacks(np.stack([g.a for g in gens]), np.stack(inverses), p)

    @classmethod
    def from_stacks(cls, gens, inverses, p: int, order_bound=None) -> "MatrixGroup":
        """The group of an (m, n, n) generator stack whose inverses, stacked
        in the same order, are known: gens @ inverses = I mod p, checked by
        one batched product, proves every generator invertible.  Raises
        ValidationError when the stacks are empty or differ in shape, or
        when an inverse is wrong.  order_bound, if given, is a zero-argument
        callable returning an upper bound on the group's order; it is
        called only when the listing rule first reads order_bound."""
        gens = np.asarray(gens, dtype=np.int64)
        inverses = np.asarray(inverses, dtype=np.int64)
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2] or gens.shape != inverses.shape:
            raise ShapeMismatch(f"stacks of shape {gens.shape} and {inverses.shape} "
                                "are no square generators and their inverses")
        if not len(gens):
            raise ValidationError("a matrix group needs at least one generator")
        p = check_product_modulus(p, gens.shape[2])
        gens, inverses = gens % p, inverses % p
        if not (mul_mod(gens, inverses, p) == np.eye(gens.shape[1], dtype=np.int64)).all():
            raise ValidationError("the inverses given are not the generators' inverses")
        group = cls.__new__(cls)
        group._set_stacks(gens, inverses, p)
        group._bound = order_bound
        return group

    def _set_stacks(self, gens: np.ndarray, inverses: np.ndarray, p: int) -> None:
        """Store checked generators and inverses, entries in [0, p)."""
        self._generator_stack = gens.astype(entry_dtype(p))
        self.inverse_stack = inverses.astype(np.int64)
        self.p = p
        self.n = gens.shape[1]

    @cached_property
    def gens(self) -> tuple[Matrix, ...]:
        return tuple(Matrix(a, self.p) for a in self._generator_stack)

    @property
    def identity(self) -> Matrix:
        return Matrix.identity(self.n, self.p)

    @property
    def _modulus(self):
        return self.p

    @property
    def _ambient_order(self) -> int:
        return math.prod(self.p**self.n - self.p**i for i in range(self.n))

    @cached_property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain of the generators."""
        return StabilizerChain(self._generator_stack, self.inverse_stack, self.p)

    def _matrices(self, stack) -> np.ndarray:
        """The chain acts with the matrices themselves."""
        return stack

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
        N holds no element outside [G, G].  Every element is formed with
        its inverse, as stack products of stored generators and inverses:
        a commutator's inverse is y^-1 x^-1 y x, and the inverse of a
        conjugate x^-1 c x is x^-1 c^-1 x.  The conjugates are ordered by N's
        generator c, then by x.  Identities and repeats are dropped by packed
        key, first occurrences kept in order.  No matrix is inverted.
        """
        p, n = self.p, self.n
        x, x_inv = self._generator_stack.astype(np.int64), self.inverse_stack
        i, j = np.triu_indices(len(x), 1)  # every pair i < j, by i and then j
        gens = x_inv[i] @ x_inv[j] % p @ x[i] % p @ x[j] % p
        inverses = x_inv[j] @ x_inv[i] % p @ x[j] % p @ x[i] % p
        while True:
            keep = first_occurrences(gens, p)
            keep = keep[(gens[keep] != np.eye(n, dtype=np.int64)).any(axis=(1, 2))]
            gens, inverses = gens[keep], inverses[keep]
            if not len(gens):
                gens = inverses = np.eye(n, dtype=np.int64)[None]
            subgroup = MatrixGroup.from_stacks(gens, inverses, p)
            conjugates = (x_inv @ subgroup._generator_stack[:, None] % p @ x % p).reshape(-1, n, n)
            outside = ~subgroup.member_mask(conjugates)
            if not outside.any():
                return subgroup
            c, g = np.divmod(np.flatnonzero(outside), len(x))
            gens = np.concatenate([gens, conjugates[outside]])
            inverses = np.concatenate([inverses, x_inv[g] @ subgroup.inverse_stack[c] % p @ x[g] % p])

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
        return f"MatrixGroup(degree={self.n}, p={self.p}, gens={len(self._generator_stack)})"


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p.

    g has order p - 1 iff g^((p-1)/r) != 1 for every prime factor r of
    p - 1, which trial division finds.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if p == 2:
        return 1
    factors, rest, r = [], p - 1, 2
    while r * r <= rest:
        if rest % r == 0:
            factors.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        factors.append(rest)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in factors))


def general_linear_group(n: int, p: int) -> MatrixGroup:
    """GL_n(p) from a diagonal unit, a coordinate cycle, and a transvection."""
    if n < 1:
        raise ValidationError(f"degree {n} must be positive")
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

    def __hash__(self):
        return hash(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"


class PermGroup(_ElementArray):
    """A permutation group on {0..k-1}: its (m, k) _generator_stack of images,
    in the dtype of k; gens, as Permutation objects, is built when first read."""

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise ValidationError("a permutation group needs at least one generator")
        if any(g.degree != gens[0].degree for g in gens):
            raise ValidationError("generators must share degree")
        self._set_stack(np.array([g.images for g in gens], dtype=np.int64))

    @classmethod
    def from_stack(cls, images) -> "PermGroup":
        """The group of an (m, k) stack of images, every row proved a
        permutation at once (sorted, it is 0..k-1).  ValidationError for an
        empty stack, a stack that is not 2-D, or a row that is no permutation."""
        images = np.asarray(images)
        if images.ndim != 2:
            raise ShapeMismatch(f"a stack of shape {images.shape} is no (m, k) stack of images")
        if not (np.sort(images, axis=1) == np.arange(images.shape[1])).all():
            raise ValidationError(f"a stack row is not a permutation of 0..{images.shape[1] - 1}")
        group = cls.__new__(cls)
        group._set_stack(images)
        return group

    def _set_stack(self, images: np.ndarray) -> None:
        """Store checked images, of at least one generator and one point."""
        if not images.size:
            raise ValidationError("a permutation group needs at least one generator and one point")
        self.degree = images.shape[1]
        self._generator_stack = images.astype(entry_dtype(self.degree))

    _modulus = None

    @cached_property
    def gens(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(row) for row in self._generator_stack)

    @property
    def _ambient_order(self) -> int:
        return math.factorial(self.degree)

    @cached_property
    def chain(self) -> StabilizerChain:
        """The chain of the permutation matrices, over GF(2) since their
        entries are 0 and 1; the inverse permutations (argsort of the
        images) give the generators' inverses."""
        stack = self._generator_stack
        return StabilizerChain(self._matrices(stack), self._matrices(np.argsort(stack, axis=1)), 2)

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
        stack in discovery order; ValidationError names a point outside 0..k-1."""
        points = np.array(sorted(set(block)), dtype=np.intp)
        outside = points[(points < 0) | (points >= self.degree)]
        if len(outside):
            raise ValidationError(f"point {outside[0]} is not in 0..{self.degree - 1}")
        images = np.sort(self.element_array[:, points], axis=1)
        return self.element_array[(images == points).all(axis=1)]

    def block_action(self, partition: "BlockSystem") -> "PermGroup":
        """Induced action of the generators on the sorted blocks: each
        block goes to the block of its first point's image, repeats dropped."""
        if partition.degree != self.degree:
            raise ValidationError(f"the partition has degree {partition.degree}, not {self.degree}")
        blocks = np.array(partition.blocks)
        block_of = np.empty(self.degree, dtype=np.intp)
        block_of[blocks] = np.arange(len(blocks))[:, None]
        images = block_of[self._generator_stack[:, blocks[:, 0]]]
        return PermGroup.from_stack(images[first_occurrences(images, len(blocks))])

    def stabilizer_block_action(self, block) -> "PermGroup":
        """Action of the setwise stabilizer of a block on that block.

        Each stabilizing element becomes the positions, in the sorted block,
        of the images of the block's points; the restrictions are kept once
        each, in first-occurrence order.  The identity comes first, so the
        generator list is never empty.
        """
        stabilizer = self.setwise_stabilizer(block)
        points = np.array(sorted(set(block)), dtype=np.intp)
        local = np.searchsorted(points, stabilizer[:, points])
        return PermGroup.from_stack(local[first_occurrences(local, len(points))])

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self._generator_stack)})"


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


def _join(labels: list, members: dict, gens: list, x: int, y: int, size: int):
    """Atkinson's merge: the finest generator-invariant partition that is
    coarser than the invariant partition labels and joins x and y.

    labels maps each point to the smallest point of its class, and members
    each such label to its class.  Joining two classes joins their images
    under every generator in turn.  Returns the new labels and classes,
    leaving the arguments unchanged, or None as soon as a class has more
    than size points.
    """
    labels, members = labels[:], dict(members)
    pairs = [(x, y)]
    while pairs:
        u, v = pairs.pop()
        keep, gone = sorted((labels[u], labels[v]))
        if keep == gone:
            continue
        moved = members.pop(gone)
        if len(members[keep]) + len(moved) > size:
            return None
        members[keep] = members[keep] + moved
        for point in moved:
            labels[point] = keep
        pairs += [(g[u], g[v]) for g in gens]
    return labels, members


def block_systems(group: PermGroup, block_size: int) -> list[BlockSystem]:
    """All equal-size block systems of the group with the given block size.

    A backtracking search over the generator-invariant partitions whose
    classes have at most block_size points, each a label array: every
    point's label is the smallest point of its class.  The root is the
    partition into single points.  At a node, x is the smallest point whose
    class has fewer than block_size points; each child joins x's class with
    one later class and closes the result under the generators (_join,
    after Atkinson, Math. Comp. 29, 1975).  While x stays the same, the
    joined classes go up by smallest point.  So the block of x in any
    system is reached by joining, each time, the smallest of its classes
    not yet in x's class, and every system is a leaf.  A leaf reached on
    several paths is kept once.  Every node counts against
    DEFAULT_CAP_PARTITIONS (PhaseCapExceeded, phase "block systems").
    """
    k, b = group.degree, block_size
    if b < 1 or k % b != 0:
        raise ValidationError(f"block size {b} does not divide degree {k}")
    if b == k:  # one block: the search would try every subset of the points
        return [BlockSystem([tuple(range(k))], k)]
    gens = group._generator_stack.tolist()
    leaves = {}
    nodes = 0
    # each entry: a node's labels and classes, and the x and the last
    # joined class of the path that made it
    stack = [(list(range(k)), {x: [x] for x in range(k)}, -1, -1)]
    while stack:
        labels, members, last_x, after = stack.pop()
        nodes += 1
        check_cap("block systems", nodes, "search nodes", DEFAULT_CAP_PARTITIONS)
        x = min((c for c, points in members.items() if len(points) < b), default=None)
        if x is None:
            leaves[tuple(labels)] = members
            continue
        if x != last_x:
            after = x
        room = b - len(members[x])
        children = []
        for y in sorted(members):
            if y > after and len(members[y]) <= room:
                child = _join(labels, members, gens, x, y, b)
                if child is not None:
                    children.append((*child, x, y))
        stack += reversed(children)
    return sorted(BlockSystem(members.values(), k) for members in leaves.values())


def has_pair_partition(group: PermGroup) -> bool:
    """True iff the points admit an invariant partition into pairs."""
    if group.degree % 2 != 0:
        raise OddDegree(f"degree {group.degree} is odd")
    return bool(block_systems(group, 2))


def cyclic_group(k: int) -> PermGroup:
    """C_k, generated by the k-cycle i -> i + 1 mod k."""
    return PermGroup.from_stack(np.roll(np.arange(k), -1)[None])


def symmetric_group(k: int) -> PermGroup:
    """S_k from the swap of 0 and 1 and the k-cycle (the identity for k = 1)."""
    cycle = np.roll(np.arange(k), -1)[None]
    if k < 2:
        return PermGroup.from_stack(cycle)
    swap = np.arange(k)
    swap[:2] = 1, 0
    return PermGroup.from_stack(np.concatenate([swap[None], cycle]))


def perm_wreath(x: PermGroup, y: PermGroup) -> PermGroup:
    """Imprimitive wreath action on x.degree * y.degree points.

    Points are grouped into consecutive blocks of size x.degree; the y
    generators permute the blocks, and the x generators act inside the
    smallest block of each y-orbit only.  Conjugating a block's copy of x
    by the block permutations moves it to every block of that orbit, so
    these generators still give the whole base group x^y.degree.  Both
    kinds come from the generator stacks by array indexing, repeats dropped.
    """
    s, ell = x.degree, y.degree
    blocks = np.array(y.orbit_representatives())
    points = np.arange(s * ell).reshape(ell, s)
    inner = np.tile(points, (len(x._generator_stack), len(blocks), 1, 1))
    inner[:, np.arange(len(blocks)), blocks] = blocks[:, None] * s + x._generator_stack[:, None]
    outer = y._generator_stack.astype(np.intp)[:, :, None] * s + np.arange(s)
    gens = np.concatenate([inner.reshape(-1, s * ell), outer.reshape(-1, s * ell)])
    return PermGroup.from_stack(gens[first_occurrences(gens, s * ell)])
