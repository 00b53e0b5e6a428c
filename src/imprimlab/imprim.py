"""Systems of imprimitivity: enumeration, refinement order, nonrefinability.

all_systems is the exhaustive scan of the package.  For every proper
divisor d of n it considers every d-dimensional subspace once, named by its
index in the order linalg.subspace_layout defines.  A subspace on a cycle
of more than n/d members under the word w = g_1 * ... * g_m of the
generators lies in no system, since a w-cycle lies inside an orbit.  Which
subspaces lie on short w-cycles is decided by invariance under a few powers
of w (linalg.invariant_indices), solved per first basis row, with no row
reduction and no stack of every subspace.  Only those subspaces are
unranked, and the generators are turned into permutation tables on them
alone (image_table): their images are row-reduced in batch
(linalg.rref_batch) and matched to the kept subspaces by packed keys, and a
remaining subspace with a generator image outside the rest is dropped until
none is left, which drains every orbit kept in part.  Orbits come from
min-label propagation over the tables (groups.orbit_labels), and the orbits
of size n/d that decompose the space into a direct sum are the systems.
Orbits of a transitive part action are exactly the systems, so every system
is found once.

Memory: no scan holds every subspace.  A dimension costs its layout's first
basis rows (linalg.SubspaceLayout.heads, one per row-0 choice of each pivot
block: 3 478 for the 75 913 222 4-subspaces of GF(3)^8), chunks of
linalg.SCAN_CHUNK subspaces that pass the first-row test, and the kept
subspaces with their int32 tables of positions among them.  Before anything
is allocated, the count of each dimension is checked against the subspace
cap of errors.limits (phase "subspace scan") and against int32, which those
positions must fit.  The tests check the scan against one subspace_orbit (a
plain breadth-first search, with no caller here) per unvisited subspace.

ImprimitivitySystem alone validates a list of parts, and one part table
(part_table: each part's image under each generator, as a part index or -1,
from the same image_table) acts on it; is_system and the stabilizer
criterion's transversal read it, and it refuses parts outside the group's
space.  Nonrefinability is decided by brute force (no enumerated system
with more parts refines it; a proper refinement always has more parts) and
by the stabilizer criterion (a part's setwise stabilizer acts irreducibly
and primitively on it).  On a part of rank 1 every group is irreducible and
primitive, so a system of lines meets the criterion exactly when the group
permutes its parts transitively, which its part table decides.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import (
    AmbientMismatch,
    CapError,
    NotTransitiveOnParts,
    ValidationError,
    check_cap,
    current_limits,
)
from .groups import MatrixGroup, first_occurrences, key_positions, orbit_labels, packed_keys
from .linalg import (
    SCAN_CHUNK,
    Subspace,
    _check_modulus,
    direct_sum_check,
    divisors,
    echelon_subspace,
    gaussian_binomial,
    invariant_indices,
    mul_mod,
    rref_batch,
    subspace_layout,
)
from .reprs import is_irreducible, restrict_to_block


class ImprimitivitySystem:
    """A direct-sum decomposition whose summand set a group permutes.

    Parts are stored sorted in the canonical subspace order, so system
    equality is set equality of the parts.
    """

    __slots__ = ("ambient", "p", "parts", "_key")

    def __init__(self, parts):
        parts = sorted(parts)
        if len(parts) < 2:
            raise ValidationError("a system needs at least two parts")
        if any(w.rank == 0 for w in parts):
            raise ValidationError("parts must be nonzero")
        # raises AmbientMismatch; nonzero summands of a direct sum are distinct
        if not direct_sum_check(parts):
            raise ValidationError("parts do not decompose the full space")
        self.ambient, self.p = parts[0].ambient, parts[0].p
        self.parts = tuple(parts)
        self._key = tuple(w.key for w in parts)

    @property
    def component_count(self) -> int:
        return len(self.parts)

    @property
    def component_dim(self):
        dims = {w.rank for w in self.parts}
        return dims.pop() if len(dims) == 1 else None

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, ImprimitivitySystem)
            and self.p == other.p
            and self.ambient == other.ambient
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self._key))

    def __lt__(self, other):
        return (self.component_count, self._key) < (
            other.component_count,
            other._key,
        )

    def to_rows(self) -> list[list[list[int]]]:
        return [w.basis.tolist() for w in self.parts]

    def __repr__(self):
        return (
            f"ImprimitivitySystem({self.component_count} parts, "
            f"dim={self.component_dim}, ambient={self.ambient}, p={self.p})"
        )


def subspace_orbit(g: MatrixGroup, w: Subspace) -> list[Subspace]:
    """Closure of {w} under the generator action, in discovery order."""
    seen = {w.key: w}
    frontier = [w]
    while frontier:
        new = []
        for s in frontier:
            for gen in g.gens:
                t = s.apply(gen)
                if t.key not in seen:
                    seen[t.key] = t
                    new.append(t)
        frontier = new
    return list(seen.values())


def image_table(stack: np.ndarray, bases: np.ndarray, p: int) -> np.ndarray:
    """The action of an (m, n, n) stack of matrices on N distinct RREF bases.

    bases is any (N, r, n) stack of distinct RREF bases, zero rows last.
    Entry [s, i] of the (m, N) intp table is the position in bases of the
    image of bases[i] under stack[s], or -1 if no basis is that image.  The
    images are row-reduced SCAN_CHUNK bases at a time (rref_batch) and
    matched by their packed keys against the bases' keys, sorted once.
    """
    count, r, n = bases.shape
    keys = packed_keys(bases, p)
    order = np.argsort(keys)
    keys = keys[order]
    table = np.empty((len(stack), count), dtype=np.intp)
    for start in range(0, count, SCAN_CHUNK):
        chunk = bases[start : start + SCAN_CHUNK].astype(np.int64)
        images = chunk.reshape(len(chunk) * r, n) @ stack % p
        images = rref_batch(images.reshape(len(stack) * len(chunk), r, n), p)
        found = key_positions(keys, order, packed_keys(images, p))
        table[:, start : start + len(chunk)] = found.reshape(len(stack), -1)
    return table


def part_table(g: MatrixGroup, parts) -> np.ndarray:
    """The generators' action on distinct parts, as an (m, k) table.

    Entry [s, i] is the index in parts of the image of parts[i] under the
    s-th generator, or -1 if no part is that image: image_table on the
    parts' bases, padded with zero rows to the largest part's rank (0 for
    no parts).  Raises AmbientMismatch when a part does not live in the
    group's space.
    """
    if any(w.ambient != g.n or w.p != g.p for w in parts):
        raise AmbientMismatch("parts do not match the group's space")
    rank = max((w.rank for w in parts), default=0)
    subs = np.zeros((len(parts), rank, g.n), dtype=np.int64)
    for w, rows in zip(parts, subs):
        rows[: w.rank] = w.basis
    return image_table(g._generator_stack, subs, g.p)


def is_system(g: MatrixGroup, parts) -> bool:
    """True iff the parts form an ImprimitivitySystem that every generator
    permutes; part_table refuses parts outside the group's space, system or not."""
    parts = list(parts)
    table = part_table(g, parts)
    try:
        ImprimitivitySystem(parts)
    except ValidationError:
        return False
    return bool((table >= 0).all())


def _short_cycles(word, layout, target: int) -> np.ndarray:
    """The increasing indices of the layout's subspaces on a word-cycle of at
    most target members, for an (n, n) int64 word with entries in [0, p).

    W lies on such a cycle exactly when W @ word^c <= W for some c with
    target / 2 < c <= target: a cycle of l <= target members has a multiple
    of l in that range, and W @ word^c = W (the word is invertible, so <= is
    =) makes l divide c.  That is the union of one invariance test per power
    (linalg.invariant_indices), not a row reduction and a rank per subspace;
    a power that keeps every subspace, such as a scalar one, ends it.
    """
    powers = list(itertools.accumulate([word] * target, lambda a, b: mul_mod(a, b, layout.p)))
    found = []
    for power in powers[target // 2 :]:
        found.append(invariant_indices(layout, power))
        if len(found[-1]) == layout.offsets[-1]:
            return found[-1]
    kept = np.sort(np.concatenate(found))
    # not np.union1d: under numpy 2.4 its unique() imports numpy.ma, 0.7 MB of RSS
    return kept[np.diff(kept, prepend=-1) != 0]


def _short_orbit_tables(g: MatrixGroup, layout, target: int):
    """Whole orbits of the layout's subspaces that hold every orbit of at
    most target members.

    Returns (subs, tables): subs holds the RREF bases, in index order, of a
    union of whole orbits that contains every orbit of at most target
    members, and tables[k, i] is the position in subs of the image of
    subs[i] under the k-th generator.  A cycle of the word
    w = g_1 * ... * g_m lies inside an orbit, so only subspaces on w-cycles
    of at most target members are kept (_short_cycles), and only they are
    unranked.  The generators map only those (image_table), and a kept
    subspace with an image outside the kept ones (-1) is dropped until none
    is left: an orbit is connected under the generators, so an orbit kept in
    part always has such a member and drains away whole.
    """
    word = functools.reduce(lambda a, b: mul_mod(a, b, g.p), g._generator_stack.astype(np.int64))
    subs = layout.unrank(_short_cycles(word, layout, target))
    pos = image_table(g._generator_stack, subs, layout.p)
    alive = np.ones(len(subs) + 1, dtype=bool)
    alive[-1] = False  # where pos is -1
    while True:
        closed = alive[pos].all(axis=0)
        if np.array_equal(closed, alive[:-1]):
            break
        alive[:-1] = closed
    kept = np.flatnonzero(closed)
    position = np.cumsum(closed) - 1
    return subs[kept], position[pos[:, kept]].astype(np.int32)


def all_systems(g: MatrixGroup, *, stats: dict | None = None) -> list[ImprimitivitySystem]:
    """Every system of imprimitivity of g whose parts form a single orbit.

    For irreducible g the part action of any system is transitive, so this
    is the complete list.  Each candidate dimension solves for the subspaces
    on a short cycle of one word of the generators, and unranks and maps
    under the generators only those (_short_orbit_tables).  Each orbit
    of n/d members is one candidate system, built once; one that is not a
    direct sum fails ImprimitivitySystem's check and is skipped.  Fails
    fast, before anything is allocated, with PhaseCapExceeded ("subspace
    scan") when some candidate dimension has more subspaces than the
    subspace cap, and with a CapError when it has too many for the int32
    positions of the tables.
    """
    n = g.n
    candidate_dims = [d for d in divisors(n) if d < n]
    for d in candidate_dims:
        count = gaussian_binomial(n, d, g.p)
        items = f"subspaces of dimension {d}"
        check_cap("subspace scan", count, items, current_limits().subspaces)
        if count >= 2**31:
            raise CapError(f"subspace scan: {count} {items} exceed the int32 range "
                           "of the subspace tables")
    scanned = 0
    systems = []
    for d in candidate_dims:
        target = n // d
        layout = subspace_layout(n, d, g.p)
        scanned += int(layout.offsets[-1])
        subs, tables = _short_orbit_tables(g, layout, target)
        labels = orbit_labels(tables)
        members = np.flatnonzero(np.bincount(labels)[labels] == target)
        for orbit in members[np.argsort(labels[members], kind="stable")].reshape(-1, target):
            try:
                systems.append(ImprimitivitySystem(echelon_subspace(subs[i], g.p) for i in orbit))
            except ValidationError:  # not a direct sum
                pass
    if stats is not None:
        stats["subspaces_scanned"] = stats.get("subspaces_scanned", 0) + scanned
        stats["systems_found"] = len(systems)
    return sorted(systems)


def is_refinement(delta: ImprimitivitySystem, gamma: ImprimitivitySystem) -> bool:
    """True iff every part of gamma is the direct sum of parts of delta."""
    if delta.ambient != gamma.ambient or delta.p != gamma.p:
        raise AmbientMismatch("systems live in different ambient spaces")
    used = 0
    for w in gamma.parts:
        inside = [z for z in delta.parts if w.contains(z)]
        if sum(z.rank for z in inside) != w.rank:
            return False
        used += len(inside)
    return used == delta.component_count


def nonrefinable(systems) -> list[ImprimitivitySystem]:
    """The systems that no other system in the list properly refines, in
    list order.

    Only systems with more parts are compared (part-count lemma): if delta
    refines gamma, each part of gamma is a sum of parts of delta, and no part
    of delta lies in two parts of gamma, which meet only in 0; so delta has
    at least as many parts as gamma, and as many only when delta = gamma.
    Systems from different spaces raise AmbientMismatch, whatever their part
    counts.
    """
    if len({(s.ambient, s.p) for s in systems}) > 1:
        raise AmbientMismatch("systems live in different ambient spaces")
    return [
        gamma
        for gamma in systems
        if not any(delta.component_count > gamma.component_count
                   and is_refinement(delta, gamma) for delta in systems)
    ]


def nonrefinable_systems(g: MatrixGroup, *,
                         stats: dict | None = None) -> list[ImprimitivitySystem]:
    """Systems admitting no proper refinement among all enumerated systems."""
    return nonrefinable(all_systems(g, stats=stats))


def _transitive_part_table(g: MatrixGroup, parts) -> np.ndarray:
    """part_table of parts that g permutes transitively; raises
    NotTransitiveOnParts when the list is empty, the generators map a part
    outside it or it holds several orbits."""
    if not len(parts):
        raise NotTransitiveOnParts("there are no parts to permute")
    table = part_table(g, parts)
    if (table < 0).any():
        raise NotTransitiveOnParts("the group does not permute the parts")
    if orbit_labels(table).any():
        raise NotTransitiveOnParts("the parts fall into several orbits")
    return table


def part_stabilizer_elements(g: MatrixGroup, parts) -> np.ndarray:
    """Generators of the stabilizer of parts[0] in g, as one (s, n, n) stack.

    parts is the whole orbit of parts[0], in any order; NotTransitiveOnParts
    is raised when the list is empty, the generators map a part outside it
    or it holds several orbits.  Not the stabilizer's elements: its Schreier
    generators, at most |parts| * |gens| of them whatever |G| is.  Each part
    x is reached along the part table by a transversal element u_x that maps
    parts[0] to it; the products u_x s u_(x s)^-1, over every part x and
    generator s, generate the stabilizer (Schreier's lemma).  They are formed
    in one batched product and kept once each, parts in breadth-first order
    and generators within a part, the identity only if nothing else is left.
    """
    table = _transitive_part_table(g, parts)
    p, n, eye = g.p, g.n, np.eye(g.n, dtype=np.int64)
    gens = g._generator_stack
    trans, trans_inv = np.tile(eye, (2, len(parts), 1, 1))
    reached = [0]
    for x in reached:
        for s, y in enumerate(table[:, x]):
            if y not in reached:
                reached.append(y)
                trans[y] = trans[x] @ gens[s] % p
                trans_inv[y] = g.inverse_stack[s] @ trans_inv[x] % p
    products = trans[reached, None] @ gens % p @ trans_inv[table.T[reached]] % p
    stack = products.reshape(-1, n, n)
    moving = (stack != eye).any(axis=(1, 2))
    stack = stack[moving] if moving.any() else stack[:1]
    return stack[first_occurrences(stack, p)]


def nonrefinable_via_stabilizer(g: MatrixGroup, gamma: ImprimitivitySystem) -> bool:
    """Stabilizer criterion: the part stabilizer acts primitively on a part.

    Requires the group to permute the parts transitively; rejects systems
    with several part orbits rather than guessing a convention for them.
    Any group on a part of rank 1 is irreducible and primitive, so a system
    of lines is decided by that transitivity alone, read off its part table.
    Otherwise the stabilizer enters through its Schreier generators only;
    the restriction to the part and the primitivity test both work from
    generators.
    """
    if gamma.parts[0].rank == 1:
        _transitive_part_table(g, gamma.parts)
        return True
    stab = part_stabilizer_elements(g, gamma.parts)
    return is_primitive_linear(restrict_to_block(stab, gamma.parts[0]))


def is_primitive_linear(g: MatrixGroup) -> bool:
    """Irreducible with no system of imprimitivity (degree 1 is primitive)."""
    return is_irreducible(g) and not all_systems(g)


def coordinate_system(n: int, d: int, p: int) -> ImprimitivitySystem:
    """The standard decomposition into consecutive d-coordinate blocks, each
    identity block already the RREF basis of its part."""
    if d < 1 or n % d != 0 or n // d < 2:
        raise ValidationError(f"{d} does not split dimension {n} into blocks")
    eye, p = np.eye(n, dtype=np.int64), _check_modulus(p)
    return ImprimitivitySystem(echelon_subspace(eye[i : i + d], p) for i in range(0, n, d))
