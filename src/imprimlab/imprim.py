"""Systems of imprimitivity: enumeration, refinement order, nonrefinability.

all_systems is the exhaustive scan of the package.  For every proper
divisor d of n it enumerates every d-dimensional subspace once, as the
(N, d, n) RREF stack of linalg.subspace_array, in the order
linalg.subspace_layout defines.  A subspace on a cycle of more than n/d
members under the word w = g_1 * ... * g_m of the generators lies in no
system, since a w-cycle lies inside an orbit.  Which subspaces lie on short
w-cycles is decided for the whole stack by invariance under a few powers
of w (linalg.invariance_table), with no row reduction.  The generators are
turned into permutation tables (linalg.subspace_tables) only on the rest:
their images are row-reduced in batch (linalg.rref_batch) and ranked in the
stack's order, and a remaining subspace with a generator image outside the
rest is dropped until none is left, which drains every orbit kept in part.
Orbits come from min-label propagation over the tables
(groups.orbit_labels), and the orbits of size n/d that decompose the space
into a direct sum are the systems.  Orbits of a transitive part action are
exactly the systems, so every system is found once.

Memory: the stack is stored in the smallest integer dtype that holds p - 1
and the tables as int32; only chunks of linalg.SCAN_CHUNK subspaces are
widened to int64.  Before anything is allocated, the count of each
dimension is checked against the subspace cap of errors.limits (phase
"subspace scan") and against int32, which the tables' indices must fit.
The tests check the scan against one subspace_orbit (a plain breadth-first
search, with no caller here) per unvisited subspace.

A list of parts is acted on through one part table (part_table: for every
generator, the index of the part each part is sent to, or -1), the
package's only action on single subspaces.  is_system reads it, and the
stabilizer criterion builds its transversal along it.  Nonrefinability is
decided by two independent routes: brute force (no other enumerated system
properly refines it) and the stabilizer criterion (the setwise stabilizer
of a part acts irreducibly and primitively on it).
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import (
    AmbientMismatch,
    CapError,
    NotTransitiveOnParts,
    ValidationError,
    check_cap,
    current_limits,
)
from .groups import MatrixGroup, byte_keys, orbit_labels
from .linalg import (
    Subspace,
    direct_sum_check,
    divisors,
    echelon_subspace,
    gaussian_binomial,
    invariance_table,
    subspace_array,
    subspace_tables,
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
        ambient, p = parts[0].ambient, parts[0].p
        for w in parts:
            if w.ambient != ambient or w.p != p:
                raise AmbientMismatch("parts live in different ambient spaces")
        if len({w.key for w in parts}) != len(parts):
            raise ValidationError("parts must be pairwise distinct")
        if not direct_sum_check(parts):
            raise ValidationError("parts do not decompose the full space")
        self.ambient = ambient
        self.p = p
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


def part_table(g: MatrixGroup, parts) -> np.ndarray:
    """The generators' action on a list of parts, as an (m, k) table.

    Entry [s, i] is the index in parts of the image of parts[i] under the
    s-th generator, or -1 when that image is not one of the parts.
    """
    index = {w.key: i for i, w in enumerate(parts)}
    return np.array([[index.get(w.apply(s).key, -1) for w in parts] for s in g.gens],
                    dtype=np.intp)


def is_system(g: MatrixGroup, parts) -> bool:
    """True iff the parts decompose V and every generator permutes them."""
    parts = list(parts)
    if not parts:
        raise ValidationError("no parts given")
    for w in parts:
        if w.ambient != g.n or w.p != g.p:
            raise AmbientMismatch("parts do not match the group's space")
    if len(parts) < 2 or not direct_sum_check(parts):
        return False
    if len({w.key for w in parts}) != len(parts):
        return False
    return bool((part_table(g, parts) >= 0).all())


def _short_cycles(word, subs: np.ndarray, p: int, target: int) -> np.ndarray:
    """Which subspaces of subs lie on a word-cycle of at most target members.

    W lies on such a cycle exactly when W @ word^c <= W for some c with
    target / 2 < c <= target: a cycle of l <= target members has a multiple
    of l in that range, and W @ word^c = W (the word is invertible, so <= is
    =) makes l divide c.  That is one invariance test per power
    (linalg.invariance_table), not a row reduction and a rank per subspace.
    """
    powers = list(itertools.accumulate([word] * target, operator.mul))
    return invariance_table(subs, powers[target // 2 :], p).any(axis=0)


def _short_orbit_tables(gens, subs: np.ndarray, p: int, target: int):
    """Whole orbits of subs that hold every orbit of at most target members.

    Returns (keep, tables): keep holds, in increasing order, the indices in
    subs of a union of whole orbits that contains every orbit of at most
    target members, and tables[k, i] is the position in keep of the image of
    subs[keep[i]] under gens[k].  A cycle of the word w = gens[0] * ... *
    gens[-1] lies inside an orbit, so only subspaces on w-cycles of at most
    target members are kept (_short_cycles).  The generators rank only those,
    and a kept subspace with an image outside the kept ones is dropped until
    none is left: an orbit is connected under the generators, so an orbit
    kept in part always has such a member and drains away whole.
    subspace_tables ranks each image in the order of the whole subspace_array
    stack, also for the rows subs[keep], so the images are indices in subs.
    """
    word = functools.reduce(operator.mul, gens)
    keep = np.flatnonzero(_short_cycles(word, subs, p, target))
    images = subspace_tables(gens, subs[keep], p)
    # the position of each image in keep, or len(keep) when it is not kept
    pos = np.searchsorted(keep, images)
    pos[keep[np.minimum(pos, len(keep) - 1)] != images] = len(keep)
    alive = np.ones(len(keep) + 1, dtype=bool)
    alive[-1] = False
    while True:
        closed = alive[pos].all(axis=0)
        if np.array_equal(closed, alive[:-1]):
            break
        alive[:-1] = closed
    kept = np.flatnonzero(closed)
    position = np.cumsum(closed) - 1
    return keep[kept], position[pos[:, kept]].astype(np.int32)


def all_systems(g: MatrixGroup, *, stats: dict | None = None) -> list[ImprimitivitySystem]:
    """Every system of imprimitivity of g whose parts form a single orbit.

    For irreducible g the part action of any system is transitive, so this
    is the complete list.  Each candidate dimension tests every subspace for
    a short cycle of one word of the generators, and ranks the generators'
    images only of the subspaces that have one (_short_orbit_tables).  Fails
    fast, before anything is allocated, with PhaseCapExceeded ("subspace
    scan") when some candidate dimension has more subspaces than the
    subspace cap, and with a CapError when it has too many to index in int32
    tables.
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
        subs = subspace_array(n, d, g.p)
        scanned += len(subs)
        keep, tables = _short_orbit_tables(g.gens, subs, g.p, target)
        labels = orbit_labels(tables)
        members = np.flatnonzero(np.bincount(labels)[labels] == target)
        orbits = keep[members[np.argsort(labels[members], kind="stable")]]
        for orbit in orbits.reshape(-1, target):
            parts = [echelon_subspace(subs[i], g.p) for i in orbit]
            if direct_sum_check(parts):
                systems.append(ImprimitivitySystem(parts))
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
    """The systems that no other system in the list properly refines."""
    return [
        gamma
        for gamma in systems
        if not any(delta != gamma and is_refinement(delta, gamma) for delta in systems)
    ]


def nonrefinable_systems(g: MatrixGroup, *,
                         stats: dict | None = None) -> list[ImprimitivitySystem]:
    """Systems admitting no proper refinement among all enumerated systems."""
    return nonrefinable(all_systems(g, stats=stats))


def part_stabilizer_elements(g: MatrixGroup, parts) -> np.ndarray:
    """Generators of the stabilizer of parts[0] in g, as one (s, n, n) stack.

    parts is the whole orbit of parts[0], in any order; NotTransitiveOnParts
    is raised when the generators map a part outside the list or the list
    holds several orbits.  Not the stabilizer's elements: its Schreier
    generators, at most |parts| * |gens| of them whatever |G| is.  Each part
    x is reached along the part table by a transversal element u_x that maps
    parts[0] to it; the products u_x s u_(x s)^-1, over every part x and
    generator s, generate the stabilizer (Schreier's lemma).  They are formed
    in one batched product and kept once each, parts in breadth-first order
    and generators within a part, the identity only if nothing else is left.
    """
    table = part_table(g, parts)
    if (table < 0).any():
        raise NotTransitiveOnParts("the group does not permute the parts")
    if orbit_labels(table).any():
        raise NotTransitiveOnParts("the parts fall into several orbits")
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
    _, first = np.unique(byte_keys(stack), return_index=True)
    return stack[np.sort(first)]


def nonrefinable_via_stabilizer(g: MatrixGroup, gamma: ImprimitivitySystem) -> bool:
    """Stabilizer criterion: the part stabilizer acts primitively on a part.

    Requires the group to permute the parts transitively; rejects systems
    with several part orbits rather than guessing a convention for them.
    The stabilizer enters through its Schreier generators only; the
    restriction to the part and the primitivity test both work from
    generators.
    """
    stab = part_stabilizer_elements(g, gamma.parts)
    return is_primitive_linear(restrict_to_block(stab, gamma.parts[0]))


def is_primitive_linear(g: MatrixGroup) -> bool:
    """Irreducible with no system of imprimitivity (degree 1 is primitive)."""
    return is_irreducible(g) and not all_systems(g)


def coordinate_system(n: int, d: int, p: int) -> ImprimitivitySystem:
    """The standard decomposition into consecutive d-coordinate blocks."""
    if n % d != 0 or n // d < 2:
        raise ValidationError(f"{d} does not split dimension {n} into blocks")
    eye = np.eye(n, dtype=np.int64)
    parts = [
        Subspace.span(eye[i * d : (i + 1) * d], n, p) for i in range(n // d)
    ]
    return ImprimitivitySystem(parts)
