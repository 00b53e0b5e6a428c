"""Wreath products H wr K as explicit matrix groups, and the exceptional
census of their line systems.

The generators of H are embedded at one block of each K-orbit (its
smallest), next to the block permutations of K.  A block permutation
conjugates the copy of H at block i to the copy at its image, so the copies
at every block of that orbit lie in the group, and the closure is exactly
H^k extended by K: one copy per orbit, not one per block, is enough.  The
order |H|^k * |K| then certifies the construction.  In the exceptional shape
(1-dimensional blocks, |H| = 2, even degree, K preserving a pair partition)
the nonrefinable systems are classified by the invariant pair partitions of
K together with a scalar whose square is +-1.  check_hypotheses decides the
hypotheses and the shape once and builds that census explicitly, so an
exhaustive scan can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, NotExceptional
from .groups import BlockSystem, MatrixGroup, PermGroup, block_systems, primitive_root
from .imprim import ImprimitivitySystem, all_systems, coordinate_system
from .linalg import echelon_subspace
from .reprs import is_irreducible


@dataclass(frozen=True)
class WreathSpec:
    """Block group h of degree d and point group k on k points; n = d*k."""

    h: MatrixGroup
    k: PermGroup

    @property
    def block_dim(self) -> int:
        return self.h.n

    @property
    def block_count(self) -> int:
        return self.k.degree

    @property
    def degree(self) -> int:
        return self.h.n * self.k.degree

    @property
    def p(self) -> int:
        return self.h.p


def embed_at_block(stack: np.ndarray, block: int, count: int) -> np.ndarray:
    """An (m, d, d) stack of matrices, each put on the given one of count
    d-dimensional blocks, with the identity on the other blocks."""
    d = stack.shape[1]
    out = np.tile(np.eye(d * count, dtype=np.int64), (len(stack), 1, 1))
    out[:, block * d : (block + 1) * d, block * d : (block + 1) * d] = stack
    return out


def wreath_product(spec: WreathSpec) -> MatrixGroup:
    """H wr K as a matrix group of degree d*k over GF(p).

    H's generators sit at the smallest block of each K-orbit, with H's
    stored inverses at the same block.  K's generator stack becomes its
    block permutation matrices in one product, kron(P, I_d) for the
    permutation matrices P (row i the basis vector of i's image), which
    send the coordinates of block i to block g(i); their inverses are their
    transposes, so no matrix is inverted by elimination.  Every generator
    lies in H wr K, so |H|^k * |K| bounds the group's order; |H| and |K| are
    read only when the listing rule first asks for that bound.
    """
    d, k, h = spec.block_dim, spec.block_count, spec.h
    blocks = spec.k.orbit_representatives()
    perms = np.kron(np.eye(k, dtype=np.int64)[spec.k._generator_stack], np.eye(d, dtype=np.int64))
    gens = [embed_at_block(h._generator_stack, i, k) for i in blocks]
    inverses = [embed_at_block(h.inverse_stack, i, k) for i in blocks]
    return MatrixGroup.from_stacks(np.concatenate([*gens, perms]),
                                   np.concatenate([*inverses, perms.transpose(0, 2, 1)]), spec.p,
                                   order_bound=lambda: h.order**k * spec.k.order)


@dataclass
class ExceptionalCensus:
    """Predicted nonrefinable line systems of an exceptional wreath product."""

    p: int
    pair_systems: list[BlockSystem]
    lambdas: list[int]
    systems: list[ImprimitivitySystem] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.systems)


def _lambda_classes(p: int) -> list[int]:
    """Scalars with square +-1, one per {x, -x} class, smallest member."""
    out = [1]
    if p % 4 == 1:  # a primitive root to the power (p - 1)/4 squares to -1
        root = pow(primitive_root(p), (p - 1) // 4, p)
        out.append(min(root, p - root))
    return out


def _census(spec: WreathSpec, pair_systems: list[BlockSystem]) -> ExceptionalCensus:
    """Standard line system plus one system per (pair partition, scalar).

    For a pair partition {{a,b}, ...} and a scalar s with s^2 = +-1 the
    system has parts <e_a + s e_b> and <e_a - s e_b> for every pair; s and
    -s give the same system, so one representative per class is used and
    the result is deduplicated defensively.  Blocks are sorted, so a < b and
    each spanning row is already in reduced echelon form.
    """
    n, p = spec.degree, spec.p
    lambdas = _lambda_classes(p)
    eye = np.eye(n, dtype=np.int64)
    found = {}
    standard = coordinate_system(n, 1, p)
    found[standard.key] = standard
    for partition in pair_systems:
        for lam in lambdas:
            system = ImprimitivitySystem(
                echelon_subspace((eye[a : a + 1] + sign * lam * eye[b]) % p, p)
                for a, b in partition.blocks for sign in (1, -1))
            found.setdefault(system.key, system)
    return ExceptionalCensus(
        p=p,
        pair_systems=pair_systems,
        lambdas=lambdas,
        systems=sorted(found.values()),
    )


def check_hypotheses(spec: WreathSpec) -> ExceptionalCensus | None:
    """Decide the uniqueness-statement hypotheses and the exceptional shape.

    Raises HypothesisViolation naming the first hypothesis that fails.
    Returns the census of the exceptional shape (d = 1, even point degree,
    |H| = 2, K preserving a pair partition), or None outside it.  The
    primitivity scan of H counts against the subspace cap of errors.limits;
    its irreducibility is decided by linear algebra, with no cap.
    """
    if spec.block_count < 2:
        raise HypothesisViolation("k > 1")
    if spec.h.order < 2:
        raise HypothesisViolation("H nontrivial")
    if not is_irreducible(spec.h):
        raise HypothesisViolation("H irreducible")
    if all_systems(spec.h):
        raise HypothesisViolation("H primitive")
    if not spec.k.is_transitive():
        raise HypothesisViolation("K transitive")
    if spec.block_dim != 1 or spec.block_count % 2 != 0 or spec.h.order != 2:
        return None
    pair_systems = block_systems(spec.k, 2)
    return _census(spec, pair_systems) if pair_systems else None


def is_exceptional(spec: WreathSpec) -> bool:
    """d = 1, even point degree, |H| = 2, and K preserves a pair partition."""
    return check_hypotheses(spec) is not None


def expected_exceptional_systems(spec: WreathSpec) -> ExceptionalCensus:
    """The census of an exceptional instance; NotExceptional otherwise."""
    census = check_hypotheses(spec)
    if census is None:
        raise NotExceptional("instance is not in the exceptional shape")
    return census
