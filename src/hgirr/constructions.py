"""Hypergraph families, blow-ups, direct products, and seeded random generators.

Every generator is a deterministic function of its parameters and seed, so
fuzz runs are replayable. ``seed`` arguments accept anything
``numpy.random.default_rng`` does, including an existing Generator.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import HypergraphError, Partition, UniformHypergraph, build

__all__ = [
    "blow_up",
    "complete_r_partite",
    "direct_product",
    "random_r_partite",
    "random_uniform",
    "single_edge",
]


def single_edge(r: int) -> UniformHypergraph:
    """The r-uniform hypergraph on r vertices with the single edge 1..r."""
    if r < 2:
        raise HypergraphError(f"rank must be at least 2, got r={r}")
    return build(r, r, [tuple(range(1, r + 1))])


def _class_blocks(sizes: Sequence[int]) -> list[range]:
    blocks = []
    offset = 0
    for s in sizes:
        blocks.append(range(offset + 1, offset + s + 1))
        offset += s
    return blocks


def _class_layout(sizes: Sequence[int]) -> tuple[tuple[int, ...], list[range], Partition]:
    """Consecutive vertex classes of the given sizes: class i occupies the ids
    following class i-1. Returns the sizes as ints, the id block of each
    class and the partition."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise HypergraphError(f"need at least 2 classes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise HypergraphError(f"every class must be nonempty, got sizes {list(sizes)}")
    class_of = tuple(c for c, s in enumerate(sizes, 1) for _ in range(s))
    return sizes, _class_blocks(sizes), Partition(class_of, len(sizes))


def complete_r_partite(
    sizes: Sequence[int],
) -> tuple[UniformHypergraph, Partition]:
    """All transversal edges over consecutive vertex classes of the given sizes.

    Class i occupies the ids following class i-1, so vertex 1..n_1 is class 1
    and so on. Returns the hypergraph and its defining partition.
    """
    sizes, blocks, P = _class_layout(sizes)
    edges = [tuple(t) for t in itertools.product(*blocks)]
    return build(len(sizes), sum(sizes), edges), P


def blow_up(
    H: UniformHypergraph, k: int | Sequence[int]
) -> UniformHypergraph:
    """Replace vertex i by a set of k_i copies and each edge by all its transversals.

    ``k`` may be a single positive integer (uniform blow-up) or one positive
    integer per vertex. With uniform k the result has k*n vertices and
    k**r * m edges.
    """
    if isinstance(k, (int, np.integer)):
        kvec = (int(k),) * H.n
    else:
        kvec = tuple(int(x) for x in k)
        if len(kvec) != H.n:
            raise HypergraphError(
                f"need one multiplicity per vertex: got {len(kvec)} for n={H.n}"
            )
    if any(x < 1 for x in kvec):
        raise HypergraphError(f"multiplicities must be positive, got {list(kvec)}")
    blocks = _class_blocks(kvec)
    edges = []
    for edge in H.edges:
        edges.extend(tuple(t) for t in itertools.product(*(blocks[v - 1] for v in edge)))
    return build(H.r, sum(kvec), edges)


def direct_product(
    H1: UniformHypergraph, H2: UniformHypergraph
) -> UniformHypergraph:
    """Direct product on vertex pairs, flattened row-major: (i, j) -> (i-1)*n2 + j.

    An r-set of pairs is an edge exactly when both coordinate projections are
    edges; each pair of edges contributes one edge per alignment of the two,
    r! in total, so m = r! * m1 * m2.
    """
    if H1.r != H2.r:
        raise HypergraphError(f"rank mismatch: {H1.r} vs {H2.r}")
    n2 = H2.n
    edges = set()
    for e1 in H1.edges:
        for e2 in H2.edges:
            for aligned in itertools.permutations(e2):
                edges.add(
                    tuple(sorted((i - 1) * n2 + j for i, j in zip(e1, aligned)))
                )
    return build(H1.r, H1.n * n2, sorted(edges))


def _sample_distinct(rng: np.random.Generator, draw, want: int) -> set:
    """Rejection-sample ``want`` distinct items; caller keeps want at or below
    half the universe so the expected number of draws stays linear."""
    chosen: set = set()
    while len(chosen) < want:
        chosen.add(draw(rng))
    return chosen


def random_uniform(
    n: int, m: int, r: int, seed
) -> UniformHypergraph:
    """m distinct edges drawn uniformly without replacement from all r-subsets.

    Uses rejection sampling of sorted r-subsets; when m exceeds half the
    total count it samples the complement instead so the expected number of
    draws stays bounded.
    """
    if r < 2 or n < r:
        raise HypergraphError(f"invalid parameters n={n}, r={r}")
    total = math.comb(n, r)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, C({n},{r})={total}]")
    rng = np.random.default_rng(seed)

    def draw(g: np.random.Generator):
        return tuple(sorted(g.choice(n, size=r, replace=False) + 1))

    if m <= total // 2:
        chosen = _sample_distinct(rng, draw, m)
    else:
        excluded = _sample_distinct(rng, draw, total - m)
        chosen = {
            e for e in itertools.combinations(range(1, n + 1), r) if e not in excluded
        }
    return build(r, n, sorted(chosen))


def random_r_partite(
    sizes: Sequence[int], m: int, seed
) -> tuple[UniformHypergraph, Partition]:
    """m distinct transversal edges drawn uniformly over the given class sizes."""
    sizes, blocks, P = _class_layout(sizes)
    total = math.prod(sizes)
    if not 0 <= m <= total:
        raise HypergraphError(f"m={m} outside [0, {total}]")
    rng = np.random.default_rng(seed)

    def draw(g: np.random.Generator):
        return int(g.integers(0, total))

    if m <= total // 2:
        codes = _sample_distinct(rng, draw, m)
    else:
        excluded = _sample_distinct(rng, draw, total - m)
        codes = set(range(total)) - excluded

    edges = []
    for code in sorted(codes):
        edge = []
        for s, block in zip(sizes, blocks):
            edge.append(block[code % s])
            code //= s
        edges.append(tuple(edge))
    return build(len(sizes), sum(sizes), edges), P
