"""Encoding of linearly ordered graphs into the parameter-word category.

The family (see :mod:`~ramseylift.subset_encoding`) is each vertex alone,
then the edges in clex order, so n vertices and m edges encode to n+m.  The
target, never materialized, is the graph on subsets of {1..N} where two
subsets are adjacent iff they intersect.

An encoding is ``GraphEncoding(structure, members)``: the vertex bits, then
the edge masks in clex order.  ``edge_order`` (the graph's own edges in that
order) and ``family`` are views for output.
"""

from __future__ import annotations

from . import subset_encoding as SE
from .structures import Embedding, LinOrderedGraph, _memo_recent
from .words import ParameterWord


class GraphEncoding(SE.SubsetEncoding):
    @property
    def edge_order(self) -> tuple[frozenset, ...]:
        """The graph's edges sorted by clex over the vertex order."""
        g = self.structure
        rank = g.order.rank_map
        by_mask = {sum(1 << rank[x] for x in e): e for e in g.edges}
        return tuple(by_mask[m] for m in self.members[len(rank):])

    @property
    def family(self) -> tuple[frozenset, ...]:
        return tuple(frozenset([v]) for v in self.structure.universe) + self.edge_order

    @staticmethod
    def related(a, b) -> bool:
        """Adjacency in the target: the subsets meet."""
        return bool(a & b)


@_memo_recent
def encode_graph(g: LinOrderedGraph) -> GraphEncoding:
    """Fix the canonical edge order and the encoded object size n+m.

    Each edge's rank mask is built with its lex key, in which rank 0 is the
    highest bit; clex is decreasing lex key, and distinct edges have
    distinct keys, so the order does not depend on how the edge set
    iterates.  An edge vertex outside the base order raises a
    :class:`DomainError`; an edge of the raw constructor that does not have
    two vertices encodes like any other subset."""
    order = g.order
    rank, n = order.rank_map, len(order)
    keyed = []
    for e in g.edges:
        mask = key = 0
        for x in e:
            r = rank[x] if x in rank else order.rank(x)
            mask |= 1 << r
            key |= 1 << n - 1 - r
        keyed.append((key, mask))
    keyed.sort(reverse=True)
    return GraphEncoding(g, tuple([1 << r for r in range(n)] + [m for _, m in keyed]))


def phi_graph(g: LinOrderedGraph, u: ParameterWord) -> dict:
    """The vertex map v_i -> X_i union (X_{n+j} over edges e_j containing v_i);
    verifies that images meet exactly for adjacent vertices and strictly
    increase in the clex order."""
    return SE.phi(encode_graph(g), u)


def witness_graph(
    g: LinOrderedGraph, g2: LinOrderedGraph, f: Embedding, u: ParameterWord
) -> ParameterWord:
    """The word h with u.h encoding exactly the f-image of the smaller graph
    (see :func:`~ramseylift.subset_encoding.witness`)."""
    return SE.witness(encode_graph(g), encode_graph(g2), f, u)


def graph_on_subsets(n: int, subsets) -> LinOrderedGraph:
    """The graph on the given subsets of {1..n}: adjacency is nonempty
    intersection, vertex order is clex."""
    elems, rows = SE.on_subsets(n, subsets, GraphEncoding.related)
    return LinOrderedGraph.build(elems, [(a, elems[q]) for r, a in enumerate(elems)
                                         for q in range(r + 1, len(elems)) if rows[r] >> q & 1])


def powerset_graph(n: int) -> LinOrderedGraph:
    """The full subset graph on {1..n}; 2^n vertices, so keep n small."""
    return graph_on_subsets(n, SE.powerset(n))
