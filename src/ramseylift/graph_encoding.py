"""Encoding of linearly ordered graphs into the parameter-word category.

The family (see :mod:`~ramseylift.subset_encoding`) is each vertex alone,
then the edges in clex order, so n vertices and m edges encode to n+m.  The
target, never materialized, is the graph on subsets of {1..N} where two
subsets are adjacent iff they intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import subset_encoding as SE
from .orders import sort_subsets
from .structures import Embedding, LinOrderedGraph, _memo_recent
from .words import ParameterWord


@dataclass(frozen=True)
class GraphEncoding(SE.SubsetEncoding):
    graph: LinOrderedGraph
    edge_order: tuple[frozenset, ...]  # edges sorted by clex over the vertex order

    structure = property(lambda self: self.graph)

    @cached_property
    def family(self) -> tuple[frozenset, ...]:
        return tuple(frozenset([v]) for v in self.graph.universe) + self.edge_order

    @staticmethod
    def related(a, b) -> bool:
        """Adjacency in the target: the subsets meet."""
        return bool(a & b)


@_memo_recent
def encode_graph(g: LinOrderedGraph) -> GraphEncoding:
    """Fix the canonical edge order and the encoded object size n+m."""
    return GraphEncoding(g, tuple(sort_subsets(g.order, "clex", g.edges)))


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
