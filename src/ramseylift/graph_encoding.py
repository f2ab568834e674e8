"""Encoding of linearly ordered graphs into the parameter-word category.

The family (see :mod:`~ramseylift.subset_encoding`) is each vertex alone,
then the edges in clex order, so n vertices and m edges encode to n+m.  The
target, never materialized, is the graph on subsets of {1..N} where two
subsets are adjacent iff they intersect.

An encoding is ``GraphEncoding(structure, members)``: the vertex bits, then
the edge masks in clex order.  ``edge_order`` (the graph's edges in that
order, as sets of universe vertices) and ``family`` are views for output.
"""

from __future__ import annotations

from . import subset_encoding as SE
from .structures import Embedding, LinOrderedGraph, _members, _memo_recent
from .words import ParameterWord


class GraphEncoding(SE.SubsetEncoding):
    @property
    def edge_order(self) -> tuple[frozenset, ...]:
        """The graph's edges sorted by clex over the vertex order, each as a
        set of the universe's vertices."""
        universe = self.structure.universe
        return tuple(_members(universe, m) for m in self.members[len(universe):])

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

    The edges come off the graph's adjacency rows (``rows``) by lower rank,
    then upper rank, which is clex: in an edge's lex key rank 0 is the
    highest bit, and clex is decreasing lex key."""
    members = [1 << r for r in range(len(g.rows))]
    for r, row in enumerate(g.rows):
        later = row >> r + 1 << r + 1
        while later:
            low = later & -later
            members.append(1 << r | low)
            later ^= low
    return GraphEncoding(g, tuple(members))


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
    return LinOrderedGraph.from_rows(elems, [row & ~(1 << r) for r, row in enumerate(rows)])


def powerset_graph(n: int) -> LinOrderedGraph:
    """The full subset graph on {1..n}; 2^n vertices, so keep n small."""
    return graph_on_subsets(n, SE.powerset(n))
