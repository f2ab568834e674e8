"""Encoding of linearly ordered graphs into the parameter-word category.

A graph with n vertices and m edges is encoded as the object n+m; a word u
with n+m parameters yields an embedding of the graph into the graph on
subsets of {1..N} where two subsets are adjacent iff they intersect, ordered
by the complemented lexicographic order.  The target graph is never
materialized: adjacency and order are evaluated pointwise on images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, VerificationError
from .orders import BaseOrder, sort_subsets, subset_key
from .structures import LinOrderedGraph, Embedding, _memo_recent
from .words import ParameterWord, compose, letter_token, validate, variable_positions


@dataclass(frozen=True)
class GraphEncoding:
    graph: LinOrderedGraph
    edge_order: tuple[frozenset, ...]  # edges sorted by clex over the vertex order

    @property
    def object(self) -> int:
        return len(self.graph.universe) + len(self.edge_order)


@_memo_recent
def encode_graph(g: LinOrderedGraph) -> GraphEncoding:
    """Fix the canonical edge order and the encoded object size n+m."""
    return GraphEncoding(g, tuple(sort_subsets(g.order, "clex", g.edges)))


def phi_graph(g: LinOrderedGraph, u: ParameterWord) -> dict:
    """The vertex map v_i -> X_i union (X_{n+j} over edges e_j containing v_i).

    Requires ``u`` to have exactly n+m parameters.  Verifies on the spot
    that images intersect exactly for adjacent vertices and that they are
    strictly increasing in the clex order, i.e. that the map is an
    embedding into the subset graph on {1..N}.
    """
    enc = encode_graph(g)
    n = len(g.universe)
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the graph encodes to object {enc.object}"
        )
    parts = [variable_positions(u, i) for i in range(1, u.m + 1)]
    images = {}
    for i, v in enumerate(g.universe):
        img = set(parts[i])
        for j, e in enumerate(enc.edge_order):
            if v in e:
                img |= parts[n + j]
        images[v] = frozenset(img)
    positions = BaseOrder(range(1, u.n + 1))
    key = {v: subset_key(positions, "clex", img) for v, img in images.items()}
    for a, b in itertools.combinations(g.universe, 2):
        adjacent = frozenset((a, b)) in g.edges
        if bool(images[a] & images[b]) != adjacent:
            raise VerificationError(
                f"images of {a!r},{b!r} {'miss' if adjacent else 'hit'} each other"
            )
        if not key[a] < key[b]:
            raise VerificationError(f"images of {a!r},{b!r} are not clex-increasing")
    return images


def witness_graph(
    g: LinOrderedGraph, g2: LinOrderedGraph, f: Embedding, u: ParameterWord
) -> ParameterWord:
    """The word h with u.h encoding exactly the f-image of the smaller graph.

    Edge parts first: the (p+j)-th block is the intersection of the images
    of the endpoints of the j-th edge of ``g2``; vertex blocks are what is
    left of each vertex image.  ``h`` sends the l-th variable slot of ``u``
    to ``x_i`` when the l-th block of ``u`` lies inside block i, and to a
    letter otherwise.  The result is validated as a parameter word and the
    factorization ``phi(g, u) after f == phi(g2, u.h)`` is checked exactly.
    """
    if f.source != g2 or f.target != g:
        raise DomainError("witness requires an embedding of the second graph into the first")
    if not u.alphabet.letters:
        raise DomainError("witness construction needs at least one letter for the blanks")
    u_hat = phi_graph(g, u)
    enc2 = encode_graph(g2)
    p = len(g2.universe)
    q = len(enc2.edge_order)
    blocks: list[frozenset] = [frozenset()] * (p + q)
    for j, e in enumerate(enc2.edge_order):
        vi, vk = sorted(e, key=g2.order.rank)
        blocks[p + j] = u_hat[f(vi)] & u_hat[f(vk)]
    edge_union = frozenset().union(*blocks[p:]) if q else frozenset()
    for i, v in enumerate(g2.universe):
        blocks[i] = u_hat[f(v)] - edge_union
    blank = letter_token(0)
    symbols = []
    for l in range(1, u.m + 1):
        part = variable_positions(u, l)
        hit = [i for i, blk in enumerate(blocks) if part <= blk]
        symbols.append(hit[0] + 1 if hit else blank)
    h = validate(symbols, u.alphabet, p + q)
    check = phi_graph(g2, compose(u, h))
    for v in g2.universe:
        if check[v] != u_hat[f(v)]:
            raise VerificationError(
                f"factorization fails at vertex {v!r}: {sorted(check[v])} vs {sorted(u_hat[f(v)])}"
            )
    return h


def graph_on_subsets(n: int, subsets) -> LinOrderedGraph:
    """The graph on the given subsets of {1..n}: adjacency is nonempty
    intersection, vertex order is clex."""
    positions = BaseOrder(range(1, n + 1))
    verts = sort_subsets(positions, "clex", subsets)
    edges = [
        (a, b) for a, b in itertools.combinations(verts, 2) if a & b
    ]
    return LinOrderedGraph.build(verts, edges)


def powerset_graph(n: int, include_empty: bool = True) -> LinOrderedGraph:
    """The full subset graph on {1..n}; 2^n vertices, so keep n small."""
    base = list(range(1, n + 1))
    subsets = [
        frozenset(c) for r in range(0 if include_empty else 1, n + 1)
        for c in itertools.combinations(base, r)
    ]
    return graph_on_subsets(n, subsets)
