import random

import pytest

from ramseylift import fixtures
from ramseylift.errors import DomainError, VerificationError
from ramseylift.graph_encoding import (
    GraphEncoding,
    encode_graph,
    graph_on_subsets,
    phi_graph,
    powerset_graph,
    witness_graph,
)
from ramseylift.harness import random_embedded_pair, random_word, selector_impl
from ramseylift.orders import BaseOrder
from ramseylift.structures import (
    LinOrderedGraph,
    check_embedding,
    enumerate_embeddings,
    identity_embedding,
)
from ramseylift.words import (
    Alphabet,
    compose,
    enumerate_words,
    identity,
    letter_token,
    parse,
    validate,
    variable_positions,
)

from util import all_graphs_on

A0 = Alphabet(["0"])
G = fixtures.GRAPH
G2 = fixtures.SUBGRAPH
U = parse(fixtures.WORD_TEXT, A0)


def ref_witness_graph(g, g2, f, u):
    """The block construction, kept as the reference for ``witness_graph``.

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


def test_encode_objects():
    assert encode_graph(G).object == 7
    assert encode_graph(G2).object == 5
    assert encode_graph(LinOrderedGraph.build([1], [])).object == 1


def test_encode_edge_order():
    assert [sorted(e) for e in encode_graph(G).edge_order] == [[1, 2], [2, 3], [2, 4]]
    # the edges as the graph holds them, which the CLI prints: a label equal
    # to a vertex but of another type (1.0 or True for 1) stays as given
    g = LinOrderedGraph.build([1, 2, 3], [(1.0, 2), (True, 3)])
    assert repr([sorted(e) for e in encode_graph(g).edge_order]) == "[[1.0, 2], [True, 3]]"


def test_encode_members_are_vertex_bits_then_edge_masks():
    enc = encode_graph(G)
    assert enc.members == (0b1, 0b10, 0b100, 0b1000, 0b11, 0b110, 0b1010)
    assert enc.family == tuple(frozenset([v]) for v in G.universe) + enc.edge_order
    assert enc == GraphEncoding(G, enc.members)


def test_encode_raw_graphs():
    """Graphs built by the raw constructor, which validates nothing: an
    undeclared edge vertex is refused with a domain error, and edges of
    one or three vertices encode like any other subset, in clex order.
    ``phi`` then fails in the graph's relation rows, which read two vertices
    per edge."""
    order = BaseOrder([1, 2, 3])
    undeclared = LinOrderedGraph(order, frozenset({frozenset({1, 9})}))
    with pytest.raises(DomainError, match="^element 9 is not in the base order$"):
        encode_graph(undeclared)
    odd = LinOrderedGraph(order, frozenset({frozenset({1, 2, 3}), frozenset({3}),
                                            frozenset({1, 2})}))
    enc = encode_graph(odd)
    assert enc.members == (0b1, 0b10, 0b100, 0b111, 0b11, 0b100)
    assert enc.edge_order == (frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({3}))
    with pytest.raises(ValueError, match="unpack"):
        phi_graph(odd, parse("x1 x2 x3 x4 x5 x6", A0))


def test_phi_worked_example():
    images = phi_graph(G, U)
    assert images[1] == frozenset({2, 7, 12, 16})
    assert images[2] == frozenset({5, 11, 12, 13, 15})
    assert images[3] == frozenset({8, 9, 13})
    assert images[4] == frozenset({10, 15})


def test_phi_single_vertex():
    one = LinOrderedGraph.build([1], [])
    assert phi_graph(one, parse("x1", A0)) == {1: frozenset({1})}


def test_phi_parameter_mismatch():
    with pytest.raises(DomainError, match="parameters"):
        phi_graph(G, parse("x1 x2", A0))


def test_witness_worked_example():
    f = check_embedding(fixtures.EMBEDDING_MAP, G2, G)
    h = witness_graph(G, G2, f, U)
    assert h.text() == "0 x1 x2 x3 x1 x4 x5"
    composed = compose(U, h)
    assert composed.text() == "0 0 0 0 x1 0 0 x2 x2 x3 x1 x1 x4 0 x5 0"
    sub_images = phi_graph(G2, composed)
    assert sub_images[1] == frozenset({5, 11, 12, 13, 15})
    assert sub_images[2] == frozenset({8, 9, 13})
    assert sub_images[3] == frozenset({10, 15})


def test_witness_identity_case():
    h = witness_graph(G, G, identity_embedding(G), U)
    assert h == identity(A0, 7)


def test_fixture_runner_all_match():
    checks = fixtures.run_fixture()
    assert len(checks) == 21
    assert all(c.ok for c in checks)


def test_fixture_corruption_detected():
    checks = fixtures.run_fixture(corrupt="u_h")
    assert [c.name for c in checks if not c.ok] == ["u_h"]
    with pytest.raises(DomainError):
        fixtures.run_fixture(corrupt="nonsense")


@pytest.mark.parametrize("n_vertices", range(1, 5))
def test_phi_is_embedding_exhaustive(n_vertices):
    for g in all_graphs_on(n_vertices):
        obj = encode_graph(g).object
        for n in range(obj, obj + 2):
            for u in enumerate_words(A0, n, obj, 100_000):
                images = phi_graph(g, u)  # internal checks are the assertion
                codomain = graph_on_subsets(n, set(images.values()))
                check_embedding(images, g, codomain)


def test_phi_is_embedding_sampled_five_vertex():
    rng = random.Random("graph:five")
    for _ in range(60):
        g = LinOrderedGraph.build(
            range(1, 6),
            [e for e in [(i, j) for i in range(1, 6) for j in range(i + 1, 6)] if rng.random() < 0.5],
        )
        obj = encode_graph(g).object
        u = random_word(rng, A0, obj + 2, obj)
        images = phi_graph(g, u)
        check_embedding(images, g, graph_on_subsets(u.n, set(images.values())))


def test_factorization_random_instances():
    rng = random.Random("graph:pa")
    for _ in range(60):
        D, E = random_embedded_pair(rng, "graph")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        u = random_word(rng, A0, encode_graph(D).object + rng.randint(0, 2), encode_graph(D).object)
        h = witness_graph(D, E, f, u)
        assert (h.n, h.m) == (encode_graph(D).object, encode_graph(E).object)
        lhs = phi_graph(D, u)
        rhs = phi_graph(E, compose(u, h))
        assert all(rhs[x] == lhs[f(x)] for x in E.universe)


def test_witness_matches_the_block_construction():
    rng = random.Random("graph:witness-reference")
    impl = selector_impl("graph")
    for _ in range(2000):
        D, E = random_embedded_pair(rng, "graph")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        u = impl.random_u(rng, D)
        h, ref = witness_graph(D, E, f, u), ref_witness_graph(D, E, f, u)
        assert (h.symbols, h.m) == (ref.symbols, ref.m)


def test_powerset_graph_shape():
    g = powerset_graph(3)
    assert len(g.universe) == 8
    assert frozenset() in g.universe
    # the empty set is isolated
    assert not any(frozenset() in e for e in g.edges)
