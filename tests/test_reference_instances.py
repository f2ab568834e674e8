"""Reference instances past the exhaustive wall, built from their definitions.

Each bad coloring below is a classical construction, checked here both by
a plain loop over the forbidden subgraph and by ``check_coloring``; where
``decide_arrow`` cannot exhaust the colorings, its refusal is pinned.  The
Mirsky test compares ``decide_arrow`` with a closed form: a poset C arrows
(chain_m)^point_k iff its height is at least k(m-1)+1.
"""

import itertools
import random

import pytest

from ramseylift.errors import BudgetError
from ramseylift.harness import random_poset
from ramseylift.oracle import ArrowInstance, StructureCategory, check_coloring, decide_arrow
from ramseylift.poset_encoding import powerset_poset
from ramseylift.structures import LinOrderedGraph, LinOrderedPoset, embedding_ranks

GRAPHS = StructureCategory("graph")
POSETS = StructureCategory("poset")


def complete_graph(n):
    return LinOrderedGraph.build(range(n), itertools.combinations(range(n), 2))


def chain(m):
    return LinOrderedPoset.build(range(m), itertools.combinations(range(m), 2))


def edge_coloring(n, first_color):
    """Colors of hom(K2, Kn) in its enumeration order: 1 on the edges
    ``first_color`` picks, 2 on the others."""
    return tuple(1 if first_color(i, j) else 2
                 for i, j in embedding_ranks(complete_graph(2), complete_graph(n)))


def has_monochromatic_clique(n, colors, size):
    color = dict(zip(itertools.combinations(range(n), 2), colors))
    return any(len({color[e] for e in itertools.combinations(clique, 2)}) == 1
               for clique in itertools.combinations(range(n), size))


def test_pentagon_coloring_shows_k5_does_not_arrow_k3():
    """The pentagon and its complement, the pentagram, hold no triangle."""
    colors = edge_coloring(5, lambda i, j: (j - i) % 5 in (1, 4))
    assert not has_monochromatic_clique(5, colors, 3)
    inst = ArrowInstance(GRAPHS, complete_graph(2), complete_graph(3), complete_graph(5), 2)
    verdict, detail = check_coloring(inst, colors)
    assert not verdict.holds and verdict.bad_coloring == colors
    assert len(detail) == 10 and all(d["colors_met"] == [1, 2] for d in detail)
    assert not decide_arrow(inst).holds


def test_paley_17_coloring_shows_k17_does_not_arrow_k4():
    """Edges whose difference is a square mod 17 form the Paley graph, which
    is self-complementary and holds no K4; so R(4,4) > 17."""
    squares = {x * x % 17 for x in range(1, 17)}
    assert squares == {1, 2, 4, 8, 9, 13, 15, 16}
    colors = edge_coloring(17, lambda i, j: (j - i) % 17 in squares)
    assert not has_monochromatic_clique(17, colors, 4)
    inst = ArrowInstance(GRAPHS, complete_graph(2), complete_graph(4), complete_graph(17), 2)
    verdict, detail = check_coloring(inst, colors)
    assert not verdict.holds and verdict.bad_coloring == colors
    assert verdict.counts == {"hom_AC": 136, "hom_BC": 2380, "hom_AB": 6, "colorings_checked": 1}
    assert all(d["colors_met"] == [1, 2] for d in detail)
    with pytest.raises(BudgetError) as err:
        decide_arrow(inst)
    assert str(err.value) == ("deciding needs k^|hom(A,C)| = 2^136 = <41 digits> colorings, "
                              "above the budget of 2000000")


def height(p):
    """The number of elements of a longest chain of the poset."""
    longest = {}
    for b in p.universe:  # the linear order extends the partial order
        longest[b] = 1 + max((longest[a] for a in longest if p.below(a, b)), default=0)
    return max(longest.values(), default=0)


def mirsky_cases():
    rng = random.Random("reference:mirsky")
    posets = [powerset_poset(n) for n in range(1, 5)]
    posets += [random_poset(rng, 10) for _ in range(30)]
    return [(C, k, m) for C in posets for k in (2, 3) for m in (1, 2, 3, 4)]


def test_mirsky_closed_form_matches_the_oracle():
    """The levels of a poset of height h are antichains: when h <= k(m-1),
    coloring k groups of m-1 consecutive levels leaves no monochromatic
    m-chain; otherwise a longest chain has m points of one color."""
    decided = set()
    for C, k, m in mirsky_cases():
        try:
            verdict = decide_arrow(ArrowInstance(POSETS, chain(1), chain(m), C, k))
        except BudgetError:
            continue
        expected = height(C) >= k * (m - 1) + 1
        assert verdict.holds == expected, (C, k, m)
        decided.add((len(C.universe), expected))
    assert 16 in {size for size, _ in decided}  # P(4), at k = 2
    assert {holds for _, holds in decided} == {True, False}
