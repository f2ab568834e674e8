"""Reference instances past the exhaustive wall, built from their definitions.

Each bad coloring below is a classical construction, checked here both by
a plain loop over the forbidden subgraph and by ``check_coloring``; where
``decide_arrow`` cannot exhaust the colorings, its refusal is pinned.  The
Mirsky test compares ``decide_arrow`` with a closed form: a poset C arrows
(chain_m)^point_k iff its height is at least k(m-1)+1.  The odd-cycle test
compares it with another: a graph arrows (K2)^K1_2 iff it is not bipartite.
The Hales-Jewett tests compare both word deciders with the known numbers
HJ(2,k) = k and HJ(3,2) = 4.
"""

import collections
import itertools
import random

import pytest

from ramseylift.errors import BudgetError
from ramseylift.harness import random_poset
from ramseylift.oracle import (
    ArrowInstance,
    Budget,
    StructureCategory,
    WordCategory,
    check_coloring,
    decide_arrow,
    decide_gr,
)
from ramseylift.poset_encoding import powerset_poset
from ramseylift.structures import LinOrderedGraph, LinOrderedPoset, embedding_ranks
from ramseylift.words import Alphabet, enumerate_words

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


def gf16_times(a, b):
    """The product in GF(16) = GF(2)[x]/(x^4 + x + 1), elements as 4-bit
    polynomials over GF(2): shift-and-add, reducing x^4 to x + 1."""
    out = 0
    for _ in range(4):
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0b10000:
            a ^= 0b10011
    return out


def test_greenwood_gleason_coloring_shows_k16_does_not_arrow_k3_in_three_colors():
    """The nonzero cubes of GF(16) are a subgroup of index 3 in its cyclic
    group of units; coloring edge {x, y} by the coset of x + y leaves no
    monochromatic triangle, so R(3,3,3) > 16."""
    powers = [1]
    while len(powers) < 15:
        powers.append(gf16_times(powers[-1], 0b10))
    assert sorted(powers) == list(range(1, 16))  # x generates the units
    cubes = {gf16_times(gf16_times(a, a), a) for a in range(1, 16)}
    assert cubes == {powers[e] for e in range(0, 15, 3)}
    coset = {a: e % 3 + 1 for e, a in enumerate(powers)}  # the exponent of x modulo 3
    color = {(x, y): coset[x ^ y] for x, y in itertools.combinations(range(16), 2)}
    assert set(color.values()) == {1, 2, 3}
    for x, y, z in itertools.combinations(range(16), 3):
        assert len({color[x, y], color[x, z], color[y, z]}) > 1, (x, y, z)
    colors = tuple(color[i, j] for i, j in embedding_ranks(complete_graph(2), complete_graph(16)))
    inst = ArrowInstance(GRAPHS, complete_graph(2), complete_graph(3), complete_graph(16), 3)
    verdict, detail = check_coloring(inst, colors)
    assert not verdict.holds and verdict.bad_coloring == colors
    assert verdict.counts == {"hom_AC": 120, "hom_BC": 560, "hom_AB": 3, "colorings_checked": 1}
    assert all(len(d["colors_met"]) > 1 for d in detail)
    with pytest.raises(BudgetError) as err:
        decide_arrow(inst)
    assert str(err.value) == ("deciding needs k^|hom(A,C)| = 3^120 = <58 digits> colorings, "
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


def is_bipartite(n, edges):
    """Whether the graph on range(n) has no odd cycle: breadth-first search
    gives each vertex the parity of its distance from the first vertex of
    its component, and an edge between equal parities closes an odd cycle."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    parity = {}
    for source in range(n):
        if source in parity:
            continue
        parity[source] = 0
        queue = collections.deque([source])
        while queue:
            v = queue.popleft()
            for u in neighbors[v]:
                if u not in parity:
                    parity[u] = 1 - parity[v]
                    queue.append(u)
    return all(parity[u] != parity[v] for u, v in edges)


def test_vertex_edge_arrow_is_an_odd_cycle():
    """C -> (K2)^K1_2 iff C is not bipartite (König): a 2-coloring of the
    vertices that leaves no edge monochromatic is a bipartition.  Half the
    graphs keep a planted bipartition, so both verdicts occur at every size
    up to 20 vertices, within the default budget."""
    rng = random.Random("reference:odd-cycle")
    K1, K2 = complete_graph(1), complete_graph(2)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 20)
        side = [rng.randrange(2) for _ in range(n)]
        planted, p = rng.random() < 0.5, rng.choice([0.1, 0.2, 0.4])
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if rng.random() < p and not (planted and side[i] == side[j])]
        C = LinOrderedGraph.build(range(n), edges)
        inst = ArrowInstance(GRAPHS, K1, K2, C, 2)
        verdict = decide_arrow(inst)
        assert verdict.holds == (not is_bipartite(n, edges)), edges
        if not verdict.holds:
            recheck, _ = check_coloring(inst, verdict.bad_coloring)
            assert not recheck.holds
            color = dict(zip(embedding_ranks(K1, C), verdict.bad_coloring))
            assert all(color[(i,)] != color[(j,)] for i, j in edges), edges
        seen.add((verdict.holds, n > 12))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


A01, A012 = Alphabet(["0", "1"]), Alphabet(["0", "1", "2"])


def hales_jewett(alphabet, n, k):
    """n -> (1)^0_k over the alphabet: hom(0, n) is the points of A^n,
    hom(1, n) the combinatorial lines, and a line's composites are its
    |A| points."""
    return ArrowInstance(WordCategory(alphabet), 0, 1, n, k)


@pytest.mark.parametrize("k", [2, 3])
def test_hales_jewett_over_two_letters_is_k(k):
    """HJ(2,k) = k.  A line of {0,1}^n is a pair of points, one below the
    other coordinatewise, so a k-coloring without a monochromatic line colors
    the longest chain, of n+1 points, injectively: it exists iff n < k.
    Both word deciders fail at n = k-1 and hold at n = k."""
    for n, holds in ((k - 1, False), (k, True)):
        inst = hales_jewett(A01, n, k)
        generic, direct = decide_arrow(inst), decide_gr(A01, n, 1, 0, k)
        assert generic.holds is holds, n
        assert (generic.holds, generic.bad_coloring, generic.counts) == (
            direct.holds, direct.bad_coloring, direct.counts), n
        assert generic.counts["hom_AC"] == 2**n and generic.counts["hom_BC"] == 3**n - 2**n
        if holds:
            assert generic.counts["colorings_checked"] == k ** 2**n
        else:
            assert not check_coloring(inst, generic.bad_coloring)[0].holds


def test_three_letters_three_coordinates_have_a_line_free_two_coloring():
    """HJ(3,2) = 4 (Hindman-Tressler, Ars Combin. 2014), so some 2-coloring
    of {0,1,2}^3 has no monochromatic line.  Past the default budget,
    decide_arrow and decide_gr find the same first one in itertools.product
    order; check_coloring and a plain loop over the 37 lines, each word
    over {0,1,2,x} with an x, confirm it."""
    inst = hales_jewett(A012, 3, 2)
    budget = Budget(max_colorings=2**27)
    verdict = decide_arrow(inst, budget)
    assert not verdict.holds
    assert verdict.counts == {"hom_AC": 27, "hom_BC": 37, "hom_AB": 3,
                              "colorings_checked": 22_102_796}
    direct = decide_gr(A012, 3, 1, 0, 2, budget)
    assert (direct.holds, direct.bad_coloring, direct.counts) == (
        verdict.holds, verdict.bad_coloring, verdict.counts)
    recheck, detail = check_coloring(inst, verdict.bad_coloring)
    assert not recheck.holds and all(d["colors_met"] == [1, 2] for d in detail)
    points = ["".join(w.text().split()) for w in enumerate_words(A012, 3, 0, 27)]
    color = dict(zip(points, verdict.bad_coloring))
    lines = ["".join(t) for t in itertools.product("012x", repeat=3) if "x" in t]
    assert len(color) == 27 and len(lines) == 37
    for line in lines:
        assert len({color[line.replace("x", a)] for a in "012"}) == 2, line


@pytest.mark.parametrize("alphabet, k, blowup", [
    (A012, 2, "2^81 = 2417851639229258349412352"),  # HJ(3,2) = 4: holds
    (A01, 4, "4^16 = 4294967296"),  # HJ(2,4) = 4: holds
])
def test_hales_jewett_at_four_coordinates_is_refused(alphabet, k, blowup):
    """Both arrows hold at n = 4, past the default budget; the refusals of
    both word deciders are pinned next to the known answers."""
    with pytest.raises(BudgetError) as err:
        decide_arrow(hales_jewett(alphabet, 4, k))
    assert str(err.value) == (f"deciding needs k^|hom(A,C)| = {blowup} colorings, "
                              "above the budget of 2000000")
    with pytest.raises(BudgetError) as err:
        decide_gr(alphabet, 4, 1, 0, k)
    assert str(err.value) == (f"deciding needs k^|W^4_0| = {blowup} colorings, "
                              "above the budget of 2000000")
