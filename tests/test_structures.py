import itertools
import json
import random
from fractions import Fraction

import pytest

from ramseylift.errors import DomainError, EmbeddingError, StructureError
from ramseylift.harness import random_structure
from ramseylift.orders import BaseOrder, subset_key
from ramseylift.structures import (
    Ball,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedGraph,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    balls,
    check_embedding,
    check_structure,
    compose_embeddings,
    downsets,
    embedding_ranks,
    enumerate_embeddings,
    format_rational,
    from_json,
    identity_embedding,
    induced_substructure,
    to_json,
    validate_structure,
)
from ramseylift.structures import _pair_offsets

from util import all_posets_on, brute_force_embeddings

DEMO_GRAPH = LinOrderedGraph.build([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])
DEMO_SUB = LinOrderedGraph.build([1, 2, 3], [(1, 2), (1, 3)])
ULTRA3 = ConvUltrametricSpace.build(
    ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}, [0, 1, 2]
)


def test_demo_graph_valid():
    report = validate_structure(DEMO_GRAPH)
    assert report == {"kind": "graph", "size": 4, "edges": 3}


def test_ultrametric_valid_and_convex():
    report = validate_structure(ULTRA3)
    assert report["attained"] == ["0", "1", "2"]


def test_linear_order_must_extend_partial_order():
    with pytest.raises(StructureError, match="does not extend"):
        LinOrderedPoset.build([2, 1], [(1, 2)])


def test_poset_transitivity_checked():
    with pytest.raises(StructureError, match="transitive"):
        LinOrderedPoset.build([1, 2, 3], [(1, 2), (2, 3)])


def test_graph_edge_shape_checked():
    """``build`` names the first bad edge in rank order, undeclared
    vertices after the declared ones."""
    with pytest.raises(StructureError):
        LinOrderedGraph.build([1, 2], [(1, 1)])
    with pytest.raises(StructureError, match="not declared"):
        LinOrderedGraph.build([1, 2], [(1, 3)])
    for edges, message in (([{1, 9}], r"^edge vertex 9 not declared$"),
                           ([{1, 2, 3}, {3}, {1, 2}],
                            r"^edge \{1, 2, 3\} must have exactly 2 vertices$"),
                           ([{2}, {1, 3}], r"^edge \{2\} must have exactly 2 vertices$")):
        with pytest.raises(StructureError, match=message):
            LinOrderedGraph.build([1, 2, 3], edges)


def test_graph_rows_checked():
    """Raw adjacency rows: a self-loop and a one-way adjacency are each
    named at their first witness in rank order."""
    order = BaseOrder([1, 2, 3])
    for rows, message in (((0, 0b110, 0b100), r"^vertex 2 adjacent to itself$"),
                          ((0b100, 0, 0b010), r"^adjacency not symmetric on \(1,3\)$"),
                          ((0, 0b001, 0b010), r"^adjacency not symmetric on \(1,2\)$"),
                          ((0b10, 0b01), r"^relation rows must be 3 masks of 3 bits$"),
                          ((0, 0, 0b1000), r"^relation rows must be 3 masks of 3 bits$")):
        with pytest.raises(StructureError, match=message):
            check_structure(LinOrderedGraph(order, rows))
        with pytest.raises(StructureError, match=message):
            LinOrderedGraph.from_rows(order.elements, rows)


def test_metric_triangle_checked():
    with pytest.raises(StructureError, match="triangle"):
        LinOrderedMetricSpace.build([1, 2, 3], {(1, 2): 1, (2, 3): 1, (1, 3): 5})


def test_strong_triangle_checked():
    with pytest.raises(StructureError, match="strong triangle"):
        ConvUltrametricSpace.build([1, 2, 3], {(1, 2): 1, (2, 3): 1, (1, 3): 2})


def test_convexity_checked():
    # valid ultrametric, but the radius-1 ball around a is {a, c}
    with pytest.raises(StructureError, match="interval"):
        ConvUltrametricSpace.build(["a", "b", "c"], {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 2})


def test_spectrum_must_cover_attained():
    with pytest.raises(StructureError, match="missing from spectrum"):
        LinOrderedMetricSpace.build([1, 2], {(1, 2): 1}, [0, 2])


def test_zero_distance_for_distinct_points():
    with pytest.raises(StructureError, match="positive"):
        LinOrderedMetricSpace.build([1, 2], {(1, 2): 0})


# --------------------------------------------------------------------------
# embeddings


def test_demo_embedding_valid():
    f = check_embedding({1: 2, 2: 3, 3: 4}, DEMO_SUB, DEMO_GRAPH)
    assert f.image() == (2, 3, 4)


def test_identity_is_embedding():
    for s in (DEMO_GRAPH, ULTRA3):
        check_embedding(identity_embedding(s).as_dict, s, s)


def test_collapsing_map_rejected():
    with pytest.raises(EmbeddingError, match="injective"):
        check_embedding({1: 2, 2: 2, 3: 4}, DEMO_SUB, DEMO_GRAPH)


def test_order_violation_rejected():
    square = LinOrderedGraph.build([1, 2], [])
    with pytest.raises(EmbeddingError, match="linear order"):
        check_embedding({1: 2, 2: 1}, square, square)


def test_adjacency_reflection_rejected():
    pair = LinOrderedGraph.build([1, 2], [])
    with pytest.raises(EmbeddingError, match="reflected"):
        check_embedding({1: 1, 2: 2}, pair, LinOrderedGraph.build([1, 2], [(1, 2)]))


def test_distance_preservation_rejected():
    near = LinOrderedMetricSpace.build([1, 2], {(1, 2): 1})
    far = LinOrderedMetricSpace.build([1, 2], {(1, 2): 2})
    with pytest.raises(EmbeddingError, match="distance"):
        check_embedding({1: 1, 2: 2}, near, far)


def test_embedding_counts_for_chains():
    chain2 = LinOrderedPoset.build([1, 2], [(1, 2)])
    chain3 = LinOrderedPoset.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    anti2 = LinOrderedPoset.build([1, 2], [])
    assert len(list(enumerate_embeddings(chain2, chain3))) == 3
    assert list(enumerate_embeddings(anti2, chain3)) == []
    embeddings = list(enumerate_embeddings(chain3, chain3))
    assert identity_embedding(chain3) in embeddings


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_enumeration_matches_brute_force(selector):
    rng = random.Random(f"structures:{selector}")
    found_nonempty = 0
    for _ in range(25):
        tgt = random_structure(rng, selector)
        if len(tgt.universe) > 5:
            continue
        src_size = rng.randint(1, min(3, len(tgt.universe)))
        src = induced_substructure(tgt, rng.sample(list(tgt.universe), src_size))
        fast = list(enumerate_embeddings(src, tgt))
        slow = brute_force_embeddings(src, tgt)
        assert {e.mapping for e in fast} == {e.mapping for e in slow}
        assert len(fast) == len(slow)
        found_nonempty += bool(fast)
    assert found_nonempty > 0


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_walker_matches_brute_force_on_independent_pairs(selector):
    """Sources drawn independently of the target (often larger, or over
    another spectrum), or induced from it; the walker must list exactly the
    brute-force embeddings, in the same lexicographic order.  Every other
    target graph declares its vertices in reverse, so that vertex values
    and ranks run opposite ways."""
    rng = random.Random(f"structures:walker:{selector}")
    sizes = {"found": 0, "empty": 0, "larger": 0}
    for trial in range(60):
        tgt = random_structure(rng, selector)
        if selector == "graph" and trial % 2:
            tgt = LinOrderedGraph.build(tgt.universe[::-1], to_json(tgt)["edges"])
        if rng.random() < 0.5:
            src = random_structure(rng, selector)
        else:
            keep = rng.sample(list(tgt.universe), rng.randint(1, len(tgt.universe)))
            src = induced_substructure(tgt, keep)
        slow = brute_force_embeddings(src, tgt)
        assert [e.mapping for e in enumerate_embeddings(src, tgt)] == [e.mapping for e in slow]
        assert list(embedding_ranks(src, tgt)) == [
            tuple(tgt.order.rank(y) for y in e.image()) for e in slow]
        sizes["found" if slow else "empty"] += 1
        sizes["larger"] += len(src.universe) > len(tgt.universe)
    assert min(sizes.values()) > 0, sizes


def _empty(kind):
    if kind == "graph":
        return LinOrderedGraph.build([], [])
    if kind == "poset":
        return LinOrderedPoset.build([], [])
    cls = ConvUltrametricSpace if kind == "ultrametric" else LinOrderedMetricSpace
    return cls.build([], {}, [0, 1])


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_walker_edge_sizes(selector):
    rng = random.Random(f"structures:edges:{selector}")
    empty = _empty(selector)
    for _ in range(10):
        s = random_structure(rng, selector)
        small = induced_substructure(s, list(s.universe)[:-1]) if len(s.universe) > 1 else empty
        # a source larger than the target has no embedding (and no negative shift)
        assert list(embedding_ranks(s, small)) == []
        assert list(enumerate_embeddings(s, empty)) == []
        # the empty source has exactly one embedding, the empty map
        for target in (s, empty):
            found = list(enumerate_embeddings(empty, target))
            assert [e.mapping for e in found] == [()]
            assert list(embedding_ranks(empty, target)) == [()]


def test_walker_refuses_a_kind_mismatch_at_every_source_size():
    """The kind check comes before any offset or walk, also for the empty
    source, which has exactly one embedding into a target of its kind."""
    target = LinOrderedPoset.build([1, 2], [])
    for size in (0, 1, 2):
        source = LinOrderedGraph.build(range(size), [])
        with pytest.raises(EmbeddingError, match="^kind mismatch: graph into poset$"):
            list(embedding_ranks(source, target))
        with pytest.raises(EmbeddingError, match="^kind mismatch: graph into poset$"):
            list(enumerate_embeddings(source, target))


def test_walker_compares_spaces_over_different_denominators():
    src = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): "1/2"}, ["0", "1/2"])
    tgt = LinOrderedMetricSpace.build(
        [1, 2, 3], {(1, 2): "1/3", (1, 3): "1/2", (2, 3): "1/6"}, ["0", "1/6", "1/3", "1/2"])
    assert list(embedding_ranks(src, tgt)) == [(0, 2)]
    wide = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): "2/4"})  # spectrum [0, 1/2]
    assert list(embedding_ranks(wide, tgt)) == [(0, 2)]
    off = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): "2/5"})  # 2/5 is not in tgt
    assert list(embedding_ranks(off, tgt)) == [] == brute_force_embeddings(off, tgt)
    ultra_src = ConvUltrametricSpace.build(["a", "b"], {("a", "b"): "3/4"}, ["0", "3/4"])
    ultra_tgt = ConvUltrametricSpace.build(
        [1, 2, 3], {(1, 2): "1/2", (1, 3): "3/4", (2, 3): "3/4"}, ["0", "1/2", "3/4", "5"])
    assert list(embedding_ranks(ultra_src, ultra_tgt)) == [(0, 2), (1, 2)]


def test_embedding_is_an_immutable_named_tuple():
    """An embedding equals and hashes like the plain tuple (source, target,
    ranks), refuses attribute assignment, and reads its element pairs as
    before."""
    f = check_embedding({1: 2, 2: 3, 3: 4}, DEMO_SUB, DEMO_GRAPH)
    for name in ("ranks", "source", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, (0, 1, 2))
    again = Embedding(DEMO_SUB, DEMO_GRAPH, (1, 2, 3))
    assert f == again and hash(f) == hash(again) and f is not again
    assert f == (DEMO_SUB, DEMO_GRAPH, (1, 2, 3))
    assert hash(f) == hash((DEMO_SUB, DEMO_GRAPH, (1, 2, 3)))
    assert len({f, again, Embedding(DEMO_SUB, DEMO_GRAPH, (0, 2, 3))}) == 2
    assert f != Embedding(DEMO_SUB, DEMO_SUB, (0, 1, 2))
    assert f.ranks == (1, 2, 3)
    assert f.mapping == ((1, 2), (2, 3), (3, 4))
    assert f.as_dict == {1: 2, 2: 3, 3: 4}
    assert f.image() == (2, 3, 4)
    assert [f(x) for x in DEMO_SUB.universe] == [2, 3, 4]
    assert repr(f) == f"Embedding(source={DEMO_SUB!r}, target={DEMO_GRAPH!r}, ranks=(1, 2, 3))"
    sub = induced_substructure(ULTRA3, ["a", "c"])
    g = check_embedding({"a": "a", "c": "c"}, sub, ULTRA3)
    assert (g.ranks, g.mapping, g.image(), g("c")) == ((0, 2), (("a", "a"), ("c", "c")),
                                                       ("a", "c"), "c")
    assert compose_embeddings(g, identity_embedding(sub)) == g


def _edge_set(g) -> set[frozenset]:
    """The graph's edges as vertex sets, read off its JSON form."""
    return {frozenset(e) for e in to_json(g)["edges"]}


def _fresh_pair_offsets(source, target):
    """Per pair of source ranks p < i, the offset in target.relation_rows of
    the value p bears to i, read from the edges, the order or the distances,
    or None when the target lacks that value."""
    uni, there, n = source.universe, target.relation_values, len(target.universe)
    edges = _edge_set(source) if source.kind == "graph" else None

    def value(a, b):
        if source.kind == "graph":
            return frozenset((a, b)) in edges
        return source.below(a, b) if source.kind == "poset" else source.d(a, b)

    return [[there.index(x) * n if x in there else None
             for x in (value(uni[p], uni[i]) for p in range(i))] for i in range(len(uni))]


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_pair_offsets_match_a_fresh_derivation(selector):
    """The offsets of an embedding walk, read from the source's relation
    rows, match the values read pair by pair; a value the target lacks gives
    None and no embedding."""
    rng = random.Random(f"structures:pairs:{selector}")
    missing = 0
    for _ in range(60):
        tgt = random_structure(rng, selector)
        if rng.random() < 0.5:
            src = random_structure(rng, selector)
        else:
            keep = rng.sample(list(tgt.universe), rng.randint(1, len(tgt.universe)))
            src = induced_substructure(tgt, keep)
            if selector in ("ultrametric", "metric") and rng.random() < 0.5:
                src = _over_attained_spectrum(src)
        expected = _fresh_pair_offsets(src, tgt)
        assert _pair_offsets(src, tgt) == expected
        if any(None in row for row in expected):
            missing += 1
            assert list(embedding_ranks(src, tgt)) == []
    assert missing > 0 or selector in ("graph", "poset")


def test_pair_offsets_across_spectra():
    src = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): "1/2"}, ["0", "1/2"])
    tgt = LinOrderedMetricSpace.build(
        [1, 2, 3], {(1, 2): "1/3", (1, 3): "1/2", (2, 3): "1/6"}, ["0", "1/6", "1/3", "1/2"])
    assert _pair_offsets(src, tgt) == [[], [9]]
    off = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): "2/5"})  # 2/5 is not in tgt
    assert _pair_offsets(off, tgt) == [[], [None]]
    assert list(embedding_ranks(off, tgt)) == []
    with pytest.raises(EmbeddingError, match=r"distance not preserved on \('a','b'\)"):
        check_embedding({"a": 1, "b": 3}, off, tgt)
    # an unchecked space whose distance is missing from its own spectrum
    raw = LinOrderedMetricSpace(BaseOrder(["a", "b"]), ((Fraction(0), Fraction(5)),
                                                       (Fraction(5), Fraction(0))),
                                (Fraction(0), Fraction(1)))
    assert _pair_offsets(raw, raw) == [[], [None]]
    assert list(embedding_ranks(raw, raw)) == []


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_pair_offsets_with_shared_values_and_an_empty_side(selector):
    """Structures with equal relation values and an empty target (no rows at
    all) or an empty source get the offsets of the fresh derivation."""
    empty = _empty(selector)
    if selector in ("graph", "poset"):
        pair = (LinOrderedGraph if selector == "graph" else LinOrderedPoset).build([1, 2], [(1, 2)])
    else:
        pair = type(empty).build([1, 2], {(1, 2): 1}, [0, 1])
    assert pair.relation_values == empty.relation_values
    assert _pair_offsets(pair, empty) == _fresh_pair_offsets(pair, empty) == [[], [0]]
    assert _pair_offsets(empty, pair) == _fresh_pair_offsets(empty, pair) == []
    assert _pair_offsets(empty, empty) == []
    assert list(embedding_ranks(pair, empty)) == []
    assert list(embedding_ranks(empty, pair)) == [()] == list(embedding_ranks(empty, empty))


def _pairwise_clause(source, target, m):
    """The relation clause of check_embedding as it was before it read
    relation masks: one loop per kind over pairs of source elements, with
    hashed edge and order lookups and Fraction distances.  The first
    mismatch names its clause and pair."""
    uni = source.universe
    if source.kind == "graph":
        source_edges, target_edges = _edge_set(source), _edge_set(target)
        for a, b in itertools.combinations(uni, 2):
            here = frozenset((a, b)) in source_edges
            there = frozenset((m[a], m[b])) in target_edges
            if here != there:
                return f"adjacency not {'preserved' if here else 'reflected'} on ({a!r},{b!r})"
    elif source.kind == "poset":
        for a in uni:
            for b in uni:
                here, there = source.below(a, b), target.below(m[a], m[b])
                if here != there:
                    clause = "preserved" if here else "reflected"
                    return f"partial order not {clause} on ({a!r},{b!r})"
    else:
        for a, b in itertools.combinations(uni, 2):
            here, there = source.d(a, b), target.d(m[a], m[b])
            if here != there:
                return (f"distance not preserved on ({a!r},{b!r}): "
                        f"{format_rational(here)} vs {format_rational(there)}")
    return None


def _over_attained_spectrum(s):
    """The same space with its spectrum rebuilt from the attained distances,
    so that it can differ from the space it was induced from."""
    data = to_json(s)
    del data["spectrum"]
    return from_json(data)


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_check_embedding_relation_clause_matches_pairwise_reference(selector):
    """Order-preserving injective maps from independent or induced sources
    (for spaces, also over another spectrum with other denominators): the
    mask clause accepts exactly what the pairwise loop accepts, and
    otherwise raises its message."""
    rng = random.Random(f"structures:check:{selector}")
    checked = {"accepted": 0, "preserved": 0, "reflected": 0}
    spectra = 0
    for _ in range(400):
        tgt = random_structure(rng, selector)
        if rng.random() < 0.5:
            src = random_structure(rng, selector)
        else:
            keep = rng.sample(list(tgt.universe), rng.randint(1, len(tgt.universe)))
            src = induced_substructure(tgt, keep)
            if selector in ("ultrametric", "metric") and rng.random() < 0.5:
                src = _over_attained_spectrum(src)
        if len(src.universe) > len(tgt.universe):
            continue
        spectra += getattr(src, "spectrum", None) != getattr(tgt, "spectrum", None)
        image = sorted(rng.sample(list(tgt.universe), len(src.universe)), key=tgt.order.rank)
        if rng.random() < 0.5 and set(src.universe) <= set(tgt.universe):
            image = list(src.universe)  # the inclusion map of an induced source
        m = dict(zip(src.universe, image))
        expected = _pairwise_clause(src, tgt, m)
        if expected is None:
            f = check_embedding(m, src, tgt)
            assert f.mapping == tuple(m.items())
            assert f.ranks == tuple(tgt.order.rank(y) for y in image)
            checked["accepted"] += 1
        else:
            with pytest.raises(EmbeddingError) as err:
                check_embedding(m, src, tgt)
            assert str(err.value) == expected
            checked["reflected" if "reflected" in expected else "preserved"] += 1
    if selector in ("ultrametric", "metric"):
        del checked["reflected"]  # a distance clause has one direction
        assert spectra > 50
    assert min(checked.values()) > 10, checked


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_embedding_composition_closed(selector):
    rng = random.Random(f"structures:compose:{selector}")
    for _ in range(20):
        c = random_structure(rng, selector)
        if len(c.universe) < 2:
            continue
        b = induced_substructure(c, rng.sample(list(c.universe), rng.randint(1, len(c.universe))))
        a = induced_substructure(b, rng.sample(list(b.universe), rng.randint(1, len(b.universe))))
        f = rng.choice(list(enumerate_embeddings(a, b)))
        g = rng.choice(list(enumerate_embeddings(b, c)))
        composite = compose_embeddings(g, f)
        check_embedding(composite.as_dict, a, c)
        ident = identity_embedding(a)
        assert compose_embeddings(f, ident) == f


# --------------------------------------------------------------------------
# downsets and balls


def test_downsets_examples():
    anti2 = LinOrderedPoset.build([1, 2], [])
    chain2 = LinOrderedPoset.build([1, 2], [(1, 2)])
    point = LinOrderedPoset.build([1], [])
    assert downsets(anti2) == (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    assert downsets(chain2) == (frozenset({1}), frozenset({1, 2}))
    assert downsets(point) == (frozenset({1}),)


@pytest.mark.parametrize("n", range(1, 5))
def test_downsets_complete_and_sorted(n):
    for p in all_posets_on(n):
        found = downsets(p)
        # closure and principality
        for d in found:
            assert all(p.below(b, a) <= (b in d) for a in d for b in p.universe)
        for a in p.universe:
            assert frozenset(b for b in p.universe if p.below(b, a)) in found
        # brute-force completeness
        expected = set()
        for mask in range(1, 1 << n):
            s = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if all(p.below(b, a) <= (b in s) for a in s for b in p.universe):
                expected.add(s)
        assert set(found) == expected
        # strictly increasing anti-lexicographically
        for a, b in zip(found, found[1:]):
            assert subset_key(p.order, "alex", a) < subset_key(p.order, "alex", b)


def test_balls_example():
    got = [(tuple(sorted(b.points)), b.radius_index) for b in balls(ULTRA3)]
    assert got == [
        (("a",), 0),
        (("b",), 0),
        (("c",), 0),
        (("a", "b"), 1),
        (("c",), 1),
        (("a", "b", "c"), 2),
    ]


def test_balls_single_point():
    one = ConvUltrametricSpace.build(["a"], {}, [0])
    assert balls(one) == (Ball(frozenset({"a"}), 0),)


def test_balls_keep_equal_sets_with_distinct_radii():
    two = ConvUltrametricSpace.build(["a", "b"], {("a", "b"): 2}, [0, 1, 2])
    got = balls(two)
    assert Ball(frozenset({"a"}), 0) in got
    assert Ball(frozenset({"a"}), 1) in got
    assert len(got) == 5


def test_balls_properties_random():
    rng = random.Random("structures:balls")
    for _ in range(30):
        space = random_structure(rng, "ultrametric")
        found = balls(space)
        assert len(set(found)) == len(found)
        by_radius = {}
        for b in found:
            ranks = sorted(space.order.rank(x) for x in b.points)
            assert ranks[-1] - ranks[0] + 1 == len(ranks)  # convex
            by_radius.setdefault(b.radius_index, []).append(b.points)
        for same in by_radius.values():
            for p, q in itertools.combinations(same, 2):
                assert not (p & q)


# --------------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("selector", ["graph", "poset", "ultrametric", "metric"])
def test_json_round_trip_random(selector):
    rng = random.Random(f"structures:json:{selector}")
    for _ in range(25):
        s = random_structure(rng, selector)
        data = json.loads(json.dumps(to_json(s)))
        assert from_json(data) == s
        assert to_json(from_json(data)) == to_json(s)


def test_json_rationals_exact():
    s = LinOrderedMetricSpace.build(
        [1, 2], {(1, 2): Fraction(7, 3)}, [0, Fraction(7, 3), Fraction(14, 3)]
    )
    data = to_json(s)
    assert data["dist"] == [[1, 2, "7/3"]]
    assert data["spectrum"] == ["0", "7/3", "14/3"]
    assert from_json(data) == s


def test_json_spectrum_defaults_to_attained():
    data = {"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "3/2"]]}
    s = from_json(data)
    assert s.spectrum == (Fraction(0), Fraction(3, 2))


@pytest.mark.parametrize("kind", ["ultrametric", "metric"])
def test_json_spectrum_out_of_order_is_refused(kind):
    """A given spectrum is checked as given, as the decoders check theirs."""
    data = {"kind": kind, "universe": [1, 2], "dist": [[1, 2, "1"]],
            "spectrum": ["0", "2", "1"]}
    with pytest.raises(StructureError, match="spectrum must be strictly increasing"):
        from_json(data)


def test_the_two_space_kinds_differ_on_the_same_data():
    """An ultrametric and a metric space on one matrix and spectrum compare
    unequal, and induced substructures and JSON keep each one's kind."""
    args = (["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2}, [0, 1, 2])
    u, m = ConvUltrametricSpace.build(*args), LinOrderedMetricSpace.build(*args)
    assert (u.order, u.dmatrix, u.spectrum) == (m.order, m.dmatrix, m.spectrum)
    assert u != m and m != u
    assert len({u, m}) == 2
    for s in (u, m):
        sub = induced_substructure(s, ["a", "c"])
        assert type(sub) is type(s)
        assert sub == type(s).build(["a", "c"], {("a", "c"): 2}, [0, 1, 2])
        assert from_json(to_json(s)) == s


def test_json_errors():
    with pytest.raises(DomainError):
        from_json({"kind": "mystery", "universe": []})
    with pytest.raises(DomainError):
        from_json({"universe": [1]})
    with pytest.raises(DomainError):
        from_json({"kind": "metric", "universe": [1, 2], "dist": [[1, 2, "x"]]})
