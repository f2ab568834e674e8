import itertools
import random
import time

import pytest

from ramseylift import oracle, structures
from ramseylift import words as W
from ramseylift.errors import BudgetError, DomainError
from ramseylift.oracle import (
    ArrowInstance,
    Budget,
    CompositeTable,
    StructureCategory,
    WordCategory,
    _gray_digits,
    check_coloring,
    decide_arrow,
    decide_gr,
)
from ramseylift.structures import (
    LinOrderedGraph,
    LinOrderedPoset,
    compose_embeddings,
    enumerate_embeddings,
)
from ramseylift.words import Alphabet, count_words

A0 = Alphabet(["0"])
POSETS = StructureCategory("poset")
POINT = LinOrderedPoset.build([1], [])
CHAIN2 = LinOrderedPoset.build([1, 2], [(1, 2)])
CHAIN3 = LinOrderedPoset.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
GRAPHS = StructureCategory("graph")


def _gray_steps(n_digits: int, radix: int):
    """Reference walk: yield (digit, old_value, new_value) steps of the
    reflected mixed-radix Gray walk through radix^n_digits tuples, one digit
    per step (Knuth's loopless Algorithm H)."""
    a = [0] * n_digits
    f = list(range(n_digits + 1))
    o = [1] * n_digits
    while True:
        j = f[0]
        f[0] = 0
        if j == n_digits:
            return
        old = a[j]
        a[j] += o[j]
        if a[j] == 0 or a[j] == radix - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
        yield j, old, a[j]


def _reference_comp_sets(inst: ArrowInstance):
    """(|hom(A,C)|, per candidate of hom(B,C) the set of indices in hom(A,C)
    of its composites), enumerating and composing the public morphisms
    without the category adapter: embeddings by enumerate_embeddings and
    compose_embeddings, parameter words by words.enumerate_words and the
    validating words.compose."""
    if isinstance(inst.category, WordCategory):
        alphabet = inst.category.alphabet
        hom, compose = (lambda m, n: list(W.enumerate_words(alphabet, n, m, 10**6))), W.compose
    else:
        hom, compose = (lambda x, y: list(enumerate_embeddings(x, y))), compose_embeddings
    hom_ac, hom_ab = hom(inst.A, inst.C), hom(inst.A, inst.B)
    index = {m: i for i, m in enumerate(hom_ac)}
    return len(hom_ac), [{index[compose(w, q)] for q in hom_ab} for w in hom(inst.B, inst.C)]


def _reference_walk(n: int, comps, k: int):
    """(holds, bad coloring, colorings checked) of k colors on n morphisms
    by walking the reference Gray order and re-checking every candidate,
    given by the indices of its composites, at every coloring."""
    state = [0] * n
    steps = _gray_steps(n, k)
    for rank in itertools.count():
        if not any(len({state[i] for i in c}) <= 1 for c in comps):
            return False, tuple(c + 1 for c in state), rank + 1
        step = next(steps, None)
        if step is None:
            return True, None, rank + 1
        state[step[0]] = step[2]


def _reference_decide(inst: ArrowInstance):
    """:func:`_reference_walk` on the instance's reference composite sets."""
    n, comps = _reference_comp_sets(inst)
    return _reference_walk(n, comps, inst.k)


def _random_instances(seed: str, count: int, max_colorings: int):
    """Seeded poset, graph and word instances with k in {2, 3, 4}."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind, k = rng.choice(["poset", "graph", "word"]), rng.choice([2, 3, 4])
        if kind == "word":
            cat = WordCategory(Alphabet(rng.choice([["0"], ["0", "1"]])))
            A = rng.randint(0, 2)
            B = rng.randint(A, 3)
            C = rng.randint(B, 5)
        else:
            cat, objs = (POSETS if kind == "poset" else GRAPHS), []
            for n in (rng.randint(1, 2), rng.randint(2, 3), rng.randint(3, 7)):
                universe = list(range(1, n + 1))
                pairs = list(itertools.combinations(universe, 2))
                if kind == "poset":
                    rank = rng.sample(range(n), n)  # a 2-dimensional order
                    rel = [(a, b) for a, b in pairs if rank[a - 1] < rank[b - 1]]
                    objs.append(LinOrderedPoset.build(universe, rel))
                else:
                    objs.append(LinOrderedGraph.build(universe, [e for e in pairs if rng.random() < 0.5]))
            A, B, C = objs
        if k ** len(cat.hom(A, C)) <= max_colorings:
            out.append(ArrowInstance(cat, A, B, C, k))
    return out


# failing instances whose first bad coloring lies past the first 4,096-coloring block
LATE_FAILURES = [
    ArrowInstance(WordCategory(A0), 1, 2, 4, 2),
    ArrowInstance(WordCategory(Alphabet(["0", "1"])), 0, 1, 3, 4),
    ArrowInstance(WordCategory(Alphabet(["0", "1"])), 0, 2, 4, 2),
    ArrowInstance(
        POSETS, CHAIN2, CHAIN3,
        LinOrderedPoset.build(range(1, 7), [(1, 3), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6),
                                            (3, 5), (3, 6), (5, 6)]),
        4,
    ),
    ArrowInstance(
        GRAPHS, LinOrderedGraph.build([1, 2], []), LinOrderedGraph.build([1, 2, 3], [(1, 2)]),
        LinOrderedGraph.build(range(1, 7), [(1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (4, 5)]),
        4,
    ),
    ArrowInstance(  # k = 2 with two composites per candidate: decided by 2-coloring
        POSETS, POINT, CHAIN2,
        LinOrderedPoset.build(range(14), [(i, j) for i, j in itertools.combinations(range(14), 2)
                                          if i % 2 == 0 and j % 2 == 1]),
        2,
    ),
]


class _GivenHoms:
    """A category of three objects "A", "B" and "C" with given hom sets:
    hom(A,C) is range(n), each candidate of hom(B,C) is a tuple of indices
    into it, and hom(A,B) is range(n_ab), so that w . q = w[q]."""

    name = "given"

    def __init__(self, n: int, candidates, n_ab: int = 2):
        self.homs = {("A", "C"): list(range(n)), ("B", "C"): list(candidates),
                     ("A", "B"): list(range(n_ab))}

    def hom(self, a, b, budget=None):
        return self.homs[a, b]

    def compose_column(self, outers, inner):
        return [w[inner] for w in outers]


def _pair_instance(n: int, candidates, n_ab: int = 2, k: int = 2) -> ArrowInstance:
    return ArrowInstance(_GivenHoms(n, candidates, n_ab), "A", "B", "C", k)


def _pair_instances(seed: str, count: int):
    """Seeded instances with k = 2 and at most two composites per candidate,
    on up to 20 morphisms.  Half keep a planted 2-coloring proper, so they
    fail; a few have a candidate with one composite or none, so they hold."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 20)
        side = [rng.randrange(2) for _ in range(n)]
        planted = rng.random() < 0.5
        edges = []
        for _ in range(rng.randint(0, 2 * n) if n >= 2 else 0):
            i, j = rng.sample(range(n), 2)
            if not planted or side[i] != side[j]:
                edges.append((i, j))
        if n and rng.random() < 0.03:
            edges.insert(rng.randint(0, len(edges)), (rng.randrange(n),) * 2)
        out.append(_pair_instance(n, edges, rng.choice([2] * 48 + [0, 1])))
    return out


def test_gray_walk_covers_everything_one_digit_at_a_time():
    for n, k in [(0, 2), (1, 3), (3, 2), (2, 4), (4, 3), (5, 2)]:
        state = [0] * n
        seen = {tuple(state)}
        assert _gray_digits(0, n, k) == state
        for rank, (j, old, new) in enumerate(_gray_steps(n, k), start=1):
            assert state[j] == old and abs(new - old) == 1
            state[j] = new
            assert tuple(state) not in seen
            seen.add(tuple(state))
            assert _gray_digits(rank, n, k) == state
        assert len(seen) == k**n


def test_kernel_matches_reference_walk():
    instances = _random_instances("oracle:kernel", 150, 20_000)
    instances += LATE_FAILURES
    multi_block = late = 0
    for inst in instances:
        verdict = decide_arrow(inst)
        holds, bad, checked = _reference_decide(inst)
        assert (verdict.holds, verdict.bad_coloring, verdict.counts["colorings_checked"]) == (
            holds, bad, checked), inst
        multi_block += inst.k ** verdict.counts["hom_AC"] > 4096
        late += not holds and checked > 4096
    assert multi_block >= 10 and late >= len(LATE_FAILURES)


def test_pair_decider_matches_the_gray_kernel(monkeypatch):
    """With k = 2 and at most two composites per candidate, decide_arrow
    2-colors the composite graph instead of running _first_bad_rank, and
    returns the same verdict, first bad coloring and count: against the
    reference walk up to 12 morphisms, against the kernel up to 20."""
    kernel, generic = oracle._first_bad_rank, []

    def counting_kernel(*args):
        generic.append(args)
        return kernel(*args)

    monkeypatch.setattr(oracle, "_first_bad_rank", counting_kernel)
    edge_cases = [
        (_pair_instance(0, []), (False, (), 1)),  # no morphism and no candidate
        (_pair_instance(0, [()], n_ab=0), (True, None, 1)),  # a candidate with no composite
        (_pair_instance(5, []), (False, (1,) * 5, 1)),  # empty hom(B,C)
        (_pair_instance(4, [(0, 1), (2, 3)], n_ab=0), (True, None, 16)),  # no composite
        (_pair_instance(4, [(0, 1), (2, 3)], n_ab=1), (True, None, 16)),  # one composite each
        (_pair_instance(4, [(0, 1), (2, 2)]), (True, None, 16)),  # a loop: one composite
        (_pair_instance(3, [(0, 1)]), (False, (2, 1, 1), 2)),  # morphism 2 is uncovered
        (_pair_instance(6, [(0, 1), (2, 1), (0, 2)]), (True, None, 64)),  # a triangle
        (_pair_instance(6, [(5, 3)]), (False, (1, 1, 2, 2, 1, 1), 9)),  # rank 0b1000
    ]
    instances = _pair_instances("oracle:pairs", 2000)
    fails = multi_block = 0
    for inst, expected in edge_cases + [(inst, None) for inst in instances]:
        verdict = decide_arrow(inst)
        got = (verdict.holds, verdict.bad_coloring, verdict.counts["colorings_checked"])
        n = verdict.counts["hom_AC"]
        rank = kernel(verdict.table.comp_sets, 2, n)
        if rank is None:
            assert got == (True, None, 2**n), inst
        else:
            assert got == (False, tuple(c + 1 for c in _gray_digits(rank, n, 2)), rank + 1), inst
        if n <= 12:
            assert got == _reference_walk(n, verdict.table.comp_sets, 2), inst
        assert expected is None or got == expected, inst
        fails += not verdict.holds
        multi_block += not verdict.holds and rank >= 3 * 4096
    assert generic == []
    assert 800 <= fails <= 1600 and multi_block >= 100
    decide_arrow(_pair_instance(3, [(0, 1)], k=3))
    decide_arrow(_pair_instance(3, [(0, 1, 2)], n_ab=3))
    assert len(generic) == 2  # the kernel decides k = 3 and three composites


def test_pair_decision_fails_late_at_the_pinned_rank():
    """Point -> chain2 in the 14-point height-2 poset where each even point
    lies below every later odd one: the first bad coloring alternates, at
    Gray rank 6,553 = 0b1100110011001."""
    inst = LATE_FAILURES[-1]
    verdict = decide_arrow(inst)
    assert verdict.bad_coloring == (2, 1) * 7
    assert verdict.counts == {"hom_AC": 14, "hom_BC": 28, "hom_AB": 2, "colorings_checked": 6554}
    recheck, _ = check_coloring(inst, verdict.bad_coloring)
    assert not recheck.holds


def _table(inst: ArrowInstance) -> CompositeTable:
    cat = inst.category
    return CompositeTable(cat, *(cat.hom(x, y) for x, y in
                                 ((inst.A, inst.C), (inst.B, inst.C), (inst.A, inst.B))))


EMPTY_POSET, EMPTY_GRAPH = LinOrderedPoset.build([], []), LinOrderedGraph.build([], [])
K2 = LinOrderedGraph.build([1, 2], [(1, 2)])
K3 = LinOrderedGraph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
A01, ABC = Alphabet(["0", "1"]), Alphabet(["a", "b", "c"])
TABLE_EDGE_CASES = [  # (instance, every composite set is empty)
    (ArrowInstance(POSETS, EMPTY_POSET, CHAIN2, CHAIN3, 2), False),  # A is empty
    (ArrowInstance(POSETS, EMPTY_POSET, EMPTY_POSET, EMPTY_POSET, 3), False),
    (ArrowInstance(GRAPHS, EMPTY_GRAPH, K2, K3, 2), False),
    (ArrowInstance(WordCategory(A0), 0, 1, 3, 2), False),  # ell = 0
    (ArrowInstance(WordCategory(A01), 0, 2, 3, 2), False),
    (ArrowInstance(POSETS, CHAIN3, CHAIN2, CHAIN3, 2), True),  # A does not embed in B
    (ArrowInstance(GRAPHS, K2, LinOrderedGraph.build([1, 2], []),
                   LinOrderedGraph.build([1, 2, 3], [(1, 2)]), 2), True),
    (ArrowInstance(WordCategory(A0), 2, 1, 3, 2), True),
    (ArrowInstance(WordCategory(A01), 1, 2, 3, 2), False),  # letters substituted
    (ArrowInstance(WordCategory(ABC), 0, 1, 2, 2), False),
    (ArrowInstance(WordCategory(ABC), 1, 2, 2, 3), False),
    (ArrowInstance(WordCategory(ABC), 1, 1, 2, 2), False),
]


def test_composite_table_matches_reference_sets():
    instances = _random_instances("oracle:table", 90, 20_000) + LATE_FAILURES
    instances += [inst for inst, _ in TABLE_EDGE_CASES]
    kinds = set()
    for inst in instances:
        table = _table(inst)
        n, reference = _reference_comp_sets(inst)
        assert len(table.hom_ac) == n
        assert table.comp_sets == [tuple(sorted(c)) for c in reference], inst
        assert decide_arrow(inst).table.comp_sets == table.comp_sets
        kinds.add(inst.category.name)
    assert kinds == {"poset", "graph", "words"}
    for inst, empty in TABLE_EDGE_CASES:
        comp_sets = _table(inst).comp_sets
        assert comp_sets and all(c == () for c in comp_sets) == empty, inst
        assert not empty or decide_arrow(inst).holds, inst
    outside = _pair_instance(3, [(0, 1), (2, 5)])  # 5 is no morphism of hom(A,C)
    message = r"^composite of candidate and small morphism falls outside hom\(A, C\)$"
    for build in (_table, decide_arrow):
        with pytest.raises(DomainError, match=message):
            build(outside)


def test_each_candidate_has_distinct_increasing_composites():
    """Each candidate w has exactly |hom(A,B)| composites, in strictly
    increasing hom(A,C) order: w is monic, and composing with w keeps the
    lexicographic order of the enumerations.  The table reads its sets off
    the columns as they are, with no set or sort, because of this."""
    instances = _random_instances("oracle:monic", 90, 20_000) + LATE_FAILURES
    instances += [inst for inst, _ in TABLE_EDGE_CASES]
    kinds, sizes = set(), set()
    for inst in instances:
        table = _table(inst)
        for comps in table.comp_sets:
            assert len(comps) == len(table.hom_ab), inst
            assert all(a < b for a, b in zip(comps, comps[1:])), inst
        kinds.add(inst.category.name)
        sizes.add(min(len(table.hom_ab), 3))
    assert kinds == {"poset", "graph", "words"} and sizes == {0, 1, 2, 3}


def test_word_hom_is_the_enumeration_as_symbol_tuples():
    """The word adapter's hom lists the symbols of words.enumerate_words in
    its order, and refuses with its exception and message."""
    def outcome(run):
        try:
            return run()
        except (BudgetError, DomainError) as exc:
            return type(exc), str(exc)

    refusals = 0
    for letters in (["0"], ["0", "1"], ["a", "b", "c"]):
        cat, alphabet = WordCategory(Alphabet(letters)), Alphabet(letters)
        for n, m, limit in itertools.product(range(6), range(7), (0, 1, 5, 60, 10_000)):
            got = outcome(lambda: cat.hom(m, n, Budget(max_hom=limit)))
            want = outcome(lambda: [w.symbols for w in W.enumerate_words(alphabet, n, m, limit)])
            assert got == want, (letters, n, m, limit)
            refusals += isinstance(got, tuple)
    assert refusals > 20


@pytest.mark.parametrize("inst", [
    ArrowInstance(POSETS, POINT, CHAIN2,
                  LinOrderedPoset.build(range(18), itertools.combinations(range(18), 2)), 2),
    ArrowInstance(WordCategory(A0), 1, 2, 4, 2),
], ids=["chain18", "words"])
def test_composite_table_composes_a_column_per_small_morphism(inst, monkeypatch):
    """One build calls the category's compose_column once per q in
    hom(A,B), each time with every candidate, and never per (w, q) pair."""
    calls = []
    compose_column = type(inst.category).compose_column

    def counting(self, outers, inner):
        calls.append(len(outers))
        return compose_column(self, outers, inner)

    monkeypatch.setattr(type(inst.category), "compose_column", counting)
    table = _table(inst)
    assert len(table.hom_ab) >= 2 and len(table.hom_bc) >= 10
    assert calls == [len(table.hom_bc)] * len(table.hom_ab)


def test_holding_poset_decision_builds_no_embedding(monkeypatch):
    built = []
    new = structures.Embedding.__new__  # a named tuple is made by __new__ alone

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(structures.Embedding, "__new__", counting_new)
    list(enumerate_embeddings(POINT, CHAIN3))
    assert len(built) == 3  # the counter sees embeddings that are made
    built.clear()
    chain6 = LinOrderedPoset.build(range(6), itertools.combinations(range(6), 2))
    for inst in (ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2),
                 ArrowInstance(POSETS, POINT, CHAIN3, chain6, 2)):
        verdict = decide_arrow(inst)
        assert verdict.holds and verdict.counts["hom_AC"] > 1
    assert built == []


def test_three_chain_arrows_two_chain():
    verdict = decide_arrow(ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2))
    assert verdict.holds
    assert verdict.counts == {
        "hom_AC": 3,
        "hom_BC": 3,
        "hom_AB": 2,
        "colorings_checked": 8,
    }


def test_two_chain_fails_with_recheckable_witness():
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN2, 2)
    verdict = decide_arrow(inst)
    assert not verdict.holds
    assert sorted(verdict.bad_coloring) == [1, 2]
    recheck, detail = check_coloring(inst, verdict.bad_coloring)
    assert not recheck.holds
    assert all(len(d["colors_met"]) == 2 for d in detail)


def test_rigid_self_instance_trivially_holds():
    for k in (2, 3):
        verdict = decide_arrow(ArrowInstance(POSETS, CHAIN3, CHAIN3, CHAIN3, k))
        assert verdict.holds
        assert verdict.counts["hom_BC"] == 1


def test_check_coloring_examples():
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    verdict, _ = check_coloring(inst, (1, 1, 2))
    assert verdict.holds
    assert verdict.witness.image() == (1, 2)
    verdict, _ = check_coloring(inst, (1, 1, 1))
    assert verdict.holds and verdict.witness_color == 1
    assert verdict.witness.image() == (1, 2)  # first in enumeration order
    bad = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN2, 2)
    verdict, _ = check_coloring(bad, (1, 2))
    assert not verdict.holds


def test_check_coloring_requires_total_assignment():
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    with pytest.raises(DomainError, match="covers 2 morphisms"):
        check_coloring(inst, (1, 2))


def test_check_coloring_refuses_a_foreign_number_of_colors():
    """A 3-coloring is no coloring of a 2-color instance, even when its
    composites happen to meet one color."""
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    with pytest.raises(DomainError, match=r"color 3 out of range 1\.\.2"):
        check_coloring(inst, (1, 3, 3))


def test_holds_implies_random_colorings_have_witnesses():
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    assert decide_arrow(inst).holds
    rng = random.Random("oracle:roundtrip")
    for _ in range(100):
        coloring = tuple(rng.randint(1, 2) for _ in range(3))
        verdict, _ = check_coloring(inst, coloring)
        assert verdict.holds


def test_gr_examples():
    assert decide_gr(A0, 1, 1, 1, 2).holds
    verdict = decide_gr(A0, 2, 2, 1, 2)
    assert not verdict.holds  # the identity cannot flatten 3 words of 2 colors
    with pytest.raises(DomainError, match="no word"):
        decide_gr(A0, 1, 2, 1, 2)


def _reference_gr(alphabet, n, m, ell, k):
    """(holds, counts, bad coloring) of n -> (m)^ell_k by testing every
    candidate under every coloring of W^n_ell, one coloring at a time in
    itertools.product order."""
    small = list(W.enumerate_words(alphabet, n, ell, 10**6))
    mids = list(W.enumerate_words(alphabet, n, m, 10**6))
    plugs = list(W.enumerate_words(alphabet, m, ell, 10**6))
    index = {w.symbols: i for i, w in enumerate(small)}
    comp = [sorted({index[W.compose(u, v).symbols] for v in plugs}) for u in mids]
    counts = {"hom_AC": len(small), "hom_BC": len(mids), "hom_AB": len(plugs)}
    checked = 0
    for assignment in itertools.product(range(k), repeat=len(small)):
        checked += 1
        if not any(len({assignment[i] for i in comps}) <= 1 for comps in comp):
            return False, {**counts, "colorings_checked": checked}, tuple(c + 1 for c in assignment)
    return True, {**counts, "colorings_checked": checked}, None


def test_gr_matches_the_one_coloring_at_a_time_reference():
    budget = Budget(max_colorings=3 * 10**5)
    compared = []
    for letters in ([], ["0"], ["0", "1"]):
        alphabet = Alphabet(letters)
        for n in range(6):
            for m in range(n + 1):
                for ell in range(m + 2):
                    for k in (2, 3, 4):
                        verdict = _refused_or_verdict(decide_gr, alphabet, n, m, ell, k, budget)
                        if verdict is None:
                            continue
                        got = (verdict.holds, verdict.counts, verdict.bad_coloring)
                        assert got == _reference_gr(alphabet, n, m, ell, k), (letters, n, m, ell, k)
                        compared.append((len(letters), n, m, ell, k, verdict.holds))
    assert len(compared) == 465 and {c[-1] for c in compared} == {True, False}
    # no word of length n and no letter-free one, so hom(B,C) and hom(A,C) are empty
    assert (0, 3, 0, 0, 2, False) in compared


def test_gr_skips_the_block_under_a_monochromatic_prefix():
    """W^3_1 over {0} has 7 words, 0: x1 x1 x1 to 6: 0 0 x1.  Under the
    prefix (1, 1, 1, 1, 1) the composites 0, 3, 4 of x1 x2 x2 share color 1,
    so ranks 0-3 are decided at once; ranks 4-5 and then 6, 7, 8-9 and 10
    follow as blocks too, and rank 11 is the first bad coloring."""
    verdict = decide_gr(A0, 3, 2, 1, 2)
    assert verdict.bad_coloring == (1, 1, 1, 2, 1, 2, 2)
    assert verdict.counts == {"hom_AC": 7, "hom_BC": 6, "hom_AB": 3, "colorings_checked": 12}
    assert (verdict.holds, verdict.counts, verdict.bad_coloring) == _reference_gr(A0, 3, 2, 1, 2)
    recheck, _ = check_coloring(ArrowInstance(WordCategory(A0), 1, 2, 3, 2), verdict.bad_coloring)
    assert not recheck.holds


def test_gr_decides_past_the_reach_of_a_coloring_at_a_time():
    """Each of the 31 words of W^5_1 is a candidate's only composite, so the
    first position decides half of the 2^31 colorings at each of its colors."""
    start = time.perf_counter()
    verdict = decide_gr(A0, 5, 1, 1, 2, Budget(max_colorings=2**31))
    assert time.perf_counter() - start < 1
    assert verdict.holds
    assert verdict.counts == {"hom_AC": 31, "hom_BC": 31, "hom_AB": 1, "colorings_checked": 2**31}


def test_gr_agrees_with_generic_oracle_small():
    cat = WordCategory(A0)
    for n in (1, 2, 3):
        for m in range(1, n + 1):
            for ell in range(1, m + 1):
                direct = decide_gr(A0, n, m, ell, 2)
                generic = decide_arrow(ArrowInstance(cat, ell, m, n, 2))
                assert direct.holds == generic.holds, (n, m, ell)


def _refused_or_verdict(decide, *args):
    try:
        return decide(*args)
    except BudgetError:
        return None


@pytest.mark.parametrize("k", [2, 3])
def test_word_premise_decisions_match_the_reference(k):
    """decide_arrow on WordCategory, which decides the transfer's word
    premise, against decide_gr: the same refusals, verdicts and, when the
    arrow holds, counts."""
    cat = WordCategory(A0)
    verdicts = []
    for n in range(1, 7):
        for fd in range(1, n + 1):
            for fe in range(1, fd + 1):
                generic = _refused_or_verdict(decide_arrow, ArrowInstance(cat, fe, fd, n, k))
                direct = _refused_or_verdict(decide_gr, A0, n, fd, fe, k)
                if generic is None or direct is None:
                    assert generic is None and direct is None, (n, fd, fe)
                    continue
                verdicts.append(generic.holds)
                assert generic.holds == direct.holds, (n, fd, fe)
                if generic.holds:
                    assert generic.counts == direct.counts, (n, fd, fe)
    assert len(verdicts) >= 15 and 0 < sum(verdicts) < len(verdicts)


def test_word_premise_bad_coloring_is_confirmed():
    inst = ArrowInstance(WordCategory(A0), 1, 2, 2, 2)
    verdict = decide_arrow(inst)
    assert verdict.bad_coloring == (2, 1, 1)
    recheck, _ = check_coloring(inst, verdict.bad_coloring)
    assert not recheck.holds


def test_budget_refusals_name_the_blowup():
    inst = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    with pytest.raises(BudgetError, match=r"2\^3"):
        decide_arrow(inst, Budget(max_colorings=4))
    with pytest.raises(BudgetError, match="hom"):
        decide_arrow(inst, Budget(max_hom=1))
    with pytest.raises(BudgetError, match=r"2\^31"):
        decide_gr(A0, 5, 2, 1, 2, Budget(max_colorings=100_000))


def test_negative_budgets_are_domain_errors():
    with pytest.raises(DomainError, match="^hom budget must be nonnegative, got -2$"):
        Budget(max_hom=-2)
    with pytest.raises(DomainError, match="^coloring budget must be nonnegative, got -1$"):
        Budget(max_colorings=-1)
    assert Budget(max_hom=0, max_colorings=0) == Budget(0, 0)


def test_repeated_decisions_agree():
    instances = [
        ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2),
        ArrowInstance(POSETS, POINT, CHAIN2, CHAIN2, 2),
        ArrowInstance(POSETS, CHAIN3, CHAIN3, CHAIN3, 2),
    ]
    for inst in instances:
        first = decide_arrow(inst)
        second = decide_arrow(inst)
        assert first == second
        if not second.holds:
            recheck, _ = check_coloring(inst, second.bad_coloring)
            assert not recheck.holds


def test_k_must_be_at_least_two():
    with pytest.raises(DomainError):
        ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 1)
    with pytest.raises(DomainError):
        decide_gr(A0, 2, 1, 1, 1)


def test_count_words_matches_hom_sizes():
    cat = WordCategory(A0)
    for n in (1, 2, 3, 4):
        for m in range(0, n + 1):
            assert len(cat.hom(m, n)) == count_words(A0, n, m)


def test_monotonicity_probe_logged_not_asserted():
    # evidence-only probe: when C embeds into a larger C2 and the arrow holds
    # for C, record whether random colorings of hom(A, C2) still admit
    # witnesses; nothing about the outcome is claimed.
    inst_small = ArrowInstance(POSETS, POINT, CHAIN2, CHAIN3, 2)
    assert decide_arrow(inst_small).holds
    chain4 = LinOrderedPoset.build([1, 2, 3, 4], [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
    inst_big = ArrowInstance(POSETS, POINT, CHAIN2, chain4, 2)
    rng = random.Random("oracle:monotone")
    outcomes = []
    for _ in range(20):
        coloring = tuple(rng.randint(1, 2) for _ in range(4))
        verdict, _ = check_coloring(inst_big, coloring)
        outcomes.append(verdict.holds)
    print(f"monotonicity probe: {sum(outcomes)}/{len(outcomes)} colorings had witnesses")
    assert len(outcomes) == 20
