import itertools
import random

import pytest

from ramseylift import structures
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
    of its composites), composing the public morphisms: embeddings by
    compose_embeddings, parameter words by words.compose."""
    if isinstance(inst.category, WordCategory):
        hom, compose = inst.category.hom, W.compose
    else:
        hom, compose = (lambda x, y: list(enumerate_embeddings(x, y))), compose_embeddings
    hom_ac, hom_ab = hom(inst.A, inst.C), hom(inst.A, inst.B)
    index = {m: i for i, m in enumerate(hom_ac)}
    return len(hom_ac), [{index[compose(w, q)] for q in hom_ab} for w in hom(inst.B, inst.C)]


def _reference_decide(inst: ArrowInstance):
    """(holds, bad coloring, colorings checked) by walking the reference
    Gray order and re-checking every candidate at every coloring."""
    n, comps = _reference_comp_sets(inst)
    state = [0] * n
    steps = _gray_steps(n, inst.k)
    for rank in itertools.count():
        if not any(len({state[i] for i in c}) <= 1 for c in comps):
            return False, tuple(c + 1 for c in state), rank + 1
        step = next(steps, None)
        if step is None:
            return True, None, rank + 1
        state[step[0]] = step[2]


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
]


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


def test_composite_table_matches_reference_sets():
    instances = _random_instances("oracle:table", 90, 20_000) + LATE_FAILURES
    kinds = set()
    for inst in instances:
        cat = inst.category
        table = CompositeTable(cat, *(cat.hom(x, y) for x, y in
                                      ((inst.A, inst.C), (inst.B, inst.C), (inst.A, inst.B))))
        n, reference = _reference_comp_sets(inst)
        assert len(table.hom_ac) == n
        assert table.comp_sets == [tuple(sorted(c)) for c in reference], inst
        assert decide_arrow(inst).table.comp_sets == table.comp_sets
        kinds.add(cat.name)
    assert kinds == {"poset", "graph", "words"}


def test_holding_poset_decision_builds_no_embedding(monkeypatch):
    built = []
    init = structures.Embedding.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(structures.Embedding, "__init__", counting_init)
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
