import random

import pytest

from ramseylift import fixtures, harness, oracle
from ramseylift.errors import BudgetError, DomainError, PremiseError
from ramseylift.harness import (
    SELECTORS,
    pa_harness,
    random_embedded_pair,
    random_structure,
    transfer_demo,
)
from ramseylift.oracle import Budget
from ramseylift.structures import (
    ConvUltrametricSpace,
    LinOrderedGraph,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    enumerate_embeddings,
    validate_structure,
)

CHAIN2 = LinOrderedPoset.build([1, 2], [(1, 2)])
POINT_POSET = LinOrderedPoset.build([1], [])
U_PAIR = ConvUltrametricSpace.build([1, 2], {(1, 2): 1}, [0, 1])
U_POINT = ConvUltrametricSpace.build([1], {}, [0, 1])
M_POINT = LinOrderedMetricSpace.build([1], {}, [0, 1])


_PROTOCOL = ("category", "compose", "encode", "phi", "witness", "decode", "candidates",
             "refusal", "random_structure", "random_u")


@pytest.mark.parametrize("selector", SELECTORS)
def test_every_selector_exposes_the_protocol(selector):
    """Each selector answers every protocol name itself, with no template
    base class behind it."""
    impl = harness.selector_impl(selector)
    assert [name for name in _PROTOCOL if not hasattr(impl, name)] == []
    assert isinstance(impl.refusal, str)
    assert all(callable(getattr(impl, name)) for name in _PROTOCOL
               if name not in ("category", "refusal"))
    assert type(impl).__bases__ == (object,)


@pytest.mark.parametrize("selector", SELECTORS)
def test_random_structures_validate(selector):
    rng = random.Random(f"harness:{selector}")
    for _ in range(40):
        s = random_structure(rng, selector)
        validate_structure(s)
        d, e = random_embedded_pair(rng, selector)
        assert any(True for _ in enumerate_embeddings(e, d))


@pytest.mark.parametrize("selector", SELECTORS)
def test_pa_harness_random_instances(selector):
    report = pa_harness(selector, trials=40, seed=17)
    assert report.all_passed, [t.to_json() for t in report.failures]


def test_pa_harness_fixed_pair():
    report = pa_harness("graph", fixtures.GRAPH, fixtures.SUBGRAPH, trials=25, seed=3)
    assert report.all_passed


def test_pa_harness_identity_pair():
    report = pa_harness("poset", CHAIN2, CHAIN2, trials=10, seed=3)
    assert report.all_passed


def test_pa_harness_argument_errors():
    with pytest.raises(DomainError, match="both"):
        pa_harness("poset", CHAIN2, None, trials=1)
    antichain = LinOrderedPoset.build([1, 2], [])
    chain3 = LinOrderedPoset.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(DomainError, match="embed"):
        pa_harness("poset", chain3, antichain, trials=1)
    with pytest.raises(DomainError, match="selector"):
        pa_harness("group", trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_pa_harness_refuses_fewer_than_one_trial(trials):
    with pytest.raises(DomainError, match="trials must be at least 1"):
        pa_harness("graph", trials=trials)


def test_transfer_demo_graph():
    g = LinOrderedGraph.build([1, 2], [(1, 2)])
    report = transfer_demo("graph", g, g, 2, seed=5)
    assert report.verified
    assert report.premise["object"] == 3
    assert len(report.composites) == 1


def test_transfer_demo_poset():
    report = transfer_demo("poset", CHAIN2, CHAIN2, 2, seed=5)
    assert report.verified
    assert report.premise["object"] == 2


def test_transfer_demo_ultrametric_nontrivial():
    report = transfer_demo(
        "ultrametric", U_PAIR, U_POINT, 2, budget=Budget(max_colorings=600_000), seed=5
    )
    assert report.verified
    assert report.premise["object"] == {"powerset_poset": 3}
    assert len(report.pulled_back) == 19
    assert len(report.composites) == 2
    assert all(c["color"] == report.mono_color for c in report.composites)
    assert all(c["factorization_exact"] for c in report.composites)


@pytest.mark.parametrize("selector", SELECTORS)
def test_transfer_demo_reuses_the_premise_table(selector, monkeypatch):
    """transfer_demo reads hom(FE, C), hom(FD, C) and the composite table
    from the premise's last decision instead of building them again."""
    tables, decisions = [], []
    init, decide = oracle.CompositeTable.__init__, harness.decide_arrow

    def counting_init(self, *args):
        tables.append(self)
        init(self, *args)

    def counting_decide(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    monkeypatch.setattr(oracle.CompositeTable, "__init__", counting_init)
    monkeypatch.setattr(harness, "decide_arrow", counting_decide)
    point = {"graph": LinOrderedGraph.build([1], []), "poset": POINT_POSET,
             "ultrametric": U_POINT, "metric": M_POINT}[selector]
    D = U_PAIR if selector == "ultrametric" else point
    report = transfer_demo(selector, D, point, 2, seed=5)
    assert report.verified
    assert len(tables) == len(decisions) >= 1
    assert decisions[-1].table is tables[-1]
    assert len(report.pulled_back) == len(tables[-1].hom_ac)


def test_transfer_demo_metric():
    report = transfer_demo("metric", M_POINT, M_POINT, 2, seed=5)
    assert report.verified
    assert report.premise["object"] == {"powerset_poset": 1}


def test_transfer_demo_constant_coloring_takes_first_candidate():
    report = transfer_demo("poset", CHAIN2, CHAIN2, 2, coloring=[1, 1, 1, 1, 1], seed=5)
    assert report.verified
    assert report.mono_index == 0 and report.mono_color == 1


def test_transfer_demo_premise_error_carries_coloring():
    with pytest.raises(PremiseError) as err:
        transfer_demo("poset", CHAIN2, POINT_POSET, 2, C=2, seed=1)
    assert err.value.bad_coloring is not None
    assert len(err.value.bad_coloring) == 3


def test_transfer_demo_poset_premise_error():
    from ramseylift.poset_encoding import powerset_poset

    with pytest.raises(PremiseError) as err:
        transfer_demo("ultrametric", U_PAIR, U_POINT, 2, C=powerset_poset(2), seed=1)
    assert len(err.value.bad_coloring) == 5


def test_transfer_demo_budget_refusal():
    with pytest.raises(BudgetError):
        transfer_demo("poset", CHAIN2, POINT_POSET, 2, budget=Budget(max_colorings=40_000))


def test_transfer_demo_refuses_a_given_poset_past_the_decode_bound(monkeypatch):
    """A given C whose tuple space exceeds the decode bound is refused
    before its premise is decided."""
    from ramseylift.poset_encoding import powerset_poset

    decisions = []
    monkeypatch.setattr(harness, "decide_arrow", lambda *args: decisions.append(args))
    point = ConvUltrametricSpace.build([1], {}, [0, 1, 2, 3])
    with pytest.raises(BudgetError) as err:
        transfer_demo("ultrametric", point, point, 2, C=powerset_poset(3))
    assert str(err.value) == "full tuple space has 512 points, above the bound 343"
    assert decisions == []


def test_transfer_demo_probe_refusal_names_the_last_object_decided():
    gedge, gpoint = LinOrderedGraph.build([1, 2], [(1, 2)]), LinOrderedGraph.build([1], [])
    with pytest.raises(BudgetError) as err:
        transfer_demo("graph", gedge, gpoint, 2, budget=Budget(max_hom=16))
    assert str(err.value) == ("no base object that decodes within the budget arrows the "
                              "encoded pair (last decided: 4)")
    with pytest.raises(BudgetError, match=r"\(last decided: null\)"):
        transfer_demo("graph", gedge, gpoint, 2, budget=Budget(max_hom=4))


def test_transfer_demo_rejects_non_embeddable_pair():
    anti = LinOrderedPoset.build([1, 2], [])
    with pytest.raises(DomainError, match="embed"):
        transfer_demo("poset", CHAIN2, anti, 2)


def test_transfer_demo_explicit_poset_premise():
    from ramseylift.poset_encoding import powerset_poset

    report = transfer_demo("metric", M_POINT, M_POINT, 2, C=powerset_poset(1), seed=2)
    assert report.verified
    assert report.premise["probed"] is False


def test_transfer_demo_coloring_must_fit():
    with pytest.raises(DomainError, match="coloring"):
        transfer_demo("poset", CHAIN2, CHAIN2, 2, coloring=[1, 2], seed=5)


@pytest.mark.parametrize("run, message", [
    (lambda: transfer_demo("graph", CHAIN2, CHAIN2, 2), "D must be of kind graph, got poset"),
    (lambda: transfer_demo("ultrametric", U_PAIR, M_POINT, 2),
     "E must be of kind ultrametric, got metric"),
    (lambda: pa_harness("metric", CHAIN2, CHAIN2), "D must be of kind metric, got poset"),
    (lambda: pa_harness("poset", CHAIN2, LinOrderedGraph.build([1], []), trials=1),
     "E must be of kind poset, got graph"),
], ids=["transfer-D", "transfer-E", "pa-D", "pa-E"])
def test_library_refuses_structures_of_another_kind(run, message):
    with pytest.raises(DomainError) as err:
        run()
    assert str(err.value) == message
