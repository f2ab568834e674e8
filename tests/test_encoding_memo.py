"""The encoders remember the last few structures they encoded.

Each of the four encoders is wrapped by ``structures._memo_recent``: a hit
must return exactly what the undecorated encoder builds, an equal but
distinct structure must get its own encoding, and the memo must keep only a
bounded number of structures alive.
"""

import copy
import gc
import random
import weakref

import pytest

from ramseylift import graph_encoding as GE
from ramseylift import metric_encoding as ME
from ramseylift import poset_encoding as PE
from ramseylift import ultrametric_encoding as UE
from ramseylift.errors import DomainError, SpectrumError
from ramseylift.harness import random_graph, random_metric, random_poset, random_ultrametric
from ramseylift.metric_encoding import phi_metric
from ramseylift.structures import _MEMO_SIZE, LinOrderedMetricSpace, identity_embedding

ENCODERS = {  # selector -> (memoized encoder, seeded random structure)
    "graph": (GE.encode_graph, random_graph),
    "poset": (PE.encode_poset, random_poset),
    "ultrametric": (UE._encode, random_ultrametric),
    "metric": (ME.encode_metric, random_metric),
}


def _structures(selector, count, seed=0):
    rng = random.Random(f"memo:{selector}:{seed}")
    return [ENCODERS[selector][1](rng) for _ in range(count)]


@pytest.mark.parametrize("selector", sorted(ENCODERS))
def test_memo_matches_the_undecorated_encoder(selector):
    encode, _ = ENCODERS[selector]
    structures = _structures(selector, 3 * _MEMO_SIZE)
    n = len(structures)
    # cycle through more structures than the memo holds, with repeats in between
    order = [i % n for i in range(2 * n)] + [i // 3 for i in range(3 * n)]
    for i in order:
        s = structures[i]
        assert encode(s) == encode.__wrapped__(s)


@pytest.mark.parametrize("selector", sorted(ENCODERS))
def test_memo_returns_the_stored_encoding_on_a_hit(selector):
    encode, _ = ENCODERS[selector]
    a, b = _structures(selector, 2)
    first = encode(a)
    encode(b)
    assert encode(a) is first


@pytest.mark.parametrize("selector", sorted(ENCODERS))
def test_equal_copy_gets_its_own_encoding(selector):
    encode, _ = ENCODERS[selector]
    (s,) = _structures(selector, 1)
    twin = copy.copy(s)
    assert twin == s and twin is not s
    assert encode(twin) == encode(s)
    assert encode(twin) is not encode(s)


def test_encoding_of_an_equal_copy_holds_the_copy():
    (space,) = _structures("ultrametric", 1)
    twin = copy.copy(space)
    assert UE.encode_ultrametric(space).space is space
    assert UE.encode_ultrametric(twin).space is twin


@pytest.mark.parametrize("selector", sorted(ENCODERS))
def test_memo_keeps_a_bounded_number_of_structures_alive(selector):
    encode, _ = ENCODERS[selector]
    first, *others = _structures(selector, _MEMO_SIZE + 1, seed=1)
    ref = weakref.ref(first)
    encode(first)
    for s in others[:-1]:
        encode(s)
    del first
    gc.collect()
    assert ref() is not None  # still among the last _MEMO_SIZE encoded
    encode(others[-1])
    gc.collect()
    assert ref() is None


def test_phi_metric_checks_domain_before_tightness():
    space = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): 1}, [0, 1, 5])
    other = LinOrderedMetricSpace.build(["a", "b"], {("a", "b"): 5}, [0, 1, 5])
    foreign = identity_embedding(ME.encode_metric(other))
    with pytest.raises(DomainError):
        phi_metric(space, foreign.target, foreign)
    u = identity_embedding(ME.encode_metric(space))
    with pytest.raises(SpectrumError, match="phi requires a tight spectrum"):
        phi_metric(space, u.target, u)
