import random

import pytest

from ramseylift.errors import DomainError, VerificationError
from ramseylift.harness import random_embedded_pair, random_word, selector_impl
from ramseylift.poset_encoding import (
    encode_poset,
    phi_poset,
    poset_on_subsets,
    powerset_poset,
    witness_poset,
)
from ramseylift.structures import (
    LinOrderedPoset,
    check_embedding,
    downsets,
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
)

from util import all_posets_on

A0 = Alphabet(["0"])
CHAIN2 = LinOrderedPoset.build([1, 2], [(1, 2)])
ANTI2 = LinOrderedPoset.build([1, 2], [])
POINT = LinOrderedPoset.build([1], [])


def ref_witness_poset(p, p2, f, u):
    """The downset preimage loop over element sets, kept as the reference
    for ``witness_poset``."""
    if f.source != p2 or f.target != p:
        raise DomainError("witness requires an embedding of the second poset into the first")
    if not u.alphabet.letters:
        raise DomainError("witness construction needs at least one letter for the blanks")
    enc = encode_poset(p)
    enc2 = encode_poset(p2)
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the poset encodes to object {enc.object}"
        )
    index2 = {dset: j for j, dset in enumerate(enc2.downsets)}
    symbols = []
    for dset in enc.downsets:
        preimage = frozenset(b for b in p2.universe if f(b) in dset)
        if not preimage:
            symbols.append(letter_token(0))
            continue
        j = index2.get(preimage)
        if j is None:
            raise VerificationError(
                f"preimage {sorted(preimage)!r} of a downset is not a downset of the subposet"
            )
        symbols.append(j + 1)
    h = validate(symbols, u.alphabet, enc2.object)
    u_hat = phi_poset(p, u)
    check = phi_poset(p2, compose(u, h))
    for b in p2.universe:
        if check[b] != u_hat[f(b)]:
            raise VerificationError(
                f"factorization fails at element {b!r}: "
                f"{sorted(check[b])} vs {sorted(u_hat[f(b)])}"
            )
    return h


def test_encode_examples():
    assert encode_poset(ANTI2).object == 3
    assert encode_poset(ANTI2).downsets == (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    assert encode_poset(ANTI2).members == (0b1, 0b10, 0b11)
    assert encode_poset(ANTI2).family == encode_poset(ANTI2).downsets
    assert encode_poset(CHAIN2).object == 2
    assert encode_poset(POINT).object == 1


def test_phi_chain():
    images = phi_poset(CHAIN2, parse("x1 x2", A0))
    assert images == {1: frozenset({1, 2}), 2: frozenset({2})}


def test_phi_antichain():
    images = phi_poset(ANTI2, parse("x1 x2 x3", A0))
    assert images == {1: frozenset({1, 3}), 2: frozenset({2, 3})}


def test_phi_point():
    assert phi_poset(POINT, parse("x1", A0)) == {1: frozenset({1})}


def test_phi_parameter_mismatch():
    with pytest.raises(DomainError, match="parameters"):
        phi_poset(CHAIN2, parse("x1 x2 x3", A0))


def test_witness_identity_case():
    u = parse("x1 x2", A0)
    assert witness_poset(CHAIN2, CHAIN2, identity_embedding(CHAIN2), u) == identity(A0, 2)


def test_witness_chain_to_point():
    f = check_embedding({1: 1}, POINT, CHAIN2)
    h = witness_poset(CHAIN2, POINT, f, parse("x1 x2", A0))
    assert h.text() == "x1 x1"


def test_witness_antichain_to_point():
    u = parse("x1 x2 x3", A0)
    f = check_embedding({1: 2}, POINT, ANTI2)
    h = witness_poset(ANTI2, POINT, f, u)
    assert h.text() == "0 x1 x1"
    images = phi_poset(POINT, compose(u, h))
    assert images[1] == frozenset({2, 3})
    assert images[1] == phi_poset(ANTI2, u)[2]


@pytest.mark.parametrize("n_elements", range(1, 5))
def test_phi_is_embedding_exhaustive(n_elements):
    for p in all_posets_on(n_elements):
        obj = encode_poset(p).object
        extra = 1 if obj <= 6 else 0
        for n in range(obj, obj + extra + 1):
            for u in enumerate_words(A0, n, obj, 100_000):
                images = phi_poset(p, u)
                codomain = poset_on_subsets(n, set(images.values()))
                check_embedding(images, p, codomain)


def test_factorization_random_instances():
    rng = random.Random("poset:pa")
    for _ in range(60):
        D, E = random_embedded_pair(rng, "poset")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        obj = encode_poset(D).object
        u = random_word(rng, A0, obj + rng.randint(0, 2), obj)
        h = witness_poset(D, E, f, u)
        assert (h.n, h.m) == (obj, encode_poset(E).object)
        lhs = phi_poset(D, u)
        rhs = phi_poset(E, compose(u, h))
        assert all(rhs[x] == lhs[f(x)] for x in E.universe)


def test_witness_matches_the_preimage_loop():
    rng = random.Random("poset:witness-reference")
    impl = selector_impl("poset")
    for _ in range(2000):
        D, E = random_embedded_pair(rng, "poset")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        u = impl.random_u(rng, D)
        h, ref = witness_poset(D, E, f, u), ref_witness_poset(D, E, f, u)
        assert (h.symbols, h.m) == (ref.symbols, ref.m)


def test_downset_preimages_are_downsets_and_cover():
    rng = random.Random("poset:preimages")
    for _ in range(60):
        D, E = random_embedded_pair(rng, "poset")
        f = rng.choice(list(enumerate_embeddings(E, D)))
        sub_downsets = set(downsets(E))
        preimages = {
            frozenset(b for b in E.universe if f(b) in dset)
            for dset in encode_poset(D).downsets
        }
        preimages.discard(frozenset())
        assert preimages == sub_downsets


def test_powerset_poset_shape():
    p = powerset_poset(2)
    assert len(p.universe) == 4
    # reverse inclusion: the full set is the bottom, the empty set the top
    full = frozenset({1, 2})
    assert all(p.below(full, x) for x in p.universe)
    assert all(p.below(x, frozenset()) for x in p.universe)
