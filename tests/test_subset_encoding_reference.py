"""The graph and poset encodings checked against the derivations they replaced.

The encoders build ``members``, the family as rank masks, in one pass, and
``phi`` ORs each variable block into the images of its member's ranks.  The
references below are the earlier derivations: the graph family sorted as
frozensets with ``sort_subsets(..., "clex", ...)``, the poset family as the
frozenset downsets found by brute force, both turned into masks through
``rank_map``, and images read through ``holding`` (for each rank, the
indices of the members that contain it).  On seeded random graphs and
posets (empty, one-element, with string, float or bool labels, and raw
rows that no validator saw) every outcome must agree: the value, or the
exception's class and message.  A raw graph's edges are the bits above the
diagonal of its rows.

The member order must not depend on how labels hash, so CI also runs this
file under two values of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

from ramseylift import graph_encoding as GE
from ramseylift import poset_encoding as PE
from ramseylift.errors import DomainError, VerificationError
from ramseylift.harness import random_word
from ramseylift.orders import BaseOrder, sort_subsets
from ramseylift.structures import (
    Embedding,
    LinOrderedGraph,
    LinOrderedPoset,
    enumerate_embeddings,
    induced_substructure,
)
from ramseylift.words import Alphabet, compose, letter_token, validate

from test_structure_core import ref_downsets

A0 = Alphabet(["0"])
LABELS = {  # label kind -> the first n labels
    "int": lambda n: list(range(1, n + 1)),
    "str": lambda n: [f"v{i}" for i in range(n)],
    "mixed": lambda n: [f"v{i}" if i % 2 else i for i in range(n)],
}


# ---------------------------------------------------------------------------
# references


def _masks(s, family) -> tuple[int, ...]:
    rank = s.order.rank_map
    return tuple(sum(1 << rank[x] for x in m) for m in family)


def ref_encode_graph(g):
    uni = g.universe
    edges = [frozenset((uni[r], uni[q])) for r, q in itertools.combinations(range(len(uni)), 2)
             if g.rows[r] >> q & 1]
    edge_order = tuple(map(frozenset, sort_subsets(g.order, "clex", edges)))
    family = tuple(frozenset([v]) for v in g.universe) + edge_order
    return SimpleNamespace(structure=g, edge_order=edge_order, family=family,
                           members=_masks(g, family), object=len(family),
                           related=GE.GraphEncoding.related)


def ref_encode_poset(p):
    family = ref_downsets(p)
    return SimpleNamespace(structure=p, downsets=family, family=family,
                           members=_masks(p, family), object=len(family),
                           related=PE.PosetEncoding.related)


def ref_positions(mask, n):
    return frozenset(p for p in range(1, n + 1) if mask >> n - p & 1)


def ref_images(enc, u):
    s = enc.structure
    if u.m != enc.object:
        raise DomainError(
            f"word has {u.m} parameters but the {s.kind} encodes to object {enc.object}"
        )
    n = u.n
    parts = [0] * u.m
    for pos, tok in enumerate(u.symbols, start=1):
        if tok > 0:
            parts[tok - 1] |= 1 << n - pos
    holding = [[a for a, m in enumerate(enc.members) if m >> r & 1]
               for r in range(len(s.universe))]
    images = []
    for held in holding:
        img = 0
        for a in held:
            img |= parts[a]
        images.append(img)
    k, rows, related, uni = len(images), s.relation_rows, enc.related, s.universe
    for r, q in itertools.combinations(range(k), 2):
        a, b = images[r], images[q]
        if (related(a, b) != rows[k + r] >> q & 1
                or related(b, a) != rows[k + q] >> r & 1):
            raise VerificationError(
                f"images of {uni[r]!r},{uni[q]!r} do not bear the {s.kind} relation"
            )
        if not a > b:
            raise VerificationError(f"images of {uni[r]!r},{uni[q]!r} are not clex-increasing")
    return images


def ref_phi(enc, u):
    return {x: ref_positions(img, u.n) for x, img in zip(enc.structure.universe, ref_images(enc, u))}


def ref_witness(enc, enc2, f, u):
    D, E = enc.structure, enc2.structure
    if f.source != E or f.target != D:
        raise DomainError(f"witness requires an embedding of the second {D.kind} into the first")
    if not u.alphabet.letters:
        raise DomainError("witness construction needs at least one letter for the blanks")
    u_hat = ref_images(enc, u)
    index = {m: j for j, m in enumerate(enc2.members, start=1)}
    symbols = []
    for member in enc.members:
        pre = sum(1 << i for i, t in enumerate(f.ranks) if member >> t & 1)
        if pre and pre not in index:
            raise VerificationError(
                f"preimage {[x for i, x in enumerate(E.universe) if pre >> i & 1]!r} "
                f"of a member is not a member of the embedded {E.kind}'s family"
            )
        symbols.append(index[pre] if pre else letter_token(0))
    h = validate(symbols, u.alphabet, enc2.object)
    for x, img, t in zip(E.universe, ref_images(enc2, compose(u, h)), f.ranks):
        if img != u_hat[t]:
            raise VerificationError(
                f"factorization fails at {x!r}: "
                f"{sorted(ref_positions(img, u.n))} vs {sorted(ref_positions(u_hat[t], u.n))}"
            )
    return h


def outcome(fn, *args):
    """The result, or the exception's class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any difference is a failure
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# seeded inputs


def _labels(rng, n):
    labels = LABELS[rng.choice(sorted(LABELS))](n)
    rng.shuffle(labels)  # the declared order, not the labels' own order, ranks them
    return labels


def random_graphs(rng, count):
    yield LinOrderedGraph.build([], [])
    yield LinOrderedGraph.build(["only"], [])
    for _ in range(count):
        vertices = _labels(rng, rng.randint(0, 6))
        yield LinOrderedGraph.build(
            vertices, [e for e in itertools.combinations(vertices, 2) if rng.random() < 0.5])


def raw_graphs(rng, count):
    """Adjacency rows that need be neither symmetric nor free of self-loops,
    so some images do not bear the adjacency; no validator saw them."""
    for _ in range(count):
        n = rng.randint(3, 5)
        rows = [sum(1 << q for q in range(n) if rng.random() < 0.4) for _ in range(n)]
        yield LinOrderedGraph(BaseOrder(_labels(rng, n)), tuple(rows))


def random_posets(rng, count):
    yield LinOrderedPoset.build([], [])
    yield LinOrderedPoset.build(["only"], [])
    for _ in range(count):
        n = rng.randint(0, 6)
        up = [1 << r for r in range(n)]
        for r, s in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                up[r] |= 1 << s
        for r in reversed(range(n)):  # transitive closure, from the top down
            for s in range(r + 1, n):
                if up[r] >> s & 1:
                    up[r] |= up[s]
        yield LinOrderedPoset.from_rows(_labels(rng, n), up)


def raw_posets(rng, count):
    """Up rows that point upward but are not closed under transitivity, so
    some images do not bear the order; no validator saw them."""
    for _ in range(count):
        n = rng.randint(3, 5)
        up = [1 << r | sum(1 << s for s in range(r + 1, n) if rng.random() < 0.4)
              for r in range(n)]
        yield LinOrderedPoset(BaseOrder(_labels(rng, n)), tuple(up))


def _words(rng, obj):
    """Words with the encoded object's parameter count, one with a
    parameter too many, and one over an alphabet without letters."""
    words = [random_word(rng, A0, max(obj, 1) + rng.randint(0, 2), obj) for _ in range(3)]
    words.append(random_word(rng, A0, obj + 2, obj + 1))
    if obj:
        words.append(validate(list(range(1, obj + 1)), Alphabet([]), obj))
    return words


def _embeddings(rng, D, raw):
    """Embeddings into D: from induced substructures, and unchecked rank
    tuples that need not be embeddings at all; only the identity for a raw
    D, which has no validated substructure."""
    if raw:
        return [Embedding(D, D, tuple(range(len(D.universe))))]
    found = []
    for _ in range(2):
        keep = rng.sample(list(D.universe), rng.randint(0, len(D.universe)))
        E = induced_substructure(D, keep)
        found.append(rng.choice(list(enumerate_embeddings(E, D))))
    for _ in range(2):
        ranks = tuple(sorted(rng.sample(range(len(D.universe)), rng.randint(0, len(D.universe)))))
        E = induced_substructure(D, rng.sample(list(D.universe), len(ranks)))
        found.append(Embedding(E, D, ranks))
    return found


# ---------------------------------------------------------------------------
# the differential checks


KINDS = {  # kind -> (encode, phi, witness, reference encode, view)
    "graph": (GE.encode_graph, GE.phi_graph, GE.witness_graph, ref_encode_graph, "edge_order"),
    "poset": (PE.encode_poset, PE.phi_poset, PE.witness_poset, ref_encode_poset, "downsets"),
}


def _label(result) -> str:
    return f"{result[0].__name__}: {result[1]}" if isinstance(result, tuple) else "value"


def _check(kind, rng, s, raw) -> set[str]:
    """Compare every outcome on ``s``; return what they were."""
    encode, phi, witness, ref_encode, view = KINDS[kind]
    enc, ref = outcome(encode, s), outcome(ref_encode, s)
    if isinstance(ref, tuple):  # an exception
        assert enc == ref
        return {"encode " + _label(ref)}
    assert (enc.structure, enc.members, enc.object) == (s, ref.members, ref.object)
    assert (enc.family, getattr(enc, view)) == (ref.family, getattr(ref, view))
    # the views hold the universe's labels, which the CLI prints
    assert [sorted(map(repr, m)) for m in enc.family] == [sorted(map(repr, m)) for m in ref.family]
    seen = set()
    for u in _words(rng, ref.object):
        want = outcome(ref_phi, ref, u)
        assert outcome(phi, s, u) == want
        seen.add("phi " + _label(want))
    if not s.universe:
        return seen
    u = random_word(rng, A0, ref.object + rng.randint(0, 2), ref.object)
    letterless = validate(list(range(1, ref.object + 1)), Alphabet([]), ref.object)
    for f in _embeddings(rng, s, raw):
        # also with the structure itself in place of f's source, and without letters
        for E, word in ((f.source, u), (s, u), (f.source, letterless)):
            got = outcome(witness, s, E, f, word)
            want = outcome(ref_witness, ref, ref_encode(E), f, word)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert (got.symbols, got.m, got.n) == (want.symbols, want.m, want.n)
            seen.add("witness " + _label(want))
    return seen


def _kinds_of(seen) -> set[str]:
    """The outcomes, with messages cut to their first three words."""
    return {" ".join(label.split(" ")[:3]) for label in seen}


def test_graph_encodings_match_the_frozenset_references():
    rng = random.Random("subset-reference:graph")
    seen = set()
    for g in random_graphs(rng, 150):
        seen |= _check("graph", rng, g, raw=False)
    for g in raw_graphs(rng, 40):
        seen |= _check("graph", rng, g, raw=True)
    # the inputs are not all easy: they reach each of these outcomes
    assert {"phi VerificationError: images", "phi value", "phi DomainError: word", "witness value",
            "witness DomainError: witness", "witness VerificationError: preimage",
            } <= _kinds_of(seen), sorted(_kinds_of(seen))


def test_poset_encodings_match_the_frozenset_references():
    rng = random.Random("subset-reference:poset")
    seen = set()
    for p in random_posets(rng, 150):
        seen |= _check("poset", rng, p, raw=False)
    for p in raw_posets(rng, 40):
        seen |= _check("poset", rng, p, raw=True)
    assert {"phi value", "phi DomainError: word", "phi VerificationError: images",
            "witness value", "witness DomainError: witness",
            "witness VerificationError: preimage", "witness VerificationError: images",
            } <= _kinds_of(seen), sorted(_kinds_of(seen))
