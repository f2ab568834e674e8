"""Differential tests: the rank-native ultrametric and metric encodings
against the element-pair forms they replaced.

The references below are the library's earlier encoders, which built each
ball or level poset pair by pair through ``LinOrderedPoset.build``, and
its element-form ``phi`` and ``witness``: images through
``Embedding.__call__`` and ``poset.below``, sort keys through
``tuple_key``, witnesses through ``check_embedding`` on a dict.  On seeded
spaces, on corrupted raw spaces, and on mutated ``u`` and ``f``, the
library must return the same result, or raise the same exception class
with the same message.
"""

import itertools
import random

from ramseylift import metric_encoding as ME
from ramseylift import ultrametric_encoding as UE
from ramseylift.errors import DomainError, SpectrumError, VerificationError
from ramseylift.harness import random_embedded_pair, random_superposet_embedding
from ramseylift.orders import tuple_key
from ramseylift.structures import (
    Ball,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedMetricSpace,
    LinOrderedPoset,
    _distinct_balls,
    _members,
    check_embedding,
    enumerate_embeddings,
    identity_embedding,
)

from test_structure_core import corrupted_spaces

# ---------------------------------------------------------------------------
# references


def ref_encode_ultra(space):
    masks = space.ball_masks
    keys = _distinct_balls(masks)
    elems = [Ball(_members(space.universe, m), i) for i, m in keys]
    for (i, m), b in zip(keys, elems):
        if any(masks[i][r] != m for r in range(len(masks[i])) if m >> r & 1):
            raise VerificationError(
                f"ball {sorted(b.points)!r} at radius index {i} depends on the choice of center"
            )
    pairs = [(elems[p], elems[q]) for p, (i, m) in enumerate(keys)
             for q, (j, m2) in enumerate(keys) if p != q and i <= j and not m & ~m2]
    return LinOrderedPoset.build(elems, pairs), dict(zip(keys, elems)), masks


def ref_encode_metric(space):
    k = len(space.spectrum) - 1
    dist, spect = space.scaled
    n = len(space.universe)
    elems = [(x, i) for i in range(k + 1) for x in space.universe]
    pairs = []
    for p, a in enumerate(elems):
        i, r = divmod(p, n)
        for j in range(i, k + 1):
            gap, level = spect[j] - spect[i], elems[j * n:(j + 1) * n]
            pairs += [(a, b) for b, v in zip(level, dist[r]) if v <= gap and b is not a]
    return LinOrderedPoset.build(elems, pairs)


def ref_check_tuple_images(space, poset, images, kind, dist):
    key = {x: tuple_key(poset.order, kind, t) for x, t in images.items()}
    for x, y in itertools.combinations(space.universe, 2):
        expected = space.d(x, y)
        got = dist(images[x], images[y])
        if got != expected:
            raise VerificationError(
                f"distance of images of {x!r},{y!r} is {got}, expected {expected}"
            )
        if not key[x] < key[y]:
            raise VerificationError(f"images of {x!r},{y!r} are not {kind}-increasing")


def ref_dist_ultra(spect, a, b):
    j = len(a)
    while j and a[j - 1] == b[j - 1]:
        j -= 1
    return spect[j]


def ref_dist_metric(poset, spect, a, b):
    k = len(spect) - 1
    if len(a) != k or len(b) != k:
        raise DomainError(f"tuples must have length {k}")
    for p in range(k):
        if all(poset.below(a[i], b[i + p]) and poset.below(b[i], a[i + p])
               for i in range(k - p)):
            return spect[p]
    return spect[k]


def ref_phi_ultra(space, poset, u):
    ball_poset, ball_of, masks = ref_encode_ultra(space)
    if u.source != ball_poset or u.target != poset:
        raise DomainError("phi requires an embedding of the space's ball poset into the target poset")
    spect = space.spectrum
    k = len(spect) - 1
    images = {
        x: tuple(u(ball_of[i, masks[i][r]]) for i in range(k))
        for r, x in enumerate(space.universe)
    }
    if len(set(images.values())) != len(images):
        raise VerificationError("tuple images are not pairwise distinct")
    ref_check_tuple_images(space, poset, images, "alex", lambda a, b: ref_dist_ultra(spect, a, b))
    return images


def ref_witness_ultra(space, subspace, f):
    if f.source != subspace or f.target != space:
        raise DomainError("witness requires an embedding of the second space into the first")
    if space.spectrum != subspace.spectrum:
        raise SpectrumError("witness requires both spaces to share one spectrum")
    poset1, ball_of, masks = ref_encode_ultra(space)
    poset2 = ref_encode_ultra(subspace)[0]
    mapping = {}
    for b in poset2.universe:
        i = b.radius_index
        images = {masks[i][space.order.rank(f(y))] for y in b.points}
        if len(images) != 1:
            raise VerificationError(
                f"image ball of {sorted(b.points)!r} depends on the choice of center"
            )
        mapping[b] = ball_of[i, images.pop()]
    return check_embedding(mapping, poset2, poset1)


def ref_phi_metric(space, poset, u):
    if u.source != ref_encode_metric(space) or u.target != poset:
        raise DomainError(
            "phi requires an embedding of the space's level poset into the target poset")
    spect = space.spectrum
    if not ME._is_tight(spect):
        raise SpectrumError("phi requires a tight spectrum")
    k = len(spect) - 1
    images = {x: tuple(u((x, i)) for i in range(k)) for x in space.universe}
    ref_check_tuple_images(space, poset, images, "lex",
                           lambda a, b: ref_dist_metric(poset, spect, a, b))
    return images


def ref_witness_metric(space, subspace, f):
    if f.source != subspace or f.target != space:
        raise DomainError("witness requires an embedding of the second space into the first")
    if space.spectrum != subspace.spectrum:
        raise SpectrumError("witness requires both spaces to share one spectrum")
    src, tgt = ref_encode_metric(subspace), ref_encode_metric(space)
    return check_embedding({(x, i): (f(x), i) for (x, i) in src.universe}, src, tgt)


def outcome(fn, *args):
    """The result, or the exception's class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any difference is a failure
        return (type(exc), str(exc))


ENCODINGS = {  # kind -> (encode, reference encode, phi, reference phi, witness, reference)
    "ultrametric": (lambda s: UE.encode_ultrametric(s).poset, lambda s: ref_encode_ultra(s)[0],
                    UE.phi_ultra, ref_phi_ultra, UE.witness_ultra, ref_witness_ultra),
    "metric": (ME.encode_metric, ref_encode_metric,
               ME.phi_metric, ref_phi_metric, ME.witness_metric, ref_witness_metric),
}


# ---------------------------------------------------------------------------
# mutations


def mutated_ranks(rng, ranks, size):
    """The ranks with two entries swapped, with one entry redrawn from
    range(size), and shifted by one where that stays in range."""
    ranks = list(ranks)
    if len(ranks) > 1:
        i, j = rng.sample(range(len(ranks)), 2)
        swapped = ranks[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield tuple(swapped)
    if ranks:
        redrawn = ranks[:]
        redrawn[rng.randrange(len(ranks))] = rng.randrange(size)
        yield tuple(redrawn)
        if max(ranks) + 1 < size:
            yield tuple(r + 1 for r in ranks)


def check_trials(kind, D, E, f, u, rng):
    encode, ref_encode, phi, ref_phi, witness, ref_witness = ENCODINGS[kind]
    assert outcome(encode, D) == outcome(ref_encode, D)
    us = [u] + [Embedding(u.source, u.target, r)
                for r in mutated_ranks(rng, u.ranks, len(u.target.universe))]
    for v in us:
        assert outcome(phi, D, v.target, v) == outcome(ref_phi, D, v.target, v)
    foreign = identity_embedding(u.target)
    assert outcome(phi, D, u.target, foreign) == outcome(ref_phi, D, u.target, foreign)
    fs = [f] + [Embedding(E, D, r) for r in mutated_ranks(rng, f.ranks, len(D.universe))]
    for g in fs:
        assert outcome(witness, D, E, g) == outcome(ref_witness, D, E, g)
    assert outcome(witness, E, E, f) == outcome(ref_witness, E, E, f)


def test_seeded_trials_match_the_element_forms():
    rng = random.Random("rank-encodings:seeded")
    for kind in ENCODINGS:
        results = set()
        for _ in range(150):
            D, E = random_embedded_pair(rng, kind)
            f = rng.choice(list(enumerate_embeddings(E, D)))
            u = random_superposet_embedding(rng, ENCODINGS[kind][0](D))
            check_trials(kind, D, E, f, u, rng)
            for v in [u, *(Embedding(u.source, u.target, r)
                           for r in mutated_ranks(rng, u.ranks, len(u.target.universe)))]:
                result = outcome(ENCODINGS[kind][2], D, v.target, v)
                results.add(result[0] if isinstance(result, tuple) else dict)
        # the mutations reached both the passing and the failing clauses
        assert {dict, VerificationError} <= results, kind


def test_corrupted_raw_spaces_match_the_element_forms():
    rng = random.Random("rank-encodings:raw")
    for kind, cls in (("ultrametric", ConvUltrametricSpace), ("metric", LinOrderedMetricSpace)):
        for _ in range(120):
            for _label, space in corrupted_spaces(rng, cls):
                encode, ref_encode, phi, ref_phi, witness, ref_witness = ENCODINGS[kind]
                poset = outcome(encode, space)
                assert poset == outcome(ref_encode, space)
                # With no spectrum the element form refused the empty image
                # tuples by their length (DomainError), where the rank form
                # reads past the spectrum (IndexError); no valid space gets there.
                if isinstance(poset, LinOrderedPoset) and space.spectrum:
                    u = identity_embedding(poset)
                    assert outcome(phi, space, poset, u) == outcome(ref_phi, space, poset, u)
                f = identity_embedding(space)
                assert outcome(witness, space, space, f) == outcome(ref_witness, space, space, f)
