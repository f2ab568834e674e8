"""Encoding of convexly ordered ultrametric spaces into ordered posets.

A space with spectrum ``0 = s_0 < ... < s_k`` encodes to the poset of its
balls (``Ball``, the named tuple (point set, radius index)) under the
componentwise order, linearly ordered by radius then leftmost point; the
last four spaces' encodings are remembered, so ``phi_ultra`` and
``witness_ultra`` reuse the one their caller just built.  Conversely a
poset A yields a space on the k-tuples over A where the distance between
two tuples is s_j for the least j such that they agree from index j on (s_k
when they disagree at the last index), ordered anti-lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SpectrumError, VerificationError
from .structures import (
    DEFAULT_MAX_POINTS,
    Ball,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedPoset,
    _check_tuple_images,
    _distinct_balls,
    _members,
    _memo_recent,
    check_embedding,
    checked_spectrum,
    _tuple_points,
    validate_structure,
)


@dataclass(frozen=True)
class BallPoset:
    space: ConvUltrametricSpace
    poset: LinOrderedPoset  # elements are Ball values in radius-then-leftmost order


@_memo_recent
def _encode(space: ConvUltrametricSpace):
    """The ball poset, the balls keyed by (radius index, rank mask), and the
    ball masks of every point (``masks[i][r]``); remembered for the last few
    spaces, so callers share the dict and must not change it."""
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
    poset = LinOrderedPoset.build(elems, pairs)
    return BallPoset(space, poset), dict(zip(keys, elems)), masks


def encode_ultrametric(space: ConvUltrametricSpace) -> BallPoset:
    """The ball poset of the space.

    Asserts center-independence: every point of a ball generates the same
    point set at the ball's nominal radius.
    """
    return _encode(space)[0]


def _dist_raw(spect: tuple[Fraction, ...], a: tuple, b: tuple) -> Fraction:
    j = len(a)
    while j and a[j - 1] == b[j - 1]:
        j -= 1
    return spect[j]


def dist_ultra_tuples(poset: LinOrderedPoset, spectrum, a: tuple, b: tuple) -> Fraction:
    """Distance between two k-tuples: s_j for the least j with the tuples
    equal from index j on; s_k when no such j exists."""
    spect = checked_spectrum(spectrum)
    k = len(spect) - 1
    if len(a) != k or len(b) != k:
        raise DomainError(f"tuples must have length {k}")
    for entry in itertools.chain(a, b):
        if entry not in poset.order:
            raise DomainError(f"tuple entry {entry!r} is not a poset element")
    return _dist_raw(spect, tuple(a), tuple(b))


def decode_poset_ultra(
    poset: LinOrderedPoset,
    spectrum,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ConvUltrametricSpace:
    """The tuple space over the poset, on all |A|^k tuples.

    Validates the ultrametric axioms and ball convexity of the result.
    Refuses to build more than ``max_points`` points.
    """
    spect = checked_spectrum(spectrum)
    pts = _tuple_points(poset, len(spect) - 1, max_points, "alex")
    dist = {(s, t): _dist_raw(spect, s, t) for s, t in itertools.combinations(pts, 2)}
    return ConvUltrametricSpace.build(pts, dist, spect)


def phi_ultra(space: ConvUltrametricSpace, poset: LinOrderedPoset, u: Embedding) -> dict:
    """The point map x -> (u(B(x, s_0)), ..., u(B(x, s_{k-1}))).

    ``u`` must embed the ball poset of the space into ``poset``.  Verifies
    injectivity, exact distance preservation, and strict anti-lexicographic
    order preservation of the images.
    """
    ball_poset, ball_of, masks = _encode(space)
    if u.source != ball_poset.poset or u.target != poset:
        raise DomainError("phi requires an embedding of the space's ball poset into the target poset")
    spect = space.spectrum
    k = len(spect) - 1
    images = {
        x: tuple(u(ball_of[i, masks[i][r]]) for i in range(k))
        for r, x in enumerate(space.universe)
    }
    if len(set(images.values())) != len(images):
        raise VerificationError("tuple images are not pairwise distinct")
    _check_tuple_images(space, poset, images, "alex", lambda a, b: _dist_raw(spect, a, b))
    return images


def witness_ultra(
    space: ConvUltrametricSpace, subspace: ConvUltrametricSpace, f: Embedding
) -> Embedding:
    """The ball map (P, i) -> (ball of f(min P) at radius s_i, i), an
    embedding of the subspace's ball poset into the space's ball poset.

    Requires both spaces to carry the same spectrum.  Center-independence
    of the image ball is asserted for every point of P.
    """
    if f.source != subspace or f.target != space:
        raise DomainError("witness requires an embedding of the second space into the first")
    if space.spectrum != subspace.spectrum:
        raise SpectrumError("witness requires both spaces to share one spectrum")
    bp1, ball_of, masks = _encode(space)
    bp2 = encode_ultrametric(subspace)
    mapping = {}
    for b in bp2.poset.universe:
        i = b.radius_index
        images = {masks[i][space.order.rank(f(y))] for y in b.points}
        if len(images) != 1:
            raise VerificationError(
                f"image ball of {sorted(b.points)!r} depends on the choice of center"
            )
        mapping[b] = ball_of[i, images.pop()]
    return check_embedding(mapping, bp2.poset, bp1.poset)


def reduce_spectrum(space: ConvUltrametricSpace) -> ConvUltrametricSpace:
    """The same space with its spectrum shrunk to the attained distances plus 0."""
    spect = tuple(sorted(space.attained() | {Fraction(0)}))
    reduced = ConvUltrametricSpace(space.order, space.dmatrix, spect)
    validate_structure(reduced)
    return reduced
