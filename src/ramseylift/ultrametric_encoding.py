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

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SpectrumError, VerificationError
from .orders import BaseOrder
from .structures import (
    Ball,
    ConvUltrametricSpace,
    Embedding,
    LinOrderedPoset,
    _bits,
    _check_tuple_images,
    _distinct_balls,
    _members,
    _memo_recent,
    _rank_embedding,
    _tuple_ranks,
    check_structure,
    checked_spectrum,
)


@dataclass(frozen=True)
class BallPoset:
    space: ConvUltrametricSpace
    poset: LinOrderedPoset  # elements are Ball values in radius-then-leftmost order


@_memo_recent
def _encode(space: ConvUltrametricSpace):
    """The ball poset, the rank of each ball keyed by (radius index, rank
    mask), and the ball masks of every point (``masks[i][r]``); remembered
    for the last few spaces, so callers share the dict and must not change it."""
    masks = space.ball_masks
    keys = _distinct_balls(masks)
    elems = [Ball(_members(space.universe, m), i) for i, m in keys]
    for (i, m), b in zip(keys, elems):
        if any(masks[i][r] != m for r in _bits(m)):
            raise VerificationError(
                f"ball {sorted(b.points)!r} at radius index {i} depends on the choice of center"
            )
    up = [sum(1 << q for q, (j, m2) in enumerate(keys) if i <= j and not m & ~m2)
          for i, m in keys]
    poset = LinOrderedPoset.from_rows(elems, up)
    return BallPoset(space, poset), {key: p for p, key in enumerate(keys)}, masks


def encode_ultrametric(space: ConvUltrametricSpace) -> BallPoset:
    """The ball poset of the space.

    Asserts center-independence: every point of a ball generates the same
    point set at the ball's nominal radius.
    """
    return _encode(space)[0]


def _level(a: tuple, b: tuple) -> int:
    """The least j with the tuples equal from index j on."""
    j = len(a)
    while j and a[j - 1] == b[j - 1]:
        j -= 1
    return j


def decode_poset_ultra(poset: LinOrderedPoset, spectrum) -> ConvUltrametricSpace:
    """The tuple space over the poset, on all |A|^k tuples.

    Validates the ultrametric axioms and ball convexity of the result.
    Refuses to build more than ``DEFAULT_MAX_POINTS`` points.
    """
    spect = checked_spectrum(spectrum)
    pts = _tuple_ranks(poset, len(spect) - 1, "alex")
    elems = poset.universe
    space = ConvUltrametricSpace(
        BaseOrder([tuple(map(elems.__getitem__, t)) for t in pts]),
        tuple(tuple([spect[_level(s, t)] for t in pts]) for s in pts), spect)
    check_structure(space)
    return space


def phi_ultra(space: ConvUltrametricSpace, poset: LinOrderedPoset, u: Embedding) -> dict:
    """The point map x -> (u(B(x, s_0)), ..., u(B(x, s_{k-1}))).

    ``u`` must embed the ball poset of the space into ``poset``.  Verifies
    injectivity, exact distance preservation, and strict anti-lexicographic
    order preservation of the images.
    """
    ball_poset, rank_of, masks = _encode(space)
    if u.source != ball_poset.poset or u.target != poset:
        raise DomainError("phi requires an embedding of the space's ball poset into the target poset")
    k, to = len(space.spectrum) - 1, u.ranks
    images = [tuple([to[rank_of[i, masks[i][r]]] for i in range(k)])
              for r in range(len(space.universe))]
    if len(set(images)) != len(images):
        raise VerificationError("tuple images are not pairwise distinct")
    _check_tuple_images(space, images, "alex", _level)
    elems = poset.universe
    return {x: tuple(map(elems.__getitem__, t)) for x, t in zip(space.universe, images)}


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
    bp1, rank_of, masks = _encode(space)
    bp2, sub_rank_of, _ = _encode(subspace)
    ranks = []
    for (i, m), b in zip(sub_rank_of, bp2.poset.universe):
        images = {masks[i][f.ranks[y]] for y in _bits(m)}
        if len(images) != 1:
            raise VerificationError(
                f"image ball of {sorted(b.points)!r} depends on the choice of center"
            )
        ranks.append(rank_of[i, images.pop()])
    return _rank_embedding(bp2.poset, bp1.poset, tuple(ranks))


def reduce_spectrum(space: ConvUltrametricSpace) -> ConvUltrametricSpace:
    """The same space with its spectrum shrunk to the attained distances plus 0."""
    spect = tuple(sorted(space.attained() | {Fraction(0)}))
    reduced = ConvUltrametricSpace(space.order, space.dmatrix, spect)
    check_structure(reduced)
    return reduced
