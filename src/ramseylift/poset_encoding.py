"""Encoding of linearly ordered posets into the parameter-word category.

The family (see :mod:`~ramseylift.subset_encoding`) is the nonempty
downsets in the anti-lexicographic subset order; the target is the poset
of subsets of {1..n} under reverse inclusion.  The anti-lexicographic
listing is load-bearing: it is what makes the witness word well-formed for
every embedding of a subposet.

An encoding is ``PosetEncoding(structure, members)``: the downset masks of
:func:`~ramseylift.structures.downset_masks`.  ``downsets`` (the same
downsets as sets of elements) and ``family`` are views for output.
"""

from __future__ import annotations

from . import subset_encoding as SE
from .structures import Embedding, LinOrderedPoset, _members, _memo_recent, downset_masks
from .words import ParameterWord


class PosetEncoding(SE.SubsetEncoding):
    @property
    def downsets(self) -> tuple[frozenset, ...]:
        """The nonempty downsets, strictly increasing under alex."""
        return tuple(_members(self.structure.universe, m) for m in self.members)

    family = downsets

    @staticmethod
    def related(a, b) -> bool:
        """The target order, reverse inclusion: a lies below b when a contains b."""
        return a & b == b


@_memo_recent
def encode_poset(p: LinOrderedPoset) -> PosetEncoding:
    return PosetEncoding(p, tuple(downset_masks(p)))


def phi_poset(p: LinOrderedPoset, u: ParameterWord) -> dict:
    """The element map i -> union of X_a over downsets D_a containing i;
    verifies that i <= j exactly when the image of i contains that of j,
    and that images strictly increase in the clex order."""
    return SE.phi(encode_poset(p), u)


def witness_poset(
    p: LinOrderedPoset, p2: LinOrderedPoset, f: Embedding, u: ParameterWord
) -> ParameterWord:
    """The word h whose i-th token is x_j when the f-preimage of the i-th
    downset of ``p`` is the j-th downset of ``p2``, and a letter when the
    preimage is empty (see :func:`~ramseylift.subset_encoding.witness`)."""
    return SE.witness(encode_poset(p), encode_poset(p2), f, u)


def poset_on_subsets(n: int, subsets) -> LinOrderedPoset:
    """The poset of given subsets of {1..n} under reverse inclusion,
    linearly ordered by clex."""
    return LinOrderedPoset.from_rows(*SE.on_subsets(n, subsets, PosetEncoding.related))


def powerset_poset(n: int) -> LinOrderedPoset:
    """The full subset poset on {1..n} under reverse inclusion; 2^n elements."""
    return poset_on_subsets(n, SE.powerset(n))
