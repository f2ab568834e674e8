"""Encoding of linearly ordered posets into the parameter-word category.

The family (see :mod:`~ramseylift.subset_encoding`) is the nonempty
downsets in the anti-lexicographic subset order; the target is the poset
of subsets of {1..n} under reverse inclusion.  The anti-lexicographic
listing is load-bearing: it is what makes the witness word well-formed for
every embedding of a subposet.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import subset_encoding as SE
from .structures import Embedding, LinOrderedPoset, _memo_recent, downsets
from .words import ParameterWord


@dataclass(frozen=True)
class PosetEncoding(SE.SubsetEncoding):
    poset: LinOrderedPoset
    downsets: tuple[frozenset, ...]  # nonempty, strictly increasing under alex

    structure = property(lambda self: self.poset)
    family = property(lambda self: self.downsets)

    @staticmethod
    def related(a, b) -> bool:
        """The target order, reverse inclusion: a lies below b when a contains b."""
        return a & b == b


@_memo_recent
def encode_poset(p: LinOrderedPoset) -> PosetEncoding:
    return PosetEncoding(p, downsets(p))


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
    return LinOrderedPoset.from_up_rows(*SE.on_subsets(n, subsets, PosetEncoding.related))


def powerset_poset(n: int) -> LinOrderedPoset:
    """The full subset poset on {1..n} under reverse inclusion; 2^n elements."""
    return poset_on_subsets(n, SE.powerset(n))
